import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.oracle import match_spectra, spectrum
from niepkit.structured import circulant, skew_circulant


class TestSpectrum:
    def test_circulant_fixture(self):
        vals = spectrum(circulant([5, 6, 3, 1]))
        report = match_spectra(vals, [15, 1, 2 + 5j, 2 - 5j], 1e-9 * 15)
        assert report.matched

    def test_seven_fixture(self):
        vals = spectrum(fx.SEVEN_MATRIX)
        assert match_spectra(vals, fx.SEVEN_SPECTRUM, 1e-8 * 15).matched

    def test_identity(self):
        np.testing.assert_allclose(spectrum(np.eye(3)), np.ones(3))

    def test_order_cap(self):
        with pytest.raises(ValueError):
            spectrum(np.eye(65))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            spectrum([[np.nan, 0.0], [0.0, 1.0]])

    def test_overflowing_eigenvalues_raise(self):
        # a finite matrix whose eigenvalue 2e308 is not a float
        with pytest.raises(ValueError, match="eigenvalues of the matrix overflow"):
            spectrum([[1e308, 1e308], [1e308, 1e308]])

    def test_eigenvalue_sum_matches_trace(self):
        rng = np.random.default_rng(21)
        for n in (2, 5, 9, 16):
            M = rng.normal(size=(n, n))
            vals = spectrum(M)
            assert abs(vals.sum() - np.trace(M)) <= 1e-9 * np.linalg.norm(M)

    def test_conjugate_closure(self):
        rng = np.random.default_rng(22)
        M = rng.normal(size=(7, 7))
        vals = spectrum(M)
        assert match_spectra(vals, vals.conjugate(), 1e-9 * np.linalg.norm(M)).matched

    def test_cross_validates_structured_spectra(self):
        rng = np.random.default_rng(23)
        for n in (2, 4, 9):
            row = rng.normal(size=n)
            tol = 1e-9 * np.sum(np.abs(row))
            assert match_spectra(
                spectrum(circulant(row)), circulant_eigenvalues(row), tol
            ).matched
            assert match_spectra(
                spectrum(skew_circulant(row)), skew_eigenvalues(row), tol
            ).matched


class TestMatchSpectra:
    def test_permuted_lists_match_exactly(self):
        x = np.array([1 + 1j, 2.0, -3 + 0.5j])
        report = match_spectra(x, x[::-1], 0.0)
        assert report.matched
        assert report.max_pair_distance == 0.0
        # pairing maps each entry to its equal partner
        for i, j in report.pairing:
            assert x[i] == x[::-1][j]

    def test_within_tolerance(self):
        assert match_spectra([1 + 1e-9j, 2], [1, 2], 1e-8).matched
        assert not match_spectra([1 + 1e-9j, 2], [1, 2], 1e-10).matched

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_spectra([1, 2], [1, 2, 3], 1e-8)

    def test_double_eigenvalues(self):
        M = spectrum(fx.EIGHT_MATRIX)
        assert match_spectra(M, fx.EIGHT_SPECTRUM, 1e-6).matched


def _reference_bottleneck(x, y):
    """Brute force: the smallest largest distance over all pairings, on the
    distance matrix :func:`match_spectra` builds; n <= 7."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    dist = np.abs(x[:, None] - y[None, :])
    perms = np.array(list(itertools.permutations(range(x.size))))
    return float(dist[np.arange(x.size), perms].max(axis=1).min())


def _assert_bottleneck_pairing(x, y, report):
    """``pairing`` is a permutation, rows in index order, whose largest
    distance is ``max_pair_distance``."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    rows, cols = (list(side) for side in zip(*report.pairing))
    assert rows == list(range(x.size))
    assert sorted(cols) == list(range(x.size))
    dist = np.abs(x[:, None] - y[None, :])
    assert dist[rows, cols].max() == report.max_pair_distance


class TestBottleneck:
    def test_judged_on_the_largest_distance(self):
        # the least total distance pairs these at a largest distance of 5.0,
        # but a pairing within sqrt(13) exists
        x, y = [1 + 2j, 2, -3], [1 - 3j, -1 - 2j, 3 - 1j]
        report = match_spectra(x, y, 3.606)
        assert report.matched
        assert report.max_pair_distance == _reference_bottleneck(x, y)
        assert report.max_pair_distance == pytest.approx(np.sqrt(13), rel=1e-15)
        _assert_bottleneck_pairing(x, y, report)

    def test_moved_entry_is_rejected(self):
        # one entry of a correct spectrum moved 2 tol away from every
        # computed eigenvalue, among distinct and among repeated ones
        for M, expected in (
            (circulant([5, 6, 3, 1]), [15, 1, 2 + 5j, 2 - 5j]),
            (np.eye(4), [1.0, 1.0, 1.0, 1.0]),
        ):
            computed = spectrum(M)
            tol = 1e-9 * 15
            assert match_spectra(computed, expected, tol).matched
            moved = np.array(expected, dtype=complex)
            moved[1] += 2j * tol
            assert np.abs(computed - moved[1]).min() > 1.9 * tol
            report = match_spectra(computed, moved, tol)
            assert not report.matched
            assert report.max_pair_distance > 1.9 * tol

    def test_sixty_four_fold_cluster(self):
        computed = spectrum(np.eye(64))
        report = match_spectra(computed, np.ones(64), 1e-12)
        assert report.matched
        _assert_bottleneck_pairing(computed, np.ones(64), report)

    def test_longer_than_the_recursion_limit(self):
        # x[i] lies 0.5 from y[i - 1] and y[i]; the nearest columns collide
        # once, and the one augmenting path runs through every row
        n = sys.getrecursionlimit() + 10
        x, y = np.arange(n), np.arange(n) + 0.5
        report = match_spectra(x, y, 0.5)
        assert report.matched and report.max_pair_distance == 0.5
        _assert_bottleneck_pairing(x, y, report)


# lattice points tie exactly; nudges make clusters of near-equal values
_NUDGE = st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 0.5])
_SIGN = st.sampled_from([-1.0, 1.0])


@st.composite
def _lattice_pairs(draw):
    n = draw(st.integers(1, 7))

    def point(z=None):
        if z is None:
            z = complex(draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        return z + complex(draw(_SIGN) * draw(_NUDGE), draw(_SIGN) * draw(_NUDGE))

    x = [point() for _ in range(n)]
    if draw(st.booleans()):
        y = [point() for _ in range(n)]
    else:
        y = [point(z) for z in draw(st.permutations(x))]
    return x, y


@settings(max_examples=400, deadline=None)
@given(case=_lattice_pairs(), below=st.booleans())
def test_bottleneck_matches_brute_force(case, below):
    x, y = case
    want = _reference_bottleneck(x, y)
    tol = float(np.nextafter(want, 0.0)) if below else want
    report = match_spectra(x, y, tol)
    assert report.max_pair_distance == want
    assert report.matched is (want <= tol)
    _assert_bottleneck_pairing(x, y, report)


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import niepkit, niepkit.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
