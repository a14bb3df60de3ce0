import itertools
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import oracle
from niepkit._util import VERIFY_RTOL, slack
from niepkit.blocks import BlockBuildSpec, build_circ_skew, build_even, build_odd
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.errors import EigensolveError
from niepkit.oracle import match_spectra, spectrum
from niepkit.realize import brauer_augment
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

    @pytest.mark.parametrize("order", [4, oracle._SPLIT_ORDER])
    def test_solver_failure_raises_eigensolve_error(self, order):
        # dense and split routes alike
        def fail(matrix):
            raise np.linalg.LinAlgError("no convergence")

        M = build_circ_skew(np.ones(order // 2), np.zeros(order // 2))
        with mock.patch.object(np.linalg, "eigvals", fail):
            with pytest.raises(EigensolveError, match="^eigenvalue iteration failed"):
                spectrum(M)

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

    def test_truth_is_the_verdict(self):
        assert bool(match_spectra([1.0, 2.0], [2.0, 1.0], 0.0)) is True
        assert bool(match_spectra([1.0, 2.0], [2.0, 1.5], 0.1)) is False

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_spectra([1, 2], [1, 2, 3], 1e-8)

    def test_double_eigenvalues(self):
        M = spectrum(fx.EIGHT_MATRIX)
        assert match_spectra(M, fx.EIGHT_SPECTRUM, 1e-6).matched

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # an infinite tol would match any two spectra, a NaN or negative one none
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            match_spectra([1.0, 2.0], [5.0, 9.0], tol)


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


# ------------------------------------------------------------- split route


def _spectrum_and_shapes(M):
    """``spectrum(M)`` and the shapes of the arrays it hands LAPACK."""
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as spy:
        values = spectrum(M)
    return values, [np.shape(call.args[0]) for call in spy.call_args_list]


def _route(N):
    """The shapes :func:`spectrum` solves at order N for a block build."""
    n = N // 2
    if N < oracle._SPLIT_ORDER:
        return [(N, N)]
    return [(2, n, n)] if N % 2 == 0 else [(n + 1, n + 1), (n, n)]


def _symmetric_rows(rng, n):
    """Rows whose circulant and skew circulant are symmetric: a build whose
    eigenvalues are real and mostly double."""
    c = rng.uniform(-1.0, 1.0, size=n)
    c[1:] = (c[1:] - c[1:][::-1]) / 2.0
    u = rng.uniform(0.0, 1.0, size=n)
    u[1:] = (u[1:] + u[1:][::-1]) / 2.0
    return np.abs(c) + u, c


@st.composite
def _block_builds(draw):
    """A block build at an even or odd order just below or at the split
    crossover, or at order 63 / 64: circulant rows, general (S, C), bordered
    with an optional uneven last-row split, or Brauer; gamma 0, sign -1,
    zero rows and the symmetric repeated-eigenvalue build included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["circ_skew", "even", "odd", "brauer"]))
    half = oracle._SPLIT_ORDER // 2
    odd = kind in ("odd", "brauer")
    n = draw(st.sampled_from([half - 1, half, 31 if odd else 32]))
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0]))
    sign = draw(st.sampled_from([1, -1]))
    zero = draw(st.sampled_from(["none", "skew", "both"]))
    c = rng.uniform(-1.0, 1.0, size=n) * (zero == "none")
    if kind == "circ_skew":
        if draw(st.booleans()):
            s, c = _symmetric_rows(rng, n)
        else:
            s = np.abs(c) + rng.uniform(0.0, 1.0, size=n)
        s, c = s * (zero != "both"), c * (zero == "none")
        return build_circ_skew(s, c, BlockBuildSpec(gamma, sign))
    if kind == "even":
        C = rng.uniform(-1.0, 1.0, size=(n, n)) * (zero == "none")
        S = (np.abs(C) + rng.uniform(0.0, 1.0, size=(n, n))) * (zero != "both")
        return build_even(S, C, BlockBuildSpec(gamma, sign))
    if kind == "odd":
        S = (np.abs(c).max() + rng.uniform(0.0, 1.0, size=(n + 1, n + 1))) * (zero != "both")
        split = None
        if draw(st.booleans()):
            w = rng.uniform(0.0, 1.0, size=n)
            split = tuple(zip(w * S[n, :n], (1.0 - w) * S[n, :n]))
        return build_odd(S, c, BlockBuildSpec(gamma, sign, split))
    # brauer: distinct values need an exhaustive search, so order 63 takes
    # a skew row (x, 0, ..., 0), one repeated value, and a zero tail
    if n == 31:
        c[1:] = 0.0
    ups = skew_eigenvalues(2.0 * c)
    tail = np.zeros(n, dtype=complex)
    head = 0.0
    if zero == "none" and n < 31:
        lam = circulant_eigenvalues(rng.uniform(0.0, 1.0, size=n + 1))
        tail, head = lam[1:], float(lam[0].real)
    rho = (n + 1) * float(np.abs(ups).sum()) / n + head + rng.uniform(0.0, 1.0)
    return brauer_augment(ups, tail, rho, gamma=gamma, sign=sign, cap=n + 1)


@settings(max_examples=120, deadline=None)
@given(M=_block_builds())
def test_split_and_dense_spectra_agree(M):
    values, shapes = _spectrum_and_shapes(M)
    assert shapes == _route(M.shape[0])
    dense = np.linalg.eigvals(M)
    tol = 1e-12 * max(1.0, float(np.abs(dense).max()))
    assert match_spectra(values, dense, tol).matched


def _block_case(N, seed=0):
    """A verified block build of order N and its intended spectrum: circulant
    rows at even N, a bordered build with an uneven last-row split at odd N."""
    rng = np.random.default_rng(seed)
    n = N // 2
    c = rng.uniform(-1.0, 1.0, size=n)
    spec = BlockBuildSpec(0.75, -1)
    if N % 2 == 0:
        s = np.abs(c) + rng.uniform(0.0, 1.0, size=n)
        M = build_circ_skew(s, c, spec)
    else:
        s = np.abs(c).max() + rng.uniform(0.0, 1.0, size=n + 1)
        last = circulant(s)[n, :n]
        w = rng.uniform(0.0, 1.0, size=n)
        spec = BlockBuildSpec(0.75, -1, tuple(zip(w * last, (1.0 - w) * last)))
        M = build_odd(circulant(s), c, spec)
    return M, np.concatenate([circulant_eigenvalues(s), -0.75 * skew_eigenvalues(c)])


def _verify_tol(expected):
    return slack(VERIFY_RTOL, expected)


@pytest.mark.parametrize(
    "N, entry",
    [(64, (1, 1)), (64, (5, 2)), (63, (1, 1)), (63, (5, 2)), (63, (3, 62))],
    ids=["64-a", "64-b", "63-a", "63-b", "63-last-column"],
)
def test_one_ulp_off_the_layout_takes_the_dense_path(N, entry):
    # (1, 1) mirrors a, (5, 2) mirrors b, (3, 62) the last column's top copy
    M, expected = _block_case(N)
    tol = _verify_tol(expected)
    split, shapes = _spectrum_and_shapes(M)
    assert shapes == _route(N)
    M[entry] = np.nextafter(M[entry], np.inf)
    dense, shapes = _spectrum_and_shapes(M)
    assert shapes == [(N, N)]
    assert match_spectra(split, expected, tol).matched
    assert match_spectra(dense, expected, tol).matched


def test_order_64_splits_and_order_65_raises_whatever_its_structure():
    M, expected = _block_case(64)
    values, shapes = _spectrum_and_shapes(M)
    assert shapes == [(2, 32, 32)]
    assert match_spectra(values, expected, _verify_tol(expected)).matched
    bordered = build_odd(circulant(np.ones(33)), np.zeros(32))
    for big in (bordered, np.eye(65), np.ones((65, 65))):
        with pytest.raises(ValueError, match="^matrix order 65 exceeds 64$"):
            spectrum(big)


@pytest.mark.parametrize("N", [63, 64])
@pytest.mark.parametrize("mirrored", [False, True], ids=["one-entry", "mirrored-pair"])
def test_entry_moved_by_six_tolerances_is_rejected(N, mirrored):
    # S and C diagonal put every 2x2 block on the diagonal, so a move stays
    # in one block's eigenvalues; a circulant build would spread it over N
    rng = np.random.default_rng(N)
    n = N // 2
    s = rng.uniform(1.0, 2.0, size=n + N % 2)
    c = rng.uniform(-1.0, 1.0, size=n)
    spec = BlockBuildSpec(1.0, 1)
    if N % 2:
        c[1:] = 0.0  # the skew circulant is c[0] * I
        M = build_odd(np.diag(s), c, spec)
        expected = np.concatenate([s, np.full(n, c[0])])
    else:
        M = build_even(np.diag(s), np.diag(c), spec)
        expected = np.concatenate([s, c])
    tol = _verify_tol(expected)
    assert match_spectra(spectrum(M), expected, tol).matched
    M[0, 0] += 6.0 * tol
    if mirrored:
        M[1, 1] += 6.0 * tol
    values, shapes = _spectrum_and_shapes(M)
    assert shapes == (_route(N) if mirrored else [(N, N)])
    report = match_spectra(values, expected, tol)
    assert not report.matched
    assert report.max_pair_distance > 2.0 * tol


def test_a_half_that_overflows_takes_the_dense_path():
    # a - b overflows in every block; the whole matrix reports the overflow
    N = oracle._SPLIT_ORDER
    M = np.kron(np.eye(N // 2), [[1e308, -1e308], [-1e308, 1e308]])
    with mock.patch.object(np.linalg, "eigvals", wraps=np.linalg.eigvals) as spy:
        with pytest.raises(ValueError, match="eigenvalues of the matrix overflow"):
            spectrum(M)
    assert [np.shape(call.args[0]) for call in spy.call_args_list] == [(N, N)]


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
