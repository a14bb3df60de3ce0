import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import realize, spectra
from niepkit._util import VERIFY_RTOL, max_abs
from niepkit.blocks import BlockBuildSpec, build_circ_skew, build_even
from niepkit.dft import (
    circulant_eigenvalues,
    circulant_row_from_spectrum,
    skew_eigenvalues,
    skew_row_from_spectrum,
)
from niepkit.errors import MajorizationError, PairingError, RealizabilityError
from niepkit.oracle import match_spectra, spectrum
from niepkit.realize import (
    _dominated,
    ConditionReport,
    ConditionWitness,
    RegionPoint,
    SpectrumPair,
    brauer_augment,
    brauer_plan,
    build_from_witness,
    check_conditions,
    circulant_head_bound,
    in_gamma_region,
    realize_four,
    realize_region,
    region_check,
    skew_row_bound,
)
from niepkit.spectra import enumerate_circulant_permutations, enumerate_skew_permutations
from niepkit.structured import (
    AbsCirculant,
    abs_circulant,
    circulant,
    is_permutative,
    skew_circulant,
)
from test_dft import reference_recover_rows

DATA = Path(__file__).resolve().parent / "data"


def upsilon_eight():
    return skew_eigenvalues(fx.EIGHT_C_ROW)


def upsilon_seven():
    return skew_eigenvalues(fx.SEVEN_C_ROW)


class TestRealizeFour:
    def test_first_fixture_exact(self):
        assert np.array_equal(realize_four(fx.FOUR_A_SPECTRUM), fx.FOUR_A_MATRIX)

    def test_second_fixture_exact(self):
        assert np.array_equal(realize_four(fx.FOUR_B_SPECTRUM), fx.FOUR_B_MATRIX)

    def test_constant_real_spectrum_gives_scaled_identity(self):
        assert np.array_equal(realize_four([3.0, 3.0, 3.0, 3.0]), 3.0 * np.eye(4))

    def test_order_insensitive(self):
        shuffled = [-1 - 5j, 8, -1 + 5j, -6]
        assert np.array_equal(realize_four(shuffled), fx.FOUR_A_MATRIX)

    def test_condition_violation_named(self):
        with pytest.raises(RealizabilityError, match=r"lam1 - lam2 >= 2\*\|Im\(lam3\)\|"):
            realize_four([2, 1, 1j, -1j])
        with pytest.raises(RealizabilityError, match=r"sum\(spectrum\) >= 0"):
            realize_four([1, -9, 2 + 1j, 2 - 1j])
        with pytest.raises(RealizabilityError, match=r"lam1 \+ lam2 >= 2\*Re\(lam3\)"):
            realize_four([4, -1, 3 + 0.1j, 3 - 0.1j])

    def test_not_conjugate_closed(self):
        with pytest.raises(PairingError):
            realize_four([5, 1, 1j, 2j])
        with pytest.raises(PairingError):
            realize_four([5, 4, 3, 2])
        with pytest.raises(PairingError, match="^spectrum is not closed under conjugation$"):
            realize_four([5, 1, 1j, 1])

    def test_trace_equals_spectrum_sum(self):
        for sigma in (fx.FOUR_A_SPECTRUM, fx.FOUR_B_SPECTRUM):
            M = realize_four(sigma)
            total = complex(np.sum(np.asarray(sigma, complex)))
            assert abs(np.trace(M) - total.real) <= 1e-12 * max(abs(total), 1.0)

    def test_oracle_confirms_spectrum(self):
        for sigma in (fx.FOUR_A_SPECTRUM, fx.FOUR_B_SPECTRUM):
            M = realize_four(sigma)
            assert match_spectra(spectrum(M), sigma, 1e-9 * 8).matched


class TestRegion:
    def test_boundary_point(self):
        assert region_check(RegionPoint(r=1.0, a=1.0, b=0.0))

    def test_outside_imaginary_band(self):
        assert not region_check(RegionPoint(r=0.0, a=0.0, b=0.6))

    def test_interior_point_realizes(self):
        point = RegionPoint(r=0.5, a=-0.7, b=0.2)
        assert region_check(point)
        M = realize_region(point)
        assert M.min() >= 0.0
        assert match_spectra(spectrum(M), point.spectrum, 1e-9).matched

    def test_degenerate_corner(self):
        # boundary a = (1+r)/2 with r = 1 collapses to the identity
        M = realize_region(RegionPoint(r=1.0, a=1.0, b=0.0))
        assert np.array_equal(M, np.eye(4))
        assert match_spectra(spectrum(M), [1, 1, 1, 1], 1e-12).matched
        # r = 1 with a = 0 spreads each row as {1/2, 1/2, 0, 0}
        M = realize_region(RegionPoint(r=1.0, a=0.0, b=0.0))
        assert sorted(M[0].tolist()) == [0.0, 0.0, 0.5, 0.5]
        assert match_spectra(spectrum(M), [1, 1, 0, 0], 1e-12).matched

    def test_flat_center(self):
        M = realize_region(RegionPoint(r=0.0, a=0.0, b=0.0))
        assert np.array_equal(M, np.full((4, 4), 0.25))
        assert match_spectra(spectrum(M), [1, 0, 0, 0], 1e-9).matched

    def test_outside_raises(self):
        with pytest.raises(RealizabilityError):
            realize_region(RegionPoint(r=0.0, a=0.9, b=0.0))

    def test_r_out_of_range(self):
        with pytest.raises(ValueError):
            RegionPoint(r=1.5, a=0.0, b=0.0)

    def test_agrees_with_realize_four_for_upper_half(self):
        point = RegionPoint(r=0.25, a=0.3, b=0.35)
        expected = realize_four(point.spectrum)
        assert np.allclose(realize_region(point), expected, atol=1e-15)

    def test_always_permutative_inside(self):
        rng = np.random.default_rng(31)
        count = 0
        while count < 25:
            point = RegionPoint(
                r=rng.uniform(0, 1), a=rng.uniform(-1, 1), b=rng.uniform(-1, 1)
            )
            if not region_check(point):
                continue
            count += 1
            M = realize_region(point)
            assert is_permutative(M).permutative
            assert match_spectra(spectrum(M), point.spectrum, 1e-8).matched

    def test_region_check_is_realize_four_on_default_grid(self):
        # 80 points fail the exact inequalities by roundoff and pass both
        edge = 0
        for r, a, b in itertools.product(*DEFAULT_GRID):
            point = RegionPoint(r=float(r), a=float(a), b=float(b))
            try:
                realize_four(point.spectrum)
                four = True
            except RealizabilityError:
                four = False
            assert region_check(point) == four
            exact = abs(a) <= (1.0 + r) / 2.0 and abs(b) <= (1.0 - r) / 2.0
            assert four or not exact
            if four:
                M = realize_region(point)
                lam3 = complex(point.a, point.b)
                assert np.array_equal(M, realize._four_matrix(1.0, point.r, lam3))
                if exact:
                    assert np.array_equal(M, _reference_region_matrix(point))
                edge += not exact
        assert edge == 80

    def test_edge_point_within_roundoff_accepted(self):
        point = RegionPoint(r=0.2, a=-0.5, b=0.40000000000000013)
        assert abs(point.b) > (1.0 - point.r) / 2.0
        assert region_check(point)
        M = realize_region(point)
        assert np.array_equal(M, realize_four(point.spectrum))
        assert M.min() >= 0.0
        assert match_spectra(spectrum(M), point.spectrum, 1e-8).matched

    @pytest.mark.parametrize(
        "a, b", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0), (0.0, -np.inf)]
    )
    def test_non_finite_parameters_rejected(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            RegionPoint(r=0.5, a=a, b=b)


#: The axes of the default ``region-sweep`` grid.
DEFAULT_GRID = (np.linspace(0, 1, 21), np.linspace(-1, 1, 21), np.linspace(-1, 1, 21))


def _reference_region_matrix(point):
    """The second closed form ``realize_region`` used to compute on its own,
    kept as the reference for the matrices of exactly-inside points."""
    r, a, b = point.r, point.a, point.b
    pa = (1.0 + r + 2.0 * a) / 4.0
    pb = (1.0 + r - 2.0 * a) / 4.0
    pc = (1.0 - r + 2.0 * b) / 4.0
    pd = (1.0 - r - 2.0 * b) / 4.0
    M = np.array(
        [
            [pa, pb, pc, pd],
            [pb, pa, pd, pc],
            [pd, pc, pa, pb],
            [pc, pd, pb, pa],
        ]
    )
    return np.clip(M, 0.0, None)


class TestGammaRegion:
    def test_members_and_nonmembers(self):
        assert in_gamma_region(-1 - 0.5j)
        assert not in_gamma_region(-1 + 2j)
        assert not in_gamma_region(3 + 2j)

    def test_fixture_spectra_fall_outside(self):
        for z in (-1 + 5j, -1 - 5j, 3 + 2j, 3 - 2j):
            assert not in_gamma_region(z)


class TestCheckConditions:
    def test_eight_pair_witness(self):
        pair = SpectrumPair(
            circulant_part=(8, 2 + 2j, -4, 2 - 2j),
            skew_part=tuple(upsilon_eight()),
            gamma=1.0,
        )
        report = check_conditions(pair)
        assert report.satisfied
        np.testing.assert_allclose(report.witness.circulant_row, fx.EIGHT_S_ROW, atol=1e-10)
        np.testing.assert_allclose(report.witness.skew_row, fx.EIGHT_C_ROW, atol=1e-10)
        margins = np.asarray(report.witness.margins)
        assert np.all(margins >= -1e-10)
        assert abs(margins[2]) <= 1e-10  # the boundary position s_2 = |c_2| = 0

    def test_seven_pair_witness(self):
        pair = SpectrumPair(
            circulant_part=(15, 2 + 5j, 1, 2 - 5j),
            skew_part=tuple(upsilon_seven()),
            gamma=1.0,
        )
        report = check_conditions(pair)
        assert report.satisfied
        np.testing.assert_allclose(report.witness.circulant_row, fx.SEVEN_S_ROW, atol=1e-10)
        np.testing.assert_allclose(report.witness.skew_row, fx.SEVEN_C_ROW, atol=1e-10)
        np.testing.assert_allclose(
            report.witness.margins, [1.0, 4.0, 2.0, 1.0], atol=1e-10
        )

    def test_zero_skew_part_reduces_to_circulant_realizability(self):
        lam = circulant_eigenvalues([1.0, 2.0, 0.5, 0.25])
        pair = SpectrumPair(tuple(lam), (0.0, 0.0, 0.0, 0.0))
        assert check_conditions(pair).satisfied

    def test_unsatisfied_reports_no_witness(self):
        pair = SpectrumPair((1.0, 5.0), (0.0, 0.0))
        report = check_conditions(pair)
        assert not report.satisfied
        assert report.witness is None

    def test_pairing_violation(self):
        with pytest.raises(PairingError):
            check_conditions(SpectrumPair((1.0, 2j), (0.0, 0.0)))

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (
                lambda: SpectrumPair((1.0,), (0.0,), gamma=1.5),
                ValueError,
                r"gamma must lie in \[0, 1\], got 1.5",
            ),
            (
                lambda: SpectrumPair((1.0, 2.0, 3.0), (0.0,)).arrays(),
                ValueError,
                "circulant part must have the same length as the skew part or one more, got 3 vs 1",
            ),
            (
                lambda: SpectrumPair((1.0, 0.0), (1j, 2.0)).arrays(),
                PairingError,
                "skew part violates its pairing layout",
            ),
        ],
        ids=["gamma", "lengths", "skew_layout"],
    )
    def test_malformed_pair_is_rejected(self, make, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            make()

    def test_witness_build_verifies(self):
        pair = SpectrumPair(
            circulant_part=(15, 2 + 5j, 1, 2 - 5j),
            skew_part=tuple(upsilon_seven()),
            gamma=0.5,
        )
        report = check_conditions(pair)
        M = build_from_witness(pair, report.witness)
        lam, ups = pair.arrays()
        expected = np.concatenate([lam, 0.5 * ups])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_soundness_on_random_satisfied_instances(self):
        rng = np.random.default_rng(32)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            c = rng.uniform(-1, 1, size=n)
            s = np.abs(c) + rng.uniform(0, 1, size=n)
            ups = skew_eigenvalues(c)
            if trial % 2 == 0:
                lam = circulant_eigenvalues(s)
            else:
                # bordered case: dominate the largest skew magnitude everywhere
                longer = np.abs(c).max() + rng.uniform(0, 1, size=n + 1)
                lam = circulant_eigenvalues(longer)
            pair = SpectrumPair(tuple(lam), tuple(ups), gamma=1.0)
            report = check_conditions(pair)
            assert report.satisfied
            M = build_from_witness(pair, report.witness)
            expected = np.concatenate([lam, ups])
            assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_formula_mode_matches_head_bound(self):
        pair = SpectrumPair(
            circulant_part=(8, 2 + 2j, -4, 2 - 2j),
            skew_part=tuple(upsilon_eight()),
        )
        report = check_conditions(pair, mode="formula")
        assert report.mode == "formula"
        assert report.witness is None
        # head 8 sits exactly at the bound (the recovered row has a zero)
        assert report.satisfied
        assert abs(report.bound_value - 8.0) <= 1e-10

    def test_formula_implies_constructive_for_circulant_part(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            halves = (n - 1) // 2
            entries = [complex(rng.uniform(0, 4))]
            pairs = [complex(rng.normal(), rng.normal()) for _ in range(halves)]
            tailpiece = [complex(rng.normal())] if n % 2 == 0 else []
            lam = entries + pairs + tailpiece + [z.conjugate() for z in reversed(pairs)]
            lam = np.asarray(lam)
            bound = circulant_head_bound(lam)
            pair = SpectrumPair(tuple(lam), tuple(np.zeros(n)))
            formula = check_conditions(pair, mode="formula")
            constructive = check_conditions(pair, mode="constructive")
            assert formula.satisfied == (lam[0].real >= bound - 1e-12)
            if lam[0].real >= bound + 1e-9:
                assert constructive.satisfied
            if lam[0].real <= bound - 1e-9:
                assert not constructive.satisfied

    def test_invalid_mode(self):
        pair = SpectrumPair((1.0,), (0.0,))
        with pytest.raises(ValueError):
            check_conditions(pair, mode="magic")


def _reference_head_bound(v):
    """The original per-ordering head-bound loop (circulant_head_bound)."""
    n = v.size
    if n == 1:
        return 0.0
    k = np.arange(n)
    best = np.inf
    for perm in enumerate_circulant_permutations(v):
        nu = v[list(perm.mapping)]
        if n % 2 == 1:
            j = np.arange(1, (n - 1) // 2 + 1)
            extra = np.zeros(n)
        else:
            j = np.arange(1, n // 2)
            extra = -((-1.0) ** k) * nu[n // 2].real
        ang = 2.0 * np.pi * np.outer(k, j) / n
        load = -2.0 * (np.cos(ang) @ nu[j].real + np.sin(ang) @ nu[j].imag) + extra
        best = min(best, float(load.max()))
    return best


def _reference_check_conditions(pair):
    """The constructive search with the builder as its judge: one (alpha,
    beta) pair per iteration, over the alphas whose rows have no entry below
    the spectrum-scale slack; the witness is the first pair that
    :func:`build_from_witness` accepts."""
    lam, ups = pair.arrays()
    bound = _reference_head_bound(lam)
    slack = 1e-12 * max(np.max(np.abs(lam)), np.max(np.abs(ups)), 1.0)
    odd = lam.size == ups.size + 1
    s_candidates = [
        (p, circulant_row_from_spectrum(lam[list(p.mapping)]))
        for p in enumerate_circulant_permutations(lam)
    ]
    c_candidates = [
        (p, skew_row_from_spectrum(ups[list(p.mapping)]))
        for p in enumerate_skew_permutations(ups)
    ]
    for alpha, s_row in s_candidates:
        if np.any(s_row < -slack):
            continue
        for beta, c_row in c_candidates:
            padded = np.concatenate([np.abs(c_row), [0.0]]) if odd else np.abs(c_row)
            witness = ConditionWitness(
                alpha=alpha,
                beta=beta,
                circulant_row=tuple(s_row.tolist()),
                skew_row=tuple(c_row.tolist()),
                margins=tuple((s_row - padded).tolist()),
            )
            try:
                build_from_witness(pair, witness)
            except MajorizationError:
                continue
            return ConditionReport(True, "constructive", bound, witness)
    return ConditionReport(False, "constructive", bound, None)


def _edge_pair():
    """Rows s = [3e-3, 1e-3, 2e-3, 1e-3] and c = [1e-3, 1e-3 + 5e-13, 0, 0] as
    spectra: the identity orderings miss by 5e-13, inside a spectrum-scale
    slack (1e-12) but outside the builders' slack (3e-15)."""
    data = json.loads((DATA / "edge_pair.json").read_text())
    return SpectrumPair(
        tuple(complex(*z) for z in data["circulant"]),
        tuple(complex(*z) for z in data["skew"]),
    )


def test_edge_pair_witness_builds():
    pair = _edge_pair()
    lam, ups = pair.arrays()
    with pytest.raises(MajorizationError):
        build_circ_skew(circulant_row_from_spectrum(lam), skew_row_from_spectrum(ups))
    report = check_conditions(pair)
    assert report == _reference_check_conditions(pair)
    assert report.satisfied
    M = build_from_witness(pair, report.witness)
    assert match_spectra(spectrum(M), np.concatenate([lam, ups]), 1e-7).matched


@st.composite
def _majorization_edges(draw):
    """Paired rows at a row scale from 1e-3 to 1e3, even or bordered, with one
    skew entry set to the circulant entry it is compared with, moved by
    0.5, 1 or 2 times the builders' slack either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bordered = draw(st.booleans())
    n = draw(st.integers(1, 5))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    c = scale * rng.uniform(-1.0, 1.0, size=n)
    if bordered:
        s = np.max(np.abs(c)) + scale * rng.uniform(0.0, 1.0, size=n + 1)
    else:
        s = np.abs(c) + scale * rng.uniform(0.0, 1.0, size=n)
    k = draw(st.integers(0, n - 1))
    # bordered: |c_k| meets s_k above the diagonal and s_{k+1} below it
    target = min(s[k], s[k + 1]) if bordered and k > 0 else s[k]
    tol = 1e-12 * max(np.max(s), np.max(np.abs(c)))
    factor = draw(st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]))
    c[k] = draw(st.sampled_from([-1.0, 1.0])) * (target + factor * tol)
    return SpectrumPair(tuple(circulant_eigenvalues(s)), tuple(skew_eigenvalues(c)))


@seed(6)
@settings(max_examples=200, deadline=None)
@given(pair=_majorization_edges())
def test_certified_witness_builds_at_the_slack_edge(pair):
    report = check_conditions(pair)
    assert report == _reference_check_conditions(pair)
    if report.satisfied:
        M = build_from_witness(pair, report.witness)
        lam, ups = pair.arrays()
        expected = np.concatenate([lam, ups])
        tol = VERIFY_RTOL * max(1.0, max_abs(expected))
        assert match_spectra(spectrum(M), expected, tol).matched


def _scrambled(values, orderings, rng):
    """``values`` under a random one of its pairing-preserving orderings, so
    that the witness is not simply the identity."""
    return tuple(values[list(orderings[int(rng.integers(len(orderings)))].mapping)])


def _search_pairs(seed, bordered):
    """Hits (s = |c| + u, as in acceptance criterion 7) and likely misses
    (a dominant head over a near-flat body) with skew order n <= 7, each
    part in a random pairing layout."""
    rng = np.random.default_rng(seed)
    for trial in range(20):
        n = int(rng.integers(1, 8))
        m = n + 1 if bordered else n
        if trial % 2 == 0:
            c = rng.uniform(-1.0, 1.0, size=n)
            if bordered:
                s = np.max(np.abs(c)) + rng.uniform(0.0, 1.0, size=m)
            else:
                s = np.abs(c) + rng.uniform(0.0, 1.0, size=m)
        else:
            s = 1.0 + rng.uniform(-0.2, 0.2, size=m)
            s[0] = rng.uniform(1.0, 2.0)
            c = rng.uniform(0.6, 1.2, size=n) * rng.choice([-1.0, 1.0], size=n)
            c[0] = rng.uniform(-0.5, 0.5)
        lam, ups = circulant_eigenvalues(s), skew_eigenvalues(c)
        yield SpectrumPair(
            _scrambled(lam, enumerate_circulant_permutations(lam), rng),
            _scrambled(ups, enumerate_skew_permutations(ups), rng),
        )


def test_bordered_row_test_matches_dense_blocks():
    # ties (|c_d| equal to s_d or s_{d+1}) and entries of s within the slack
    # below zero sit exactly on the comparisons that decide the verdict
    rng = np.random.default_rng(36)
    slack = 1e-12
    for _ in range(200):
        n = int(rng.integers(1, 8))
        s = rng.uniform(0.0, 1.0, size=n + 1)
        s[rng.uniform(size=n + 1) < 0.2] = -0.5 * slack
        C = rng.uniform(-1.0, 1.0, size=(6, n))
        ties = rng.integers(0, n + 1, size=(6, n))
        tied = rng.uniform(size=(6, n)) < 0.4
        C[tied] = np.clip(s, 0.0, None)[ties[tied]] * rng.choice([-1.0, 1.0])
        C[rng.uniform(size=(6, n)) < 0.2] *= 0.1
        # passes against a clipped entry, fails against an unclipped one
        C[rng.uniform(size=(6, n)) < 0.1] = 0.75 * slack
        body = circulant(np.clip(s, 0.0, None))[:n, :n] + slack
        dense = [bool(np.all(np.abs(skew_circulant(c)) <= body)) for c in C]
        assert _dominated(s, np.abs(C), True, slack).tolist() == dense
        # the even case reads the first n entries against the full blocks
        body = circulant(np.clip(s[:n], 0.0, None)) + slack
        dense = [bool(np.all(np.abs(skew_circulant(c)) <= body)) for c in C]
        assert _dominated(s[:n], np.abs(C), False, slack).tolist() == dense


@pytest.mark.parametrize("bordered", [False, True])
def test_pair_search_matches_reference_loop(bordered):
    outcomes = set()
    for pair in _search_pairs(35 + bordered, bordered):
        report = check_conditions(pair)
        assert report == _reference_check_conditions(pair)
        assert circulant_head_bound(pair.circulant_part) == report.bound_value
        assert check_conditions(pair, mode="formula").bound_value == report.bound_value
        outcomes.add(report.satisfied)
    assert outcomes == {True, False}


def _integer_pairs(seed, bordered):
    """Pairs from integer first rows with skew order n <= 7, in random
    pairing layouts.  Many ``s_k = |c_k|`` hold exactly, so witnesses sit on
    ties; a lowered entry of ``s`` may make the pair a miss."""
    rng = np.random.default_rng(seed)
    for trial in range(30):
        n = int(rng.integers(1, 8))
        c = rng.integers(-3, 4, size=n).astype(float)
        if bordered:
            s = np.max(np.abs(c)) + rng.integers(0, 2, size=n + 1).astype(float)
        else:
            s = np.abs(c) + rng.integers(0, 2, size=n).astype(float)
        if trial % 3 == 2:
            s[int(rng.integers(s.size))] -= 1.0
        lam, ups = circulant_eigenvalues(s), skew_eigenvalues(c)
        yield SpectrumPair(
            _scrambled(lam, enumerate_circulant_permutations(lam), rng),
            _scrambled(ups, enumerate_skew_permutations(ups), rng),
        )


def _all_rows(pair):
    lam, ups = pair.arrays()
    alphas = _index_array(enumerate_circulant_permutations(lam))
    betas = _index_array(enumerate_skew_permutations(ups))
    return (
        realize._recover_rows(lam[alphas], "circulant"),
        realize._recover_rows(ups[betas], "skew"),
    )


def _index_array(perms):
    return np.array([p.mapping for p in perms])


@pytest.mark.parametrize("bordered", [False, True])
def test_witnesses_stable_under_reference_recovery(bordered, monkeypatch):
    pairs = list(_search_pairs(37 + bordered, bordered))
    pairs += list(_integer_pairs(39 + bordered, bordered))
    fast = [(check_conditions(pair), _all_rows(pair)) for pair in pairs]
    monkeypatch.setattr(realize, "_recover_rows", reference_recover_rows)
    outcomes, ties = set(), 0
    for pair, (report, rows) in zip(pairs, fast):
        reference = check_conditions(pair)
        assert report.satisfied == reference.satisfied
        assert report.bound_value == reference.bound_value
        if report.satisfied:
            assert report.witness.alpha == reference.witness.alpha
            assert report.witness.beta == reference.witness.beta
            ties += min(np.abs(report.witness.margins)) <= 1e-12
        lam, ups = pair.arrays()
        scale = max(np.max(np.abs(lam)), np.max(np.abs(ups)), 1.0)
        for got, want in zip(rows, _all_rows(pair)):
            assert np.max(np.abs(got - want)) <= 1e-12 * scale
        outcomes.add(report.satisfied)
    assert outcomes == {True, False}
    assert ties > 0


def test_reports_equal_on_cold_and_warm_caches():
    pairs = list(_search_pairs(41, False)) + list(_search_pairs(42, True))
    spectra._generate.cache_clear()
    cold = []
    for pair in pairs:
        cold.append(check_conditions(pair))
        spectra._generate.cache_clear()
    for pair in pairs:
        check_conditions(pair)
    misses = spectra._generate.cache_info().misses
    warm = [check_conditions(pair) for pair in pairs]
    assert spectra._generate.cache_info().misses == misses
    assert warm == cold
    assert {report.satisfied for report in cold} == {True, False}


def _reference_brauer_choice(ups, tail, rho):
    """The original selection of ``brauer_plan``: chi and the smallest skew
    row over per-ordering recoveries, then the first nonnegative shifted
    circulant row, tried one ordering at a time."""
    candidates = [
        (p, skew_row_from_spectrum(ups[list(p.mapping)]))
        for p in enumerate_skew_permutations(ups)
    ]
    chi = max(np.max(np.abs(row)) for _, row in candidates)
    beta, c_row = min(candidates, key=lambda item: np.max(np.abs(item[1])))
    shifted = np.concatenate([[complex(rho - (ups.size + 1) * chi)], tail])
    slack = 1e-12 * max(np.max(np.abs(shifted)), 1.0)
    for alpha in enumerate_circulant_permutations(shifted):
        b_row = circulant_row_from_spectrum(shifted[list(alpha.mapping)])
        if np.all(b_row >= -slack):
            return chi, beta, c_row, alpha, np.clip(b_row, 0.0, None)
    return chi, beta, c_row, None, None


def test_brauer_plan_matches_reference_selection():
    rng = np.random.default_rng(38)
    outcomes = set()
    for trial in range(40):
        n = int(rng.integers(1, 7))
        # integer rows give exact ties between the skew rows' magnitudes
        c = rng.integers(-2, 3, size=n).astype(float)
        ups = skew_eigenvalues(c)
        ups = np.asarray(_scrambled(ups, enumerate_skew_permutations(ups), rng))
        tail = circulant_eigenvalues(rng.uniform(0.0, 1.0, size=n + 1))[1:]
        chi = skew_row_bound(ups)
        rho = (n + 1) * chi + rng.uniform(-0.5, 2.0)
        want = _reference_brauer_choice(ups, tail, rho)
        if want[3] is None:
            with pytest.raises(RealizabilityError):
                brauer_plan(ups, tail, rho)
            outcomes.add(False)
            continue
        plan = brauer_plan(ups, tail, rho)
        assert plan.chi == want[0] == chi
        assert (plan.beta, plan.alpha) == (want[1], want[3])
        assert plan.skew_row == tuple(want[2].tolist())
        assert plan.base_row == tuple(want[4].tolist())
        outcomes.add(True)
    assert outcomes == {True, False}


class TestBrauer:
    def test_row_bound_fixture(self):
        assert abs(skew_row_bound(upsilon_seven()) - 4.0) <= 1e-10

    def test_insufficient_rho_rejected(self):
        with pytest.raises(RealizabilityError):
            brauer_plan(upsilon_seven(), [0, 0, 0], 7.0)

    def test_flat_plan_and_permutative_output(self):
        ups = upsilon_seven()
        chi = skew_row_bound(ups)
        rho = 4 * chi
        plan = brauer_plan(ups, [0, 0, 0], rho)
        np.testing.assert_allclose(plan.circulant_row, [chi] * 4, atol=1e-12)
        np.testing.assert_allclose(plan.skew_row, fx.SEVEN_C_ROW, atol=1e-10)
        M = brauer_augment(ups, [0, 0, 0], rho)
        assert is_permutative(M).permutative
        expected = np.concatenate([[rho], np.zeros(3), ups])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_zero_skew_spectrum_reduces_to_plain_bordered_build(self):
        ups = np.zeros(3)
        plan = brauer_plan(ups, [0, 0, 0], 2.0)
        assert plan.chi == 0.0
        np.testing.assert_allclose(plan.circulant_row, [0.5] * 4, atol=1e-12)
        M = brauer_augment(ups, [0, 0, 0], 2.0)
        expected = np.concatenate([[2.0], np.zeros(6)])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_constant_skew_spectrum(self):
        # skew circulant with only a diagonal entry: spectrum {1, 1, 1}
        ups = skew_eigenvalues([1.0, 0.0, 0.0])
        np.testing.assert_allclose(ups, np.ones(3), atol=1e-12)
        assert abs(skew_row_bound(ups) - 1.0) <= 1e-12
        M = brauer_augment(ups, [0, 0, 0], 4.0, gamma=0.5)
        expected = np.concatenate([[4.0], np.zeros(3), 0.5 * np.ones(3)])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_shift_row_spectrum(self):
        # skew circulant generated by the unit shift: spectrum is the cube
        # roots of -1, chi = 1, smallest admissible rho with zero tail is 4
        ups = skew_eigenvalues([0.0, 1.0, 0.0])
        assert abs(skew_row_bound(ups) - 1.0) <= 1e-12
        M = brauer_augment(ups, [0, 0, 0], 4.0)
        assert is_permutative(M).permutative
        expected = np.concatenate([[4.0], np.zeros(3), ups])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_nonzero_tail_with_domination_chain(self):
        rng = np.random.default_rng(34)
        ups = skew_eigenvalues(rng.uniform(-1, 1, size=3))
        chi = skew_row_bound(ups)
        tail = np.array([0.5, 0.1 + 0.2j, 0.1 - 0.2j])
        rho = 4 * chi + 3.0
        plan = brauer_plan(ups, tail, rho)
        r_row = np.asarray(plan.circulant_row)
        base = np.asarray(plan.base_row)
        np.testing.assert_allclose(r_row, base + plan.chi, atol=1e-12)
        assert np.min(r_row) >= plan.chi - 1e-12
        assert plan.chi >= np.max(np.abs(plan.skew_row)) - 1e-12
        M = brauer_augment(ups, tail, rho, gamma=0.75, sign=-1)
        expected = np.concatenate([[rho], tail, -0.75 * ups])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_tail_length_mismatch(self):
        with pytest.raises(ValueError):
            brauer_plan(upsilon_seven(), [0, 0], 20.0)


@pytest.mark.parametrize(
    "search, kind",
    [
        (lambda: circulant_head_bound([1j]), "circulant"),
        # no rho helps: the tail is not closed under conjugation
        (lambda: brauer_plan(skew_eigenvalues([4, -2, 1]), [1j, 0, 0], 100.0), "circulant"),
        (lambda: skew_row_bound([1j, 2j]), "skew"),
        (lambda: brauer_plan([1j, 2j], [0, 0], 100.0), "skew"),
    ],
    ids=["head_bound_one_nonreal", "brauer_open_tail", "skew_row_bound", "brauer_skew"],
)
def test_no_layout_ordering_raises_one_pairing_error(search, kind):
    with pytest.raises(PairingError, match=rf"^list does not admit any {kind}-layout ordering$"):
        search()


class TestAbsCircCombination:
    """A circulant paired with an entrywise signed circulant by the even
    block build."""

    def test_fixture_build(self):
        ac = AbsCirculant.from_arrays(fx.ABSCIRC_MAGNITUDES, fx.ABSCIRC_SIGNS)
        M = build_even(circulant([1.0, 2.0, 3.0]), abs_circulant(ac))
        assert M.shape == (6, 6)
        assert M.min() >= 0.0
        assert is_permutative(M).permutative
        expected = np.concatenate(
            [spectrum(circulant([1, 2, 3])), spectrum(abs_circulant(ac))]
        )
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_all_plus_matches_two_circulants(self):
        ac = AbsCirculant.from_arrays([1, 2, 3], np.ones((3, 3)))
        M = build_even(circulant([2, 3, 4]), abs_circulant(ac), BlockBuildSpec(gamma=0.5))
        N = build_even(circulant([2, 3, 4]), circulant([1, 2, 3]), BlockBuildSpec(gamma=0.5))
        assert np.array_equal(M, N)

    def test_skew_pattern_matches_circ_skew(self):
        row = np.array([0.5, 2.0, 1.0])
        signs = np.where(np.tri(3, k=-1, dtype=bool), -1.0, 1.0)
        ac = AbsCirculant.from_arrays(row, signs)
        M = build_even(circulant([1.0, 2.5, 1.5]), abs_circulant(ac))
        N = build_circ_skew([1.0, 2.5, 1.5], row)
        assert np.array_equal(M, N)

    def test_magnitude_domination_required(self):
        ac = AbsCirculant.from_arrays([1, 2, 3], np.ones((3, 3)))
        with pytest.raises(MajorizationError):
            build_even(circulant([1.0, 1.0, 3.0]), abs_circulant(ac))
