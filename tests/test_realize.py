import itertools
import json
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import realize, spectra
from niepkit._util import ROUNDOFF_RTOL, VERIFY_RTOL, max_abs, slack
from niepkit.blocks import BlockBuildSpec, _violations, build_circ_skew, build_even, build_odd
from niepkit.dft import (
    circulant_eigenvalues,
    circulant_row_from_spectrum,
    skew_eigenvalues,
    skew_row_from_spectrum,
)
from niepkit.errors import (
    EnumerationCapError,
    MajorizationError,
    PairingError,
    RealizabilityError,
)
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
from niepkit.spectra import (
    enumerate_circulant_permutations,
    enumerate_skew_permutations,
    satisfies_circulant_pairing,
    satisfies_skew_pairing,
)
from niepkit.structured import (
    AbsCirculant,
    abs_circulant,
    circulant,
    is_permutative,
    skew_circulant,
)
from test_dft import recover_kind, reference_recover_rows

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

    def test_inequalities_judged_at_the_list_scale(self):
        # lam1 - lam2 - 2|Im lam3| = -8e-13: inside a slack floored at 1
        # (1e-12), outside the list's own (1e-21); the builders' rule refuses
        # the same rows, circulant (5e-10, 5e-10) and skew (2e-10, 5.004e-10)
        z = complex(2e-10, 5e-10 + 4e-13)
        with pytest.raises(RealizabilityError, match=r"lam1 - lam2 >= 2\*\|Im\(lam3\)\|"):
            realize_four([1e-9, 0.0, z, z.conjugate()])
        with pytest.raises(RealizabilityError):
            build_circ_skew(np.array([5e-10, 5e-10]), np.array([z.real, z.imag]))
        # on the boundary at the same scale the list still builds
        M = realize_four([1e-9, 0.0, 5e-10j, -5e-10j])
        assert M.min() >= 0.0
        assert match_spectra(spectrum(M), [1e-9, 0.0, 5e-10j, -5e-10j], 1e-18).matched

    @pytest.mark.parametrize(
        "values",
        [
            # 3e-13 is not a repeat of 0 at scale 1e-9: the repeat is 0, 0
            [1e-9, 3e-13, 0.0, 0.0],
            # an imaginary part of 5e-13 is a conjugate pair at scale 1e-9
            [1e-9, 0.0, complex(2e-10, 5e-13), complex(2e-10, -5e-13)],
        ],
    )
    def test_pairing_at_the_list_scale(self, values):
        M = realize_four(values)
        assert M.min() >= 0.0
        scale = max_abs(np.asarray(values, complex))
        assert match_spectra(spectrum(M), values, 1e-7 * scale).matched

    def test_not_conjugate_closed(self):
        with pytest.raises(PairingError):
            realize_four([5, 1, 1j, 2j])
        with pytest.raises(PairingError):
            realize_four([5, 4, 3, 2])
        with pytest.raises(PairingError, match="^spectrum is not closed under conjugation$"):
            realize_four([5, 1, 1j, 1])

    def test_no_real_entry(self):
        # closed under conjugation, but the Perron root must be real
        with pytest.raises(PairingError, match="^a 4-list needs two real entries"):
            realize_four([1 + 1j, 1 - 1j, 2 + 1j, 2 - 1j])

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

    def test_region_check_is_realize_four_only_at_perron_root_1(self):
        # {1, 1, 2, 2} has Perron root 2: realize_four builds it, while the
        # region, normalized to Perron root 1, leaves r = 1, a = 2, b = 0 out
        point = RegionPoint(r=1.0, a=2.0, b=0.0)
        M = realize_four(point.spectrum)
        assert M.min() >= 0.0
        assert match_spectra(spectrum(M), point.spectrum, 1e-12).matched
        assert not region_check(point)

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        radius=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        angle=st.sampled_from([0.0, 0.5, 1.0, 1.5]) | st.floats(0.0, 2.0),
    )
    def test_region_check_is_realize_four_in_the_unit_disk(self, r, radius, angle):
        z = radius * complex(np.cos(np.pi * angle), np.sin(np.pi * angle))
        point = RegionPoint(r=r, a=z.real, b=z.imag)
        try:
            realize_four(point.spectrum)
            four = True
        except RealizabilityError:
            four = False
        assert region_check(point) == four

    @pytest.mark.parametrize("b", [1e-12, -1e-12, 0.75e-12, 0.5e-12, 1.5e-12, -3e-12])
    @pytest.mark.parametrize("r", [1.0, np.nextafter(1.0, 0.0)])
    def test_pair_within_the_slack_of_the_real_axis(self, r, b):
        # realize_four reads z, conj(z) with |Im z| <= 1e-12 as a repeated
        # real; at r = 1 the region leaves only b = 0, so region_check must
        # read such a b as 0 (r = 1, a = 6.1e-29, b = 1e-12 disagreed)
        point = RegionPoint(r=r, a=6.123233995736766e-29, b=b)
        try:
            realize_four(point.spectrum)
            four = True
        except RealizabilityError:
            four = False
        assert four == (abs(b) <= 1e-12)
        assert region_check(point) == four

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


def _reference_four_matrix(lam1, lam2, lam3):
    """The closed form ``_four_matrix`` wrote out before it assembled
    through the block builder."""
    a = (lam1 + lam2 + 2 * lam3.real) / 4.0
    b = (lam1 + lam2 - 2 * lam3.real) / 4.0
    c = (lam1 - lam2 + 2 * lam3.imag) / 4.0
    d = (lam1 - lam2 - 2 * lam3.imag) / 4.0
    M = np.array([[a, b, c, d], [b, a, d, c], [d, c, a, b], [c, d, b, a]])
    return np.clip(M, 0.0, None)


#: 0, -0 or a magnitude in [1e-150, 1e150] of either sign.
_FOUR_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(
        lambda sign, m, e: sign * m * 10.0**e,
        st.sampled_from([-1.0, 1.0]),
        st.floats(1.0, 9.999999999999998),
        st.integers(-150, 149),
    ),
)


@st.composite
def _four_lists(draw):
    """(lam1, lam2, lam3) with entries from ``_FOUR_ENTRIES``, where lam2 may
    tie or cancel lam1 and Re lam3 or Im lam3 may sit on the boundary
    (cancelling lam1 +/- lam2 in an entry) or take a sign flip of it."""
    lam1, lam2 = draw(_FOUR_ENTRIES), draw(_FOUR_ENTRIES)
    if draw(st.booleans()):
        lam2 = draw(st.sampled_from([1.0, -1.0])) * lam1
    re, im = draw(_FOUR_ENTRIES), draw(_FOUR_ENTRIES)
    if draw(st.booleans()):
        re = draw(st.sampled_from([1.0, -1.0])) * (lam1 + lam2) / 2.0
    if draw(st.booleans()):
        im = draw(st.sampled_from([1.0, -1.0])) * (lam1 - lam2) / 2.0
    return lam1, lam2, complex(re, im)


@settings(max_examples=1000, deadline=None)
@given(lams=_four_lists())
def test_four_matrix_is_the_closed_form_bit_for_bit(lams):
    got = realize._four_matrix(*lams)
    assert got.dtype == np.float64 and got.shape == (4, 4)
    assert got.tobytes() == _reference_four_matrix(*lams).tobytes()


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

    def test_list_with_negative_trace_is_unsatisfied(self):
        # {10, 0, -9, -9} has trace -8, so no nonnegative matrix has it,
        # though the head 10 sits above the circulant part's head bound
        report = check_conditions(SpectrumPair((10, 0), (-9, -9)))
        assert not report.satisfied and report.witness is None
        assert circulant_head_bound((10, 0)) == 0.0

    def test_unsatisfied_reports_no_witness(self):
        pair = SpectrumPair((5.0, -5.5), (0.0, 0.0))
        report = check_conditions(pair)
        assert not report.satisfied
        assert report.witness is None

    def test_truth_is_the_verdict(self):
        for circulant, want in (((5.0, 1.0), True), ((5.0, -5.5), False)):
            report = check_conditions(SpectrumPair(circulant, (0.5, 0.5)))
            assert report.satisfied is want and bool(report) is want

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

    @pytest.mark.parametrize(
        "parts, error, message",
        [
            (((1.0, 2.0, 3.0), (0.0,)), ValueError, "circulant part must have the same "
             "length as the skew part or one more, got 3 vs 1"),
            (((1.0, 2j), (0.0, 0.0)), PairingError, "circulant part violates its pairing layout"),
            (((1.0, 0.0), (1j, 2.0)), PairingError, "skew part violates its pairing layout"),
            (((1.0, float("nan")), (0.0, 0.0)), ValueError, "circulant part must have finite entries"),
        ],
        ids=["lengths", "circulant_layout", "skew_layout", "nonfinite"],
    )
    def test_invalid_pair_raises_the_same_error_on_every_call(self, parts, error, message):
        # validated arrays are kept only for a pair that passes
        witness = check_conditions(SpectrumPair((3.0, 1.0), (0.5, 0.5))).witness
        assert witness is not None
        pair = SpectrumPair(*parts)
        for _ in range(2):
            with pytest.raises(error, match=f"^{message}$"):
                build_from_witness(pair, witness)
            with pytest.raises(error, match=f"^{message}$"):
                pair.arrays()

    def test_validated_arrays_are_kept_read_only(self):
        lam = np.array([6.0, 2j, 1.0, -2j])
        pair = SpectrumPair(lam, (0.0, 0.0, 0.0, 0.0))
        first = pair.arrays()
        assert all(a is b for a, b in zip(pair.arrays(), first))
        assert not any(a.flags.writeable for a in first)
        # the caller's array is neither frozen nor shared
        assert lam.flags.writeable and not np.shares_memory(lam, first[0])
        assert np.array_equal(first[0], lam)
        tupled = SpectrumPair(tuple(lam), (0.0,) * 4)
        tupled.arrays()
        assert tupled == SpectrumPair(tuple(lam), (0.0,) * 4)
        assert hash(tupled) == hash(SpectrumPair(tuple(lam), (0.0,) * 4))

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

    def test_head_sits_at_the_bound(self):
        lam = (8, 2 + 2j, -4, 2 - 2j)
        # head 8 sits exactly at the bound (the recovered row has a zero),
        # and the search still finds a witness there
        assert abs(circulant_head_bound(lam) - 8.0) <= 1e-10
        assert check_conditions(SpectrumPair(lam, tuple(upsilon_eight()))).satisfied

    def test_head_bound_reads_index_0_as_the_head(self):
        # unlike a SpectrumPair, it forces no head: for n = 2 the bound is
        # the modulus of the entry after the head
        assert circulant_head_bound((1.0, 5.0)) == 5.0
        assert circulant_head_bound((5.0, 1.0)) == 1.0

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
            constructive = check_conditions(pair)
            assert pair._parts.order[0] == 0  # the bound's head heads the search
            # away from the bound, the head bound and the witness search agree
            if lam[0].real >= bound + 1e-9:
                assert constructive.satisfied
            if lam[0].real <= bound - 1e-9:
                assert not constructive.satisfied


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
    slack = 1e-12 * max(np.max(np.abs(lam)), np.max(np.abs(ups)))
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
            return ConditionReport(True, witness)
    return ConditionReport(False, None)


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
        tol = slack(VERIFY_RTOL, expected)
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
        assert _dominated(realize._body(s), np.abs(C), slack).tolist() == dense
        # the even case reads the first n entries against the full blocks
        body = circulant(np.clip(s[:n], 0.0, None)) + slack
        dense = [bool(np.all(np.abs(skew_circulant(c)) <= body)) for c in C]
        assert _dominated(s[:n], np.abs(C), slack).tolist() == dense


def _reference_dominated(s_rows, c_abs, odd, tol):
    """The broadcast join that ``_dominated`` replaced: one ``(A, Kc, n)``
    comparison tensor per block, reduced along its short last axis."""
    n = c_abs.shape[1]
    body = np.clip(s_rows, 0.0, None)[..., None, :] + tol
    ok = np.all(c_abs <= body[..., :n], axis=-1)
    if odd:
        ok &= np.all(c_abs[:, 1:] <= body[..., 2:], axis=-1)
    return ok


def _reference_body_join(body, c_abs, tol):
    """``_reference_dominated`` on body rows, as the search passes them at
    both parities."""
    return _reference_dominated(body, c_abs, False, tol)


@st.composite
def _join_blocks(draw):
    """One circulant row or a block of them, and skew magnitudes, with
    order n = 1..9, even or bordered: some entries of ``s`` lie within the
    slack below zero, some ``|c_k|`` equal the clipped ``s_k`` (or
    ``s_{k+1}``) of some row, or that plus the slack, or one ulp more, and
    some lie within the slack above zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    odd, n, tol = draw(st.booleans()), draw(st.integers(1, 9)), 1e-12
    m = n + odd
    shape = (m,) if draw(st.booleans()) else (draw(st.integers(1, 6)), m)
    s = rng.uniform(0.0, 1.0, size=shape)
    s[rng.uniform(size=shape) < 0.2] = -0.5 * tol
    kc = draw(st.integers(1, 12))
    c = rng.uniform(0.0, 1.0, size=(kc, n))
    c[rng.uniform(size=kc) < 0.5] *= 0.1
    clipped = np.clip(s, 0.0, None).reshape(-1, m)
    rows = rng.integers(0, clipped.shape[0], size=(kc, n))
    positions = np.arange(n) + rng.integers(0, 1 + odd, size=(kc, n))
    met = clipped[rows, positions]
    tied = rng.uniform(size=(kc, n)) < 0.4
    c[tied] = met[tied]
    # on the slack's edge, or one ulp past it
    edge = rng.uniform(size=(kc, n)) < 0.1
    c[edge] = (met + tol)[edge]
    past = edge & (rng.uniform(size=(kc, n)) < 0.5)
    c[past] = np.nextafter(c[past], np.inf)
    c[rng.uniform(size=(kc, n)) < 0.1] = 0.75 * tol
    return s, c, odd, tol


@settings(max_examples=300, deadline=None)
@given(block=_join_blocks())
def test_position_major_join_matches_broadcast_reference(block):
    s, c_abs, odd, tol = block
    want = _reference_dominated(s, c_abs, odd, tol)
    # row-major (as the tests pass it) and Fortran order (as the search does)
    for layout in (c_abs, np.asfortranarray(c_abs)):
        got = _dominated(realize._body(s) if odd else s, layout, tol)
        assert got.shape == want.shape
        assert got.tolist() == want.tolist()


@settings(max_examples=300, deadline=None)
@given(block=_join_blocks(), elements=st.sampled_from([1, 7, 1 << 16]))
def test_filtered_join_passes_the_full_join_in_row_major_order(block, elements):
    # the first row, the envelope and the chunks of the rest together pass
    # exactly the pairs of one broadcast join, in the order it lists them
    s, c_abs, odd, tol = block
    s = np.atleast_2d(s)
    want = [tuple(ix) for ix in np.argwhere(_reference_dominated(s, c_abs, odd, tol)).tolist()]
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(realize, "_JOIN_ELEMENTS", elements)
        body = realize._body(s) if odd else s
        got = list(realize._joined(body, np.asfortranarray(c_abs), tol))
    assert got == want
    assert all(type(i) is int and type(b) is int for i, b in got)


@st.composite
def _bordered_join_edges(draw):
    """Bordered circulant rows (one row or a block) and skew magnitudes with
    n = 1..12, scaled by 1, 1e300 or 1e-300: some entries of ``s`` are
    signed zeros or lie within the slack below zero, and some ``|c_k|``
    sit on the slack edge of the clipped ``s_k`` or (k >= 1) ``s_{k+1}``
    of some row, on it or one ulp either side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1.0, 1e300, 1e-300]))
    tol = 1e-12 * scale
    shape = (n + 1,) if draw(st.booleans()) else (draw(st.integers(1, 6)), n + 1)
    s = scale * rng.uniform(0.0, 1.0, size=shape)
    s[rng.uniform(size=shape) < 0.15] = -0.5 * tol
    s[rng.uniform(size=shape) < 0.15] = -0.0
    s[rng.uniform(size=shape) < 0.1] = 0.0
    kc = draw(st.integers(1, 12))
    c = scale * rng.uniform(0.0, 1.0, size=(kc, n))
    clipped = np.clip(s, 0.0, None).reshape(-1, n + 1)
    rows = rng.integers(0, clipped.shape[0], size=(kc, n))
    positions = np.arange(n) + (rng.uniform(size=(kc, n)) < 0.5) * (np.arange(n) > 0)
    edge = clipped[rows, positions] + tol
    on = rng.uniform(size=(kc, n)) < 0.6
    c[on] = edge[on]
    for direction in (np.inf, 0.0):
        moved = on & (rng.uniform(size=(kc, n)) < 0.3)
        c[moved] = np.nextafter(c[moved], direction)
    c[rng.uniform(size=(kc, n)) < 0.1] = 0.0
    return s, c, tol


@settings(max_examples=400, deadline=None)
@given(case=_bordered_join_edges())
def test_body_row_join_equals_the_two_comparison_join(case):
    s, c_abs, tol = case
    want = _reference_dominated(s, c_abs, True, tol)
    for layout in (c_abs, np.asfortranarray(c_abs)):
        got = _dominated(realize._body(s), layout, tol)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bordered", [False, True])
def test_join_chunks_straddle_blocks_as_the_reference(bordered, monkeypatch):
    # _JOIN_ELEMENTS of 1, 2, 3 and 5 times the entries of all skew rows:
    # the join sizes its chunks by the betas the envelope keeps, so a chunk
    # holds that many alphas or more; test_pruned_join_matches_reference
    # pins every chunk boundary with chunks of one alpha
    pairs = list(_search_pairs(43 + bordered, bordered))
    pairs += list(_integer_pairs(45 + bordered, bordered))
    outcomes, split = set(), 0
    for pair in pairs:
        want = _reference_check_conditions(pair)
        lam, ups = pair.arrays()
        s_rows, c_rows = _all_rows(pair)
        scale = max(np.max(np.abs(lam)), np.max(np.abs(ups)))
        lives = np.sum(np.all(s_rows >= -1e-12 * scale, axis=1))
        for step in (1, 2, 3, 5):
            monkeypatch.setattr(realize, "_JOIN_ELEMENTS", step * c_rows.size)
            assert check_conditions(pair) == want
            with monkeypatch.context() as patched:
                patched.setattr(realize, "_dominated", _reference_body_join)
                assert check_conditions(pair) == want
            split += lives > step
        outcomes.add(want.satisfied)
    assert outcomes == {True, False}
    assert split > 0


@pytest.mark.parametrize("bordered", [False, True])
def test_pair_search_matches_reference_loop(bordered):
    outcomes = set()
    for pair in _search_pairs(35 + bordered, bordered):
        report = check_conditions(pair)
        assert report == _reference_check_conditions(pair)
        # repr tells -0.0 from 0.0: the two routes agree bit for bit
        lam = pair.arrays()[0]
        assert repr(circulant_head_bound(lam)) == repr(_reference_head_bound(lam))
        outcomes.add(report.satisfied)
    assert outcomes == {True, False}


def _envelope_pairs(seed, bordered):
    """Random and integer pairs of skew order n = 1..8 (bordered, 1..7), in
    scrambled layouts: planted hits, whose witness is often at the first
    live alpha; misses with a dominant head and a near-flat body, whose
    envelope keeps some betas or none (none when the skew row is doubled);
    small-integer rows, which tie; and uniform rows under a head raised by
    n, whose envelope may keep every beta."""
    rng = np.random.default_rng(seed)
    for trial in range(50):
        n = int(rng.integers(1, 8 if bordered else 9))
        m = n + bordered
        kind = trial % 5
        c = rng.uniform(-1.0, 1.0, size=n)
        s = np.max(np.abs(c)) + rng.uniform(0.0, 1.0, size=m)
        if kind in (1, 2):
            s = 1.0 + rng.uniform(-0.2, 0.2, size=m)
            s[0] = rng.uniform(1.0, 2.0)
            c = rng.uniform(0.6, 1.2, size=n) * rng.choice([-1.0, 1.0], size=n)
            c[0] = rng.uniform(-0.5, 0.5)
            c *= kind
        elif kind == 3:
            c = rng.integers(-3, 4, size=n).astype(float)
            s = np.abs(c[np.arange(m) % n]) + rng.integers(-1, 2, size=m)
        elif kind == 4:
            s = rng.uniform(0.0, 1.0, size=m)
            s[0] += n
        lam, ups = circulant_eigenvalues(s), skew_eigenvalues(c)
        yield SpectrumPair(
            _scrambled(lam, enumerate_circulant_permutations(lam), rng),
            _scrambled(ups, enumerate_skew_permutations(ups), rng),
        )


def _live_rows(pair):
    """The live body rows and the skew magnitudes the search reads, from
    the reference recovery: the envelope's operands."""
    parts = pair._parts
    alphas = spectra._search_orderings(parts.circulant_key, 10)
    betas = spectra._search_orderings(parts.skew_key, 10)
    s_rows = recover_kind(parts.headed[alphas], "circulant")
    c_abs = np.abs(recover_kind(parts.ups[betas], "skew"))
    s_rows = s_rows[np.all(s_rows >= -parts.tol, axis=1)]
    return (realize._body(s_rows) if parts.lam.size > parts.ups.size else s_rows), c_abs


def _spy_dominated(monkeypatch):
    """Record the skew rows each ``_dominated`` call joins."""
    joined, dominated = [], realize._dominated

    def spy(body, c_abs, tol):
        joined.append(c_abs.shape[0])
        return dominated(body, c_abs, tol)

    monkeypatch.setattr(realize, "_dominated", spy)
    return joined


@pytest.mark.parametrize("bordered", [False, True])
def test_pruned_join_matches_reference(bordered, monkeypatch):
    # each pair is classified by what the join did: a witness at the first
    # live alpha or later, and an envelope that kept no beta, some or all
    joined = _spy_dominated(monkeypatch)
    cases = set()
    for pair in _envelope_pairs(63, bordered):
        want = _reference_check_conditions(pair)
        joined.clear()
        assert check_conditions(pair) == want
        betas = len(spectra._search_orderings(pair._parts.skew_key, 10))
        if want.satisfied:
            cases.add("later alpha" if joined else "first alpha")
        if joined:
            cases.add("kept all" if max(joined) == betas else "kept some")
        elif not want.satisfied and len(_live_rows(pair)[0]) > 1:
            cases.add("kept none")
        with monkeypatch.context() as patched:
            # one live alpha per chunk: every chunk boundary
            patched.setattr(realize, "_JOIN_ELEMENTS", 1)
            assert check_conditions(pair) == want
    assert cases == {"first alpha", "later alpha", "kept none", "kept some", "kept all"}


def test_hit_at_the_first_live_alpha_joins_nothing(monkeypatch):
    joined = _spy_dominated(monkeypatch)
    pair = SpectrumPair(
        tuple(circulant_eigenvalues(fx.EIGHT_S_ROW)), tuple(skew_eigenvalues(fx.EIGHT_C_ROW))
    )
    report = check_conditions(pair)
    assert report == _reference_check_conditions(pair)
    assert report.witness.alpha.mapping == (0, 1, 2, 3)
    assert joined == []


def test_miss_under_an_empty_envelope_joins_nothing(monkeypatch):
    # tests/data/miss_10.json, an even n = 10 miss: 384 live alphas, and no
    # skew row fits under the envelope of all but the first
    data = json.loads((DATA / "miss_10.json").read_text())
    pair = SpectrumPair(
        tuple(complex(*z) for z in data["circulant"]),
        tuple(complex(*z) for z in data["skew"]),
    )
    body, c_abs = _live_rows(pair)
    assert len(body) == 384
    envelope = np.max(np.clip(body[1:], 0.0, None), axis=0)
    assert not np.any(np.all(c_abs <= envelope + 1e-9, axis=1))
    joined = _spy_dominated(monkeypatch)
    assert check_conditions(pair) == ConditionReport(False, None)
    assert joined == []


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
        recover_kind(lam[alphas], "circulant"),
        recover_kind(ups[betas], "skew"),
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
        if report.satisfied:
            assert report.witness.alpha == reference.witness.alpha
            assert report.witness.beta == reference.witness.beta
            ties += min(np.abs(report.witness.margins)) <= 1e-12
        lam, ups = pair.arrays()
        scale = max(np.max(np.abs(lam)), np.max(np.abs(ups)))
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


def _fresh_head_tables(n):
    """The tables ``circulant_head_bound`` built on every call before they
    were cached: positions, cosines, sines and the alternating sign."""
    k = np.arange(n)
    if n % 2 == 1:
        j = np.arange(1, (n - 1) // 2 + 1)
    else:
        j = np.arange(1, n // 2)
    ang = 2.0 * np.pi * np.outer(k, j) / n
    return j, np.cos(ang), np.sin(ang), -((-1.0) ** k)


def test_head_tables_are_read_only_and_bit_equal_to_fresh_ones():
    for n in range(1, 17):
        tables = realize._head_tables(n)
        assert realize._head_tables(n) is tables
        for got, want in zip(tables, _fresh_head_tables(n), strict=True):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0


def test_head_bound_equal_on_cold_and_warm_caches():
    rng = np.random.default_rng(47)
    lists = [circulant_eigenvalues(rng.uniform(-1.0, 1.0, size=n)) for n in range(1, 9)]
    cold = []
    for values in lists:
        realize._head_tables.cache_clear()
        cold.append(circulant_head_bound(values))
    for values in lists:
        circulant_head_bound(values)
    misses = realize._head_tables.cache_info().misses
    warm = [circulant_head_bound(values) for values in lists]
    assert realize._head_tables.cache_info().misses == misses
    assert np.array(warm).tobytes() == np.array(cold).tobytes()


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
    slack = 1e-12 * max(np.max(np.abs(shifted)), abs(rho))
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

    def test_zero_tail_builds_at_the_least_rho(self):
        # the head rho - (n+1)*chi rounds at rho's scale, so it may come out
        # an ulp below 0; rho is an operand of the plan's slack
        rng = np.random.default_rng(26)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            ups = skew_eigenvalues(rng.uniform(-1.0, 1.0, size=n))
            chi = skew_row_bound(ups)
            for rho in (n * chi + chi, np.nextafter((n + 1) * chi, 0.0)):
                M = brauer_augment(ups, np.zeros(n), rho)
                assert is_permutative(M).permutative
                expected = np.concatenate([[rho], np.zeros(n), ups])
                assert match_spectra(spectrum(M), expected, 1e-7 * rho).matched

    def test_tail_length_mismatch(self):
        with pytest.raises(ValueError):
            brauer_plan(upsilon_seven(), [0, 0], 20.0)

    @pytest.mark.parametrize("rho", [float("inf"), float("-inf"), float("nan")])
    def test_nonfinite_rho_is_refused_before_any_search(self, monkeypatch, rho):
        def search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(realize, "_search_orderings", search)
        with pytest.raises(ValueError, match="^rho must be finite$"):
            brauer_plan(upsilon_seven(), [0, 0, 0], rho)


def _reference_tuple_augment(plan, gamma, sign):
    """The build of a plan as it read when the last-row split went through
    a tuple of tuples into :func:`build_odd`: a copy of that code."""
    R = circulant(np.asarray(plan.circulant_row))
    c_row = np.asarray(plan.skew_row)
    g = sign * gamma
    n = c_row.size
    last = R[n, :n]
    split = np.column_stack([(last + g * c_row) / 2.0, (last - g * c_row) / 2.0])
    spec = BlockBuildSpec(gamma=gamma, sign=sign, last_row_split=tuple(map(tuple, split)))
    return build_odd(R, c_row, spec)


def _brauer_inputs(rng):
    """Skew lists of order 1..6, zero or random tails, rho from just below
    to above the least working value, gamma in [0, 1] and both signs."""
    for trial in range(80):
        n = int(rng.integers(1, 7))
        ups = skew_eigenvalues(rng.uniform(-1.0, 1.0, size=n))
        if trial % 2:
            tail = circulant_eigenvalues(rng.uniform(0.0, 1.0, size=n + 1))[1:]
        else:
            tail = np.zeros(n)
        rho = (n + 1) * skew_row_bound(ups) + rng.uniform(-0.5, 2.0)
        gamma = [0.0, 1.0, float(rng.uniform())][trial % 3]
        yield ups, tail, rho, gamma, int(rng.choice([-1, 1]))


def test_brauer_augment_equals_its_plan_build_and_the_tuple_route():
    outcomes = set()
    for ups, tail, rho, gamma, sign in _brauer_inputs(np.random.default_rng(2828)):
        try:
            plan = brauer_plan(ups, tail, rho)
        except RealizabilityError as exc:
            with pytest.raises(RealizabilityError, match=f"^{re.escape(str(exc))}$"):
                brauer_augment(ups, tail, rho, gamma=gamma, sign=sign)
            outcomes.add(False)
            continue
        M = brauer_augment(ups, tail, rho, gamma=gamma, sign=sign)
        assert M.tobytes() == realize._augment_from_plan(plan, gamma, sign).tobytes()
        assert M.tobytes() == _reference_tuple_augment(plan, gamma, sign).tobytes()
        outcomes.add(True)
    assert outcomes == {True, False}


def test_brauer_plan_errors_come_before_those_of_gamma_and_sign():
    with pytest.raises(RealizabilityError):
        brauer_augment(upsilon_seven(), [0, 0, 0], 7.0, gamma=2.0, sign=0)
    with pytest.raises(ValueError, match=r"^gamma must lie in \[0, 1\], got 2.0$"):
        brauer_augment(upsilon_seven(), [0, 0, 0], 20.0, gamma=2.0)
    with pytest.raises(ValueError, match="^sign must be"):
        brauer_augment(upsilon_seven(), [0, 0, 0], 20.0, sign=0)


@pytest.mark.parametrize("bordered", [False, True])
def test_join_slack_is_the_slack_of_all_rows(bordered, monkeypatch):
    # the join runs under slack(ROUNDOFF_RTOL, s_rows, |c_rows|), read from
    # the recovered row maxima: the same float, bit for bit
    seen = []
    joined = realize._joined

    def spy(body, c_abs, tol):
        seen.append(tol)
        return joined(body, c_abs, tol)

    monkeypatch.setattr(realize, "_joined", spy)
    pairs = list(_search_pairs(37 + bordered, bordered))
    pairs += list(_integer_pairs(39 + bordered, bordered))
    cap = spectra.DEFAULT_ENUMERATION_CAP
    for pair in pairs:
        seen.clear()
        check_conditions(pair)
        parts = pair._parts
        alphas = spectra._search_orderings(parts.circulant_key, cap)
        betas = spectra._search_orderings(parts.skew_key, cap)
        s_rows = recover_kind(parts.headed[alphas], "circulant")
        c_rows = recover_kind(parts.ups[betas], "skew")
        want = slack(ROUNDOFF_RTOL, s_rows, np.abs(c_rows))
        assert len(seen) == 1 and np.float64(seen[0]).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("bordered", [False, True])
def test_builds_reads_the_recovered_skew_row_maximum(bordered, monkeypatch):
    # each pair the join passes is judged with its skew row's maximum as
    # row recovery returns it: the largest magnitude of that row, bit for bit
    seen = []
    builds = realize._builds

    def spy(s_row, c_row, c_max, odd):
        seen.append((c_row.copy(), c_max))
        return builds(s_row, c_row, c_max, odd)

    monkeypatch.setattr(realize, "_builds", spy)
    pairs = list(_search_pairs(37 + bordered, bordered))
    pairs += list(_integer_pairs(39 + bordered, bordered))
    for pair in pairs:
        check_conditions(pair)
    assert seen
    for c_row, c_max in seen:
        assert np.float64(c_max).tobytes() == np.float64(max_abs(c_row)).tobytes()


@pytest.mark.parametrize("scale", [2.0**-60, 1.0, 2.0**60])
@pytest.mark.parametrize("rho_factor", [0.5, 4.0, 40.0])
def test_brauer_shift_slack_is_the_slack_of_the_shifted_list_and_rho(
    scale, rho_factor, monkeypatch
):
    # every shifted row gets a least entry on minus slack(ROUNDOFF_RTOL,
    # shifted, [rho]), or one ulp below: the plan is found on it and
    # refused past it, whether |head| or rho is the larger operand
    recover = realize._recover_rows
    ups = scale * upsilon_seven()
    tail = scale * np.array([0.5, 0.25 + 0.5j, 0.25 - 0.5j])
    rho = rho_factor * scale
    for below, found in ((False, True), (True, False)):

        def spy(spectra, skew_from):
            rows, row_max = recover(spectra, skew_from)
            if skew_from:  # the shifted circulant; its head leads every ordering
                edge = -slack(ROUNDOFF_RTOL, spectra[0], [rho])
                rows = np.abs(rows)
                rows[:, -1] = np.nextafter(edge, -np.inf) if below else edge
            return rows, row_max

        monkeypatch.setattr(realize, "_recover_rows", spy)
        if found:
            plan = brauer_plan(ups, tail, rho)
            assert plan.base_row[-1] == 0.0
        else:
            with pytest.raises(RealizabilityError, match="^no nonnegative circulant"):
                brauer_plan(ups, tail, rho)


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


def _reference_builds(s_row, c_row, odd):
    """The one-row judge before its two vector comparisons: the join itself,
    ``_dominated(...)[0]``, on one row."""
    s = np.clip(s_row, 0.0, None)
    read = s[:1] if odd and c_row.size == 1 else s
    tol = 1e-12 * max(max_abs(read), max_abs(c_row))
    return bool(_reference_dominated(s, np.abs(c_row)[None], odd, tol)[0])


@st.composite
def _builds_edges(draw):
    """One circulant row and one skew row, even or bordered, n = 1..9, at a
    row scale from 1e-3 to 1e3: some entries of ``s`` lie within the slack
    below zero, and one ``|c_k|`` sits on the builders' slack above the
    entry it meets (``s_k`` or, bordered, ``s_{k+1}``), one ulp either side
    or on it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    odd, n = draw(st.booleans()), draw(st.integers(1, 9))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    s = scale * rng.uniform(0.0, 1.0, size=n + odd)
    s[rng.uniform(size=n + odd) < 0.2] = -1e-13 * scale
    c = 0.5 * scale * rng.uniform(-1.0, 1.0, size=n)
    k = draw(st.integers(0, n - 1))
    clipped = np.clip(s, 0.0, None)
    target = clipped[k + (odd and k > 0 and draw(st.booleans()))]
    sign = draw(st.sampled_from([-1.0, 1.0]))
    c[k] = sign * target
    read = clipped[:1] if odd and n == 1 else clipped
    edge = target + 1e-12 * max(max_abs(read), max_abs(c))
    for _ in range(draw(st.integers(0, 2))):
        edge = np.nextafter(edge, np.inf if draw(st.booleans()) else 0.0)
    c[k] = sign * edge
    return s, c, odd


@settings(max_examples=400, deadline=None)
@given(rows=_builds_edges())
def test_builds_matches_the_one_row_join(rows):
    s, c, odd = rows
    # as drawn; a skew row that outgrows s; signed zeros, and all of them
    zeros = np.where(s < 0, -0.0, s)
    for s_row, c_row in ((s, c), (s, 4.0 * c), (zeros, c), (np.full_like(s, -0.0), 0.0 * c)):
        slacks = []

        def spy(S, C, tol):
            slacks.append(tol)
            return _violations(S, C, tol)

        # the skew row's maximum as row recovery returns it
        with mock.patch.object(realize, "_violations", spy):
            got = realize._builds(s_row, c_row, np.abs(c_row).max(), odd)
        assert type(got) is bool
        assert got == _reference_builds(s_row, c_row, odd)
        clipped = np.clip(s_row, 0.0, None)
        want = slack(ROUNDOFF_RTOL, clipped[:1] if c_row.size == 1 else clipped, c_row)
        assert [np.float64(t).tobytes() for t in slacks] == [np.float64(want).tobytes()]


def test_builds_decides_both_ways_at_the_edge():
    # even and bordered, the verdict flips one ulp past the slack
    for odd in (False, True):
        s = np.array([2.0, 1.0, 1.5, 1.0])[: 3 + odd]
        c = np.array([0.5, 1.0, -0.25])
        k = 1
        # bordered, |c_1| meets both s_1 and s_2
        met = min(s[k], s[k + odd])
        edge = met + 1e-12 * 2.0
        for value, want in ((edge, True), (np.nextafter(edge, np.inf), False)):
            c[k] = -value
            assert realize._builds(s, c, np.abs(c).max(), odd) is want
            assert _reference_builds(s, c, odd) is want


def _matrix_builds(s_row, c_row, odd):
    """``_builds`` as it read when it judged matrices: the builders' rule
    on what :func:`build_from_witness` hands them, the clipped circulant
    row against the skew row at even n and, bordered, the leading n x n
    block of the clipped row's circulant against the skew circulant."""
    s = np.clip(s_row, 0.0, None)
    if odd:
        n = c_row.size
        s, c_row = circulant(s)[:n, :n], skew_circulant(c_row)
    return not _violations(s, c_row).any()


@st.composite
def _slack_edge_rows(draw):
    """One circulant row and one skew row, even or bordered, n = 1..9, from
    small integers, where many ``|c_k|`` equal the entries they meet, with
    entries moved by 1e-13 (inside the slack) or by a slack and one ulp
    either way; or the rows of :func:`_builds_edges`."""
    if draw(st.booleans()):
        return draw(_builds_edges())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    odd, n = draw(st.booleans()), draw(st.integers(1, 9))
    s = rng.integers(-1, 4, size=n + odd).astype(float)
    c = rng.integers(-3, 4, size=n).astype(float)
    for row in (s, c):
        moved = rng.uniform(size=row.size) < 0.3
        row[moved] += rng.choice([-1e-13, 1e-13], size=int(moved.sum()))
    clipped = np.clip(s, 0.0, None)
    k = int(rng.integers(n))
    met = clipped[k + int(odd and k > 0 and rng.uniform() < 0.5)]
    read = clipped[:1] if odd and n == 1 else clipped
    edge = met + 1e-12 * max(max_abs(read), max_abs(c))
    c[k] = rng.choice([-1.0, 1.0]) * draw(
        st.sampled_from([met, edge, np.nextafter(edge, np.inf), np.nextafter(edge, 0.0)])
    )
    return s, c, odd


@seed(25)
@settings(max_examples=500, deadline=None)
@given(rows=_slack_edge_rows())
def test_builds_equals_the_matrix_judgement(rows):
    s, c, odd = rows
    assert realize._builds(s, c, np.abs(c).max(), odd) is _matrix_builds(s, c, odd)


@st.composite
def _repeated_even_pairs(draw):
    """A skew part of even order n = 2, 4 or 6 and a circulant part of order
    n or n + 1, whose conjugate pairs (and reals) come from one small pool,
    so entries repeat; both in random pairing layouts."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([2, 4, 6]))
    m = n + draw(st.booleans())
    pool = np.array([1 + 1j, -1 + 0.5j, 2.0, 0.5 - 1j, -1.0])
    half = rng.choice(pool, size=n // 2)
    ups = np.concatenate([half, np.conj(half[::-1])])
    pairs = rng.choice(pool, size=(m - 1) // 2)
    middle = [rng.choice([-1.0, 0.0, 2.0])] if m % 2 == 0 else []
    head = draw(st.sampled_from([2.0, 4.0, 6.0, 9.0]))
    lam = np.concatenate([[head], pairs, middle, np.conj(pairs[::-1])]).astype(complex)
    return SpectrumPair(
        _scrambled(lam, enumerate_circulant_permutations(lam), rng),
        _scrambled(ups, enumerate_skew_permutations(ups), rng),
    )


@seed(12)
@settings(max_examples=80, deadline=None)
@given(pair=_repeated_even_pairs())
def test_search_over_representatives_matches_reference_at_even_n(pair):
    assert check_conditions(pair) == _reference_check_conditions(pair)


def _undeduplicated_skew_rows(ups):
    """Every skew-layout ordering of ``ups`` and its recovered row, with no
    ordering left out."""
    betas = spectra._lookup(spectra._structure_key(ups, "skew"), None, 10)
    return betas, recover_kind(ups[betas], "skew")


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_skew_searches_match_undeduplicated_rows(n):
    rng = np.random.default_rng(50 + n)
    ties = 0
    for trial in range(12):
        if trial % 2:
            ups = skew_eigenvalues(rng.integers(-2, 3, size=n).astype(float))
        else:
            half = rng.choice(np.array([1 + 1j, 2.0, -1 + 0.5j]), size=n // 2)
            ups = np.concatenate([half, np.conj(half[::-1])])
        ups = np.asarray(_scrambled(ups, enumerate_skew_permutations(ups), rng))
        betas, rows = _undeduplicated_skew_rows(ups)
        chi = max_abs(rows)
        assert skew_row_bound(ups) == chi
        magnitudes = np.abs(rows).max(axis=1)
        best = int(np.argmin(magnitudes))
        ties += int(np.sum(magnitudes == magnitudes[best])) > 1
        tail = circulant_eigenvalues(rng.uniform(0.0, 1.0, size=n + 1))[1:]
        # a head of at least the tail row's sum keeps that row nonnegative
        plan = brauer_plan(ups, tail, (n + 1) * chi + n + 2.0)
        assert plan.chi == chi
        assert plan.beta.mapping == tuple(betas[best].tolist())
        assert plan.skew_row == tuple(rows[best].tolist())
    assert ties > 0


def test_even_reports_equal_on_cold_and_warm_representatives():
    pairs = [*_search_pairs(44, False), *_search_pairs(44, True), *_integer_pairs(46, True)]
    pairs = [pair for pair in pairs if len(pair.skew_part) % 2 == 0]
    cold = []
    for pair in pairs:
        spectra._generate.cache_clear()
        spectra._shift_representatives.cache_clear()
        cold.append(check_conditions(pair))
    for pair in pairs:
        check_conditions(pair)
    misses = spectra._shift_representatives.cache_info().misses
    warm = [check_conditions(pair) for pair in pairs]
    assert spectra._shift_representatives.cache_info().misses == misses
    assert warm == cold == [_reference_check_conditions(pair) for pair in pairs]
    assert {report.satisfied for report in cold} == {True, False}


def test_join_chunks_straddle_blocks_over_representatives(monkeypatch):
    # at even n the join reads one skew row per shift class, so steps of 1,
    # 2, 3 and 5 live alphas are set from the representatives' row count
    pairs = [*_search_pairs(53, False), *_integer_pairs(54, False), *_integer_pairs(55, True)]
    pairs = [pair for pair in pairs if len(pair.skew_part) % 2 == 0]
    outcomes, split = set(), 0
    for pair in pairs:
        want = _reference_check_conditions(pair)
        lam, ups = pair.arrays()
        reps = spectra._search_orderings(spectra._structure_key(ups, "skew"), 10)
        s_rows, _ = _all_rows(pair)
        scale = max(np.max(np.abs(lam)), np.max(np.abs(ups)))
        lives = np.sum(np.all(s_rows >= -1e-12 * scale, axis=1))
        for step in (1, 2, 3, 5):
            monkeypatch.setattr(realize, "_JOIN_ELEMENTS", step * reps.size)
            assert check_conditions(pair) == want
            split += lives > step
        outcomes.add(want.satisfied)
    assert outcomes == {True, False}
    assert split > 0


def _witness_verifies(pair, report):
    """The witness indexes both parts as given, each part reordered by it
    has its pairing layout, and its build verifies."""
    lam = np.asarray(pair.circulant_part, dtype=complex)
    ups = np.asarray(pair.skew_part, dtype=complex)
    witness = report.witness
    assert satisfies_circulant_pairing(lam[list(witness.alpha.mapping)])
    assert satisfies_skew_pairing(ups[list(witness.beta.mapping)])
    M = build_from_witness(pair, witness)
    expected = np.concatenate([lam, pair.gamma * ups])
    tol = slack(VERIFY_RTOL, expected)
    assert match_spectra(spectrum(M), expected, tol).matched


class TestMultisetParts:
    """Both parts are multisets: any order is read, the circulant head is
    forced and the witness indexes the parts as given."""

    @pytest.mark.parametrize(
        "lam, alpha",
        [
            ((6, 2j, 1, -2j), (0, 1, 2, 3)),
            ((6, 1, 2j, -2j), (0, 2, 1, 3)),  # once "violates its pairing layout"
            ((1, 2j, 6, -2j), (2, 1, 0, 3)),  # once headed by 1, and unsatisfied
            ((1.0, 5.0), (1, 0)),  # circ(3, 2); once unsatisfied
        ],
    )
    def test_circulant_part_in_any_order(self, lam, alpha):
        pair = SpectrumPair(lam, (0.0,) * len(lam))
        report = check_conditions(pair)
        assert report.satisfied
        assert report.witness.alpha.mapping == alpha
        headed = [lam[i] for i in pair._parts.order]
        assert headed[0] >= circulant_head_bound(headed)
        _witness_verifies(pair, report)

    def test_bordered_pair_in_any_order(self):
        # the seven pair, its head third and its skew part out of layout
        data = json.loads((DATA / "multiset_pair.json").read_text())
        pair = SpectrumPair(
            tuple(complex(*z) for z in data["circulant"]),
            tuple(complex(*z) for z in data["skew"]),
        )
        assert not satisfies_circulant_pairing(pair.circulant_part)
        assert not satisfies_skew_pairing(pair.skew_part)
        report = check_conditions(pair)
        assert report.satisfied
        assert report.witness.alpha.mapping == (2, 0, 1, 3)
        assert report.witness.beta.mapping == (1, 0, 2)
        np.testing.assert_allclose(report.witness.circulant_row, fx.SEVEN_S_ROW, atol=1e-10)
        np.testing.assert_allclose(report.witness.skew_row, fx.SEVEN_C_ROW, atol=1e-10)
        _witness_verifies(pair, report)

    @pytest.mark.parametrize("bordered", [False, True])
    def test_head_rule_margin(self, bordered):
        # an entry qualifies down to 2m*tol below the largest modulus (m
        # entries, tol the search's slack); one ulp lower, no entry does,
        # and index 0 keeps the head, below its bound, the modulus of the
        # other entry
        big = 10.0
        tol = 1e-12 * big
        edge = big - 2 * 2 * tol
        ups = (0.0,) if bordered else (0.0, 0.0)
        assert SpectrumPair((-big, edge), ups)._parts.order.tolist() == [1, 0]
        below = float(np.nextafter(edge, 0.0))
        outside = SpectrumPair((-big, below), ups)
        assert outside._parts.order.tolist() == [0, 1]
        assert circulant_head_bound((-big, below)) == below
        assert not check_conditions(outside).satisfied

    @pytest.mark.parametrize("bordered", [False, True])
    def test_largest_real_part_heads_in_either_order(self, bordered):
        # 10 - 4e-11 and 10 both qualify; 10 heads wherever it is listed,
        # so both orders give one verdict
        low = 10 - 4e-11
        ups = (0.0,) if bordered else (0.0, 0.0)
        for lam, alpha in (((low, 10.0), (1, 0)), ((10.0, low), (0, 1))):
            pair = SpectrumPair(lam, ups)
            report = check_conditions(pair)
            assert report.satisfied
            assert report.witness.alpha.mapping == alpha
            assert lam[alpha[0]] == 10.0
            _witness_verifies(pair, report)

    def test_entry_not_real_never_heads(self):
        # 10 +/- 1e-6j lie within the modulus margin but are not real by the
        # generator's rule (2|Im| <= 1e-12 * max modulus); nothing moves, so
        # the list is read with head 1 and is a plain miss
        pair = SpectrumPair((1.0, 10 + 1e-6j, 10 - 1e-6j), (0.0, 0.0, 0.0))
        report = check_conditions(pair)
        assert not report.satisfied and report.witness is None

    @pytest.mark.parametrize(
        "parts, message",
        [
            (((1.0, 2j), (0.0, 0.0)), "circulant part violates its pairing layout"),
            (((1.0, 0.0), (1j, 2.0)), "skew part violates its pairing layout"),
        ],
        ids=["circulant", "skew"],
    )
    def test_a_part_with_no_layout_raises(self, parts, message):
        with pytest.raises(PairingError, match=f"^{message}$"):
            check_conditions(SpectrumPair(*parts))

    def test_head_that_leaves_no_layout_is_passed_over(self):
        # index 0 lies inside the margin (2*3*1e-11 below 10) but, heading,
        # leaves 10 to pair with 10 - 3e-11, beyond the pairing tolerance
        # (1e-11); the next qualifying entry heads
        pair = SpectrumPair((10 - 3e-11, 10.0, 10 - 3e-11), (0.0,) * 3)
        report = check_conditions(pair)
        assert report.satisfied and report.witness.alpha.mapping == (1, 0, 2)
        _witness_verifies(pair, report)

    def test_no_head_with_a_layout_falls_back_to_index_0(self):
        # 10 +/- 1e-13j are real by the generator's rule and qualify, but
        # each leaves 1 to pair with the other: index 0 heads, and the list
        # is a miss, not a "violates its pairing layout"
        pair = SpectrumPair((1.0, 10 + 1e-13j, 10 - 1e-13j), (0.0,) * 3)
        report = check_conditions(pair)
        assert not report.satisfied and report.witness is None
        assert pair._parts.order.tolist() == [0, 1, 2]
        assert circulant_head_bound(pair.circulant_part) > 1.0


@st.composite
def _shuffled_planted_pairs(draw):
    """A planted satisfied pair (s = |c| + u even, s = max|c| + u bordered,
    skew order 1..6) with both parts shuffled.  Its head is distinct, or,
    at even order, exactly equal to lam_{n/2}: the odd entries of both rows
    are zero, and lam_{n/2} is set to the bits of lam_0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bordered = draw(st.booleans())
    n = draw(st.integers(1, 6))
    c = rng.uniform(-1.0, 1.0, size=n)
    if bordered:
        s = np.max(np.abs(c)) + rng.uniform(0.0, 1.0, size=n + 1)
    else:
        s = np.abs(c) + rng.uniform(0.0, 1.0, size=n)
    equal_heads = not bordered and n % 2 == 0 and draw(st.booleans())
    if equal_heads:
        s[1::2] = c[1::2] = 0.0
    lam = circulant_eigenvalues(s)
    if equal_heads:
        lam[n // 2] = lam[0]
    ups = skew_eigenvalues(c)
    return SpectrumPair(tuple(rng.permutation(lam)), tuple(rng.permutation(ups)))


@seed(16)
@settings(max_examples=150, deadline=None)
@given(pair=_shuffled_planted_pairs())
def test_shuffled_parts_stay_satisfied(pair):
    report = check_conditions(pair)
    assert report.satisfied
    _witness_verifies(pair, report)


def _reference_layout_orderings(values, kind, cap):
    """The orderings the searches read, keyed from ``values``."""
    key = spectra._structure_key(values, kind)
    orderings = spectra._lookup(key, None, cap)
    n, _, compatible, labels = key
    if kind == "skew" and n % 2 == 0:
        orderings = spectra._shift_representatives(n, compatible, labels)
    if not len(orderings):
        raise PairingError(f"list does not admit any {kind}-layout ordering")
    return orderings


def reference_check_conditions(pair, cap=spectra.DEFAULT_ENUMERATION_CAP):
    """:func:`check_conditions` as it read before the pair kept its keys:
    both parts keyed again on every call, the slack computed again, and
    one row recovery per side."""
    lam, ups = pair.arrays()
    order = pair._parts.order
    lam = lam[order]
    alphas = _reference_layout_orderings(lam, "circulant", cap)
    tol = 1e-12 * max(max_abs(lam), max_abs(ups))
    odd = lam.size == ups.size + 1
    s_rows = recover_kind(lam[alphas], "circulant")
    betas = _reference_layout_orderings(ups, "skew", cap)
    c_rows = recover_kind(ups[betas], "skew")
    c_abs = np.abs(c_rows)
    live = np.flatnonzero((s_rows >= -tol).all(axis=1))
    join_tol = max(tol, 1e-12 * max(max_abs(s_rows), float(c_abs.max())))
    step = max(1, realize._JOIN_ELEMENTS // max(1, c_abs.size))
    for start in range(0, live.size, step):
        block = live[start:start + step]
        ok = _reference_dominated(s_rows[block], c_abs, odd, join_tol)
        while ok.any():
            i, b = divmod(int(np.argmax(ok)), ok.shape[1])
            s_row, c_row = s_rows[block[i]], c_rows[b]
            if _reference_builds(s_row, c_row, odd):
                c_pad = np.concatenate([c_abs[b], [0.0]]) if odd else c_abs[b]
                witness = ConditionWitness(
                    alpha=realize._permutation(order[alphas], block[i], "circulant"),
                    beta=realize._permutation(betas, b, "skew"),
                    circulant_row=tuple(s_row.tolist()),
                    skew_row=tuple(c_row.tolist()),
                    margins=tuple((s_row - c_pad).tolist()),
                )
                return ConditionReport(True, witness)
            ok[i, b] = False
    return ConditionReport(False, None)


@st.composite
def _reference_cases(draw, scales=(1.0, 1.0, 1e300, 1e-300)):
    """A pair of skew order n = 1..8, even or bordered, from first rows:
    planted (a hit), uniform in [-1, 1] (mostly misses) or small integers
    (repeated values and ties); at even order the head may be exactly equal
    to lam_{n/2}.  Zero parts may carry signed zeros, both parts may be
    scaled by one of ``scales``, shuffled, or given an entry that breaks
    the layout.  Also a cap."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    bordered = draw(st.booleans())
    n = int(rng.integers(1, 8 if bordered else 9))
    rows = draw(st.sampled_from(["planted", "uniform", "integer"]))
    if rows == "integer":
        c = rng.integers(-2, 3, size=n).astype(float)
        s = rng.integers(-1, 4, size=n + bordered).astype(float)
    else:
        c = rng.uniform(-1.0, 1.0, size=n)
        s = rng.uniform(-1.0, 1.0, size=n + bordered)
    if rows == "planted":
        s = (np.max(np.abs(c)) if bordered else np.abs(c)) + rng.uniform(0.0, 1.0, s.size)
    if draw(st.booleans()):
        c[rng.uniform(size=n) < 0.5] = 0.0
    equal_heads = not bordered and n % 2 == 0 and draw(st.booleans())
    if equal_heads:
        s[1::2] = c[1::2] = 0.0
    lam, ups = circulant_eigenvalues(s), skew_eigenvalues(c)
    if equal_heads:
        lam[n // 2] = lam[0]
    for part in (lam, ups):
        if draw(st.booleans()):
            part.real[part.real == 0.0] = -0.0
            part.imag[part.imag == 0.0] = -0.0
    scale = draw(st.sampled_from(scales))
    lam, ups = lam * scale, ups * scale
    if draw(st.booleans()):
        lam, ups = rng.permutation(lam), rng.permutation(ups)
    broken = draw(st.sampled_from([None] * 6 + ["circulant", "skew"]))
    if broken:
        part = lam if broken == "circulant" else ups
        part[int(rng.integers(part.size))] += 3j * scale
    cap = draw(st.sampled_from([10, 10, 10, 3, 5, 7]))
    return SpectrumPair(tuple(lam), tuple(ups)), cap


def _outcome(check, pair, cap):
    """The report of ``check``, or the type and message of its error."""
    try:
        return check(pair, cap=cap)
    except (PairingError, EnumerationCapError) as exc:
        return type(exc), str(exc)


@seed(17)
@settings(max_examples=250, deadline=None)
@given(case=_reference_cases())
def test_check_conditions_equals_the_rekeying_reference(case):
    # repr tells -0.0 from 0.0 and is the shortest round trip of each
    # float, so equal reprs are equal bits
    pair, cap = case
    fresh = _outcome(check_conditions, pair, cap)
    want = _outcome(reference_check_conditions, pair, cap)
    warm = _outcome(check_conditions, pair, cap)
    assert repr(fresh) == repr(want)
    assert repr(warm) == repr(want)


@seed(26)
@settings(max_examples=250, deadline=None)
@given(case=_reference_cases(scales=(1.0,)), k=st.integers(-60, 60))
def test_verdict_and_witness_do_not_depend_on_scale(case, k):
    # scaling by 2**k is exact, so the rows, the slacks and every
    # comparison scale with it; uniform rows put negative entries in the
    # circulant rows and zeroed entries in the skew rows, where a floor
    # on the slack once let a row negative by less than 1e-12 live
    pair, cap = case
    scaled = SpectrumPair(
        *(tuple(np.asarray(part) * 2.0**k) for part in (pair.circulant_part, pair.skew_part))
    )
    want, got = _outcome(check_conditions, pair, cap), _outcome(check_conditions, scaled, cap)
    if isinstance(want, ConditionReport):
        assert got.satisfied == want.satisfied
        if want.satisfied:
            assert got.witness.alpha == want.witness.alpha
            assert got.witness.beta == want.witness.beta
    else:
        assert got == want


def test_negative_trace_below_scale_1_is_not_satisfied():
    # {1e-9, -1.0008e-9} with a zero skew part has trace -8e-13: its
    # circulant row (-4e-13, 1.0004e-9) is negative at every scale
    for scale in (1.0, 1e9):
        pair = SpectrumPair((1e-9 * scale, -1.0008e-9 * scale), (0.0, 0.0))
        assert check_conditions(pair) == ConditionReport(False, None)


def test_two_plus_two_lists_agree_with_the_four_by_four_at_scale_1e_9():
    # the 4x4 is the n = 2 even build: circulant row s = ((lam1 + lam2)/2,
    # (lam1 - lam2)/2), skew row (Re z, Im z); margins of 1e-4 and 1e-3
    # relative either way, and zeroed skew entries, put rows a little
    # below zero
    rng = np.random.default_rng(26)
    outcomes = set()
    for _ in range(300):
        c = rng.uniform(-1.0, 1.0, size=2)
        c[rng.uniform(size=2) < 0.5] = 0.0
        margins = rng.choice([-1e-3, -1e-4, 1e-4, 1e-3, rng.uniform(0.0, 1.0)], size=2)
        s = 1e-9 * (np.abs(c) + margins)
        lam, ups = circulant_eigenvalues(s), skew_eigenvalues(1e-9 * c)
        try:
            realize_four(np.concatenate([lam, ups]))
            four = True
        except RealizabilityError:
            four = False
        report = check_conditions(SpectrumPair(tuple(lam), tuple(ups)))
        assert report.satisfied == four
        outcomes.add(four)
    assert outcomes == {True, False}


def test_a_pair_is_keyed_once(monkeypatch):
    keyed = []
    structure = spectra._structure

    def spy(entries, tol):
        keyed.append(entries.size)
        return structure(entries, tol)

    monkeypatch.setattr(spectra, "_structure", spy)
    for lam, ups in (
        (circulant_eigenvalues(fx.EIGHT_S_ROW), upsilon_eight()),
        (circulant_eigenvalues(fx.SEVEN_S_ROW), upsilon_seven()),
    ):
        pair = SpectrumPair(tuple(lam), tuple(ups))
        # a fresh pair: each part keyed once, while it is validated
        assert check_conditions(pair).satisfied
        assert keyed == [lam.size, ups.size]
        keyed.clear()
        # a warm pair: no part keyed again
        assert check_conditions(pair).satisfied
        pair.arrays()
        assert keyed == []


def test_warm_pair_still_checks_the_cap():
    pair = SpectrumPair(
        tuple(circulant_eigenvalues([5.0, 1.0, 2.0, 0.5, 1.0])),
        tuple(skew_eigenvalues([0.5, -0.25, 0.5, 0.0, 0.25])),
    )
    check_conditions(pair)
    with pytest.raises(EnumerationCapError, match="n=5 above cap 3"):
        check_conditions(pair, cap=3)
    assert check_conditions(pair).satisfied
