from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import structured
from niepkit._util import PERMUTATIVE_RTOL, as_float_matrix, max_abs
from niepkit.structured import (
    AbsCirculant,
    PermutativityReport,
    abs_circulant,
    circulant,
    is_permutative,
    skew_circulant,
)


class TestCirculant:
    def test_fixture_2402(self):
        expected = np.array(
            [[2, 4, 0, 2], [2, 2, 4, 0], [0, 2, 2, 4], [4, 0, 2, 2]], dtype=float
        )
        assert np.array_equal(circulant([2, 4, 0, 2]), expected)

    def test_fixture_5631(self):
        expected = np.array(
            [[5, 6, 3, 1], [1, 5, 6, 3], [3, 1, 5, 6], [6, 3, 1, 5]], dtype=float
        )
        assert np.array_equal(circulant([5, 6, 3, 1]), expected)

    def test_order_one(self):
        assert np.array_equal(circulant([3.5]), np.array([[3.5]]))

    def test_rows_are_right_shifts(self):
        rng = np.random.default_rng(0)
        M = circulant(rng.normal(size=7))
        for i in range(1, 7):
            assert np.array_equal(M[i], np.roll(M[i - 1], 1))


class TestSkewCirculant:
    def test_fixture_m1101(self):
        expected = np.array(
            [[-1, 1, 0, 1], [-1, -1, 1, 0], [0, -1, -1, 1], [-1, 0, -1, -1]],
            dtype=float,
        )
        assert np.array_equal(skew_circulant([-1, 1, 0, 1]), expected)

    def test_fixture_4m21(self):
        expected = np.array([[4, -2, 1], [-1, 4, -2], [2, -1, 4]], dtype=float)
        assert np.array_equal(skew_circulant([4, -2, 1]), expected)

    def test_order_one(self):
        assert np.array_equal(skew_circulant([-2.0]), np.array([[-2.0]]))

    def test_wrap_entries_negate(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=6)
        M = skew_circulant(row)
        for i in range(6):
            for j in range(6):
                expected = row[j - i] if j >= i else -row[6 - i + j]
                assert M[i, j] == expected

    def test_abs_is_circulant(self):
        rng = np.random.default_rng(2)
        row = rng.normal(size=5)
        assert np.array_equal(np.abs(skew_circulant(row)), circulant(np.abs(row)))


class TestAbsCirculant:
    def test_fixture(self):
        ac = AbsCirculant.from_arrays(fx.ABSCIRC_MAGNITUDES, fx.ABSCIRC_SIGNS)
        assert np.array_equal(abs_circulant(ac), fx.ABSCIRC_MATRIX)

    def test_all_plus_is_circulant(self):
        ac = AbsCirculant.from_arrays([1, 2, 3], np.ones((3, 3)))
        assert np.array_equal(abs_circulant(ac), circulant([1, 2, 3]))

    def test_skew_sign_pattern_matches_skew(self):
        row = np.array([0.5, 2.0, 1.0, 3.0])
        signs = np.where(np.tri(4, k=-1, dtype=bool), -1.0, 1.0)
        ac = AbsCirculant.from_arrays(row, signs)
        assert np.array_equal(abs_circulant(ac), skew_circulant(row))

    def test_abs_recovers_magnitude_circulant(self):
        ac = AbsCirculant.from_arrays(fx.ABSCIRC_MAGNITUDES, fx.ABSCIRC_SIGNS)
        assert np.array_equal(
            np.abs(abs_circulant(ac)), circulant(fx.ABSCIRC_MAGNITUDES)
        )

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            abs_circulant(AbsCirculant.from_arrays([-1, 2], np.ones((2, 2))))
        with pytest.raises(ValueError):
            abs_circulant(AbsCirculant.from_arrays([1, 2], np.zeros((2, 2))))
        bad_diag = np.array([[1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError):
            abs_circulant(AbsCirculant.from_arrays([1, 2], bad_diag))

    def test_signs_of_the_wrong_shape(self):
        ac = AbsCirculant.from_arrays([1.0, 2.0, 3.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"^signs must be 3x3, got \(2, 2\)$"):
            abs_circulant(ac)

    def test_zero_diagonal_magnitude_relaxes_sign(self):
        signs = np.array([[1.0, 1.0], [1.0, -1.0]])
        M = abs_circulant(AbsCirculant.from_arrays([0.0, 2.0], signs))
        assert np.array_equal(M, np.array([[0.0, 2.0], [2.0, 0.0]]))


class TestIsPermutative:
    def test_known_permutative_fixture(self):
        report = is_permutative(fx.FOUR_A_MATRIX)
        assert report
        for i, perm in enumerate(report.row_permutations):
            for k in range(4):
                assert fx.FOUR_A_MATRIX[i, k] == fx.FOUR_A_MATRIX[0, perm[k]]

    def test_identity(self):
        assert is_permutative(np.eye(4)).permutative

    def test_non_permutative(self):
        report = is_permutative([[1.0, 2.0], [3.0, 4.0]])
        assert not report
        assert report.row_permutations is None

    def test_tolerates_roundoff(self):
        M = fx.EIGHT_MATRIX.copy()
        M[3, 0] += 1e-13
        assert is_permutative(M).permutative

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # a NaN tol would accept every matrix and a negative one reject all
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            is_permutative([[1.0, 2.0], [5.0, 7.0]], tol=tol)


def reference_is_permutative(matrix, tol=None):
    """The row-by-row loop that one batched argsort replaced, kept as the
    reference."""
    matrix = as_float_matrix(matrix, "matrix")
    n = matrix.shape[0]
    if tol is None:
        tol = PERMUTATIVE_RTOL * max_abs(matrix)
    base = matrix[0]
    base_order = np.argsort(base, kind="stable")
    witnesses = []
    for i in range(n):
        row_order = np.argsort(matrix[i], kind="stable")
        if np.max(np.abs(matrix[i][row_order] - base[base_order])) > tol:
            return PermutativityReport(False, None)
        perm = np.empty(n, dtype=int)
        perm[row_order] = base_order
        witnesses.append(tuple(perm.tolist()))
    return PermutativityReport(True, tuple(witnesses))


@st.composite
def _near_permutative(draw):
    """Rows that permute one base row, with exact ties when the entries are
    small integers, and optionally one entry moved by a multiple of the
    default tolerance: just under it, just over it, or far past it."""
    n = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = rng.integers(-3, 4, size=n).astype(float)
    else:
        base = rng.normal(scale=10.0, size=n)
    M = np.array([rng.permutation(base) for _ in range(n)])
    factor = draw(st.sampled_from([None, 0.5, 0.999, 1.001, 2.0, 1e6]))
    if factor is not None:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sign = draw(st.sampled_from([-1.0, 1.0]))
        M[i, j] += sign * factor * PERMUTATIVE_RTOL * max(max_abs(M), 1.0)
    return M


def _assert_same_report(M, tol=None):
    got, want = is_permutative(M, tol), reference_is_permutative(M, tol)
    assert got == want
    if got.permutative:
        assert all(type(v) is int for perm in got.row_permutations for v in perm)
    return got


@settings(max_examples=300, deadline=None)
@given(M=_near_permutative())
def test_batched_check_matches_row_loop(M):
    _assert_same_report(M)
    # the largest row difference as the tolerance, and the float below it
    ranked = np.sort(M, axis=1, kind="stable")
    worst = float(np.max(np.abs(ranked - ranked[0])))
    assert _assert_same_report(M, worst).permutative
    if worst > 0.0:
        assert not _assert_same_report(M, float(np.nextafter(worst, 0.0)))


_BASES = {
    # each row sorts to a strictly increasing one: no ties
    "distinct": lambda rng, n: rng.permutation(n) + rng.uniform(0.0, 0.5, size=n),
    # the last entry repeats the first
    "ties": lambda rng, n: np.resize(rng.integers(0, 3, size=max(n - 1, 1)), n) * 1.0,
    # -0.0 == 0.0, so signed zeros are ties for the sort and the witness
    "signed zeros": lambda rng, n: np.resize([-0.0, 0.0, 1.5], n),
    "all zero": lambda rng, n: np.zeros(n),
}


@pytest.fixture
def argsort_kinds(monkeypatch):
    """The ``kind`` of every ``np.argsort`` call, in call order."""
    kinds = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        kinds.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return kinds


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_ties_and_moved_entries_at_the_tolerance(n, argsort_kinds):
    rng = np.random.default_rng(30 + n)
    for base, draw in _BASES.items():
        row = draw(rng, n)
        M = np.array([rng.permutation(row) for _ in range(n)])
        ranked = np.sort(M, axis=1)
        distinct = bool((ranked[:, 1:] > ranked[:, :-1]).all())
        assert distinct == (base == "distinct" or n == 1)
        tol = PERMUTATIVE_RTOL * max(max_abs(M), 1.0)
        for factor, inside in ((None, True), (0.999, True), (1.001, False)):
            moved = M.copy()
            if factor is not None:
                moved[n // 2, n - 1] += factor * tol
            checked = None if factor is None else tol
            argsort_kinds.clear()
            report = is_permutative(moved, checked)
            # the verdict sorts; it does not rank
            assert argsort_kinds == [], base
            assert report.permutative == (inside or n == 1), (base, factor)
            witness = report.row_permutations
            if report.permutative:
                # the first read ranks once, stably
                assert argsort_kinds == ["stable"], base
            else:
                assert witness is None and argsort_kinds == []
            assert report.row_permutations is witness
            assert len(argsort_kinds) == (1 if report.permutative else 0)
            assert report == reference_is_permutative(moved, checked), (base, factor)
            _assert_same_report(moved, checked)
            if factor is None:
                for i, perm in enumerate(witness):
                    assert np.array_equal(M[i], M[0][list(perm)])


@pytest.mark.parametrize("n", [2, 7, 64])
def test_witness_ignores_changes_to_the_matrix_after_the_call(n):
    rng = np.random.default_rng(40 + n)
    for draw in _BASES.values():
        row = draw(rng, n)
        M = np.array([rng.permutation(row) for _ in range(n)])
        want = reference_is_permutative(M.copy())
        read_late = is_permutative(M)
        read_early = is_permutative(M)
        assert read_early.row_permutations == want.row_permutations
        M[0] = M[0][::-1].copy()
        M[n // 2, 0] += 1.0
        M[:, -1] = np.nan
        assert read_late.row_permutations == want.row_permutations
        assert read_early == read_late == want


def test_eager_and_deferred_reports_agree():
    M = np.array([[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]])
    rows = ((0, 1, 2), (2, 0, 1), (1, 2, 0))
    eager = PermutativityReport(True, rows)
    assert is_permutative(M) == eager
    assert eager == is_permutative(M)
    assert hash(is_permutative(M)) == hash(eager)
    assert repr(is_permutative(M)) == repr(eager) == (
        "PermutativityReport(permutative=True, "
        "row_permutations=((0, 1, 2), (2, 0, 1), (1, 2, 0)))"
    )
    assert is_permutative(M) != PermutativityReport(True, rows[::-1])
    assert is_permutative(M) != PermutativityReport(False, None)
    assert is_permutative(M) != (True, rows)
    refused = is_permutative([[1.0, 2.0], [3.0, 4.0]])
    assert refused == PermutativityReport(False, None)
    assert repr(refused) == "PermutativityReport(permutative=False, row_permutations=None)"
    assert bool(is_permutative(M)) and not refused
    assert PermutativityReport(permutative=True, row_permutations=rows) == eager
    for report in (is_permutative(M), eager):
        for name in ("permutative", "row_permutations"):
            with pytest.raises(FrozenInstanceError):
                setattr(report, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(report, name)
        assert report.row_permutations == rows


def _reference_skew_circulant(row):
    """The masked negation that one product with the sign table replaced."""
    row = np.asarray(row, dtype=float)
    n = row.size
    out = row[np.arange(n)[None, :] - np.arange(n)[:, None]]
    lower = np.tril(np.ones((n, n), dtype=bool), k=-1)
    out[lower] = -out[lower]
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_skew_circulant_is_the_masked_negation_bit_for_bit(n):
    rng = np.random.default_rng(60 + n)
    rows = [
        rng.normal(size=n),
        rng.integers(-2, 3, size=n).astype(float),
        # signed zeros: -0.0 negates to 0.0 below the diagonal and back
        rng.choice([0.0, -0.0, 1.5, -2.5], size=n),
        np.full(n, -0.0),
        rng.normal(size=n) * 10.0 ** rng.uniform(-300, 300, size=n),
    ]
    for row in rows:
        got, want = skew_circulant(row), _reference_skew_circulant(row)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_order_tables_are_read_only_and_bit_equal_to_fresh_ones():
    for n in range(1, 17):
        i, j = np.arange(n)[:, None], np.arange(n)[None, :]
        fresh = {
            structured._shift_table: (j - i) % n,
            structured._skew_signs: np.where(np.tril(np.ones((n, n), dtype=bool), k=-1), -1.0, 1.0),
        }
        for table, want in fresh.items():
            table.cache_clear()
            got = table(n)
            assert table(n) is got
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0


def test_dense_matrices_equal_on_cold_and_warm_caches():
    rng = np.random.default_rng(61)
    rows = [rng.normal(size=n) for n in range(1, 10)]
    makers = (circulant, skew_circulant)
    cold = []
    for row in rows:
        structured._shift_table.cache_clear()
        structured._skew_signs.cache_clear()
        cold.append([make(row).tobytes() for make in makers])
    warm = [[make(row).tobytes() for make in makers] for row in rows]
    assert warm == cold
