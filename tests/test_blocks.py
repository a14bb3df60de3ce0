from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import fixtures as fx
from niepkit import blocks
from niepkit._util import ROUNDOFF_RTOL, slack
from niepkit.blocks import (
    BlockBuildSpec,
    build_circ_skew,
    build_even,
    build_odd,
    split_spectrum_even,
    split_spectrum_odd,
)
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.errors import MajorizationError, RealizabilityError, StructureError
from niepkit.oracle import match_spectra, spectrum
from niepkit.structured import circulant, is_permutative, skew_circulant


#: g = sign * gamma over {1, 0.5, 0, -0.5, -1}, with g = -0.0 too.
_SIGNED_GAMMAS = [
    BlockBuildSpec(gamma=gamma, sign=sign)
    for gamma in (1.0, 0.5, 0.0)
    for sign in (1, -1)
]
#: Row entries that stress the identity: signed zeros, extreme magnitudes.
_EDGE_ENTRIES = [0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.0, -1.0]


@st.composite
def _dominated_rows(draw):
    """Rows ``s`` and ``c`` of one order n = 1..32 with ``|c| <= s``:
    ``c`` from uniform and edge entries, ``s = |c| + u`` with ``u`` from
    the same, and ``s = -0.0`` wherever ``c`` and ``u`` are zero."""
    n = draw(st.integers(1, 32))
    entry = st.one_of(st.sampled_from(_EDGE_ENTRIES), st.floats(-4.0, 4.0))
    c = np.array(draw(st.lists(entry, min_size=n, max_size=n)))
    u = np.abs(draw(st.lists(entry, min_size=n, max_size=n)))
    s = np.abs(c) + u
    s[(c == 0) & (u == 0) & draw(st.booleans())] = -0.0
    return s, c


def random_majorized_pair(rng, n):
    C = rng.uniform(-1.0, 1.0, size=(n, n))
    S = np.abs(C) + rng.uniform(0.0, 1.0, size=(n, n))
    return S, C


def assert_union_spectrum(M, S, C, g, tol=1e-7):
    expected = np.concatenate([spectrum(S), g * spectrum(C)])
    report = match_spectra(spectrum(M), expected, tol)
    assert report.matched, f"max pair distance {report.max_pair_distance}"


def _asymmetric_seven():
    A = fx.SEVEN_MATRIX.copy()
    A[1, 1] += 1.0  # block (0, 0) is no longer [[a, b], [b, a]]
    return A


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: split_spectrum_odd(np.eye(4)),
            StructureError,
            "matrix order must be odd and >= 3",
        ),
        (
            lambda: split_spectrum_odd(_asymmetric_seven()),
            StructureError,
            r"2x2 blocks are not symmetric \[\[a, b\], \[b, a\]\]",
        ),
        (
            lambda: build_even(np.eye(2), np.eye(3)),
            ValueError,
            r"S and C must have equal shape, got \(2, 2\) vs \(3, 3\)",
        ),
        (lambda: build_circ_skew([1.0, 2.0], [0.0]), ValueError, "rows must have equal length"),
        (
            lambda: build_odd(np.eye(3), [0.0, 0.0, 0.0]),
            ValueError,
            r"S must have order 4, got \(3, 3\)",
        ),
        (
            lambda: build_odd(
                circulant(fx.SEVEN_S_ROW),
                fx.SEVEN_C_ROW,
                BlockBuildSpec(last_row_split=((5, 1), (2, 1))),
            ),
            ValueError,
            r"last_row_split must be 3 pairs, got shape \(2, 2\)",
        ),
    ],
    ids=[
        "split_odd_even_order",
        "split_odd_asymmetric_blocks",
        "build_even_shapes",
        "build_circ_skew_lengths",
        "build_odd_order",
        "build_odd_split_shape",
    ],
)
def test_malformed_input_is_rejected(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestSplitEven:
    def test_eight_fixture(self):
        S, C = split_spectrum_even(fx.EIGHT_MATRIX)
        assert np.array_equal(S, circulant(fx.EIGHT_S_ROW))
        assert np.array_equal(C, skew_circulant(fx.EIGHT_C_ROW))

    def test_identity(self):
        S, C = split_spectrum_even(np.eye(4))
        assert np.array_equal(S, np.eye(2))
        assert np.array_equal(C, np.eye(2))

    def test_random_blocks_split_spectrum(self):
        rng = np.random.default_rng(3)
        n = 3
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        A = np.empty((2 * n, 2 * n))
        A[0::2, 0::2] = a
        A[1::2, 1::2] = a
        A[0::2, 1::2] = b
        A[1::2, 0::2] = b
        S, C = split_spectrum_even(A)
        expected = np.concatenate([spectrum(S), spectrum(C)])
        assert match_spectra(spectrum(A), expected, 1e-7).matched

    def test_structure_violation(self):
        A = np.eye(4)
        A[0, 1] = 1.0  # breaks the [[a, b], [b, a]] pattern
        with pytest.raises(StructureError):
            split_spectrum_even(A)
        with pytest.raises(StructureError):
            split_spectrum_even(np.eye(3))


class TestSplitOdd:
    def test_seven_fixture(self):
        S, C = split_spectrum_odd(fx.SEVEN_MATRIX)
        assert np.array_equal(S, circulant(fx.SEVEN_S_ROW))
        assert np.array_equal(C, skew_circulant(fx.SEVEN_C_ROW))

    def test_identity_three(self):
        S, C = split_spectrum_odd(np.eye(3))
        assert np.array_equal(S, np.eye(2))
        assert np.array_equal(C, np.array([[1.0]]))

    def test_random_bordered_split_spectrum(self):
        rng = np.random.default_rng(4)
        n = 2
        A = np.empty((2 * n + 1, 2 * n + 1))
        a = rng.normal(size=(n, n))
        b = rng.normal(size=(n, n))
        A[: 2 * n : 2, : 2 * n : 2] = a
        A[1 : 2 * n : 2, 1 : 2 * n : 2] = a
        A[: 2 * n : 2, 1 : 2 * n : 2] = b
        A[1 : 2 * n : 2, : 2 * n : 2] = b
        col = rng.normal(size=n)
        A[0 : 2 * n : 2, 2 * n] = col
        A[1 : 2 * n : 2, 2 * n] = col
        A[2 * n, :] = rng.normal(size=2 * n + 1)
        S, C = split_spectrum_odd(A)
        expected = np.concatenate([spectrum(S), spectrum(C)])
        assert match_spectra(spectrum(A), expected, 1e-7).matched

    def test_duplication_violation(self):
        A = fx.SEVEN_MATRIX.copy()
        A[0, 6] += 1.0
        with pytest.raises(StructureError):
            split_spectrum_odd(A)


_BODY = r"^2x2 blocks are not symmetric \[\[a, b\], \[b, a\]\]$"
_COLUMN = "^last column entries are not duplicated per block row$"


@pytest.mark.parametrize(
    "matrix, entry, message",
    [
        (fx.EIGHT_MATRIX, (1, 1), _BODY),
        (fx.EIGHT_MATRIX, (3, 0), _BODY),
        (fx.SEVEN_MATRIX, (1, 1), _BODY),
        (fx.SEVEN_MATRIX, (1, 6), _COLUMN),
    ],
    ids=["even-a", "even-b", "odd-a", "odd-last-column"],
)
def test_splits_judge_mirrored_entries_within_roundoff(matrix, entry, message):
    # the oracle tests the same entries for exact equality instead
    split = split_spectrum_odd if matrix.shape[0] % 2 else split_spectrum_even
    tol = 1e-12 * np.abs(matrix).max()
    near = matrix.copy()
    near[entry] += 0.5 * tol
    for got, want in zip(split(near), split(matrix)):
        assert np.array_equal(got, want)
    far = matrix.copy()
    far[entry] += 2.0 * tol
    with pytest.raises(StructureError, match=message):
        split(far)


class TestBuildEven:
    def test_reproduces_eight_fixture(self):
        S = circulant(fx.EIGHT_S_ROW)
        C = skew_circulant(fx.EIGHT_C_ROW)
        M = build_even(S, C, BlockBuildSpec(gamma=1.0, sign=1))
        assert np.array_equal(M, fx.EIGHT_MATRIX)

    def test_gamma_zero_flattens_blocks(self):
        S, C = random_majorized_pair(np.random.default_rng(5), 3)
        M = build_even(S, C, BlockBuildSpec(gamma=0.0))
        for i in range(3):
            for j in range(3):
                block = M[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert np.allclose(block, S[i, j] / 2.0)
        expected = np.concatenate([spectrum(S), np.zeros(3)])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    @pytest.mark.parametrize("gamma,sign", [(0.5, 1), (0.5, -1), (1.0, -1)])
    def test_random_union_spectrum(self, gamma, sign):
        rng = np.random.default_rng(6)
        S, C = random_majorized_pair(rng, 3)
        M = build_even(S, C, BlockBuildSpec(gamma=gamma, sign=sign))
        assert M.min() >= 0.0
        assert_union_spectrum(M, S, C, sign * gamma)

    def test_majorization_error_lists_positions(self):
        S = np.ones((2, 2))
        C = np.ones((2, 2))
        C[1, 0] = 2.0
        with pytest.raises(MajorizationError) as err:
            build_even(S, C)
        assert (1, 0) in err.value.positions

    def test_block_row_sums_reconstruct_s(self):
        rng = np.random.default_rng(7)
        S, C = random_majorized_pair(rng, 4)
        M = build_even(S, C, BlockBuildSpec(gamma=0.75))
        sums = M[0::2, 0::2] + M[0::2, 1::2]
        assert np.allclose(sums, S, atol=1e-12)
        assert np.allclose(M[1::2, 0::2] + M[1::2, 1::2], S, atol=1e-12)

    def test_split_then_build_is_identity_on_dyadic_blocks(self):
        # nonnegative dyadic block entries keep every step exact in floats
        rng = np.random.default_rng(8)
        a = rng.integers(0, 40, size=(3, 3)) / 8.0
        b = rng.integers(0, 40, size=(3, 3)) / 8.0
        A = np.empty((6, 6))
        A[0::2, 0::2] = a
        A[1::2, 1::2] = a
        A[0::2, 1::2] = b
        A[1::2, 0::2] = b
        S, C = split_spectrum_even(A)
        assert np.array_equal(build_even(S, C, BlockBuildSpec(gamma=1.0, sign=1)), A)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            BlockBuildSpec(gamma=1.5)
        with pytest.raises(ValueError):
            BlockBuildSpec(sign=0)


class TestBuildCircSkew:
    def test_reproduces_eight_fixture_and_permutative(self):
        M = build_circ_skew(fx.EIGHT_S_ROW, fx.EIGHT_C_ROW)
        assert np.array_equal(M, fx.EIGHT_MATRIX)
        assert is_permutative(M).permutative

    def test_zero_skew_row(self):
        M = build_circ_skew([2.0, 4.0], [0.0, 0.0])
        assert np.allclose(M[0:2, 0:2], 1.0)
        assert np.allclose(M[0:2, 2:4], 2.0)

    @seed(11)
    @settings(max_examples=300, deadline=None)
    @given(rows=_dominated_rows(), spec=st.sampled_from(_SIGNED_GAMMAS))
    def test_matches_materialized_build_even(self, rows, spec):
        """The even build is the order-2n circulant of
        f = ((s + g*c)/2, (s - g*c)/2), rows and columns 2i and 2i+1 read
        from i and n+i: bit for bit once both pass the builders' final clip
        (which may turn a -0.0 into 0.0)."""
        s, c = rows
        n = s.size
        M = build_circ_skew(s, c, spec)
        assert M.tobytes() == build_even(circulant(s), skew_circulant(c), spec).tobytes()
        g = spec.signed_gamma
        f = np.concatenate([(s + g * c) / 2.0, (s - g * c) / 2.0])
        interleave = np.arange(2 * n).reshape(2, n).T.ravel()
        F = circulant(f)[np.ix_(interleave, interleave)]
        assert M.tobytes() == np.clip(F, 0.0, None).tobytes()

    def test_spectrum_from_rows(self):
        rng = np.random.default_rng(10)
        c = rng.uniform(-1, 1, size=4)
        s = np.abs(c) + rng.uniform(0, 1, size=4)
        gamma = 0.5
        M = build_circ_skew(s, c, BlockBuildSpec(gamma=gamma))
        expected = np.concatenate(
            [circulant_eigenvalues(s), gamma * skew_eigenvalues(c)]
        )
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_permutative_for_random_valid_rows(self):
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            c = rng.uniform(-1, 1, size=n)
            s = np.abs(c) + rng.uniform(0, 1, size=n)
            assert is_permutative(build_circ_skew(s, c)).permutative

    def test_boundary_majorization_gives_exact_zeros(self):
        M = build_circ_skew([1.0, 2.0], [-1.0, 2.0])
        assert M.min() == 0.0

    def test_row_majorization_error(self):
        with pytest.raises(MajorizationError):
            build_circ_skew([1.0, 1.0], [0.5, 1.5])


class TestBuildOdd:
    def test_reproduces_seven_fixture(self):
        spec = BlockBuildSpec(gamma=1.0, sign=1, last_row_split=fx.SEVEN_SPLIT)
        M = build_odd(circulant(fx.SEVEN_S_ROW), fx.SEVEN_C_ROW, spec)
        assert np.array_equal(M, fx.SEVEN_MATRIX)

    def test_default_split_keeps_spectrum(self):
        M = build_odd(circulant(fx.SEVEN_S_ROW), fx.SEVEN_C_ROW)
        assert M[6, 0] == 3.0  # halves of the last row of S
        assert M[6, 2] == 1.5
        assert match_spectra(spectrum(M), fx.SEVEN_SPECTRUM, 1e-8).matched

    def test_zero_skew_row(self):
        S = circulant([3.0, 1.0, 2.0])
        M = build_odd(S, [0.0, 0.0])
        expected = np.concatenate([spectrum(S), np.zeros(2)])
        assert match_spectra(spectrum(M), expected, 1e-7).matched

    def test_split_invariance_of_spectrum(self):
        rng = np.random.default_rng(12)
        S = circulant(fx.SEVEN_S_ROW)
        base = spectrum(build_odd(S, fx.SEVEN_C_ROW))
        for _ in range(5):
            frac = rng.uniform(0, 1, size=3)
            left = frac * S[3, :3]
            split = tuple(zip(left, S[3, :3] - left))
            M = build_odd(S, fx.SEVEN_C_ROW, BlockBuildSpec(last_row_split=split))
            assert match_spectra(spectrum(M), base, 1e-7).matched

    def test_invalid_split(self):
        S = circulant(fx.SEVEN_S_ROW)
        with pytest.raises(ValueError):
            build_odd(S, fx.SEVEN_C_ROW, BlockBuildSpec(last_row_split=((-1, 7), (3, 0), (1, 0))))
        with pytest.raises(ValueError):
            build_odd(S, fx.SEVEN_C_ROW, BlockBuildSpec(last_row_split=((1, 1), (3, 0), (1, 0))))

    @pytest.mark.parametrize("scale", [1.0, 1e-9, 2.0**-60])
    def test_split_judged_at_the_scale_of_its_operands(self, scale):
        # a left part of -1e-13 times the last row is roundoff and clipped;
        # -1e-10 times it is refused at every scale, with no floor of 1
        S = scale * circulant(fx.SEVEN_S_ROW)
        c_row = scale * np.asarray(fx.SEVEN_C_ROW)
        last = S[3, :3]
        spec = BlockBuildSpec(last_row_split=tuple(zip(-1e-13 * last, (1 + 1e-13) * last)))
        assert not build_odd(S, c_row, spec)[6, 0:6:2].any()
        spec = BlockBuildSpec(last_row_split=tuple(zip(-1e-10 * last, (1 + 1e-10) * last)))
        with pytest.raises(ValueError, match="last_row_split parts must be nonnegative"):
            build_odd(S, c_row, spec)

    @pytest.mark.parametrize("part", [np.nan, np.inf])
    def test_nonfinite_split(self, part):
        # NaN fails both ``< -tol`` and ``> tol``: only a finiteness test sees it
        spec = BlockBuildSpec(last_row_split=((part, 6), (3, 0), (1, 0)))
        with pytest.raises(ValueError, match="last_row_split parts must be finite"):
            build_odd(circulant([5, 6, 3, 1]), [4, -2, 1], spec)

    @pytest.mark.parametrize("container", [tuple, list, np.array])
    @pytest.mark.parametrize(
        "split, message",
        [
            (((5, 1), (2, 1)), r"last_row_split must be 3 pairs, got shape \(2, 2\)"),
            (
                ((5, 1, 0), (2, 1, 0), (1, 0, 0)),
                r"last_row_split must be 3 pairs, got shape \(3, 3\)",
            ),
            (((np.nan, 6), (3, 0), (1, 0)), "last_row_split parts must be finite"),
            (((6, -np.inf), (3, 0), (1, 0)), "last_row_split parts must be finite"),
            (((-1, 7), (3, 0), (1, 0)), "last_row_split parts must be nonnegative"),
            (((1, 1), (3, 0), (1, 0)), "last_row_split pairs must sum to the last row of S"),
        ],
        ids=["pairs", "triples", "nan", "inf", "negative", "sums"],
    )
    def test_bad_split_is_refused_whatever_holds_it(self, container, split, message):
        spec = BlockBuildSpec(last_row_split=container([container(pair) for pair in split]))
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_odd(circulant(fx.SEVEN_S_ROW), fx.SEVEN_C_ROW, spec)

    @pytest.mark.parametrize("container", [tuple, list])
    @pytest.mark.parametrize(
        "split", [((1, 1), (0.5,)), (("x", 1), (1, 1))], ids=["ragged", "string"]
    )
    def test_split_that_is_not_pairs_of_numbers_is_refused(self, container, split):
        # numpy's own text ("setting an array element with a sequence",
        # "could not convert string to float") does not escape
        spec = BlockBuildSpec(last_row_split=container(map(container, split)))
        with pytest.raises(ValueError, match="^last_row_split must be 2 pairs of numbers$"):
            build_odd(circulant([3, 1, 1]), [0.5, 0.5], spec)

    def test_split_builds_the_same_bytes_whatever_holds_it(self):
        S = circulant(fx.SEVEN_S_ROW)
        want = build_odd(S, fx.SEVEN_C_ROW, BlockBuildSpec(last_row_split=fx.SEVEN_SPLIT))
        for split in (list(map(list, fx.SEVEN_SPLIT)), np.array(fx.SEVEN_SPLIT, dtype=float)):
            got = build_odd(S, fx.SEVEN_C_ROW, BlockBuildSpec(last_row_split=split))
            assert got.tobytes() == want.tobytes()

    def test_interior_majorization_error(self):
        S = circulant([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(MajorizationError):
            build_odd(S, [2.0, 0.0, 0.0])

    def test_union_spectrum_random(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            n = int(rng.integers(1, 5))
            c = rng.uniform(-1, 1, size=n)
            S = np.abs(c).max() + rng.uniform(0, 1, size=(n + 1, n + 1))
            g = rng.choice([-1.0, 1.0]) * rng.uniform(0, 1)
            spec = BlockBuildSpec(gamma=abs(g), sign=int(np.sign(g)) or 1)
            M = build_odd(S, c, spec)
            expected = np.concatenate([spectrum(S), g * skew_eigenvalues(c)])
            assert match_spectra(spectrum(M), expected, 1e-7).matched


def _even_fifteen():
    S, C = np.ones((4, 4)), np.full((4, 4), -2.0)
    C[0, 1] = 0.5
    return build_even, (S, C)


@pytest.mark.parametrize(
    "case, message, positions, kind",
    [
        (
            lambda: (build_even, (np.ones((2, 2)), np.array([[1.0, 1.0], [2.0, 1.0]]))),
            "|c_ij| <= s_ij fails at (1, 0)",
            [(1, 0)],
            np.intp,
        ),
        (
            _even_fifteen,
            "|c_ij| <= s_ij fails at (0, 0), (0, 2), (0, 3), (1, 0), (1, 1), "
            "(1, 2), (1, 3), (2, 0) and 7 more",
            [(0, 0), (0, 2), (0, 3)] + [(i, j) for i in (1, 2, 3) for j in range(4)],
            np.intp,
        ),
        (
            lambda: (build_odd, (np.ones((3, 3)), [0.5, 1.5])),
            "|c_ij| <= s_ij fails at (0, 1), (1, 0)",
            [(0, 1), (1, 0)],
            np.intp,
        ),
        (
            lambda: (build_odd, (np.ones((4, 4)), [2.0, 0.5, -3.0])),
            "|c_ij| <= s_ij fails at (0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)",
            [(0, 0), (0, 2), (1, 0), (1, 1), (2, 1), (2, 2)],
            np.intp,
        ),
        (
            lambda: (build_odd, (np.ones((5, 5)), [3.0, -3.0, 3.0, -3.0])),
            "|c_ij| <= s_ij fails at (0, 0), (0, 1), (0, 2), (0, 3), (1, 0), "
            "(1, 1), (1, 2), (1, 3) and 8 more",
            [(i, j) for i in range(4) for j in range(4)],
            np.intp,
        ),
        (
            lambda: (build_circ_skew, ([1.0, 1.0, 1.0], [0.5, -1.5, 2.0])),
            "|c_k| <= s_k fails at k = 1, 2",
            [(0, 1), (0, 2)],
            int,
        ),
        (
            # every violation is listed, with no "and N more"
            lambda: (build_circ_skew, (np.ones(12), np.r_[0.5, np.full(10, -2.0), 1.0])),
            "|c_k| <= s_k fails at k = 1, 2, 3, 4, 5, 6, 7, 8, 9, 10",
            [(0, k) for k in range(1, 11)],
            int,
        ),
    ],
)
def test_majorization_error_message_and_positions(case, message, positions, kind):
    build, args = case()
    with pytest.raises(MajorizationError) as err:
        build(*args)
    assert str(err.value) == message
    assert err.value.positions == tuple(positions)
    assert {type(v) for p in err.value.positions for v in p} == {kind}
    assert all(type(p) is tuple for p in err.value.positions)


def _reference_finalize(M):
    """``_finalize_nonnegative`` as it read when it rescanned ``|M|`` for its
    slack: a copy of that code."""
    tol = slack(ROUNDOFF_RTOL, M)
    worst = float(M.min()) if M.size else 0.0
    if worst < -tol:
        raise RealizabilityError(
            f"construction produced a negative entry {worst:.3e} "
            f"(beyond roundoff tolerance {tol:.3e})"
        )
    np.clip(M, 0.0, None, out=M)
    return M


def _finalized(finalize, M):
    """The bytes ``finalize`` leaves in a copy of ``M``, or its error text."""
    try:
        return finalize(M.copy()).tobytes()
    except RealizabilityError as exc:
        return str(exc)


#: Entries for the clamp: signed zeros, subnormals, 2**+-60 and ordinary values.
_CLAMP_ENTRIES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1060, 2.0**60, -(2.0**60), 2.0**-60, 1.0, -1.0]


@st.composite
def _clamp_matrices(draw):
    """A square matrix of order 1..6 at a scale of 2**-60, 1 or 2**60: mixed
    signs, all negative, all signed zeros or subnormal; or nonnegative with one
    entry planted on minus the matrix's slack, up to two ulps either side."""
    k = draw(st.integers(1, 6))
    entry = st.one_of(st.sampled_from(_CLAMP_ENTRIES), st.floats(-4.0, 4.0))
    M = np.array(draw(st.lists(entry, min_size=k * k, max_size=k * k))).reshape(k, k)
    kind = draw(st.sampled_from(["mixed", "negative", "zeros", "subnormal", "edge"]))
    if kind == "negative":
        M = -np.abs(M) - 2.0**-1074
    elif kind == "zeros":
        M = np.where(M < 0, -0.0, 0.0)
    elif kind == "subnormal":
        M = np.where(M < 0, -1.0, 1.0) * 2.0**-1074 * draw(st.integers(0, 7))
    elif kind == "edge":
        M = np.abs(M)
        M.flat[draw(st.integers(0, k * k - 1))] = 0.0
    M = M * draw(st.sampled_from([2.0**-60, 1.0, 2.0**60]))
    if kind == "edge":
        pos = np.unravel_index(np.argmin(M), M.shape)
        edge = -slack(ROUNDOFF_RTOL, M)
        for _ in range(draw(st.integers(0, 2))):
            edge = np.nextafter(edge, np.inf if draw(st.booleans()) else -np.inf)
        M[pos] = edge
    return M


@settings(max_examples=400, deadline=None)
@given(M=_clamp_matrices())
def test_clamp_reads_the_slack_of_the_matrix_bit_for_bit(M):
    # max(max M, -min M) is max|M|: the same verdict, bytes and error text
    assert _finalized(blocks._finalize_nonnegative, M) == _finalized(_reference_finalize, M)


def test_clamp_refuses_one_ulp_past_the_slack():
    for scale in (2.0**-60, 1.0, 2.0**60):
        M = scale * np.array([[3.0, 1.0], [0.0, 2.0]])
        edge = -slack(ROUNDOFF_RTOL, M)
        M[1, 0] = edge
        clamped = blocks._finalize_nonnegative(M.copy())
        assert clamped[1, 0] == 0.0 and not np.signbit(clamped).any()
        M[1, 0] = np.nextafter(edge, -np.inf)
        with pytest.raises(RealizabilityError, match="^construction produced a negative entry"):
            blocks._finalize_nonnegative(M.copy())


@st.composite
def _bordered_edges(draw):
    """``S`` of order n + 1 (n = 1..7) and a skew row ``c`` at a scale of
    2**-60, 1 or 2**60, with signed zeros and subnormals among the entries
    of ``c``, and at times one entry 1e6 times the scale, so that ``c``
    sets the slack; one other ``|c_k|`` sits on the slack above the least
    body entry of ``S`` that the skew circulant meets it with, up to two
    ulps either side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 7))
    scale = draw(st.sampled_from([2.0**-60, 1.0, 2.0**60]))
    S = scale * rng.uniform(0.5, 2.0, size=(n + 1, n + 1))
    c = scale * rng.uniform(-0.5, 0.5, size=n)
    c[rng.uniform(size=n) < 0.2] = draw(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))
    k = draw(st.integers(0, n - 1))
    if n > 1 and draw(st.booleans()):
        c[(k + 1) % n] = 1e6 * scale
    i = np.arange(n)
    met = S[i, (i + k) % n].min()
    edge = met + slack(ROUNDOFF_RTOL, S[:n, :n], c)
    for _ in range(draw(st.integers(0, 2))):
        edge = np.nextafter(edge, np.inf if draw(st.booleans()) else 0.0)
    c[k] = draw(st.sampled_from([-1.0, 1.0])) * edge
    return S, c


@settings(max_examples=400, deadline=None)
@given(rows=_bordered_edges())
def test_bordered_majorization_reads_the_skew_row_for_its_circulant(rows):
    # the skew circulant's entries are c's up to sign: the same slack, bit
    # for bit, and the same refusals as the dense judgement of S and C
    S, c = rows
    n = c.size
    C = skew_circulant(c)
    body = S[:n, :n]
    want = slack(ROUNDOFF_RTOL, body, C)
    assert np.float64(slack(ROUNDOFF_RTOL, body, c)).tobytes() == np.float64(want).tobytes()
    judge = blocks._violations
    bad = [tuple(p) for p in np.argwhere(judge(body, C))]
    slacks = []

    def spy(S, C, tol):
        slacks.append(tol)
        return judge(S, C, tol)

    spec = BlockBuildSpec(gamma=0.0)  # an unsigned body: only majorization can refuse
    with mock.patch.object(blocks, "_violations", spy):
        if bad:
            with pytest.raises(MajorizationError) as err:
                build_odd(S, c, spec)
            assert err.value.positions == tuple(bad)
        else:
            build_odd(S, c, spec)
    assert [np.float64(t).tobytes() for t in slacks] == [np.float64(want).tobytes()]
