import numpy as np
import pytest

import fixtures as fx
from niepkit.blocks import (
    BlockBuildSpec,
    build_circ_skew,
    build_even,
    build_odd,
    split_spectrum_even,
    split_spectrum_odd,
)
from niepkit.dft import circulant_eigenvalues, skew_eigenvalues
from niepkit.errors import MajorizationError, StructureError
from niepkit.oracle import match_spectra, spectrum
from niepkit.structured import circulant, is_permutative, skew_circulant


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

    def test_matches_materialized_build_even(self):
        rng = np.random.default_rng(9)
        c = rng.uniform(-1, 1, size=4)
        s = np.abs(c) + rng.uniform(0, 1, size=4)
        spec = BlockBuildSpec(gamma=0.5, sign=-1)
        assert np.array_equal(
            build_circ_skew(s, c, spec),
            build_even(circulant(s), skew_circulant(c), spec),
        )

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

    @pytest.mark.parametrize("part", [np.nan, np.inf])
    def test_nonfinite_split(self, part):
        # NaN fails both ``< -tol`` and ``> tol``: only a finiteness test sees it
        spec = BlockBuildSpec(last_row_split=((part, 6), (3, 0), (1, 0)))
        with pytest.raises(ValueError, match="last_row_split parts must be finite"):
            build_odd(circulant([5, 6, 3, 1]), [4, -2, 1], spec)

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
