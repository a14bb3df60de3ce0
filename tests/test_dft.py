import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from niepkit import dft
from niepkit.dft import (
    _recover_rows,
    _skew_twiddle,
    _unit_powers,
    circulant_eigenvalues,
    circulant_row_from_spectrum,
    dft_matrix,
    skew_dft_matrix,
    skew_eigenvalues,
    skew_row_from_spectrum,
)
from niepkit.errors import PairingError
from niepkit.structured import circulant, skew_circulant


def flip_with_leading_one(n, signed=False):
    """The orthogonal matrix with 1 at (0, 0) and a (negated) reversal block."""
    out = np.zeros((n, n))
    out[0, 0] = 1.0
    if n > 1:
        block = np.fliplr(np.eye(n - 1))
        out[1:, 1:] = -block if signed else block
    return out


class TestMatrices:
    def test_dft_order_one(self):
        assert np.array_equal(dft_matrix(1), np.array([[1.0 + 0j]]))

    def test_dft_order_two(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        np.testing.assert_allclose(dft_matrix(2), expected, atol=1e-15)

    def test_dft_squared_is_flip(self):
        F = dft_matrix(4)
        np.testing.assert_allclose(F @ F, flip_with_leading_one(4), atol=1e-12)

    def test_skew_dft_order_one(self):
        assert np.array_equal(skew_dft_matrix(1), np.array([[1.0 + 0j]]))

    def test_skew_dft_signed_flip_identity(self):
        G = skew_dft_matrix(2)
        np.testing.assert_allclose(G @ G.T, np.diag([1.0, -1.0]), atol=1e-12)

    def test_skew_dft_unitary_order_three(self):
        G = skew_dft_matrix(3)
        np.testing.assert_allclose(G @ G.conj().T, np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 65, 7))
    def test_unitarity(self, n):
        for M in (dft_matrix(n), skew_dft_matrix(n)):
            assert np.max(np.abs(M @ M.conj().T - np.eye(n))) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 17))
    def test_flip_identities(self, n):
        F, G = dft_matrix(n), skew_dft_matrix(n)
        assert np.max(np.abs(F @ F - flip_with_leading_one(n))) <= 1e-12
        assert np.max(np.abs(G @ G.T - flip_with_leading_one(n, signed=True))) <= 1e-12

    def test_root_of_unity(self):
        # omega = w and iota = w**(1/2) as the root table gives them
        for n in range(1, 129):
            omega, iota = _unit_powers(2, n), _unit_powers(1, n)
            assert abs(omega**n - 1) <= 1e-14
            assert abs(iota**2 - omega) <= 1e-14
        for build in (dft_matrix, skew_dft_matrix):
            with pytest.raises(ValueError):
                build(0)


class TestForwardMaps:
    def test_circulant_fixture_2402(self):
        np.testing.assert_allclose(
            circulant_eigenvalues([2, 4, 0, 2]), [8, 2 + 2j, -4, 2 - 2j], atol=1e-12
        )

    def test_circulant_fixture_5631(self):
        np.testing.assert_allclose(
            circulant_eigenvalues([5, 6, 3, 1]), [15, 2 + 5j, 1, 2 - 5j], atol=1e-12
        )

    def test_circulant_scalar_row(self):
        np.testing.assert_allclose(
            circulant_eigenvalues([7, 0, 0]), [7, 7, 7], atol=1e-12
        )

    def test_skew_fixture_421(self):
        root3 = np.sqrt(3)
        np.testing.assert_allclose(
            skew_eigenvalues([4, -2, 1]),
            [(5 - 1j * root3) / 2, 7, (5 + 1j * root3) / 2],
            atol=1e-12,
        )

    def test_skew_fixture_m1101(self):
        root2 = np.sqrt(2)
        np.testing.assert_allclose(
            skew_eigenvalues([-1, 1, 0, 1]),
            [-1 + 1j * root2, -1 + 1j * root2, -1 - 1j * root2, -1 - 1j * root2],
            atol=1e-12,
        )

    def test_skew_scalar_row(self):
        np.testing.assert_allclose(skew_eigenvalues([3, 0]), [3, 3], atol=1e-12)

    def test_head_is_row_sum_and_pairing(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 8, 17):
            s = rng.normal(size=n)
            lam = circulant_eigenvalues(s)
            tol = 1e-12 * np.sum(np.abs(s))
            assert abs(lam[0] - s.sum()) <= tol
            for k in range(1, n):
                assert abs(lam[n - k] - lam[k].conjugate()) <= tol
            mu = skew_eigenvalues(s)
            for k in range(n):
                assert abs(mu[n - 1 - k] - mu[k].conjugate()) <= tol


class TestInverseMaps:
    def test_circulant_row_fixtures(self):
        np.testing.assert_allclose(
            circulant_row_from_spectrum([8, 2 + 2j, -4, 2 - 2j]), [2, 4, 0, 2], atol=1e-12
        )
        np.testing.assert_allclose(
            circulant_row_from_spectrum([15, 2 + 5j, 1, 2 - 5j]), [5, 6, 3, 1], atol=1e-12
        )

    def test_circulant_constant_spectrum(self):
        np.testing.assert_allclose(
            circulant_row_from_spectrum([4, 4, 4]), [4, 0, 0], atol=1e-12
        )

    def test_skew_row_fixtures(self):
        root3 = np.sqrt(3)
        np.testing.assert_allclose(
            skew_row_from_spectrum([(5 - 1j * root3) / 2, 7, (5 + 1j * root3) / 2]),
            [4, -2, 1],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            skew_row_from_spectrum(skew_eigenvalues([-1, 1, 0, 1])),
            [-1, 1, 0, 1],
            atol=1e-12,
        )

    def test_skew_constant_real_spectrum(self):
        np.testing.assert_allclose(skew_row_from_spectrum([5, 5]), [5, 0], atol=1e-12)

    def test_pairing_violation_raises(self):
        with pytest.raises(PairingError):
            circulant_row_from_spectrum([1, 1j, 2, 3])
        with pytest.raises(PairingError):
            skew_row_from_spectrum([1j, 2, 3])


@settings(max_examples=60, deadline=None)
@given(
    row=st.integers(min_value=1, max_value=32).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            n,
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
)
@example(row=np.full(5, 5e-324))
def test_round_trip_property(row):
    # below the smallest normal float roundoff is absolute, and the
    # relative bound would underflow to 0 on rows of subnormal entries
    tol = max(1e-10 * np.sum(np.abs(row)), np.finfo(float).tiny)
    np.testing.assert_allclose(
        circulant_row_from_spectrum(circulant_eigenvalues(row)), row, atol=tol
    )
    np.testing.assert_allclose(
        skew_row_from_spectrum(skew_eigenvalues(row)), row, atol=tol
    )


def test_diagonalization_identities():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 12):
        s, c = rng.normal(size=n), rng.normal(size=n)
        tol = 1e-10 * max(np.sum(np.abs(s)), np.sum(np.abs(c)))
        F, G = dft_matrix(n), skew_dft_matrix(n)
        S_hat = F @ np.diag(circulant_eigenvalues(s)) @ F.conj().T
        C_hat = G @ np.diag(skew_eigenvalues(c)) @ G.conj().T
        assert np.max(np.abs(circulant(s) - S_hat)) <= tol
        assert np.max(np.abs(skew_circulant(c) - C_hat)) <= tol
        # the spectrum map is the transpose action of G
        np.testing.assert_allclose(
            skew_eigenvalues(c), np.sqrt(n) * (G.T @ c), atol=tol
        )


def reference_unit_powers(numerator, half_turns):
    """One ``exp`` per entry: the root table of ``_unit_powers`` replaced it."""
    reduced = np.mod(numerator, 2 * half_turns)
    return np.exp(1j * np.pi * reduced / half_turns)


def _bits(values):
    return np.asarray(values, dtype=complex).view(np.uint64)


def _numerators(n):
    """The exponent arrays the module passes to ``_unit_powers``."""
    k = np.arange(n)
    p, q = k[:, None], k[None, :]
    return {
        "F and the circulant forward map": 2 * np.outer(k, k),
        "G": p * (2 * q + 1),
        "skew forward map": (2 * p + 1) * q,
        "skew twiddle": -k,
    }


def test_root_table_is_bit_identical_to_one_exp_per_entry():
    for n in range(1, 129):
        for name, numerator in _numerators(n).items():
            got, want = _unit_powers(numerator, n), reference_unit_powers(numerator, n)
            assert got.shape == want.shape
            assert np.array_equal(_bits(got), _bits(want)), (n, name)
        F = reference_unit_powers(_numerators(n)["F and the circulant forward map"], n)
        G = reference_unit_powers(_numerators(n)["G"], n)
        assert np.array_equal(_bits(dft_matrix(n)), _bits(F / np.sqrt(n))), n
        assert np.array_equal(_bits(skew_dft_matrix(n)), _bits(G / np.sqrt(n))), n


def test_skew_twiddle_is_read_only_and_bit_equal_to_a_fresh_table():
    for n in range(1, 17):
        twiddle = _skew_twiddle(n)
        assert _skew_twiddle(n) is twiddle
        fresh = _unit_powers(_numerators(n)["skew twiddle"], n)
        assert np.array_equal(_bits(twiddle), _bits(fresh)), n
        with pytest.raises(ValueError, match="read-only"):
            twiddle[...] = 0


def test_skew_rows_equal_on_cold_and_warm_caches():
    rng = np.random.default_rng(48)
    spectra = [skew_eigenvalues(rng.uniform(-1.0, 1.0, size=n)) for n in range(1, 17)]
    cold = []
    for values in spectra:
        dft._skew_twiddle.cache_clear()
        cold.append(skew_row_from_spectrum(values))
    for values in spectra:
        skew_row_from_spectrum(values)
    misses = dft._skew_twiddle.cache_info().misses
    warm = [skew_row_from_spectrum(values) for values in spectra]
    assert dft._skew_twiddle.cache_info().misses == misses
    for got, want in zip(warm, cold):
        assert got.tobytes() == want.tobytes()


def test_forward_tables_are_read_only_and_bit_equal_on_cold_and_warm_caches():
    rng = np.random.default_rng(14)
    rows = [rng.uniform(-100.0, 100.0, size=n) for n in range(1, 65)]
    maps = {
        "circulant": ("F and the circulant forward map", circulant_eigenvalues),
        "skew": ("skew forward map", skew_eigenvalues),
    }
    for kind, (name, forward) in maps.items():
        cold = []
        for row in rows:
            dft._forward_table.cache_clear()
            cold.append(forward(row))
        for row in rows:
            forward(row)
        misses = dft._forward_table.cache_info().misses
        for row, want in zip(rows, cold):
            n = row.size
            table = dft._forward_table(n, kind)
            assert dft._forward_table(n, kind) is table
            reference = reference_unit_powers(_numerators(n)[name], n)
            assert np.array_equal(_bits(table), _bits(reference)), (kind, n)
            with pytest.raises(ValueError, match="read-only"):
                table[...] = 0
            got = forward(row)
            assert got.tobytes() == want.tobytes(), (kind, n)
            assert np.array_equal(_bits(got), _bits(reference @ row.astype(complex)))
        assert dft._forward_table.cache_info().misses == misses


@settings(max_examples=100, deadline=None)
@given(
    row=st.integers(min_value=1, max_value=128).flatmap(
        lambda n: hnp.arrays(
            np.float64,
            n,
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
)
def test_forward_maps_match_reference_sums(row):
    n = row.size
    numerators = _numerators(n)
    lam = reference_unit_powers(numerators["F and the circulant forward map"], n)
    mu = reference_unit_powers(numerators["skew forward map"], n)
    x = row.astype(complex)
    assert np.array_equal(_bits(circulant_eigenvalues(row)), _bits(lam @ x))
    assert np.array_equal(_bits(skew_eigenvalues(row)), _bits(mu @ x))


def reference_circulant_row(values):
    """Real part of the O(n^2) circulant inverse sum that the FFT replaced."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    k = np.arange(n)
    return (reference_unit_powers(-2 * np.outer(k, k), n) @ values / n).real


def reference_skew_row(values):
    """Real part of the O(n^2) skew inverse sum that the FFT replaced."""
    values = np.asarray(values, dtype=complex)
    n = values.size
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    return (reference_unit_powers(-k * (2 * j + 1), n) @ values / n).real


def reference_recover_rows(spectra, kind):
    """Drop-in for ``_recover_rows`` that recovers row by row through the
    reference sums."""
    recover = reference_circulant_row if kind == "circulant" else reference_skew_row
    return np.array([recover(v) for v in spectra])


_FORWARD = {"circulant": circulant_eigenvalues, "skew": skew_eigenvalues}
_PUBLIC = {"circulant": circulant_row_from_spectrum, "skew": skew_row_from_spectrum}
_REFERENCE = {"circulant": reference_circulant_row, "skew": reference_skew_row}


@settings(max_examples=60, deadline=None)
@given(
    rows=st.tuples(st.integers(1, 40), st.integers(1, 16)).flatmap(
        lambda shape: hnp.arrays(
            np.float64,
            shape,
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    ),
    kind=st.sampled_from(["circulant", "skew"]),
)
def test_batched_recovery_matches_single_rows_and_reference(rows, kind):
    spectra = np.array([_FORWARD[kind](row) for row in rows])
    batch = _recover_rows(spectra, kind)
    assert batch.shape == rows.shape
    for row, spec, got in zip(rows, spectra, batch):
        # bit-identical to the public single-row map, whatever the batch size
        assert np.array_equal(got, _PUBLIC[kind](spec))
        # below the smallest normal float roundoff is absolute, not relative
        tol = max(1e-10 * np.sum(np.abs(row)), np.finfo(float).tiny)
        assert np.max(np.abs(got - _REFERENCE[kind](spec))) <= tol
        assert np.max(np.abs(got - row)) <= tol


@pytest.mark.parametrize("kind", ["circulant", "skew"])
def test_batch_with_one_nonreal_row_raises(kind):
    rng = np.random.default_rng(12)
    spectra = np.array([_FORWARD[kind](rng.normal(size=4)) for _ in range(5)])
    spectra[3] = [1, 1j, 2, 3]
    with pytest.raises(PairingError, match=f"{kind} row recovery"):
        _recover_rows(spectra, kind)
    # the other rows alone are fine
    _recover_rows(np.delete(spectra, 3, axis=0), kind)


@pytest.mark.parametrize("kind", ["circulant", "skew"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_subnormal_rows_count_as_real(kind, n):
    row = np.full(n, 5e-324)
    got = _PUBLIC[kind](_FORWARD[kind](row))
    assert np.max(np.abs(got - row)) <= np.finfo(float).tiny


@pytest.mark.parametrize("kind", ["circulant", "skew"])
def test_realness_is_judged_per_row(kind):
    tiny, large = np.array([3e-12, -1e-12, 2e-12]), np.array([4e6, -2e6, 1e6])
    spectra = np.array([_FORWARD[kind](tiny), _FORWARD[kind](large)])
    rows = _recover_rows(spectra, kind)
    np.testing.assert_allclose(rows[0], tiny, rtol=0, atol=1e-10 * np.sum(tiny))
    np.testing.assert_allclose(rows[1], large, rtol=0, atol=1e-10 * np.sum(large))
    # a tiny row that is not real still fails next to a large real one
    spectra[0] = 1e-12 * np.array([1, 1j, 2])
    with pytest.raises(PairingError):
        _recover_rows(spectra, kind)
