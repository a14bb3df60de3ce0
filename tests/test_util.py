import numpy as np
import pytest

from niepkit import SpectrumPair, circulant_head_bound, match_spectra
from niepkit._util import as_complex_vector, as_float_matrix, as_float_vector
from niepkit.dft import circulant_row_from_spectrum
from niepkit.spectra import enumerate_skew_permutations


@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_complex_vector_rejects_nonfinite_parts(part, bad):
    entries = np.array([1 + 2j, 3.0, 4 - 1j], dtype=complex)
    if part == "real":
        entries[1] = complex(bad, 0.0)
    else:
        entries[1] = complex(3.0, bad)
    with pytest.raises(ValueError, match="^list must have finite entries$"):
        as_complex_vector(entries)
    assert np.array_equal(as_complex_vector(entries[[0, 2]]), [1 + 2j, 4 - 1j])


@pytest.mark.parametrize(
    "coerce, value, message",
    [
        (as_float_vector, ["a", "b"], "vector must be a real 1-D sequence"),
        (as_float_vector, [[1.0, 2.0]], "vector must be a nonempty 1-D sequence"),
        (as_float_vector, [], "vector must be a nonempty 1-D sequence"),
        (as_float_vector, [1.0, np.nan], "vector must have finite entries"),
        (as_complex_vector, [], "list must be a nonempty 1-D sequence"),
        (as_complex_vector, ["x"], "list must be a complex 1-D sequence"),
        (as_complex_vector, [[1, 2], [3]], "list must be a complex 1-D sequence"),
        (as_float_matrix, [["a"]], "matrix must be a real 2-D array"),
        (as_float_matrix, [1.0, 2.0], "matrix must be a nonempty 2-D array"),
        (as_float_matrix, [[]], "matrix must be a nonempty 2-D array"),
        (as_float_matrix, np.ones((2, 3)), r"matrix must be square, got shape \(2, 3\)"),
    ],
    ids=[
        "vector_non_numeric",
        "vector_rank_2",
        "vector_empty",
        "vector_nan",
        "complex_empty",
        "complex_non_numeric",
        "complex_ragged",
        "matrix_non_numeric",
        "matrix_rank_1",
        "matrix_empty",
        "matrix_not_square",
    ],
)
def test_malformed_input_is_rejected(coerce, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        coerce(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: enumerate_skew_permutations([{}]), "list"),
        (lambda: circulant_row_from_spectrum(["x"]), "spectrum"),
        (lambda: circulant_head_bound([[1, 2], [3]]), "spectrum"),
        (lambda: match_spectra([{}], [1.0], 0.0), "x"),
        (lambda: match_spectra([1.0], ["x"], 0.0), "y"),
        (lambda: SpectrumPair(({},), (0.0,)).arrays(), "circulant part"),
        (lambda: SpectrumPair((1.0,), ("x",)).arrays(), "skew part"),
    ],
    ids=[
        "enumerate",
        "row_from_spectrum",
        "head_bound",
        "match_x",
        "match_y",
        "pair_circulant",
        "pair_skew",
    ],
)
def test_uncoercible_lists_name_the_input(call, message):
    # a dict, a non-numeric string or a ragged list, wherever a complex list
    # is read
    with pytest.raises(ValueError, match=f"^{message} must be a complex 1-D sequence$"):
        call()
