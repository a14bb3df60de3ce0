import numpy as np
import pytest

from niepkit._util import as_complex_vector


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
