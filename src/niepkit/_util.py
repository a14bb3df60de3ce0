"""Input coercion helpers and the package's one tolerance policy.

Each tolerance below is relative: :func:`slack` scales it by the largest
magnitude a comparison reads, or by ``floor`` when that is larger; each
comment names its users, then those magnitudes.  Each inequality has one
judge: ``|c| <= s`` the builders of :mod:`niepkit.blocks` (whose rule the
witness search applies), the 4x4 region :func:`realize_four`'s conditions
(which :func:`region_check` wraps).
"""

import numpy as np

ROUNDOFF_RTOL = 1e-12  # pairing, blocks, 4x4, search: operands (spectra: floor 1)
REALNESS_RTOL = 1e-10  # dft row recovery: each row, at least the smallest normal
PERMUTATIVE_RTOL = 1e-9  # is_permutative: the matrix
VERIFY_RTOL = 1e-7  # CLI oracle check of every build: expected spectrum, floor 1
SWEEP_RTOL = 1e-8  # region-sweep, verify default: expected spectrum, floor 1


def as_float_vector(x, name="vector"):
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real 1-D sequence") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_complex_vector(x, name="list"):
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D sequence")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def as_float_matrix(x, name="matrix"):
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a real 2-D array") from exc
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-D array")
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must have finite entries")
    return arr


def max_abs(arr):
    arr = np.asarray(arr)
    return float(np.abs(arr).max()) if arr.size else 0.0


def slack(rtol, *arrays, floor=0.0):
    """``rtol`` times the largest magnitude in ``arrays``, or ``floor`` if that
    is larger."""
    return rtol * max(floor, *map(max_abs, arrays))
