"""Input coercion helpers and the package's one tolerance policy.

Each tolerance below is relative: :func:`slack` scales it by the largest
magnitude among the operands a comparison reads, with no floor, so a
verdict it judges stays put when every operand is scaled by a power of 2
(within the normal range); each comment names its users, then those
operands.  A slack may be read from a maximum the code already holds when
that maximum is the very float :func:`slack` would compute: the row maxima
that row recovery returns, in the search's join and in each pair's judge
(:func:`niepkit.realize._builds`); ``M.min()`` and ``M.max()`` in the
builders' clamp (max|M| = max(max M, -min M)); the skew row standing in
for its skew circulant, whose entries are its own up to sign; and the
Brauer shift, ``max(max_abs(shifted), abs(rho))``.

Each inequality has one judge: ``|c| <= s`` the rule of the builders of
:mod:`niepkit.blocks`, which the witness search applies to each pair its
join (one for both parities, on body rows) passes; the 4x4 region
:func:`realize_four`'s conditions, which :func:`region_check` wraps.
"""

import numpy as np

ROUNDOFF_RTOL = 1e-12  # pairing, blocks, 4x4, search, Brauer: the operands
REALNESS_RTOL = 1e-10  # dft row recovery: each row, at least the smallest normal
PERMUTATIVE_RTOL = 1e-9  # is_permutative: the matrix
VERIFY_RTOL = 1e-7  # CLI oracle check of every build: the expected spectrum
SWEEP_RTOL = 1e-8  # region-sweep, verify default: the expected spectrum


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
    try:
        arr = np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a complex 1-D sequence") from exc
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


def slack(rtol, *arrays):
    """``rtol`` times the largest magnitude in ``arrays``; 0.0 when they hold
    none.  The common one-operand call skips the variadic maximum, whose
    result it is."""
    if len(arrays) == 1:
        return rtol * max_abs(arrays[0])
    return rtol * max(map(max_abs, arrays), default=0.0)
