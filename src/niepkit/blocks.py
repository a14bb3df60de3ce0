"""Two-by-two block assembly of nonnegative matrices with split spectra.

A matrix built from blocks ``[[ (s+g*c)/2, (s-g*c)/2 ], [ (s-g*c)/2, (s+g*c)/2 ]]``
over matrices ``S = (s_ij)`` and ``C = (c_ij)`` has spectrum
``sigma(S) union g*sigma(C)``, and is entrywise nonnegative whenever
``|c_ij| <= s_ij`` and ``|g| <= 1``.  The odd-order variant borders the
block body with a duplicated last column of ``S``, a split last row and the
scalar corner.  The two ``split_spectrum_*`` functions invert the layout,
recovering ``(S, C)`` from a structured matrix.

With rows and columns 2i and 2i+1 read from i and n+i,
:func:`build_circ_skew` is the order-2n circulant with first row
``f = ((s + g*c)/2, (s - g*c)/2)``, bit for bit (tested).  Its even
frequencies give the circulant spectrum of ``s = f_k + f_{k+n}``, its odd
ones the skew spectrum of ``g*c = f_k - f_{k+n}``.  So at gamma = 1 the
even route realizes exactly the lists a nonnegative order-2n circulant
realizes (``f >= 0`` is ``|c| <= s``); for gamma < 1 that circulant needs
only ``|g*c| <= s``, and ``|c| <= s`` is stronger than needed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import ROUNDOFF_RTOL, as_float_matrix, as_float_vector, max_abs, slack
from .errors import MajorizationError, RealizabilityError, StructureError
from .structured import _circulant, _skew_circulant


@dataclass(frozen=True)
class BlockBuildSpec:
    """Build options: scaling ``gamma`` in [0, 1], global ``sign`` (+1 or -1)
    selecting which of the two sign layouts is used, and an optional
    ``last_row_split`` for odd-order builds (sequence of (left, right) pairs
    that must be nonnegative and sum to the last row of S)."""

    gamma: float = 1.0
    sign: int = 1
    last_row_split: Optional[tuple] = None

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def signed_gamma(self):
        return self.sign * self.gamma


def _violations(S, C, tol=None):
    """Where ``|C| <= S`` fails by more than ``tol``, by default the
    roundoff slack of both operands, as a boolean mask: the one
    majorization rule of every build, on rows or matrices alike.  Only a
    refusal lists the positions."""
    if tol is None:
        tol = slack(ROUNDOFF_RTOL, S, C)
    return np.abs(C) > S + tol


def _check_majorization(S, C, tol=None):
    """Raise unless |C| <= S entrywise (see :func:`_violations`)."""
    bad = _violations(S, C, tol)
    if bad.any():
        bad = np.argwhere(bad)
        listed = ", ".join(f"({i}, {j})" for i, j in bad[:8])
        raise MajorizationError(
            f"|c_ij| <= s_ij fails at {listed}"
            + ("" if len(bad) <= 8 else f" and {len(bad) - 8} more"),
            positions=[tuple(p) for p in bad],
        )


def _finalize_nonnegative(M):
    """Clamp roundoff negatives to zero; reject anything genuinely negative,
    beyond ``slack(ROUNDOFF_RTOL, M)``.  That slack is read from the two
    extremes the clamp needs anyway: max|M| = max(max M, -min M), bit for
    bit, the ``abs`` keeping a zero maximum unsigned."""
    worst, top = (float(M.min()), float(M.max())) if M.size else (0.0, 0.0)
    tol = ROUNDOFF_RTOL * abs(max(top, -worst))
    if worst < -tol:
        raise RealizabilityError(
            f"construction produced a negative entry {worst:.3e} "
            f"(beyond roundoff tolerance {tol:.3e})"
        )
    np.clip(M, 0.0, None, out=M)
    return M


def _assemble_even(S, C, g):
    n = S.shape[0]
    gC = g * C
    plus = (S + gC) / 2.0
    minus = (S - gC) / 2.0
    M = np.empty((2 * n, 2 * n))
    M[0::2, 0::2] = plus
    M[1::2, 1::2] = plus
    M[0::2, 1::2] = minus
    M[1::2, 0::2] = minus
    return M


def _split(A, differ):
    """``(S, C)`` read from the 2x2 block layout of a square matrix of order
    2n or 2n+1: S = A+B and C = A-B over the top rows ``[a, b]`` of the
    blocks; at odd order S also takes the last column, the block sums of the
    last row, and the corner.  ``differ(x, y)`` judges each pair of views
    that the layout makes equal, the body's first; the first pair it flags
    raises :class:`StructureError`.  The layout's one coding, shared by the
    ``split_spectrum_*`` functions and :func:`niepkit.oracle.spectrum`.
    """
    N = A.shape[0]
    m = N - N % 2
    a, b = A[0:m:2, 0:m:2], A[0:m:2, 1:m:2]
    if differ(A[1:m:2, 1:m:2], a) or differ(A[1:m:2, 0:m:2], b):
        raise StructureError("2x2 blocks are not symmetric [[a, b], [b, a]]")
    if m == N:
        return a + b, a - b
    top = A[0:m:2, m]
    if differ(A[1:m:2, m], top):
        raise StructureError("last column entries are not duplicated per block row")
    S = np.empty((m // 2 + 1, m // 2 + 1))
    S[:-1, :-1] = a + b
    S[:-1, -1] = top
    S[-1, :-1] = A[m, 0:m:2] + A[m, 1:m:2]
    S[-1, -1] = A[m, m]
    return S, a - b


def split_spectrum_even(A):
    """Recover (S, C) from an order-2n matrix of symmetric 2x2 blocks.

    Block (i, j) must look like [[a, b], [b, a]]; then S = A+B parts and
    C = A-B parts satisfy sigma(A) = sigma(S) union sigma(C).
    """
    A = as_float_matrix(A, "matrix")
    if A.shape[0] % 2 != 0:
        raise StructureError("matrix order must be even")
    tol = slack(ROUNDOFF_RTOL, A)
    return _split(A, lambda x, y: max_abs(x - y) > tol)


def split_spectrum_odd(A):
    """Recover (S, C) from a bordered order-(2n+1) block matrix.

    The body splits as in :func:`split_spectrum_even`; the last column must
    duplicate each entry across block rows.  S has order n+1 (last column,
    block sums of the last row, and the corner appended); C has order n.
    """
    A = as_float_matrix(A, "matrix")
    N = A.shape[0]
    if N % 2 != 1 or N < 3:
        raise StructureError("matrix order must be odd and >= 3")
    tol = slack(ROUNDOFF_RTOL, A)
    return _split(A, lambda x, y: max_abs(x - y) > tol)


def build_even(S, C, spec=BlockBuildSpec()):
    """Order-2n nonnegative matrix with spectrum sigma(S) union g*sigma(C),
    where g = spec.sign * spec.gamma.  Requires |c_ij| <= s_ij entrywise."""
    S = as_float_matrix(S, "S")
    C = as_float_matrix(C, "C")
    if S.shape != C.shape:
        raise ValueError(f"S and C must have equal shape, got {S.shape} vs {C.shape}")
    _check_majorization(S, C)
    return _finalize_nonnegative(_assemble_even(S, C, spec.signed_gamma))


def build_circ_skew(s_row, c_row, spec=BlockBuildSpec()):
    """Order-2n nonnegative *permutative* matrix realizing the union of the
    circulant spectrum of ``s_row`` and g times the skew circulant spectrum
    of ``c_row``.

    Because the two structured matrices place row entries identically, the
    entrywise bound reduces to |c_k| <= s_k on the first rows alone.
    """
    s_row = as_float_vector(s_row, "s_row")
    c_row = as_float_vector(c_row, "c_row")
    if s_row.size != c_row.size:
        raise ValueError("rows must have equal length")
    bad = _violations(s_row, c_row)
    if bad.any():
        bad = np.argwhere(bad)[:, 0]
        raise MajorizationError(
            f"|c_k| <= s_k fails at k = {', '.join(map(str, bad.tolist()))}",
            positions=[(0, int(k)) for k in bad],
        )
    M = _assemble_even(_circulant(s_row), _skew_circulant(c_row), spec.signed_gamma)
    return _finalize_nonnegative(M)


def _resolve_split(split, last_row):
    """The ``(n, 2)`` parts of the last row: equal halves when ``split`` is
    None; otherwise ``split`` (a tuple, list or array of pairs) checked for
    shape, finiteness, sign and row sums under the roundoff slack of the
    last row and the split, its roundoff negatives clipped to zero.  A
    ragged or non-numeric ``split`` is refused as not ``n`` pairs of
    numbers."""
    n = last_row.size
    if split is None:
        half = last_row / 2.0
        return np.column_stack([half, half])
    try:
        split = np.asarray(split, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"last_row_split must be {n} pairs of numbers") from exc
    if split.shape != (n, 2):
        raise ValueError(f"last_row_split must be {n} pairs, got shape {split.shape}")
    if not np.isfinite(split).all():
        raise ValueError("last_row_split parts must be finite")
    tol = slack(ROUNDOFF_RTOL, last_row, split)
    if (split < -tol).any():
        raise ValueError("last_row_split parts must be nonnegative")
    if max_abs(split[:, 0] + split[:, 1] - last_row) > tol:
        raise ValueError("last_row_split pairs must sum to the last row of S")
    return np.clip(split, 0.0, None)


def build_odd(S, c_row, spec=BlockBuildSpec()):
    """Order-(2n+1) nonnegative matrix with spectrum sigma(S) union
    g*sigma(skew_circulant(c_row)).

    ``S`` has order n+1 and must dominate the skew circulant entrywise on
    the leading n x n body.  The last row of the output splits each
    ``S[n, j]`` into the two nonnegative parts given by
    ``spec.last_row_split`` (default: equal halves); the spectrum does not
    depend on the choice of split.  The inputs are coerced here and built
    by :func:`_build_odd`, the one bordered assembly.
    """
    S = as_float_matrix(S, "S")
    c_row = as_float_vector(c_row, "c_row")
    return _build_odd(S, c_row, spec.signed_gamma, spec.last_row_split)


def _build_odd(S, c_row, g, split):
    """:func:`build_odd` of a float matrix ``S``, a float row ``c_row``, the
    signed scaling ``g`` and the last-row ``split`` (None for halves; see
    :func:`_resolve_split`).  The skew circulant's entries are ``c_row``'s
    up to sign, so its majorization slack reads ``c_row``: the same float
    as the slack of the dense operands."""
    n = c_row.size
    if S.shape != (n + 1, n + 1):
        raise ValueError(f"S must have order {n + 1}, got {S.shape}")
    body, C = S[:n, :n], _skew_circulant(c_row)
    _check_majorization(body, C, slack(ROUNDOFF_RTOL, body, c_row))
    split = _resolve_split(split, S[n, :n])
    M = np.empty((2 * n + 1, 2 * n + 1))
    M[: 2 * n, : 2 * n] = _assemble_even(body, C, g)
    M[0 : 2 * n : 2, 2 * n] = S[:n, n]
    M[1 : 2 * n : 2, 2 * n] = S[:n, n]
    M[2 * n, 0 : 2 * n : 2] = split[:, 0]
    M[2 * n, 1 : 2 * n : 2] = split[:, 1]
    M[2 * n, 2 * n] = S[n, n]
    return _finalize_nonnegative(M)
