"""Independent spectrum computation and multiset comparison.

Every construction in this package is cross-checked by computing the full
eigenvalue list of the assembled dense matrix and matching it, as a
multiset, against the intended spectrum.  The eigenvalue backend is
LAPACK's balanced Hessenberg + shifted QR solver via ``numpy.linalg``.
From order ``_SPLIT_ORDER`` up, a matrix whose entries follow the 2x2
symmetric block layout of :mod:`niepkit.blocks` exactly is solved as two
half-order problems: the orthogonal similarity ``I (x) [[1, 1], [1, -1]]
/ sqrt(2)`` (bordered by 1 at odd order) and a ``sqrt(2)`` scaling of the
border take it to a block-triangular form with ``A+B`` and ``A-B``, or
``S`` and ``C``, on its diagonal.  The spectrum is the same in exact
arithmetic, and forming ``a +/- b`` rounds each entry once, below the
solver's own backward error.  The layout test is exact and reads the
matrix alone (no row, DFT or claimed spectrum), so either the halves or,
for any other matrix, one ulp off the layout included, the whole matrix
give the spectrum of the very matrix given, and a wrong build is still
rejected.  Comparison uses a bottleneck assignment on pairwise distances:
the pairing whose largest distance is the smallest achievable, which is
the distance the verdict reads.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_complex_vector, as_float_matrix
from .blocks import _split
from .errors import EigensolveError, StructureError

#: Largest matrix order accepted; this is a desk-scale verification tool.
MAX_ORDER = 64

#: Smallest order solved as two halves; chosen by timing: below it, the
#: second LAPACK call can cost more than the halving saves.
_SPLIT_ORDER = 22


def spectrum(matrix):
    """Eigenvalues (with multiplicity) of a real square matrix of order <= 64.

    Returned in descending order of real part, ties broken by descending
    imaginary part.  A block build of order ``_SPLIT_ORDER`` or more is
    solved as its two halves (see the module docstring), in one stacked
    call at even order and two at odd order.  Raises
    :class:`EigensolveError` if the QR iteration fails to converge, which is
    reported rather than silently truncated, and ``ValueError`` when the
    eigenvalues of a finite matrix overflow.
    """
    matrix = as_float_matrix(matrix, "matrix")
    if matrix.shape[0] > MAX_ORDER:
        raise ValueError(f"matrix order {matrix.shape[0]} exceeds {MAX_ORDER}")
    try:
        values = _eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveError(f"eigenvalue iteration failed: {exc}") from exc
    if not np.isfinite(values).all():
        raise ValueError("the eigenvalues of the matrix overflow")
    order = np.lexsort((values.imag, values.real))[::-1]
    return values[order]


def _eigvals(matrix):
    """Unsorted eigenvalues: of the two halves when the exact layout test
    holds at order ``_SPLIT_ORDER`` or more, else of the whole matrix."""
    if matrix.shape[0] >= _SPLIT_ORDER:
        try:
            with np.errstate(over="raise"):
                S, C = _split(matrix, lambda x, y: (x != y).any())
        except (StructureError, FloatingPointError):
            pass  # not the layout, or a half overflows: the dense path
        else:
            if S.shape == C.shape:
                return np.linalg.eigvals(np.stack((S, C))).ravel()
            return np.concatenate((np.linalg.eigvals(S), np.linalg.eigvals(C)))
    return np.linalg.eigvals(matrix)


@dataclass(frozen=True)
class SpectrumMatchReport:
    """Multiset comparison result.

    ``pairing[t] = (i, j)`` matches ``x[i]`` with ``y[j]``, rows in index
    order; ``max_pair_distance`` is its largest matched distance, the
    smallest largest distance any pairing achieves.
    """

    matched: bool
    max_pair_distance: float
    pairing: tuple

    def __bool__(self):
        return self.matched


def match_spectra(x, y, tol):
    """Match two equal-length complex multisets by a bottleneck assignment.

    ``max_pair_distance`` is the smallest achievable largest distance
    ``|x[i] - y[j]|`` over all pairings, and ``matched`` is true when it is
    within ``tol``, that is, when some pairing keeps every pair within
    ``tol``.  ``tol`` must be finite and nonnegative.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    x = as_complex_vector(x, "x")
    y = as_complex_vector(y, "y")
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    dist = np.abs(x[:, None] - y[None, :])
    rows = np.arange(x.size)
    cols = _bottleneck(dist)
    max_dist = float(dist[rows, cols].max())
    pairing = tuple(zip(rows.tolist(), cols.tolist()))
    return SpectrumMatchReport(
        matched=max_dist <= tol, max_pair_distance=max_dist, pairing=pairing
    )


def _bottleneck(dist):
    """Column of each row in a perfect matching of the square matrix
    ``dist`` whose largest entry is the smallest possible (a bottleneck
    assignment; Burkard, Dell'Amico & Martello, *Assignment Problems*,
    ch. 6).

    Each row takes its nearest column; when these all differ, no matching
    does better.  Otherwise the lowest row keeps a shared column, and each
    other row is matched in the graph ``dist <= t``, from ``t`` the largest
    row minimum: by a free column within ``t`` if there is one, else by an
    augmenting path (Hopcroft & Karp, 1973), grown as an alternating tree
    without recursion.  A tree that reaches no free column has one column
    fewer than rows, so by Hall's theorem no perfect matching lies below
    the smallest distance from its rows to a column outside it, and ``t``
    rises to that distance.  So ``t`` never passes the optimum, and every
    matched pair lies within it.
    """
    n = dist.shape[0]
    near = dist.argmin(axis=1)
    if len(set(near.tolist())) == n:
        return near
    t = dist[np.arange(n), near].max()
    row_of, col_of = [-1] * n, [-1] * n
    for i, j in enumerate(near.tolist()):
        if row_of[j] < 0:
            row_of[j], col_of[i] = i, j
    losers = [i for i in range(n) if col_of[i] < 0]
    within = np.nonzero(dist[losers] <= t)
    for k, j in zip(*(side.tolist() for side in within)):
        r = losers[k]
        if col_of[r] < 0 and row_of[j] < 0:
            row_of[j], col_of[r] = r, j
    rest = [r for r in losers if col_of[r] < 0]
    row_of, col_of = np.array(row_of), np.array(col_of)
    for r in rest:
        # slack[j]: the distance from the tree's rows to column j, first
        # reached from row via[j]; out[j]: column j is outside the tree
        slack = dist[r].copy()
        via = np.full(n, r)
        out = np.ones(n, dtype=bool)
        while True:
            reach = np.flatnonzero(out & (slack <= t))
            if reach.size == 0:
                t = slack[out].min()
                continue
            owner = row_of[reach]
            k = owner.argmin()
            j = reach[k]
            if owner[k] < 0:
                break
            # every reached column is matched: one joins, with its row
            i = owner[k]
            out[j] = False
            closer = out & (dist[i] < slack)
            slack[closer] = dist[i, closer]
            via[closer] = i
        # flip the path from the free column j back to r
        while j >= 0:
            i = via[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return col_of
