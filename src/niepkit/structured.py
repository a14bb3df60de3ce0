"""Dense materialization and recognition of the structured matrix classes."""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import PERMUTATIVE_RTOL, as_float_matrix, as_float_vector, slack


@functools.lru_cache(maxsize=64)
def _shift_table(n):
    """Read-only: entry (i, j) reads first-row position (j - i) mod n."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    table = (j - i) % n
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _skew_signs(n):
    """Read-only: -1.0 on the wrapped entries (below the diagonal), else 1.0.

    Multiplying by -1.0 negates exactly, signed zeros included, so one
    product with this table is the negation of the wrapped entries.
    """
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    signs = np.where(j < i, -1.0, 1.0)
    signs.flags.writeable = False
    return signs


def _circulant(row):
    """:func:`circulant` of a row already validated as a float vector."""
    return row[_shift_table(row.size)]


def _skew_circulant(row):
    """:func:`skew_circulant` of a row already validated as a float vector."""
    return _circulant(row) * _skew_signs(row.size)


def circulant(row):
    """Dense circulant matrix: each row is the right cyclic shift of the one above."""
    return _circulant(as_float_vector(row, "row"))


def skew_circulant(row):
    """Dense skew circulant matrix: wrapped entries below the diagonal flip sign."""
    return _skew_circulant(as_float_vector(row, "row"))


@dataclass(frozen=True)
class AbsCirculant:
    """Entrywise-signed circulant: |matrix| is circulant with first row
    ``magnitudes`` and ``signs`` carries the per-entry sign choice.

    Valid instances have nonnegative magnitudes, signs in {+1, -1} and a
    constant sign along the diagonal (immaterial when the diagonal
    magnitude is zero).
    """

    magnitudes: tuple
    signs: tuple

    @staticmethod
    def from_arrays(magnitudes, signs):
        magnitudes = as_float_vector(magnitudes, "magnitudes")
        signs = as_float_matrix(signs, "signs")
        return AbsCirculant(
            magnitudes=tuple(magnitudes.tolist()),
            signs=tuple(map(tuple, signs.tolist())),
        )


def abs_circulant(ac):
    """Materialize an :class:`AbsCirculant`, validating its invariants."""
    mags = as_float_vector(ac.magnitudes, "magnitudes")
    signs = as_float_matrix(np.asarray(ac.signs, dtype=float), "signs")
    n = mags.size
    if signs.shape != (n, n):
        raise ValueError(f"signs must be {n}x{n}, got {signs.shape}")
    if np.any(mags < 0):
        raise ValueError("magnitudes must be nonnegative")
    if not np.all(np.abs(signs) == 1.0):
        raise ValueError("signs must be +1 or -1")
    if mags[0] != 0.0:
        diag = np.diag(signs)
        if not (np.all(diag == 1.0) or np.all(diag == -1.0)):
            raise ValueError("diagonal signs must be constant")
    out = signs * mags[_shift_table(n)]
    return out + 0.0  # normalize -0.0 produced by sign * 0


@dataclass(frozen=True)
class PermutativityReport:
    """Outcome of :func:`is_permutative` with one witness permutation per row.

    ``row_permutations[i]`` is a tuple ``p`` with ``M[i, k] == M[0, p[k]]``
    for every k (within tolerance); ``None`` when not permutative.
    """

    permutative: bool
    row_permutations: Optional[tuple]

    def __bool__(self):
        return self.permutative


def is_permutative(matrix, tol=None):
    """Check whether every row of a square matrix rearranges its first row.

    Every row is sorted by one ``np.sort`` over all rows, and the sorted
    rows are compared entrywise with the sorted first row; the matrix is
    permutative when no difference exceeds ``tol`` (default ``1e-9`` times
    the largest magnitude; a given ``tol`` must be finite and nonnegative).
    The witness for row ``i``, scattered for all rows at once, sends the
    position of the k-th smallest entry of row ``i`` to that of the k-th
    smallest entry of row 0, ties taken in index order: the witness a
    row-by-row stable sort gives.  Its ``argsort`` is the default kind when
    every sorted row strictly increases (distinct entries have one order
    under any sort; ``-0.0`` and ``0.0`` count as a tie), and the stable
    kind otherwise.
    """
    matrix = as_float_matrix(matrix, "matrix")
    if tol is None:
        tol = slack(PERMUTATIVE_RTOL, matrix)
    elif not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    ranked = np.sort(matrix, axis=1)
    if np.max(np.abs(ranked - ranked[0])) > tol:
        return PermutativityReport(False, None)
    distinct = (ranked[:, 1:] > ranked[:, :-1]).all()
    order = np.argsort(matrix, axis=1, kind=None if distinct else "stable")
    perm = np.empty_like(order)
    perm[np.arange(matrix.shape[0])[:, None], order] = order[0]
    return PermutativityReport(True, tuple(map(tuple, perm.tolist())))
