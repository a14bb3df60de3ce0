"""Dense materialization and recognition of the structured matrix classes."""

import functools
from dataclasses import FrozenInstanceError, dataclass

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


class PermutativityReport:
    """Outcome of :func:`is_permutative` with one witness permutation per row.

    ``row_permutations[i]`` is a tuple ``p`` with ``M[i, k] == M[0, p[k]]``
    for every k (within tolerance); ``None`` when not permutative.  A report
    from :func:`is_permutative` derives the witness on its first read, from
    its own copy of the matrix, and keeps it.  Reports are immutable and
    compare by verdict and witness.
    """

    __slots__ = ("permutative", "_witness", "_pending")

    def __init__(self, permutative, row_permutations):
        object.__setattr__(self, "permutative", permutative)
        object.__setattr__(self, "_witness", row_permutations)
        object.__setattr__(self, "_pending", None)

    @property
    def row_permutations(self):
        if self._pending is not None:
            object.__setattr__(self, "_witness", _row_permutations(self._pending))
            object.__setattr__(self, "_pending", None)
        return self._witness

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not PermutativityReport:
            return NotImplemented
        return (self.permutative, self.row_permutations) == (
            other.permutative,
            other.row_permutations,
        )

    def __hash__(self):
        return hash((self.permutative, self.row_permutations))

    def __repr__(self):
        return (
            f"PermutativityReport(permutative={self.permutative!r}, "
            f"row_permutations={self.row_permutations!r})"
        )

    def __bool__(self):
        return self.permutative


def _row_permutations(matrix):
    """The witness of a permutative ``matrix`` (see :func:`is_permutative`)."""
    order = np.argsort(matrix, axis=1, kind="stable")
    perm = np.empty_like(order)
    perm[np.arange(matrix.shape[0])[:, None], order] = order[0]
    return tuple(map(tuple, perm.tolist()))


def is_permutative(matrix, tol=None):
    """Check whether every row of a square matrix rearranges its first row.

    Every row is sorted by one ``np.sort`` over all rows, and the sorted
    rows are compared entrywise with the sorted first row; the matrix is
    permutative when no difference exceeds ``tol`` (default ``1e-9`` times
    the largest magnitude; a given ``tol`` must be finite and nonnegative).
    That sort is the verdict's whole cost: the witness is derived when
    ``row_permutations`` is first read, from a copy of the matrix taken
    here, so changing the matrix afterwards does not change it.

    The witness for row ``i``, scattered for all rows at once, sends the
    position of the k-th smallest entry of row ``i`` to that of the k-th
    smallest entry of row 0, ties taken in index order: the witness a
    row-by-row stable sort gives (``-0.0`` and ``0.0`` count as a tie).
    """
    matrix = as_float_matrix(matrix, "matrix")
    if tol is None:
        tol = slack(PERMUTATIVE_RTOL, matrix)
    elif not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    ranked = np.sort(matrix, axis=1)
    if np.max(np.abs(ranked - ranked[0])) > tol:
        return PermutativityReport(False, None)
    report = PermutativityReport(True, None)
    object.__setattr__(report, "_pending", matrix.copy())
    return report
