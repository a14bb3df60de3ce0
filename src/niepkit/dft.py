"""Discrete Fourier machinery for circulant and skew circulant spectra.

Conventions
-----------
With ``w = exp(2*pi*i/n)`` and ``iota = w**(1/2) = exp(pi*i/n)``:

* ``F[p, q] = w**(p*q) / sqrt(n)`` is the unitary DFT matrix and satisfies
  ``F @ F = G_n`` (the orthogonal flip with leading 1).
* ``G = diag(1, iota, ..., iota**(n-1)) @ F``, i.e.
  ``G[p, q] = w**(p*(q + 1/2)) / sqrt(n)``, is unitary and satisfies
  ``G @ G.T = Xi_n`` (flip with leading 1 and negated reversal block).

The spectrum of the circulant matrix with first row ``s`` is
``lam_k = sum_j s_j * w**(k*j)`` and the circulant is ``F @ diag(lam) @ F.conj().T``.
The spectrum of the skew circulant with first row ``c`` is
``mu_k = sum_j c_j * w**((k + 1/2)*j)`` and the matrix is
``G @ diag(mu) @ G.conj().T``; equivalently ``mu = sqrt(n) * G.T @ c``.

The inverse maps recover first rows from index-ordered spectra:

* ``s_k = (1/n) * sum_j lam_j * w**(-k*j)``
* ``c_k = (1/n) * sum_j mu_j * w**(-k*(j + 1/2))``   (``= G.conj() @ mu / sqrt(n)``)

Note the half shift sits on the running index ``j`` in the skew inverse;
that is the unique placement that inverts the forward map above (checked by
the round-trip tests).  Since ``w**(-k*(j + 1/2)) = iota**(-k) * w**(-k*j)``,
both inverse maps are one forward FFT, ``np.fft.fft(V, axis=-1) / n``, with
the skew rows also multiplied by the twiddle ``iota**(-k)`` (a per-order
table).  They run in batches: :func:`_recover_rows` takes one spectrum per
row of a ``(K, n)`` array, circulant rows first and skew rows after them,
and the public single-row functions are a batch of one.  A search of an
even-order pair thus recovers both sides' rows with one FFT call and one
realness test.  ``np.fft`` transforms every row on its own, so a row comes
out bit-identical alone, in a batch of its kind or in a mixed one.  Each
real row's largest magnitude is read once and returned with the rows, for
the slacks and bounds downstream (a maximum is exact in any order).

Realness is judged per row, each against ``REALNESS_RTOL`` times its own
largest magnitude ``max|z|``.  A batch is first judged by one comparison:
its largest imaginary residue against half that rate times the smallest
real row maximum (or the smallest normal float).  Since ``|z| >= |Re z|``,
every row's own limit is at least that bound, so a batch this accepts
passes the per-row test; any other batch takes the per-row test, which
decides and names the first bad row.  The verdict and the rows are those
of the per-row test alone.

The forward maps and the matrices ``F`` / ``G`` are the naive O(n^2) sums,
taken over a table of the ``2n`` roots ``iota**t`` (``t = 0..2n-1``): every
exponent (twiddles included) is an integer reduced modulo a full turn,
which keeps angles exact at desk scale, and indexes that table, so a table
costs ``2n`` complex ``exp`` calls rather than one per matrix entry, with
entries bit-identical to exponentiating every entry.  Each forward map
keeps its ``n x n`` table per order in a cache (:func:`_forward_table`),
built on the first call at that order and read-only, so a call is one
validation and one matrix-vector product.  ``F`` and ``G`` are those two
tables over ``sqrt(n)`` (``G`` transposed): the exponents have one coding.
"""

import functools

import numpy as np

from ._util import REALNESS_RTOL, as_complex_vector, as_float_vector
from .errors import PairingError

_TINY = np.finfo(float).tiny


def _unit_powers(numerator, half_turns):
    """exp(i*pi*numerator/half_turns) with the numerator reduced mod 2*half_turns.

    The ``2*half_turns`` distinct roots are computed once per call and
    gathered with the reduced integer exponents, so a call costs
    ``2*half_turns`` complex ``exp`` calls however large ``numerator`` is.
    Each root is the ``exp`` of the very angle an entry with that reduced
    exponent would take, so the result is bit-identical to exponentiating
    every entry.
    """
    turn = 2 * half_turns
    roots = np.exp(1j * np.pi * np.arange(turn) / half_turns)
    return roots[np.mod(numerator, turn)]


@functools.lru_cache(maxsize=64)
def _forward_table(n, kind):
    """The read-only ``n x n`` table of a forward map: ``w**(k*j)`` for
    ``kind="circulant"``, ``w**((k + 1/2)*j)`` for ``kind="skew"``."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    numerator = 2 * k * j if kind == "circulant" else (2 * k + 1) * j
    table = _unit_powers(numerator, n)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=64)
def _skew_twiddle(n):
    """The read-only skew twiddle ``iota**(-k)``, k = 0..n-1."""
    twiddle = _unit_powers(-np.arange(n), n)
    twiddle.flags.writeable = False
    return twiddle


def dft_matrix(n):
    """Unitary DFT matrix F with F[p, q] = w**(p*q) / sqrt(n)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _forward_table(n, "circulant") / np.sqrt(n)


def skew_dft_matrix(n):
    """Unitary matrix G = diag(1, iota, ..., iota**(n-1)) @ F.

    G diagonalizes real skew circulant matrices and satisfies
    ``G @ G.T = Xi_n``.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return np.ascontiguousarray(_forward_table(n, "skew").T) / np.sqrt(n)


def circulant_eigenvalues(row):
    """Spectrum (lam_0, ..., lam_{n-1}) of the circulant with first row ``row``.

    lam_0 is the row sum and lam_{n-k} is the conjugate of lam_k.  The
    sum runs over the cached table of the order (:func:`_forward_table`).
    """
    row = as_float_vector(row, "row")
    return _forward_table(row.size, "circulant") @ row.astype(complex)


def skew_eigenvalues(row):
    """Spectrum (mu_0, ..., mu_{n-1}) of the skew circulant with first row ``row``.

    mu_{n-1-k} is the conjugate of mu_k.  The sum runs over the cached
    table of the order (:func:`_forward_table`).
    """
    row = as_float_vector(row, "row")
    return _forward_table(row.size, "skew") @ row.astype(complex)


def _recover_rows(spectra, skew_from):
    """``(rows, row_max)``: the first rows of the real circulants and skew
    circulants whose index-ordered spectra are the rows of the complex
    ``(K, n)`` array ``spectra`` (rows ``0..skew_from-1`` are circulant
    spectra, the rest skew spectra, so both kinds of one order take one
    ``np.fft.fft`` call), and ``row_max[i]``, the largest magnitude of
    real row ``i``.

    The rows come in Fortran order (each position of all rows is
    contiguous), as the position-major tests downstream read them.

    Each row must be real within ``REALNESS_RTOL`` of its own largest
    magnitude; otherwise its spectrum breaks the pairing layout and
    :class:`PairingError` is raised, naming the kind of the first such
    row.  An imaginary residue below the smallest normal float is roundoff
    at any scale: a row of subnormal entries has no relative precision
    left to judge.  A batch is accepted whole when its largest imaginary
    residue is at most half that relative limit at the smallest
    ``row_max`` (or the smallest normal float); since ``|z| >= |Re z|``,
    every row of such a batch passes its own test.  Any other batch is
    judged row by row.
    """
    n = spectra.shape[-1]
    rows = np.fft.fft(spectra, axis=-1)
    rows[skew_from:] *= _skew_twiddle(n)
    rows /= n
    real = rows.real.T.copy()
    row_max = np.abs(real).max(axis=0)
    worst = np.abs(rows.imag)
    if row_max.size and worst.max() <= max(0.5 * REALNESS_RTOL * row_max.min(), _TINY):
        return real.T, row_max
    scale = np.abs(rows).max(axis=1)
    worst = worst.max(axis=1)
    bad = np.flatnonzero(worst > np.maximum(REALNESS_RTOL * scale, _TINY))
    if bad.size:
        i = bad[0]
        kind = "circulant" if i < skew_from else "skew"
        raise PairingError(
            f"{kind} row recovery: recovered row is not real (residual imaginary "
            f"part {worst[i]:.3e} exceeds {REALNESS_RTOL:.0e} * {scale[i]:.3e}); "
            "the input spectrum violates its conjugate-pairing layout"
        )
    return real.T, row_max


def circulant_row_from_spectrum(values):
    """First row of the real circulant whose index-ordered spectrum is ``values``.

    Requires the circulant pairing layout (lam_{n-k} = conj(lam_k), lam_0
    real); raises :class:`PairingError` otherwise.
    """
    values = as_complex_vector(values, "spectrum")
    return _recover_rows(values[None, :], 1)[0][0]


def skew_row_from_spectrum(values):
    """First row of the real skew circulant whose spectrum is ``values``.

    Requires the skew pairing layout (mu_{n-1-k} = conj(mu_k)); raises
    :class:`PairingError` otherwise.
    """
    values = as_complex_vector(values, "spectrum")
    return _recover_rows(values[None, :], 0)[0][0]
