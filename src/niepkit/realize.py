"""End-to-end spectrum realizations.

* :func:`realize_four` builds the closed-form 4x4 permutative matrix for a
  list of two reals plus a conjugate pair.
* :func:`region_check` / :func:`realize_region` handle the normalized
  family {1, r, a+ib, a-ib} with Perron root 1.
* :func:`check_conditions` searches the pairing-preserving reorderings of a
  circulant/skew spectrum pair for first rows certifying that the union is
  realizable by a block build.
* :func:`brauer_augment` realizes {rho, tail} union (+/-gamma) * upsilon by
  shifting the Perron root of a circulant with the rank-one all-ones update
  (Brauer's theorem) and bordering with a skew circulant.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import ROUNDOFF_RTOL, as_complex_vector, max_abs, slack
from .blocks import BlockBuildSpec, build_circ_skew, build_odd
from .dft import _recover_rows
from .errors import PairingError, RealizabilityError
from .spectra import (
    DEFAULT_ENUMERATION_CAP,
    PairingPermutation,
    _orderings,
    satisfies_circulant_pairing,
    satisfies_skew_pairing,
)
from .structured import circulant

#: Most (alpha, beta, position) comparisons one step of the dominance join
#: holds in memory.
_JOIN_ELEMENTS = 1 << 16


def _canonical_four(v, tol):
    """Order a 4-list as (real max, real min, upper conjugate, lower conjugate).

    For all-real input a repeated value must serve as the conjugate pair;
    candidates are tried from the largest repeated value down and the first
    assignment meeting the entry conditions wins.
    """
    nonreal = [z for z in v if abs(z.imag) > tol]
    reals = sorted((z.real for z in v if abs(z.imag) <= tol), reverse=True)

    if len(nonreal) == 2:
        z, w = nonreal
        if abs(z - w.conjugate()) > tol:
            raise PairingError("the two nonreal entries are not a conjugate pair")
        lam3 = z if z.imag >= 0 else w
        return [(reals[0], reals[1], lam3)]
    if len(nonreal) == 0:
        candidates = []
        for i in range(4):
            for j in range(i + 1, 4):
                if abs(reals[i] - reals[j]) <= tol:
                    rest = [reals[t] for t in range(4) if t not in (i, j)]
                    candidates.append((rest[0], rest[1], complex(reals[i])))
        if not candidates:
            raise PairingError(
                "an all-real 4-list needs a repeated value to act as the "
                "conjugate pair"
            )
        # deterministic preference: larger pair value first, each once
        return list(dict.fromkeys(sorted(candidates, key=lambda c: -c[2].real)))
    raise PairingError("spectrum is not closed under conjugation")


def _four_conditions(lam1, lam2, lam3, tol):
    """The first inequality {lam1, lam2, lam3, conj(lam3)} violates by more
    than ``tol``, or ``None``: the one 4x4 boundary rule, under which
    :func:`_four_matrix` is nonnegative up to roundoff."""
    checks = [
        ("sum(spectrum) >= 0", lam1 + lam2 + 2 * lam3.real),
        ("lam1 + lam2 >= 2*Re(lam3)", lam1 + lam2 - 2 * lam3.real),
        ("lam1 - lam2 >= 2*|Im(lam3)|", lam1 - lam2 - 2 * abs(lam3.imag)),
    ]
    return next((name for name, margin in checks if margin < -tol), None)


def realize_four(values):
    """4x4 nonnegative permutative matrix realizing {lam1, lam2, lam3, conj(lam3)}.

    Requires lam1, lam2 real with sum(spectrum) >= 0,
    lam1 + lam2 >= 2*Re(lam3) and lam1 - lam2 >= 2*|Im(lam3)|; raises
    :class:`RealizabilityError` naming the first violated inequality.
    """
    v = as_complex_vector(values, "spectrum")
    if v.size != 4:
        raise ValueError("realize_four needs exactly 4 values")
    tol = slack(ROUNDOFF_RTOL, v, floor=1.0)
    failed = None
    for lam1, lam2, lam3 in _canonical_four(v, tol):
        name = _four_conditions(lam1, lam2, lam3, tol)
        if name is None:
            break
        if failed is None:
            failed = name
    else:
        raise RealizabilityError(f"condition violated: {failed}")
    return _four_matrix(lam1, lam2, lam3)


def _four_matrix(lam1, lam2, lam3):
    """The closed-form permutative matrix with spectrum
    {lam1, lam2, lam3, conj(lam3)}, roundoff negatives clipped to zero."""
    a = (lam1 + lam2 + 2 * lam3.real) / 4.0
    b = (lam1 + lam2 - 2 * lam3.real) / 4.0
    c = (lam1 - lam2 + 2 * lam3.imag) / 4.0
    d = (lam1 - lam2 - 2 * lam3.imag) / 4.0
    M = np.array([[a, b, c, d], [b, a, d, c], [d, c, a, b], [c, d, b, a]])
    return np.clip(M, 0.0, None)


@dataclass(frozen=True)
class RegionPoint:
    """Parameters of the normalized 4-list {1, r, a+ib, a-ib}, 0 <= r <= 1."""

    r: float
    a: float
    b: float

    def __post_init__(self):
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        if not np.isfinite([self.a, self.b]).all():
            raise ValueError(f"a and b must be finite, got a={self.a}, b={self.b}")

    @property
    def spectrum(self):
        z = complex(self.a, self.b)
        return np.array([1.0, self.r, z, z.conjugate()])


def region_check(point):
    """True when |a| <= (1+r)/2 and |b| <= (1-r)/2, i.e. the closed-form
    realizing matrix for {1, r, a+ib, a-ib} is entrywise nonnegative.

    The inequalities are those of :func:`realize_four`, with its slack, so
    a point passes exactly when ``realize_four(point.spectrum)`` succeeds.
    """
    tol = slack(ROUNDOFF_RTOL, point.spectrum, floor=1.0)
    return _four_conditions(1.0, point.r, complex(point.a, point.b), tol) is None


def realize_region(point):
    """4x4 nonnegative permutative matrix with spectrum {1, r, a+ib, a-ib}."""
    if not region_check(point):
        raise RealizabilityError(
            f"point (r={point.r}, a={point.a}, b={point.b}) violates "
            "|a| <= (1+r)/2 and |b| <= (1-r)/2"
        )
    return _four_matrix(1.0, point.r, complex(point.a, point.b))


def in_gamma_region(z):
    """Membership in {z : Re(z) <= 0 and |Im(z)| <= |Re(z)|}."""
    z = complex(z)
    return z.real <= 0.0 and abs(z.imag) <= abs(z.real)


@dataclass(frozen=True)
class SpectrumPair:
    """A circulant-layout list, a skew-layout list and a scaling gamma.

    ``circulant_part`` has length n (paired with an even block build) or
    n+1 (odd build); ``skew_part`` has length n.  Both must already be in
    their pairing layouts in index order.
    """

    circulant_part: tuple
    skew_part: tuple
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    def arrays(self):
        lam = as_complex_vector(self.circulant_part, "circulant part")
        ups = as_complex_vector(self.skew_part, "skew part")
        if lam.size not in (ups.size, ups.size + 1):
            raise ValueError(
                "circulant part must have the same length as the skew part "
                f"or one more, got {lam.size} vs {ups.size}"
            )
        if not satisfies_circulant_pairing(lam):
            raise PairingError("circulant part violates its pairing layout")
        if not satisfies_skew_pairing(ups):
            raise PairingError("skew part violates its pairing layout")
        return lam, ups


@dataclass(frozen=True)
class ConditionWitness:
    """A satisfying reordering pair and the rows it recovers.

    ``margins[k] = s_k - |c_k|`` positionally on the first rows (the skew
    row is zero padded when the circulant part is one entry longer).
    """

    alpha: PairingPermutation
    beta: PairingPermutation
    circulant_row: tuple
    skew_row: tuple
    margins: tuple


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of :func:`check_conditions`.

    ``bound_value`` is the smallest admissible head value for the circulant
    part alone (see :func:`circulant_head_bound`); in formula mode
    ``satisfied`` compares the head against it, in constructive mode
    ``satisfied`` certifies an explicit witness build.
    """

    satisfied: bool
    mode: str
    bound_value: float
    witness: Optional[ConditionWitness]

    def __bool__(self):
        return self.satisfied


def circulant_head_bound(values, cap=DEFAULT_ENUMERATION_CAP):
    """Least head value that leaves some reordering's recovered row nonnegative.

    Evaluated as a minimum over pairing-preserving reorderings of the
    largest negated cosine/sine load

        -2 * sum_j [Re(v_j) cos(2*pi*k*j/n) + Im(v_j) sin(2*pi*k*j/n)]

    over k = 0..n-1 (with the extra alternating real term at j = n/2 for
    even n).  The list is circulant-realizable with head lam_0 iff
    lam_0 >= bound; this trigonometric route is independent of the complex
    inverse-DFT used by the constructive checker.
    """
    v = as_complex_vector(values, "spectrum")
    return _head_bound(v, _layout_orderings(v, "circulant", cap))


def _layout_orderings(values, kind, cap):
    """The ``kind``-layout orderings of ``values`` (a ``(K, n)`` index array,
    see :func:`niepkit.spectra._orderings`); raises :class:`PairingError`
    when there are none."""
    orderings = _orderings(values, kind, None, cap)
    if not len(orderings):
        raise PairingError(f"list does not admit any {kind}-layout ordering")
    return orderings


def _head_bound(v, orderings):
    """:func:`circulant_head_bound` of ``v`` over its orderings (a nonempty
    ``(K, n)`` index array).

    The loads of all orderings come from one stacked ``np.matmul``, whose
    loop runs the same matrix-vector product per ordering, on the same
    strided vector, as ``cos @ x`` does for one; the bound is therefore
    bit-identical to a loop over the orderings.
    """
    n = v.size
    if n == 1:
        return 0.0
    k = np.arange(n)
    if n % 2 == 1:
        j = np.arange(1, (n - 1) // 2 + 1)
    else:
        j = np.arange(1, n // 2)
        alternating = -((-1.0) ** k)
    ang = 2.0 * np.pi * np.outer(k, j) / n
    cos, sin = np.cos(ang), np.sin(ang)
    nu = v[orderings]
    extra = np.zeros(n) if n % 2 == 1 else alternating * nu[:, n // 2, None].real
    x = nu[:, j, None]
    load = -2.0 * (np.matmul(cos, x.real) + np.matmul(sin, x.imag))[..., 0] + extra
    peaks = load.max(axis=1)
    # argmin keeps the first of tied minima, as a running min() does
    return float(peaks[np.argmin(peaks)])


def _permutation(orderings, row, kind):
    return PairingPermutation(tuple(orderings[row].tolist()), kind)


def _dominated(s_rows, c_abs, odd, tol):
    """Which rows of ``c_abs`` (skew row magnitudes, one per row) each
    circulant row of ``s_rows`` dominates within ``tol``: booleans of
    shape ``(Kc,)`` for one row ``s_rows``, ``(A, Kc)`` for ``A`` rows.

    Even case: ``|c| <= clip(s) + tol``.  Bordered case (``s`` one longer):
    the dense test ``|skew_circulant(c)| <= circulant(clip(s))[:n, :n] +
    tol`` compares ``|c_d|`` with ``clip(s)_d`` on and above the diagonal
    (d = j - i) and with ``clip(s)_{d+1}`` below it (d = n + j - i), so the
    same comparisons are made on the rows.
    """
    n = c_abs.shape[1]
    body = np.clip(s_rows, 0.0, None)[..., None, :] + tol
    ok = np.all(c_abs <= body[..., :n], axis=-1)
    if odd:
        ok &= np.all(c_abs[:, 1:] <= body[..., 2:], axis=-1)
    return ok


def _builds(s_row, c_row, odd):
    """Whether :func:`build_from_witness` accepts the rows: ``|c| <= clip(s)``
    compared as in :func:`_dominated`, within the builders' slack, which
    scales with ``|c|`` and the entries of ``clip(s)`` their dense test
    reads (all but ``s_1`` in the bordered build with n = 1)."""
    s = np.clip(s_row, 0.0, None)
    read = s[:1] if odd and c_row.size == 1 else s
    tol = slack(ROUNDOFF_RTOL, read, c_row)
    return bool(_dominated(s, np.abs(c_row)[None], odd, tol)[0])


def check_conditions(pair, mode="constructive", cap=DEFAULT_ENUMERATION_CAP):
    """Sufficient-condition check for realizing Lambda union (+/-gamma)*Upsilon.

    Constructive mode (the authoritative one) searches reordering pairs in
    lexicographic order for recovered first rows with ``s`` nonnegative and
    the skew row dominated entrywise by the circulant body; the first
    witness found feeds :func:`niepkit.blocks.build_circ_skew` (equal
    lengths) or :func:`niepkit.blocks.build_odd` (circulant part longer by
    one).  Formula mode only compares the head of the circulant part
    against :func:`circulant_head_bound` and reports no witness.

    Each side is enumerated once and its rows are recovered in one batch;
    the head bound and the circulant rows share one ordering array.  The
    circulant rows with no entry below the spectrum-scale slack (the live
    alphas) are joined with all skew rows (:func:`_dominated`) in chunks of
    at most ``_JOIN_ELEMENTS`` comparisons.  The join's slack bounds the
    slack of every pair, so it keeps every pair the builders accept; its
    passing pairs are then judged in row-major order by the builders' own
    rule (:func:`_builds`).  The witness is thus the lexicographically
    first pair (alpha, beta), over live alphas, that
    :func:`build_from_witness` accepts.
    """
    if mode not in ("constructive", "formula"):
        raise ValueError(f"mode must be 'constructive' or 'formula', got {mode!r}")
    lam, ups = pair.arrays()
    alphas = _layout_orderings(lam, "circulant", cap)
    bound = _head_bound(lam, alphas)
    tol = slack(ROUNDOFF_RTOL, lam, ups, floor=1.0)

    if mode == "formula":
        satisfied = bool(lam[0].real >= bound - tol)
        return ConditionReport(satisfied, "formula", bound, None)

    odd = lam.size == ups.size + 1
    s_rows = _recover_rows(lam[alphas], "circulant")
    betas = _layout_orderings(ups, "skew", cap)
    c_rows = _recover_rows(ups[betas], "skew")
    c_abs = np.abs(c_rows)
    live = np.flatnonzero(np.all(s_rows >= -tol, axis=1))
    join_tol = slack(ROUNDOFF_RTOL, lam, ups, s_rows, c_abs, floor=1.0)
    step = max(1, _JOIN_ELEMENTS // max(1, c_abs.size))
    for start in range(0, live.size, step):
        block = live[start:start + step]
        ok = _dominated(s_rows[block], c_abs, odd, join_tol)
        while ok.any():
            i, b = divmod(int(np.argmax(ok)), ok.shape[1])
            s_row, c_row = s_rows[block[i]], c_rows[b]
            if _builds(s_row, c_row, odd):
                c_pad = np.concatenate([np.abs(c_row), [0.0]]) if odd else np.abs(c_row)
                witness = ConditionWitness(
                    alpha=_permutation(alphas, block[i], "circulant"),
                    beta=_permutation(betas, b, "skew"),
                    circulant_row=tuple(s_row.tolist()),
                    skew_row=tuple(c_row.tolist()),
                    margins=tuple((s_row - c_pad).tolist()),
                )
                return ConditionReport(True, "constructive", bound, witness)
            ok[i, b] = False
    return ConditionReport(False, "constructive", bound, None)


def build_from_witness(pair, witness):
    """Assemble the block matrix certified by a :class:`ConditionWitness`."""
    lam, ups = pair.arrays()
    spec = BlockBuildSpec(gamma=pair.gamma)
    s_row = np.clip(np.asarray(witness.circulant_row, dtype=float), 0.0, None)
    c_row = np.asarray(witness.skew_row, dtype=float)
    if lam.size == ups.size:
        return build_circ_skew(s_row, c_row, spec)
    return build_odd(circulant(s_row), c_row, spec)


def skew_row_bound(upsilon, cap=DEFAULT_ENUMERATION_CAP):
    """Largest first-row magnitude over all skew circulants realizing ``upsilon``.

    This is the rank-one shift size used by :func:`brauer_augment`; every
    admissible skew row is dominated entrywise by it.
    """
    ups = as_complex_vector(upsilon, "skew spectrum")
    betas = _layout_orderings(ups, "skew", cap)
    return max_abs(_recover_rows(ups[betas], "skew"))


@dataclass(frozen=True)
class BrauerPlan:
    """Ingredients of a Brauer-augmented bordered build.

    ``circulant_row`` generates the shifted circulant R with spectrum
    {rho} union tail; ``skew_row`` realizes upsilon with all magnitudes at
    most ``chi``; ``base_row`` is the pre-shift row of B.
    """

    chi: float
    base_row: tuple
    circulant_row: tuple
    skew_row: tuple
    alpha: PairingPermutation
    beta: PairingPermutation


def brauer_plan(upsilon, tail, rho, cap=DEFAULT_ENUMERATION_CAP):
    """Plan the augmentation realizing {rho} union tail union (+/-gamma)*upsilon.

    Steps: chi is :func:`skew_row_bound` of upsilon; the skew row is the
    candidate minimizing its largest magnitude (ties to the
    lexicographically first reordering); a nonnegative circulant B with
    spectrum {rho - (n+1)*chi} union tail is searched over circulant-layout
    reorderings; the all-ones rank-one update B + chi * ones shifts the
    Perron root to rho while keeping the rest (Brauer), and stays circulant.
    """
    ups = as_complex_vector(upsilon, "skew spectrum")
    tail = as_complex_vector(tail, "tail") if len(tail) else np.zeros(0, complex)
    n = ups.size
    if tail.size != n:
        raise ValueError(f"tail must have length {n}, got {tail.size}")
    rho = float(rho)

    betas = _layout_orderings(ups, "skew", cap)
    c_rows = _recover_rows(ups[betas], "skew")
    magnitudes = np.max(np.abs(c_rows), axis=1)
    chi = float(magnitudes.max())
    # argmin keeps the first of tied minima: the lexicographically first beta
    best = int(np.argmin(magnitudes))
    c_row = c_rows[best]

    head = rho - (n + 1) * chi
    shifted = np.concatenate([[complex(head)], tail])
    tol = slack(ROUNDOFF_RTOL, shifted, floor=1.0)
    alphas = _layout_orderings(shifted, "circulant", cap)
    b_rows = _recover_rows(shifted[alphas], "circulant")
    nonnegative = np.all(b_rows >= -tol, axis=1)
    if not nonnegative.any():
        raise RealizabilityError(
            f"no nonnegative circulant realizes the shifted list with head "
            f"rho - (n+1)*chi = {head:.6g}; increase rho (chi = {chi:.6g})"
        )
    first = int(np.argmax(nonnegative))
    b_row = np.clip(b_rows[first], 0.0, None)
    r_row = b_row + chi
    # guaranteed by construction: every entry of R dominates every |c_k|
    assert np.min(r_row) >= chi - tol >= max_abs(c_row) - tol
    return BrauerPlan(
        chi=chi,
        base_row=tuple(b_row.tolist()),
        circulant_row=tuple(r_row.tolist()),
        skew_row=tuple(c_row.tolist()),
        alpha=_permutation(alphas, first, "circulant"),
        beta=_permutation(betas, best, "skew"),
    )


def brauer_augment(upsilon, tail, rho, gamma=1.0, sign=1, cap=DEFAULT_ENUMERATION_CAP):
    """Order-(2n+1) nonnegative matrix with spectrum
    {rho} union tail union (sign*gamma)*upsilon.

    The last row splits each entry of R into ``(r + g*c)/2, (r - g*c)/2``,
    which keeps the output permutative whenever R is flat (the all-zero
    tail case, where R = circ(rho/(n+1), ...)).
    """
    return _augment_from_plan(brauer_plan(upsilon, tail, rho, cap=cap), gamma, sign)


def _augment_from_plan(plan, gamma, sign):
    """The :func:`brauer_augment` build of an already computed plan."""
    R = circulant(np.asarray(plan.circulant_row))
    c_row = np.asarray(plan.skew_row)
    g = sign * gamma
    n = c_row.size
    last = R[n, :n]
    split = np.column_stack([(last + g * c_row) / 2.0, (last - g * c_row) / 2.0])
    spec = BlockBuildSpec(gamma=gamma, sign=sign, last_row_split=tuple(map(tuple, split)))
    return build_odd(R, c_row, spec)
