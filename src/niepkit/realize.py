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

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._util import ROUNDOFF_RTOL, as_complex_vector, max_abs, slack
from .blocks import (
    BlockBuildSpec,
    _assemble_even,
    _build_odd,
    _violations,
    build_circ_skew,
    build_odd,
)
from .dft import _recover_rows
from .errors import PairingError, RealizabilityError
from .spectra import (
    DEFAULT_ENUMERATION_CAP,
    PairingPermutation,
    _conjugate_distance,
    _has_layout,
    _search_orderings,
    _structure_key,
)
from .structured import _circulant, _skew_circulant, circulant

#: Most (alpha, beta, position) comparisons one step of the dominance join
#: makes; made one position at a time, it holds ``1/n`` of them at once.
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
    if len(nonreal) == 4:
        raise PairingError("a 4-list needs two real entries, its Perron root among them")
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
    :class:`RealizabilityError` naming the first violated inequality.  The
    pairing of conjugates and repeats and the inequalities are judged at
    the list's own scale, with no floor.
    """
    v = as_complex_vector(values, "spectrum")
    if v.size != 4:
        raise ValueError("realize_four needs exactly 4 values")
    tol = slack(ROUNDOFF_RTOL, v)
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
    """The permutative matrix with spectrum {lam1, lam2, lam3, conj(lam3)},
    roundoff negatives clipped to zero: the n = 2 even block build, with
    circulant row ``((lam1 + lam2)/2, (lam1 - lam2)/2)`` (spectrum
    {lam1, lam2}) and skew row ``(Re lam3, Im lam3)`` (spectrum
    {lam3, conj(lam3)}), assembled by the block builder.  Its entries are
    ``(lam1 + lam2 +/- 2 Re lam3)/4`` and ``(lam1 - lam2 +/- 2 Im lam3)/4``,
    bit for bit, unless an intermediate value is subnormal or overflows."""
    s = np.array([lam1 + lam2, lam1 - lam2]) / 2.0
    c = np.array([lam3.real, lam3.imag])
    return np.clip(_assemble_even(_circulant(s), _skew_circulant(c), 1.0), 0.0, None)


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
    for ``|a+ib| <= 1`` a point passes exactly when ``realize_four`` succeeds
    on its spectrum (at r = 1, a = 2, b = 0 it does, with Perron root 2).
    A ``b`` within the slack reads as 0, as ``realize_four`` reads a pair
    that close to the real axis as a repeated real.
    """
    tol = slack(ROUNDOFF_RTOL, point.spectrum)
    b = point.b if abs(point.b) > tol else 0.0
    return _four_conditions(1.0, point.r, complex(point.a, b), tol) is None


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
    """A circulant part, a skew part and a scaling gamma.

    ``circulant_part`` has length n (paired with an even block build) or
    n+1 (odd build); ``skew_part`` has length n.  Each part is a multiset:
    its entries may come in any order, and the searches try every
    reordering that keeps its pairing layout.  The circulant head is
    forced (:func:`_head_first`), so it need not come first either.

    The pair is validated on first use, and what the searches read of it
    is kept: the arrays, the head order, each part's pairing structure and
    the search's slack.  Every search of the pair then keys each part
    once; the size cap is still checked on every call.
    """

    circulant_part: tuple
    skew_part: tuple
    gamma: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma}")

    def arrays(self):
        """The two parts as complex arrays, in the caller's order, validated:
        each part must admit an ordering of its pairing layout, the
        circulant part one headed by its forced head, or
        :class:`PairingError` is raised; the ordering generator judges
        both.  A pair that passes keeps its read-only arrays, so later
        calls skip the coercion and the layout tests; one that fails
        raises again on every call."""
        return self._parts[:2]

    @functools.cached_property
    def _parts(self):
        """:meth:`arrays` and what the searches read of the pair
        (:class:`_Parts`), computed on first access and kept."""
        lam = as_complex_vector(self.circulant_part, "circulant part")
        ups = as_complex_vector(self.skew_part, "skew part")
        if lam.size not in (ups.size, ups.size + 1):
            raise ValueError(
                "circulant part must have the same length as the skew part "
                f"or one more, got {lam.size} vs {ups.size}"
            )
        tol = slack(ROUNDOFF_RTOL, lam, ups)
        order, circulant_key = _head_first(lam, tol)
        skew_key = _structure_key(ups, "skew")
        if not _has_layout(skew_key):
            raise PairingError("skew part violates its pairing layout")
        # copies: a part passed as an array is neither frozen nor shared
        lam, ups = lam.copy(), ups.copy()
        headed = lam[order]
        for array in (lam, ups, order, headed):
            array.flags.writeable = False
        return _Parts(lam, ups, order, headed, circulant_key, skew_key, tol)


class _Parts(NamedTuple):
    """What a valid :class:`SpectrumPair` keeps: the arrays of
    :meth:`SpectrumPair.arrays`, the index order of the circulant part that
    puts its head first (:func:`_head_first`) and the part so reordered,
    the structure keys of that part and of the skew part (see
    :func:`niepkit.spectra._structure_key`) and the search's slack, so that
    every search of the pair keys each part once."""

    lam: np.ndarray
    ups: np.ndarray
    order: np.ndarray
    headed: np.ndarray
    circulant_key: tuple
    skew_key: tuple
    tol: float


def _head_first(lam, tol):
    """The index order of ``lam`` that moves its circulant head to the
    front, the other entries keeping their order, and the structure key of
    ``lam`` so reordered; raises :class:`PairingError` when no head tried
    leaves a circulant layout ordering.

    A nonnegative circulant's eigenvalue lam_0 = sum_j s_j is at least
    every |lam_k|, so only a real entry of largest modulus can head one
    (real by the generator's rule, ``2|Im| <= slack(ROUNDOFF_RTOL, lam)``).
    The search admits rows with entries down to ``-tol``; for those,
    lam_0 >= |lam_k| - 2m*tol (m = ``lam.size``), so an entry within that
    margin of the largest modulus qualifies.  The qualifying entries are
    tried by descending real part, in index order on ties, and the first
    whose head leaves a layout ordering heads; when none does, index 0
    keeps the head.  So the verdict does not depend on the order in which
    the part lists entries of distinct real parts.
    """
    real = _conjugate_distance(lam, lam) <= slack(ROUNDOFF_RTOL, lam)
    heads = np.flatnonzero(real & (lam.real >= max_abs(lam) - 2 * lam.size * tol))
    heads = heads[np.argsort(-lam.real[heads], kind="stable")]
    for h in dict.fromkeys([*heads.tolist(), 0]):
        order = np.r_[h, 0:h, h + 1:lam.size]
        key = _structure_key(lam[order], "circulant")
        if _has_layout(key):
            return order, key
    raise PairingError("circulant part violates its pairing layout")


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
    """Outcome of :func:`check_conditions`: ``satisfied`` certifies
    ``witness``, a pair whose rows :func:`build_from_witness` accepts."""

    satisfied: bool
    witness: Optional[ConditionWitness]

    def __bool__(self):
        return self.satisfied


def circulant_head_bound(values, cap=DEFAULT_ENUMERATION_CAP):
    """Least head value that leaves some reordering's recovered row nonnegative.

    Index 0 of ``values`` is the head, as in
    :func:`niepkit.spectra.enumerate_circulant_permutations`, whose
    orderings keep it first.  Unlike :class:`SpectrumPair`, no head is
    forced: ``circulant_head_bound((1.0, 5.0))`` is 5.0 and
    ``circulant_head_bound((5.0, 1.0))`` is 1.0.

    Evaluated as a minimum over pairing-preserving reorderings of the
    largest negated cosine/sine load

        -2 * sum_j [Re(v_j) cos(2*pi*k*j/n) + Im(v_j) sin(2*pi*k*j/n)]

    over k = 0..n-1 (with the extra alternating real term at j = n/2 for
    even n).  The list is circulant-realizable with head lam_0 iff
    lam_0 >= bound; this trigonometric route is independent of the complex
    inverse-DFT used by the constructive checker.  One stacked
    ``np.matmul`` gives the loads of all orderings, bit-identical to a loop
    over them: it runs the same matrix-vector product per ordering.
    """
    v = as_complex_vector(values, "spectrum")
    orderings = _search_orderings(_structure_key(v, "circulant"), cap)
    n = v.size
    j, cos, sin, alternating = _head_tables(n)
    nu = v[orderings]
    extra = np.zeros(n) if n % 2 == 1 else alternating * nu[:, n // 2, None].real
    x = nu[:, j, None]
    load = -2.0 * (np.matmul(cos, x.real) + np.matmul(sin, x.imag))[..., 0] + extra
    peaks = load.max(axis=1)
    # argmin keeps the first of tied minima, as a running min() does
    return float(peaks[np.argmin(peaks)])


@functools.lru_cache(maxsize=64)
def _head_tables(n):
    """The read-only tables of :func:`circulant_head_bound` for order n: the
    summed positions ``j``, the cosines and sines of ``2*pi*k*j/n`` and the
    sign of the alternating term (used for even n only)."""
    k = np.arange(n)
    j = np.arange(1, (n + 1) // 2)
    ang = 2.0 * np.pi * np.outer(k, j) / n
    tables = (j, np.cos(ang), np.sin(ang), -((-1.0) ** k))
    for table in tables:
        table.flags.writeable = False
    return tables


def _permutation(orderings, row, kind):
    return PairingPermutation(tuple(orderings[row].tolist()), kind)


def _body(s_rows):
    """The body rows of bordered circulant rows ``s`` (one entry longer
    than the skew rows): ``(s_0, min(s_1, s_2), ..., min(s_{n-1}, s_n))``.

    The bordered build's dense test, ``|skew_circulant(c)| <=
    circulant(clip(s))[:n, :n]`` within a slack, meets ``|c_0|`` with
    ``s_0`` alone and each later ``|c_k|`` with both ``s_k`` and
    ``s_{k+1}``.  Clipping and the rounded addition of a slack are
    monotone, so one comparison with the smaller of the two decides both,
    bit for bit, and the join (:func:`_dominated`) and the judge of each
    pair it passes (:func:`_builds`) are the same at both parities.
    """
    body = s_rows[..., :-1].copy()
    np.minimum(body[..., 1:], s_rows[..., 2:], out=body[..., 1:])
    return body


def _dominated(body, c_abs, tol):
    """Which rows of ``c_abs`` (skew row magnitudes, one per row) each body
    row dominates, ``|c| <= clip(body) + tol``: booleans of shape ``(Kc,)``
    for one row ``body``, ``(A, Kc)`` for ``A`` rows.  A body row is the
    circulant row at even n and :func:`_body` of it when bordered.

    The comparisons run position-major: one ``&=`` per position across all
    rows, whose column reads are contiguous for a Fortran-order ``c_abs``.
    """
    cols = c_abs.T
    # np.maximum skips np.clip's Python wrappers; a signed zero it may keep
    # compares as zero
    body = np.maximum(body, 0.0) + tol
    ok = cols[0] <= body[..., 0, None]
    for k in range(1, cols.shape[0]):
        ok &= cols[k] <= body[..., k, None]
    return ok


def _builds(s_row, c_row, c_max, odd):
    """Whether :func:`build_from_witness` accepts the rows: the builders'
    own rule (:func:`niepkit.blocks._violations`) on the clipped circulant
    row, or bordered its body row (:func:`_body`), against the skew row,
    under the slack of the operands the builders compare.  Bordered, these
    are the leading n x n block of the clipped row's circulant, which holds
    every entry of the row for n >= 2 and ``s_0`` alone at n = 1, and the
    skew circulant, whose entries are the skew row's up to sign.

    The slack is read from maxima, not rescanned: ``c_max`` is the skew
    row's largest magnitude as row recovery returns it, and the clipped
    row's is its ``max()``, its entries being nonnegative.  Put first,
    ``c_max`` (never a signed zero) wins a tie with a clipped ``-0.0``, so
    the slack is ``slack(ROUNDOFF_RTOL, read, c_row)`` bit for bit."""
    s = np.clip(s_row, 0.0, None)
    s_max = s[0] if c_row.size == 1 else s.max()
    tol = ROUNDOFF_RTOL * max(c_max, s_max)
    return not _violations(_body(s) if odd else s, c_row, tol).any()


def _joined(body, c_abs, tol):
    """The pairs ``(i, b)`` of body rows and skew rows that the join
    (:func:`_dominated`) passes under ``tol``, in row-major order: the
    first row against every skew row, then the other rows against the skew
    rows under their envelope (:func:`check_conditions`, filters 2 and
    3)."""
    if not len(body):
        return
    first = np.maximum(body[0], 0.0) + tol
    for b in np.flatnonzero((c_abs <= first).all(axis=1)).tolist():
        yield 0, b
    rest = body[1:]
    if not len(rest):
        return
    envelope = np.maximum(rest.max(axis=0), 0.0) + tol
    kept = np.flatnonzero((c_abs <= envelope).all(axis=1))
    if not kept.size:
        return
    # Fortran order, as _dominated reads it: one position of all rows at a time
    c_kept = c_abs.T.take(kept, axis=1).T
    step = max(1, _JOIN_ELEMENTS // c_kept.size)
    for start in range(0, len(rest), step):
        ok = _dominated(rest[start:start + step], c_kept, tol)
        for i, b in zip(*np.nonzero(ok)):
            yield 1 + start + int(i), int(kept[b])


def check_conditions(pair, cap=DEFAULT_ENUMERATION_CAP):
    """Sufficient-condition check for realizing Lambda union (+/-gamma)*Upsilon.

    Both parts may come in any order.  The circulant part is read with its
    forced head first (:func:`_head_first`); the alphas reorder the rest,
    and ``witness.alpha.mapping`` indexes ``circulant_part`` as given, its
    first entry the head.  The other entries keep their order when the head
    moves, so the alphas stay in lexicographic order of their image tuples.

    The check searches reordering pairs in lexicographic order for
    recovered first rows with ``s`` nonnegative and ``|c|`` dominated by
    the body row (:func:`_body`); the first witness found feeds
    :func:`niepkit.blocks.build_circ_skew` (equal lengths) or
    :func:`niepkit.blocks.build_odd` (circulant part longer by one).  A
    pair is satisfied only by such a witness.

    Each part is keyed once per pair (:class:`SpectrumPair` keeps its
    structure keys and the slack), so a check only looks its orderings
    up.  The rows of both sides are recovered in one batch at even n, one
    FFT call and one realness pass, and in one batch per side for a
    bordered pair, whose parts differ in length.  At even n the skew side holds
    one ordering per shift class, the first
    (:func:`niepkit.spectra._search_orderings`): half of them for a list
    of distinct values.

    The body rows of the circulant rows with no entry below the
    spectrum-scale slack (the live alphas) are joined with those skew rows
    under the join's slack, the rows' own scale: the roundoff slack of all
    circulant and skew rows.  It bounds the builders' slack of every pair,
    whose operands are among those rows, so the join keeps every pair the
    builders accept.  The join runs three exact filters (:func:`_joined`):

    1. the live rows, their body rows and the join's slack, once, the
       slack from the row maxima that row recovery returns: at even n the
       largest of the one batch's ``row_max``, bordered the larger of the
       two batches' largest;
    2. the first live alpha against every beta in one comparison; its
       passing pairs come first in lexicographic order, so they are
       judged first, in beta order;
    3. the betas under the envelope of the remaining live alphas, the
       largest clipped body entry at each position plus the slack; when
       none is left the pair is unsatisfied, and otherwise the remaining
       alphas are joined with the kept betas (:func:`_dominated`, one join
       for both parities) in chunks of at most ``_JOIN_ELEMENTS``
       comparisons.

    Rounding the added slack is monotone, ``fl(max x + t) = max fl(x +
    t)``, so a beta the envelope drops fails the join with every remaining
    alpha, and the filters pass the same pairs, in the same row-major
    order, as a join of every live alpha with every beta.  Each passing
    pair is judged by the builders' own rule (:func:`_builds`), under a
    slack read from the skew row's recovered maximum.  The
    witness is thus the lexicographically first pair (alpha, beta), over
    live alphas and all betas, that :func:`build_from_witness` accepts: a
    beta left out has the magnitudes of an earlier one.
    """
    parts = pair._parts
    lam, ups, tol = parts.headed, parts.ups, parts.tol
    alphas = _search_orderings(parts.circulant_key, cap)
    odd = lam.size == ups.size + 1
    betas = _search_orderings(parts.skew_key, cap)
    if odd:  # the parts differ in length: one FFT call each
        s_rows, s_max = _recover_rows(lam[alphas], len(alphas))
        c_rows, c_max = _recover_rows(ups[betas], 0)
        top = max(s_max.max(), c_max.max())
    else:
        rows, row_max = _recover_rows(np.concatenate([lam[alphas], ups[betas]]), len(alphas))
        s_rows, c_rows = rows[:len(alphas)], rows[len(alphas):]
        c_max = row_max[len(alphas):]
        top = row_max.max()
    # Fortran order, as recovered: the join reads one position of all skew
    # rows at a time, and the live test one position of all circulant rows
    c_abs = np.abs(c_rows)
    live = np.flatnonzero((s_rows.T >= -tol).all(axis=0))
    body = _body(s_rows[live]) if odd else s_rows[live]
    # slack(ROUNDOFF_RTOL, s_rows, c_abs), read from the recovered row maxima
    join_tol = ROUNDOFF_RTOL * top
    for i, b in _joined(body, c_abs, join_tol):
        s_row, c_row = s_rows[live[i]], c_rows[b]
        if _builds(s_row, c_row, c_max[b], odd):
            c_pad = np.concatenate([c_abs[b], [0.0]]) if odd else c_abs[b]
            witness = ConditionWitness(
                alpha=_permutation(parts.order, alphas[live[i]], "circulant"),
                beta=_permutation(betas, b, "skew"),
                circulant_row=tuple(s_row.tolist()),
                skew_row=tuple(c_row.tolist()),
                margins=tuple((s_row - c_pad).tolist()),
            )
            return ConditionReport(True, witness)
    return ConditionReport(False, None)


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
    admissible skew row is dominated entrywise by it.  At even n the rows
    of one ordering per shift class are recovered (see
    :func:`check_conditions`): the others repeat their magnitudes.
    """
    return float(_skew_rows(as_complex_vector(upsilon, "skew spectrum"), cap)[2].max())


def _skew_rows(ups, cap):
    """``(betas, c_rows, c_max)``: the skew orderings that chi reads, their
    rows and each row's largest magnitude."""
    betas = _search_orderings(_structure_key(ups, "skew"), cap)
    return (betas, *_recover_rows(ups[betas], 0))


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

    Steps: chi is :func:`skew_row_bound` of upsilon, the largest of the
    skew rows' maxima as their recovery reads them; the skew row is the
    candidate of least maximum (ties to the lexicographically first
    reordering, which is among the one ordering per shift class that both
    read at even n); a nonnegative circulant B with spectrum
    {rho - (n+1)*chi} union tail is searched over circulant-layout
    reorderings; the all-ones rank-one update B + chi * ones shifts the
    Perron root to rho while keeping the rest (Brauer), and stays circulant.
    """
    chi, b_row, r_row, c_row, alphas, first, betas, best = _brauer_rows(upsilon, tail, rho, cap)
    return BrauerPlan(
        chi=chi,
        base_row=tuple(b_row.tolist()),
        circulant_row=tuple(r_row.tolist()),
        skew_row=tuple(c_row.tolist()),
        alpha=_permutation(alphas, first, "circulant"),
        beta=_permutation(betas, best, "skew"),
    )


def _brauer_rows(upsilon, tail, rho, cap):
    """The fields of :func:`brauer_plan`, the rows as arrays and each
    ordering as its array and row: ``(chi, base_row, circulant_row,
    skew_row, alphas, first, betas, best)``."""
    ups = as_complex_vector(upsilon, "skew spectrum")
    tail = as_complex_vector(tail, "tail") if len(tail) else np.zeros(0, complex)
    n = ups.size
    if tail.size != n:
        raise ValueError(f"tail must have length {n}, got {tail.size}")
    rho = float(rho)
    if not np.isfinite(rho):
        raise ValueError("rho must be finite")

    betas, c_rows, c_max = _skew_rows(ups, cap)
    chi = float(c_max.max())
    # argmin keeps the first of tied minima: the lexicographically first beta
    best = int(np.argmin(c_max))

    head = rho - (n + 1) * chi
    shifted = np.concatenate([[complex(head)], tail])
    # slack(ROUNDOFF_RTOL, shifted, [rho]): rho is an operand, since the
    # head rho - (n+1)*chi is rounded at its scale
    tol = ROUNDOFF_RTOL * max(max_abs(shifted), abs(rho))
    alphas = _search_orderings(_structure_key(shifted, "circulant"), cap)
    b_rows = _recover_rows(shifted[alphas], len(alphas))[0]
    # position-major, as recovered (Fortran order), like the search's live test
    nonnegative = (b_rows.T >= -tol).all(axis=0)
    if not nonnegative.any():
        raise RealizabilityError(
            f"no nonnegative circulant realizes the shifted list with head "
            f"rho - (n+1)*chi = {head:.6g}; increase rho (chi = {chi:.6g})"
        )
    first = int(np.argmax(nonnegative))
    b_row = np.clip(b_rows[first], 0.0, None)
    r_row = b_row + chi
    # guaranteed by construction: every entry of R dominates every |c_k|
    assert np.min(r_row) >= chi - tol >= c_max[best] - tol
    return chi, b_row, r_row, c_rows[best], alphas, first, betas, best


def brauer_augment(upsilon, tail, rho, gamma=1.0, sign=1, cap=DEFAULT_ENUMERATION_CAP):
    """Order-(2n+1) nonnegative matrix with spectrum
    {rho} union tail union (sign*gamma)*upsilon.

    The last row splits each entry of R into ``(r + g*c)/2, (r - g*c)/2``,
    which keeps the output permutative whenever R is flat (the all-zero
    tail case, where R = circ(rho/(n+1), ...)).  It builds from the plan's
    rows (:func:`_brauer_rows`); the plan's errors come first.
    """
    r_row, c_row = _brauer_rows(upsilon, tail, rho, cap)[2:4]
    return _augment(r_row, c_row, gamma, sign)


def _augment_from_plan(plan, gamma, sign):
    """The :func:`brauer_augment` build of an already computed plan."""
    return _augment(np.asarray(plan.circulant_row), np.asarray(plan.skew_row), gamma, sign)


def _augment(r_row, c_row, gamma, sign):
    """The bordered build (:func:`niepkit.blocks._build_odd`) of the
    circulant R with first row ``r_row`` and the skew row ``c_row``, its
    last row split as :func:`brauer_augment` says."""
    g = BlockBuildSpec(gamma=gamma, sign=sign).signed_gamma
    R = _circulant(r_row)
    n = c_row.size
    last, gc = R[n, :n], g * c_row
    split = np.empty((n, 2))
    np.add(last, gc, out=split[:, 0])
    np.subtract(last, gc, out=split[:, 1])
    split /= 2.0
    return _build_odd(R, c_row, g, split)
