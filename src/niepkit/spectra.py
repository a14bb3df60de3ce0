"""Conjugate-pairing structure of candidate spectra.

A length-n list is *circulant compatible* when it can be reordered so that
position 0 holds a real number and position n-k holds the conjugate of
position k for k = 1..n-1; real circulant matrices have exactly such
spectra.  It is *skew compatible* when a reordering satisfies the mirrored
layout in which position n-1-k holds the conjugate of position k for every
k; real skew circulant matrices have exactly such spectra.

This module classifies lists against both layouts and enumerates every
pairing-preserving permutation (the search space used by the sufficient
condition checker in :mod:`niepkit.realize`).  The orderings are generated
position by position rather than filtered out of all n! permutations, so
the cost scales with the number of orderings kept, not with n!.

The orderings depend on a list only through its pairing structure: which
entries may sit opposite which (``|e_j - conj(e_i)| <= tol``), whether the
head is real, and which entries are exactly equal.  Every generic list of
a given order and layout shares one structure, so the orderings are
generated once per structure (and per ``limit`` and ``dedup``) and kept,
as read-only index arrays, in a least-recently-used cache of a fixed 64
entries.  The cache has no setting; the public functions return a fresh
list on every call.

Two conventions hold throughout:

* Circulant enumeration fixes index 0 as the head (position 0); only the
  tail is reordered.  :func:`classify_pairing`, by contrast, may pick any
  real entry as the head of its witness.
* Pairing compares values within the relative tolerance of
  :func:`pairing_tolerance` (1e-12 * max modulus), while ``dedup`` merges
  orderings only when their reordered lists are exactly equal.  Two entries
  closer than the tolerance but not equal therefore still give two
  orderings.

All functions are pure and deterministic; enumeration order is the
lexicographic order of the permutation image tuples.
"""

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import ROUNDOFF_RTOL, as_complex_vector, slack
from .errors import EnumerationCapError

#: Default size cap for exhaustive enumeration; the candidate sets grow
#: factorially with n.
DEFAULT_ENUMERATION_CAP = 10


@dataclass(frozen=True)
class PairingPermutation:
    """A permutation whose reordering preserves a conjugate-pairing layout.

    ``mapping`` is the image tuple: position k of the reordered list holds
    entry ``mapping[k]`` of the original.  ``kind`` is ``"circulant"``
    (fixes 0) or ``"skew"``.
    """

    mapping: tuple
    kind: str

    def apply(self, entries):
        entries = as_complex_vector(entries)
        return entries[list(self.mapping)]


@dataclass(frozen=True)
class PairingReport:
    """Result of :func:`classify_pairing`.

    Witness tuples give one ordering (as original indices) realizing each
    layout, or ``None`` when the layout is unattainable.
    ``conjugate_pairs`` maps each index to a partner carrying its conjugate
    (reals may map to themselves); ``None`` when the list is not closed
    under conjugation.
    """

    is_circulant_compatible: bool
    is_skew_compatible: bool
    circulant_witness: Optional[tuple]
    skew_witness: Optional[tuple]
    conjugate_pairs: Optional[dict]


def pairing_tolerance(entries):
    """Matching tolerance: zero for all-zero input, else 1e-12 * max modulus."""
    return slack(ROUNDOFF_RTOL, np.asarray(entries, dtype=complex))


def _conjugate_distance(a, b):
    """``|a - conj(b)|`` elementwise.

    ``np.hypot`` is libm's ``hypot``, which is also what ``abs`` of a Python
    or numpy complex scalar computes; ``np.abs`` of a complex array may use a
    SIMD kernel that differs from it in the last bit, and a verdict at the
    tolerance would then depend on how it was evaluated.
    """
    d = a - np.conj(b)
    return np.hypot(d.real, d.imag)


def _arranged(entries, order, tol):
    entries = as_complex_vector(entries)
    if order is not None:
        entries = entries[list(order)]
    if tol is None:
        tol = pairing_tolerance(entries)
    return entries, tol


def satisfies_circulant_pairing(entries, order=None, tol=None):
    """True when ``entries`` (optionally reordered) has the circulant layout."""
    entries, tol = _arranged(entries, order, tol)
    mates = _layout_partners(entries.size, "circulant")[1:]
    return bool(
        abs(entries[0].imag) <= tol
        and np.all(_conjugate_distance(entries[mates], entries[1:]) <= tol)
    )


def satisfies_skew_pairing(entries, order=None, tol=None):
    """True when ``entries`` (optionally reordered) has the skew layout."""
    entries, tol = _arranged(entries, order, tol)
    mates = _layout_partners(entries.size, "skew")
    return bool(np.all(_conjugate_distance(entries[mates], entries) <= tol))


def _match_conjugates(entries, tol):
    """Pair every nonreal entry with an unmatched conjugate partner.

    Returns (pairs, partner_map) where pairs lists (i, j) with
    entries[j] == conj(entries[i]) and Im entries[i] > 0, or None when the
    list is not conjugate closed.  Real entries map to themselves.
    """
    n = entries.size
    partner = {}
    pairs = []
    used = set()
    for i in range(n):
        if abs(entries[i].imag) <= tol:
            partner[i] = i
    for i in range(n):
        if i in partner or i in used:
            continue
        if entries[i].imag < 0:
            continue
        target = entries[i].conjugate()
        mate = None
        for j in range(n):
            if j == i or j in partner or j in used:
                continue
            if abs(entries[j] - target) <= tol:
                mate = j
                break
        if mate is None:
            return None, None
        used.add(i)
        used.add(mate)
        partner[i] = mate
        partner[mate] = i
        pairs.append((i, mate))
    if len(partner) != n:
        return None, None
    return pairs, partner


def _group_reals(entries, real_indices, tol):
    """Group real entry indices into runs of equal value (within tol)."""
    order = sorted(real_indices, key=lambda i: entries[i].real)
    groups = []
    for i in order:
        if groups and abs(entries[groups[-1][-1]].real - entries[i].real) <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    groups.sort(key=lambda g: -entries[g[0]].real)
    return groups


def classify_pairing(entries):
    """Classify a list against the circulant and skew pairing layouts."""
    entries = as_complex_vector(entries)
    n = entries.size
    tol = pairing_tolerance(entries)

    nonreal_pairs, partner = _match_conjugates(entries, tol)
    if nonreal_pairs is None:
        return PairingReport(False, False, None, None, None)

    real_indices = [i for i in range(n) if abs(entries[i].imag) <= tol]
    groups = _group_reals(entries, real_indices, tol)
    odd_groups = [g for g in groups if len(g) % 2 == 1]

    # Deterministic pair ordering: nonreal pairs by descending (Re, Im) of
    # the upper-half representative, then equal-real pairs by descending value.
    def pair_stream(exclude):
        ordered = sorted(
            nonreal_pairs,
            key=lambda p: (-entries[p[0]].real, -abs(entries[p[0]].imag)),
        )
        for i, j in ordered:
            yield i, j
        for g in groups:
            left = [i for i in g if i not in exclude]
            for t in range(0, len(left) - 1, 2):
                yield left[t], left[t + 1]

    circulant_witness = None
    if n % 2 == 1:
        if len(odd_groups) == 1:
            head = odd_groups[0][0]
            witness = [None] * n
            witness[0] = head
            for t, (i, j) in enumerate(pair_stream({head})):
                witness[1 + t] = i
                witness[n - 1 - t] = j
            circulant_witness = tuple(witness)
    else:
        head = mid = None
        if len(odd_groups) == 2:
            head, mid = odd_groups[0][0], odd_groups[1][0]
        elif len(odd_groups) == 0 and groups:
            big = max(groups, key=lambda g: (len(g) >= 2, entries[g[0]].real))
            if len(big) >= 2:
                head, mid = big[0], big[1]
        if head is not None:
            witness = [None] * n
            witness[0] = head
            witness[n // 2] = mid
            for t, (i, j) in enumerate(pair_stream({head, mid})):
                witness[1 + t] = i
                witness[n - 1 - t] = j
            circulant_witness = tuple(witness)

    skew_witness = None
    want_odd = 1 if n % 2 == 1 else 0
    if len(odd_groups) == want_odd:
        witness = [None] * n
        exclude = set()
        if n % 2 == 1:
            witness[(n - 1) // 2] = odd_groups[0][0]
            exclude = {odd_groups[0][0]}
        for t, (i, j) in enumerate(pair_stream(exclude)):
            witness[t] = i
            witness[n - 1 - t] = j
        skew_witness = tuple(witness)

    # The deterministic fill can only fail if parity bookkeeping was wrong,
    # so re-check rather than trust it.
    if circulant_witness is not None and not satisfies_circulant_pairing(
        entries, circulant_witness, tol
    ):
        circulant_witness = None
    if skew_witness is not None and not satisfies_skew_pairing(
        entries, skew_witness, tol
    ):
        skew_witness = None

    return PairingReport(
        is_circulant_compatible=circulant_witness is not None,
        is_skew_compatible=skew_witness is not None,
        circulant_witness=circulant_witness,
        skew_witness=skew_witness,
        conjugate_pairs=partner,
    )


def _layout_partners(n, kind):
    """Position holding the conjugate partner of each position of a layout.

    Position 0 of the circulant layout is the head; it is its own partner
    but must hold a real entry rather than a self-conjugate one.
    """
    k = np.arange(n)
    if kind == "circulant":
        return -k % n
    return n - 1 - k


def _orderings(entries, kind, limit, cap, dedup):
    """The pairing-preserving orderings of ``entries`` as a read-only
    ``(K, n)`` index array, one image tuple per row, in lexicographic order.

    The orderings depend on the values only through their pairing
    structure, so they are generated once per structure and kept in a
    fixed-size cache (:func:`_generate`).  The key is the order, the kind,
    the compatibility matrix ``|e_j - conj(e_i)| <= tol``, whether the head
    is real within tol, the exact-equality labels (the first index holding
    an ``==`` value), ``limit`` and ``dedup``: exactly what the generator
    reads.  Validation and the size cap come first, so a warm cache still
    raises.  Without ``dedup`` the generator runs uncached: every raw
    ordering of k exactly equal entries is kept (k! of them), and the cache
    would hold them for the life of the process.
    """
    entries = as_complex_vector(entries)
    n = entries.size
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    if n > cap and limit is None:
        raise EnumerationCapError(
            f"exhaustive enumeration requested for n={n} above cap {cap}; "
            "pass a larger cap explicitly to override"
        )
    tol = pairing_tolerance(entries)
    compatible = _conjugate_distance(entries[None, :], entries[:, None]) <= tol
    labels = np.argmax(entries[:, None] == entries[None, :], axis=1)
    head_real = bool(abs(entries[0].imag) <= tol)
    generate = _generate if dedup else _generate.__wrapped__
    return generate(
        n, kind, compatible.tobytes(), head_real, labels.tobytes(), limit, dedup
    )


@functools.lru_cache(maxsize=64)
def _generate(n, kind, compatible, head_real, labels, limit, dedup):
    """Generate the orderings of one pairing structure (see :func:`_orderings`).

    Orderings are built position by position, 0 to n-1, trying original
    indices in increasing order, so they come out in lexicographic order of
    the image tuple without generating and filtering all n! permutations;
    the cost scales with the number of orderings kept (plus the dead ends
    of partial placements), not with n!.  Index j may go to a position whose
    layout partner already holds index i when ``compatible[i][j]``, that is
    |e_j - conj(e_i)| <= tol with the tolerance of
    :func:`pairing_tolerance`; a self-partnered position (the skew middle,
    the circulant position n/2) takes only indices compatible with
    themselves.  This is the test the ``satisfies_*`` predicates apply, so
    every generated ordering passes them and no ordering passing them is
    missed.  The circulant head is not searched: index 0 stays at position
    0 and must be real within tol (``head_real``).

    With ``dedup``, an index is skipped at a position when an index with
    the same label (an exactly equal value, ``==``, not the pairing
    tolerance) was already tried there.  Exactly equal entries are
    interchangeable, so the ordering kept for each distinct reordered list
    is the lexicographically first one, and k repeated values cost one
    branch rather than k!.
    """
    compatible = np.frombuffer(compatible, dtype=bool).reshape(n, n).tolist()
    labels = np.frombuffer(labels, dtype=np.intp).tolist()
    # the other indices each index may sit opposite
    mates = [[j for j in range(n) if j != i and compatible[i][j]] for i in range(n)]
    partner = _layout_partners(n, kind).tolist()
    order = [-1] * n
    used = [False] * n
    out = []
    first = 0
    if kind == "circulant":
        if not head_real:
            return _frozen(out, n)
        order[0] = 0
        used[0] = True
        first = 1
    if first == n:
        return _frozen([] if limit == 0 else [order], n)

    # next index to try at each position, and the labels already tried there
    cursor = [0] * n
    tried = [[] for _ in range(n)]
    pos = first
    while pos >= first and (limit is None or len(out) < limit):
        placed = order[pos]
        if placed >= 0:
            used[placed] = False
            order[pos] = -1
        mate = partner[pos]
        chosen = -1
        for i in range(cursor[pos], n):
            if used[i]:
                continue
            if mate < pos:
                if not compatible[order[mate]][i]:
                    continue
            elif mate == pos:
                if not compatible[i][i]:
                    continue
            elif all(used[j] for j in mates[i]):
                # the partner position, placed later, could take nothing
                continue
            if dedup and labels[i] in tried[pos]:
                continue
            chosen = i
            break
        if chosen < 0:
            pos -= 1
            continue
        cursor[pos] = chosen + 1
        if dedup:
            tried[pos].append(labels[chosen])
        order[pos] = chosen
        used[chosen] = True
        if pos == n - 1:
            out.append(tuple(order))
        else:
            pos += 1
            cursor[pos] = 0
            tried[pos].clear()
    return _frozen(out, n)


def _frozen(rows, n):
    out = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    out.flags.writeable = False
    return out


def enumerate_circulant_permutations(
    entries, limit=None, cap=DEFAULT_ENUMERATION_CAP, dedup=True
):
    """All permutations fixing 0 whose reordering keeps the circulant layout.

    Results come in lexicographic order of the image tuple, truncated at
    ``limit`` when given.  With ``dedup`` (the default), permutations whose
    reordered lists coincide are collapsed to the lexicographically first.
    Raises :class:`EnumerationCapError` for unlimited enumeration above
    ``cap``.
    """
    rows = _orderings(entries, "circulant", limit, cap, dedup).tolist()
    return [PairingPermutation(tuple(row), "circulant") for row in rows]


def enumerate_skew_permutations(
    entries, limit=None, cap=DEFAULT_ENUMERATION_CAP, dedup=True
):
    """All permutations whose reordering keeps the skew pairing layout."""
    rows = _orderings(entries, "skew", limit, cap, dedup).tolist()
    return [PairingPermutation(tuple(row), "skew") for row in rows]
