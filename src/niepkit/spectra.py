"""Conjugate-pairing structure of candidate spectra.

A length-n list is *circulant compatible* when it can be reordered so that
position 0 holds a real number and position n-k holds the conjugate of
position k for k = 1..n-1; real circulant matrices have exactly such
spectra.  It is *skew compatible* when a reordering satisfies the mirrored
layout in which position n-1-k holds the conjugate of position k for every
k; real skew circulant matrices have exactly such spectra.

This module enumerates every pairing-preserving permutation (the search
space used by the sufficient condition checker in :mod:`niepkit.realize`).
One backtracking generator codes the layouts, and the enumerators return
its orderings; a list is compatible with a layout when
``enumerate_*_permutations(entries, limit=1)`` is nonempty, and that one
ordering is its witness.  The orderings are generated position by position
rather than filtered out of all n! permutations, and per-component counts
cut every placement that no completion can follow, so the cost scales with
the number of orderings kept, not with n!.

The orderings depend on a list only through its pairing structure: which
entries may sit opposite which (``|e_j - conj(e_i)| <= tol``) and which
entries are exactly equal.  Every generic list of a given order and layout
shares one structure, so the orderings are generated once per structure
(and per ``limit``) and kept, as read-only index arrays, in a
least-recently-used cache of a fixed 64 entries.  The cache has no
setting; the public functions return a fresh list on every call.

Three conventions hold throughout:

* Circulant enumeration fixes index 0 as the head (position 0); only the
  tail is reordered.
* An entry is *real* when it is compatible with itself,
  ``|e - conj(e)| = 2|Im e| <= tol``: it may then sit at a self-partnered
  position (the circulant head, the circulant position n/2, the skew
  middle).
* Pairing compares values within the relative tolerance of
  :func:`pairing_tolerance` (1e-12 * max modulus), while orderings are
  merged only when their reordered lists are exactly equal.  Two entries
  closer than the tolerance but not equal therefore still give two
  orderings.

All functions are pure and deterministic; enumeration order is the
lexicographic order of the permutation image tuples.
"""

import functools
from dataclasses import dataclass

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


def _satisfies(entries, order, tol, kind):
    entries = as_complex_vector(entries)
    if order is not None:
        entries = entries[list(order)]
    if tol is None:
        tol = pairing_tolerance(entries)
    mates = _layout_partners(entries.size, kind)
    return bool(np.all(_conjugate_distance(entries[mates], entries) <= tol))


def satisfies_circulant_pairing(entries, order=None, tol=None):
    """True when ``entries`` (optionally reordered) has the circulant layout."""
    return _satisfies(entries, order, tol, "circulant")


def satisfies_skew_pairing(entries, order=None, tol=None):
    """True when ``entries`` (optionally reordered) has the skew layout."""
    return _satisfies(entries, order, tol, "skew")


def _layout_partners(n, kind):
    """Position holding the conjugate partner of each position of a layout.

    A self-partnered position (the circulant head and position n/2, the
    skew middle) holds an entry compatible with itself, a real one.
    """
    k = np.arange(n)
    if kind == "circulant":
        return -k % n
    return n - 1 - k


def _structure(entries, tol):
    """What the generator reads of a list, as key bytes: the compatibility
    matrix, ``compatible[i][j]`` when ``|e_j - conj(e_i)| <= tol`` (``e_j``
    may sit opposite ``e_i``; the diagonal marks the real entries), and the
    exact-equality labels (the first index holding an ``==`` value)."""
    compatible = _conjugate_distance(entries[None, :], entries[:, None]) <= tol
    labels = np.argmax(entries[:, None] == entries[None, :], axis=1)
    return compatible.tobytes(), labels.tobytes()


def _orderings(entries, kind, limit, cap):
    """The pairing-preserving orderings of ``entries`` as a read-only
    ``(K, n)`` index array, one image tuple per row, in lexicographic order.

    The orderings depend on the values only through their pairing
    structure, so they are generated once per structure and kept in a
    fixed-size cache (:func:`_generate`).  The key is the order, the kind,
    the compatibility matrix and labels of :func:`_structure` and
    ``limit``: exactly what the generator reads.  Validation and the size
    cap come first, so a warm cache still raises.
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
    compatible, labels = _structure(entries, tol)
    return _generate(n, kind, compatible, labels, limit)


@functools.lru_cache(maxsize=64)
def _generate(n, kind, compatible, labels, limit):
    """Generate the orderings of one pairing structure (see :func:`_orderings`).

    Orderings are built position by position, 0 to n-1, trying original
    indices in increasing order, so they come out in lexicographic order of
    the image tuple without generating and filtering all n! permutations.
    Index j may go to a position whose layout partner already holds index i
    when ``compatible[i][j]``, that is |e_j - conj(e_i)| <= tol with the
    tolerance of :func:`pairing_tolerance`; a self-partnered position (the
    skew middle, the circulant position n/2) takes only indices compatible
    with themselves.  This is the test the ``satisfies_*`` predicates
    apply, so every generated ordering passes them and no ordering passing
    them is missed.  The circulant head is not searched: index 0 stays at
    position 0, which is self-partnered, so it must be compatible with
    itself.

    Partners are compatible, so they lie in one component of the graph
    ``compatible`` on the indices to place.  In both layouts every opener
    position (its partner comes later) precedes the self-partnered one, if
    any, which precedes every forced position.  The *room* of a component
    is the number of its unused indices that no placed index has claimed
    as its partner.  An opener takes an index only if that room is at least
    2 and spends 2 (the index and its partner); the self-partnered position
    takes one only if the room is odd and spends 1; a forced position
    spends nothing.  A completed ordering leaves every room at 0, and
    placing an index never raises one, so a room below 0, or an even room
    at the self-partnered position (the last to spend), never returns to
    0: a placement refused by these counts has no completion, and the
    output is that of the unpruned search.  At the start, a completion
    needs as many odd-sized components as self-partnered positions (0 or
    1), and equal sides in every bipartite component (one without a
    self-compatible index).  When every component is a clique or
    complete bipartite (every list without chained near-ties, values
    within tol of a common partner but not of each other), these counts
    leave no dead ends, so the cost scales with the number of orderings
    kept, not with n!.

    An index is skipped at a position when an index with the same label
    (an exactly equal value, ``==``, not the pairing tolerance) was already
    tried there.  Exactly equal entries are interchangeable, so the ordering
    kept for each distinct reordered list is the lexicographically first
    one, and k repeated values cost one branch rather than k!.
    """
    compatible = np.frombuffer(compatible, dtype=bool).reshape(n, n).tolist()
    labels = np.frombuffer(labels, dtype=np.intp).tolist()
    partner = _layout_partners(n, kind).tolist()
    order = [-1] * n
    used = [False] * n
    out = []
    first = 0
    if kind == "circulant":
        if not compatible[0][0]:
            return _frozen(out, n)
        order[0] = 0
        used[0] = True
        first = 1
    if first == n:
        return _frozen([] if limit == 0 else [order], n)
    component, room = _rooms(compatible, first)
    selves = sum(partner[pos] == pos for pos in range(first, n))
    if room is None or sum(r % 2 for r in room) != selves:
        return _frozen(out, n)
    # the room each position spends on its index
    spend = [2 if partner[pos] > pos else int(partner[pos] == pos) for pos in range(n)]

    # next index to try at each position, and the labels already tried there
    cursor = [0] * n
    tried = [[] for _ in range(n)]
    pos = first
    while pos >= first and (limit is None or len(out) < limit):
        placed = order[pos]
        if placed >= 0:
            used[placed] = False
            order[pos] = -1
            room[component[placed]] += spend[pos]
        mate = partner[pos]
        chosen = -1
        for i in range(cursor[pos], n):
            if used[i]:
                continue
            if mate < pos:
                if not compatible[order[mate]][i]:
                    continue
            elif mate == pos:
                if not (compatible[i][i] and room[component[i]] % 2):
                    continue
            elif room[component[i]] < 2:
                continue
            if labels[i] in tried[pos]:
                continue
            chosen = i
            break
        if chosen < 0:
            pos -= 1
            continue
        cursor[pos] = chosen + 1
        tried[pos].append(labels[chosen])
        order[pos] = chosen
        used[chosen] = True
        room[component[chosen]] -= spend[pos]
        if pos == n - 1:
            out.append(tuple(order))
        else:
            pos += 1
            cursor[pos] = 0
            tried[pos].clear()
    return _frozen(out, n)


def _rooms(compatible, first):
    """The component of each index ``first..n-1`` in the graph
    ``compatible`` and the size of each component, or ``(None, None)`` when
    a bipartite component without a self-compatible index has unequal
    sides and so no perfect pairing."""
    n = len(compatible)
    component = [-1] * n
    side = [0] * n
    room = []
    for root in range(first, n):
        if component[root] >= 0:
            continue
        component[root] = len(room)
        members = [root]
        for i in members:  # breadth first: the loop reads what it appends
            for j in range(first, n):
                if compatible[i][j] and component[j] < 0:
                    component[j] = len(room)
                    side[j] = 1 - side[i]
                    members.append(j)
        room.append(len(members))
        # a self-compatible index (i == j) also makes the test fail
        bipartite = all(
            side[i] != side[j] for i in members for j in members if compatible[i][j]
        )
        if bipartite and 2 * sum(side[i] for i in members) != len(members):
            return None, None
    return component, room


def _frozen(rows, n):
    out = np.array(rows, dtype=np.intp).reshape(len(rows), n)
    out.flags.writeable = False
    return out


def enumerate_circulant_permutations(entries, limit=None, cap=DEFAULT_ENUMERATION_CAP):
    """All permutations fixing 0 whose reordering keeps the circulant layout.

    Results come in lexicographic order of the image tuple, truncated at
    ``limit`` when given.  Permutations whose reordered lists coincide are
    collapsed to the lexicographically first.  Raises
    :class:`EnumerationCapError` for unlimited enumeration above ``cap``.
    """
    rows = _orderings(entries, "circulant", limit, cap).tolist()
    return [PairingPermutation(tuple(row), "circulant") for row in rows]


def enumerate_skew_permutations(entries, limit=None, cap=DEFAULT_ENUMERATION_CAP):
    """All permutations whose reordering keeps the skew pairing layout."""
    rows = _orderings(entries, "skew", limit, cap).tolist()
    return [PairingPermutation(tuple(row), "skew") for row in rows]
