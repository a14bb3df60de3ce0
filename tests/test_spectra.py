import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from niepkit import spectra
from niepkit.errors import EnumerationCapError
from niepkit.spectra import (
    _layout_partners,
    enumerate_circulant_permutations,
    enumerate_skew_permutations,
    pairing_tolerance,
    satisfies_circulant_pairing,
    satisfies_skew_pairing,
)

UPSILON = [(5 - 1j * np.sqrt(3)) / 2, 7, (5 + 1j * np.sqrt(3)) / 2]


def _witness(kind, entries):
    """The first ordering of ``kind`` (``enumerate_*(entries, limit=1)``), or
    ``None`` when the list is not compatible with that layout."""
    found = ENUMERATORS[kind](entries, limit=1)
    return found[0].mapping if found else None


def _pairs(kind, order):
    """Which entry sits opposite which in the layout ``order`` realizes."""
    partner = _layout_partners(len(order), kind)
    return {i: order[partner[k]] for k, i in enumerate(order)}


class TestClassify:
    """A list is compatible with a layout when the enumerator of that
    layout returns an ordering; its first ordering is the witness."""

    def test_circulant_witness_matches_known_ordering(self):
        entries = [15, 1, 2 + 5j, 2 - 5j]
        witness = _witness("circulant", entries)
        assert witness is not None
        witness_values = [entries[i] for i in witness]
        assert witness_values == [15, 2 + 5j, 1, 2 - 5j]
        assert satisfies_circulant_pairing(entries, witness)

    def test_skew_compatible(self):
        entries = [7, (5 + 1j * np.sqrt(3)) / 2, (5 - 1j * np.sqrt(3)) / 2]
        witness = _witness("skew", entries)
        assert witness is not None
        ordered = [entries[i] for i in witness]
        assert satisfies_skew_pairing(ordered)

    def test_singleton_real(self):
        assert _witness("circulant", [1]) == (0,)
        assert _witness("skew", [1]) == (0,)

    def test_not_conjugate_closed(self):
        assert _witness("circulant", [1, 2 + 1j, 3]) is None
        assert _witness("skew", [1, 2 + 1j, 3]) is None

    def test_conjugate_pair_map(self):
        pairs = _pairs("skew", _witness("skew", [5, 2 + 1j, 2 - 1j]))
        assert pairs[1] == 2
        assert pairs[2] == 1
        assert pairs[0] == 0

    def test_distinct_reals_even_order(self):
        # two distinct reals fill the two unpaired slots of an even list
        assert _witness("circulant", [5, 3]) is not None
        assert _witness("skew", [5, 3]) is None


class TestEnumerateCirculant:
    def test_known_list_contains_identity(self):
        entries = [15, 2 + 5j, 1, 2 - 5j]
        perms = enumerate_circulant_permutations(entries)
        mappings = [p.mapping for p in perms]
        assert (0, 1, 2, 3) in mappings
        assert mappings == [(0, 1, 2, 3), (0, 3, 2, 1)]
        for p in perms:
            assert satisfies_circulant_pairing(entries, p.mapping)
            assert p.mapping[0] == 0

    def test_all_real_list(self):
        # both permutations fixing 0 pass the pairing filter; they reorder
        # the list identically, so only the lexicographic first is kept
        entries = [5.0, 2.0, 2.0]
        deduped = enumerate_circulant_permutations(entries)
        assert [p.mapping for p in deduped] == [(0, 1, 2)]

    def test_limit_truncates_to_lexicographic_first(self):
        entries = [15, 2 + 5j, 1, 2 - 5j]
        perms = enumerate_circulant_permutations(entries, limit=1)
        assert [p.mapping for p in perms] == [(0, 1, 2, 3)]

    def test_cap_exceeded(self):
        entries = [1.0] * 11
        with pytest.raises(EnumerationCapError):
            enumerate_circulant_permutations(entries)
        # explicit override or truncation both allowed
        assert enumerate_circulant_permutations(entries, limit=1)
        assert enumerate_circulant_permutations(entries, cap=11, limit=1)


class TestEnumerateSkew:
    def test_identity_qualifies_for_ordered_list(self):
        perms = enumerate_skew_permutations(UPSILON)
        mappings = [p.mapping for p in perms]
        assert (0, 1, 2) in mappings
        assert mappings == [(0, 1, 2), (2, 1, 0)]
        for p in perms:
            assert satisfies_skew_pairing(UPSILON, p.mapping)

    def test_all_real_pair(self):
        entries = [3.0, 3.0]
        assert [p.mapping for p in enumerate_skew_permutations(entries)] == [(0, 1)]

    def test_limit_zero(self):
        assert enumerate_skew_permutations(UPSILON, limit=0) == []


def _pairing_filter(entries, kind):
    """Every permutation (fixing 0 for the circulant kind) that passes the
    pairing predicate, in lexicographic order: the n! filter the generator
    replaced, kept as the reference."""
    entries = np.asarray(entries, dtype=complex)
    n = entries.size
    tol = pairing_tolerance(entries)
    if kind == "circulant":
        candidates = ((0,) + tail for tail in itertools.permutations(range(1, n)))
        check = satisfies_circulant_pairing
    else:
        candidates = itertools.permutations(range(n))
        check = satisfies_skew_pairing
    return tuple(perm for perm in candidates if check(entries, perm, tol))


def _brute_force(entries, kind, limit=None, filtered=None):
    """Reference enumeration: the pairing filter (or its precomputed result
    ``filtered``), then exact-value dedup and truncation at ``limit`` in the
    same order as the original loop."""
    if filtered is None:
        filtered = _pairing_filter(entries, kind)
    out, seen = [], set()
    for perm in filtered:
        if limit is not None and len(out) >= limit:
            break
        key = tuple(complex(entries[i]) for i in perm)
        if key in seen:
            continue
        seen.add(key)
        out.append(perm)
    return out


@pytest.mark.parametrize("seed", range(6))
def test_enumeration_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    # random conjugate-closed list in scrambled order
    pairs = (n - (n % 2)) // 2
    entries = []
    for _ in range(pairs):
        z = complex(rng.normal(), rng.normal())
        entries += [z, z.conjugate()]
    while len(entries) < n:
        entries.append(complex(rng.normal()))
    rng.shuffle(entries)

    for kind, enum in (
        ("circulant", enumerate_circulant_permutations),
        ("skew", enumerate_skew_permutations),
    ):
        got = [p.mapping for p in enum(entries)]
        assert got == _brute_force(entries, kind)


def test_results_are_self_consistent():
    entries = [15, 2 + 5j, 1, 2 - 5j]
    perms = enumerate_circulant_permutations(entries)
    refiltered = [p for p in perms if satisfies_circulant_pairing(entries, p.mapping)]
    assert refiltered == perms
    skew = enumerate_skew_permutations(UPSILON)
    assert [p for p in skew if satisfies_skew_pairing(UPSILON, p.mapping)] == skew


ENUMERATORS = {
    "circulant": enumerate_circulant_permutations,
    "skew": enumerate_skew_permutations,
}


def _structured_lists(n, rng):
    """Conjugate-closed lists of length n with repeated reals, repeated
    conjugate pairs, all-equal entries and random entries, scrambled."""
    z = complex(rng.normal(), abs(rng.normal()) + 0.1)
    r = float(rng.normal())
    repeated_reals = [r] * (n - n // 2) + [float(rng.normal())] * (n // 2)
    repeated_pairs = [z, z.conjugate()] * (n // 2) + [r] * (n % 2)
    mixed = ([z, z.conjugate()] * (n // 4) + [r, r] * ((n % 4) // 2)
             + [2.0 * r] * (n % 2))
    random = []
    while len(random) + 2 <= n:
        w = complex(rng.normal(), rng.normal())
        random += [w, w.conjugate()]
    random += [float(rng.normal())] * (n - len(random))
    lists = [repeated_reals, repeated_pairs, mixed, random, [1.5] * n]
    for entries in lists:
        rng.shuffle(entries)
    return lists


def _assert_matches_brute_force(entries):
    for kind, enum in ENUMERATORS.items():
        filtered = _pairing_filter(entries, kind)
        for limit in (None, 0, 1, 3):
            got = [p.mapping for p in enum(entries, limit=limit)]
            want = _brute_force(entries, kind, limit, filtered)
            assert got == want, (kind, limit, entries)


@pytest.mark.parametrize("n", range(1, 9))
def test_generator_matches_brute_force(n):
    rng = np.random.default_rng(100 + n)
    lists = _structured_lists(n, rng)
    if n == 8:
        # the skew filter costs 8! predicate calls per list
        lists = lists[1:3] + lists[4:]
    for entries in lists:
        _assert_matches_brute_force(entries)


@pytest.mark.parametrize("inside", [True, False])
def test_near_duplicates_at_the_pairing_tolerance(inside):
    # tol = 1e-12 * max|z| = 4e-12; perturb partners just inside or outside
    step = (0.9 if inside else 1.1) * 1e-12 * 4.0
    z = complex(1.0, 2.0)
    lists = [
        [4.0, z, complex(z.real + step, -z.imag), 2.0, 2.0 + step],
        [4.0 + 0.5j * step, z, z.conjugate(), 2.0, 2.0],
        [2.0, 4.0, 2.0 + step, 1.0j * step / 2.0],
        [z, complex(z.real, -z.imag + step), 4.0, z, z.conjugate(), 3.0],
    ]
    for entries in lists:
        assert max(abs(complex(e)) for e in entries) == pytest.approx(4.0)
        _assert_matches_brute_force(entries)
    # the perturbed pairs pair, and the perturbed head is real (2|Im| = step),
    # exactly when inside the tolerance
    assert bool(enumerate_skew_permutations(lists[0])) == inside
    assert bool(enumerate_circulant_permutations(lists[1])) == inside


def test_all_equal_ten_costs_one_branch():
    assert [p.mapping for p in enumerate_skew_permutations([1.0] * 10, cap=10)] == [
        tuple(range(10))
    ]


def _reference_satisfies_circulant(entries, order=None, tol=None):
    """The original position-by-position circulant layout test; the head,
    position 0, is its own partner."""
    entries = np.asarray(entries, dtype=complex)
    if order is not None:
        entries = entries[list(order)]
    if tol is None:
        tol = pairing_tolerance(entries)
    n = entries.size
    for k in range(n):
        if abs(entries[-k % n] - entries[k].conjugate()) > tol:
            return False
    return True


def _reference_satisfies_skew(entries, order=None, tol=None):
    """The original position-by-position skew layout test."""
    entries = np.asarray(entries, dtype=complex)
    if order is not None:
        entries = entries[list(order)]
    if tol is None:
        tol = pairing_tolerance(entries)
    n = entries.size
    for k in range(n):
        if abs(entries[n - 1 - k] - entries[k].conjugate()) > tol:
            return False
    return True


_PART = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def _near_layouts(draw):
    """A list in (or near) a pairing layout, an optional reordering and a
    tolerance that is often exactly one of the list's partner distances, or
    the float just below it."""
    kind = draw(st.sampled_from(["circulant", "skew"]))
    n = draw(st.integers(1, 8))
    entries = np.array(
        [complex(draw(_PART), draw(_PART)) for _ in range(n)], dtype=complex
    )
    partner = _layout_partners(n, kind)
    for k in range(n):
        if partner[k] > k and draw(st.booleans()):
            # a partner at the conjugate, nudged by a few ulps or a tiny step
            nudge = draw(st.sampled_from([0.0, 1e-15, 3e-13, 1e-12, 1e-9]))
            entries[partner[k]] = entries[k].conjugate() + complex(
                draw(st.sampled_from([-1, 0, 1])) * nudge,
                draw(st.sampled_from([-1, 0, 1])) * nudge,
            )
        elif partner[k] == k and draw(st.booleans()):
            entries[k] = complex(entries[k].real, draw(st.sampled_from([0.0, 1e-13, 1e-11])))
    order = draw(st.none() | st.permutations(range(n)))
    laid = entries if order is None else entries[list(order)]
    distances = [abs(laid[partner[k]] - laid[k].conjugate()) for k in range(n)]
    distances += [abs(laid[0].imag)]
    tol = draw(st.none() | st.sampled_from(distances))
    if tol is not None and draw(st.booleans()):
        tol = float(np.nextafter(tol, -1.0)) if tol > 0 else tol
    return entries, order, tol


@settings(max_examples=400, deadline=None)
@given(case=_near_layouts())
def test_vectorized_predicates_match_loops(case):
    entries, order, tol = case
    assert satisfies_circulant_pairing(entries, order, tol) == _reference_satisfies_circulant(
        entries, order, tol
    )
    assert satisfies_skew_pairing(entries, order, tol) == _reference_satisfies_skew(
        entries, order, tol
    )


def test_predicates_at_the_tolerance():
    z = complex(1.0, 2.0)
    mate = complex(1.0 + 3e-12, -2.0)
    gap = abs(mate - z.conjugate())
    for tol, verdict in ((gap, True), (float(np.nextafter(gap, 0.0)), False)):
        assert satisfies_skew_pairing([z, 5.0, mate], tol=tol) is verdict
        assert satisfies_circulant_pairing([5.0, z, mate], tol=tol) is verdict
        assert _reference_satisfies_skew([z, 5.0, mate], tol=tol) is verdict
    head = complex(5.0, gap / 2)  # |head - conj(head)| == gap
    assert satisfies_circulant_pairing([head, z, z.conjugate()], tol=gap)
    assert not satisfies_circulant_pairing(
        [head, z, z.conjugate()], tol=float(np.nextafter(gap, 0.0))
    )


class TestOrderingCache:
    def test_warm_cache_still_enforces_the_cap(self):
        entries = [1.0] * 11
        for enum in ENUMERATORS.values():
            assert enum(entries, cap=11)
            with pytest.raises(EnumerationCapError):
                enum(entries)
            with pytest.raises(ValueError):
                enum(entries, cap=11, limit=-1)

    def test_cached_arrays_are_read_only_and_lists_fresh(self):
        entries = [15, 2 + 5j, 1, 2 - 5j]
        first = spectra._orderings(entries, "circulant", None, 10)
        assert spectra._orderings(entries, "circulant", None, 10) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1
        perms = enumerate_circulant_permutations(entries)
        again = enumerate_circulant_permutations(entries)
        assert perms == again and perms is not again
        perms.clear()
        assert enumerate_circulant_permutations(entries) == again

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_scrambled_lists_miss_and_match_brute_force(self, n):
        rng = np.random.default_rng(200 + n)
        base = _structured_lists(n, rng)[3]
        for _ in range(4):
            entries = list(rng.permutation(np.asarray(base, dtype=complex)))
            spectra._generate.cache_clear()
            _assert_matches_brute_force(entries)
            # two kinds x four limits, each generated and cached
            info = spectra._generate.cache_info()
            assert (info.hits, info.misses, info.currsize) == (0, 8, 8)

    def test_head_realness_is_part_of_the_key(self):
        # the head is real (2|Im| <= tol) on one list and not on the other;
        # everything else the generator reads is the same
        tol = 1e-12 * 4.0
        z = complex(1.0, 2.0)
        real_head = [complex(3.0, 0.375 * tol), z, 4.0, z.conjugate()]
        complex_head = [complex(3.0, 0.625 * tol), z, 4.0, z.conjugate()]
        for lists in ((real_head, complex_head), (complex_head, real_head)):
            spectra._generate.cache_clear()
            for entries in lists:
                _assert_matches_brute_force(entries)
        assert enumerate_circulant_permutations(real_head)
        assert enumerate_circulant_permutations(complex_head) == []

    def test_exact_equality_is_part_of_the_key(self):
        # the two 2.0 entries pair within tol on both lists, but only one
        # list has them exactly equal, which the enumerators merge
        tol = 1e-12 * 4.0
        equal = [4.0, 2.0, 2.0]
        near = [4.0, 2.0, 2.0 + 0.5 * tol]
        for lists in ((equal, near), (near, equal)):
            spectra._generate.cache_clear()
            for entries in lists:
                _assert_matches_brute_force(entries)
        assert len(enumerate_circulant_permutations(equal)) == 1
        assert len(enumerate_circulant_permutations(near)) == 2


def _reference_generate(n, kind, compatible, head_real, labels, limit, dedup):
    """The generator before the component counts, kept as the reference: it
    prunes an opener only when no unused index may sit opposite it."""
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
            return spectra._frozen(out, n)
        order[0] = 0
        used[0] = True
        first = 1
    if first == n:
        return spectra._frozen([] if limit == 0 else [order], n)

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
    return spectra._frozen(out, n)


def _list_structure(entries):
    """The generator arguments of a list, less kind and limit."""
    entries = np.asarray(entries, dtype=complex)
    compatible, labels = spectra._structure(entries, pairing_tolerance(entries))
    return entries.size, compatible, labels


def _assert_generator_matches_reference(n, compatible, labels):
    """Both kinds at four limits; the reference reads the head's realness
    apart, as the diagonal entry."""
    head_real = bool(compatible[0])
    for kind in ("circulant", "skew"):
        for limit in (None, 0, 1, 3):
            args = (n, kind, compatible, labels, limit)
            got = spectra._generate.__wrapped__(*args)
            want = _reference_generate(n, kind, compatible, head_real, labels, limit, True)
            assert got.shape == want.shape and np.array_equal(got, want), args


# tol = 1e-12 * max|z| = 4e-12 on every list below
_T = 4e-12
_Z = complex(1.0, 2.0)

#: Near-tie chains: values within tol of a common partner but not of each
#: other, so a component of the compatibility graph is not a clique.
CHAIN_LISTS = [
    # real chains
    [4.0, 2.0, 2.0 + 0.6 * _T, 2.0 + 1.2 * _T, 1.0],
    [2.0 + 1.8 * _T, 4.0, 2.0, 3.0, 2.0 + 0.6 * _T, 2.0 + 1.2 * _T],
    # conjugate chains
    [4.0, _Z, _Z + 1.2 * _T, _Z.conjugate() + 0.5 * _T, _Z.conjugate() - 0.5 * _T],
    [_Z, _Z.conjugate() + 0.6 * _T, _Z + 1.2 * _T, 4.0, _Z.conjugate() + 1.8 * _T, 3.0],
    # near-reals with |Im| from 0.3 to 0.6 tol: they pair with one another,
    # but those with 2|Im| > tol are not compatible with themselves, so not
    # real: they may neither head a circulant nor sit at a self-partnered
    # position
    [4.0, 3.0 + 0.6j * _T, 3.0 + 0.3j * _T, 3.0 - 0.6j * _T, 2.0 + 0.4j * _T,
     2.0 - 0.4j * _T, 0.55j * _T],
]


@pytest.mark.parametrize("n", range(1, 11))
def test_generator_matches_reference_on_structured_lists(n):
    rng = np.random.default_rng(400 + n)
    for entries in _structured_lists(n, rng):
        _assert_generator_matches_reference(*_list_structure(entries))


@pytest.mark.parametrize("entries", CHAIN_LISTS)
def test_generator_matches_reference_on_chains(entries):
    assert max(abs(complex(e)) for e in entries) == 4.0
    _assert_generator_matches_reference(*_list_structure(entries))
    _assert_matches_brute_force(entries)


def _random_structure(n, rng):
    """A random symmetric compatibility matrix whose exactly equal entries
    (equal labels) have equal rows, as on any list."""
    value = rng.integers(0, n, size=n)
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.1, 0.7))
    compatible = (upper | upper.T)[np.ix_(value, value)]
    labels = np.argmax(value[:, None] == value[None, :], axis=1)
    return n, compatible.tobytes(), labels.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_generator_matches_reference_on_random_structures(seed):
    rng = np.random.default_rng(500 + seed)
    for _ in range(60):
        _assert_generator_matches_reference(*_random_structure(int(rng.integers(1, 9)), rng))


PREDICATES = {
    "circulant": satisfies_circulant_pairing,
    "skew": satisfies_skew_pairing,
}


def _assert_classified(entries):
    """The witness of each layout (:func:`_witness`) is the first ordering
    of the reference generator on the list's structure, or ``None`` when it
    has none, and passes the layout's predicate."""
    n, compatible, labels = _list_structure(entries)
    head_real = bool(compatible[0])
    witnesses = {}
    for kind, satisfies in PREDICATES.items():
        witness = _witness(kind, entries)
        first = _reference_generate(n, kind, compatible, head_real, labels, 1, True)
        assert witness == (tuple(first[0].tolist()) if len(first) else None), (kind, entries)
        if witness is not None:
            assert satisfies(entries, witness)
        witnesses[kind] = witness
    return witnesses


def test_classify_agrees_with_the_enumerators_on_a_conjugate_chain():
    # each nonreal entry is within tol of a conjugate of the other sign,
    # but the two upper entries are not within tol of each other's partners
    entries = CHAIN_LISTS[2]
    witnesses = _assert_classified(entries)
    assert None not in witnesses.values()
    assert len(enumerate_circulant_permutations(entries)) == 8
    assert len(enumerate_skew_permutations(entries)) == 8


@pytest.mark.parametrize("n", range(1, 10))
def test_classify_is_a_view_of_the_enumerators(n):
    rng = np.random.default_rng(600 + n)
    lists = _structured_lists(n, rng)
    for entries in list(lists):
        # one entry replaced by a real, by a nonreal, or by a copy of another
        changed = list(entries)
        at = int(rng.integers(len(changed)))
        changed[at] = rng.choice(
            [float(rng.normal()), complex(rng.normal(), rng.normal()),
             changed[int(rng.integers(len(changed)))]]
        )
        lists.append(changed)
    for entries in lists:
        _assert_classified(entries)


_NEAR_DUPLICATES = [
    lst
    for step in (0.9 * _T, 1.1 * _T)
    for lst in (
        [4.0, _Z, complex(_Z.real + step, -_Z.imag), 2.0, 2.0 + step],
        [4.0 + 1j * step, _Z, _Z.conjugate(), 2.0, 2.0],
        [2.0, 4.0, 2.0 + step, 1.0j * step / 2.0],
    )
]


@pytest.mark.parametrize("entries", CHAIN_LISTS + _NEAR_DUPLICATES)
def test_classify_is_a_view_of_the_enumerators_on_near_ties(entries):
    _assert_classified(entries)


def test_realness_is_self_compatibility():
    # tol = 2e-12 >= |Im| but 2|Im| > tol: not real, so the entry may sit at
    # no self-partnered position, whether it heads the list or not
    entries = [2 + 1.5e-12j, 1.0, 1.0, 1.0]
    assert enumerate_circulant_permutations(entries) == []
    assert enumerate_circulant_permutations([1.0, 1.0, 2 + 1.5e-12j, 1.0]) == []
    assert not satisfies_circulant_pairing(entries)
    # neither near-real entry is compatible with itself: they pair with each
    # other, as in the skew witness
    witnesses = _assert_classified([4.0, 3.0 + 0.6j * _T, 3.0 - 0.6j * _T])
    assert witnesses["skew"] == (1, 0, 2)
    assert _pairs("skew", witnesses["skew"]) == {0: 0, 1: 2, 2: 1}


def _distinct_pairs(count):
    return [
        z
        for k in range(count)
        for z in (complex(1.0 + k, 1.0 + 0.5 * k), complex(1.0 + k, -1.0 - 0.5 * k))
    ]


@pytest.mark.parametrize(
    "entries",
    [
        # two distinct reals cannot both be self-partnered; the unpruned
        # search tried every opener choice before giving up (~2 minutes)
        _distinct_pairs(8) + [1.0, 2.0],
        # three copies of z with one conjugate: a bipartite component with
        # unequal sides (~40 s without the side count)
        [9 + 3j, 9 + 3j, 9 + 3j, 9 - 3j] + _distinct_pairs(6),
    ],
)
def test_skew_miss_has_no_dead_ends(entries):
    start = time.perf_counter()
    assert enumerate_skew_permutations(entries, limit=1, cap=99) == []
    assert time.perf_counter() - start < 2.0


def test_circulant_hit_after_dead_end_prefix():
    # three equal reals behind the head: the unpruned search opened with two
    # of them and then exhausted every arrangement of the pairs
    entries = [5.0, 1.0, 1.0, 1.0] + _distinct_pairs(8)
    start = time.perf_counter()
    perms = enumerate_circulant_permutations(entries, limit=1, cap=99)
    assert time.perf_counter() - start < 2.0
    assert len(perms) == 1
    assert satisfies_circulant_pairing(entries, perms[0].mapping)
