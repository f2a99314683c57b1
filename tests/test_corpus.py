"""Exhaustive generation cross-checked by an independent brute force oracle.

The oracle below re-enumerates every table at orders up to 3 with frozensets
and spelled out quantifiers, sharing no code with the generator: the package
builds tables from triple orbits and bit masks, the oracle filters the raw
product space. Counts and the tables themselves must agree exactly.

The labelled search of ``conftest.labelled_hypergroups``, the rule search
over the free triple orbits of every negation with no symmetry cut, is
refereed at order 4 by a plain loop over every subset of those orbits.
It referees in turn the class search of the package, which searches one
negation per conjugacy class: its classes must be the first labelled
table of each class key, sorted by their least relabeled table, and the
labelled counts the orbit-stabilizer sums over them; the sort key and the
automorphisms the class search keeps beside each class are checked with
this module's own relabeling loop.  Node and leaf counts pin the
symmetry cut inside the class search: every table it returns is a class.
The opt-in order-5 referees also run the product search against the
cell-by-cell search it replaced on every order-5 hypergroup class, and
the closed-subset search against the scan it replaced on every order-5
ring.
"""

import itertools
import math
from functools import lru_cache

import pytest

from krasner import core, corpus, ideals
from krasner.corpus import (
    HARD_ORDER_CAP,
    _orbit_splits,
    corpus_fingerprint,
    enumerate_hypergroups,
    generate_corpus,
    mult_tables,
    ring_canonical_key,
)
from krasner.core import HyperRing, TheoremViolationError, bits, hypergroup_checks
from krasner.ideals import SIDEDNESS, closed_subsets

from conftest import labelled_hypergroups


# oracle: canonical hypergroups as {(a, b): frozenset} dictionaries


def sum_over(add, xs, c):
    out = set()
    for x in xs:
        out |= add[(x, c)]
    return frozenset(out)


def is_canonical_hypergroup(add, n):
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = sum_over(add, add[(a, b)], c)
                right = sum_over(add, add[(b, c)], a)
                if left != right:
                    return False
    negatives = {}
    for a in range(n):
        inv = [b for b in range(n) if 0 in add[(a, b)]]
        if len(inv) != 1:
            return False
        negatives[a] = inv[0]
    for b in range(n):
        for c in range(n):
            for a in add[(b, c)]:
                if c not in add[(negatives[b], a)]:
                    return False
                if b not in add[(a, negatives[c])]:
                    return False
    return True


def brute_hypergroups(n):
    cells = [(a, b) for a in range(1, n) for b in range(a, n)]
    nonempty = [frozenset(c)
                for r in range(1, n + 1)
                for c in itertools.combinations(range(n), r)]
    found = []
    for choice in itertools.product(nonempty, repeat=len(cells)):
        add = {}
        for e in range(n):
            add[(0, e)] = frozenset([e])
            add[(e, 0)] = frozenset([e])
        for (a, b), v in zip(cells, choice):
            add[(a, b)] = v
            add[(b, a)] = v
        if is_canonical_hypergroup(add, n):
            found.append(add)
    return found


def is_hyperring_mul(add, mul, n):
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if mul[(mul[(a, b)], c)] != mul[(a, mul[(b, c)])]:
                    return False
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left = frozenset(mul[(a, x)] for x in add[(b, c)])
                if left != add[(mul[(a, b)], mul[(a, c)])]:
                    return False
                right = frozenset(mul[(x, c)] for x in add[(a, b)])
                if right != add[(mul[(a, c)], mul[(b, c)])]:
                    return False
    return True


def brute_rings(n):
    out = []
    for add in brute_hypergroups(n):
        for choice in itertools.product(range(n), repeat=(n - 1) * (n - 1)):
            mul = {}
            for e in range(n):
                mul[(0, e)] = 0
                mul[(e, 0)] = 0
            it = iter(choice)
            for a in range(1, n):
                for b in range(1, n):
                    mul[(a, b)] = next(it)
            if is_hyperring_mul(add, mul, n):
                out.append((add, mul))
    return out


def to_mask_table(add, n):
    return tuple(tuple(sum(1 << x for x in add[(a, b)]) for b in range(n))
                 for a in range(n))


def neg_of(add, n):
    return tuple(next(b for b in range(n) if 0 in add[(a, b)]) for a in range(n))


def to_mul_rows(mul, n):
    return tuple(tuple(mul[(a, b)] for b in range(n)) for a in range(n))


# oracle: every subset of the free orbits, kept when no cell is empty and
# the full validator fails nothing but associativity at most


def subset_loop_hypergroups(n):
    found = []
    for nu, base, free in _orbit_splits(n):
        requirements = []
        impossible = False
        for p in range(n):
            for q in range(n):
                cell = 0
                for r in range(n):
                    cell |= 1 << (p * n + q) * n + r
                if base & cell:
                    continue
                req = 0
                for i, omask in enumerate(free):
                    if omask & cell:
                        req |= 1 << i
                if not req:
                    impossible = True
                requirements.append(req)
        if impossible:
            continue
        for chosen in range(1 << len(free)):
            if any(not chosen & req for req in requirements):
                continue
            t_mask = base
            for i in bits(chosen):
                t_mask |= free[i]
            add = tuple(
                tuple(
                    sum(1 << r for r in range(n) if t_mask >> (p * n + q) * n + r & 1)
                    for q in range(n))
                for p in range(n))
            failed = [c.axiom for c in hypergroup_checks(n, add, nu) if not c.ok]
            if failed == ["associativity"]:
                continue
            if failed:
                raise TheoremViolationError("; ".join(failed))
            found.append((add, nu))
    return found


def relabel(add, perm):
    n = len(add)
    out = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(n):
            for r in range(n):
                if add[p][q] >> r & 1:
                    out[perm[p]][perm[q]] |= 1 << perm[r]
    return tuple(tuple(row) for row in out)


def zero_fixing(n):
    return [(0,) + rest for rest in itertools.permutations(range(1, n))]


def full_min(add):
    """The least relabeled table over every relabeling fixing 0."""
    return min(relabel(add, perm) for perm in zero_fixing(len(add)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypergroup_search_matches_subset_loop(n):
    found = subset_loop_hypergroups(n)
    assert labelled_hypergroups(n) == tuple(sorted(found))
    # the first table of each class in loop order represents it
    canon = {}
    for add, nu in found:
        canon.setdefault(full_min(add), (add, nu))
    assert enumerate_hypergroups(n) == tuple(canon[k] for k in sorted(canon))


@pytest.mark.parametrize("n, labelled", [(1, 1), (2, 2), (3, 15), (4, 390)])
def test_labelled_count_is_the_orbit_sum_over_classes(n, labelled):
    # a class of a table with automorphism group Aut (relabelings fixing 0
    # that leave it unchanged) holds (n - 1)! / |Aut| labelled tables
    total = 0
    for add, _ in enumerate_hypergroups(n):
        aut = sum(1 for perm in zero_fixing(n) if relabel(add, perm) == add)
        total += math.factorial(n - 1) // aut
    assert total == labelled == len(labelled_hypergroups(n))


def relabel_neg(nu, perm):
    out = [0] * len(nu)
    for a, b in enumerate(nu):
        out[perm[a]] = perm[b]
    return tuple(out)


# referee of the class path: a key on each labelled table, the first table
# found with each key representing its class


def class_key(add, nu, images):
    """Isomorphism class key of a hypergroup: the sorted invariants of its
    nonzero elements, and the least encoding over the relabelings fixing 0
    that list those elements in invariant order, ties in every order.  The
    invariant of a is (a is its own negative, |a + a|, sorted sizes of row a)."""
    n = len(add)
    inv = [(nu[a] == a, add[a][a].bit_count(), tuple(sorted(m.bit_count() for m in add[a])))
           for a in range(n)]
    ranked = sorted(range(1, n), key=inv.__getitem__)
    runs = [itertools.permutations(run)
            for _, run in itertools.groupby(ranked, key=inv.__getitem__)]
    orders = ((0,) + tuple(itertools.chain.from_iterable(p)) for p in itertools.product(*runs))
    return (tuple(inv[a] for a in ranked),
            min(corpus._relabel(add, order, images[order]) for order in orders))


def chosen(add, free):
    """The bit set of the free orbits that the table includes."""
    n = len(add)
    t = sum(1 << (p * n + q) * n + r for p in range(n) for q in range(n) for r in bits(add[p][q]))
    assert all(t & o in (0, o) for o in free)
    return sum(1 << i for i, o in enumerate(free) if t & o)


def first_of_each_class(n):
    # the labelled tables in search order: by negation, then by bit set
    splits = {nu: (i, free) for i, (nu, _, free) in enumerate(_orbit_splits(n))}
    labelled = sorted(labelled_hypergroups(n),
                      key=lambda t: (splits[t[1]][0], chosen(t[0], splits[t[1]][1])))
    images = {order: image for order, _, image in corpus._relabelings(n)}
    classes = {}
    for add, nu in labelled:
        classes.setdefault(class_key(add, nu, images), (add, nu))
    return sorted(classes.values(), key=lambda rep: full_min(rep[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_key_ignores_relabeling_and_separates_classes(n):
    images = {order: image for order, _, image in corpus._relabelings(n)}
    key_of_class = {}
    for add, nu in labelled_hypergroups(n):
        key = class_key(add, nu, images)
        for perm in zero_fixing(n):
            moved = class_key(relabel(add, perm), relabel_neg(nu, perm), images)
            assert moved == key
        assert key_of_class.setdefault(full_min(add), key) == key
    assert len(set(key_of_class.values())) == len(key_of_class)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classes_come_from_the_first_negation_of_each_conjugacy_class(n):
    splits = list(_orbit_splits(n))
    first = {}
    for nu, _, _ in splits:
        first.setdefault(sum(nu[a] > a for a in range(n)), nu)
    free_of = {nu: free for nu, _, free in splits}
    classes = enumerate_hypergroups(n)
    for add, nu in classes:
        assert nu == first[sum(nu[a] > a for a in range(n))]
        for perm in zero_fixing(n):
            if relabel_neg(nu, perm) == nu:
                assert chosen(relabel(add, perm), free_of[nu]) >= chosen(add, free_of[nu])
    assert list(classes) == first_of_each_class(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_automorphism_key_partitions_products_like_the_full_key(n, corpus4):
    classes, kept = corpus._hypergroups(n)
    assert classes is enumerate_hypergroups(n) and len(kept) == len(classes)
    firsts = set()
    for (add, nu), automorphisms in zip(classes, kept):
        # the kept automorphisms are the relabelings that give the table back,
        # each with order listing the elements by their new labels
        assert sorted(perm for _, perm in automorphisms) == \
            [perm for perm in zero_fixing(n) if relabel(add, perm) == add]
        assert all(order[perm[x]] == x for order, perm in automorphisms for x in range(n))
        members = [[list(bits(m)) for m in row] for row in add]
        by_aut, by_full = {}, {}
        for mul in mult_tables(n, add):
            by_aut.setdefault(corpus._mul_key(mul, automorphisms), []).append(mul)
            ring = HyperRing(members, nu, mul)
            by_full.setdefault(ring_canonical_key(ring), []).append(mul)
        assert sorted(by_aut.values()) == sorted(by_full.values())
        firsts |= {(add, group[0]) for group in by_full.values()}
    # the corpus keeps the first product of each class in mult_tables order
    assert firsts == {(e.ring.add_masks, e.ring.mul_table)
                      for e in corpus4 if e.ring.order == n}


def fresh_hypergroups(monkeypatch):
    # empty caches of the same bounds, so the session's hypergroups stay
    # cached and nothing a patched search returns outlives the test
    bound = corpus._hypergroups.cache_parameters()["maxsize"]
    monkeypatch.setattr(corpus, "_hypergroups",
                        lru_cache(maxsize=bound)(corpus._hypergroups.__wrapped__))


def class_search_counts(monkeypatch, n):
    """(nodes, leaves) of an uncached _hypergroups(n).  A rule that
    watches every cell and runs first counts each value a cell tries, in
    the negation search too; the leaves are those of the hypergroup
    searches alone, whose cells are in-or-out."""
    fresh_hypergroups(monkeypatch)
    counts = [0, 0]
    real = corpus.search

    def node(values, i):
        counts[0] += 1
        return True

    def counting(sizes, rules):
        out = real(sizes, [(range(len(sizes)), node), *rules])
        if set(sizes) <= {2}:
            counts[1] += len(out)
        return out

    monkeypatch.setattr(corpus, "search", counting)
    assert len(corpus._hypergroups(n)[0]) == counts[1]
    return tuple(counts)


def test_the_class_search_cuts_inside_the_search(monkeypatch):
    # a table no relabeling lowers is the only kind the search returns;
    # keeping that test for finished tables alone tried 1,331 nodes.  The
    # count is exact: a cut that compares with undecided orbits tries 599
    # here, and loses classes at order 5
    assert class_search_counts(monkeypatch, 4) == (625, 97)


@pytest.mark.slow
def test_the_class_search_cuts_inside_the_search_at_order_5(monkeypatch):
    # 382,420 nodes and 65,168 leaves with the test for finished tables
    assert class_search_counts(monkeypatch, 5) == (48088, 3776)


def test_each_class_is_relabeled_once(monkeypatch):
    fresh_hypergroups(monkeypatch)
    calls = []
    real = corpus._relabel

    def counting(add, order, image):
        calls.append(len(add))
        return real(add, order, image)

    monkeypatch.setattr(corpus, "_relabel", counting)
    # an uncached build of corpus4: one pass of the (n - 1)! relabelings
    # per class gives its sort key and its automorphisms
    entries = corpus._corpus.__wrapped__(4, None)
    assert len(entries) == 163
    assert [calls.count(n) for n in (1, 2, 3, 4)] == [1 * 1, 2 * 1, 10 * 2, 97 * 6]
    assert len(calls) == 605


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_repeated_call_returns_the_same_classes(monkeypatch, n):
    fresh_hypergroups(monkeypatch)
    first = enumerate_hypergroups(n)
    assert enumerate_hypergroups(n) is first
    assert corpus._hypergroups(n)[0] is first


def test_a_cold_corpus_checks_each_hypergroup_class_once(monkeypatch, fresh_memos):
    fresh_hypergroups(monkeypatch)
    orders = []
    real = core.hypergroup_checks

    def counting(n, add, neg):
        orders.append(n)
        return real(n, add, neg)

    monkeypatch.setattr(core, "hypergroup_checks", counting)
    entries = corpus._corpus.__wrapped__(4, None)
    assert len(entries) == 163
    # each class checked once: the memo keeps all 97 order-4 classes while
    # their rings are validated (the 3,776 of order 5 would overflow it)
    assert [orders.count(n) for n in (1, 2, 3, 4)] == [1, 2, 10, 97]
    assert len(orders) == 110


def test_a_rule_no_free_orbit_reads_is_tested_before_the_search(monkeypatch):
    fresh_hypergroups(monkeypatch)
    # no free orbit and a base that leaves 1 + 1 empty: the search has no
    # cell to watch, so the nonempty rule is decided up front
    base = sum(1 << (p * 2 + q) * 2 + r for p, q, r in [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    monkeypatch.setattr(corpus, "_orbit_splits", lambda n: iter([((0, 1), base, [])]))
    assert enumerate_hypergroups(2) == ()


@pytest.mark.parametrize("through_corpus", [False, True])
def test_a_bad_returned_table_raises(monkeypatch, through_corpus):
    fresh_hypergroups(monkeypatch)
    monkeypatch.setattr(corpus, "_corpus", lru_cache(maxsize=8)(corpus._corpus.__wrapped__))
    # a full base with no free orbit: 1 + 1 = {1} has no 0, so 1 has no negative
    base = sum(1 << (p * 2 + q) * 2 + r
               for p, q, r in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    splits = corpus._orbit_splits
    monkeypatch.setattr(corpus, "_orbit_splits",
                        lambda n: iter([((0, 1), base, [])]) if n == 2 else splits(n))
    # the corpus takes the search's tables unchecked, so there the first
    # ring's validation is what catches the bad table
    if through_corpus:
        with pytest.raises(TheoremViolationError, match="generator produced an invalid ring"):
            generate_corpus(2)
    else:
        with pytest.raises(TheoremViolationError,
                           match="orbit construction produced a bad table"):
            enumerate_hypergroups(2)


def test_corpus_reuses_the_kept_hypergroups(monkeypatch):
    fresh_hypergroups(monkeypatch)
    monkeypatch.setattr(corpus, "_corpus", lru_cache(maxsize=8)(corpus._corpus.__wrapped__))
    searched = []
    moves = corpus._orbit_moves

    def counting(n, nu, free, relabelings):
        searched.append((n, nu))
        return moves(n, nu, free, relabelings)

    monkeypatch.setattr(corpus, "_orbit_moves", counting)
    enumerate_hypergroups(4)
    enumerate_hypergroups(4)
    generate_corpus(4)
    # one search per order and conjugacy class of negations, under its
    # first negation, shared by every later call
    assert searched == [(4, (0, 1, 2, 3)), (4, (0, 1, 3, 2)), (1, (0,)), (2, (0, 1)),
                        (3, (0, 1, 2)), (3, (0, 2, 1))]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hypergroup_tables_match_oracle(n):
    brute = {(to_mask_table(add, n), neg_of(add, n)) for add in brute_hypergroups(n)}
    generated = set(labelled_hypergroups(n))
    assert generated == brute


def test_hypergroup_counts():
    assert [len(enumerate_hypergroups(n)) for n in (1, 2, 3, 4)] == [1, 2, 10, 97]
    assert [len(labelled_hypergroups(n)) for n in (1, 2, 3)] == [1, 2, 15]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_tables_match_oracle(n):
    brute = {(to_mask_table(add, n), neg_of(add, n), to_mul_rows(mul, n))
             for add, mul in brute_rings(n)}
    generated = set()
    for add, neg in labelled_hypergroups(n):
        for mul in mult_tables(n, add):
            generated.add((add, neg, mul))
    assert generated == brute


def test_corpus_counts(corpus3, corpus4):
    by_order3 = {}
    for entry in corpus3:
        by_order3[entry.ring.order] = by_order3.get(entry.ring.order, 0) + 1
    assert by_order3 == {1: 1, 2: 4, 3: 19}
    by_order4 = {}
    for entry in corpus4:
        by_order4[entry.ring.order] = by_order4.get(entry.ring.order, 0) + 1
    assert by_order4 == {1: 1, 2: 4, 3: 19, 4: 139}
    assert len(corpus4) == 163


def test_corpus_rings_are_valid_and_named(corpus3):
    for i, entry in enumerate(corpus3):
        assert entry.ring.validated
        assert entry.name == entry.ring.name
        order = entry.ring.order
        assert entry.name.startswith(f"r{order}_")


def test_corpus_is_deduplicated(corpus4):
    keys = [ring_canonical_key(e.ring) for e in corpus4]
    assert len(keys) == len(set(keys))


def test_canonical_key_ignores_relabeling(corpus3):
    # relabel a 3 element ring by the only nontrivial permutation fixing 0
    entry = next(e for e in corpus3 if e.ring.order == 3)
    ring = entry.ring
    perm = [0, 2, 1]
    inv = [perm.index(i) for i in range(3)]
    add = [[sorted(perm[x] for x in ring.add(inv[a], inv[b]).members)
            for b in range(3)] for a in range(3)]
    neg = [perm[ring.neg(inv[a])] for a in range(3)]
    mul = [[perm[ring.mul(inv[a], inv[b])] for b in range(3)] for a in range(3)]
    relabeled = HyperRing(add, neg, mul)
    relabeled.validate()
    assert ring_canonical_key(relabeled) == ring_canonical_key(ring)


def test_corpus3_is_a_prefix_of_corpus4(corpus3, corpus4):
    head = {e.name: e.ring.encoding() for e in corpus3}
    full = {e.name: e.ring.encoding() for e in corpus4}
    for name, enc in head.items():
        assert full[name] == enc


def test_per_order_limit(corpus3):
    limited = generate_corpus(max_order=3, per_order_limit=2)
    by_order = {}
    for entry in limited:
        by_order.setdefault(entry.ring.order, []).append(entry)
    assert all(len(v) <= 2 for v in by_order.values())
    full_names = [e.name for e in corpus3]
    assert [e.name for e in limited] == [n for n in full_names
                                         if n in {e.name for e in limited}]


def test_fingerprint_tracks_parameters(corpus3, corpus4):
    f3 = corpus_fingerprint(corpus3, max_order=3)
    assert f3 == corpus_fingerprint(generate_corpus(max_order=3), max_order=3)
    assert f3 != corpus_fingerprint(corpus4, max_order=4)
    limited = generate_corpus(max_order=3, per_order_limit=2)
    assert f3 != corpus_fingerprint(limited, max_order=3, per_order_limit=2)
    assert len(f3) == 64 and int(f3, 16) >= 0


def test_corpus4_fingerprint_is_pinned(corpus4):
    assert corpus_fingerprint(corpus4, 4) == (
        "95e8cb16b81dfda457236a8aaa5374a66302edb08ec81f39abd87e38e9e77d11")


def test_corpus_cache_keeps_the_most_recent_keys(monkeypatch):
    bound = corpus._corpus.cache_parameters()["maxsize"]
    # an empty cache of the same bound, so the session's corpora stay cached
    monkeypatch.setattr(corpus, "_corpus", lru_cache(maxsize=bound)(corpus._corpus.__wrapped__))
    keys = [dict(max_order=2, per_order_limit=100 + i) for i in range(bound + 1)]
    built = [generate_corpus(**k) for k in keys[:bound]]
    assert generate_corpus(2, 100) is built[0]
    generate_corpus(**keys[bound])
    # one key past the bound evicts the least recently used, keys[1]
    rebuilt = generate_corpus(**keys[1])
    assert rebuilt is not built[1]
    assert [e.ring.encoding() for e in rebuilt] == [e.ring.encoding() for e in built[1]]
    assert generate_corpus(**keys[0]) is built[0]


@pytest.mark.slow
def test_order_five_referee(monkeypatch):
    # minutes long, so opt-in: python -m pytest -m slow
    monkeypatch.setattr(corpus, "HARD_ORDER_CAP", 5)
    labelled = labelled_hypergroups(5)
    classes = enumerate_hypergroups(5)
    assert len(classes) == 3776
    # each kept automorphism group has the size this module counts
    sizes = [sum(1 for perm in zero_fixing(5) if relabel(add, perm) == add)
             for add, _ in classes]
    assert [len(a) for a in corpus._hypergroups(5)[1]] == sizes
    assert len(labelled) == 72112 == sum(24 // size for size in sizes)
    images = {order: image for order, _, image in corpus._relabelings(5)}
    pairs = {(class_key(add, nu, images), full_min(add)) for add, nu in labelled}
    assert len(pairs) == len({k for k, _ in pairs}) == len({f for _, f in pairs}) == 3776
    assert list(classes) == first_of_each_class(5)
    entries = generate_corpus(5)
    assert len(entries) == 4581
    assert corpus_fingerprint(entries, 5).startswith("7481adac5f4065f5")


@pytest.mark.slow
def test_order_five_products_referee(monkeypatch):
    # the row search of core.action_tables against the cell-by-cell search
    # it replaced, on every order-5 hypergroup class; opt-in as above
    from test_search import cellwise_action_tables

    monkeypatch.setattr(corpus, "HARD_ORDER_CAP", 5)
    classes = enumerate_hypergroups(5)
    assert len(classes) == 3776
    found = 0
    for add, _ in classes:
        tables = mult_tables(5, add)
        assert list(tables) == cellwise_action_tables(add, add)
        found += len(tables)
    assert found == 4690


@pytest.mark.slow
def test_order_five_closed_subsets_referee(monkeypatch):
    # the closed-subset search against the scan it replaced, on every
    # order-5 ring and every sidedness; opt-in with the referee above
    from test_closure import scan_oracle

    monkeypatch.setattr(corpus, "HARD_ORDER_CAP", 5)
    rings = [e.ring for e in generate_corpus(5) if e.ring.order == 5]
    assert len(rings) == 4418
    for ring in rings:
        for sidedness in SIDEDNESS:
            actions = ideals._absorption(ring, sidedness)
            assert closed_subsets(ring.add_masks, ring.neg_table, actions) == \
                scan_oracle(ring.add_masks, ring.neg_table, actions)


def test_order_cap():
    with pytest.raises(ValueError):
        generate_corpus(max_order=HARD_ORDER_CAP + 1)


def test_negative_per_order_limit_is_refused(monkeypatch):
    def build(*args):
        raise AssertionError("generated a corpus for a negative limit")

    monkeypatch.setattr(corpus, "_corpus", build)
    with pytest.raises(ValueError, match="non-negative"):
        generate_corpus(2, per_order_limit=-1)


@pytest.mark.parametrize("max_order", [0, -2])
def test_non_positive_max_order_is_refused(monkeypatch, max_order):
    def build(*args):
        raise AssertionError("generated a corpus for a non-positive order")

    monkeypatch.setattr(corpus, "_corpus", build)
    with pytest.raises(ValueError, match="must be positive"):
        generate_corpus(max_order)


def test_unit_detection_in_corpus(corpus3):
    # units get picked up during generation; spot check both kinds
    unital = [e for e in corpus3 if e.ring.is_unital]
    nonunital = [e for e in corpus3 if not e.ring.is_unital]
    assert unital and nonunital
    for entry in unital:
        u = entry.ring.unit
        assert all(entry.ring.mul(a, u) == a == entry.ring.mul(u, a)
                   for a in range(entry.ring.order))
