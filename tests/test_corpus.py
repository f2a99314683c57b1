"""Exhaustive generation cross-checked by an independent brute force oracle.

The oracle below re-enumerates every table at orders up to 3 with frozensets
and spelled out quantifiers, sharing no code with the generator: the package
builds tables from triple orbits and bit masks, the oracle filters the raw
product space. Counts and the tables themselves must agree exactly.

At order 4 the generator's rule search over the free triple orbits is
refereed by a plain loop over every subset of those orbits, and the
labelled counts by the orbit-stabilizer identity over the classes.  The
opt-in order-5 referees also run the closed-subset search against the
scan it replaced on every order-5 ring.
"""

import itertools
import math
from functools import lru_cache

import pytest

from krasner import corpus, ideals
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypergroup_search_matches_subset_loop(n):
    found = subset_loop_hypergroups(n)
    assert enumerate_hypergroups(n, dedupe=False) == tuple(sorted(found))
    # the first table of each class in loop order represents it
    canon = {}
    for add, nu in found:
        canon.setdefault(min(relabel(add, perm) for perm in zero_fixing(n)), (add, nu))
    assert enumerate_hypergroups(n) == tuple(canon[k] for k in sorted(canon))


@pytest.mark.parametrize("n, labelled", [(1, 1), (2, 2), (3, 15), (4, 390)])
def test_labelled_count_is_the_orbit_sum_over_classes(n, labelled):
    # a class of a table with automorphism group Aut (relabelings fixing 0
    # that leave it unchanged) holds (n - 1)! / |Aut| labelled tables
    total = 0
    for add, _ in enumerate_hypergroups(n):
        aut = sum(1 for perm in zero_fixing(n) if relabel(add, perm) == add)
        total += math.factorial(n - 1) // aut
    assert total == labelled == len(enumerate_hypergroups(n, dedupe=False))


def relabel_neg(nu, perm):
    out = [0] * len(nu)
    for a, b in enumerate(nu):
        out[perm[a]] = perm[b]
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_class_key_ignores_relabeling_and_separates_classes(n):
    images = {order: image for order, _, image in corpus._relabelings(n)}
    key_of_class = {}
    for add, nu in enumerate_hypergroups(n, dedupe=False):
        key = corpus._class_key(add, nu, images)
        for perm in zero_fixing(n):
            moved = corpus._class_key(relabel(add, perm), relabel_neg(nu, perm), images)
            assert moved == key
        full = min(relabel(add, perm) for perm in zero_fixing(n))
        assert key_of_class.setdefault(full, key) == key
    assert len(set(key_of_class.values())) == len(key_of_class)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_automorphism_key_partitions_products_like_the_full_key(n, corpus4):
    relabelings = corpus._relabelings(n)
    firsts = set()
    for add, nu in enumerate_hypergroups(n):
        automorphisms = corpus._automorphisms(add, relabelings)
        assert sorted(perm for _, perm in automorphisms) == \
            [perm for perm in zero_fixing(n) if relabel(add, perm) == add]
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
    for name in ("_labelled", "_hypergroups"):
        cached = getattr(corpus, name)
        bound = cached.cache_parameters()["maxsize"]
        monkeypatch.setattr(corpus, name, lru_cache(maxsize=bound)(cached.__wrapped__))


def test_full_passes_run_once_per_class(monkeypatch):
    fresh_hypergroups(monkeypatch)
    calls = {"_full_min": 0, "_automorphisms": 0}
    for name in calls:
        def counting(*args, real=getattr(corpus, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(corpus, name, counting)
    # an uncached build of corpus4
    entries = corpus._corpus.__wrapped__(4, None)
    counted = dict(calls)
    classes = sum(len(enumerate_hypergroups(n)) for n in range(1, 5))
    labelled = sum(len(enumerate_hypergroups(n, dedupe=False)) for n in range(1, 5))
    assert len(entries) == 163 and (classes, labelled) == (110, 408)
    assert counted == {"_full_min": classes, "_automorphisms": classes}


def test_a_rule_no_free_orbit_reads_is_tested_before_the_search(monkeypatch):
    fresh_hypergroups(monkeypatch)
    # no free orbit and a base that leaves 1 + 1 empty: the search has no
    # cell to watch, so the nonempty rule is decided up front
    base = sum(1 << (p * 2 + q) * 2 + r for p, q, r in [(0, 0, 0), (0, 1, 1), (1, 0, 1)])
    monkeypatch.setattr(corpus, "_orbit_splits", lambda n: iter([((0, 1), base, [])]))
    assert enumerate_hypergroups(2, dedupe=False) == ()


@pytest.mark.parametrize("dedupe", [False, True])
def test_a_bad_returned_table_raises(monkeypatch, dedupe):
    fresh_hypergroups(monkeypatch)
    # a full base with no free orbit: 1 + 1 = {1} has no 0, so 1 has no negative
    base = sum(1 << (p * 2 + q) * 2 + r
               for p, q, r in [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
    monkeypatch.setattr(corpus, "_orbit_splits", lambda n: iter([((0, 1), base, [])]))
    with pytest.raises(TheoremViolationError, match="orbit construction produced a bad table"):
        enumerate_hypergroups(2, dedupe=dedupe)


def test_corpus_reuses_the_kept_hypergroups(monkeypatch):
    fresh_hypergroups(monkeypatch)
    monkeypatch.setattr(corpus, "_corpus", lru_cache(maxsize=8)(corpus._corpus.__wrapped__))
    searched = []
    real = corpus._orbit_splits

    def counting(n):
        searched.append(n)
        return real(n)

    monkeypatch.setattr(corpus, "_orbit_splits", counting)
    enumerate_hypergroups(4, dedupe=False)
    enumerate_hypergroups(4)
    generate_corpus(4)
    # one labelled search per order, shared by both dedupe settings
    assert searched == [4, 1, 2, 3]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hypergroup_tables_match_oracle(n):
    brute = {(to_mask_table(add, n), neg_of(add, n)) for add in brute_hypergroups(n)}
    generated = set(enumerate_hypergroups(n, dedupe=False))
    assert generated == brute


def test_hypergroup_counts():
    assert [len(enumerate_hypergroups(n)) for n in (1, 2, 3, 4)] == [1, 2, 10, 97]
    assert [len(enumerate_hypergroups(n, dedupe=False)) for n in (1, 2, 3)] == [1, 2, 15]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ring_tables_match_oracle(n):
    brute = {(to_mask_table(add, n), neg_of(add, n), to_mul_rows(mul, n))
             for add, mul in brute_rings(n)}
    generated = set()
    for add, neg in enumerate_hypergroups(n, dedupe=False):
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
    labelled = enumerate_hypergroups(5, dedupe=False)
    classes = enumerate_hypergroups(5)
    assert len(classes) == 3776
    assert len(labelled) == 72112 == sum(
        24 // sum(1 for perm in zero_fixing(5) if relabel(add, perm) == add)
        for add, _ in classes)
    relabelings = corpus._relabelings(5)
    images = {order: image for order, _, image in relabelings}
    pairs = {(corpus._class_key(add, nu, images), corpus._full_min(add, relabelings))
             for add, nu in labelled}
    assert len(pairs) == len({k for k, _ in pairs}) == len({f for _, f in pairs}) == 3776
    entries = generate_corpus(5)
    assert len(entries) == 4581
    assert corpus_fingerprint(entries, 5).startswith("7481adac5f4065f5")


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
