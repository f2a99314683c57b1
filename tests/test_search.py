"""The backtracking search in core, refereed by the brute force loops it
replaced.

Each oracle below tries every table or map in lexicographic order and
runs the full validator on it, as the searchers did before they became
rule lists for ``core.search``.  The search must give the same results
in the same order.  ``core.action_tables``, which searches whole rows,
is refereed in the same way by the cell-by-cell search it replaced, and
the hom searches, which filter the kept list of ``core.strong_maps``, by
the joint search they replaced: one ``search`` under the strong addition
rules and per-cell rules for the other tables together.
"""

import gc
import itertools

import pytest

from krasner import core
from krasner.core import (
    action_tables,
    bits,
    search,
    strong_addition_rules,
    sum_rule,
)
from krasner.corpus import enumerate_hypergroups, mult_tables
from krasner.hypermodules import (
    HyperModule,
    ModuleHom,
    enumerate_module_homs,
    find_isomorphism,
    is_simple,
    quotient_module,
    regular_module,
    verify_module_hom,
)
from krasner.ideals import IdealLattice
from krasner.morphisms import RingHom, enumerate_ring_homs, verify_strong_hom
from krasner.primitivity import enumerate_simple_modules


# oracles: the exhaustive loops


def brute_ring_homs(source, target, surjective_only):
    if surjective_only and source.order < target.order:
        return []
    out = []
    for rest in itertools.product(range(target.order), repeat=source.order - 1):
        hom = RingHom(source, target, (0,) + rest)
        if surjective_only and not hom.is_surjective():
            continue
        if verify_strong_hom(hom).ok:
            out.append(hom.mapping)
    return out


def brute_module_homs(source, target):
    out = []
    for rest in itertools.product(range(target.order), repeat=source.order - 1):
        hom = ModuleHom(source, target, (0,) + rest)
        if verify_module_hom(hom).ok:
            out.append(hom.mapping)
    return out


def brute_isomorphism(a, b):
    if a.ring is not b.ring or a.order != b.order:
        return None
    for perm in itertools.permutations(range(1, a.order)):
        hom = ModuleHom(a, b, (0,) + perm)
        if verify_module_hom(hom).ok:
            return hom.mapping
    return None


def brute_simple_modules(ring, max_order=3):
    nr = ring.order
    found = []
    for n in range(2, max_order + 1):
        slots = [(m, r) for m in range(1, n) for r in range(1, nr)]
        for add_masks, neg in enumerate_hypergroups(n):
            madd = [[[t for t in range(n) if cell >> t & 1] for cell in row]
                    for row in add_masks]
            for values in itertools.product(range(n), repeat=len(slots)):
                act = [[0] * nr for _ in range(n)]
                for (m, r), v in zip(slots, values):
                    act[m][r] = v
                module = HyperModule(ring, madd, neg, act)
                if module.validate().ok and is_simple(module):
                    found.append(module.encoding())
    return found


def cellwise_action_tables(madd, radd, rmul=None):
    """``core.action_tables`` one cell at a time: ``search`` over cells
    m * |R| + r, each instance of the three action axioms a rule that
    fails as soon as the cells it reads are filled."""
    n, nr = len(madd), len(radd)
    rules = []
    for m in range(1, n):
        for r in range(1, nr):
            mr = m * nr + r
            for b in range(m, n):
                # sum-action: (m + b) r = m r + b r
                rules.append(sum_rule(mr, b * nr + r,
                                      [t * nr + r for t in bits(madd[m][b])], madd))
            for s in range(r, nr):
                # action-sum: m (r + s) = m r + m s
                rules.append(sum_rule(mr, m * nr + s,
                                      [m * nr + t for t in bits(radd[r][s])], madd))
            for s in range(1, nr):
                # action-associativity: (m r) s = m (r s) reads cells chosen
                # by values, so it watches column s, and row m too when r s
                # is itself a searched cell
                column = range(s, n * nr, nr)
                if rmul is None:
                    rs = r * nr + s

                    def associativity(v, i, mr=mr, rs=rs, row=m * nr, s=s):
                        if mr > i or rs > i:
                            return True
                        p, q = v[mr] * nr + s, row + v[rs]
                        return p > i or q > i or v[p] == v[q]

                    watch = (mr, rs, *range(m * nr, m * nr + nr), *column)
                else:
                    mrs = m * nr + rmul[r][s]

                    def associativity(v, i, mr=mr, mrs=mrs, s=s):
                        if mr > i or mrs > i:
                            return True
                        p = v[mr] * nr + s
                        return p > i or v[mrs] == v[p]

                    watch = (mr, mrs, *column)
                rules.append((watch, associativity))
    sizes = [1 if m == 0 or r == 0 else n for m in range(n) for r in range(nr)]
    return [tuple(v[m * nr:m * nr + nr] for m in range(n)) for v in search(sizes, rules)]


def joint_hom_search(source, target, rules):
    """The maps f fixing 0 that are strong between the addition tables and
    pass rules, by one ``search`` over the cells f(a)."""
    rules = strong_addition_rules(source.add_masks, target.add_masks) + rules
    return search([1] + [target.order] * (source.order - 1), rules)


def ring_hom_rules(source, target):
    # f(-a) = -f(a) and f(a b) = f(a) f(b), each decided at its last cell
    tneg, tmul = target.neg_table, target.mul_table
    rules = [((max(a, na),), lambda f, i, a=a, na=na: f[na] == tneg[f[a]])
             for a, na in enumerate(source.neg_table)]
    rules += [((max(a, b, ab),), lambda f, i, a=a, b=b, ab=ab: f[ab] == tmul[f[a]][f[b]])
              for a, row in enumerate(source.mul_table) for b, ab in enumerate(row)]
    return rules


def equivariance_rules(source, target):
    # f(a r) = f(a) r, decided at the later of cells a and a r
    tact = target.act_table
    return [((max(a, ar),), lambda f, i, a=a, r=r, ar=ar: f[ar] == tact[f[a]][r])
            for a, row in enumerate(source.act_table) for r, ar in enumerate(row)]


def joint_isomorphism(a, b):
    if a.ring is not b.ring or a.order != b.order:
        return None
    injective = (range(1, a.order), lambda f, i: f[i] not in f[:i])
    isos = joint_hom_search(a, b, [injective] + equivariance_rules(a, b))
    return isos[0] if isos else None


# the search itself


def test_no_rules_gives_the_full_product_in_order():
    sizes = [2, 3, 2]
    assert search(sizes, []) == list(itertools.product(*map(range, sizes)))
    assert search([], []) == [()]
    assert search([2, 0, 2], []) == []


def test_size_one_cells():
    sizes = [1, 3, 1, 2]
    assert search(sizes, []) == list(itertools.product(*map(range, sizes)))
    rules = [((3,), lambda v, i: v[1] != v[3])]
    assert search(sizes, rules) == [(0, 0, 0, 1), (0, 1, 0, 0), (0, 2, 0, 0), (0, 2, 0, 1)]


def test_value_chosen_cells_match_a_filtered_product():
    sizes = [3, 4, 3, 4, 3]

    # v[1 + v[0]] != v[0], read through a pointer held in cell 0
    def pointed(v, i):
        p = 1 + v[0]
        return p > i or v[p] != v[0]

    # v[2 + v[2]] != v[1]: cell 2 names itself or a later cell
    def forward(v, i):
        p = 2 + v[2]
        return p > i or v[p] != v[1]

    rules = [((0, 1, 2, 3), pointed), ((2, 3, 4), forward)]
    expected = [v for v in itertools.product(*map(range, sizes))
                if v[1 + v[0]] != v[0] and v[2 + v[2]] != v[1]]
    assert expected
    assert search(sizes, rules) == expected


def test_tests_run_only_at_watched_cells():
    calls = []

    def record(v, i):
        calls.append(i)
        return True

    search([2, 2, 2], [((2, 0, 2), record)])
    # once per value at each watched cell, the repeated 2 counted once
    assert sorted(calls) == [0] * 2 + [2] * 8


def test_a_returned_search_leaves_no_garbage_cycle():
    # the rules, and the row list that action_tables' rules hold, go when
    # the search returns rather than at a later collection
    gc.collect()
    gc.disable()
    try:
        add = enumerate_hypergroups(3)[-1][0]
        assert action_tables(add, add)
        assert gc.collect() == 0
    finally:
        gc.enable()


def all_pairs_strong_addition_rules(source_add, target_add):
    # a rule for every ordered pair (a, b), the zero and mirrored pairs too
    return [sum_rule(a, b, bits(ab), target_add)
            for a, row in enumerate(source_add) for b, ab in enumerate(row)]


def test_strong_addition_rules_find_what_every_ordered_pair_finds(corpus3, fresh_memos,
                                                                  monkeypatch):
    classes = [add for n in range(1, 4) for add, _ in enumerate_hypergroups(n)]
    found = 0
    for source in classes:
        for target in classes:
            sizes = [1] + [len(target)] * (len(source) - 1)
            maps = search(sizes, strong_addition_rules(source, target))
            assert maps == search(sizes, all_pairs_strong_addition_rules(source, target))
            found += len(maps)
    assert found > len(classes) ** 2
    pairs = [(a.ring, b.ring) for a in corpus3 for b in corpus3]
    homs = [[h.mapping for h in enumerate_ring_homs(s, t)] for s, t in pairs]
    listed = []

    def all_pairs(source_add, target_add):
        listed.append((source_add, target_add))
        return all_pairs_strong_addition_rules(source_add, target_add)

    # with the strong maps of the first run still kept, the patched rules
    # would never run
    monkeypatch.setattr(core, "strong_addition_rules", all_pairs)
    fresh_memos()
    assert [[h.mapping for h in enumerate_ring_homs(s, t)] for s, t in pairs] == homs
    assert sorted(listed) == sorted({(s.add_masks, t.add_masks) for s, t in pairs})


# the searchers against their oracles


def small_rings(corpus4, max_order):
    return [e.ring for e in corpus4 if e.ring.order <= max_order]


@pytest.mark.parametrize("surjective_only", [False, True])
def test_ring_homs_match_brute_force(corpus4, surjective_only):
    small = small_rings(corpus4, 3)
    pairs = [(a, b) for a in small for b in small]
    pairs += [(e.ring, e.ring) for e in corpus4 if e.ring.order == 4]
    found = 0
    for source, target in pairs:
        homs = [h for h in enumerate_ring_homs(source, target)
                if not surjective_only or h.is_surjective()]
        assert [h.mapping for h in homs] == brute_ring_homs(source, target, surjective_only)
        found += len(homs)
    assert found


def regular_and_quotients(ring):
    reg = regular_module(ring)
    mods = [reg]
    for m in IdealLattice.build(ring).maximal_right:
        mods.append(quotient_module(reg, reg.from_mask(m.members.mask)).module)
    return mods


def test_module_homs_and_isomorphisms_match_brute_force(corpus4):
    outcomes = set()
    for entry in corpus4:
        mods = regular_and_quotients(entry.ring)
        for a in mods:
            for b in mods:
                homs = enumerate_module_homs(a, b)
                assert [h.mapping for h in homs] == brute_module_homs(a, b)
                iso = find_isomorphism(a, b)
                assert iso == brute_isomorphism(a, b)
                if a.order == b.order:
                    outcomes.add(iso is None)
    assert outcomes == {False, True}


def test_ring_homs_match_the_joint_search(corpus3, fresh_memos):
    found = 0
    for a in corpus3:
        for b in corpus3:
            homs = [h.mapping for h in enumerate_ring_homs(a.ring, b.ring)]
            assert homs == joint_hom_search(a.ring, b.ring, ring_hom_rules(a.ring, b.ring))
            found += len(homs)
    assert found > len(corpus3) ** 2


def test_module_homs_and_isomorphisms_match_the_joint_search(corpus4, fresh_memos):
    # the regular module of each corpus-4 ring to each R/m, m maximal
    # right, and the R/m to one another for isomorphisms
    found, outcomes = 0, set()
    for entry in corpus4:
        reg, *quotients = regular_and_quotients(entry.ring)
        for q in quotients:
            homs = [h.mapping for h in enumerate_module_homs(reg, q)]
            assert homs == joint_hom_search(reg, q, equivariance_rules(reg, q))
            found += len(homs)
        for a, b in [(reg, q) for q in quotients] + [(p, q) for p in quotients for q in quotients]:
            iso = find_isomorphism(a, b)
            assert iso == joint_isomorphism(a, b)
            if a.order == b.order:
                outcomes.add(iso is None)
    assert found and outcomes == {False, True}


def test_the_hom_searches_share_one_strong_map_search(corpus3, fresh_memos, monkeypatch):
    # ring homs, module homs and isomorphisms between equal addition
    # tables filter one kept list: the first of them searches, none after
    calls = []
    real = core.search

    def counting(sizes, rules):
        calls.append(len(sizes))
        return real(sizes, rules)

    monkeypatch.setattr(core, "search", counting)
    for entry in corpus3:
        reg = regular_module(entry.ring)
        for _ in range(2):
            enumerate_ring_homs(entry.ring, entry.ring)
            enumerate_module_homs(reg, reg)
            assert find_isomorphism(reg, reg) is not None
        assert calls == [entry.ring.order]
        fresh_memos()
        calls.clear()


def test_simple_modules_match_brute_force(corpus4):
    # the search stops at the ring's order and the brute force at 3, so
    # this also finds no order-3 simple module over an order-2 ring
    found = 0
    for ring in small_rings(corpus4, 3):
        mods = enumerate_simple_modules(ring)
        assert [m.encoding() for m in mods] == brute_simple_modules(ring)
        found += len(mods)
    assert found


def test_products_match_the_cellwise_search(fresh_memos):
    classes = [add for n in range(1, 5) for add, _ in enumerate_hypergroups(n)]
    assert len(classes) == 110
    for add in classes:
        assert action_tables(add, add) == cellwise_action_tables(add, add)


def test_module_actions_match_the_cellwise_search(corpus4, fresh_memos):
    rings = [e.ring for e in corpus4]
    assert min(ring.order for ring in rings) == 1
    assert sum(ring.mul_table != tuple(zip(*ring.mul_table)) for ring in rings) == 2
    found = 0
    for ring in rings:
        # module orders 2 and 3 over every corpus ring
        for n in range(2, 4):
            for add, _ in enumerate_hypergroups(n):
                tables = action_tables(add, ring.add_masks, ring.mul_table)
                assert tables == cellwise_action_tables(add, ring.add_masks, ring.mul_table)
                found += len(tables)
    assert found


def test_product_counts_before_dedupe():
    # the count the benchmark tracer reports as corpus.mult_tables_found
    counts = [sum(len(mult_tables(n, add)) for add, _ in enumerate_hypergroups(n))
              for n in range(1, 5)]
    assert counts == [1, 4, 24, 178]
