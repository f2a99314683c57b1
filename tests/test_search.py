"""The backtracking search in core, refereed by the brute force loops it
replaced.

Each oracle below tries every table or map in lexicographic order and
runs the full validator on it, as the searchers did before they became
rule lists for ``core.search``.  The search must give the same results
in the same order.
"""

import itertools

import pytest

from krasner.core import search
from krasner.corpus import enumerate_hypergroups
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


def test_simple_modules_match_brute_force(corpus4):
    found = 0
    for ring in small_rings(corpus4, 3):
        mods = enumerate_simple_modules(ring)
        assert [m.encoding() for m in mods] == brute_simple_modules(ring)
        found += len(mods)
    assert found
