"""Derived objects are built once per validated structure and kept on it.

A fresh build from a table copy of each ring is the oracle for what the
kept objects hold; the copy is built with every table memo empty, so it
shares no cache with the original.  The table memos themselves (lattice
families and quotient hypergroups, kept by the tables they read) are
checked against such fresh builds at the end.
"""

import ast
import importlib
from collections import Counter, OrderedDict, defaultdict
from pathlib import Path

import pytest

import krasner.hypermodules
import krasner.suite
from conftest import table_copy
from krasner import core, corpus, ideals
from krasner.catalog import cyclic_ring
from krasner.core import ENUMERATION_BOUND, BoundExceededError, HyperRing, NotValidatedError, bits
from krasner.corpus import enumerate_hypergroups
from krasner.hypermodules import (
    HyperModule,
    is_subhypermodule,
    quotient_module,
    regular_module,
    submodule,
)
from krasner.ideals import IdealCheck, IdealLattice, is_hyperideal, quotient_ring
from krasner.primitivity import enumerate_simple_modules, prim_certificates
from krasner.spectrum import SpectrumSpace
from krasner.suite import HOM_CHECK_ORDER, RingContext, run_ring_checks, run_theorem_suite

FAMILIES = ("two_sided", "right", "maximal", "prime", "maximal_right")


def derived_view(ring):
    """Everything the builders derive from ring, as plain values."""
    lattice = IdealLattice.build(ring)
    families = {name: tuple((i.key, i.sidedness) for i in getattr(lattice, name))
                for name in ("two_sided", "right", "maximal", "prime", "maximal_right")}
    certs = tuple((c.ideal.key, c.maximal_right.key, c.module.encoding())
                  for c in prim_certificates(ring))
    reg = regular_module(ring)
    quotients = []
    for ideal in lattice.two_sided:
        q = quotient_ring(ring, ideal)
        quotients.append((q.cosets, q.coset_of, q.ring.name, q.ring.encoding(),
                          q.projection.mapping))
    module_quotients = []
    submodules = []
    for ideal in lattice.right:
        q = quotient_module(reg, reg.from_mask(ideal.key))
        module_quotients.append((q.cosets, q.coset_of, q.module.name, q.module.encoding()))
        sub = submodule(reg, reg.from_mask(ideal.key))
        submodules.append((sub.name, sub.unital, sub.encoding()))
    endomorphisms = tuple(hom.mapping for hom in RingContext(ring).endomorphisms)
    return (families, certs, reg.encoding(), SpectrumSpace.build(ring).point_masks,
            tuple(quotients), tuple(module_quotients), tuple(submodules), endomorphisms)


def test_builders_return_the_kept_object():
    ring = cyclic_ring(6)
    lattice = IdealLattice.build(ring)
    assert IdealLattice.build(ring) is lattice
    reg = regular_module(ring)
    assert regular_module(ring) is reg
    assert prim_certificates(ring) is prim_certificates(ring)
    assert SpectrumSpace.build(ring) is SpectrumSpace.build(ring)
    assert RingContext(ring).endomorphisms is RingContext(ring).endomorphisms
    three = next(i for i in lattice.two_sided if i.members.members == (0, 3))
    assert quotient_ring(ring, three) is quotient_ring(ring, three)
    k = reg.subset([0, 3])
    assert quotient_module(reg, k) is quotient_module(reg, [0, 3])
    assert submodule(reg, k) is submodule(reg, [0, 3])


def test_kept_objects_match_a_fresh_build(corpus3, fresh_memos):
    for entry in corpus3:
        # warm the original first: the space keeps the lattice, and a first
        # view the quotients and submodules, so the second view reads every
        # one of them from the cache
        SpectrumSpace.build(entry.ring)
        derived_view(entry.ring)
        kept = derived_view(entry.ring)
        fresh_memos()
        assert derived_view(table_copy(entry.ring)) == kept, entry.name


def test_quotient_inputs_are_checked_before_the_cache():
    ring = cyclic_ring(6)
    lattice = IdealLattice.build(ring)
    two_sided = next(i for i in lattice.two_sided if i.members.members == (0, 3))
    right = next(i for i in lattice.right if i.members.members == (0, 3))
    quotient_ring(ring, two_sided)
    # equal to the cached ideal, since equality ignores sidedness
    assert right == two_sided
    with pytest.raises(ValueError):
        quotient_ring(ring, right)
    other = cyclic_ring(6)
    foreign = next(i for i in IdealLattice.build(other).two_sided if i.key == two_sided.key)
    with pytest.raises(ValueError):
        quotient_ring(ring, foreign)

    reg = regular_module(ring)
    quotient_module(reg, [0, 3])
    submodule(reg, [0, 3])
    for build in (quotient_module, submodule):
        with pytest.raises(ValueError):
            build(reg, [0, 1])
        with pytest.raises(ValueError):
            build(reg, regular_module(other).subset([0, 3]))


def test_a_kept_submodule_is_not_checked_again(monkeypatch):
    ring = cyclic_ring(6)
    reg = regular_module(ring)
    checked = []
    original = krasner.hypermodules.is_subhypermodule

    def counting(module, members):
        checked.append(module.members_mask(members))
        return original(module, members)

    monkeypatch.setattr(krasner.hypermodules, "is_subhypermodule", counting)
    for build in (quotient_module, submodule):
        kept = build(reg, [0, 3])
        assert build(reg, [0, 3]) is kept
        assert build(reg, reg.subset([0, 3])) is kept
        # a refused set is stored nowhere, so each call checks it again
        for _ in range(2):
            with pytest.raises(ValueError, match="not a subhypermodule"):
                build(reg, [0, 1])
    assert checked == [0b1001, 0b11, 0b11] * 2
    assert sum(key[0] in ("quotient", "submodule") for key in reg._derived) == 2

    # an unvalidated module refuses before it looks at the set
    raw = HyperModule(ring, [[list(bits(m)) for m in row] for row in reg.add_masks],
                      reg.neg_table, reg.act_table)
    for build in (quotient_module, submodule):
        for members in ([0, 3], regular_module(cyclic_ring(6)).subset([0, 3])):
            with pytest.raises(NotValidatedError):
                build(raw, members)
    assert checked == [0b1001, 0b11, 0b11] * 2


def test_a_refused_build_keeps_nothing():
    big = cyclic_ring(ENUMERATION_BOUND + 1)
    for _ in range(2):
        with pytest.raises(BoundExceededError):
            IdealLattice.build(big)
    assert big._derived == {}


def test_ring_checks_release_what_they_built():
    ring = cyclic_ring(4)
    run_ring_checks(ring)
    assert ring._derived == {}


def test_ring_checks_enumerate_the_endomorphisms_once(monkeypatch):
    searched = []
    original = krasner.suite.enumerate_ring_homs

    def counting(source, target, *args, **kwargs):
        searched.append(source.order)
        return original(source, target, *args, **kwargs)

    monkeypatch.setattr(krasner.suite, "enumerate_ring_homs", counting)
    # both hom checks read them below the bound, and neither above it
    for n in (HOM_CHECK_ORDER, HOM_CHECK_ORDER + 1):
        run_ring_checks(cyclic_ring(n))
    assert searched == [HOM_CHECK_ORDER]


def test_a_corpus_sweep_validates_each_quotient_once(corpus4, monkeypatch):
    for entry in corpus4:
        entry.ring._derived.clear()
    validated = []
    original = HyperRing.validate

    def counting(self):
        validated.append(self.name)
        return original(self)

    monkeypatch.setattr(HyperRing, "validate", counting)
    run_theorem_suite(max_order=4)
    # quotient-ring-valid takes one per two sided ideal of each ring, and
    # the other checks reuse those
    assert len(validated) == 444
    assert len(set(validated)) == 444
    assert all("/" in name for name in validated)


def lattice_view(lattice):
    """The families of a lattice as (mask, sidedness) pairs, and its
    products."""
    return ({name: tuple((i.key, i.sidedness) for i in getattr(lattice, name))
             for name in FAMILIES}, lattice.products)


def owned_by(lattice, ring):
    return lattice.ring is ring and all(i.ring is ring for name in FAMILIES
                                        for i in getattr(lattice, name))


def test_memoised_lattices_match_fresh_builds(corpus4, fresh_memos, monkeypatch):
    # each corpus-4 ring and then its quotient rings, in the order of a
    # sweep, each through a table copy that holds no lattice yet: those
    # with tables met before read their families from the memo
    rings = []
    for entry in corpus4:
        rings.append(entry.ring)
        rings += [quotient_ring(entry.ring, i).ring
                  for i in IdealLattice.build(entry.ring).two_sided]
    # the memo now holds every family above; start the sweep with none
    fresh_memos()
    built = []
    families = ideals._lattice_families

    def counting(ring):
        built.append(ring)
        return families(ring)

    monkeypatch.setattr(ideals, "_lattice_families", counting)
    served = []
    for ring in rings:
        copy = table_copy(ring)
        served.append((copy, IdealLattice.build(copy)))
    # 607 rings on 163 distinct tables, each built once
    assert (len(rings), len(built)) == (607, 163)
    for ring, (copy, lattice) in zip(rings, served):
        assert owned_by(lattice, copy)
        fresh_memos()
        fresh = IdealLattice.build(table_copy(ring))
        assert lattice_view(lattice) == lattice_view(fresh), ring.name


def test_the_zero_quotient_reads_its_rings_lattice(corpus4, fresh_memos, monkeypatch):
    # R/{0} has R's tables, so its lattice is R's, wrapped for R/{0}
    scans = []
    closed_subsets = ideals.closed_subsets

    def counting(*args):
        scans.append(args)
        return closed_subsets(*args)

    for entry in corpus4:
        ring = table_copy(entry.ring)
        lattice = IdealLattice.build(ring)
        zero = quotient_ring(ring, lattice.two_sided[0]).ring
        assert zero.encoding() == ring.encoding()
        with monkeypatch.context() as m:
            m.setattr(ideals, "closed_subsets", counting)
            served = IdealLattice.build(zero)
        assert scans == []
        assert owned_by(served, zero) and lattice_view(served) == lattice_view(lattice)


def test_a_module_quotient_shares_the_ring_quotients_hypergroup(z6, fresh_memos, monkeypatch):
    built = []
    build = ideals._quotient_hypergroup

    def counting(*args):
        built.append(args[2])
        return build(*args)

    monkeypatch.setattr(ideals, "_quotient_hypergroup", counting)
    ring = table_copy(z6)
    three = next(i for i in IdealLattice.build(ring).two_sided if i.members.members == (0, 3))
    q = quotient_ring(ring, three)
    mq = quotient_module(regular_module(ring), three.members.members)
    assert built == [three.key]
    assert (mq.cosets, mq.coset_of) == (q.cosets, q.coset_of)
    assert (mq.module.add_masks, mq.module.neg_table) == (q.ring.add_masks, q.ring.neg_table)


def plain(value) -> bool:
    """Whether value is made of ints, strings, tuples and dicts only."""
    if isinstance(value, (int, str, type(None))):
        return True
    if isinstance(value, tuple):
        return all(map(plain, value))
    if isinstance(value, dict):
        return all(map(plain, value.keys())) and all(map(plain, value.values()))
    return False


def memo_stores() -> set:
    """(module, name) of every store that the package passes to
    ``core.table_memo``, found in its source."""
    found = set()
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in ("table_memo", "core.table_memo")):
                continue
            store = node.args[0]
            assert isinstance(store, ast.Name), (path.name, ast.dump(store))
            found.add((importlib.import_module(f"krasner.{path.stem}"), store.id))
    return found


def test_fresh_memos_swaps_every_table_memo_store(fresh_memos):
    stores = memo_stores()
    assert {(module.__name__, name) for module, name in stores} == {
        ("krasner.core", "_HYPERGROUP_REPORTS"), ("krasner.core", "_TABLE_REPORTS"),
        ("krasner.core", "_STRONG_MAPS"), ("krasner.ideals", "_LATTICE_FAMILIES"),
        ("krasner.ideals", "_QUOTIENT_HYPERGROUPS")}
    before = {key: getattr(*key) for key in stores}
    fresh_memos()
    for key, store in before.items():
        swapped = getattr(*key)
        assert swapped is not store and swapped == OrderedDict(), key


def test_each_table_memo_keeps_its_bound_and_no_structure(corpus4, fresh_memos):
    for entry in corpus4:
        run_ring_checks(entry.ring)
    for store in (core._HYPERGROUP_REPORTS, core._TABLE_REPORTS, core._STRONG_MAPS,
                  ideals._LATTICE_FAMILIES, ideals._QUOTIENT_HYPERGROUPS):
        assert 0 < len(store) <= core._VERDICTS_KEPT
        assert all(plain(key) and plain(value) for key, value in store.items())


def test_an_order_4_sweep_builds_each_table_result_once(corpus4, fresh_memos, monkeypatch):
    # the memos hold the working set of an order-4 corpus: a repeated
    # search checks no hypergroup again, and a cold generate_corpus(4)
    # followed by a sweep of its rings builds each verdict, strong-map
    # list, lattice family and quotient hypergroup once per distinct key
    hypergroups = []
    checks = core.hypergroup_checks

    def counting_checks(n, add, neg):
        hypergroups.append((add, neg))
        return checks(n, add, neg)

    monkeypatch.setattr(core, "hypergroup_checks", counting_checks)
    r4_9 = next(e.ring for e in corpus4 if e.name == "r4_9")
    for search in (lambda: enumerate_hypergroups(4), lambda: enumerate_simple_modules(r4_9)):
        search()
        assert hypergroups
        hypergroups.clear()
        search()
        assert hypergroups == []

    fresh_memos()
    misses, keys = Counter(), defaultdict(set)
    memo = core.table_memo

    def counting_memo(store, key, build, *args):
        keys[id(store)].add(key)

        def counted(*built):
            misses[id(store)] += 1
            return build(*built)
        return memo(store, key, counted, *args)

    monkeypatch.setattr(core, "table_memo", counting_memo)
    monkeypatch.setattr(ideals, "table_memo", counting_memo)
    strong = id(core._STRONG_MAPS)
    # new rings, which hold no endomorphisms or lattices from earlier tests
    entries = corpus._corpus.__wrapped__(4, None)
    assert len(entries) == 163
    # one strong-map list per hypergroup class, for its products
    assert misses[strong] == len(keys[strong]) == 110
    for entry in entries:
        run_ring_checks(entry.ring)
    stores = [id(store) for store in (core._HYPERGROUP_REPORTS, core._TABLE_REPORTS,
                                      core._STRONG_MAPS, ideals._LATTICE_FAMILIES,
                                      ideals._QUOTIENT_HYPERGROUPS)]
    assert all(misses[store] for store in stores)
    assert [misses[store] for store in stores] == [len(keys[store]) for store in stores]
    # the sweep's ring-hom, module-hom and action-table searches list
    # strong maps 662 times, on 272 pairs of tables in all
    assert (misses[strong] - 110, len(keys[strong])) == (162, 272)
    assert hypergroups and len(hypergroups) == len(set(hypergroups))


def test_kept_closure_verdicts_match_an_uncached_check(corpus3, monkeypatch):
    # every mask, twice, against closure_check on a table copy's tables; a
    # set that passes is checked once, a refused one on every call
    calls = []
    check = ideals.closure_check

    def counting(s, *tables):
        calls.append(s)
        return check(s, *tables)

    monkeypatch.setattr(ideals, "closure_check", counting)

    def referee(verdict, structure, s, expected):
        seen = []
        for _ in range(2):
            calls.clear()
            assert verdict(structure.from_mask(s)) == expected, (structure, s)
            seen.append(len(calls))
        assert seen == ([1, 0] if expected.ok else [1, 1])

    for ring in [table_copy(e.ring) for e in corpus3] + [table_copy(cyclic_ring(4))]:
        plain = table_copy(ring)
        tables = (plain.add_masks, plain.neg_table)
        right = ("right-absorption", plain.mul_table)
        left = ("left-absorption", tuple(zip(*plain.mul_table)))
        for sidedness, actions in (("right", [right]), ("left", [left]),
                                   ("two-sided", [right, left])):
            for s in range(1 << ring.order):
                expected = check(s, *tables, actions)
                if expected.clause == "left-absorption":
                    # reported as r * a, the product that escapes
                    a, r = expected.witness
                    expected = IdealCheck(False, expected.clause, (r, a),
                                          f"{r} * {a} escapes the set")
                referee(lambda members: is_hyperideal(ring, members, sidedness),
                        ring, s, expected)
        module = regular_module(ring)
        for s in range(1 << ring.order):
            expected = check(s, *tables, [("action-closure", plain.mul_table)])
            referee(lambda members: is_subhypermodule(module, members), module, s, expected)

        # an unknown sidedness is refused before the members are read
        def unread():
            raise AssertionError("members read")
            yield

        calls.clear()
        for members in (unread(), [ring.order + 1]):
            with pytest.raises(ValueError, match="sidedness must be one of"):
                is_hyperideal(ring, members, "bogus")
        assert calls == []
