"""Derived objects are built once per validated structure and kept on it.

A fresh build from a table copy of each ring is the oracle for what the
kept objects hold; the copy shares no cache with the original.
"""

import pytest

import krasner.hypermodules
import krasner.suite
from krasner.catalog import cyclic_ring
from krasner.core import ENUMERATION_BOUND, BoundExceededError, HyperRing, NotValidatedError, bits
from krasner.hypermodules import HyperModule, quotient_module, regular_module, submodule
from krasner.ideals import IdealLattice, quotient_ring
from krasner.primitivity import prim_certificates
from krasner.spectrum import SpectrumSpace
from krasner.suite import HOM_CHECK_ORDER, RingContext, run_ring_checks, run_theorem_suite


def table_copy(ring):
    copy = HyperRing(add=[[list(bits(m)) for m in row] for row in ring.add_masks],
                     neg=ring.neg_table, mul=ring.mul_table, unit=ring.unit,
                     name=ring.name)
    assert copy.validate().ok
    return copy


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


def test_kept_objects_match_a_fresh_build(corpus3):
    for entry in corpus3:
        # warm the original first: the space keeps the lattice, and a first
        # view the quotients and submodules, so the second view reads every
        # one of them from the cache
        SpectrumSpace.build(entry.ring)
        derived_view(entry.ring)
        kept = derived_view(entry.ring)
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
    assert len(reg._derived) == 2

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
