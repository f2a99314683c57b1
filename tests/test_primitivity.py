"""Primitive hyperideals via annihilators of simple quotients."""

from functools import lru_cache

import pytest

from krasner import core, corpus
from krasner.core import BoundExceededError, TheoremViolationError
from krasner.hypermodules import annihilator, is_simple
from krasner.ideals import IdealLattice, quotient_ring
from krasner.primitivity import (
    check_primitive_iff_quotient_primitive,
    enumerate_simple_modules,
    is_primitive,
    is_primitive_ring,
    prim_certificates,
    prim_from_maximal_right,
    prim_set,
    product_mask,
    rogue_annihilators,
)


def prim_members(ring):
    return [p.members.members for p in prim_set(ring)]


def test_frozen_prim_sets(z2, z4, z6, kfield):
    assert prim_members(z2) == [(0,)]
    assert prim_members(z4) == [(0, 2)]
    assert prim_members(z6) == [(0, 3), (0, 2, 4)]
    assert prim_members(kfield) == [(0,)]


def test_certificates_carry_their_witness(z6):
    for cert in prim_certificates(z6):
        assert is_simple(cert.module)
        assert annihilator(cert.module).key == cert.ideal.key
        assert cert.maximal_right.proper
        assert cert.ring is z6


def test_zero_mul_ring_has_empty_spectrum(zmul2):
    # R*R = {0} sits inside every maximal right ideal, so nothing qualifies
    assert prim_certificates(zmul2) == ()
    lattice = IdealLattice.build(zmul2)
    m = lattice.maximal_right[0]
    assert prim_from_maximal_right(zmul2, m) is None


def test_product_mask(z4, zmul2):
    assert product_mask(z4) == 0b1111
    assert product_mask(zmul2) == 0b01


def test_prim_from_maximal_right_z4(z4):
    lattice = IdealLattice.build(z4)
    m = lattice.maximal_right[0]
    cert = prim_from_maximal_right(z4, m)
    assert cert is not None
    assert cert.ideal.members.members == (0, 2)
    assert cert.module.order == 2


def test_is_primitive(z4):
    lattice = IdealLattice.build(z4)
    for ideal in lattice.two_sided:
        expect = ideal.members.members == (0, 2)
        assert is_primitive(ideal) is expect


def test_primitive_ring_flags(z2, z4, kfield):
    assert is_primitive_ring(z2)
    assert is_primitive_ring(kfield)
    assert not is_primitive_ring(z4)


def test_primitive_implies_prime_corpuswide(corpus3):
    for entry in corpus3:
        lattice = IdealLattice.build(entry.ring)
        prime_keys = {p.key for p in lattice.prime}
        for p in prim_set(entry.ring):
            assert p.key in prime_keys, (entry.name, p.members.members)


def test_maximal_implies_primitive_on_unital_rings(corpus3):
    for entry in corpus3:
        if not entry.ring.is_unital:
            continue
        lattice = IdealLattice.build(entry.ring)
        prim_keys = {p.key for p in prim_set(entry.ring)}
        for m in lattice.maximal:
            assert m.key in prim_keys, (entry.name, m.members.members)


def test_quotient_primitivity_biconditional(z4, z6):
    assert check_primitive_iff_quotient_primitive(z4).ok
    assert check_primitive_iff_quotient_primitive(z6).ok


def test_quotient_primitivity_biconditional_corpuswide(corpus3):
    # p is primitive in R exactly when R/p is a primitive ring
    for entry in corpus3:
        report = check_primitive_iff_quotient_primitive(entry.ring)
        assert report.ok, (entry.name, report.mismatches)


def test_simple_quotients_by_maximal_right(z4, z6):
    for ring in (z4, z6):
        lattice = IdealLattice.build(ring)
        pm = product_mask(ring)
        for m in lattice.maximal_right:
            if pm & ~m.members.mask == 0:
                continue
            from krasner.hypermodules import quotient_module, regular_module

            quot = quotient_module(regular_module(ring), m.members.members)
            assert is_simple(quot.module)


def test_enumerated_simple_modules_agree_with_prim(z4):
    mods = enumerate_simple_modules(z4)
    assert len(mods) == 1
    assert annihilator(mods[0]).members.members == (0, 2)


def counted_hypergroups(monkeypatch):
    # start from empty caches and record each order the corpus searches
    calls = []
    labelled = corpus._labelled
    monkeypatch.setattr(corpus, "_labelled", lru_cache(
        maxsize=labelled.cache_parameters()["maxsize"])(labelled.__wrapped__))
    search = corpus._hypergroups.__wrapped__

    def counting(n, dedupe):
        calls.append(n)
        return search(n, dedupe)

    bound = corpus._hypergroups.cache_parameters()["maxsize"]
    monkeypatch.setattr(corpus, "_hypergroups", lru_cache(maxsize=bound)(counting))
    return calls


def test_simple_module_search_enumerates_each_order_once(z2, z4, monkeypatch):
    calls = counted_hypergroups(monkeypatch)
    first = [m.encoding() for m in enumerate_simple_modules(z4)]
    assert calls == [2, 3]
    enumerate_simple_modules(z2)
    assert calls == [2, 3]
    assert [m.encoding() for m in enumerate_simple_modules(z4)] == first
    assert calls == [2, 3]


def test_orders_past_the_corpus_cap_raise_before_any_search(z2, monkeypatch):
    calls = counted_hypergroups(monkeypatch)

    def search(n):
        raise AssertionError(f"searched order {n}")

    monkeypatch.setattr(corpus, "_orbit_splits", search)
    past = corpus.HARD_ORDER_CAP + 1
    with pytest.raises(BoundExceededError):
        corpus.enumerate_hypergroups(past)
    monkeypatch.setattr(core, "SIMPLE_MODULE_ORDER", past)
    with pytest.raises(BoundExceededError):
        enumerate_simple_modules(z2)
    assert calls == []


def test_no_rogue_annihilators(z2, z4, kfield):
    # simple modules found by brute force never produce annihilators
    # outside the certified primitive set
    for ring in (z2, z4, kfield):
        assert rogue_annihilators(ring) == ()


def test_no_rogue_annihilators_z6_small(z6, monkeypatch):
    monkeypatch.setattr(core, "SIMPLE_MODULE_ORDER", 2)
    assert rogue_annihilators(z6) == ()


def test_certificates_deduplicate(z6):
    certs = prim_certificates(z6)
    keys = [c.ideal.key for c in certs]
    assert len(keys) == len(set(keys))
    assert keys == sorted(keys)
