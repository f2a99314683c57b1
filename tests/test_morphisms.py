"""Strong homomorphisms and the pullback map between spectra."""

import pytest

from krasner.catalog import cyclic_ring
from krasner.hypermodules import hom_kernel, quotient_module, regular_module, verify_module_hom
from krasner.ideals import IdealLattice, quotient_ring
from krasner.morphisms import (
    RingHom,
    check_closed_embedding,
    check_density,
    check_radical_homeomorphism,
    enumerate_ring_homs,
    identity_hom,
    induced_map,
    is_continuous,
    kernel_ideal,
    preimage_ideal,
    verify_strong_hom,
)


def projection_mod_even(z4):
    lattice = IdealLattice.build(z4)
    even = next(i for i in lattice.two_sided if i.members.members == (0, 2))
    return quotient_ring(z4, even)


def test_identity_is_strong(z4):
    hom = identity_hom(z4)
    assert hom.mapping == (0, 1, 2, 3)
    assert verify_strong_hom(hom).ok


def test_projection_is_strong(z4):
    q = projection_mod_even(z4)
    assert verify_strong_hom(q.projection).ok


def test_zero_to_nonzero_fails(z2):
    report = verify_strong_hom(RingHom(z2, z2, (1, 0)))
    assert not report.ok
    by_axiom = {c.axiom: c for c in report.failures}
    assert by_axiom["zero"].detail == "0 must map to 0"


def test_weak_hom_gets_its_own_diagnostic(z2, kfield):
    # phi(1+1) = {0} sits strictly inside phi(1) + phi(1) = {0,1} in K
    report = verify_strong_hom(RingHom(z2, kfield, (0, 1)))
    assert not report.ok
    fail = next(c for c in report.failures if c.axiom == "strong-addition")
    assert fail.witness == (1, 1)
    assert "weak hom" in fail.detail


def test_multiplication_must_be_preserved(z4):
    # 1 -> 3 respects addition of Z4 but not squaring
    report = verify_strong_hom(RingHom(z4, z4, (0, 3, 2, 1)))
    ok_mult = all(c.ok for c in report.checks if c.axiom == "multiplication")
    assert report.ok or not ok_mult


def test_mapping_shape_is_checked(z4, z2, zmul2):
    with pytest.raises(ValueError):
        RingHom(z4, z2, (0, 1))
    with pytest.raises(ValueError):
        RingHom(z4, z2, (0, 1, 2, 1))
    with pytest.raises(ValueError):
        RingHom(zmul2, z2, (0, 0), unit_preserving=True)
    # unit_preserving over unital rings is fine
    RingHom(z4, z2, (0, 1, 0, 1), unit_preserving=True)


def test_kernel_and_preimage(z4):
    q = projection_mod_even(z4)
    proj = q.projection
    assert kernel_ideal(proj).members.members == (0, 2)
    target_lattice = IdealLattice.build(q.ring)
    zero = next(i for i in target_lattice.two_sided if i.members.members == (0,))
    assert preimage_ideal(proj, zero).members.members == (0, 2)
    whole = next(i for i in target_lattice.two_sided if not i.proper)
    assert preimage_ideal(proj, whole).members.is_full()


def test_preimage_requires_matching_ring(z4, z6):
    proj = projection_mod_even(z4).projection
    foreign = IdealLattice.build(z6).two_sided[0]
    with pytest.raises(ValueError):
        preimage_ideal(proj, foreign)


def test_enumerate_homs_frozen(z4, z2):
    assert [h.mapping for h in enumerate_ring_homs(z4, z2)] == [(0, 0, 0, 0), (0, 1, 0, 1)]
    assert [h.mapping for h in enumerate_ring_homs(z2, z2)] == [(0, 0), (0, 1)]


def test_enumerate_homs_surjective_only(z4, z2):
    def onto(source, target):
        return [h.mapping for h in enumerate_ring_homs(source, target) if h.is_surjective()]

    assert onto(z4, z2) == [(0, 1, 0, 1)]
    assert onto(z2, z4) == []


def test_enumeration_bound(monkeypatch):
    from krasner import core
    from krasner.core import HOM_SEARCH_BOUND, BoundExceededError

    big = cyclic_ring(HOM_SEARCH_BOUND + 1)

    def refuse(sizes, rules):
        raise AssertionError("searched past the bound")

    # the bound is refused before any search runs
    with monkeypatch.context() as m:
        m.setattr(core, "search", refuse)
        with pytest.raises(BoundExceededError):
            enumerate_ring_homs(big, big)
    monkeypatch.setattr(core, "HOM_SEARCH_BOUND", HOM_SEARCH_BOUND + 1)
    enumerate_ring_homs(big, big)


def test_induced_map_of_identity(z6):
    imap = induced_map(identity_hom(z6))
    assert imap.point_map == (0, 1)
    assert imap.total
    assert is_continuous(imap)


def test_induced_map_of_projection(z4):
    q = projection_mod_even(z4)
    imap = induced_map(q.projection)
    # the single point {0} of the quotient pulls back to {0,2}
    assert imap.total
    assert imap.codomain.points[imap.point_map[0]].members.members == (0, 2)
    assert is_continuous(imap)


def test_zero_map_pullback_escapes(z2):
    imap = induced_map(RingHom(z2, z2, (0, 0)))
    assert not imap.total
    assert imap.point_map == (None,)
    [(point, pulled)] = imap.escapes
    assert point == 0
    assert pulled.members.is_full()
    with pytest.raises(ValueError):
        is_continuous(imap)
    with pytest.raises(ValueError):
        imap.apply(0b1)


def test_surjections_never_escape_corpuswide(corpus3):
    for entry in corpus3:
        ring = entry.ring
        lattice = IdealLattice.build(ring)
        for ideal in lattice.two_sided:
            q = quotient_ring(ring, ideal)
            imap = induced_map(q.projection)
            assert imap.total, (entry.name, ideal.members.members)
            assert is_continuous(imap)


def test_closed_embedding_of_projection(z4):
    imap = induced_map(projection_mod_even(z4).projection)
    report = check_closed_embedding(imap)
    assert report.total and report.injective
    assert report.image_is_kernel_vanishing
    assert report.closed_sets_correspond
    assert report.ok


def test_closed_embedding_refuses_non_surjections(z2):
    imap = induced_map(RingHom(z2, z2, (0, 0)))
    with pytest.raises(ValueError):
        check_closed_embedding(imap)


def test_density_of_projection(z4):
    report = check_density(induced_map(projection_mod_even(z4).projection))
    # kernel {0,2} is the nil radical, so the image is dense
    assert report.dense and report.kernel_in_radical
    assert report.agree


def test_density_fails_off_the_radical(z6):
    lattice = IdealLattice.build(z6)
    three = next(i for i in lattice.two_sided if i.members.members == (0, 3))
    q = quotient_ring(z6, three)
    report = check_density(induced_map(q.projection))
    # kernel {0,3} is not inside the radical {0} and the image misses a point
    assert not report.dense and not report.kernel_in_radical
    assert report.agree


def test_density_biconditional_on_corpus_surjections(corpus3):
    for entry in corpus3:
        lattice = IdealLattice.build(entry.ring)
        for ideal in lattice.two_sided:
            q = quotient_ring(entry.ring, ideal)
            report = check_density(induced_map(q.projection))
            assert report.agree, (entry.name, ideal.members.members)


def test_radical_homeomorphism(z4, z6, kfield):
    for ring in (z4, z6, kfield):
        report = check_radical_homeomorphism(ring)
        assert report.total and report.bijective and report.closed_sets_correspond
        assert report.ok


def test_compose_and_functoriality(z4, z2):
    q = projection_mod_even(z4)
    second = next(h for h in enumerate_ring_homs(q.ring, z2) if h.is_surjective())
    comp = RingHom(z4, z2, tuple(second.mapping[v] for v in q.projection.mapping))
    assert comp.mapping == (0, 1, 0, 1)
    assert verify_strong_hom(comp).ok
    # pullbacks compose contravariantly
    i_first = induced_map(q.projection)
    i_second = induced_map(second)
    i_comp = induced_map(comp)
    for i in range(i_comp.domain.size):
        assert i_comp.point_map[i] == i_first.point_map[i_second.point_map[i]]


def test_quotient_ring_projections_over_corpus4(corpus4):
    count = 0
    for entry in corpus4:
        ring = entry.ring
        for ideal in IdealLattice.build(ring).two_sided:
            proj = quotient_ring(ring, ideal).projection
            assert verify_strong_hom(proj).ok, (entry.name, ideal)
            assert kernel_ideal(proj) == ideal, (entry.name, ideal)
            count += 1
    assert count > len(corpus4)


def test_quotient_module_projections_over_corpus4(corpus4):
    count = 0
    for entry in corpus4:
        ring = entry.ring
        reg = regular_module(ring)
        for ideal in IdealLattice.build(ring).right:
            members = reg.subset(ideal.members)
            proj = quotient_module(reg, members).projection
            assert verify_module_hom(proj).ok, (entry.name, ideal)
            assert hom_kernel(proj) == members, (entry.name, ideal)
            count += 1
    assert count > len(corpus4)
