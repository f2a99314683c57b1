"""Hull kernel topology on the primitive ideal space."""

import pytest

from krasner import core
from krasner.catalog import cyclic_ring
from krasner.core import BoundExceededError
from krasner.ideals import IdealLattice
from krasner.spectrum import (
    SpectrumSpace,
    compactness_witness,
    dot_graph,
    generic_points,
    irreducible_closed_sets,
    irreducible_components,
    is_irreducible,
    is_noetherian_space,
    longest_closed_chain,
    reducible_split,
    space_as_dict,
    verify_kuratowski,
    witness_kernel_sum,
)


def test_z6_spectrum_is_two_discrete_points(z6):
    space = SpectrumSpace.build(z6)
    assert space.size == 2
    assert [p.members.members for p in space.points] == [(0, 3), (0, 2, 4)]
    # every subset closed: the two ideals are incomparable
    assert space.closed_sets() == (0, 1, 2, 3)
    assert space.is_t0() and space.is_t1()


def test_single_point_spectra(z4, kfield):
    for ring in (z4, kfield):
        space = SpectrumSpace.build(ring)
        assert space.size == 1
        assert space.closed_sets() == (0, 1)
        assert space.is_t0() and space.is_t1()


def test_closure_operator(z6):
    space = SpectrumSpace.build(z6)
    assert space.closure(0) == 0
    assert space.closure(1) == 1
    assert space.closure(3) == 3
    assert space.is_closed(2)


def test_vanishing_set(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    by_members = {i.members.members: i for i in lattice.two_sided}
    assert space.vanishing_set(by_members[(0, 3)]) == 0b01
    assert space.vanishing_set(by_members[(0, 2, 4)]) == 0b10
    assert space.vanishing_set(by_members[(0,)]) == 0b11


def test_kernel_of(z6):
    space = SpectrumSpace.build(z6)
    # kernel of all points is the intersection {0}; of none, the whole ring
    assert space.kernel_of(0b11) == 0b1
    assert space.kernel_of(0) == z6.full_mask


def test_kuratowski_exact(z2, z4, z6, kfield):
    for ring in (z2, z4, z6, kfield):
        report = verify_kuratowski(SpectrumSpace.build(ring))
        assert report.ok
        assert not report.sampled
        assert report.failure == ()


def test_kuratowski_sampled_mode(z6, monkeypatch):
    import krasner.spectrum as spectrum

    monkeypatch.setattr(spectrum, "FULL_KURATOWSKI_BOUND", 1)
    monkeypatch.setattr(spectrum, "KURATOWSKI_SAMPLES", 64)
    space = SpectrumSpace.build(z6)
    report = verify_kuratowski(space)
    assert report.ok
    assert report.sampled
    assert report.pairs_checked <= 64
    # a fixed seed, the same pairs
    again = verify_kuratowski(space)
    assert again.pairs_checked == report.pairs_checked


def test_irreducibility(z6):
    space = SpectrumSpace.build(z6)
    assert is_irreducible(space, 0b01)
    assert is_irreducible(space, 0b10)
    assert not is_irreducible(space, 0b11)
    assert reducible_split(space, 0b11) == (0b01, 0b10)
    assert reducible_split(space, 0b01) is None


def test_generic_points(z6):
    space = SpectrumSpace.build(z6)
    assert generic_points(space, 0b01) == (0,)
    assert generic_points(space, 0b10) == (1,)
    # the full two point set has no generic point
    assert generic_points(space, 0b11) == ()


def test_irreducible_closed_sets_have_unique_generics(corpus3):
    for entry in corpus3:
        space = SpectrumSpace.build(entry.ring)
        if space.size > 6:
            continue
        for c in irreducible_closed_sets(space):
            assert len(generic_points(space, c)) == 1


def test_components(z6, z4):
    assert irreducible_components(SpectrumSpace.build(z6)) == (0b01, 0b10)
    assert irreducible_components(SpectrumSpace.build(z4)) == (0b1,)


def test_components_cover_the_space(corpus3):
    for entry in corpus3:
        space = SpectrumSpace.build(entry.ring)
        cover = 0
        for c in irreducible_components(space):
            cover |= c
        assert cover == space.full_pmask


def test_chains_and_noetherian(z6):
    space = SpectrumSpace.build(z6)
    chain = longest_closed_chain(space)
    assert chain == (0b11, 0b01, 0)
    assert is_noetherian_space(space)


@pytest.mark.parametrize("chain", [
    (0b111, 0b11, 0),  # 0b111 holds a point the space lacks, so is not closed
    (0b11, 0b11, 0),   # not strictly descending
    (0b01, 0b10, 0),   # 0b10 is not inside 0b01
])
def test_noetherian_check_refuses_a_broken_chain(z6, chain, monkeypatch):
    monkeypatch.setattr("krasner.spectrum.longest_closed_chain", lambda space: chain)
    assert not is_noetherian_space(SpectrumSpace.build(z6))


def test_compactness_witness_z6(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    family = [i for i in lattice.two_sided if i.proper]
    combo = compactness_witness(space, family)
    assert combo == (1, 2)
    # the two maximal ideals alone uncover the space and sum to R
    assert witness_kernel_sum(space, family, combo).is_full()


def test_compactness_witness_rejects_covered_space(z6):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    small = [i for i in lattice.two_sided if i.members.members == (0, 3)]
    with pytest.raises(ValueError):
        compactness_witness(space, small)


def test_compactness_witness_bound(z6, monkeypatch):
    space = SpectrumSpace.build(z6)
    lattice = IdealLattice.build(z6)
    family = [i for i in lattice.two_sided if i.proper]
    monkeypatch.setattr(core, "ENUMERATION_BOUND", 2)
    with pytest.raises(BoundExceededError):
        compactness_witness(space, family)


def test_materialize_bound(monkeypatch):
    import krasner.spectrum as spectrum

    # a ring of its own: the session z6 keeps a space whose closed sets
    # another test may already have materialized
    monkeypatch.setattr(spectrum, "MATERIALIZE_BOUND", 1)
    space = SpectrumSpace.build(cyclic_ring(6))
    with pytest.raises(BoundExceededError):
        space.closed_sets()


def test_dot_graph_discrete(z6):
    out = dot_graph(SpectrumSpace.build(z6))
    assert out.splitlines() == [
        "digraph spectrum {",
        '  p0 [label="{0,3}"];',
        '  p1 [label="{0,2,4}"];',
        "}",
    ]


def test_dot_graph_specialization_edges(z6):
    # no bundled spectrum has a nontrivial specialization order, so force
    # one through a stub that glues p1 into the closure of p0
    space = SpectrumSpace.build(z6)

    class Stub:
        points = space.points
        size = space.size

        def closure(self, pmask):
            return space.full_pmask if pmask == 0b01 else pmask

    out = dot_graph(Stub())
    assert "  p0 -> p1;" in out.splitlines()


def test_space_as_dict(z6):
    d = space_as_dict(SpectrumSpace.build(z6))
    assert d["points"] == [[0, 3], [0, 2, 4]]
    assert d["t1"] is True
    assert d["closed_sets"] == [[], [0], [1], [0, 1]]
    assert d["irreducible_components"] == [[0], [1]]


def test_duplicate_points_rejected(z6):
    from krasner.primitivity import prim_certificates

    certs = prim_certificates(z6)
    with pytest.raises(ValueError):
        SpectrumSpace(z6, certs + certs)
