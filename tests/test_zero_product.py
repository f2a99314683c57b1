"""The zero-product stratum: rings whose products are all 0.

There IJ = {0} for all ideals I and J, so an ideal is any subhypergroup
(every product 0 lies in it), no proper ideal is prime, every R/m has
zero action, so no ideal is primitive, and the spectrum is empty.  The
subhypergroups come from a frozenset closure written here, sharing no
code with ``ideals``.  Each ring's lattice is read through two fresh
table copies, the second served from the lattice memo the first filled,
so the memoised lattices are refereed as well.  The ``slow`` referee
takes the 3,776 zero-product rings of order 5, one per hypergroup class.
"""

from itertools import combinations

import pytest

from conftest import table_copy
from krasner import corpus
from krasner.corpus import generate_corpus
from krasner.ideals import IdealLattice, enumerate_ideals
from krasner.primitivity import enumerate_simple_modules, prim_set
from krasner.spectrum import SpectrumSpace


def zero_product(ring) -> bool:
    return all(v == 0 for row in ring.mul_table for v in row)


def members(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def subhypergroups(ring) -> set:
    """The closures of every subset under 0, negation and hyperaddition."""
    add = [[members(m) for m in row] for row in ring.add_masks]
    neg = ring.neg_table

    def close(s):
        while True:
            grown = s | {0} | {neg[a] for a in s} | {c for a in s for b in s for c in add[a][b]}
            if grown == s:
                return s
            s = grown

    elements = range(ring.order)
    return {close(frozenset(subset)) for k in range(ring.order + 1)
            for subset in combinations(elements, k)}


def as_sets(ideals) -> set:
    return {frozenset(i.members) for i in ideals}


def check_zero_product(ring):
    """Assert that every subhypergroup of the zero-product ring is an ideal
    of each side, read twice through the lattice memo, and that no ideal
    is prime or primitive and the spectrum is empty."""
    expected = subhypergroups(ring)
    for side in ("left", "right", "two-sided"):
        assert as_sets(enumerate_ideals(ring, side)) == expected, (ring.name, side)
    for copy in (table_copy(ring), table_copy(ring)):
        lattice = IdealLattice.build(copy)
        assert as_sets(lattice.two_sided) == as_sets(lattice.right) == expected, ring.name
        assert lattice.prime == ()
        assert prim_set(copy) == ()
        assert SpectrumSpace.build(copy).point_masks == ()


def test_zero_product_rings_have_every_subhypergroup_as_ideal_and_no_point(corpus4):
    rings = [e.ring for e in corpus4 if zero_product(e.ring)]
    assert len(rings) == 110
    for ring in rings:
        check_zero_product(ring)


def test_zero_product_rings_have_no_simple_module(corpus4):
    # the m with mR = {0} hold every mr, as (mr)s = m(rs) = 0, so a nonzero
    # action makes them a proper nonzero submodule; the order-4 rings are
    # searched under `slow`, in test_no_rogue_annihilators_at_order_4
    rings = [e.ring for e in corpus4 if e.ring.order <= 3 and zero_product(e.ring)]
    assert len(rings) == 13
    for ring in rings:
        assert enumerate_simple_modules(ring) == (), ring.name


@pytest.mark.slow
def test_zero_product_rings_of_order_five(monkeypatch):
    # opt-in, as the order-5 referees of test_corpus: python -m pytest -m slow
    monkeypatch.setattr(corpus, "HARD_ORDER_CAP", 5)
    rings = [e.ring for e in generate_corpus(5) if e.ring.order == 5 and zero_product(e.ring)]
    assert len(rings) == 3776
    for ring in rings:
        check_zero_product(ring)
