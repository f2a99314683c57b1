"""Direct products as construction oracles past the corpus.

In R x S the element (r, s) is the single sum (r, 0) + (0, s).  So when R
and S have units the two sided ideals of R x S are exactly the products
I x J; on every pair the primitive ideals are P x S and R x Q, R x S
is T1 exactly when both factors are, and the closed sets of Prim(R x S)
are the unions of a closed set of each factor's points.  The pairs are the ordered pairs of
corpus4 rings of order >= 2 with |R||S| <= 12.  The tier-1 sample is every
such pair that is unital (405 pairs, all commutative), plus every one with
a non-commutative factor (92, none unital), which checks the primitive
ideals and T1 only; the ``slow`` referee takes all 6,923 pairs.
"""

import pytest

from krasner.core import bits, is_commutative
from krasner.ideals import IdealLattice
from krasner.primitivity import prim_set
from krasner.spectrum import SpectrumSpace

from conftest import direct_product


def cross_mask(r, s, a, b):
    """Member mask of A x B in direct_product(r, s), from member masks of r and s."""
    m = s.order
    return sum(1 << x * m + y for x in range(r.order) if a >> x & 1 for y in range(m) if b >> y & 1)


def small_pairs(corpus4):
    rings = [e.ring for e in corpus4 if e.ring.order >= 2]
    return [(r, s) for r in rings for s in rings if r.order * s.order <= 12]


def sample(corpus4):
    return [(r, s) for r, s in small_pairs(corpus4)
            if (r.is_unital and s.is_unital)
            or not (is_commutative(r.mul_table) and is_commutative(s.mul_table))]


def masks(ideals):
    return sorted(i.members.mask for i in ideals)


def closed_point_sets(space, lift) -> list:
    """Each closed set of space as the frozenset of lift(m) over the member
    masks m of its points."""
    return [frozenset(lift(space.point_masks[i]) for i in bits(c)) for c in space.closed_sets()]


def check_product(r, s) -> bool:
    """Assert on r x s that Prim is {P x S} with {R x Q}, that its closed
    sets are the A u B of a closed set A of Prim(R) x S and B of R x
    Prim(S), and that it is T1 exactly when both factors are; when both
    have units, that the two sided ideals are the I x J as well.  Returns
    whether it checked the ideals, that is whether both factors have
    units."""
    product = direct_product(r, s)
    assert masks(prim_set(product)) == sorted(
        [cross_mask(r, s, p.members.mask, s.full_mask) for p in prim_set(r)]
        + [cross_mask(r, s, r.full_mask, q.members.mask) for q in prim_set(s)]), \
        (r.name, s.name)
    space, space_r, space_s = (SpectrumSpace.build(x) for x in (product, r, s))
    unions = [a | b
              for a in closed_point_sets(space_r, lambda p: cross_mask(r, s, p, s.full_mask))
              for b in closed_point_sets(space_s, lambda q: cross_mask(r, s, r.full_mask, q))]
    closed = closed_point_sets(space, lambda m: m)
    assert len(closed) == len(unions) and set(closed) == set(unions), (r.name, s.name)
    assert space.is_t1() == (space_r.is_t1() and space_s.is_t1()), (r.name, s.name)
    if not (r.is_unital and s.is_unital):
        return False
    assert masks(IdealLattice.build(product).two_sided) == sorted(
        cross_mask(r, s, i.members.mask, j.members.mask)
        for i in IdealLattice.build(r).two_sided
        for j in IdealLattice.build(s).two_sided), (r.name, s.name)
    return True


def test_products_of_corpus_rings_have_the_product_prim_lattice_and_t1(corpus4):
    pairs = sample(corpus4)
    unital = sum(check_product(r, s) for r, s in pairs)
    assert (len(pairs), unital) == (497, 405)


@pytest.mark.slow
def test_every_small_product_of_corpus_rings(corpus4):
    pairs = small_pairs(corpus4)
    unital = sum(check_product(r, s) for r, s in pairs)
    assert (len(pairs), unital) == (6923, 405)
