"""Hyperideal lattices checked against an independent divisor oracle.

For the cyclic rings the two sided hyperideals are exactly the subgroups
dZ_n for d | n, so the lattice, the maximal and the prime layer can all be
recomputed from plain integer arithmetic and compared.
"""


import pytest

from krasner import ideals
from krasner.catalog import cyclic_ring, zero_mul_ring
from krasner.core import ENUMERATION_BOUND, BoundExceededError, TheoremViolationError
from krasner.ideals import (
    HyperIdeal,
    IdealLattice,
    cross_check_generated,
    enumerate_ideals,
    generated_ideal,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_hyperideal,
    is_prime,
    maximal_above,
    nil_radical,
    nilpotent_elements,
    quotient_ring,
    sum_of_products_closure,
)


def divisor_ideals(n):
    """Oracle: member tuples of dZ_n for every divisor d of n."""
    out = []
    for d in range(1, n + 1):
        if n % d == 0:
            out.append(tuple(sorted(range(0, n, d))))
    return sorted(out)


def members(ideals):
    return sorted(i.members.members for i in ideals)


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9, 12])
def test_cyclic_lattices_match_divisor_oracle(n):
    lattice = IdealLattice.build(cyclic_ring(n))
    assert members(lattice.two_sided) == divisor_ideals(n)
    # commutative, so the right ideals coincide
    assert members(lattice.right) == divisor_ideals(n)


def test_z4_frozen_lattice(z4):
    lattice = IdealLattice.build(z4)
    assert members(lattice.two_sided) == [(0,), (0, 1, 2, 3), (0, 2)]
    assert members(lattice.maximal) == [(0, 2)]
    assert members(lattice.prime) == [(0, 2)]
    assert members(lattice.maximal_right) == [(0, 2)]


def test_z6_frozen_lattice(z6):
    lattice = IdealLattice.build(z6)
    assert members(lattice.two_sided) == [(0,), (0, 1, 2, 3, 4, 5), (0, 2, 4), (0, 3)]
    assert members(lattice.maximal) == [(0, 2, 4), (0, 3)]
    assert members(lattice.prime) == [(0, 2, 4), (0, 3)]


def test_hyperfield_k_is_simple(kfield):
    lattice = IdealLattice.build(kfield)
    assert members(lattice.two_sided) == [(0,), (0, 1)]
    assert members(lattice.maximal) == [(0,)]


def test_non_ideal_witness(z4):
    check = is_hyperideal(z4, [0, 1])
    assert not check.ok
    # -1 = 3 is the first thing that leaves the set
    assert check.clause == "neg-closure"
    assert check.witness == (1,)
    assert "escapes" in check.detail


def test_ideal_constructor_rejects_non_ideal(z4):
    with pytest.raises(ValueError):
        HyperIdeal(z4, [0, 1])


def test_sidedness_checks(z4):
    assert is_hyperideal(z4, [0, 2], "left").ok
    assert is_hyperideal(z4, [0, 2], "right").ok
    with pytest.raises(ValueError):
        is_hyperideal(z4, [0, 2], "middle")


def test_ideal_sum_and_product_z6(z6):
    lattice = IdealLattice.build(z6)
    by_members = {i.members.members: i for i in lattice.two_sided}
    a = by_members[(0, 3)]
    b = by_members[(0, 2, 4)]
    assert ideal_sum([a, b]).members.members == (0, 1, 2, 3, 4, 5)
    assert ideal_intersection([a, b]).members.members == (0,)
    assert ideal_product(a, b).members.members == (0,)


def test_meet_and_sum_keep_the_shared_sidedness(corpus4):
    # r4_7 has the right ideal {0,2}, which is not two sided; combined
    # with a two sided ideal the result is a right ideal again
    ring = next(e.ring for e in corpus4 if e.name == "r4_7")
    lattice = IdealLattice.build(ring)
    right = next(i for i in lattice.right if i.members.members == (0, 2))
    assert not is_hyperideal(ring, right.members, "two-sided")
    whole = next(i for i in lattice.two_sided if not i.proper)
    zero = next(i for i in lattice.two_sided if i.members.members == (0,))
    for out in (ideal_intersection([right, whole]), ideal_sum([right, zero]),
                ideal_sum([zero, right])):
        assert out.sidedness == "right"
        assert out.members.members == (0, 2)
    left = HyperIdeal(ring, [0], "left")
    for combine in (ideal_intersection, ideal_sum):
        with pytest.raises(ValueError, match="left and right"):
            combine([left, whole, right])


def test_mixed_products_are_ideals_on_the_sides_that_absorb(corpus4):
    # r4_7: the whole ring times the right ideal {0,2} absorbs on the
    # left through the whole ring and on the right through {0,2}
    ring = next(e.ring for e in corpus4 if e.name == "r4_7")
    lattice = IdealLattice.build(ring)
    right = next(i for i in lattice.right if i.members.members == (0, 2))
    whole = next(i for i in lattice.two_sided if not i.proper)
    prod = ideal_product(whole, right)
    assert isinstance(prod, HyperIdeal)
    assert (prod.sidedness, prod.members.members) == ("two-sided", (0, 1, 2, 3))
    prod = ideal_product(right, whole)
    assert isinstance(prod, HyperIdeal)
    assert (prod.sidedness, prod.members.members) == ("right", (0, 2))


def absorbs(ring, mask, left, right):
    mul, n = ring.mul_table, ring.order
    for x in range(n):
        if mask >> x & 1:
            for r in range(n):
                if left and not mask >> mul[r][x] & 1:
                    return False
                if right and not mask >> mul[x][r] & 1:
                    return False
    return True


def test_product_sidedness_rule(corpus3):
    # left absorption comes from a, right absorption from b; a right
    # ideal times a left ideal has no side and stays an element set
    seen = set()
    for entry in corpus3:
        ring = entry.ring
        family = [i for side in ("left", "right", "two-sided")
                  for i in enumerate_ideals(ring, side)]
        for a in family:
            for b in family:
                prod = ideal_product(a, b)
                left = a.sidedness in ("left", "two-sided")
                right = b.sidedness in ("right", "two-sided")
                if not (left or right):
                    assert not isinstance(prod, HyperIdeal)
                    continue
                expected = {(True, True): "two-sided", (True, False): "left",
                            (False, True): "right"}[(left, right)]
                assert isinstance(prod, HyperIdeal)
                assert prod.sidedness == expected
                assert absorbs(ring, prod.key, left, right)
                seen.add((a.sidedness, b.sidedness))
    assert len(seen) == 8


def test_product_lands_inside_intersection(corpus3):
    for entry in corpus3:
        lattice = IdealLattice.build(entry.ring)
        for a in lattice.two_sided:
            for b in lattice.two_sided:
                prod = ideal_product(a, b)
                meet = ideal_intersection([a, b])
                assert prod.members.mask & ~meet.members.mask == 0


def test_generated_ideal_cross_oracle(z6, corpus3):
    g = generated_ideal(z6, [2])
    assert g.members.members == (0, 2, 4)
    assert cross_check_generated(z6, [2], IdealLattice.build(z6)).key == g.key
    for entry in corpus3:
        ring = entry.ring
        lattice = IdealLattice.build(ring)
        for seed in range(ring.order):
            cross_check_generated(ring, [seed], lattice)


def test_generated_ideal_is_smallest(z4):
    lattice = IdealLattice.build(z4)
    g = generated_ideal(z4, [2])
    covers = [i for i in lattice.two_sided if i.members.mask & g.members.mask == g.members.mask]
    assert min(c.members.mask.bit_count() for c in covers) == g.members.mask.bit_count()


def test_maximal_above(z6):
    lattice = IdealLattice.build(z6)
    zero = next(i for i in lattice.two_sided if i.members.members == (0,))
    # two maximal candidates sit above {0}; the tie breaks to the smaller mask
    top = maximal_above(zero, lattice)
    assert top.members.members == (0, 3)
    whole = next(i for i in lattice.two_sided if not i.proper)
    with pytest.raises(ValueError):
        maximal_above(whole, lattice)


def test_prime_witness(z4):
    lattice = IdealLattice.build(z4)
    zero = next(i for i in lattice.two_sided if i.members.members == (0,))
    check = is_prime(zero, lattice)
    assert not check.ok
    # {0,2} * {0,2} = {0} lands in {0} while neither factor does
    a, b = check.witness
    assert a.members.members == (0, 2)
    assert b.members.members == (0, 2)


def old_prime_witness(ideal, two_sided):
    """Oracle: the |L|^3 route, one ideal_product per pair per candidate."""
    p = ideal.members.mask
    for a in two_sided:
        for b in two_sided:
            if ideal_product(a, b).members.mask & ~p == 0:
                if a.members.mask & ~p and b.members.mask & ~p:
                    return (a, b)
    return None


def test_primality_matches_the_pairwise_product_oracle(corpus4):
    rings = [e.ring for e in corpus4] + [cyclic_ring(n) for n in (8, 9, 12)]
    rows = witnessed = 0
    for ring in rings:
        lattice = IdealLattice.build(ring)
        primes = []
        for ideal in lattice.two_sided:
            if not ideal.proper:
                continue
            expected = old_prime_witness(ideal, lattice.two_sided)
            check = is_prime(ideal, lattice)
            assert check.ok is (expected is None)
            assert [w.key for w in check.witness] == [w.key for w in expected or ()]
            if expected is None:
                primes.append(ideal.key)
            rows += 1
            witnessed += expected is not None
        assert [p.key for p in lattice.prime] == primes
    # 166 prime families plus 291 verdicts, 251 of them with a witness
    assert (len(rings), rows, witnessed) == (166, 291, 251)


def test_product_table_matches_ideal_product(corpus4):
    for entry in corpus4:
        lattice = IdealLattice.build(entry.ring)
        assert len(lattice.products) == len(lattice.two_sided) ** 2
        for a in lattice.two_sided:
            for b in lattice.two_sided:
                assert lattice.products[a.key, b.key] == ideal_product(a, b).members.mask


def test_lattice_build_closes_each_ordered_pair_once(monkeypatch, fresh_memos):
    ring = cyclic_ring(12)  # fresh: the lattice is kept on its ring
    closures = []

    def count(*args):
        closures.append(args)
        return sum_of_products_closure(*args)

    def refuse(*args):
        raise AssertionError("ideal_product called")

    monkeypatch.setattr(ideals, "sum_of_products_closure", count)
    monkeypatch.setattr(ideals, "ideal_product", refuse)
    lattice = IdealLattice.build(ring)
    assert len(closures) == len(lattice.two_sided) ** 2 == 36
    closures.clear()
    verdicts = [is_prime(i, lattice).ok for i in lattice.two_sided if i.proper]
    assert closures == []
    assert verdicts.count(True) == 2  # 2Z/12 and 3Z/12


def test_a_product_that_is_no_ideal_raises_ideal_products_message(monkeypatch, fresh_memos):
    # every product grows by the element 1, and {0,1} is no ideal of Z4
    def grow(add, products):
        return sum_of_products_closure(add, products) | 0b10

    monkeypatch.setattr(ideals, "sum_of_products_closure", grow)
    # a build that raises keeps nothing, so a second ring with the same
    # tables raises too
    for ring in (cyclic_ring(4), cyclic_ring(4)):
        with pytest.raises(TheoremViolationError, match="product of two-sided ideals failed"):
            IdealLattice.build(ring)
    assert not ideals._LATTICE_FAMILIES and "lattice" not in ring._derived


def test_a_product_missing_from_the_lattice_is_named(monkeypatch, fresh_memos):
    # {0,2} * {0,2} = {0}, which the damaged scan leaves out
    scan = ideals.enumerate_ideals

    def drop_zero(ring, sidedness="two-sided"):
        found = scan(ring, sidedness)
        return tuple(i for i in found if i.key != 1) if sidedness == "two-sided" else found

    monkeypatch.setattr(ideals, "enumerate_ideals", drop_zero)
    with pytest.raises(TheoremViolationError, match=r"\{0\} .*missing from the lattice"):
        IdealLattice.build(cyclic_ring(4))


def test_is_prime_refuses_an_ideal_of_another_ring(z4, z6, monkeypatch, fresh_memos):
    def refuse(*args):
        raise AssertionError("primality work before the ring check")

    lattice = IdealLattice.build(z4)
    monkeypatch.setattr(ideals, "_prime_witness", refuse)
    with pytest.raises(ValueError, match="ideal belongs to a different ring"):
        is_prime(HyperIdeal(z6, [0, 3]), lattice)


def test_the_transposed_table_is_built_once_per_ring(z4):
    columns = ideals._absorption(z4, "two-sided")[1][1]
    assert ideals._absorption(z4, "left")[0][1] is columns
    assert columns == tuple(zip(*z4.mul_table))


def test_primes_in_zero_mul_ring(zmul2):
    # every product is 0, so only the improper ideal can be prime;
    # primes are proper by definition, leaving none
    lattice = IdealLattice.build(zmul2)
    assert lattice.prime == ()


def test_nil_radical(z4, z6, kfield):
    assert nil_radical(z4, IdealLattice.build(z4)).members.members == (0, 2)
    assert nil_radical(z6, IdealLattice.build(z6)).members.members == (0,)
    assert nil_radical(kfield, IdealLattice.build(kfield)).members.members == (0,)


def test_nil_radical_without_primes(zmul2):
    # empty intersection convention: the whole ring
    rad = nil_radical(zmul2, IdealLattice.build(zmul2))
    assert rad.members.is_full()


def test_nilpotent_elements(z4, z6):
    assert nilpotent_elements(z4).members == (0, 2)
    assert nilpotent_elements(z6).members == (0,)


def test_quotient_z4_by_even(z4):
    lattice = IdealLattice.build(z4)
    even = next(i for i in lattice.two_sided if i.members.members == (0, 2))
    q = quotient_ring(z4, even)
    assert q.ring.order == 2
    assert q.ring.validated
    assert q.ring.unit == 1
    assert q.coset_of == (0, 1, 0, 1)
    assert sorted(q.coset_members(c).members for c in range(2)) == [(0, 2), (1, 3)]
    assert q.projection.mapping == (0, 1, 0, 1)


def test_quotient_by_whole_ring(z4):
    lattice = IdealLattice.build(z4)
    whole = next(i for i in lattice.two_sided if not i.proper)
    q = quotient_ring(z4, whole)
    assert q.ring.order == 1


def test_quotient_preserves_validity_corpuswide(corpus3):
    for entry in corpus3:
        lattice = IdealLattice.build(entry.ring)
        for ideal in lattice.two_sided:
            q = quotient_ring(entry.ring, ideal)
            assert q.ring.validated


def test_enumeration_bound():
    big = cyclic_ring(ENUMERATION_BOUND + 1)
    with pytest.raises(BoundExceededError):
        enumerate_ideals(big)


def test_ideals_are_hashable_by_key(z6):
    lattice = IdealLattice.build(z6)
    keys = {i.key for i in lattice.two_sided}
    assert len(keys) == len(lattice.two_sided)
    # a right ideal equals the two sided one with its members, so the
    # set keeps one ideal per mask; lattices hash by their families
    both = {*lattice.two_sided, *lattice.right}
    assert sorted(i.key for i in both) == sorted({i.key for i in lattice.right} | keys)
    assert hash(lattice._replace(products={})) == hash(lattice)
