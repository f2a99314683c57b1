"""The hyperideal lattice of z12: divisors in disguise."""

from krasner.catalog import cyclic_ring
from krasner.ideals import (
    IdealLattice,
    generated_ideal,
    ideal_product,
    ideal_sum,
    nil_radical,
    quotient_ring,
)

ring = cyclic_ring(12)
lattice = IdealLattice.build(ring)

maximal = {m.key for m in lattice.maximal}
prime = {p.key for p in lattice.prime}
print(f"{ring.name} has {len(lattice.two_sided)} hyperideals:")
for a in sorted(lattice.two_sided, key=lambda i: (len(i), i.key)):
    flags = []
    if a.key in maximal:
        flags.append("maximal")
    if a.key in prime:
        flags.append("prime")
    print(f"  {a.members!r}"
          + (f"  ({', '.join(flags)})" if flags else ""))

print(f"\nnil radical: {nil_radical(ring, lattice).members!r}")

# arithmetic in the lattice mirrors gcd and lcm of the generators
three = generated_ideal(ring, [3])
four = generated_ideal(ring, [4])
print(f"\n(3) + (4) = {ideal_sum([three, four]).members!r}")
print(f"(3) * (4) = {ideal_product(three, four).members!r}")

# quotient by (4): three cosets, and the projection is a strong hom
quotient = quotient_ring(ring, four)
print(f"\nz12 / (4) has {quotient.ring.order} elements, "
      f"unit {quotient.ring.unit}, valid: {quotient.ring.validate().ok}")
for c in range(quotient.ring.order):
    print(f"  coset {c} = {quotient.coset_members(c)!r}")
