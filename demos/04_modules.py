"""From maximal right hyperideals to primitive hyperideals, step by step.

The route: take a maximal right hyperideal m with some product outside
it, form the quotient module R/m, check it is simple, and read off its
annihilator. That annihilator is primitive, and every primitive
hyperideal shows up this way.
"""

from krasner.catalog import cyclic_ring
from krasner.hypermodules import (
    annihilator,
    enumerate_subhypermodules,
    is_simple,
    quotient_module,
    regular_module,
)
from krasner.ideals import IdealLattice
from krasner.primitivity import prim_certificates

ring = cyclic_ring(6)
reg = regular_module(ring)
print(f"the regular module of {ring.name} has submodules:")
for mask_members in enumerate_subhypermodules(reg):
    print(f"  {{{','.join(map(str, mask_members))}}}")

lattice = IdealLattice.build(ring)
print(f"\nmaximal right hyperideals: "
      + ", ".join("{" + ",".join(map(str, m.members)) + "}"
                  for m in lattice.maximal_right))

for m in lattice.maximal_right:
    quot = quotient_module(reg, reg.from_mask(m.members.mask))
    module = quot.module
    ann = annihilator(module)
    print(f"\nR/{{{','.join(map(str, m.members))}}}: "
          f"order {module.order}, simple: {is_simple(module)}")
    print(f"  annihilator {{{','.join(map(str, ann.members))}}}")

certs = prim_certificates(ring)
print(f"\nprimitive hyperideals of {ring.name}:")
for c in certs:
    print(f"  {{{','.join(map(str, c.ideal.members))}}} "
          f"(from maximal right {{{','.join(map(str, c.maximal_right.members))}}})")
