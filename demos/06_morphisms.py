"""Strong homs and what they do to spectra."""

from krasner.catalog import cyclic_ring
from krasner.dsl import emit_hom
from krasner.morphisms import (
    RingHom,
    check_closed_embedding,
    check_density,
    enumerate_ring_homs,
    induced_map,
    is_continuous,
    kernel_ideal,
    verify_strong_hom,
)

z4 = cyclic_ring(4)
z2 = cyclic_ring(2)

# reduction mod 2 is a strong surjection
proj = RingHom(z4, z2, (0, 1, 0, 1))
print(f"z4 -> z2 via {proj.mapping}: strong hom {verify_strong_hom(proj).ok}, "
      f"kernel {kernel_ideal(proj).members!r}")

imap = induced_map(proj)
print(f"pullback sends {imap.codomain.size} point(s) into Prim(z4), "
      f"total {imap.total}, continuous {is_continuous(imap)}")
print(f"closed embedding: {check_closed_embedding(imap).ok}")
den = check_density(imap)
print(f"image dense {den.dense} == kernel inside the prime intersection "
      f"{den.kernel_in_radical}")

# the zero map is also a strong hom, but its pullback leaves the spectrum:
# every primitive ideal pulls back to all of z4, which is not primitive
zero = RingHom(z4, z2, (0, 0, 0, 0))
zmap = induced_map(zero)
print(f"\nzero map: strong hom {verify_strong_hom(zero).ok}, "
      f"total pullback {zmap.total}")
for i, pulled in zmap.escapes:
    print(f"  point {zmap.domain.points[i].members!r} "
          f"pulls back to {pulled.members!r}")

# how common is each kind? sweep all homs between the two rings
homs = enumerate_ring_homs(z4, z2)
total = sum(1 for h in homs if induced_map(h).total)
print(f"\n{len(homs)} strong homs z4 -> z2, {total} with a total pullback")

print("\nthe text format keeps homs next to their rings:")
print(emit_hom(proj, "reduce", "z4", "z2"))
