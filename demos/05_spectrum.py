"""The hull kernel topology on the primitive hyperideals, drawn out.

Closed sets are V(S) = points containing the kernel of S. On these tiny
spectra everything can be materialized, so the closure laws, separation
axioms and irreducible pieces are all checked by brute force.
"""

from krasner.catalog import cyclic_ring
from krasner.corpus import generate_corpus
from krasner.spectrum import (
    SpectrumSpace,
    dot_graph,
    irreducible_components,
    longest_closed_chain,
    verify_kuratowski,
)

space = SpectrumSpace.build(cyclic_ring(12))
print(f"spectrum of z12: {space.size} points")
for i, p in enumerate(space.points):
    print(f"  p{i} = {p.members!r}")
print(f"closed sets: {[f'{c:04b}' for c in space.closed_sets()]}")
print(f"t0 {space.is_t0()}, t1 {space.is_t1()}")

report = verify_kuratowski(space)
print(f"closure laws hold on {report.pairs_checked} union pairs: {report.ok}")

comps = irreducible_components(space)
print(f"irreducible components: {[f'{c:04b}' for c in comps]}")
print(f"longest chain of irreducible closed sets: "
      f"{[f'{c:04b}' for c in longest_closed_chain(space)]}")

print("\nDOT, ready for graphviz:")
print(dot_graph(space))

# t1 and "primitive = maximal" travel together on unital rings, and the
# corpus shows where the equivalence snaps without a unit
print("spectra across the order <= 3 corpus:")
for entry in generate_corpus(max_order=3):
    s = SpectrumSpace.build(entry.ring)
    tag = "unital" if entry.ring.is_unital else "no unit"
    print(f"  {entry.name} ({tag}): {s.size} point(s), t1 {s.is_t1()}")
