"""How many finite Krasner hyperrings are there, really?

Exhaustive counts by order, labelled and up to relabeling. The growth is why
the generator caps out at order 4.
"""

import itertools
import math

from krasner.corpus import (
    enumerate_hypergroups,
    generate_corpus,
    mult_tables,
    ring_canonical_key,
)


def automorphisms(add):
    """How many relabelings fixing 0 give the addition table back."""
    n = len(add)
    count = 0
    for rest in itertools.permutations(range(1, n)):
        perm = (0,) + rest

        def moved(m):
            return sum(1 << perm[r] for r in range(n) if m >> r & 1)

        count += all(moved(add[p][q]) == add[perm[p]][perm[q]]
                     for p in range(n) for q in range(n))
    return count


# the generator keeps one table per class; a class whose table has
# automorphism group Aut holds (n - 1)! / |Aut| labelled tables
print("canonical hypergroups by order (labelled / distinct up to relabeling):")
for n in (1, 2, 3, 4):
    classes = enumerate_hypergroups(n)
    labelled = sum(math.factorial(n - 1) // automorphisms(add) for add, _ in classes)
    print(f"  order {n}: {labelled:3d} / {len(classes)}")

print("\nmultiplications compatible with each order 3 hypergroup:")
for add, neg in enumerate_hypergroups(3):
    muls = mult_tables(3, add)
    rows = ["".join(f"{m:x}" for m in row) for row in add]
    print(f"  add masks {'/'.join(rows)}: {len(muls)} multiplication(s)")

corpus = generate_corpus(max_order=4)
by_order = {}
for entry in corpus:
    by_order[entry.ring.order] = by_order.get(entry.ring.order, 0) + 1
print(f"\nfull corpus: {len(corpus)} rings: " +
      ", ".join(f"{c} of order {o}" for o, c in sorted(by_order.items())))

unital = sum(1 for e in corpus if e.ring.is_unital)
print(f"{unital} have a unit, {len(corpus) - unital} do not")

# canonical keys are what keeps the corpus free of relabeled duplicates
e = corpus[7]
print(f"\ncanonical key of {e.name}: {ring_canonical_key(e.ring)}")
