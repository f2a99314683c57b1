"""Seeded inputs for the files12 workload: direct products of corpus rings.

PLAN fixes 12 products R x S of order 6 to 12 (shapes 2x3, 2x4, 3x3, 3x4
and 4x3), the even-numbered ones with both factors unital and the odd
ones with both factors non-unital.  Each product is relabelled by a fixed
permutation fixing 0 and written as `.khr` text together with its two
factor projections.  The seed names every ring and hom and shuffles the
lines inside every block, so each seed gives other files and other
outputs but the same tables and so the same amount of work.  (A seeded
relabelling of the elements would change the work: the early exits of
the ideal tests depend on the labels, by up to half on one product.)
The text comes from the small writer in this file, not from
`krasner.dsl.emit_*`, so a change to the emitter cannot change the
inputs.

The factors come from `krasner.corpus.generate_corpus(4)` by canonical
name; everything after that is plain tables, so the products share no
code with the package under test.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass

SHAPES = ((2, 3), (2, 4), (3, 3), (3, 4), (4, 3))

# (left, right) corpus names, shape SHAPES[i % 5]; drawn once at random
# from the unital (even i) and non-unital (odd i) rings of each order
PLAN = (
    ("r2_3", "r3_4"), ("r2_2", "r4_6"), ("r3_18", "r3_18"), ("r3_17", "r4_39"),
    ("r4_10", "r3_14"), ("r2_0", "r3_16"), ("r2_3", "r4_10"), ("r3_17", "r3_16"),
    ("r3_6", "r4_90"), ("r4_121", "r3_17"), ("r2_3", "r3_18"), ("r2_2", "r4_76"),
)


@dataclass(frozen=True)
class Tables:
    """One finite ring as plain tables over {0..n-1}, 0 the identity."""

    name: str
    add: tuple   # add[a][b] is a sorted tuple of elements
    neg: tuple
    mul: tuple
    unit: int | None

    @property
    def order(self) -> int:
        return len(self.neg)


@dataclass(frozen=True)
class Product:
    ring: Tables
    left: Tables
    right: Tables
    to_left: tuple   # projection onto the left factor, as a value table
    to_right: tuple


def tables_of(ring, name: str) -> Tables:
    """Plain tables of a corpus ring (read off its public attributes)."""
    n = ring.order
    add = tuple(tuple(tuple(t for t in range(n) if ring.add_masks[a][b] >> t & 1)
                      for b in range(n)) for a in range(n))
    return Tables(name, add, tuple(ring.neg_table),
                  tuple(tuple(row) for row in ring.mul_table), ring.unit)


def direct_product(left: Tables, right: Tables, name: str) -> Tables:
    """R x S with componentwise operations; the pair (r, s) is r*|S| + s."""
    m = right.order
    n = left.order * m
    add = tuple(
        tuple(tuple(sorted(r * m + s
                           for r in left.add[x // m][y // m]
                           for s in right.add[x % m][y % m]))
              for y in range(n))
        for x in range(n))
    neg = tuple(left.neg[x // m] * m + right.neg[x % m] for x in range(n))
    mul = tuple(tuple(left.mul[x // m][y // m] * m + right.mul[x % m][y % m]
                      for y in range(n))
                for x in range(n))
    unit = None
    if left.unit is not None and right.unit is not None:
        unit = left.unit * m + right.unit
    return Tables(name, add, neg, mul, unit)


def relabel(t: Tables, perm) -> Tables:
    """The same ring with element x renamed perm[x]."""
    n = t.order
    inv = [0] * n
    for x, y in enumerate(perm):
        inv[y] = x
    add = tuple(tuple(tuple(sorted(perm[v] for v in t.add[inv[a]][inv[b]]))
                      for b in range(n)) for a in range(n))
    neg = tuple(perm[t.neg[inv[a]]] for a in range(n))
    mul = tuple(tuple(perm[t.mul[inv[a]][inv[b]]] for b in range(n)) for a in range(n))
    unit = None if t.unit is None else perm[t.unit]
    return Tables(t.name, add, neg, mul, unit)


def build_products(corpus) -> list:
    """The PLAN products, relabelled, with their projections."""
    by_name = {e.name: e.ring for e in corpus}
    rng = random.Random("files12 relabel")
    out = []
    for i, (lname, rname) in enumerate(PLAN):
        left = tables_of(by_name[lname], f"A{i:02d}")
        right = tables_of(by_name[rname], f"B{i:02d}")
        prod = direct_product(left, right, f"P{i:02d}")
        n, m = prod.order, right.order
        rest = list(range(1, n))
        rng.shuffle(rest)
        perm = [0] + rest
        to_left = [0] * n
        to_right = [0] * n
        for x in range(n):
            to_left[perm[x]] = x // m
            to_right[perm[x]] = x % m
        out.append(Product(relabel(prod, perm), left, right,
                           tuple(to_left), tuple(to_right)))
    return out


def _set(values) -> str:
    return "{" + ",".join(str(v) for v in values) + "}"


def ring_text(t: Tables, name: str, rng: random.Random) -> str:
    n = t.order
    body = [f"  add {a} {b} {_set(t.add[a][b])}" for a in range(1, n) for b in range(1, n)]
    body += [f"  neg {a} {t.neg[a]}" for a in range(1, n)]
    body += [f"  mul {a} {b} {t.mul[a][b]}" for a in range(1, n) for b in range(1, n)]
    if t.unit is not None:
        body.append(f"  unit {t.unit}")
    rng.shuffle(body)
    return "\n".join([f"ring {name}", f"  order {n}", *body, "end"]) + "\n"


def hom_text(name: str, source: str, target: str, unit_preserving: bool,
             mapping, rng: random.Random) -> str:
    body = [f"  map {a} {v}" for a, v in enumerate(mapping)]
    if unit_preserving:
        body.append("  unit_preserving")
    rng.shuffle(body)
    return "\n".join([f"hom {name} : {source} -> {target}", *body, "end"]) + "\n"


def product_files(i: int, p: Product, rng: random.Random) -> tuple:
    """(ring file text, hom file text) of product i: the product alone,
    and the product with both factors and both projections."""
    tag = "".join(rng.choice(string.ascii_lowercase) for _ in range(5))
    names = {t.name: f"{t.name}{tag}" for t in (p.ring, p.left, p.right)}
    ring = ring_text(p.ring, names[p.ring.name], rng)
    pieces = [ring, ring_text(p.left, names[p.left.name], rng),
              ring_text(p.right, names[p.right.name], rng)]
    for label, factor, mapping in (("left", p.left, p.to_left),
                                   ("right", p.right, p.to_right)):
        unital = p.ring.unit is not None and factor.unit is not None
        pieces.append(hom_text(f"{label}{i:02d}{tag}", names[p.ring.name],
                               names[factor.name], unital, mapping, rng))
    return ring, "\n".join(pieces)


def inputs(seed: int, corpus) -> list:
    """(base name, ring file text, hom file text) per product."""
    rng = random.Random(f"files12 {seed}")
    return [(f"p{i:02d}", *product_files(i, p, rng))
            for i, p in enumerate(build_products(corpus))]


def write_inputs(seed: int, corpus, out_dir: str) -> list:
    """Write p<i>.khr and p<i>_homs.khr per product; return the base names."""
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for base, ring_file, hom_file in inputs(seed, corpus):
        for fname, text in ((f"{base}.khr", ring_file), (f"{base}_homs.khr", hom_file)):
            with open(os.path.join(out_dir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        names.append(base)
    return names
