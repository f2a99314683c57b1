"""The files12 generator: deterministic per seed, and every product is a
Krasner hyperring with strong projections, judged by the spelled-out
frozenset check below rather than by HyperRing.validate."""

import itertools

import pytest

import products
from krasner.corpus import generate_corpus
from krasner.dsl import parse_text

SEEDS = (0, 1, 7)


@pytest.fixture(scope="module")
def corpus4():
    return generate_corpus(4)


def hyperring_violations(t):
    """Every axiom of a Krasner hyperring, over frozensets."""
    n = t.order
    add = {(a, b): frozenset(t.add[a][b]) for a in range(n) for b in range(n)}
    mul = t.mul

    def sum_set(xs, ys):
        return frozenset().union(*(add[(x, y)] for x in xs for y in ys))

    out = []
    for a, b in itertools.product(range(n), repeat=2):
        if not add[(a, b)]:
            out.append(f"{a}+{b} empty")
        if add[(a, b)] != add[(b, a)]:
            out.append(f"{a}+{b} not commutative")
    for a, b, c in itertools.product(range(n), repeat=3):
        if sum_set(add[(a, b)], {c}) != sum_set({a}, add[(b, c)]):
            out.append(f"+ not associative at {a},{b},{c}")
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            out.append(f"* not associative at {a},{b},{c}")
        if frozenset(mul[a][x] for x in add[(b, c)]) != add[(mul[a][b], mul[a][c])]:
            out.append(f"left distributivity fails at {a},{b},{c}")
        if frozenset(mul[x][c] for x in add[(a, b)]) != add[(mul[a][c], mul[b][c])]:
            out.append(f"right distributivity fails at {a},{b},{c}")
        if a in add[(b, c)] and not (c in add[(t.neg[b], a)] and b in add[(a, t.neg[c])]):
            out.append(f"reversibility fails at {a},{b},{c}")
    for a in range(n):
        if add[(a, 0)] != {a}:
            out.append(f"0 is no identity for {a}")
        if [b for b in range(n) if 0 in add[(a, b)]] != [t.neg[a]]:
            out.append(f"{a} lacks a unique negative")
        if mul[a][0] != 0 or mul[0][a] != 0:
            out.append(f"0 does not absorb {a}")
        if t.unit is not None and (mul[a][t.unit] != a or mul[t.unit][a] != a):
            out.append(f"unit fails on {a}")
    return out


def strong_hom_violations(source, target, f):
    out = []
    if f[0] != 0:
        out.append("0 not fixed")
    for a, b in itertools.product(range(source.order), repeat=2):
        if frozenset(f[x] for x in source.add[a][b]) != frozenset(target.add[f[a]][f[b]]):
            out.append(f"sum {a},{b}")
        if f[source.mul[a][b]] != target.mul[f[a]][f[b]]:
            out.append(f"product {a},{b}")
    if set(f) != set(range(target.order)):
        out.append("not onto")
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_generator_is_deterministic_per_seed(seed, corpus4):
    first = products.inputs(seed, corpus4)
    assert first == products.inputs(seed, corpus4)
    other = products.inputs(seed + 100, corpus4)
    assert [(b, len(r), len(h)) for b, r, h in first] == \
        [(b, len(r), len(h)) for b, r, h in other]
    assert all(a[1] != b[1] and a[2] != b[2] for a, b in zip(first, other))


def test_plan_fixes_shapes_and_unital_split(corpus4):
    built = products.build_products(corpus4)
    assert len(built) == 12
    for i, p in enumerate(built):
        assert (p.left.order, p.right.order) == products.SHAPES[i % 5]
        assert p.ring.order == p.left.order * p.right.order
        unital = i % 2 == 0
        assert (p.left.unit is not None) == unital
        assert (p.right.unit is not None) == unital
        assert (p.ring.unit is not None) == unital


def test_products_satisfy_the_axioms_independently(corpus4):
    for p in products.build_products(corpus4):
        assert hyperring_violations(p.ring) == [], p.ring.name
        assert strong_hom_violations(p.ring, p.left, p.to_left) == []
        assert strong_hom_violations(p.ring, p.right, p.to_right) == []


@pytest.mark.parametrize("seed", SEEDS)
def test_written_text_parses_to_the_same_tables(seed, corpus4):
    built = products.build_products(corpus4)
    for p, (_, ring_file, hom_file) in zip(built, products.inputs(seed, corpus4)):
        (ring,) = parse_text(ring_file).rings.values()
        assert ring.add_masks == tuple(tuple(sum(1 << v for v in cell) for cell in row)
                                       for row in p.ring.add)
        assert ring.neg_table == p.ring.neg
        assert ring.mul_table == p.ring.mul
        assert ring.unit == p.ring.unit
        doc = parse_text(hom_file)
        assert [r.add_masks for r in doc.rings.values()][0] == ring.add_masks
        assert [h.mapping for h in doc.homs.values()] == [p.to_left, p.to_right]


def test_independent_check_rejects_a_broken_table(corpus4):
    p = products.build_products(corpus4)[0]
    mul = [list(row) for row in p.ring.mul]
    mul[1][1] = 0 if mul[1][1] else 1
    broken = products.Tables(p.ring.name, p.ring.add, p.ring.neg,
                             tuple(tuple(row) for row in mul), p.ring.unit)
    assert hyperring_violations(broken)
