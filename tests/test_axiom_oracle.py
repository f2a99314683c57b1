"""The first witness of every axiom check, refereed by an independent oracle.

Each validator reports, per axiom, the first failing instance in its own
scan order.  The oracle here restates every axiom with frozensets and
explicit quantifiers, shares no code with ``krasner.core``, and names the
first failing instance in each validator's scan order: the six
hypergroup axioms, the ring and module table axioms, and the checks of
ring homs and module homs.  ``hypothesis`` changes corpus-3 and bundled
rings, Z/7 to Z/12, direct products of order 6 to 12, and their regular
and quotient modules (add cells, emptied ones included, a pair of
swapped add cells set to one mask, single-valued table cells, negation
entries and the declared unit) and the maps of real homs between them,
and every reported ``(axiom, ok, witness, detail)`` must equal the
oracle's.  A changed pair keeps a commutative addition commutative, so
the validators' scans over unordered pairs meet failing tables too.
"""

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from krasner.catalog import cyclic_ring, hyperfield_k, standard_rings
from krasner.core import HyperRing
from krasner.corpus import generate_corpus
from krasner.hypermodules import (
    HyperModule,
    ModuleHom,
    enumerate_module_homs,
    enumerate_subhypermodules,
    quotient_module,
    regular_module,
    verify_module_hom,
)
from krasner.morphisms import RingHom, enumerate_ring_homs, verify_strong_hom

from conftest import direct_product


def sets(masks):
    """A table of member masks as a table of frozensets."""
    return [[frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in row]
            for row in masks]


def first(instances, fails):
    """The first instance that fails, or None when every one holds."""
    for w in instances:
        if fails(*w):
            return w
    return None


def expected(axiom, witness, detail):
    """The report line of axiom failing first at witness (None when it
    holds), described by detail(*witness)."""
    if witness is None:
        return (axiom, True, (), "")
    return (axiom, False, witness, detail(*witness))


def at(claim):
    """The detail "<claim> at <witness>"."""
    return lambda *w: f"{claim} at {w}"


def hypergroup_oracle(s):
    A = sets(s.add_masks)
    neg = s.neg_table
    E = range(s.order)
    pairs = [(a, b) for a in E for b in E]
    empty = first(pairs, lambda a, b: not A[a][b])
    if empty is not None:
        # the other five read nonempty sums, so a failed totality ends the report
        return [expected("totality", empty, lambda a, b: f"{a} + {b} is empty")]

    def inverses(a):
        return [b for b in E if 0 in A[a][b]]

    def plus(x, c):
        return frozenset(t for u in x for t in A[u][c])

    def reverses(a, b, c):
        # a in b + c forces c in -b + a, then b in a - c
        return c in A[neg[b]][a] and b in A[a][neg[c]]

    return [
        expected("totality", None, None),
        expected("commutativity",
                 first([(a, b) for a in E for b in E if a < b],
                       lambda a, b: A[a][b] != A[b][a]),
                 lambda a, b: f"{a} + {b} differs from {b} + {a}"),
        expected("associativity",
                 first([(a, b, c) for a in E for b in E for c in E], lambda a, b, c:
                       plus(A[a][b], c) != frozenset(t for u in A[b][c] for t in A[a][u])),
                 at("(a + b) + c != a + (b + c)")),
        expected("identity",
                 first([(a,) for a in E], lambda a: A[a][0] != {a}),
                 lambda a: f"{a} + 0 != {{{a}}}"),
        expected("negation",
                 first([(a,) for a in E], lambda a: inverses(a) != [neg[a]]),
                 lambda a: (f"element {a} has {len(inverses(a))} additive inverses"
                            if len(inverses(a)) != 1 else
                            f"neg table says -{a} = {neg[a]} but 0 lies in "
                            f"{a} + {inverses(a)[0]}")),
        # b and c outermost, then a through b + c in ascending order
        expected("reversibility",
                 first([(a, b, c) for b in E for c in E for a in sorted(A[b][c])],
                       lambda a, b, c: not reverses(a, b, c)),
                 lambda a, b, c: (f"{c} not in -{b} + {a}" if c not in A[neg[b]][a]
                                  else f"{b} not in {a} - {c}")),
    ]


def ring_oracle(ring):
    A = sets(ring.add_masks)
    M = ring.mul_table
    E = range(ring.order)
    u = ring.unit
    # mul-associativity and left-distributivity scan (a, b, c) in
    # lexicographic order, right-distributivity with c outermost
    lex = [(a, b, c) for a in E for b in E for c in E]
    c_outer = [(a, b, c) for c in E for a in E for b in E]
    out = [
        expected("mul-associativity",
                 first(lex, lambda a, b, c: M[M[a][b]][c] != M[a][M[b][c]]),
                 at("(a * b) * c != a * (b * c)")),
        expected("absorption",
                 first([(a,) for a in E], lambda a: M[a][0] != 0 or M[0][a] != 0),
                 lambda a: f"products of {a} with 0 are not 0"),
        expected("left-distributivity",
                 first(lex, lambda a, b, c:
                       frozenset(M[a][t] for t in A[b][c]) != A[M[a][b]][M[a][c]]),
                 at("a * (b + c) != a*b + a*c")),
        expected("right-distributivity",
                 first(c_outer, lambda a, b, c:
                       frozenset(M[t][c] for t in A[a][b]) != A[M[a][c]][M[b][c]]),
                 at("(a + b) * c != a*c + b*c")),
    ]
    if u is not None:
        out.append(expected("unit",
                            first([(a,) for a in E], lambda a: M[a][u] != a or M[u][a] != a),
                            lambda a: f"{u} does not act as identity on {a}"))
    return out


def module_oracle(module):
    MA = sets(module.add_masks)
    RA = sets(module.ring.add_masks)
    mul = module.ring.mul_table
    act = module.act_table
    u = module.ring.unit
    E, R = range(module.order), range(module.ring.order)
    # every module axiom scans its instances in lexicographic order
    out = [
        expected("sum-action",
                 first([(a, b, r) for a in E for b in E for r in R], lambda a, b, r:
                       frozenset(act[t][r] for t in MA[a][b]) != MA[act[a][r]][act[b][r]]),
                 at("(m + m') r != mr + m'r")),
        expected("action-sum",
                 first([(a, r, s) for a in E for r in R for s in R], lambda a, r, s:
                       frozenset(act[a][t] for t in RA[r][s]) != MA[act[a][r]][act[a][s]]),
                 at("m (r + s) != mr + ms")),
        expected("action-associativity",
                 first([(a, r, s) for a in E for r in R for s in R], lambda a, r, s:
                       act[a][mul[r][s]] != act[act[a][r]][s]),
                 at("m (r s) != (m r) s")),
        expected("zero-action",
                 first([(a,) for a in E], lambda a: act[a][0] != 0),
                 lambda a: f"{a} * 0 != 0"),
    ]
    if module.unital and u is None:
        out.append(("unit-action", False, (),
                    f"declared unital, but {module.ring.name or 'the ring'} has no unit"))
    elif module.unital:
        out.append(expected("unit-action",
                            first([(a,) for a in E], lambda a: act[a][u] != a),
                            lambda a: f"{a} * 1 != {a}"))
    return out


def strong_hom_oracle(hom):
    A, B = sets(hom.source.add_masks), sets(hom.target.add_masks)
    f = hom.mapping
    E = range(hom.source.order)

    def image(a, b):
        return frozenset(f[t] for t in A[a][b])

    return [
        expected("zero", (0,) if f[0] != 0 else None, lambda _: "0 must map to 0"),
        expected("strong-addition",
                 first([(a, b) for a in E for b in E],
                       lambda a, b: image(a, b) != B[f[a]][f[b]]),
                 lambda a, b: ("image only covers part of the target hypersum "
                               "(a weak hom, not a strong one)"
                               if image(a, b) <= B[f[a]][f[b]] else
                               "image escapes the target hypersum")),
    ]


def ring_hom_oracle(hom):
    src, dst, f = hom.source, hom.target, hom.mapping
    E = range(src.order)
    out = strong_hom_oracle(hom) + [
        expected("negation",
                 first([(a,) for a in E], lambda a: f[src.neg_table[a]] != dst.neg_table[f[a]]),
                 lambda a: f"f(-{a}) != -f({a})"),
        expected("multiplication",
                 first([(a, b) for a in E for b in E], lambda a, b:
                       f[src.mul_table[a][b]] != dst.mul_table[f[a]][f[b]]),
                 at("f(a b) != f(a) f(b)")),
    ]
    if hom.unit_preserving:
        out.append(expected("unit", (src.unit,) if f[src.unit] != dst.unit else None,
                            lambda _: "declared unit preserving but f(1) != 1"))
    return out


def module_hom_oracle(hom):
    src, dst, f = hom.source, hom.target, hom.mapping
    return strong_hom_oracle(hom) + [
        expected("action",
                 first([(a, r) for a in range(src.order) for r in range(src.ring.order)],
                       lambda a, r: f[src.act_table[a][r]] != dst.act_table[f[a]][r]),
                 at("f(m r) != f(m) r")),
    ]


def reported(report):
    return [(c.axiom, c.ok, c.witness, c.detail) for c in report.checks]


def with_modules(rings) -> list:
    """Each ring, its regular module and its quotient modules."""
    out = []
    for ring in rings:
        reg = regular_module(ring)
        out += [ring, reg]
        out += [quotient_module(reg, sub).module for sub in enumerate_subhypermodules(reg)]
    return out


@lru_cache(maxsize=1)
def small_structures() -> tuple:
    """Each corpus-3 ring and bundled ring with its modules.  Z/6 is
    there because some scan orders part only from order 5 up: (1, 4)
    comes before (2, 3) with a outermost, after it with b outermost."""
    return tuple(with_modules([e.ring for e in generate_corpus(3)] + list(standard_rings())))


@lru_cache(maxsize=1)
def structures() -> tuple:
    """``small_structures()``, then Z/7 to Z/12 and three direct products
    with multivalued additions (orders 6, 9 and 12), each with its
    modules: the larger the order, the further apart a failing instance
    and its swap lie in a scan."""
    corpus = {e.ring.name: e.ring for e in generate_corpus(3)}
    k = hyperfield_k()
    products = [direct_product(k, corpus["r3_9"]),
                direct_product(corpus["r3_14"], corpus["r3_7"]),
                direct_product(k, direct_product(k, corpus["r3_11"]))]
    return small_structures() + tuple(with_modules(
        [cyclic_ring(n) for n in range(7, 13)] + products))


@lru_cache(maxsize=1)
def homs() -> tuple:
    """Every strong hom between two rings, then every module hom between
    two modules over one ring, in ``small_structures()``: the hom
    searches stop at order 6."""
    rings = [s for s in small_structures() if isinstance(s, HyperRing)]
    modules = [s for s in small_structures() if isinstance(s, HyperModule)]
    return (tuple(h for s in rings for t in rings for h in enumerate_ring_homs(s, t)),
            tuple(h for m in modules for n in modules if m.ring is n.ring
                  for h in enumerate_module_homs(m, n)))


def members(add):
    """A table of member masks as a table of member lists."""
    return [[[i for i in range(len(add)) if m >> i & 1] for m in row] for row in add]


def with_zero_in(ring, cells):
    """ring rebuilt unchecked with 0 put into the sum a + b of each (a, b)
    in cells."""
    add = [[m | 1 if (a, b) in cells else m for b, m in enumerate(row)]
           for a, row in enumerate(ring.add_masks)]
    return HyperRing(members(add), ring.neg_table, ring.mul_table, unit=ring.unit)


@st.composite
def changed(draw):
    """A structure from ``structures()`` with one to three changes, rebuilt
    unchecked: an add cell set to a nonempty or to the empty set, the
    cells (a, b) and (b, a) set to one mask, empty or not, a cell of the
    single-valued table, a negation entry, or the declared unit (of a
    ring moved or dropped, of a module switched)."""
    s = draw(st.sampled_from(structures()))
    n = s.order
    ring = isinstance(s, HyperRing)
    table = [list(row) for row in (s.mul_table if ring else s.act_table)]
    add = [list(row) for row in s.add_masks]
    neg = list(s.neg_table)
    unit = s.unit if ring else s.unital
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(("table", "add", "pair", "empty", "neg", "unit")))
        a = draw(st.integers(0, n - 1))
        if what == "table":
            table[a][draw(st.integers(0, len(table[a]) - 1))] = draw(st.integers(0, n - 1))
        elif what == "add":
            add[a][draw(st.integers(0, n - 1))] = draw(st.integers(1, (1 << n) - 1))
        elif what == "pair":
            b = draw(st.integers(0, n - 1))
            add[a][b] = add[b][a] = draw(st.integers(0, (1 << n) - 1))
        elif what == "empty":
            add[a][draw(st.integers(0, n - 1))] = 0
        elif what == "neg":
            neg[a] = draw(st.integers(0, n - 1))
        elif ring:
            unit = draw(st.none() | st.integers(0, n - 1))
        else:
            unit = not unit
    if ring:
        return HyperRing(members(add), neg, table, unit=unit)
    return HyperModule(s.ring, members(add), neg, table, unital=unit)


@st.composite
def changed_hom(draw):
    """A ring hom or a module hom, even odds, from ``homs()`` with none to
    two entries of its map changed; a ring hom between unital rings may
    also be declared unit preserving."""
    h = draw(st.sampled_from(draw(st.sampled_from(homs()))))
    f = list(h.mapping)
    for _ in range(draw(st.integers(0, 2))):
        f[draw(st.integers(0, len(f) - 1))] = draw(st.integers(0, h.target.order - 1))
    if isinstance(h, ModuleHom):
        return ModuleHom(h.source, h.target, f)
    unital = h.source.is_unital and h.target.is_unital
    return RingHom(h.source, h.target, f, unit_preserving=unital and draw(st.booleans()))


@settings(derandomize=True, deadline=None, max_examples=600)
@given(changed())
# commutativity fails at (1, 4) and (2, 3), which a outermost meets in
# this order and b outermost in the other
@example(with_zero_in(cyclic_ring(6), {(1, 4), (2, 3)}))
# commutative but not associative: the first failure, at (1, 1, 3), and
# its swap (3, 1, 1) are far apart in the scan; both distributivities fail
@example(with_zero_in(cyclic_ring(12), {(2, 3), (3, 2)}))
def test_first_witness_matches_the_oracle(s):
    report = s.validate()
    table = ring_oracle(s) if isinstance(s, HyperRing) else module_oracle(s)
    assert reported(report.hypergroup) == hypergroup_oracle(s)
    assert reported(report.table) == table


@settings(derandomize=True, deadline=None, max_examples=400)
@given(changed_hom())
def test_hom_witness_matches_the_oracle(h):
    if isinstance(h, ModuleHom):
        assert reported(verify_module_hom(h)) == module_hom_oracle(h)
    else:
        assert reported(verify_strong_hom(h)) == ring_hom_oracle(h)


def test_unchanged_structures_pass_the_oracle():
    for s in structures():
        oracle = ring_oracle(s) if isinstance(s, HyperRing) else module_oracle(s)
        assert all(ok for _, ok, _, _ in hypergroup_oracle(s) + oracle)
    for h in homs()[0] + homs()[1]:
        oracle = module_hom_oracle(h) if isinstance(h, ModuleHom) else ring_hom_oracle(h)
        assert all(ok for _, ok, _, _ in oracle)
