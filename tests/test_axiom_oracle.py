"""The first witness of each action axiom, refereed by an independent oracle.

A ring is a right module over itself, so ``verify_hyperring`` and
``verify_hypermodule`` share one checker per action axiom and differ only
in names, messages and the order they scan instances in.  The oracle here
restates the six axioms with frozensets and explicit quantifiers, shares
no code with ``krasner.core``, and names the first failing instance in
each verifier's scan order.  ``hypothesis`` changes cells of corpus-3
rings and of their regular and quotient modules, and every reported
``(axiom, ok, witness, detail)`` must equal the oracle's.
"""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from krasner.core import HyperRing, verify_hyperring
from krasner.corpus import generate_corpus
from krasner.hypermodules import (
    HyperModule,
    enumerate_subhypermodules,
    quotient_module,
    regular_module,
    verify_hypermodule,
)


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


def expected(axiom, witness, claim):
    if witness is None:
        return (axiom, True, (), "")
    return (axiom, False, witness, f"{claim} at {witness}")


def ring_oracle(ring):
    A = sets(ring.add_masks)
    M = ring.mul_table
    E = range(ring.order)
    # mul-associativity and left-distributivity scan (a, b, c) in
    # lexicographic order, right-distributivity with c outermost
    lex = [(a, b, c) for a in E for b in E for c in E]
    c_outer = [(a, b, c) for c in E for a in E for b in E]
    return [
        expected("mul-associativity",
                 first(lex, lambda a, b, c: M[M[a][b]][c] != M[a][M[b][c]]),
                 "(a * b) * c != a * (b * c)"),
        expected("left-distributivity",
                 first(lex, lambda a, b, c:
                       frozenset(M[a][t] for t in A[b][c]) != A[M[a][b]][M[a][c]]),
                 "a * (b + c) != a*b + a*c"),
        expected("right-distributivity",
                 first(c_outer, lambda a, b, c:
                       frozenset(M[t][c] for t in A[a][b]) != A[M[a][c]][M[b][c]]),
                 "(a + b) * c != a*c + b*c"),
    ]


def module_oracle(module):
    MA = sets(module.add_masks)
    RA = sets(module.ring.add_masks)
    mul = module.ring.mul_table
    act = module.act_table
    E, R = range(module.order), range(module.ring.order)
    # every module axiom scans its instances in lexicographic order
    return [
        expected("sum-action",
                 first([(a, b, r) for a in E for b in E for r in R], lambda a, b, r:
                       frozenset(act[t][r] for t in MA[a][b]) != MA[act[a][r]][act[b][r]]),
                 "(m + m') r != mr + m'r"),
        expected("action-sum",
                 first([(a, r, s) for a in E for r in R for s in R], lambda a, r, s:
                       frozenset(act[a][t] for t in RA[r][s]) != MA[act[a][r]][act[a][s]]),
                 "m (r + s) != mr + ms"),
        expected("action-associativity",
                 first([(a, r, s) for a in E for r in R for s in R], lambda a, r, s:
                       act[a][mul[r][s]] != act[act[a][r]][s]),
                 "m (r s) != (m r) s"),
    ]


def reported(report, axioms):
    return [(c.axiom, c.ok, c.witness, c.detail) for c in report.checks if c.axiom in axioms]


@lru_cache(maxsize=1)
def structures() -> tuple:
    """Each corpus-3 ring, its regular module and its quotient modules."""
    out = []
    for e in generate_corpus(3):
        reg = regular_module(e.ring)
        out += [e.ring, reg]
        out += [quotient_module(reg, sub).module for sub in enumerate_subhypermodules(reg)]
    return tuple(out)


@st.composite
def changed(draw):
    """A structure from ``structures()`` with one to three cells of its
    addition or of its single-valued table changed, rebuilt unchecked."""
    s = draw(st.sampled_from(structures()))
    n = s.order
    table = [list(row) for row in (s.mul_table if isinstance(s, HyperRing) else s.act_table)]
    add = [list(row) for row in s.add_masks]
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            b = draw(st.integers(0, len(table[a]) - 1))
            table[a][b] = draw(st.integers(0, n - 1))
        else:
            b = draw(st.integers(0, n - 1))
            add[a][b] = draw(st.integers(1, (1 << n) - 1))
    members = [[[i for i in range(n) if m >> i & 1] for m in row] for row in add]
    if isinstance(s, HyperRing):
        return HyperRing(members, s.neg_table, table, unit=s.unit)
    return HyperModule(s.ring, members, s.neg_table, table, unital=s.unital)


RING_AXIOMS = ("mul-associativity", "left-distributivity", "right-distributivity")
MODULE_AXIOMS = ("sum-action", "action-sum", "action-associativity")


@settings(derandomize=True, deadline=None, max_examples=400)
@given(changed())
def test_first_witness_matches_the_oracle(s):
    if isinstance(s, HyperRing):
        assert reported(verify_hyperring(s), RING_AXIOMS) == ring_oracle(s)
    else:
        assert reported(verify_hypermodule(s), MODULE_AXIOMS) == module_oracle(s)


def test_unchanged_structures_pass_the_oracle():
    for s in structures():
        oracle = ring_oracle(s) if isinstance(s, HyperRing) else module_oracle(s)
        assert all(ok for _, ok, _, _ in oracle)
