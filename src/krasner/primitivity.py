"""Primitive hyperideals of a finite Krasner hyperring.

A two sided hyperideal is primitive when it is the annihilator of a
simple right hypermodule.  The hunt goes through the regular module: for
a maximal right hyperideal m that does not swallow every product, R/m is
a simple module and its annihilator is primitive.  Each certificate keeps
the witness module around so downstream checks can re-verify simplicity
instead of trusting us.  The ring keeps its certificates, like its
lattice, so nothing here takes a lattice argument.
"""

from __future__ import annotations

from typing import NamedTuple

from . import core, corpus
from .core import HyperRing, TheoremViolationError, _MaskTable, action_tables, derived, mask_of
from .hypermodules import (
    HyperModule,
    annihilator,
    is_simple,
    quotient_module,
    regular_module,
)
from .ideals import HyperIdeal, IdealLattice, quotient_ring


class PrimitiveCertificate(NamedTuple):
    """A primitive ideal together with the evidence for it."""

    ideal: HyperIdeal
    maximal_right: HyperIdeal
    module: HyperModule

    @property
    def ring(self) -> HyperRing:
        return self.ideal.ring


def product_mask(ring: HyperRing) -> int:
    # the raw set {a b}, not its ideal closure
    return core.set_product(ring.mul_table, ring.full_mask, ring.full_mask)


def prim_from_maximal_right(ring: HyperRing, m: HyperIdeal) -> PrimitiveCertificate | None:
    """The primitive ideal carried by a maximal right hyperideal.

    Returns None when every product lands in m, since the quotient module
    then has zero action and cannot be simple.  Otherwise R/m must come
    out simple and its annihilator must agree with the direct description
    {r : s r in m for all s}; both are asserted.
    """
    ring.require_validated()
    if m.ring is not ring:
        raise ValueError("ideal belongs to a different ring")
    if product_mask(ring) & ~m.members.mask == 0:
        return None
    reg = regular_module(ring)
    quot = quotient_module(reg, reg.from_mask(m.members.mask))
    mod = quot.module
    if not is_simple(mod):
        raise TheoremViolationError(
            f"quotient of the regular module by maximal right {m.members!r} is not simple"
        )
    p = annihilator(mod)
    mul = ring.mul_table
    direct = mask_of(
        r for r in range(ring.order)
        if all((1 << mul[s][r]) & m.members.mask for s in range(ring.order))
    )
    if direct != p.members.mask:
        raise TheoremViolationError(
            f"annihilator of R/{m.members!r} is {p.members!r} but the direct "
            f"route gives {ring.from_mask(direct)!r}"
        )
    return PrimitiveCertificate(ideal=p, maximal_right=m, module=mod)


def prim_certificates(ring: HyperRing) -> tuple:
    """One certificate per primitive ideal, in canonical member order."""
    def build():
        seen = set()
        certs = []
        for m in IdealLattice.build(ring).maximal_right:
            cert = prim_from_maximal_right(ring, m)
            if cert is None or cert.ideal.key in seen:
                continue
            seen.add(cert.ideal.key)
            certs.append(cert)
        certs.sort(key=lambda c: c.ideal.key)
        return tuple(certs)
    return derived(ring, "certificates", build)


def prim_set(ring: HyperRing) -> tuple:
    return tuple(c.ideal for c in prim_certificates(ring))


def is_primitive_ring(ring: HyperRing) -> bool:
    """Primitive ring: the zero ideal annihilates a simple module."""
    return any(c.ideal.members.mask == 1 for c in prim_certificates(ring))


class BiconditionalReport(NamedTuple):
    """Outcome of checking `p primitive iff R/p is a primitive ring` over
    every proper two sided ideal."""

    ok: bool
    mismatches: tuple  # (ideal, in_prim_set, quotient_is_primitive)


def check_primitive_iff_quotient_primitive(ring: HyperRing) -> BiconditionalReport:
    prim_keys = {p.key for p in prim_set(ring)}
    mismatches = []
    for p in IdealLattice.build(ring).two_sided:
        if not p.proper:
            continue
        left = p.key in prim_keys
        right = is_primitive_ring(quotient_ring(ring, p).ring)
        if left != right:
            mismatches.append((p, left, right))
    return BiconditionalReport(ok=not mismatches, mismatches=tuple(mismatches))


def enumerate_simple_modules(ring: HyperRing) -> tuple:
    """Every simple right hypermodule over ring on a canonical hypergroup,
    so every one up to isomorphism.

    The search is exhaustive because a simple M has at most |R| elements
    (Jacobson's cyclic-module argument, Amer. J. Math. 67, 1945).  The m
    with mR = {0} form a subhypermodule, proper since the action is
    nonzero, so only 0 does that; for m != 0, mR is a nonzero
    subhypermodule, since mr + ms = m(r + s) and -(mr) = m(-r).  So
    M = mR and |M| <= |R|.
    For each canonical hypergroup of order 2..|R|, ``core.action_tables``
    finds the action tables (row 0 and column 0 zero) that pass the three
    action axioms against the ring's tables, choosing each row among the
    strong homs from the ring's hypergroup into the module's; each is
    validated and kept when simple.  A ring past the corpus cap raises
    ``BoundExceededError`` before any search."""
    ring.require_validated()
    corpus.check_order(ring.order)
    found = []
    for n in range(2, ring.order + 1):
        for add_masks, neg in corpus.enumerate_hypergroups(n):
            masks = _MaskTable(add_masks)
            for act in action_tables(add_masks, ring.add_masks, ring.mul_table):
                module = HyperModule(ring, masks, neg, act).checked(
                    "module table search produced an invalid module")
                if is_simple(module):
                    found.append(module)
    return tuple(found)


def rogue_annihilators(ring: HyperRing) -> tuple:
    """Annihilators of simple modules that the maximal right ideal hunt
    did not produce.  Expected empty; returned as (ideal, module)
    pairs rather than asserted, so sweeps can report them."""
    known = {p.key for p in prim_set(ring)}
    rogues = {}
    for module in enumerate_simple_modules(ring):
        p = annihilator(module)
        if p.key not in known and p.key not in rogues:
            rogues[p.key] = (p, module)
    return tuple(rogues[k] for k in sorted(rogues))
