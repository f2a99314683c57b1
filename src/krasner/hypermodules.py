"""Right hypermodules over a finite Krasner hyperring.

A right hypermodule is a canonical hypergroup (M, +, -, 0) with a single
valued action M x R -> M that distributes over both hyperadditions, is
associative against the ring multiplication and kills 0.  The ring acting
on itself gives the regular module; right hyperideals are exactly its
subhypermodules, so the closure checks, closures, closed subset
searches and quotients here run the helpers in ``ideals`` on the module
tables.

Module homomorphisms here are the strong kind: the image of a hypersum
equals the hypersum of the images as sets, not merely a subset of it.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    AxiomCheck,
    ElementSet,
    HyperRing,
    StrongHom,
    Structure,
    ValidationReport,
    VerificationReport,
    _MaskTable,
    _normalize_value_table,
    action_associativity_failure,
    action_sum_failure,
    axiom_check,
    bits,
    derived,
    hom_search,
    mask_of,
    require_hom_bound,
    require_scan_bound,
    set_product,
    strong_hom_checks,
    sum_action_failure,
)
from .ideals import (
    HyperIdeal,
    IdealCheck,
    closed_subsets,
    closure,
    induced_value_table,
    is_hyperideal,
    kept_closure_check,
    quotient_hypergroup,
    sum_of_products_closure,
)


class HyperModule(Structure):
    """Right hypermodule given by explicit tables.

    madd : n x n table of nonempty subsets of the module carrier
    mneg : length n negation table
    act  : n x |R| table, act[m][r] is the single element m * r

    madd and mneg are kept as a ring keeps add and neg, in the
    ``Structure`` slots ``add_masks`` and ``neg_table``.
    """

    __slots__ = ("ring", "act_table", "unital")

    def __init__(self, ring: HyperRing, madd, mneg, act, unital=False, name=None):
        # construction stays permissive so broken fixtures can be built
        # and then interrogated; validate() is the gate
        self.ring = ring
        self._hypergroup(madd, mneg, name)
        self.act_table = _normalize_value_table(self.order, ring.order, act, "act")
        self.unital = bool(unital)

    def act(self, m: int, r: int) -> int:
        return self.act_table[m][r]

    def validate(self) -> ValidationReport:
        ring = self.ring
        ring.require_validated()
        # every value verify_hypermodule reads; the ring's name only where
        # the report names the ring, so equal-table rings share verdicts
        named = ring.name if self.unital and ring.unit is None else None
        return self._settle(verify_hypermodule,
                            (ring._key(), named, self.add_masks, self.neg_table,
                             self.act_table, self.unital))

    def encoding(self) -> tuple:
        return (
            self.order,
            tuple(m for row in self.add_masks for m in row),
            self.neg_table,
            tuple(v for row in self.act_table for v in row),
        )

    def __repr__(self):
        label = self.name or f"module of order {self.order}"
        return f"<HyperModule {label}{'' if self._checked else ' (unchecked)'}>"


def verify_hypermodule(module: HyperModule) -> VerificationReport:
    """The four action axioms, plus the unit action when declared; a
    module declared unital over a ring without a unit fails it.

    Each axiom reports its first failing instance in lexicographic order.
    Sum-action scans only m <= m' when the module's addition commutes,
    and action-sum only r <= s when both additions do: an instance fails
    exactly when its swap, which comes first, does."""
    ring = module.ring
    n = module.order
    madd = module.add_masks
    act = module.act_table
    checks = [
        axiom_check("sum-action", sum_action_failure(madd, act),
                    "(m + m') r != mr + m'r at {w}"),
        axiom_check("action-sum", action_sum_failure(madd, ring.add_masks, act),
                    "m (r + s) != mr + ms at {w}"),
        axiom_check("action-associativity", action_associativity_failure(ring.mul_table, act),
                    "m (r s) != (m r) s at {w}"),
        axiom_check("zero-action", next(((a,) for a in range(n) if act[a][0] != 0), None),
                    "{0} * 0 != 0"),
    ]
    u = ring.unit
    if module.unital and u is None:
        # no unit, so no instance to scan
        checks.append(AxiomCheck(
            "unit-action", False, (),
            f"declared unital, but {ring.name or 'the ring'} has no unit"))
    elif module.unital:
        checks.append(axiom_check(
            "unit-action", next(((a,) for a in range(n) if act[a][u] != a), None),
            "{0} * 1 != {0}"))
    return VerificationReport(tuple(checks))


def regular_module(ring: HyperRing) -> HyperModule:
    """The ring acting on itself from the right, kept on the ring."""
    def build():
        mod = HyperModule(
            ring,
            madd=_MaskTable(ring.add_masks),
            mneg=ring.neg_table,
            act=ring.mul_table,
            unital=ring.is_unital,
            name=f"{ring.name or 'R'} as module",
        )
        return mod.checked("regular module of a verified ring failed validation")
    return derived(ring, "regular", build)


def _action(module: HyperModule) -> list:
    # the closure action of a subhypermodule, as ideals.closure_check reads it
    return [("action-closure", module.act_table)]


def is_subhypermodule(module: HyperModule, members) -> IdealCheck:
    """Closure of a subset under madd, mneg and the ring action, by
    ``ideals.closure_check``; a passing set is kept on the module
    (``ideals.kept_closure_check``)."""
    module.require_validated()
    return kept_closure_check(module, ("closed",), module.members_mask(members), _action(module))


def enumerate_subhypermodules(module: HyperModule) -> tuple:
    require_scan_bound(module, "submodule")
    masks = closed_subsets(module.add_masks, module.neg_table, _action(module))
    return tuple(module.from_mask(mask) for mask in masks)


def submodule(module: HyperModule, members) -> HyperModule:
    """A subhypermodule as a standalone structure (elements reindexed,
    0 first), validated once: the module keeps it."""
    module.require_validated()
    s = module.members_mask(members)

    def build():
        is_subhypermodule(module, module.from_mask(s)).required("subhypermodule")
        elems = bits(s)
        index = {e: i for i, e in enumerate(elems)}
        madd = _MaskTable([mask_of(index[t] for t in bits(module.add_masks[a][b]))
                           for b in elems] for a in elems)
        mneg = [index[module.neg_table[a]] for a in elems]
        act = [[index[module.act_table[a][r]] for r in range(module.ring.order)]
               for a in elems]
        sub = HyperModule(module.ring, madd, mneg, act, unital=module.unital,
                          name=f"{module.name or 'M'} restricted to {module.from_mask(s)!r}")
        return sub.checked("subhypermodule failed validation")
    return derived(module, ("submodule", s), build)


def cyclic_submodule(module: HyperModule, m: int) -> ElementSet:
    """Smallest subhypermodule containing m."""
    module.require_validated()
    module.check_element(m)
    mask = closure(1 << m, module.add_masks, module.neg_table, _action(module))
    return module.from_mask(mask)


def action_is_zero(module: HyperModule) -> bool:
    return all(v == 0 for row in module.act_table for v in row)


def is_simple(module: HyperModule) -> bool:
    """Nonzero action and exactly two subhypermodules."""
    if action_is_zero(module):
        return False
    return len(enumerate_subhypermodules(module)) == 2


def module_ideal_product(module: HyperModule, ideal: HyperIdeal) -> ElementSet:
    """Elements lying in finite sums of products m * a, asserted to be a
    subhypermodule."""
    module.require_validated()
    if ideal.ring is not module.ring:
        raise ValueError("ideal belongs to a different ring")
    products = set_product(module.act_table, module.full_mask, ideal.key)
    out = module.from_mask(sum_of_products_closure(module.add_masks, products))
    is_subhypermodule(module, out).asserted("M * ideal")
    return out


def annihilator(module: HyperModule) -> HyperIdeal:
    """Ring elements acting as zero on the whole module; asserted to be a
    two sided hyperideal."""
    module.require_validated()
    act = module.act_table
    n = module.order
    good = [r for r in range(module.ring.order) if all(act[m][r] == 0 for m in range(n))]
    is_hyperideal(module.ring, good, "two-sided").asserted("annihilator")
    return HyperIdeal._trusted(module.ring, mask_of(good), "two-sided")


class ModuleQuotient(NamedTuple):
    module: HyperModule
    source: HyperModule
    kernel_members: ElementSet
    cosets: tuple
    coset_of: tuple
    projection: "ModuleHom"


def quotient_module(module: HyperModule, members) -> ModuleQuotient:
    """M / K for a subhypermodule K, tables checked to be representative
    independent and the result validated, once: the module keeps it."""
    module.require_validated()
    k = module.from_mask(module.members_mask(members))

    def build():
        is_subhypermodule(module, k).required("subhypermodule")
        cosets, coset_of, madd, mneg = quotient_hypergroup(module, k.mask)
        ring_elements = [1 << r for r in range(module.ring.order)]
        act = induced_value_table(module.act_table, cosets, coset_of, ring_elements)

        out = HyperModule(module.ring, madd, mneg, act, unital=module.unital,
                          name=f"{module.name or 'M'}/{k!r}")
        out.checked("quotient by a verified subhypermodule failed validation")
        projection = ModuleHom(module, out, coset_of, name="project")
        return ModuleQuotient(out, module, k, cosets, coset_of, projection)
    return derived(module, ("quotient", k.mask), build)


class ModuleHom(StrongHom):
    """Map between right hypermodules over one ring, given by a value table."""

    __slots__ = ()

    def __init__(self, source: Structure, target: Structure, mapping: tuple,
                 name: str | None = None) -> None:
        super().__init__(source, target, mapping, name)
        if source.ring is not target.ring:
            raise ValueError("module homs need a common base ring")


def verify_module_hom(hom: ModuleHom) -> VerificationReport:
    """Strong additivity (set equality) plus action equivariance."""
    src, dst, f = hom.source, hom.target, hom.mapping
    target_act = dst.act_table
    bad = next(((a, r) for a, row in enumerate(src.act_table) for r, ar in enumerate(row)
                if f[ar] != target_act[f[a]][r]), None)
    return VerificationReport(tuple(strong_hom_checks(hom) + [
        axiom_check("action", bad, "f(m r) != f(m) r at {w}")]))


def hom_kernel(hom: ModuleHom) -> ElementSet:
    """Preimage of 0; asserted to be a subhypermodule of the source."""
    mask = mask_of(m for m, v in enumerate(hom.mapping) if v == 0)
    out = hom.source.from_mask(mask)
    is_subhypermodule(hom.source, out).asserted("kernel")
    return out


def hom_image(hom: ModuleHom) -> ElementSet:
    """Range; asserted to be a subhypermodule of the target."""
    out = hom.target.from_mask(hom.image_mask())
    is_subhypermodule(hom.target, out).asserted("image")
    return out


def _equivariance(source: HyperModule, target: HyperModule):
    # keep(f) for hom_search: f(a r) = f(a) r for every a and r
    sact, tact = source.act_table, target.act_table
    return lambda f: all(f[ar] == tact[fa][r] for fa, row in zip(f, sact)
                         for r, ar in enumerate(row))


def enumerate_module_homs(source: HyperModule, target: HyperModule) -> tuple:
    """All verified module homs fixing 0, lexicographic, by ``core.hom_search``."""
    require_hom_bound(source, target)
    return hom_search(ModuleHom, source, target, _equivariance(source, target),
                      verify_module_hom, "module hom search")


def induced_isomorphism(hom: ModuleHom, quotient: ModuleQuotient,
                        image: HyperModule) -> tuple | None:
    """The induced map M/ker f -> im f, [m] -> f(m), as a mapping tuple
    when it is a bijective module hom, else None.

    ``quotient`` is ``quotient_module(M, ker f)``, read through its
    ``coset_of``, and ``image`` is ``submodule(target, im f)``, or the
    target itself when f is onto: its elements are the members of im f
    in ascending order.  A bijective module hom is an isomorphism, so a
    map that passes settles M/ker f = im f; on None, ``find_isomorphism``
    decides instead."""
    if quotient.source is not hom.source:
        raise ValueError("quotient is not a quotient of the hom's source")
    f = hom.mapping
    index = {e: i for i, e in enumerate(bits(hom.image_mask()))}
    mapping = [0] * quotient.module.order
    for m, c in enumerate(quotient.coset_of):
        mapping[c] = index[f[m]]
    if not len(set(mapping)) == len(mapping) == len(index) == image.order:
        return None
    iso = ModuleHom(quotient.module, image, mapping)
    return iso.mapping if verify_module_hom(iso).ok else None


def find_isomorphism(a: HyperModule, b: HyperModule) -> tuple | None:
    """The lexicographically first bijective module hom a -> b as a mapping
    tuple, or None: ``core.hom_search`` keeping injective maps."""
    if a.ring is not b.ring or a.order != b.order:
        return None
    equivariant = _equivariance(a, b)
    isos = hom_search(ModuleHom, a, b,
                      lambda f: len(set(f)) == len(f) and equivariant(f),
                      verify_module_hom, "module hom search")
    return isos[0].mapping if isos else None


def restrict_scalars(module: HyperModule, hom) -> HyperModule:
    """View a module over the hom's target as one over its source, acting
    through the hom; the axioms are re-verified rather than assumed."""
    if hom.target is not module.ring:
        raise ValueError("module must live over the hom's target ring")
    act = [[module.act_table[m][hom.mapping[r]] for r in range(hom.source.order)]
           for m in range(module.order)]
    out = HyperModule(hom.source,
                      madd=_MaskTable(module.add_masks),
                      mneg=module.neg_table,
                      act=act,
                      unital=False,
                      name=f"{module.name or 'M'} via {hom.name or 'hom'}")
    return out.checked("scalar restriction failed validation")
