"""Theorem sweeps over generated rings.

Each check interrogates one ring and reports pass, fail, skip or info.
Skips are for hypotheses that do not apply (mostly missing units); info
is for observations worth surfacing that are not promised to hold, and a
fail always carries a concrete witness in its detail.  Reports serialize
deterministically: the timestamp is the only field that varies between
identical runs, which is what the determinism tests pin down.
"""

from __future__ import annotations

import datetime
import itertools
import json
from dataclasses import dataclass

from .core import TheoremViolationError
from .corpus import corpus_fingerprint, generate_corpus
from .hypermodules import (
    cyclic_submodule,
    enumerate_module_homs,
    find_isomorphism,
    hom_image,
    hom_kernel,
    induced_isomorphism,
    module_ideal_product,
    annihilator,
    is_simple,
    quotient_module,
    regular_module,
    submodule,
)
from .ideals import (
    IdealLattice,
    cross_check_all_generated,
    ideal_product,
    ideal_sum,
    is_hyperideal,
    is_prime,
    maximal_above,
    nil_radical,
    nilpotent_elements,
    quotient_ring,
)
from .morphisms import (
    check_closed_embedding,
    check_density,
    check_radical_homeomorphism,
    enumerate_ring_homs,
    induced_map,
    is_continuous,
    kernel_ideal,
)
from .primitivity import (
    check_primitive_iff_quotient_primitive as quotient_primitivity_report,
    prim_certificates,
    prim_from_maximal_right,
    rogue_annihilators,
)
from .spectrum import (
    SpectrumSpace,
    compactness_witness,
    generic_points,
    irreducible_closed_sets,
    irreducible_components,
    is_irreducible,
    is_noetherian_space,
    reducible_split,
    verify_kuratowski,
    witness_kernel_sum,
)

SCHEMA = "krasner-suite/1"


class RingContext:
    """One ring as the checks see it.  The builders keep each derived
    object on the ring, so every check shares one of each."""

    def __init__(self, ring):
        ring.require_validated()
        self.ring = ring

    lattice = property(lambda self: IdealLattice.build(self.ring))
    certs = property(lambda self: prim_certificates(self.ring))
    space = property(lambda self: SpectrumSpace.build(self.ring))
    regular = property(lambda self: regular_module(self.ring))
    unital = property(lambda self: self.ring.is_unital)


@dataclass(frozen=True)
class CheckResult:
    id: str
    status: str  # pass | fail | skip | info
    detail: str = ""


def _pass(cid, detail=""):
    return CheckResult(cid, "pass", detail)


def _fail(cid, detail):
    return CheckResult(cid, "fail", detail)


def _skip(cid, detail):
    return CheckResult(cid, "skip", detail)


def _info(cid, detail):
    return CheckResult(cid, "info", detail)


def check_ideal_intersection_closed(ctx):
    cid = "ideal-intersection-closed"
    for a, b in itertools.combinations_with_replacement(ctx.lattice.two_sided, 2):
        meet = a.members.mask & b.members.mask
        verdict = is_hyperideal(ctx.ring, ctx.ring.from_mask(meet), "two-sided")
        if not verdict:
            return _fail(cid, f"{a.members!r} meet {b.members!r} fails "
                              f"{verdict.clause} at {verdict.witness}")
    return _pass(cid)


def check_ideal_sum_closed(ctx):
    cid = "ideal-sum-closed"
    for a, b in itertools.combinations_with_replacement(ctx.lattice.two_sided, 2):
        try:
            s = ideal_sum([a, b])
        except TheoremViolationError as e:
            return _fail(cid, str(e))
        if a.members.mask & ~s.members.mask or b.members.mask & ~s.members.mask:
            return _fail(cid, f"{a.members!r} + {b.members!r} does not contain a summand")
    return _pass(cid)


def check_ideal_product_closed(ctx):
    # ideal_product is the slow route that referees the lattice's table
    cid = "ideal-product-closed"
    lattice = ctx.lattice
    for a, b in itertools.product(lattice.two_sided, repeat=2):
        try:
            prod = ideal_product(a, b)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
        table = lattice.products.get((a.key, b.key))
        if prod.key != table:
            return _fail(cid, f"{a.members!r} * {b.members!r} has mask {prod.key}, "
                              f"the lattice's product table {table}")
    return _pass(cid)


def check_product_inside_intersection(ctx):
    # reads the product table that ideal-product-closed referees
    cid = "product-inside-intersection"
    lattice = ctx.lattice
    for a, b in itertools.product(lattice.two_sided, repeat=2):
        prod = ctx.ring.from_mask(lattice.products[a.key, b.key])
        if prod.mask & ~(a.key & b.key):
            return _fail(cid, f"{a.members!r} * {b.members!r} = {prod!r} "
                              "escapes the intersection")
    return _pass(cid)


def check_generated_ideal_cross_oracle(ctx):
    cid = "generated-ideal-cross-oracle"
    try:
        count = cross_check_all_generated(ctx.ring, ctx.lattice)
    except TheoremViolationError as e:
        return _fail(cid, str(e))
    return _pass(cid, f"agreed on all {count} generating sets")


def check_maximal_above_exists(ctx):
    cid = "maximal-above-exists"
    for a in ctx.lattice.two_sided:
        if not a.proper:
            continue
        try:
            m = maximal_above(a, ctx.lattice)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
        if a.members.mask & ~m.members.mask:
            return _fail(cid, f"maximal_above({a.members!r}) = {m.members!r} "
                              "does not contain its input")
    return _pass(cid)


def check_quotient_ring_valid(ctx):
    cid = "quotient-ring-valid"
    for a in ctx.lattice.two_sided:
        try:
            quot = quotient_ring(ctx.ring, a)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
        if len(quot.cosets) != quot.ring.order:
            return _fail(cid, f"coset bookkeeping off for {a.members!r}")
    return _pass(cid)


def check_simple_iff_cyclic(ctx):
    cid = "simple-iff-cyclic"
    modules = [ctx.regular]
    for m in ctx.lattice.right:
        modules.append(quotient_module(ctx.regular,
                                       ctx.regular.from_mask(m.members.mask)).module)
    for mod in modules:
        nonzero_action = any(v for row in mod.act_table for v in row)
        all_cyclic = (mod.order > 1 and
                      all(cyclic_submodule(mod, m).is_full() for m in range(1, mod.order)))
        if is_simple(mod) != (nonzero_action and all_cyclic):
            return _fail(cid, f"{mod!r}: simplicity and cyclic generation disagree")
    return _pass(cid, f"checked {len(modules)} modules")


def check_module_neg_compat(ctx):
    cid = "module-neg-compat"
    mod = ctx.regular
    for m in range(mod.order):
        for r in range(ctx.ring.order):
            if mod.act_table[m][ctx.ring.neg_table[r]] != mod.mneg_table[mod.act_table[m][r]]:
                return _fail(cid, f"m(-r) != -(mr) at ({m}, {r})")
    return _pass(cid)


def check_annihilator_is_ideal(ctx):
    cid = "annihilator-is-ideal"
    modules = [ctx.regular] + [c.module for c in ctx.certs]
    for mod in modules:
        try:
            annihilator(mod)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
    return _pass(cid)


def check_module_ideal_product_submodule(ctx):
    cid = "module-ideal-product-submodule"
    for a in ctx.lattice.two_sided:
        try:
            module_ideal_product(ctx.regular, a)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
    return _pass(cid)


def check_first_isomorphism(ctx):
    cid = "first-isomorphism"
    if ctx.ring.order > 4:
        return _skip(cid, "hom enumeration bounded to small rings")
    reg = ctx.regular
    targets = [reg]
    for m in ctx.lattice.maximal_right:
        targets.append(quotient_module(reg, reg.from_mask(m.members.mask)).module)
    tried = 0
    seen = set()
    for t, target in enumerate(targets):
        for hom in enumerate_module_homs(reg, target):
            tried += 1
            ker = hom_kernel(hom)
            img = hom_image(hom)
            # homs with one kernel and image compare the same two modules
            if (t, ker.mask, img.mask) in seen:
                continue
            seen.add((t, ker.mask, img.mask))
            quot = quotient_module(reg, ker)
            image_mod = submodule(target, img)
            # the induced map [m] -> f(m) first; the search only when it fails
            if (induced_isomorphism(hom, quot, image_mod) is None
                    and find_isomorphism(quot.module, image_mod) is None):
                return _fail(cid, f"M/ker not isomorphic to image for mapping {hom.mapping}")
    return _pass(cid, f"checked {tried} homs")


def check_primitive_implies_prime(ctx):
    cid = "primitive-implies-prime"
    for c in ctx.certs:
        verdict = is_prime(c.ideal, ctx.lattice)
        if not verdict.ok:
            return _fail(cid, f"primitive {c.ideal.members!r} is not prime, "
                              f"witness pair {verdict.witness}")
    if not ctx.certs:
        return _pass(cid, "no primitive ideals")
    return _pass(cid)


def check_maximal_implies_primitive(ctx):
    cid = "maximal-implies-primitive"
    if not ctx.unital:
        return _skip(cid, "needs a unit")
    prim_keys = {c.ideal.key for c in ctx.certs}
    for m in ctx.lattice.maximal:
        if m.key not in prim_keys:
            return _fail(cid, f"maximal {m.members!r} is not primitive")
    return _pass(cid)


def check_primitive_iff_quotient_primitive(ctx):
    cid = "primitive-iff-quotient-primitive"
    report = quotient_primitivity_report(ctx.ring)
    if report.ok:
        return _pass(cid)
    p, left, right = report.mismatches[0]
    return _fail(cid, f"{p.members!r}: in the primitive set {left}, "
                      f"quotient ring primitive {right}")


def check_prim_certificate_cross_check(ctx):
    cid = "prim-certificate-cross-check"
    for c in ctx.certs:
        if not is_simple(c.module):
            return _fail(cid, f"witness module for {c.ideal.members!r} is not simple")
        if annihilator(c.module).key != c.ideal.key:
            return _fail(cid, f"certificate ideal for {c.ideal.members!r} "
                              "does not match its module")
    return _pass(cid, f"{len(ctx.certs)} certificates")


def check_simple_quotient_by_maximal_right(ctx):
    cid = "simple-quotient-by-maximal-right"
    tried = 0
    for m in ctx.lattice.maximal_right:
        try:
            cert = prim_from_maximal_right(ctx.ring, m)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
        if cert is not None:
            tried += 1
    if tried == 0:
        return _pass(cid, "every maximal right ideal swallows all products")
    return _pass(cid, f"{tried} simple quotients")


def check_maximal_right_contains_primitive(ctx):
    cid = "maximal-right-contains-primitive"
    if not ctx.unital:
        return _skip(cid, "needs a unit")
    for m in ctx.lattice.maximal_right:
        cert = prim_from_maximal_right(ctx.ring, m)
        if cert is None:
            return _fail(cid, f"maximal right {m.members!r} swallows all products "
                              "despite the unit")
        if cert.ideal.members.mask & ~m.members.mask:
            return _fail(cid, f"primitive {cert.ideal.members!r} escapes "
                              f"its maximal right {m.members!r}")
    return _pass(cid)


def check_kuratowski_closure(ctx):
    cid = "kuratowski-closure"
    report = verify_kuratowski(ctx.space)
    if not report.ok:
        return _fail(cid, f"{report.detail}, witness {report.failure}")
    mode = "sampled" if report.sampled else "all"
    return _pass(cid, f"{mode} {report.pairs_checked} union pairs")


def check_t0(ctx):
    cid = "t0"
    if ctx.space.is_t0():
        return _pass(cid)
    return _fail(cid, "two points share a closure")


def check_t1_iff_prim_equals_max(ctx):
    cid = "t1-iff-prim-equals-max"
    prim_keys = {c.ideal.key for c in ctx.certs}
    max_keys = {m.key for m in ctx.lattice.maximal}
    t1 = ctx.space.is_t1()
    agree = t1 == (prim_keys == max_keys)
    if ctx.unital:
        if agree:
            return _pass(cid)
        return _fail(cid, f"t1 is {t1} but the primitive and maximal sets "
                          f"{'match' if prim_keys == max_keys else 'differ'}")
    if agree:
        return _pass(cid, "holds without a unit here")
    return _info(cid, f"no unit and the equivalence fails: t1 is {t1}, "
                      f"primitive set {'equals' if prim_keys == max_keys else 'differs from'} "
                      "maximal set")


def check_compactness_kernel_sum(ctx):
    cid = "compactness-kernel-sum"
    if not ctx.unital:
        return _skip(cid, "needs a unit")
    proper = [a for a in ctx.lattice.two_sided if a.proper]
    families = []
    full = ctx.space.full_pmask
    for pair in itertools.combinations(proper, 2):
        acc = full
        for a in pair:
            acc &= ctx.space.vanishing_set(a)
        if acc == 0:
            families.append(pair)
    acc = full
    for a in proper:
        acc &= ctx.space.vanishing_set(a)
    if acc == 0 and len(proper) > 2:
        families.append(tuple(proper))
    if not families:
        return _skip(cid, "no family of proper ideals uncovers the space")
    for family in families:
        combo = compactness_witness(ctx.space, family)
        total = witness_kernel_sum(ctx.space, family, combo)
        if not total.is_full():
            return _fail(cid, f"minimal subfamily {combo} sums to {total!r}, not the ring")
    return _pass(cid, f"{len(families)} covering families")


def check_irreducible_sets_are_point_closures(ctx):
    cid = "irreducible-sets-are-point-closures"
    closed = ctx.space.closed_sets()
    closures = {ctx.space.closure(1 << i) for i in range(ctx.space.size)}
    for c in closed:
        fast = is_irreducible(ctx.space, c)
        if len(closed) <= 64:
            slow = c != 0 and reducible_split(ctx.space, c) is None
            if fast != slow:
                return _fail(cid, f"irreducibility routes disagree on {bin(c)}")
        if fast and c not in closures:
            return _fail(cid, f"irreducible {bin(c)} is no point closure")
        if not fast and c != 0 and c in closures:
            return _fail(cid, f"point closure {bin(c)} judged reducible")
    return _pass(cid, f"{len(closed)} closed sets")


def check_generic_point_unique(ctx):
    cid = "generic-point-unique"
    for c in irreducible_closed_sets(ctx.space):
        g = generic_points(ctx.space, c)
        if len(g) != 1:
            return _fail(cid, f"{bin(c)} has {len(g)} generic points")
    return _pass(cid)


def check_components_are_minimal_point_closures(ctx):
    cid = "components-are-minimal-point-closures"
    space = ctx.space
    comps = set(irreducible_components(space))
    minimal = []
    for i, p in enumerate(space.points):
        if not any(j != i and q.members.mask & ~p.members.mask == 0
                   for j, q in enumerate(space.points)):
            minimal.append(i)
    expected = {space.closure(1 << i) for i in minimal}
    if comps != expected:
        return _fail(cid, "components differ from the closures of the minimal points")
    covered = 0
    for c in comps:
        covered |= c
    if covered != space.full_pmask:
        return _fail(cid, "components fail to cover the space")
    return _pass(cid, f"{len(comps)} components")


def check_noetherian_space(ctx):
    cid = "noetherian-space"
    if is_noetherian_space(ctx.space):
        return _pass(cid)
    return _fail(cid, "a descending chain refused to stabilize")


def check_endo_hom_kernels(ctx):
    cid = "endo-hom-kernels"
    if ctx.ring.order > 4:
        return _skip(cid, "hom enumeration bounded to small rings")
    homs = enumerate_ring_homs(ctx.ring, ctx.ring)
    for hom in homs:
        try:
            kernel_ideal(hom)
        except TheoremViolationError as e:
            return _fail(cid, str(e))
    return _pass(cid, f"{len(homs)} endomorphisms")


def check_induced_map_continuity(ctx):
    cid = "induced-map-continuity"
    if ctx.ring.order > 4:
        return _skip(cid, "hom enumeration bounded to small rings")
    total_maps = 0
    partial = 0
    for hom in enumerate_ring_homs(ctx.ring, ctx.ring):
        imap = induced_map(hom)
        if not imap.total:
            partial += 1
            continue
        total_maps += 1
        if not is_continuous(imap):
            return _fail(cid, f"pullback of {hom.mapping} is discontinuous")
    detail = f"{total_maps} total maps"
    if partial:
        detail += f", {partial} with points pulled outside the space"
    return _pass(cid, detail)


def check_radical_quotient_homeomorphism(ctx):
    cid = "radical-quotient-homeomorphism"
    report = check_radical_homeomorphism(ctx.ring)
    if report.ok:
        return _pass(cid)
    return _fail(cid, f"total={report.total} bijective={report.bijective} "
                      f"closed_sets={report.closed_sets_correspond}")


def check_surjection_embedding(ctx):
    cid = "surjection-embedding"
    if ctx.ring.order > 4:
        return _skip(cid, "hom enumeration bounded to small rings")
    checked = 0
    for a in ctx.lattice.two_sided:
        quot = quotient_ring(ctx.ring, a)
        imap = induced_map(quot.projection)
        if not imap.total:
            return _fail(cid, f"projection mod {a.members!r} pulls a primitive "
                              "outside the space")
        report = check_closed_embedding(imap)
        if not report.ok:
            return _fail(cid, f"projection mod {a.members!r}: "
                              f"injective={report.injective} "
                              f"image={report.image_is_kernel_vanishing} "
                              f"closed={report.closed_sets_correspond}")
        density = check_density(imap)
        if not density.agree:
            return _fail(cid, f"projection mod {a.members!r}: dense={density.dense} "
                              f"kernel in radical={density.kernel_in_radical}")
        checked += 1
    return _pass(cid, f"{checked} projections")


def check_nil_radical_vs_nilpotents(ctx):
    cid = "nil-radical-vs-nilpotents"
    rad = nil_radical(ctx.ring, ctx.lattice)
    nil = nilpotent_elements(ctx.ring)
    if rad.members.mask == nil.mask:
        return _info(cid, "prime intersection equals the nilpotent set")
    if nil.mask & ~rad.members.mask == 0:
        return _info(cid, f"nilpotents {nil!r} sit strictly inside "
                          f"the prime intersection {rad.members!r}")
    return _info(cid, f"a nilpotent escapes the prime intersection: "
                      f"{nil!r} vs {rad.members!r}")


def check_rogue_simple_modules(ctx):
    cid = "rogue-simple-modules"
    if ctx.ring.order > 3:
        return _skip(cid, "module table search bounded to very small rings")
    rogues = rogue_annihilators(ctx.ring, max_order=3)
    if not rogues:
        return _pass(cid, "no simple module hides from the maximal right ideals")
    names = ", ".join(repr(p.members) for p, _ in rogues)
    return _info(cid, f"annihilators found only by brute force: {names}")


CHECKS = (
    ("ideal-intersection-closed", check_ideal_intersection_closed),
    ("ideal-sum-closed", check_ideal_sum_closed),
    ("ideal-product-closed", check_ideal_product_closed),
    ("product-inside-intersection", check_product_inside_intersection),
    ("generated-ideal-cross-oracle", check_generated_ideal_cross_oracle),
    ("maximal-above-exists", check_maximal_above_exists),
    ("quotient-ring-valid", check_quotient_ring_valid),
    ("simple-iff-cyclic", check_simple_iff_cyclic),
    ("module-neg-compat", check_module_neg_compat),
    ("annihilator-is-ideal", check_annihilator_is_ideal),
    ("module-ideal-product-submodule", check_module_ideal_product_submodule),
    ("first-isomorphism", check_first_isomorphism),
    ("primitive-implies-prime", check_primitive_implies_prime),
    ("maximal-implies-primitive", check_maximal_implies_primitive),
    ("primitive-iff-quotient-primitive", check_primitive_iff_quotient_primitive),
    ("prim-certificate-cross-check", check_prim_certificate_cross_check),
    ("simple-quotient-by-maximal-right", check_simple_quotient_by_maximal_right),
    ("maximal-right-contains-primitive", check_maximal_right_contains_primitive),
    ("kuratowski-closure", check_kuratowski_closure),
    ("t0", check_t0),
    ("t1-iff-prim-equals-max", check_t1_iff_prim_equals_max),
    ("compactness-kernel-sum", check_compactness_kernel_sum),
    ("irreducible-sets-are-point-closures", check_irreducible_sets_are_point_closures),
    ("generic-point-unique", check_generic_point_unique),
    ("components-are-minimal-point-closures", check_components_are_minimal_point_closures),
    ("noetherian-space", check_noetherian_space),
    ("endo-hom-kernels", check_endo_hom_kernels),
    ("induced-map-continuity", check_induced_map_continuity),
    ("surjection-embedding", check_surjection_embedding),
    ("radical-quotient-homeomorphism", check_radical_quotient_homeomorphism),
    ("nil-radical-vs-nilpotents", check_nil_radical_vs_nilpotents),
    ("rogue-simple-modules", check_rogue_simple_modules),
)

CHECK_IDS = tuple(cid for cid, _ in CHECKS)


@dataclass(frozen=True)
class RingReportRow:
    name: str
    order: int
    results: tuple


@dataclass(frozen=True)
class SuiteReport:
    parameters: dict
    fingerprint: str
    rows: tuple
    generated_at: str

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0, "info": 0}
        for row in self.rows:
            for r in row.results:
                out[r.status] += 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts["fail"] == 0

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "generated_at": self.generated_at,
            "parameters": self.parameters,
            "corpus_fingerprint": self.fingerprint,
            "rings": [
                {
                    "name": row.name,
                    "order": row.order,
                    "checks": [
                        {"id": r.id, "status": r.status, "detail": r.detail}
                        for r in row.results
                    ],
                }
                for row in self.rows
            ],
            "summary": dict(sorted(self.counts.items())),
        }

    def to_json(self, indent=2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = []
        for row in self.rows:
            worst = "pass"
            for r in row.results:
                if r.status == "fail":
                    worst = "fail"
                    break
            lines.append(f"{row.name} (order {row.order}): {worst}")
            for r in row.results:
                if r.status != "pass":
                    lines.append(f"  [{r.status}] {r.id}"
                                 + (f": {r.detail}" if r.detail else ""))
        c = self.counts
        lines.append(f"pass {c['pass']}  fail {c['fail']}  skip {c['skip']}  info {c['info']}")
        return "\n".join(lines) + "\n"


def run_ring_checks(ring, check_ids=None) -> tuple:
    ctx = RingContext(ring)
    wanted = set(check_ids) if check_ids else None
    results = []
    for cid, fn in CHECKS:
        if wanted is not None and cid not in wanted:
            continue
        results.append(fn(ctx))
    # generate_corpus keeps its few most recent corpora, so corpus rings
    # live on; drop what the checks kept on this one, or the lattices,
    # quotients and spaces pile up over a sweep
    ring._derived.clear()
    return tuple(results)


def run_theorem_suite(entries=None, max_order=3, per_order_limit=None,
                      check_ids=None, threads=1) -> SuiteReport:
    """Run the registry over a corpus (or explicit entries) and report.

    Rings run one after another in corpus order.  ``threads`` is accepted
    and ignored, like ``--seed``: the checks are pure Python, which the
    interpreter lock keeps on one core whatever the thread count.
    """
    if check_ids:
        unknown = sorted(set(check_ids) - set(CHECK_IDS))
        if unknown:
            raise ValueError(f"unknown check ids: {', '.join(unknown)}")
    # thread count is an execution detail; keeping it out of the report
    # lets runs with different parallelism compare byte for byte
    params = {"max_order": max_order, "per_order_limit": per_order_limit,
              "checks": sorted(check_ids) if check_ids else "all"}
    if entries is None:
        entries = generate_corpus(max_order=max_order, per_order_limit=per_order_limit)
        fp = corpus_fingerprint(entries, max_order, True, per_order_limit)
    else:
        entries = tuple(entries)
        fp = corpus_fingerprint(entries, max_order, True, per_order_limit)

    rows = tuple(RingReportRow(name=e.name, order=e.ring.order,
                               results=run_ring_checks(e.ring, check_ids))
                 for e in entries)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return SuiteReport(parameters=params, fingerprint=fp, rows=rows,
                       generated_at=stamp)


@dataclass(frozen=True)
class SearchResult:
    kind: str
    scanned: int
    found: tuple  # (ring name, description)


def counterexample_search(kind, max_order=3, per_order_limit=None) -> SearchResult:
    """Sweep the corpus for interesting configurations.  Findings are
    observations, not failures."""
    kinds = ("prime-not-primitive", "primitive-not-maximal",
             "t1-failure", "rogue-simple-module")
    if kind not in kinds:
        raise ValueError(f"unknown search {kind!r}; pick one of {', '.join(kinds)}")
    entries = generate_corpus(max_order=max_order, per_order_limit=per_order_limit)
    found = []
    for entry in entries:
        ctx = RingContext(entry.ring)
        if kind == "prime-not-primitive":
            prim_keys = {c.ideal.key for c in ctx.certs}
            for p in ctx.lattice.prime:
                if p.key not in prim_keys:
                    found.append((entry.name, f"prime {p.members!r} is not primitive"))
        elif kind == "primitive-not-maximal":
            max_keys = {m.key for m in ctx.lattice.maximal}
            for c in ctx.certs:
                if c.ideal.key not in max_keys:
                    found.append((entry.name,
                                  f"primitive {c.ideal.members!r} is not maximal"))
        elif kind == "t1-failure":
            result = check_t1_iff_prim_equals_max(ctx)
            if result.status in ("fail", "info"):
                found.append((entry.name, result.detail))
        else:
            if entry.ring.order <= 3:
                for p, module in rogue_annihilators(entry.ring):
                    found.append((entry.name,
                                  f"annihilator {p.members!r} from a module "
                                  f"of order {module.order}"))
        entry.ring._derived.clear()  # as in run_ring_checks
    return SearchResult(kind=kind, scanned=len(entries), found=tuple(found))
