"""Theorem sweeps over generated rings.

Each check interrogates one ring and returns a verdict (pass, fail, skip
or info, and a detail); the registry `CHECKS` holds its id.  Skips are
for hypotheses that do not apply, each one gate on the checks needing
it; info is for observations worth surfacing that are not promised to
hold, and a fail always carries a concrete witness in its detail.
`SEARCHES` states each search's kind and scope once.  Reports serialize
deterministically: the timestamp is the only field that varies between
identical runs, which is what the determinism tests pin down.
"""

from __future__ import annotations

import contextlib
import datetime
import functools
import itertools
import json
from typing import NamedTuple

from .core import TheoremViolationError, derived
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

# the largest ring order that the hom-based checks search, and that the
# rogue simple-module check and search run on; larger rings skip them
HOM_CHECK_ORDER = 4
ROGUE_CHECK_ORDER = 3
# the most closed sets on which irreducible-sets-are-point-closures also
# runs the slow referee reducible_split, a sweep over pairs of closed sets
SPLIT_REFEREE_CLOSED_SETS = 64


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
    endomorphisms = property(lambda self: derived(
        self.ring, "endomorphisms", lambda: enumerate_ring_homs(self.ring, self.ring)))


class CheckResult(NamedTuple):
    id: str
    status: str  # pass | fail | skip | info
    detail: str = ""


class Verdict(NamedTuple):
    """What a check returns; `run_ring_checks` adds the registry id."""
    status: str
    detail: str = ""


_pass = functools.partial(Verdict, "pass")
_fail = functools.partial(Verdict, "fail")
_skip = functools.partial(Verdict, "skip")
_info = functools.partial(Verdict, "info")


def _gate(holds, reason):
    """A decorator that makes a check skip, with reason, every ring on
    which holds(ring) is false.  The gate runs inside the registered
    callable, so a skipped ring still calls each check once."""
    def decorate(check):
        @functools.wraps(check)
        def gated(ctx):
            return check(ctx) if holds(ctx.ring) else _skip(reason)
        return gated
    return decorate


def _rogue_sized(ring):
    return ring.order <= ROGUE_CHECK_ORDER


_needs_unit = _gate(lambda ring: ring.is_unital, "needs a unit")
_hom_sized = _gate(lambda ring: ring.order <= HOM_CHECK_ORDER,
                   "hom enumeration bounded to small rings")


def check_ideal_intersection_closed(ctx):
    for a, b in itertools.combinations_with_replacement(ctx.lattice.two_sided, 2):
        meet = a.members.mask & b.members.mask
        verdict = is_hyperideal(ctx.ring, ctx.ring.from_mask(meet), "two-sided")
        if not verdict:
            return _fail(f"{a.members!r} meet {b.members!r} fails "
                         f"{verdict.clause} at {verdict.witness}")
    return _pass()


def check_ideal_sum_closed(ctx):
    for a, b in itertools.combinations_with_replacement(ctx.lattice.two_sided, 2):
        s = ideal_sum([a, b])
        if a.members.mask & ~s.members.mask or b.members.mask & ~s.members.mask:
            return _fail(f"{a.members!r} + {b.members!r} does not contain a summand")
    return _pass()


def check_ideal_product_closed(ctx):
    # ideal_product is the slow route that referees the lattice's table
    lattice = ctx.lattice
    for a, b in itertools.product(lattice.two_sided, repeat=2):
        prod = ideal_product(a, b)
        table = lattice.products.get((a.key, b.key))
        if prod.key != table:
            return _fail(f"{a.members!r} * {b.members!r} has mask {prod.key}, "
                         f"the lattice's product table {table}")
    return _pass()


def check_product_inside_intersection(ctx):
    # reads the product table that ideal-product-closed referees
    lattice = ctx.lattice
    for a, b in itertools.product(lattice.two_sided, repeat=2):
        prod = ctx.ring.from_mask(lattice.products[a.key, b.key])
        if prod.mask & ~(a.key & b.key):
            return _fail(f"{a.members!r} * {b.members!r} = {prod!r} "
                         "escapes the intersection")
    return _pass()


def check_generated_ideal_cross_oracle(ctx):
    count = cross_check_all_generated(ctx.ring, ctx.lattice)
    return _pass(f"agreed on all {count} generating sets")


def check_maximal_above_exists(ctx):
    for a in ctx.lattice.two_sided:
        if not a.proper:
            continue
        m = maximal_above(a, ctx.lattice)
        if a.members.mask & ~m.members.mask:
            return _fail(f"maximal_above({a.members!r}) = {m.members!r} "
                         "does not contain its input")
    return _pass()


def check_quotient_ring_valid(ctx):
    for a in ctx.lattice.two_sided:
        quot = quotient_ring(ctx.ring, a)
        if len(quot.cosets) != quot.ring.order:
            return _fail(f"coset bookkeeping off for {a.members!r}")
    return _pass()


def check_simple_iff_cyclic(ctx):
    modules = [ctx.regular]
    for m in ctx.lattice.right:
        modules.append(quotient_module(ctx.regular,
                                       ctx.regular.from_mask(m.members.mask)).module)
    for mod in modules:
        nonzero_action = any(v for row in mod.act_table for v in row)
        all_cyclic = (mod.order > 1 and
                      all(cyclic_submodule(mod, m).is_full() for m in range(1, mod.order)))
        if is_simple(mod) != (nonzero_action and all_cyclic):
            return _fail(f"{mod!r}: simplicity and cyclic generation disagree")
    return _pass(f"checked {len(modules)} modules")


def check_module_neg_compat(ctx):
    mod = ctx.regular
    for m in range(mod.order):
        for r in range(ctx.ring.order):
            if mod.act_table[m][ctx.ring.neg_table[r]] != mod.neg_table[mod.act_table[m][r]]:
                return _fail(f"m(-r) != -(mr) at ({m}, {r})")
    return _pass()


def check_annihilator_is_ideal(ctx):
    for mod in [ctx.regular] + [c.module for c in ctx.certs]:
        annihilator(mod)
    return _pass()


def check_module_ideal_product_submodule(ctx):
    for a in ctx.lattice.two_sided:
        module_ideal_product(ctx.regular, a)
    return _pass()


@_hom_sized
def check_first_isomorphism(ctx):
    reg = ctx.regular
    targets = [reg]
    for m in ctx.lattice.maximal_right:
        targets.append(quotient_module(reg, reg.from_mask(m.members.mask)).module)
    # a claim M/ker f = im f reads only the tables of the target and the
    # masks of ker f and im f, so each is decided once: a target with the
    # tables of an earlier one repeats its homs, homs with one kernel and
    # image compare the same two modules, and the zero hom (kernel M,
    # image {0}) makes one claim whatever the target
    hom_counts = {}
    tried = 0
    seen = set()
    for t, target in enumerate(targets):
        tables = (target.add_masks, target.neg_table, target.act_table)
        if tables in hom_counts:
            tried += hom_counts[tables]
            continue
        homs = enumerate_module_homs(reg, target)
        hom_counts[tables] = len(homs)
        tried += len(homs)
        for hom in homs:
            ker = hom_kernel(hom)
            img = hom_image(hom)
            claim = (None if img.mask == 1 else t, ker.mask, img.mask)
            if claim in seen:
                continue
            seen.add(claim)
            quot = quotient_module(reg, ker)
            image_mod = target if img.is_full() else submodule(target, img)
            # the induced map [m] -> f(m) first; the search only when it fails
            if (induced_isomorphism(hom, quot, image_mod) is None
                    and find_isomorphism(quot.module, image_mod) is None):
                return _fail(f"M/ker not isomorphic to image for mapping {hom.mapping}")
    return _pass(f"checked {tried} homs")


def check_primitive_implies_prime(ctx):
    for c in ctx.certs:
        verdict = is_prime(c.ideal, ctx.lattice)
        if not verdict.ok:
            return _fail(f"primitive {c.ideal.members!r} is not prime, "
                         f"witness pair {verdict.witness}")
    if not ctx.certs:
        return _pass("no primitive ideals")
    return _pass()


@_needs_unit
def check_maximal_implies_primitive(ctx):
    prim_keys = {c.ideal.key for c in ctx.certs}
    for m in ctx.lattice.maximal:
        if m.key not in prim_keys:
            return _fail(f"maximal {m.members!r} is not primitive")
    return _pass()


def check_primitive_iff_quotient_primitive(ctx):
    report = quotient_primitivity_report(ctx.ring)
    if report.ok:
        return _pass()
    p, left, right = report.mismatches[0]
    return _fail(f"{p.members!r}: in the primitive set {left}, "
                 f"quotient ring primitive {right}")


def check_prim_certificate_cross_check(ctx):
    for c in ctx.certs:
        if not is_simple(c.module):
            return _fail(f"witness module for {c.ideal.members!r} is not simple")
        if annihilator(c.module).key != c.ideal.key:
            return _fail(f"certificate ideal for {c.ideal.members!r} "
                         "does not match its module")
    return _pass(f"{len(ctx.certs)} certificates")


def check_simple_quotient_by_maximal_right(ctx):
    tried = 0
    for m in ctx.lattice.maximal_right:
        if prim_from_maximal_right(ctx.ring, m) is not None:
            tried += 1
    if tried == 0:
        return _pass("every maximal right ideal swallows all products")
    return _pass(f"{tried} simple quotients")


@_needs_unit
def check_maximal_right_contains_primitive(ctx):
    for m in ctx.lattice.maximal_right:
        cert = prim_from_maximal_right(ctx.ring, m)
        if cert is None:
            return _fail(f"maximal right {m.members!r} swallows all products "
                         "despite the unit")
        if cert.ideal.members.mask & ~m.members.mask:
            return _fail(f"primitive {cert.ideal.members!r} escapes "
                         f"its maximal right {m.members!r}")
    return _pass()


def check_kuratowski_closure(ctx):
    report = verify_kuratowski(ctx.space)
    if not report.ok:
        return _fail(f"{report.detail}, witness {report.failure}")
    return _pass(f"all {report.pairs_checked} union pairs")


def check_t0(ctx):
    if ctx.space.is_t0():
        return _pass()
    return _fail("two points share a closure")


def check_t1_iff_prim_equals_max(ctx):
    prim_keys = {c.ideal.key for c in ctx.certs}
    max_keys = {m.key for m in ctx.lattice.maximal}
    t1 = ctx.space.is_t1()
    agree = t1 == (prim_keys == max_keys)
    if ctx.ring.is_unital:
        if agree:
            return _pass()
        return _fail(f"t1 is {t1} but the primitive and maximal sets "
                     f"{'match' if prim_keys == max_keys else 'differ'}")
    if agree:
        return _pass("holds without a unit here")
    return _info(f"no unit and the equivalence fails: t1 is {t1}, "
                 f"primitive set {'equals' if prim_keys == max_keys else 'differs from'} "
                 "maximal set")


@_needs_unit
def check_compactness_kernel_sum(ctx):
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
        return _skip("no family of proper ideals uncovers the space")
    for family in families:
        combo = compactness_witness(ctx.space, family)
        total = witness_kernel_sum(ctx.space, family, combo)
        if not total.is_full():
            return _fail(f"minimal subfamily {combo} sums to {total!r}, not the ring")
    return _pass(f"{len(families)} covering families")


def check_irreducible_sets_are_point_closures(ctx):
    closed = ctx.space.closed_sets()
    closures = {ctx.space.closure(1 << i) for i in range(ctx.space.size)}
    for c in closed:
        fast = is_irreducible(ctx.space, c)
        if len(closed) <= SPLIT_REFEREE_CLOSED_SETS:
            slow = c != 0 and reducible_split(ctx.space, c) is None
            if fast != slow:
                return _fail(f"irreducibility routes disagree on {bin(c)}")
        if fast and c not in closures:
            return _fail(f"irreducible {bin(c)} is no point closure")
        if not fast and c != 0 and c in closures:
            return _fail(f"point closure {bin(c)} judged reducible")
    return _pass(f"{len(closed)} closed sets")


def check_generic_point_unique(ctx):
    for c in irreducible_closed_sets(ctx.space):
        g = generic_points(ctx.space, c)
        if len(g) != 1:
            return _fail(f"{bin(c)} has {len(g)} generic points")
    return _pass()


def check_components_are_minimal_point_closures(ctx):
    space = ctx.space
    comps = set(irreducible_components(space))
    minimal = []
    for i, p in enumerate(space.points):
        if not any(j != i and q.members.mask & ~p.members.mask == 0
                   for j, q in enumerate(space.points)):
            minimal.append(i)
    expected = {space.closure(1 << i) for i in minimal}
    if comps != expected:
        return _fail("components differ from the closures of the minimal points")
    covered = 0
    for c in comps:
        covered |= c
    if covered != space.full_pmask:
        return _fail("components fail to cover the space")
    return _pass(f"{len(comps)} components")


def check_noetherian_space(ctx):
    if is_noetherian_space(ctx.space):
        return _pass()
    return _fail("a descending chain refused to stabilize")


@_hom_sized
def check_endo_hom_kernels(ctx):
    homs = ctx.endomorphisms
    for hom in homs:
        kernel_ideal(hom)
    return _pass(f"{len(homs)} endomorphisms")


@_hom_sized
def check_induced_map_continuity(ctx):
    total_maps = 0
    partial = 0
    for hom in ctx.endomorphisms:
        imap = induced_map(hom)
        if not imap.total:
            partial += 1
            continue
        total_maps += 1
        if not is_continuous(imap):
            return _fail(f"pullback of {hom.mapping} is discontinuous")
    detail = f"{total_maps} total maps"
    if partial:
        detail += f", {partial} with points pulled outside the space"
    return _pass(detail)


def check_radical_quotient_homeomorphism(ctx):
    report = check_radical_homeomorphism(ctx.ring)
    if report.ok:
        return _pass()
    return _fail(f"total={report.total} bijective={report.bijective} "
                 f"closed_sets={report.closed_sets_correspond}")


@_hom_sized
def check_surjection_embedding(ctx):
    checked = 0
    for a in ctx.lattice.two_sided:
        quot = quotient_ring(ctx.ring, a)
        imap = induced_map(quot.projection)
        if not imap.total:
            return _fail(f"projection mod {a.members!r} pulls a primitive "
                         "outside the space")
        report = check_closed_embedding(imap)
        if not report.ok:
            return _fail(f"projection mod {a.members!r}: "
                         f"injective={report.injective} "
                         f"image={report.image_is_kernel_vanishing} "
                         f"closed={report.closed_sets_correspond}")
        density = check_density(imap)
        if not density.agree:
            return _fail(f"projection mod {a.members!r}: dense={density.dense} "
                         f"kernel in radical={density.kernel_in_radical}")
        checked += 1
    return _pass(f"{checked} projections")


def check_nil_radical_vs_nilpotents(ctx):
    rad = nil_radical(ctx.ring, ctx.lattice)
    nil = nilpotent_elements(ctx.ring)
    if rad.members.mask == nil.mask:
        return _info("prime intersection equals the nilpotent set")
    if nil.mask & ~rad.members.mask == 0:
        return _info(f"nilpotents {nil!r} sit strictly inside "
                     f"the prime intersection {rad.members!r}")
    return _info(f"a nilpotent escapes the prime intersection: "
                 f"{nil!r} vs {rad.members!r}")


@_gate(_rogue_sized, "module table search bounded to very small rings")
def check_rogue_simple_modules(ctx):
    rogues = rogue_annihilators(ctx.ring)
    if not rogues:
        return _pass("no simple module hides from the maximal right ideals")
    names = ", ".join(repr(p.members) for p, _ in rogues)
    return _info(f"annihilators found only by brute force: {names}")


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


def require_known_checks(check_ids):
    """Refuse, naming them, the check ids that the registry lacks."""
    unknown = sorted(set(check_ids or ()) - set(CHECK_IDS))
    if unknown:
        raise ValueError(f"unknown check ids: {', '.join(unknown)}")


class RingReportRow(NamedTuple):
    name: str
    order: int
    results: tuple


class SuiteReport(NamedTuple):
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


@contextlib.contextmanager
def _ring_context(ring):
    """The RingContext of one ring.  Corpus rings outlive a sweep in
    generate_corpus's cache, so drop what the work kept on the ring."""
    try:
        yield RingContext(ring)
    finally:
        ring._derived.clear()


def run_ring_checks(ring, check_ids=None) -> tuple:
    """The checks on one ring, in registry order, all of them when
    check_ids is empty.  A check that breaks a theorem on the way
    (``TheoremViolationError``) fails with its message."""
    require_known_checks(check_ids)
    results = []
    with _ring_context(ring) as ctx:
        for cid, check in CHECKS:
            if check_ids and cid not in check_ids:
                continue
            try:
                results.append(CheckResult(cid, *check(ctx)))
            except TheoremViolationError as e:
                results.append(CheckResult(cid, "fail", str(e)))
    return tuple(results)


def run_theorem_suite(entries=None, max_order=3, per_order_limit=None,
                      check_ids=None) -> SuiteReport:
    """Run the registry over a corpus (or explicit entries) and report.

    Rings run one after another in corpus order.
    """
    require_known_checks(check_ids)
    params = {"max_order": max_order, "per_order_limit": per_order_limit,
              "checks": sorted(check_ids) if check_ids else "all"}
    if entries is None:
        entries = generate_corpus(max_order=max_order, per_order_limit=per_order_limit)
    else:
        entries = tuple(entries)
    fp = corpus_fingerprint(entries, max_order, per_order_limit)

    rows = tuple(RingReportRow(name=e.name, order=e.ring.order,
                               results=run_ring_checks(e.ring, check_ids))
                 for e in entries)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return SuiteReport(parameters=params, fingerprint=fp, rows=rows,
                       generated_at=stamp)


class SearchResult(NamedTuple):
    kind: str
    scanned: int
    found: tuple  # (ring name, description)


def _prime_not_primitive(ctx):
    prim_keys = {c.ideal.key for c in ctx.certs}
    return [f"prime {p.members!r} is not primitive"
            for p in ctx.lattice.prime if p.key not in prim_keys]


def _primitive_not_maximal(ctx):
    max_keys = {m.key for m in ctx.lattice.maximal}
    return [f"primitive {c.ideal.members!r} is not maximal"
            for c in ctx.certs if c.ideal.key not in max_keys]


def _t1_failure(ctx):
    status, detail = check_t1_iff_prim_equals_max(ctx)
    return [detail] if status in ("fail", "info") else []


def _rogue_simple_module(ctx):
    return [f"annihilator {p.members!r} from a module of order {module.order}"
            for p, module in rogue_annihilators(ctx.ring)]


# each search kind: the finder that lists one ring's findings, and the
# rings it runs on (None: every ring), which are the rings it scans
SEARCHES = {
    "prime-not-primitive": (_prime_not_primitive, None),
    "primitive-not-maximal": (_primitive_not_maximal, None),
    "t1-failure": (_t1_failure, None),
    "rogue-simple-module": (_rogue_simple_module, _rogue_sized),
}

SEARCH_KINDS = tuple(SEARCHES)


def counterexample_search(kind, max_order=3, per_order_limit=None) -> SearchResult:
    """Sweep the corpus for interesting configurations.  Findings are
    observations, not failures."""
    if kind not in SEARCHES:
        raise ValueError(f"unknown search {kind!r}; pick one of {', '.join(SEARCH_KINDS)}")
    finder, runs_on = SEARCHES[kind]
    entries = [e for e in generate_corpus(max_order=max_order, per_order_limit=per_order_limit)
               if runs_on is None or runs_on(e.ring)]
    found = []
    for entry in entries:
        with _ring_context(entry.ring) as ctx:
            found.extend((entry.name, detail) for detail in finder(ctx))
    return SearchResult(kind=kind, scanned=len(entries), found=tuple(found))
