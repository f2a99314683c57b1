"""Span tracing of the krasner layers, from outside the package.

`install` wraps the public functions listed in TARGETS and rebinds each
wrapper in every `krasner` module namespace that holds the original by
name (so `from .core import hypergroup_checks` in `corpus` and
`hypermodules` is covered), wraps the methods on their classes, and
rebinds every check in `suite.CHECKS`.  A name that no longer exists is
recorded as missing and its metrics come out as None, so the benchmark
still runs against a tree that merged or renamed a searcher.

Each call becomes one span: which function, the span that caused it, the
item being processed, start and end in ns, and an optional number taken
from the arguments or the result.  Spans stay in memory; `dump` writes
them at the end.  `layer_metrics` turns them into the per-layer metrics
of PER_LAYER.  The tracer assumes one thread, which is how every
workload runs.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
import time

MODULES = ("corpus", "core", "ideals", "hypermodules", "primitivity",
           "spectrum", "morphisms", "dsl", "suite", "cli")


def _found(args, kwargs, result):
    return len(result)


def _maps(args, kwargs, result):
    """(maps tried, homs found) of a hom enumeration, the first computed
    from the arguments as target^(source-1)."""
    source, target = args[0], args[1]
    if kwargs.get("surjective_only") and source.order < target.order:
        return (0, len(result))
    return (target.order ** (source.order - 1), len(result))


def _text_bytes(args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    return len(text.encode("utf-8"))


# (module, attribute path, measure); a dotted path names a method, a
# classmethod or a property on a class of the module
TARGETS = (
    ("corpus", "generate_corpus", _found),
    ("corpus", "enumerate_hypergroups", _found),
    ("corpus", "mult_tables", _found),
    ("corpus", "ring_canonical_key", None),
    ("corpus", "corpus_fingerprint", None),
    ("core", "HyperRing.validate", None),
    ("core", "hypergroup_checks", None),
    ("core", "verify_hyperring", None),
    ("ideals", "IdealLattice.build", None),
    ("ideals", "generated_ideal", None),
    ("ideals", "cross_check_generated", None),
    ("ideals", "quotient_ring", None),
    ("ideals", "ideal_sum", None),
    ("ideals", "ideal_product", None),
    ("ideals", "maximal_above", None),
    ("ideals", "is_prime", None),
    ("ideals", "nil_radical", None),
    ("hypermodules", "HyperModule.validate", None),
    ("hypermodules", "regular_module", None),
    ("hypermodules", "quotient_module", None),
    ("hypermodules", "is_simple", None),
    ("hypermodules", "annihilator", None),
    ("hypermodules", "enumerate_module_homs", _maps),
    ("hypermodules", "find_isomorphism", None),
    ("primitivity", "prim_certificates", None),
    ("primitivity", "prim_from_maximal_right", None),
    ("primitivity", "check_primitive_iff_quotient_primitive", None),
    ("primitivity", "enumerate_simple_modules", _found),
    ("primitivity", "rogue_annihilators", None),
    ("spectrum", "SpectrumSpace.build", None),
    ("spectrum", "SpectrumSpace.__init__", None),
    ("spectrum", "SpectrumSpace.closed_sets", None),
    ("spectrum", "verify_kuratowski", None),
    ("morphisms", "enumerate_ring_homs", _maps),
    ("morphisms", "verify_strong_hom", None),
    ("morphisms", "kernel_ideal", None),
    ("morphisms", "induced_map", None),
    ("morphisms", "is_continuous", None),
    ("morphisms", "check_radical_homeomorphism", None),
    ("dsl", "parse_text", _text_bytes),
    ("dsl", "emit_ring", None),
    ("suite", "RingContext.lattice", None),
    ("suite", "RingContext.certs", None),
    ("suite", "RingContext.space", None),
    ("suite", "RingContext.regular", None),
    ("suite", "run_ring_checks", None),
    ("suite", "run_theorem_suite", None),
    ("cli", "main", None),
)

CONTEXT_KEYS = ("suite.RingContext.lattice", "suite.RingContext.certs",
                "suite.RingContext.space", "suite.RingContext.regular")


# the 32 check ids of the suite; the metric names stay fixed even if a
# later tree renames or drops a check (its metric then reads None)
CHECK_IDS = (
    "ideal-intersection-closed", "ideal-sum-closed", "ideal-product-closed",
    "product-inside-intersection", "generated-ideal-cross-oracle",
    "maximal-above-exists", "quotient-ring-valid", "simple-iff-cyclic",
    "module-neg-compat", "annihilator-is-ideal",
    "module-ideal-product-submodule", "first-isomorphism",
    "primitive-implies-prime", "maximal-implies-primitive",
    "primitive-iff-quotient-primitive", "prim-certificate-cross-check",
    "simple-quotient-by-maximal-right", "maximal-right-contains-primitive",
    "kuratowski-closure", "t0", "t1-iff-prim-equals-max",
    "compactness-kernel-sum", "irreducible-sets-are-point-closures",
    "generic-point-unique", "components-are-minimal-point-closures",
    "noetherian-space", "endo-hom-kernels", "induced-map-continuity",
    "surjection-embedding", "radical-quotient-homeomorphism",
    "nil-radical-vs-nilpotents", "rogue-simple-modules",
)

# name, unit, better, how it is obtained: "measured" (a time from spans),
# "counted" (spans or results counted), "computed" (derived from call
# arguments or as a ratio of counts)
PER_LAYER = (
    [(f"{m}.self_s", "s", "lower", "measured") for m in MODULES]
    + [(f"{m}.calls", "count", "lower", "counted") for m in MODULES]
    + [
        ("corpus.enumerate_hypergroups_s", "s", "lower", "measured"),
        ("corpus.mult_tables_s", "s", "lower", "measured"),
        ("corpus.canonical_key_s", "s", "lower", "measured"),
        ("corpus.hypergroups_found", "count", "lower", "counted"),
        ("corpus.mult_tables_found", "count", "lower", "counted"),
        ("corpus.dedupe_keep_ratio", "ratio", "higher", "computed"),
        ("core.ring_validate_calls", "count", "lower", "counted"),
        ("core.ring_validate_s", "s", "lower", "measured"),
        ("core.hypergroup_checks_calls", "count", "lower", "counted"),
        ("core.hypergroup_checks_s", "s", "lower", "measured"),
        ("ideals.lattice_build_s", "s", "lower", "measured"),
        ("ideals.generated_ideal_calls", "count", "lower", "counted"),
        ("ideals.generated_ideal_s", "s", "lower", "measured"),
        ("ideals.quotient_ring_s", "s", "lower", "measured"),
        ("hypermodules.module_validate_calls", "count", "lower", "counted"),
        ("hypermodules.module_validate_s", "s", "lower", "measured"),
        ("hypermodules.quotient_module_s", "s", "lower", "measured"),
        ("hypermodules.module_homs_s", "s", "lower", "measured"),
        ("hypermodules.module_hom_yield", "ratio", "higher", "computed"),
        ("hypermodules.find_isomorphism_s", "s", "lower", "measured"),
        ("primitivity.prim_certificates_s", "s", "lower", "measured"),
        ("primitivity.simple_module_search_s", "s", "lower", "measured"),
        ("primitivity.simple_module_candidates", "count", "lower", "counted"),
        ("primitivity.simple_module_yield", "ratio", "higher", "computed"),
        ("spectrum.build_s", "s", "lower", "measured"),
        ("spectrum.closed_sets_s", "s", "lower", "measured"),
        ("spectrum.kuratowski_s", "s", "lower", "measured"),
        ("morphisms.ring_homs_s", "s", "lower", "measured"),
        ("morphisms.ring_hom_maps", "count", "lower", "computed"),
        ("morphisms.ring_hom_yield", "ratio", "higher", "computed"),
        ("morphisms.induced_map_s", "s", "lower", "measured"),
        ("dsl.parse_s", "s", "lower", "measured"),
        ("dsl.emit_s", "s", "lower", "measured"),
        ("dsl.bytes_parsed", "bytes", "lower", "counted"),
        ("suite.context_s", "s", "lower", "measured"),
    ]
    + [(f"suite.check.{cid}_s", "s", "lower", "measured") for cid in CHECK_IDS]
    + [("trace.overhead_ratio", "ratio", "lower", "measured")]
)

# exact work counts that later changes claim against; they must repeat
# exactly from one process to the next
EXACT_COUNTS = tuple(name for name, unit, _, _ in PER_LAYER
                     if unit in ("count", "bytes"))


class Tracer:
    def __init__(self):
        self.keys = []       # span kind index -> "module.attribute"
        self.spans = []      # [kind, parent span, item, start ns, end ns, value]
        self.stack = []
        self.item = -1
        self.missing = []    # TARGETS entries not found in the tree

    def wrap(self, key: str, fn, measure=None):
        kind = len(self.keys)
        self.keys.append(key)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [kind, stack[-1] if stack else -1, self.item, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if measure is not None:
                rec[5] = measure(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, meta: dict):
        """Write every span as JSON, gzip compressed."""
        payload = dict(meta, keys=self.keys, missing=self.missing,
                       fields=["kind", "parent", "item", "start_ns", "end_ns", "value"],
                       spans=self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "krasner" or name.startswith("krasner."))]


def _rebind(original, wrapper):
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every TARGETS entry and every suite check in place."""
    for name in MODULES:
        importlib.import_module(f"krasner.{name}")
    for module, path, measure in TARGETS:
        key = f"{module}.{path}"
        mod = sys.modules[f"krasner.{module}"]
        if "." not in path:
            original = getattr(mod, path, None)
            if original is None:
                tracer.missing.append(key)
                continue
            _rebind(original, tracer.wrap(key, original, measure))
            continue
        cls_name, attr = path.split(".")
        cls = getattr(mod, cls_name, None)
        raw = None if cls is None else cls.__dict__.get(attr)
        if raw is None:
            tracer.missing.append(key)
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(key, raw.__func__, measure)))
        elif isinstance(raw, property):
            setattr(cls, attr, property(tracer.wrap(key, raw.fget, measure)))
        else:
            setattr(cls, attr, tracer.wrap(key, raw, measure))
    suite = sys.modules["krasner.suite"]
    checks = getattr(suite, "CHECKS", None)
    if checks is None:
        tracer.missing.append("suite.CHECKS")
        return
    suite.CHECKS = tuple((cid, tracer.wrap(f"suite.check.{cid}", fn))
                         for cid, fn in checks)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced process (trace.overhead_ratio is
    left to the caller, which has the untraced timings)."""
    keys = tracer.keys
    spans = tracer.spans
    n = len(spans)
    dur = [0] * n
    child = [0] * n
    for i, (_, parent, _, start, end, _) in enumerate(spans):
        dur[i] = end - start
        if parent >= 0:
            child[parent] += end - start

    missing_keys = set(tracer.missing)
    calls = {}
    incl = {}
    values = {}
    self_ns = dict.fromkeys(MODULES, 0)
    module_calls = dict.fromkeys(MODULES, 0)
    for i, (kind, _, _, _, _, value) in enumerate(spans):
        key = keys[kind]
        calls[key] = calls.get(key, 0) + 1
        incl[key] = incl.get(key, 0) + dur[i]
        if value is not None:
            values.setdefault(key, []).append(value)
        module = key.split(".", 1)[0]
        self_ns[module] += dur[i] - child[i]
        module_calls[module] += 1

    # context spans not nested in another context span, charged to the
    # check that triggered them and taken out of that check's time
    ctx_kinds = {k for k, key in enumerate(keys) if key in CONTEXT_KEYS}
    check_kinds = {k for k, key in enumerate(keys) if key.startswith("suite.check.")}
    in_ctx = [False] * n
    check_of = [-1] * n
    context_ns = 0
    check_ns = {}
    for i, (kind, parent, _, _, _, _) in enumerate(spans):
        if parent >= 0:
            in_ctx[i] = in_ctx[parent] or spans[parent][0] in ctx_kinds
            check_of[i] = parent if spans[parent][0] in check_kinds else check_of[parent]
        if kind in check_kinds:
            check_ns[kind] = check_ns.get(kind, 0) + dur[i]
        if kind in ctx_kinds and not in_ctx[i]:
            context_ns += dur[i]
            if check_of[i] >= 0:
                owner = spans[check_of[i]][0]
                check_ns[owner] = check_ns.get(owner, 0) - dur[i]

    # SpectrumSpace.build constructs through __init__; count each space once
    build_ns = incl.get("spectrum.SpectrumSpace.build", 0)
    for i, (kind, parent, _, _, _, _) in enumerate(spans):
        if keys[kind] == "spectrum.SpectrumSpace.__init__" and (
                parent < 0 or keys[spans[parent][0]] != "spectrum.SpectrumSpace.build"):
            build_ns += dur[i]

    def seconds(name):
        return None if name in missing_keys else incl.get(name, 0) / 1e9

    def count(name):
        return None if name in missing_keys else calls.get(name, 0)

    def total(name, pick=lambda v: v):
        if name in missing_keys:
            return None
        return sum(pick(v) for v in values.get(name, ()))

    def ratio(num, den):
        if num is None or den is None:
            return None
        return num / den if den else 0.0

    out = {}
    for m in MODULES:
        out[f"{m}.self_s"] = self_ns[m] / 1e9
        out[f"{m}.calls"] = module_calls[m]
    found_hg = total("corpus.enumerate_hypergroups")
    found_mt = total("corpus.mult_tables")
    kept = total("corpus.generate_corpus")
    candidates = None
    if "hypermodules.HyperModule.validate" not in missing_keys and \
            "primitivity.enumerate_simple_modules" not in missing_keys:
        search = {k for k, key in enumerate(keys)
                  if key == "primitivity.enumerate_simple_modules"}
        validate = {k for k, key in enumerate(keys)
                    if key == "hypermodules.HyperModule.validate"}
        candidates = sum(1 for kind, parent, *_ in spans
                         if kind in validate and parent >= 0 and spans[parent][0] in search)
    ring_maps = total("morphisms.enumerate_ring_homs", lambda v: v[0])
    ring_found = total("morphisms.enumerate_ring_homs", lambda v: v[1])
    module_maps = total("hypermodules.enumerate_module_homs", lambda v: v[0])
    module_found = total("hypermodules.enumerate_module_homs", lambda v: v[1])
    simple_found = total("primitivity.enumerate_simple_modules")
    out.update({
        "corpus.enumerate_hypergroups_s": seconds("corpus.enumerate_hypergroups"),
        "corpus.mult_tables_s": seconds("corpus.mult_tables"),
        "corpus.canonical_key_s": seconds("corpus.ring_canonical_key"),
        "corpus.hypergroups_found": found_hg,
        "corpus.mult_tables_found": found_mt,
        "corpus.dedupe_keep_ratio": ratio(kept, found_mt),
        "core.ring_validate_calls": count("core.HyperRing.validate"),
        "core.ring_validate_s": seconds("core.HyperRing.validate"),
        "core.hypergroup_checks_calls": count("core.hypergroup_checks"),
        "core.hypergroup_checks_s": seconds("core.hypergroup_checks"),
        "ideals.lattice_build_s": seconds("ideals.IdealLattice.build"),
        "ideals.generated_ideal_calls": count("ideals.generated_ideal"),
        "ideals.generated_ideal_s": seconds("ideals.generated_ideal"),
        "ideals.quotient_ring_s": seconds("ideals.quotient_ring"),
        "hypermodules.module_validate_calls": count("hypermodules.HyperModule.validate"),
        "hypermodules.module_validate_s": seconds("hypermodules.HyperModule.validate"),
        "hypermodules.quotient_module_s": seconds("hypermodules.quotient_module"),
        "hypermodules.module_homs_s": seconds("hypermodules.enumerate_module_homs"),
        "hypermodules.module_hom_yield": ratio(module_found, module_maps),
        "hypermodules.find_isomorphism_s": seconds("hypermodules.find_isomorphism"),
        "primitivity.prim_certificates_s": seconds("primitivity.prim_certificates"),
        "primitivity.simple_module_search_s": seconds("primitivity.enumerate_simple_modules"),
        "primitivity.simple_module_candidates": candidates,
        "primitivity.simple_module_yield": ratio(simple_found, candidates),
        "spectrum.build_s": None if {"spectrum.SpectrumSpace.build",
                                      "spectrum.SpectrumSpace.__init__"} & missing_keys
        else build_ns / 1e9,
        "spectrum.closed_sets_s": seconds("spectrum.SpectrumSpace.closed_sets"),
        "spectrum.kuratowski_s": seconds("spectrum.verify_kuratowski"),
        "morphisms.ring_homs_s": seconds("morphisms.enumerate_ring_homs"),
        "morphisms.ring_hom_maps": ring_maps,
        "morphisms.ring_hom_yield": ratio(ring_found, ring_maps),
        "morphisms.induced_map_s": seconds("morphisms.induced_map"),
        "dsl.parse_s": seconds("dsl.parse_text"),
        "dsl.emit_s": seconds("dsl.emit_ring"),
        "dsl.bytes_parsed": total("dsl.parse_text"),
        "suite.context_s": None if set(CONTEXT_KEYS) & missing_keys else context_ns / 1e9,
    })
    present = {key[len("suite.check."):]: k for k, key in enumerate(keys)
               if key.startswith("suite.check.")}
    for cid in CHECK_IDS:
        k = present.get(cid)
        out[f"suite.check.{cid}_s"] = None if k is None else check_ns.get(k, 0) / 1e9
    return out


def combine(per_process: list) -> tuple:
    """Per-layer metrics over several traced processes: the median of each
    time, and each exact count, which must agree everywhere.  Returns
    (metrics, names of counts that differed)."""
    out = {}
    unsteady = []
    for name in per_process[0]:
        vals = [m[name] for m in per_process]
        if any(v is None for v in vals):
            out[name] = None
        elif name in EXACT_COUNTS:
            out[name] = vals[0]
            if any(v != vals[0] for v in vals):
                unsteady.append(name)
        else:
            out[name] = statistics.median(vals)
    return out, unsteady
