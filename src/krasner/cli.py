"""Command line front end.

    khr verify ring.khr          validate structures in a file
    khr ideals ring.khr          hyperideal lattice per ring
    khr prim ring.khr            primitive ideals with their witnesses
    khr spectrum ring.khr --dot  the topology, optionally as DOT or JSON
    khr check                    theorem sweep over generated rings
    khr gen --max-order 3        corpus manifest, optionally written out
    khr search t1-failure        hunt for interesting configurations
    khr hom homs.khr             verify homs and their pullback maps

Exit codes: 0 clean, 1 a theorem check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .core import BoundExceededError, NotValidatedError, TheoremViolationError
from .corpus import CorpusEntry, corpus_fingerprint, generate_corpus
from .dsl import ParseError, emit_ring, parse_file
from .ideals import IdealLattice, nil_radical
from .morphisms import (
    check_closed_embedding,
    check_density,
    induced_map,
    is_continuous,
    kernel_ideal,
    verify_strong_hom,
)
from .primitivity import prim_certificates
from .spectrum import SpectrumSpace, dot_graph, space_as_dict
from .suite import SEARCH_KINDS, counterexample_search, require_known_checks, run_theorem_suite


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _failures(report) -> str:
    """One line per failed check of a report: axiom, witness and detail."""
    return "\n".join(f"  {chk.axiom}: witness {chk.witness}"
                     + (f" ({chk.detail})" if chk.detail else "")
                     for chk in report.failures)


class InputError(Exception):
    """Invalid input, reported then mapped to exit code 2."""


def _validated_rings(doc, only=None):
    """(name, ring) pairs, failing fast on the first invalid one."""
    out = []
    for name, ring in doc.rings.items():
        if only and name != only:
            continue
        report = ring.validate()
        if not report.ok:
            raise InputError(f"{name}: invalid\n{_failures(report)}")
        out.append((name, ring))
    if only and not out:
        raise InputError(f"no ring named {only!r} in the file")
    if not out:
        raise InputError("no rings in the file")
    return out


def cmd_verify(args) -> int:
    code = 0
    for path in args.files:
        doc = parse_file(path)
        for name, report in doc.verify_all().items():
            status = "ok" if report.ok else "FAIL"
            print(f"{path}: {name}: {status}")
            if not report.ok:
                code = 2
                print(_failures(report))
    return code


def cmd_ideals(args) -> int:
    doc = parse_file(args.file)
    payload = []
    for name, ring in _validated_rings(doc, args.ring):
        lattice = IdealLattice.build(ring)
        maximal = {m.key for m in lattice.maximal}
        prime = {p.key for p in lattice.prime}
        if args.format == "json":
            payload.append({
                "ring": name,
                "two_sided": [sorted(a.members) for a in lattice.two_sided],
                "right": [sorted(a.members) for a in lattice.right],
                "maximal": [sorted(a.members) for a in lattice.maximal],
                "prime": [sorted(a.members) for a in lattice.prime],
                "maximal_right": [sorted(a.members) for a in lattice.maximal_right],
                "nil_radical": sorted(nil_radical(ring, lattice).members),
            })
            continue
        print(f"{name}: {len(lattice.two_sided)} two-sided, "
              f"{len(lattice.right)} right hyperideals")
        for a in lattice.two_sided:
            flags = []
            if a.key in maximal:
                flags.append("maximal")
            if a.key in prime:
                flags.append("prime")
            print(f"  {a.members!r}" + (" " + " ".join(flags) if flags else ""))
        print(f"  nil radical {nil_radical(ring, lattice).members!r}")
    if args.format == "json":
        sys.stdout.write(_dump(payload))
    return 0


def cmd_prim(args) -> int:
    doc = parse_file(args.file)
    payload = []
    for name, ring in _validated_rings(doc, args.ring):
        certs = prim_certificates(ring)
        if args.format == "json":
            payload.append({
                "ring": name,
                "primitive": [sorted(c.ideal.members) for c in certs],
                "witnesses": [
                    {"ideal": sorted(c.ideal.members),
                     "maximal_right": sorted(c.maximal_right.members),
                     "module_order": c.module.order}
                    for c in certs
                ],
            })
            continue
        if not certs:
            print(f"{name}: no primitive hyperideals")
            continue
        print(f"{name}: {len(certs)} primitive hyperideal(s)")
        for c in certs:
            print(f"  {c.ideal.members!r} from maximal right {c.maximal_right.members!r} "
                  f"via a simple module of order {c.module.order}")
    if args.format == "json":
        sys.stdout.write(_dump(payload))
    return 0


def cmd_spectrum(args) -> int:
    doc = parse_file(args.file)
    pieces = []
    for name, ring in _validated_rings(doc, args.ring):
        space = SpectrumSpace.build(ring)
        if args.dot:
            sys.stdout.write(dot_graph(space))
        elif args.json:
            pieces.append(space_as_dict(space))
        else:
            d = space_as_dict(space)
            print(f"{name}: {space.size} point(s)")
            for i, p in enumerate(space.points):
                print(f"  p{i} = {p.members!r}")
            print(f"  closed sets: {len(d['closed_sets'])}")
            print(f"  t0 {d['t0']}  t1 {d['t1']}")
            comps = " ".join("{" + ",".join(f"p{i}" for i in c) + "}"
                             for c in d["irreducible_components"])
            print(f"  components: {comps if comps else 'none'}")
    if args.json:
        sys.stdout.write(_dump(pieces))
    return 0


def cmd_check(args) -> int:
    check_ids = args.checks.split(",") if args.checks else None
    try:
        require_known_checks(check_ids)
    except ValueError as e:
        raise InputError(f"error: {e}") from None
    if args.files:
        entries = []
        for path in args.files:
            doc = parse_file(path)
            for name, ring in doc.rings.items():
                report = ring.validate()
                if report.ok:
                    entries.append(CorpusEntry(name=name, ring=ring))
                    continue
                if not args.allow_invalid:
                    print(f"{name}: invalid ring; rerun with --allow-invalid "
                          "to check the others", file=sys.stderr)
                    print(_failures(report), file=sys.stderr)
                    return 2
                print(f"skipping invalid ring {name}:", file=sys.stderr)
                print(_failures(report), file=sys.stderr)
        report = run_theorem_suite(entries=entries, max_order=args.max_order,
                                   per_order_limit=args.per_order_limit,
                                   check_ids=check_ids)
    else:
        report = run_theorem_suite(max_order=args.max_order,
                                   per_order_limit=args.per_order_limit,
                                   check_ids=check_ids)
    if args.format == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def cmd_gen(args) -> int:
    entries = generate_corpus(max_order=args.max_order,
                              per_order_limit=args.per_order_limit)
    fp = corpus_fingerprint(entries, args.max_order, args.per_order_limit)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        for e in entries:
            (out / f"{e.name}.khr").write_text(emit_ring(e.ring, e.name),
                                               encoding="utf-8")
    manifest = {
        "schema": "krasner-corpus/1",
        "parameters": {"max_order": args.max_order,
                       "per_order_limit": args.per_order_limit},
        "count": len(entries),
        "fingerprint": fp,
        "rings": [{"name": e.name, "order": e.ring.order,
                   "unital": e.ring.is_unital} for e in entries],
    }
    if args.format == "text":
        for e in entries:
            unital = "unital" if e.ring.is_unital else "non-unital"
            print(f"{e.name} order {e.ring.order} {unital}")
        print(f"{len(entries)} rings, fingerprint {fp}")
    else:
        sys.stdout.write(_dump(manifest))
    return 0


def cmd_search(args) -> int:
    result = counterexample_search(args.kind, max_order=args.max_order,
                                   per_order_limit=args.per_order_limit)
    if args.format == "json":
        sys.stdout.write(_dump({
            "kind": result.kind,
            "scanned": result.scanned,
            "found": [{"ring": name, "detail": detail}
                      for name, detail in result.found],
        }))
        return 0
    print(f"{result.kind}: scanned {result.scanned} rings, "
          f"{len(result.found)} finding(s)")
    for name, detail in result.found:
        print(f"  {name}: {detail}")
    return 0


def cmd_hom(args) -> int:
    doc = parse_file(args.file)
    homs = {name: h for name, h in doc.homs.items()
            if not args.name or name == args.name}
    if not homs:
        raise InputError("no matching homs in the file"
                          if args.name else "no homs in the file")
    code = 0
    for name, hom in homs.items():
        for label, ring in (("source", hom.source), ("target", hom.target)):
            if not ring.validated and not ring.validate().ok:
                raise InputError(f"{name}: the {label} ring is invalid")
        report = verify_strong_hom(hom)
        if not report.ok:
            print(f"{name}: not a strong hom")
            print(_failures(report))
            code = 2
            continue
        ker = kernel_ideal(hom)
        kind = ("isomorphism" if hom.is_injective() and hom.is_surjective()
                else "surjection" if hom.is_surjective()
                else "injection" if hom.is_injective() else "hom")
        print(f"{name}: strong {kind}, kernel {ker.members!r}")
        imap = induced_map(hom)
        for i, pulled in imap.escapes:
            print(f"  pullback misses: point {imap.domain.points[i].members!r} "
                  f"pulls back to non-primitive {pulled.members!r}")
        if imap.total:
            cont = is_continuous(imap)
            print(f"  pullback total on {imap.domain.size} point(s), "
                  f"continuous {cont}")
            if not cont:
                code = max(code, 1)
            if hom.is_surjective():
                emb = check_closed_embedding(imap)
                den = check_density(imap)
                print(f"  closed embedding {emb.ok}, image dense {den.dense}, "
                      f"kernel inside prime intersection {den.kernel_in_radical}")
                if not emb.ok or not den.agree:
                    code = max(code, 1)
    return code


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, not {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parsing keeps no
    state in it, and help text reads the terminal width only when printed."""
    top = argparse.ArgumentParser(
        prog="khr",
        description="finite Krasner hyperrings: validation, hyperideals, "
                    "primitive ideals and their topology",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate every structure in the files")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=cmd_verify)

    def ring_file_parser(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("file")
        q.add_argument("--ring", help="only this ring")
        q.add_argument("--format", choices=("text", "json"), default="text")
        return q

    p = ring_file_parser("ideals", "hyperideal lattice of each ring")
    p.set_defaults(fn=cmd_ideals)

    p = ring_file_parser("prim", "primitive hyperideals with witnesses")
    p.set_defaults(fn=cmd_prim)

    p = sub.add_parser("spectrum", help="the primitive ideal space")
    p.add_argument("file")
    p.add_argument("--ring", help="only this ring")
    style = p.add_mutually_exclusive_group()
    style.add_argument("--dot", action="store_true", help="specialization digraph as DOT")
    style.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("check", help="run the theorem suite")
    p.add_argument("files", nargs="*", help="ring files; omitted means the generated corpus")
    p.add_argument("--max-order", type=_positive_int, default=3)
    p.add_argument("--per-order-limit", type=_nonnegative_int, default=None)
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="accepted for interface stability; runs use one thread")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for interface stability; runs are deterministic")
    p.add_argument("--checks", help="comma separated check ids")
    p.add_argument("--allow-invalid", action="store_true",
                   help="report invalid rings and sweep the rest")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("gen", help="generate the corpus")
    p.add_argument("--max-order", type=_positive_int, default=3)
    p.add_argument("--per-order-limit", type=_nonnegative_int, default=None)
    p.add_argument("--out", help="directory for one .khr file per ring")
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("search", help="hunt for interesting configurations")
    p.add_argument("kind", choices=SEARCH_KINDS)
    p.add_argument("--max-order", type=_positive_int, default=3)
    p.add_argument("--per-order-limit", type=_nonnegative_int, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for interface stability; runs are deterministic")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("hom", help="verify homs and their pullbacks")
    p.add_argument("file")
    p.add_argument("--name", help="only this hom")
    p.set_defaults(fn=cmd_hom)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(str(e), file=sys.stderr)
        return 2
    except InputError as e:
        print(str(e), file=sys.stderr)
        return 2
    except (NotValidatedError, BoundExceededError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except TheoremViolationError as e:
        print(f"theorem violation: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
