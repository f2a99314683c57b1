"""One fresh-process repetition of a benchmark workload.

    python3 bench/child.py --workload sweep4 --seed 3 [--trace] [--full]

Imports krasner from the tree's `src/`, builds the workload's inputs
(set-up), then times each item once, and prints one JSON line: set-up
time, per-item time and output digest, peak RSS and, with --trace, the
per-layer metrics of this process.  No item is timed after the same item
was already processed in this process.  --full adds the checks that are
only needed once per run (the suite report of sweep4, the hypergroup
counts of gen4).  bench/run.py starts these processes one at a time and
checks the digests against bench/reference/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def results_text(results) -> str:
    """Suite results of one ring, one line per check."""
    return "\n".join(f"{r.id}\t{r.status}\t{r.detail}" for r in results)


class Items:
    """Times items and records (id, seconds, digest, ok, note, probe) for
    each, where probe is the machine speed probe taken just before it."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.rows = []

    def run(self, item_id: str, fn, describe):
        """describe(result) -> (digest, ok, note)."""
        if self.tracer is not None:
            self.tracer.item = len(self.rows)
        speed = calibrate.probe()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # an item that raises is a failed item
            elapsed = time.perf_counter() - start
            self.rows.append([item_id, elapsed, "", False, f"raised {e!r}", speed])
            return
        elapsed = time.perf_counter() - start
        try:
            d, ok, note = describe(result)
        except Exception as e:  # output that cannot be read back fails too
            d, ok, note = "", False, f"unreadable output: {e!r}"
        self.rows.append([item_id, elapsed, d, ok, note, speed])


# Each workload is a generator: set-up ends where it first yields, the
# items run after that.  It leaves the ring count in extra["rings"].


def run_gen4(args, items, extra):
    corpus = sys.modules["krasner.corpus"]

    def describe(entries):
        per_order = [sum(1 for e in entries if e.ring.order == n) for n in range(1, 5)]
        fp = corpus.corpus_fingerprint(entries, 4)
        extra["rings"] = len(entries)
        extra["rings_per_order"] = per_order
        extra["fingerprint"] = fp
        return digest(f"{per_order} {fp}"), True, ""

    yield
    items.run("generate_corpus(4)", lambda: corpus.generate_corpus(4), describe)
    if args.full:
        extra["hypergroups_per_order"] = [len(corpus.enumerate_hypergroups(n))
                                          for n in range(1, 5)]


def run_sweep4(args, items, extra):
    corpus = sys.modules["krasner.corpus"]
    suite = sys.modules["krasner.suite"]
    entries = corpus.generate_corpus(4)
    extra["rings"] = len(entries)
    yield
    for e in entries:
        items.run(e.name, lambda: suite.run_ring_checks(e.ring),
                  lambda res: (digest(results_text(res)), True, ""))
    if args.full:
        report = suite.run_theorem_suite(entries=entries, max_order=4)
        body = json.loads(report.to_json())
        body.pop("generated_at")
        extra["summary"] = body["summary"]
        extra["report_digest"] = digest(json.dumps(body, sort_keys=True))
        extra["report_rows"] = {row.name: digest(results_text(row.results))
                                for row in report.rows}


def files12_commands(base: str) -> list:
    """(label, argv) of the six invocations on one product."""
    ring, homs = f"{base}.khr", f"{base}_homs.khr"
    return [
        ("verify", ["verify", homs]),
        ("ideals", ["ideals", "--format", "json", ring]),
        ("prim", ["prim", "--format", "json", ring]),
        ("spectrum", ["spectrum", "--json", ring]),
        ("hom", ["hom", homs]),
        ("check", ["check", ring, "--format", "json"]),
    ]


def describe_cli(label: str, code: int, out: str, err: str) -> tuple:
    """Digest of stdout and exit code, and the checks that hold for any
    seed: everything exits 0, verify passes all five structures and the
    suite reports no failure."""
    ok = code == 0
    note = "" if ok else f"exit {code}: {err.strip()[:200]}"
    if label == "check" and code in (0, 1):
        body = json.loads(out)
        body.pop("generated_at")
        out = json.dumps(body, sort_keys=True)
        if body["summary"]["fail"]:
            ok = False
            note = f"suite fail {body['summary']}"
    if label == "verify":
        lines = out.splitlines()
        if len(lines) != 5 or not all(line.endswith(": ok") for line in lines):
            ok = False
            note = note or "verify did not pass every structure"
    return digest(f"{out}\nexit {code}"), ok, note


def run_files12(args, items, extra):
    sys.path.insert(0, HERE)
    import products

    corpus = sys.modules["krasner.corpus"]
    cli = sys.modules["krasner.cli"]
    work = os.path.join(HERE, ".work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    names = products.write_inputs(args.seed, corpus.generate_corpus(4), work)
    home = os.getcwd()
    os.chdir(work)
    extra["rings"] = len(names)
    try:
        yield
        for base in names:
            for label, argv in files12_commands(base):
                def invoke(argv=argv):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        try:
                            code = cli.main(argv)
                        except SystemExit as e:  # argparse rejecting argv
                            code = e.code
                    return code, out.getvalue(), err.getvalue()

                items.run(f"{base} {label}", invoke,
                          lambda res, label=label: describe_cli(label, *res))
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)


WORKLOADS = {"gen4": run_gen4, "sweep4": run_sweep4, "files12": run_files12}


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark repetition")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--full", action="store_true")
    parser.add_argument("--spans", help="write the spans here (gzip JSON)")
    args = parser.parse_args()

    first_probe = calibrate.probe()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import krasner
    import krasner.cli  # noqa: F401  (every layer loaded before timing)

    if not os.path.abspath(krasner.__file__).startswith(SRC + os.sep):
        print(f"krasner imported from {krasner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    items = Items(tracer)
    extra = {}
    steps = WORKLOADS[args.workload](args, items, extra)
    next(steps)  # set-up ends where the workload first yields
    setup_s = time.perf_counter() - start
    for _ in steps:
        pass
    result = {
        "setup_s": setup_s,
        "probes": [first_probe, calibrate.probe()],  # around set-up, and at the end
        "items": items.rows,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "extra": extra,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["missing"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed,
                                     "items": [row[0] for row in items.rows]})
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
