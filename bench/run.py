"""The krasner benchmark: one command per workload, every metric by name.

    python3 bench/run.py --workload sweep4 --seed 1 --seconds 40 --trace 0

Workloads (see bench/README.md for why each was chosen):

    gen4     cold generate_corpus(4), 163 rings; one item per process
    sweep4   the 32 suite checks on each of the 163 order <= 4 rings
    files12  khr verify/ideals/prim/spectrum/hom/check on 12 direct
             products of order 6-12, written as .khr files named by the seed

Each repetition is a fresh child process (bench/child.py), started one at
a time, that times every item once next to a machine speed probe
(bench/calibrate.py).  Repetitions continue until the next one would end
after --seconds.  An item's time is the median over the repetitions of
its probe-scaled time.  With --trace 0 the result holds the end-to-end
metrics; with --trace 1 it alternates untraced and traced processes and
holds the per-layer metrics (bench/tracing.py) plus the tracing
overhead.  Every item's output is checked against bench/reference/ and
against every other repetition, and the last line of stdout is one JSON
object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit codes: 0 with a result, 2 when no result can be made (for example
when src/krasner is absent).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("gen4", "sweep4", "files12")

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("rings_per_s", "1/s", "higher"),
    ("item_p50_ms", "ms", "lower"),
    ("item_tail_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# The speed swings on a scale of 0.1 s, so a long item is scaled by the
# probes of its neighbours too, not only by the two at its ends.
PROBE_SPAN = 4
MIN_REPS = 2           # repetitions in a run, at least one of each kind with --trace 1
CHILD_TIMEOUT_S = 150  # a run must end within 180 s


class ChildFailed(Exception):
    pass


def run_child(workload: str, seed: int, trace: bool, full: bool, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        out_dir = os.path.join(HERE, ".out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(out_dir, f"spans-{workload}-seed{seed}.json.gz")]
    if full:
        cmd.append("--full")
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} child timed out after {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} child exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.perf_counter() - start
    result["traced"] = trace
    return result


def predicted(children: list, traced: bool) -> float:
    """Duration of the next repetition: the last one of the same kind."""
    same = [c["elapsed_s"] for c in children if c["traced"] == traced]
    return same[-1] if same else children[-1]["elapsed_s"]


def load_reference(workload: str) -> dict:
    path = os.path.join(HERE, "reference", f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def expected_digests(workload: str, seed: int, ref: dict) -> dict:
    """Item id -> recorded output digest, where one was recorded."""
    if workload == "files12":
        return ref["seeds"].get(str(seed), {}).get("items", {})
    return ref["items"]


def check_outputs(workload: str, seed: int, children: list, ref: dict) -> tuple:
    """(attempted, failed, problems) over every item of every child."""
    expected = dict(expected_digests(workload, seed, ref))
    problems = []
    attempted = failed = 0
    ids = [row[0] for row in children[0]["items"]]
    for child in children:
        if [row[0] for row in child["items"]] != ids:
            problems.append("repetitions processed different items")
        for item_id, _, dig, ok, note, _ in child["items"]:
            attempted += 1
            want = expected.setdefault(item_id, dig)
            if not ok or dig != want:
                failed += 1
                tag = "traced " if child["traced"] else ""
                problems.append(f"{tag}item {item_id}: "
                                + (note or f"output digest {dig} != {want}"))
    rings = children[0]["extra"].get("rings")
    if rings != ref["rings"]:
        problems.append(f"ring count {rings} != {ref['rings']}")
    for child in children:
        extra = child["extra"]
        for key in ("rings_per_order", "fingerprint", "hypergroups_per_order",
                    "summary", "report_digest"):
            if key in extra and extra[key] != ref[key]:
                problems.append(f"{key} {extra[key]} != reference {ref[key]}")
        rows = extra.get("report_rows")
        if rows is not None:
            item_digests = {row[0]: row[2] for row in child["items"]}
            if rows != item_digests:
                problems.append("suite report rows differ from the per-ring results")
    return attempted, failed, problems


def scaled_times(child: dict) -> dict:
    """Item id -> time in seconds at the reference machine speed: the raw
    time times REFERENCE_S over the mean of the nearest probes, up to
    PROBE_SPAN on each side.  Probe i is taken just before item i."""
    rows = child["items"]
    probes = [row[5] for row in rows] + [child["probes"][1]]
    return {row[0]: row[1] * calibrate.REFERENCE_S
            / statistics.fmean(probes[max(0, i + 1 - PROBE_SPAN):i + 1 + PROBE_SPAN])
            for i, row in enumerate(rows)}


def scaled_setup(child: dict) -> float:
    probes = child["probes"][0] + child["items"][0][5]
    return child["setup_s"] * 2 * calibrate.REFERENCE_S / probes


def item_times(children: list, scaled: bool = True) -> dict:
    """Item id -> median time over the given repetitions, scaled to the
    reference speed unless scaled is False."""
    times = {}
    for child in children:
        rows = scaled_times(child) if scaled else {row[0]: row[1] for row in child["items"]}
        for item_id, seconds in rows.items():
            times.setdefault(item_id, []).append(seconds)
    return {item_id: statistics.median(v) for item_id, v in times.items()}


def tail(values: list) -> tuple:
    """(value, percentile): the highest percentile with at least 10 items
    beyond it; with 10 or fewer items, the largest."""
    ordered = sorted(values)
    k = len(ordered)
    if k <= 10:
        return ordered[-1], 100.0
    return ordered[k - 11], 100.0 * (k - 10) / k


def end_to_end(children: list, rings: int) -> tuple:
    """(metrics, notes) of the untraced repetitions, for the stated ring
    count."""
    per_item = [v * 1000.0 for v in item_times(children).values()]
    wall = sum(per_item) / 1000.0
    tail_ms, pct = tail(per_item)
    metrics = {
        "wall_s": wall,
        "rings_per_s": rings / wall,
        "item_p50_ms": statistics.median(per_item),
        "item_tail_ms": tail_ms,
        "setup_s": statistics.median(scaled_setup(c) for c in children),
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0,
    }
    notes = {"items": len(per_item), "repetitions": len(children),
             "tail_percentile": round(pct, 1), "rings": rings,
             "unscaled_wall_s": sum(item_times(children, scaled=False).values()),
             "probe_ms": 1000 * statistics.median(row[5] for c in children
                                                  for row in c["items"])}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="krasner benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "krasner", "__init__.py")):
        print("bench: src/krasner not found next to bench/; nothing to measure",
              file=sys.stderr)
        return 2
    ref = load_reference(args.workload)
    start = time.perf_counter()
    children = []
    crashed = None
    def traced(i):
        # --trace 1 alternates untraced and traced processes, starting untraced
        return bool(args.trace) and i % 2 == 1

    while True:
        remaining = 175.0 - (time.perf_counter() - start)
        try:
            children.append(run_child(args.workload, args.seed, traced(len(children)),
                                      full=not children,
                                      timeout=min(CHILD_TIMEOUT_S, remaining)))
        except ChildFailed as e:
            print(f"bench: {e}", file=sys.stderr)
            crashed = str(e)
            break
        elapsed = time.perf_counter() - start
        nxt = predicted(children, traced(len(children)))
        if len(children) >= MIN_REPS and elapsed + nxt > args.seconds:
            break
    if not children or (args.trace and len(children) < 2):
        return 2

    attempted, failed, problems = check_outputs(args.workload, args.seed, children, ref)
    if crashed:
        # the lost repetition counts as one more attempt at every item
        attempted += len(children[0]["items"])
        failed += len(children[0]["items"])
        problems.append(f"a repetition crashed: {crashed[:300]}")

    untraced = [c for c in children if not c["traced"]]
    metrics, notes = end_to_end(untraced, ref["rings"])
    print(f"workload {args.workload} seed {args.seed}: {notes['repetitions']} untraced "
          f"repetition(s), {notes['items']} items, {notes['rings']} rings, "
          f"{time.perf_counter() - start:.1f} s")
    if args.trace:
        traced_runs = [c for c in children if c["traced"]]
        layers, unsteady = tracing.combine([c["layers"] for c in traced_runs])
        layers["trace.overhead_ratio"] = (sum(item_times(traced_runs).values())
                                          / metrics["wall_s"])
        problems += [f"count {name} differs between traced processes" for name in unsteady]
        missing = sorted({m for c in traced_runs for m in c["missing"]})
        if missing:
            print(f"  not found in this tree (reported as null): {', '.join(missing)}")
        counted = ref.get("counts") if args.workload != "files12" else \
            ref["seeds"].get(str(args.seed), {}).get("counts")
        report = {}
        for name, unit, _, kind in tracing.PER_LAYER:
            value = layers.get(name)
            report[name] = {"value": value, "unit": unit}
            shown = "null" if value is None else f"{value:.6g}"
            line = f"  {name:<52} {shown:>12} {unit:<5} {kind}"
            if counted and name in counted and counted[name] != value:
                line += f"  (recorded {counted[name]})"
            print(line)
    else:
        report = {}
        for name, unit, _ in END_TO_END:
            report[name] = {"value": metrics[name], "unit": unit}
            print(f"  {name:<14} {metrics[name]:>14.6g} {unit}")
        print(f"  {'error_rate':<14} {failed / attempted:>14.6g} "
              f"({failed} failed of {attempted} attempted)")
        print(f"  item_tail_ms is p{notes['tail_percentile']:g} of {notes['items']} item(s)")
        print(f"  unscaled wall_s {notes['unscaled_wall_s']:.6g} s at a median probe of "
              f"{notes['probe_ms']:.4g} ms (times are scaled to "
              f"{1000 * calibrate.REFERENCE_S:g} ms)")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
