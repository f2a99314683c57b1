"""Record the reference outputs and work counts in bench/reference/.

    python3 bench/record.py gen4 sweep4
    python3 bench/record.py files12 --seeds 0-19

For each workload (and each files12 seed) this runs one untraced and one
traced repetition, requires their outputs to agree, and writes the item
digests, the workload's summary values and the exact work counts.
Record only from a tree whose answers are trusted: run.py treats these
digests as the correct outputs.  A files12 seed whose items fail the
seed-independent checks (a suite `fail`, a non-zero exit) is recorded as
it stands and listed under "findings".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402


def one_seed(workload: str, seed: int) -> dict:
    plain = run.run_child(workload, seed, trace=False, full=True, timeout=170)
    traced = run.run_child(workload, seed, trace=True, full=False, timeout=170)
    digests = {row[0]: row[2] for row in plain["items"]}
    if digests != {row[0]: row[2] for row in traced["items"]}:
        raise SystemExit(f"{workload} seed {seed}: traced outputs differ from untraced")
    out = {
        "items": digests,
        "counts": {name: traced["layers"][name] for name in tracing.EXACT_COUNTS},
    }
    bad = {row[0]: row[4] for row in plain["items"] if not row[3]}
    if bad:
        out["findings"] = bad
    return out, plain["extra"]


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description="record bench/reference/")
    parser.add_argument("workloads", nargs="+", choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="0-19", help="files12 seeds, as A-B")
    args = parser.parse_args()
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in args.workloads:
        if workload == "files12":
            ref = {"rings": 0, "seeds": {}}
            for seed in parse_seeds(args.seeds):
                ref["seeds"][str(seed)], extra = one_seed(workload, seed)
                ref["rings"] = extra["rings"]
                print(f"files12 seed {seed}: {len(ref['seeds'][str(seed)]['items'])} items",
                      file=sys.stderr)
        else:
            ref, extra = one_seed(workload, 0)
            ref.update({k: v for k, v in extra.items() if k != "report_rows"})
        path = os.path.join(HERE, "reference", f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
