"""Median, quartiles and spread of saved benchmark runs, per workload and metric.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload pyramid-sweep --seed $s --seconds 50 --trace 0 > runs/ps-$s.txt
    done
    python3 perfbench/summarize.py runs/*.txt [--baseline perfbench/baseline.json]

Each file is the standard output of one run.  The spread is the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`)
as a share of the median; it is compared with the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HOLDOUT_SEED = 7919  # never part of a baseline; see run.py


def load(paths) -> dict:
    """{(workload, traced): {"runs": [...], "metrics": {name: [values]}}}"""
    out: dict = {}
    for path in paths:
        lines = Path(path).read_text().strip().splitlines()
        stamp = json.loads(next(line for line in lines if line.startswith("stamp: "))[len("stamp: "):])
        result = json.loads(lines[-1])
        entry = out.setdefault((stamp["workload"], bool(stamp["trace"])), {"runs": [], "metrics": {}})
        entry["runs"].append({"stamp": stamp, "correct": result["correct"],
                              "attempted": result["attempted"], "failed": result["failed"]})
        for name, m in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(m["value"])
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+")
    parser.add_argument("--baseline", help="write the summary here as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary = {}
    for (workload, traced), entry in sorted(load(args.files).items()):
        runs = entry["runs"]
        seeds = sorted(r["stamp"]["seed"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload}{' (traced)' if traced else ''}: {len(runs)} runs, seeds {seeds}, "
              f"all correct: {all(r['correct'] for r in runs)}, error_rate {failed}/{attempted}")
        rows = {}
        for name, values in entry["metrics"].items():
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound} ({'ok' if spread <= bound / 3 else 'over a third'})"
            print(f"  {name:40s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}{flag}")
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
        summary.setdefault(workload, {})["per_layer" if traced else "end_to_end"] = {
            "seeds": seeds, "error_rate": failed / attempted, "metrics": rows,
            "stamp": {k: v for k, v in runs[0]["stamp"].items() if k != "seed"},
        }
    if args.baseline:
        if any(HOLDOUT_SEED in part["seeds"] for entry in summary.values() for part in entry.values()):
            parser.error(f"seed {HOLDOUT_SEED} is the hold-out seed and stays out of the baseline")
        path = Path(args.baseline)
        table = json.loads(path.read_text()) if path.is_file() else {"holdout_seed": HOLDOUT_SEED}
        for workload, parts in summary.items():
            table.setdefault(workload, {}).update(parts)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
