"""Record the golden output digests that `run.py` checks every operation against.

    python3 perfbench/record_golden.py --size full --workload forecast-dense --seeds 0-49 7919

Runs each case of each named seed once and stores, per case, the sha256
digest of its output, or what it raised.  Re-record only when a change is
meant to alter the program's outputs or the workload inputs, and say so in
that change.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import shutil

import run


def parse_seeds(items: list[str]) -> list[int]:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--size", choices=("full", "smoke"), required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges such as 0-49")
    args = parser.parse_args()

    run.import_program()
    import workloads

    path = run.HERE / "golden.json"
    work = run.HERE / "_work" / f"golden-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in args.workload:
            for seed in parse_seeds(args.seeds):
                entries = []
                for case in workloads.WORKLOADS[name](seed, args.size, work):
                    _, digest, error = run.run_case(case)
                    entries.append(digest if error is None else {"raised": error[:200]})
                # Locked read-modify-write, so recorders for different
                # workloads can run side by side.
                with open(work.parent / "golden.lock", "w") as lock:
                    fcntl.flock(lock, fcntl.LOCK_EX)
                    table = json.loads(path.read_text()) if path.is_file() else {}
                    table.setdefault(args.size, {}).setdefault(name, {})[str(seed)] = entries
                    tmp = path.with_suffix(f".{os.getpid()}.tmp")
                    tmp.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                    os.replace(tmp, path)
                print(name, seed, [e if isinstance(e, str) else e["raised"][:60] for e in entries], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
