"""Seeded benchmark of longshort's `run_eval` and `run_sweep`.

    python3 perfbench/run.py --workload forecast-dense --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload pyramid-sweep --seed 1 --seconds 50 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 50

Run from the root of a source checkout; the program is imported from
`src/` next to this directory, never from an installed copy.  Each run is
one process and a closed loop: one operation at a time, each starting when
the last one ended, with the default OpenBLAS thread count.  An operation is
`run_config_from_dict` plus one `run_eval` (or `run_sweep` and its CSV) on
an input drawn from `--seed`.  The loop runs whole rounds over the
workload's cases until `--seconds` have passed.

Seeds 1-10 made the baseline in `baseline.json`; seed 7919 is kept out of
it as the hold-out seed for confirming a claimed gain on unseen inputs.
Both have golden digests (`record_golden.py`), as do seeds 0-49.
`summarize.py` turns saved runs into medians and spreads, and
`python3 -m pytest perfbench/test_perfbench.py` runs the smoke size.

Every output is checked against the golden sha256 digests in `golden.json`
(for seeds without one, against the first output of the same case in this
run).  An operation fails when it raises or its digest differs.

The last stdout line is one JSON object: `correct`, `attempted`, `failed`
and `metrics`.  With `--trace 0` the metrics are the end-to-end ones below;
with `--trace 1` they are the per-layer ones from `tracing.py`, and the spans
are written to `perfbench/_out/`.  The lines before it say the same for a
reader, with sample counts and the stamp (seed, commit, versions, threads).

    frames_per_s  frames scored by the successful operations over their
                  summed wall time (frames x rows for a sweep)
    setup_s       median of `run_config_from_dict` + `build_run_data` +
                  `make_detector`, timed on each case before each operation
    peak_rss_mb   peak resident memory of this process
    ok_rate       operations that neither raised nor mismatched, over those
                  attempted: 1 - error rate (kept nonzero on purpose)
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OVERHEAD_REPEATS = 2

END_TO_END = {"frames_per_s": "frames/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_rate": "ratio"}


def import_program():
    """Import longshort from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "longshort" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src}/longshort")
    sys.path.insert(0, str(src))
    import longshort

    if Path(longshort.__file__).resolve().parent != (src / "longshort").resolve():
        sys.exit(f"perfbench: imported longshort from {longshort.__file__}, not from {src}")


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                return int(getattr(lib, sym)())
    return "unknown"


def stamp(args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "commit": _commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(), "nproc": len(os.sched_getaffinity(0)),
    }


def _digest_eval(out_dir: Path) -> str:
    h = hashlib.sha256()
    h.update((out_dir / "report.txt").read_bytes())
    h.update((out_dir / "records.jsonl").read_bytes())
    return h.hexdigest()


def run_case(case, tracer=None):
    """One operation.  Returns (seconds, digest, error); the time covers
    config parsing and the run, not reading the outputs back for the digest."""
    from longshort import config, runner

    t0 = time.perf_counter()
    try:
        with tracer.span("op") if tracer is not None else contextlib.nullcontext():
            cfg = config.run_config_from_dict(case.config)
            if case.sweep_values is None:
                runner.run_eval(cfg)
            else:
                spec = config.SweepSpec(config.SweepAxis.FUSION_VARIANT, cfg, case.sweep_values)
                rows = runner.run_sweep(spec)
                csv = runner.sweep_to_csv(spec, rows)
    except Exception as exc:  # the benchmark must go on; the failure is counted
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if case.sweep_values is None:
        return elapsed, _digest_eval(Path(case.config["output"])), None
    digest = hashlib.sha256(csv.encode()).hexdigest()
    errors = [row.error for row in rows if row.error]
    return elapsed, digest, f"sweep row failed: {errors[0]}" if errors else None


def measure_setup(case) -> float:
    """Seconds to build a ready run of the case, as `run_eval` would."""
    from longshort import config, runner

    t0 = time.perf_counter()
    cfg = config.run_config_from_dict(case.config)
    runner.make_detector(cfg, runner.build_run_data(cfg))
    return time.perf_counter() - t0


class Checker:
    """Judges each operation against the golden digests of its case."""

    def __init__(self, workload: str, size: str, seed: int):
        path = HERE / "golden.json"
        table = json.loads(path.read_text()) if path.is_file() else {}
        self.golden = table.get(size, {}).get(workload, {}).get(str(seed))
        self.first: dict[int, str] = {}
        self.mismatches = 0
        self.failures: dict[tuple[int, str], int] = {}  # (case index, error) -> count

    def judge(self, index: int, digest, error) -> bool:
        """True when the operation succeeded.  A mismatch also makes the run
        incorrect; a raise is incorrect only where the golden run succeeded."""
        expected = self.golden[index] if self.golden is not None else self.first.setdefault(index, digest)
        if error is None and isinstance(expected, str) and digest != expected:
            error = f"output digest {digest[:12]} != golden {expected[:12]}"
            self.mismatches += 1
        elif error is not None and isinstance(expected, str):
            self.mismatches += 1
        if error is not None:
            self.failures[index, error] = self.failures.get((index, error), 0) + 1
        return error is None


def run_workload(args) -> tuple[dict, list[str]]:
    import workloads

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cases = workloads.WORKLOADS[args.workload](args.seed, args.size, work)
        return _measure(args, cases)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(args, cases) -> tuple[dict, list[str]]:
    import tracing

    checker = Checker(args.workload, args.size, args.seed)
    lines = []
    setups = []
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    if args.trace:
        hooks.install()
    ops = []  # (case index, seconds, ok)
    t_start = time.perf_counter()
    try:
        while True:
            for i, case in enumerate(cases):
                if not args.trace:
                    # Spread over the run, like the operations, so that both
                    # medians see the same machine conditions.
                    setups.append(measure_setup(case))
                tracer.op = len(ops)
                elapsed, digest, error = run_case(case, tracer if args.trace else None)
                ops.append((i, elapsed, checker.judge(i, digest, error)))
            if time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        hooks.remove()
    ok = [(i, t) for i, t, good in ops if good]
    attempted, failed = len(ops), len(ops) - len(ok)
    lines.append(f"{args.workload}: {attempted} operations over {len(cases)} case(s), {failed} failed "
                 f"(error_rate {failed / attempted:.4f})")
    for (i, error), count in sorted(checker.failures.items()):
        lines.append(f"  failure x{count} on {cases[i].label}: {error[:200]}")
    if checker.golden is None:
        lines.append(f"  no golden digests for seed {args.seed}: checked run-to-run determinism only")

    if not args.trace:
        values = {
            "frames_per_s": sum(cases[i].frames for i, _ in ok) / sum(t for _, t in ok) if ok else 0.0,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_rate": len(ok) / attempted,
        }
        rates = [cases[i].frames / t for i, t in ok]
        lines.append(f"  frames_per_s: over {len(ok)} successful operations "
                     f"(per-operation median {statistics.median(rates) if rates else 0:.6g}); "
                     f"setup_s: median of {len(setups)} set-ups")
        result_metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    else:
        result_metrics = _traced_metrics(args, cases, ops, tracer, hooks, checker, lines)

    result = {
        "correct": checker.mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result_metrics.items()},
    }
    return result, lines


def _traced_metrics(args, cases, ops, tracer, hooks, checker, lines) -> dict:
    import tracing

    ok_ops = {n for n, (_, _, good) in enumerate(ops) if good}
    values, notes = tracing.layer_metrics(tracer, ok_ops)

    # Tracing overhead: untraced operations on case 0 against the traced ones.
    traced = [t for n, (i, t, good) in enumerate(ops) if good and i == 0]
    untraced = []
    for _ in range(OVERHEAD_REPEATS):
        elapsed, digest, error = run_case(cases[0])
        if checker.judge(0, digest, error):
            untraced.append(elapsed)
    if traced and untraced:
        values["trace.overhead_ms"] = (statistics.median(traced) - statistics.median(untraced)) * 1e3

    missing = set(hooks.missing)
    if cases[0].config["detector"]["kind"] == "pyramid":
        # Peak Python-visible allocation of one network step, on one more op.
        hooks.install()
        tracer.enabled = False
        tracemalloc.start()
        try:
            checker.judge(0, *run_case(cases[0])[1:])
        finally:
            tracemalloc.stop()
            hooks.remove()
        values["network.peak_alloc_mb"] = tracer.alloc_peak / 2**20
        micro, micro_missing = tracing.fusion_micro(cases[0].config)
        values.update(micro)
        missing |= micro_missing

    absent = tracing.absent_metrics(missing)
    out = {}
    for name, unit in tracing.LAYER_METRICS.items():
        if name not in absent:
            out[name] = (values.get(name, 0.0), unit)
    lines.append(f"  traced {len(ok_ops)} successful operations, {len(tracer.spans)} spans; "
                 f"overhead from {len(traced)} traced vs {len(untraced)} untraced runs of case 0")
    for name, which in notes.items():
        lines.append(f"  {name} is the {which} latency")
    if absent:
        lines.append(f"  absent (program names gone: {sorted(missing)}): {sorted(absent)}")
    unentered = sorted({n.split(".")[0] for n, (v, _) in out.items() if v == 0})
    if unentered:
        lines.append("  metrics reading 0 (layer not entered, or nothing to count, on this workload) in: "
                     + ", ".join(unentered))
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path, stamp(args))
    lines.append(f"  spans written to {spans_path.relative_to(ROOT)}")
    return out


def run_all(args) -> int:
    """Every workload in its own child process, one after another."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        out_lines = proc.stdout.strip().splitlines()
        print("\n".join(out_lines[:-1]))
        result = json.loads(out_lines[-1])
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; use one of {sorted(workloads.WORKLOADS)} or all")
    result, lines = run_workload(args)
    print("stamp: " + json.dumps(stamp(args)))
    print("\n".join(lines))
    for name, entry in result["metrics"].items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
