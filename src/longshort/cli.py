"""Command-line entry points.

    longshort eval --config run.json [--seed N] [--latency-ms X] ...
    longshort sweep --config run.json --axis temporal-range [--output t5.csv]
    longshort gen-scene --scene uniform --output annotations.json
    longshort export-report --report out/report.txt --format table

The default output directory comes from $LONGSHORT_OUT_DIR (falling back to
./runs) whenever a command writes files and no --output is given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import (
    DETECTOR_KEYS,
    DETECTOR_KINDS,
    OUTPUT_DIR_ENV,
    RunConfig,
    SweepAxis,
    SweepSpec,
    load_run_config,
    parse_scene_name,
)
from .coco_io import export_scenario
from .fusion import FusionVariant
from .metrics import report_to_csv, report_to_human_table, report_from_text
from .runner import run_eval, run_sweep, sweep_to_csv
from .scenarios import bundled_scene_names, generate_scenario, scene_from_dict
from .streaming import ConstantLatency, DispatchPolicy


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


def _given(**values) -> dict:
    return {key: value for key, value in values.items() if value is not None}


def _with_eval_flags(cfg: RunConfig, args) -> RunConfig:
    """Each given flag replaces its field of the parsed config (--latency-ms
    replaces either latency form).  A fusion flag also sets the detector key
    of the same name when the detector's kind takes it."""
    kind = args.detector or cfg.detector_kind
    fusion = _given(variant=args.variant and FusionVariant(args.variant), n_history=args.n_history,
                    delta_t=args.delta_t, ratio=args.ratio, residual=False if args.no_residual else None)
    changes = _given(seed=args.seed, frame_interval_ms=args.frame_interval_ms, output=args.output,
                     latency_model=None if args.latency_ms is None else ConstantLatency(args.latency_ms),
                     dispatch_policy=args.dispatch and DispatchPolicy(args.dispatch))
    if args.scene_name is not None:
        changes.update(scene=parse_scene_name(args.scene_name), dataset_path=None)
    params = {**cfg.detector_params, **{k: v for k, v in fusion.items() if k in DETECTOR_KEYS[kind]}}
    return dataclasses.replace(cfg, **changes, detector_kind=kind, detector_params=params,
                               fusion=dataclasses.replace(cfg.fusion, **fusion))


def _cmd_eval(args) -> int:
    cfg = _with_eval_flags(load_run_config(args.config), args)
    if cfg.output is None:
        out = _default_out_dir() / Path(args.config).stem
        cfg = dataclasses.replace(cfg, output=str(out))
    report = run_eval(cfg)
    print(report_to_human_table(report), end="")
    print(f"report written to {cfg.output}")
    return 0


def _cmd_sweep(args) -> int:
    base = load_run_config(args.config)
    if args.seed is not None:
        base = dataclasses.replace(base, seed=args.seed)
    values = None if args.values is None else json.loads(args.values)
    spec = SweepSpec(axis=SweepAxis(args.axis), base=base, values=values)
    rows = run_sweep(spec)
    csv_text = sweep_to_csv(spec, rows)
    out = Path(args.output) if args.output else _default_out_dir() / f"sweep_{args.axis}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text)
    print(csv_text, end="")
    print(f"sweep written to {out}")
    return 0


def _cmd_gen_scene(args) -> int:
    if args.scene not in bundled_scene_names() and Path(args.scene).is_file():
        scene = scene_from_dict(json.loads(Path(args.scene).read_text()))
    else:  # a bundled name; anything else is refused, listing them
        scene = parse_scene_name(args.scene)
    if args.seed is not None:
        scene = dataclasses.replace(scene, seed=args.seed)
    scenario = generate_scenario(scene)
    out = Path(args.output) if args.output else _default_out_dir() / "scene_annotations.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    export_scenario(scenario, scene, out)
    n_boxes = sum(len(g) for _, g in scenario)
    print(f"wrote {len(scenario)} frames / {n_boxes} boxes to {out}")
    return 0


def _cmd_export_report(args) -> int:
    report = report_from_text(Path(args.report).read_text())
    text = report_to_csv(report) if args.format == "csv" else report_to_human_table(report)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longshort", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run one configuration and report streaming AP")
    p_eval.add_argument("--config", required=True, help="run config JSON")
    p_eval.add_argument("--output", help="output directory")
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--scene-name", help="bundled scene overriding the config's data source")
    p_eval.add_argument("--latency-ms", type=float)
    p_eval.add_argument("--frame-interval-ms", type=float)
    p_eval.add_argument("--dispatch", choices=[p.value for p in DispatchPolicy])
    p_eval.add_argument("--detector", choices=DETECTOR_KINDS)
    p_eval.add_argument("--variant", choices=[v.value for v in FusionVariant])
    p_eval.add_argument("--n-history", type=int)
    p_eval.add_argument("--delta-t", type=int)
    p_eval.add_argument("--ratio", type=float)
    p_eval.add_argument("--no-residual", action="store_true")
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run an ablation sweep and emit a CSV table")
    p_sweep.add_argument("--config", required=True, help="base run config JSON")
    p_sweep.add_argument("--axis", required=True, choices=[a.value for a in SweepAxis])
    p_sweep.add_argument("--values", help="JSON list overriding the default value grid")
    p_sweep.add_argument("--output", help="CSV path")
    p_sweep.add_argument("--seed", type=int)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen-scene", help="generate a synthetic scene as COCO annotations")
    p_gen.add_argument("--scene", required=True, help=f"bundled name {bundled_scene_names()} or a scene JSON path")
    p_gen.add_argument("--output", help="annotation JSON path")
    p_gen.add_argument("--seed", type=int)
    p_gen.set_defaults(func=_cmd_gen_scene)

    p_exp = sub.add_parser("export-report", help="re-render a stored report")
    p_exp.add_argument("--report", required=True, help="report.txt produced by eval")
    p_exp.add_argument("--format", choices=["csv", "table"], default="table")
    p_exp.add_argument("--output")
    p_exp.set_defaults(func=_cmd_export_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
