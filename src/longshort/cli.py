"""Command-line entry points.

    longshort eval --config run.json [--seed N] [--latency-ms X] ...
    longshort sweep --config run.json --axis temporal-range [--output t5.csv]
    longshort gen-scene --scene uniform --output annotations.json
    longshort score --config run.json --records runs/run/records.jsonl [--output DIR]

The default output directory comes from $LONGSHORT_OUT_DIR (falling back to
./runs) whenever a command writes files and no --output is given.
"""

from __future__ import annotations

import argparse
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
    run_config_from_dict,
)
from .coco_io import export_scenario, parse_json
from .fusion import FusionVariant, InvalidConfig
from .metrics import report_to_human_table
from .runner import run_eval, run_score, run_sweep, sweep_to_csv
from .scenarios import bundled_scene_names, generate_scenario, scene_from_dict
from .streaming import DispatchPolicy


def _default_out_dir() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "runs"))


def number(text: str):
    """A count flag's value: an int when `text` is one (a large seed stays
    exact), else a float, which the config key's parser takes or refuses."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _with_eval_flags(cfg: RunConfig, args) -> RunConfig:
    """The parsed config with each flag given as the config key of its name
    (--detector the detector's kind; an unset flag is null, not given).  A
    fusion flag also sets the detector key of the same name when the
    detector's kind takes it."""
    fusion = {key: getattr(args, key) for key in ("variant", "n_history", "delta_t", "ratio", "residual")}
    kind_keys = DETECTOR_KEYS[args.detector or cfg.detector_kind]
    return run_config_from_dict({
        "seed": args.seed, "scene_name": args.scene_name, "output": args.output,
        "stream": {key: getattr(args, key) for key in ("latency_ms", "frame_interval_ms", "dispatch")},
        "fusion": fusion,
        "detector": {"kind": args.detector, **{key: v for key, v in fusion.items() if key in kind_keys}},
    }, cfg)


def _cmd_eval(args) -> int:
    cfg = _with_eval_flags(load_run_config(args.config), args)
    if cfg.output is None:
        cfg = run_config_from_dict({"output": str(_default_out_dir() / Path(args.config).stem)}, cfg)
    report = run_eval(cfg)
    print(report_to_human_table(report), end="")
    print(f"report written to {cfg.output}")
    return 0


def _cmd_sweep(args) -> int:
    base = run_config_from_dict({"seed": args.seed}, load_run_config(args.config))
    values = None if args.values is None else parse_json(args.values, "sweep values", InvalidConfig)
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
        scene = scene_from_dict(parse_json(Path(args.scene).read_text(), args.scene, InvalidConfig))
    else:  # a bundled name, the config key scene_name; anything else is refused, listing them
        scene = run_config_from_dict({"scene_name": args.scene}).scene
    scenario = generate_scenario(scene)
    out = Path(args.output) if args.output else _default_out_dir() / "scene_annotations.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    export_scenario(scenario, scene, out)
    n_boxes = sum(len(g) for _, g in scenario)
    print(f"wrote {len(scenario)} frames / {n_boxes} boxes to {out}")
    return 0


def _cmd_score(args) -> int:
    out = Path(args.output) if args.output else _default_out_dir() / f"{Path(args.config).stem}-score"
    report = run_score(load_run_config(args.config), args.records, out)
    print(report_to_human_table(report), end="")
    print(f"report written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="longshort", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="run one configuration and report streaming AP")
    p_eval.add_argument("--config", required=True, help="run config JSON")
    p_eval.add_argument("--output", help="output directory")
    p_eval.add_argument("--seed", type=number)
    p_eval.add_argument("--scene-name", help="bundled scene overriding the config's data source")
    p_eval.add_argument("--latency-ms", type=float)
    p_eval.add_argument("--frame-interval-ms", type=float)
    p_eval.add_argument("--dispatch", choices=[p.value for p in DispatchPolicy])
    p_eval.add_argument("--detector", choices=DETECTOR_KINDS)
    p_eval.add_argument("--variant", choices=[v.value for v in FusionVariant])
    p_eval.add_argument("--n-history", type=number)
    p_eval.add_argument("--delta-t", type=number)
    p_eval.add_argument("--ratio", type=float)
    p_eval.add_argument("--no-residual", dest="residual", action="store_false", default=None)
    p_eval.set_defaults(func=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run an ablation sweep and emit a CSV table")
    p_sweep.add_argument("--config", required=True, help="base run config JSON")
    p_sweep.add_argument("--axis", required=True, choices=[a.value for a in SweepAxis])
    p_sweep.add_argument("--values", help="JSON list overriding the default value grid")
    p_sweep.add_argument("--output", help="CSV path")
    p_sweep.add_argument("--seed", type=number)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("gen-scene", help="generate a synthetic scene as COCO annotations")
    p_gen.add_argument("--scene", required=True, help=f"bundled name {bundled_scene_names()} or a scene JSON path")
    p_gen.add_argument("--output", help="annotation JSON path")
    p_gen.set_defaults(func=_cmd_gen_scene)

    p_score = sub.add_parser("score", help="score a records log on its config's run data")
    p_score.add_argument("--config", required=True, help="run config JSON of the run")
    p_score.add_argument("--records", required=True, help="records.jsonl written by eval")
    p_score.add_argument("--output", help="output directory")
    p_score.set_defaults(func=_cmd_score)
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
