"""End-to-end runs: data -> streaming simulation -> pairing -> report.

run_eval executes one configuration; run_sweep executes one configuration
per value along an ablation axis and renders a CSV table with one row per
configuration, continuing past per-run failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .boxes import GroundTruthBox
from .coco_io import load_coco_annotations
from .config import (
    RunConfig,
    SweepSpec,
    apply_sweep_value,
    sweep_key_cells,
    sweep_key_columns,
)
from .detectors import DelayedGtDetector, ForecastDetector
from .fusion import InvalidConfig
from .metrics import (
    SapReport,
    compute_sap_report,
    report_csv_header,
    report_to_csv_row,
    report_to_human_table,
    report_to_text,
)
from .network import BlobHead, BoxFilterExtractor, DualPathNetwork, Frame
from .scenarios import frames_of, generate_scenario, gts_by_frame
from .streaming import StreamConfig, pair_for_eval, simulate_stream, write_records


@dataclass(frozen=True)
class RunData:
    frames: tuple[Frame, ...]
    gts: tuple[tuple[GroundTruthBox, ...], ...]
    frame_interval_ms: float


def build_run_data(cfg: RunConfig) -> RunData:
    """Materialize the configured data source as frames plus ground truth."""
    if cfg.scene is not None:
        scenario = generate_scenario(cfg.scene)
        interval = cfg.frame_interval_ms if cfg.frame_interval_ms is not None else cfg.scene.frame_interval_ms
        frames = frames_of(scenario)
        if interval != cfg.scene.frame_interval_ms:
            frames = [Frame(f.index, f.index * interval, f.pixels) for f in frames]
        gts = gts_by_frame(scenario)
    else:
        ds = load_coco_annotations(cfg.dataset_path)
        interval = cfg.frame_interval_ms or ds.frame_interval_ms or 33.33
        frames = [Frame(k, k * interval, None) for k in range(len(ds.images))]
        gts = [list(g) for g in ds.gts_by_frame]
    horizon = cfg.horizon_frames if cfg.horizon_frames is not None else len(frames)
    if horizon > len(frames):
        raise InvalidConfig(f"horizon {horizon} exceeds the {len(frames)} available frames")
    return RunData(tuple(frames[:horizon]), tuple(tuple(g) for g in gts[:horizon]), interval)


def _forecast_steps(cfg: RunConfig, interval: float) -> int:
    """The explicit forecast_steps, else the constant latency in frames
    (RunConfig rejects per-frame latency without forecast_steps)."""
    explicit = cfg.detector_params.get("forecast_steps")
    if explicit is not None:
        return int(explicit)
    return int(math.ceil(cfg.latency_model.ms / interval))


def make_detector(cfg: RunConfig, data: RunData) -> Callable[[int], list]:
    params = cfg.detector_params
    if cfg.detector_kind == "delayed-gt":
        return DelayedGtDetector(data.gts, latency_frames=int(params.get("latency_frames", 0)))
    if cfg.detector_kind == "hold":
        return ForecastDetector(data.gts, n_history=0, delta_t=1, forecast_steps=0)
    if cfg.detector_kind in ("const-velocity", "long-short"):
        n = 1 if cfg.detector_kind == "const-velocity" else int(params.get("n_history", 3))
        return ForecastDetector(
            data.gts,
            n_history=n,
            delta_t=int(params.get("delta_t", 1)),
            forecast_steps=_forecast_steps(cfg, data.frame_interval_ms),
        )
    # pyramid: the dual-path network steps over the frames the simulator
    # dispatches (frames it skips never reach the buffer)
    extractor = BoxFilterExtractor(model_size=params.get("model_size", "S"), seed=cfg.seed)
    head = BlobHead(threshold=float(params.get("threshold", 0.3)), category=int(params.get("category", 0)))
    network = DualPathNetwork(
        extractor=extractor,
        head=head,
        fusion=cfg.fusion,
        weight_seed=int(params.get("weight_seed", 0)),
    )
    return lambda k: network.step(data.frames[k])


def run_eval(cfg: RunConfig, write: bool = True) -> SapReport:
    """Simulate the stream for one configuration and score it."""
    data = build_run_data(cfg)
    stream_cfg = StreamConfig(
        horizon_frames=len(data.frames),
        latency_model=cfg.latency_model,
        frame_interval_ms=data.frame_interval_ms,
        dispatch_policy=cfg.dispatch_policy,
    )
    records = simulate_stream(stream_cfg, make_detector(cfg, data))
    pairings = pair_for_eval(records, data.frames)
    report = compute_sap_report(pairings, data.gts, max_dets_per_frame=cfg.max_dets_per_frame)
    if write and cfg.output is not None:
        out = Path(cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report_to_text(report))
        (out / "report.csv").write_text(report_csv_header() + "\n" + report_to_csv_row(report) + "\n")
        (out / "report_table.txt").write_text(report_to_human_table(report))
        with (out / "records.jsonl").open("w") as fp:
            write_records(records, fp)
    return report


@dataclass(frozen=True)
class SweepRow:
    value: object
    report: Optional[SapReport]
    error: Optional[str]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One run per sweep value, in spec order; failures land in the row."""
    rows = []
    for value in spec.values:
        try:
            report = run_eval(apply_sweep_value(spec, value), write=False)
            rows.append(SweepRow(value=value, report=report, error=None))
        except Exception as exc:  # keep sweeping; the row records the failure
            rows.append(SweepRow(value=value, report=None, error=f"{type(exc).__name__}: {exc}"))
    return rows


def sweep_to_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    header = sweep_key_columns(spec.axis) + list(report_csv_header().split(",")) + ["error"]
    lines = [",".join(header)]
    for row in rows:
        cells = sweep_key_cells(spec.axis, row.value)
        if row.report is not None:
            cells += report_to_csv_row(row.report).split(",")
            cells += [""]
        else:
            cells += [""] * 6
            cells += [row.error.replace(",", ";").replace("\n", " ")]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
