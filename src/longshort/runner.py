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

from .boxes import DetectionTable, GroundTruthTable
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
from .scenarios import generate_scenario
from .streaming import PredictionRecord, StreamConfig, pair_for_eval, simulate_stream, write_records


@dataclass(frozen=True)
class RunData:
    frames: tuple[Frame, ...]
    gts: tuple[GroundTruthTable, ...]  # one table per frame
    frame_interval_ms: float


def build_run_data(cfg: RunConfig) -> RunData:
    """Materialize the configured data source as frames plus ground truth."""
    if cfg.scene is not None:
        frames, gts = zip(*generate_scenario(cfg.scene))
        interval = cfg.frame_interval_ms if cfg.frame_interval_ms is not None else cfg.scene.frame_interval_ms
        if interval != cfg.scene.frame_interval_ms:
            frames = [Frame(f.index, f.index * interval, f.pixels) for f in frames]
    else:
        ds = load_coco_annotations(cfg.dataset_path)
        interval = cfg.frame_interval_ms if cfg.frame_interval_ms is not None else ds.frame_interval_ms
        if interval is None:
            interval = 33.33
        frames = [Frame(k, k * interval, None) for k in range(len(ds.images))]
        gts = ds.gts_by_frame
    horizon = cfg.horizon_frames if cfg.horizon_frames is not None else len(frames)
    if horizon > len(frames):
        raise InvalidConfig(f"horizon {horizon} exceeds the {len(frames)} available frames")
    cfg.check_stream_span(horizon, interval)
    gts = gts[:horizon]
    if not any(gts):
        raise InvalidConfig(f"horizon_frames {horizon}: no ground-truth box in the first {horizon} frames")
    return RunData(tuple(frames[:horizon]), gts, interval)


def make_detector(cfg: RunConfig, data: RunData) -> Callable[[int], DetectionTable]:
    s = cfg.detector_settings
    if cfg.detector_kind == "delayed-gt":
        return DelayedGtDetector(data.gts, latency_frames=s["latency_frames"])
    if cfg.detector_kind == "hold":
        return ForecastDetector(data.gts, n_history=0, delta_t=1, forecast_steps=0)
    if cfg.detector_kind in ("const-velocity", "long-short"):
        # forecast_steps defaults to the constant latency in frames (RunConfig
        # rejects per-frame latency without forecast_steps)
        steps = s["forecast_steps"]
        return ForecastDetector(
            data.gts,
            n_history=1 if cfg.detector_kind == "const-velocity" else s["n_history"],
            delta_t=s["delta_t"],
            forecast_steps=math.ceil(cfg.latency_model.ms / data.frame_interval_ms) if steps is None else steps,
        )
    # pyramid: the dual-path network steps over the frames the simulator
    # dispatches (frames it skips never reach the buffer)
    network = DualPathNetwork(
        extractor=BoxFilterExtractor(model_size=s["model_size"], seed=cfg.seed),
        head=BlobHead(threshold=s["threshold"], category=s["category"]),
        fusion=cfg.fusion,
        weight_seed=s["weight_seed"],
    )
    return lambda k: network.step(data.frames[k])


def run_eval(cfg: RunConfig, write: bool = True) -> SapReport:
    """Simulate the stream for one configuration and score it."""
    report, records = _evaluate(cfg, build_run_data(cfg))
    if write and cfg.output is not None:
        out = Path(cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report_to_text(report))
        (out / "report.csv").write_text(report_csv_header() + "\n" + report_to_csv_row(report) + "\n")
        (out / "report_table.txt").write_text(report_to_human_table(report))
        with (out / "records.jsonl").open("w") as fp:
            write_records(records, fp)
    return report


def _evaluate(cfg: RunConfig, data: RunData) -> tuple[SapReport, list[PredictionRecord]]:
    """The report of one configuration on its run data, and the stream's
    prediction records."""
    stream_cfg = StreamConfig(
        horizon_frames=len(data.frames),
        latency_model=cfg.latency_model,
        frame_interval_ms=data.frame_interval_ms,
        dispatch_policy=cfg.dispatch_policy,
    )
    records = simulate_stream(stream_cfg, make_detector(cfg, data))
    pairings = pair_for_eval(records, data.frames)
    return compute_sap_report(pairings, data.gts, max_dets_per_frame=cfg.max_dets_per_frame), records


@dataclass(frozen=True)
class SweepRow:
    value: object
    report: Optional[SapReport]
    error: Optional[str]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One run per sweep value, in spec order; failures land in the row.
    The run data is built once, from the base: a sweep value changes only
    fusion and detector settings, which build_run_data does not read, so a
    data error lands in every row."""
    data = data_error = None
    try:
        data = build_run_data(spec.base)
    except Exception as exc:  # reported in each row, after that row's own config errors
        data_error = exc
    rows = []
    for value in spec.values:
        try:
            cfg = apply_sweep_value(spec, value)
            if data_error is not None:
                raise data_error.with_traceback(None)  # one row's frames, not every row's
            report, _ = _evaluate(cfg, data)
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
            cells += [row.error]
        # a rejected value's label and an error are free text; numbers pass unchanged
        lines.append(",".join(cell.replace(",", ";").replace("\n", " ") for cell in cells))
    return "\n".join(lines) + "\n"
