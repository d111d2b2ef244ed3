"""End-to-end runs: data -> streaming simulation -> pairing -> report.

run_eval executes one configuration; run_sweep executes one configuration
per value along an ablation axis and renders a CSV table with one row per
configuration, continuing past per-run failures.  Of a fusion-variant pair
X / X* (the same variant with and without its residual), the X* row is
scored on the X row's stream, whose pyramid network gives both rows' tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from .boxes import DetectionTable, GroundTruthTable
from .coco_io import load_coco_annotations
from .config import (
    FORECASTER_HISTORY,
    RunConfig,
    SweepSpec,
    apply_sweep_value,
    sweep_key_cells,
    sweep_key_columns,
)
from .detectors import DelayedGtDetector, ForecastDetector
from .fusion import InvalidConfig, plan_channels
from .metrics import (
    REPORT_COLUMNS,
    SapReport,
    compute_sap_report,
    report_to_csv,
    report_to_csv_row,
    report_to_human_table,
    report_to_text,
)
from .network import MODEL_CHANNELS, BlobHead, BoxFilterExtractor, DualPathNetwork, FeaturePyramid, Frame
from .scenarios import generate_scenario
from .streaming import PredictionRecord, StreamConfig, pair_for_eval, simulate_stream, write_records


@dataclass(frozen=True)
class RunData:
    """A run's frames and ground truth over its horizon, and the stream that
    eval and every sweep row simulate."""

    frames: tuple[Frame, ...]
    gts: tuple[GroundTruthTable, ...]  # one table per frame
    stream: StreamConfig


def build_run_data(cfg: RunConfig) -> RunData:
    """Materialize the configured data source as frames plus ground truth,
    over the stream cfg.stream_for derives from it (a dataset without a
    frame interval at 33.33 ms)."""
    if cfg.scene is not None:
        frames, gts = zip(*generate_scenario(cfg.scene))
        pixels, interval = [f.pixels for f in frames], cfg.scene.frame_interval_ms
    else:
        ds = load_coco_annotations(cfg.dataset_path)
        gts = ds.gts_by_frame
        pixels, interval = [None] * len(gts), ds.frame_interval_ms or 33.33
    # an empty source without a horizon has no stream: its 0 frames hold no box
    stream = cfg.stream_for(len(gts), interval) if gts or cfg.horizon_frames else None
    horizon = 0 if stream is None else stream.horizon_frames
    gts = gts[:horizon]
    if not any(gts):
        raise InvalidConfig(f"horizon_frames {horizon}: no ground-truth box in the first {horizon} frames")
    frames = tuple(Frame(k, k * stream.frame_interval_ms, p) for k, p in enumerate(pixels[:horizon]))
    return RunData(frames, gts, stream)


def make_detector(
    cfg: RunConfig, data: RunData, bare: Optional[list[DetectionTable]] = None
) -> Callable[[int], DetectionTable]:
    """cfg's detector.  Given a list `bare`, cfg is the X row of an X / X*
    pair: its network fuses without the residual, and each step appends
    X*'s table to `bare` and returns X's."""
    s = cfg.detector_settings
    if cfg.detector_kind == "delayed-gt":
        return DelayedGtDetector(data.gts, latency_frames=s["latency_frames"])
    if cfg.detector_kind in FORECASTER_HISTORY:
        # a preset's n_history, else the key's; forecast_steps defaults to the
        # constant latency in frames (RunConfig rejects per-frame latency
        # without forecast_steps, save for hold, which forecasts nothing)
        preset = FORECASTER_HISTORY[cfg.detector_kind]
        n = s["n_history"] if preset is None else preset
        steps = 0 if n == 0 else s["forecast_steps"]
        if steps is None:
            steps = math.ceil(cfg.latency_model.ms / data.stream.frame_interval_ms)
        return ForecastDetector(data.gts, n_history=n, delta_t=s["delta_t"], forecast_steps=steps)
    # pyramid: the dual-path network steps over the frames the simulator
    # dispatches (frames it skips never reach its history)
    head = BlobHead(threshold=s["threshold"], category=s["category"])
    network = DualPathNetwork(
        extractor=BoxFilterExtractor(model_size=s["model_size"], seed=cfg.seed),
        head=head if bare is None else _ResidualPair(head, bare),
        fusion=cfg.fusion if bare is None else replace(cfg.fusion, residual=False),
        weight_seed=s["weight_seed"],
    )
    return lambda k: network.step(data.frames[k])


class _ResidualPair:
    """The head of an X / X* pair's network, which fuses without the
    residual: predict() appends X*'s table, `head`'s on the fused pyramid,
    to `bare`, and returns X's, `head`'s with the base's map, the current
    frame's, added to each level it reads, bit for bit the residual add."""

    def __init__(self, head, bare: list[DetectionTable]):
        self.head = head
        self.bare = bare
        self.levels_used = head.levels_used

    def predict(self, pyramid: FeaturePyramid) -> DetectionTable:
        self.bare.append(self.head.predict(pyramid))
        added = {i: pyramid.levels[i] + pyramid.base.levels[i] for i in self.levels_used}
        return self.head.predict(pyramid.replace(added))


def _pairs(cfgs: dict[int, RunConfig]) -> list[tuple[int, int]]:
    """The row pairs (X, X*) of a sweep, in either row order: pyramid rows
    with history whose configs differ in fusion.residual alone, where X's
    plan has a residual (EfAvg's never has).  A row pairs with the first
    free match after it."""
    def key(cfg):  # the config without its residual, if its variant has one
        fusion = replace(cfg.fusion, residual=True)
        if cfg.detector_kind == "pyramid" and fusion.n_history > 0:
            d = MODEL_CHANNELS[cfg.detector_settings["model_size"]][0]  # no width changes the residual
            if plan_channels(fusion.config_for(d)).residual:
                return {**vars(cfg), "fusion": replace(fusion, residual=False)}
        return None

    keys = {i: key(cfg) for i, cfg in cfgs.items()}
    free = [i for i, k in keys.items() if k is not None]
    pairs = []
    while free:
        i = free.pop(0)
        j = next((j for j in free if keys[j] == keys[i] and cfgs[j].fusion.residual != cfgs[i].fusion.residual), None)
        if j is not None:
            free.remove(j)
            pairs.append((i, j) if cfgs[i].fusion.residual else (j, i))
    return pairs


def run_eval(cfg: RunConfig) -> SapReport:
    """Simulate the stream for one configuration and score it, writing the
    report and records under cfg.output when it is set."""
    report, records = _evaluate(cfg, build_run_data(cfg))
    if cfg.output is not None:
        out = Path(cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.txt").write_text(report_to_text(report))
        (out / "report.csv").write_text(report_to_csv(report))
        (out / "report_table.txt").write_text(report_to_human_table(report))
        with (out / "records.jsonl").open("w") as fp:
            write_records(records, fp)
    return report


def _evaluate(
    cfg: RunConfig, data: RunData, bare: Optional[list[DetectionTable]] = None
) -> tuple[SapReport, list[PredictionRecord]]:
    """The report of one configuration on its run data, and the stream's
    prediction records; `bare` as for make_detector."""
    records = simulate_stream(data.stream, make_detector(cfg, data, bare))
    return _report(cfg, data, records), records


def _report(cfg: RunConfig, data: RunData, records: Sequence[PredictionRecord]) -> SapReport:
    """The report of one configuration on a stream's prediction records."""
    pairings = pair_for_eval(records, data.frames)
    return compute_sap_report(pairings, data.gts, max_dets_per_frame=cfg.max_dets_per_frame)


@dataclass(frozen=True)
class SweepRow:
    value: object
    report: Optional[SapReport]
    error: Optional[str]


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One run per sweep value, rows in spec order; failures land in the
    row.  The run data, its stream too, is built once, from the base: a
    sweep value changes only fusion and detector settings, which
    build_run_data does not read, so a data error lands in every row.  Of each pair (X, X*) that _pairs
    finds, the X row runs first, and its stream's records, each holding
    X*'s table instead, are the X* row's; if that raises, both rows run
    alone, so that each reports the error it gets alone."""
    data = data_error = None
    try:
        data = build_run_data(spec.base)
    except Exception as exc:  # reported in each row, after that row's own config errors
        data_error = exc
    cfgs, errors = {}, {}  # row -> its config, or the error it reports
    for i, value in enumerate(spec.values):
        try:
            cfgs[i] = apply_sweep_value(spec, value)
        except Exception as exc:  # a row's own config error comes before a data error
            errors[i] = exc
    if data_error is not None:
        errors.update(dict.fromkeys(cfgs, data_error))
        cfgs = {}
    reports = {}
    for x, star in _pairs(cfgs):
        try:
            bare = []
            report, records = _evaluate(cfgs[x], data, bare)
            records = [replace(r, detections=t) for r, t in zip(records, bare, strict=True)]
            reports[x], reports[star] = report, _report(cfgs[star], data, records)
        except Exception:  # both rows run alone below
            pass
    for i in [i for i in cfgs if i not in reports]:
        try:
            reports[i], _ = _evaluate(cfgs[i], data)
        except Exception as exc:  # keep sweeping; the row records the failure
            errors[i] = exc
    return [
        SweepRow(value, reports.get(i), f"{type(errors[i]).__name__}: {errors[i]}" if i in errors else None)
        for i, value in enumerate(spec.values)
    ]


def sweep_to_csv(spec: SweepSpec, rows: Sequence[SweepRow]) -> str:
    header = sweep_key_columns(spec.axis) + list(REPORT_COLUMNS) + ["error"]
    lines = [",".join(header)]
    for row in rows:
        cells = sweep_key_cells(spec.axis, row.value)
        if row.report is not None:
            cells += report_to_csv_row(row.report).split(",") + [""]
        else:
            cells += [""] * len(REPORT_COLUMNS) + [row.error]
        # a rejected value's label and an error are free text; numbers pass unchanged
        lines.append(",".join(cell.replace(",", ";").replace("\n", " ") for cell in cells))
    return "\n".join(lines) + "\n"
