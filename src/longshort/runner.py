"""End-to-end runs: data -> streaming simulation -> pairing -> report.

run_eval executes one configuration; run_sweep executes one configuration
per value along an ablation axis and renders a CSV table with one row per
configuration, continuing past per-run failures.  Of a fusion-variant pair
X / X* (the same variant with and without its residual), both rows are
scored on one run of X*'s network, whose head also gives X's table.
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
from .streaming import DEFAULT_FRAME_INTERVAL_MS, PredictionRecord, StreamConfig, pair_for_eval, simulate_stream, write_records


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
    frame interval at DEFAULT_FRAME_INTERVAL_MS, 33.33 ms)."""
    if cfg.scene is not None:
        frames, gts = zip(*generate_scenario(cfg.scene))
        pixels, interval = [f.pixels for f in frames], cfg.scene.frame_interval_ms
    else:
        ds = load_coco_annotations(cfg.dataset_path)
        gts = ds.gts_by_frame
        pixels, interval = [None] * len(gts), ds.frame_interval_ms or DEFAULT_FRAME_INTERVAL_MS
    # an empty source without a horizon has no stream: its 0 frames hold no box
    stream = cfg.stream_for(len(gts), interval) if gts or cfg.horizon_frames else None
    horizon = 0 if stream is None else stream.horizon_frames
    gts = gts[:horizon]
    if not any(gts):
        raise InvalidConfig(f"horizon_frames {horizon}: no ground-truth box in the first {horizon} frames")
    frames = tuple(Frame(k, k * stream.frame_interval_ms, p) for k, p in enumerate(pixels[:horizon]))
    return RunData(frames, gts, stream)


def make_detector(
    cfg: RunConfig, data: RunData, plus: Optional[list[DetectionTable]] = None
) -> Callable[[int], DetectionTable]:
    """cfg's detector.  Given a list `plus`, cfg is the X* row of an X / X*
    pair: each step of its network appends X's table to `plus` and returns
    X*'s."""
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
        head=head if plus is None else _ResidualPair(head, plus),
        fusion=cfg.fusion, weight_seed=s["weight_seed"],
    )
    return lambda k: network.step(data.frames[k])


class _ResidualPair:
    """The head of an X* row's network, which fuses without the residual:
    predict() returns X*'s table, `head`'s on the fused pyramid, and appends
    X's to `plus`, `head`'s with the base's map, the current frame's, added
    to each level it reads, bit for bit the residual add."""

    def __init__(self, head, plus: list[DetectionTable]):
        self.head, self.plus, self.levels_used = head, plus, head.levels_used

    def predict(self, pyramid: FeaturePyramid) -> DetectionTable:
        table = self.head.predict(pyramid)
        added = {i: pyramid.levels[i] + pyramid.base.levels[i] for i in self.levels_used}
        self.plus.append(self.head.predict(pyramid.replace(added)))
        return table


def _pairs(cfgs: dict[int, RunConfig]) -> list[tuple[int, int]]:
    """The row pairs (X, X*) of a sweep.  An X* row is a pyramid row with
    history and no residual; it pairs with the first unpaired row whose
    config is its own with the residual, where that plan has one (EfAvg's
    never has)."""
    pairs = {}  # X's row -> X*'s row
    for star, cfg in cfgs.items():
        if cfg.detector_kind != "pyramid" or cfg.fusion.residual or cfg.fusion.n_history == 0:
            continue
        x_cfg = replace(cfg, fusion=replace(cfg.fusion, residual=True))
        d = MODEL_CHANNELS[cfg.detector_settings["model_size"]][0]  # no width changes the residual
        if plan_channels(x_cfg.fusion.config_for(d)).residual:
            i = next((i for i, c in cfgs.items() if c == x_cfg and i not in pairs), None)
            if i is not None:
                pairs[i] = star
    return list(pairs.items())


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


def _evaluate(cfg: RunConfig, data: RunData) -> tuple[SapReport, list[PredictionRecord]]:
    """The report of one configuration on its run data, and the stream's
    prediction records."""
    records = simulate_stream(data.stream, make_detector(cfg, data))
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
    build_run_data does not read, so a data error lands in every row whose
    own config is valid.  Each pair (X, X*) that _pairs finds runs X*'s
    network once, and X is scored on its stream's records, each holding
    X's table instead; if that raises, both rows run alone, so that each
    reports the error it gets alone."""
    cfgs, errors = {}, {}  # row -> its config, or the error it reports
    for i, value in enumerate(spec.values):
        try:
            cfgs[i] = apply_sweep_value(spec, value)
        except Exception as exc:  # a row's own config error comes before a data error
            errors[i] = exc
    try:
        data = build_run_data(spec.base)
    except Exception as exc:  # a data error: every row with a valid config reports it
        errors.update(dict.fromkeys(cfgs, exc))
        cfgs = {}
    reports = {}
    for x, star in _pairs(cfgs):
        try:
            plus = []
            records = simulate_stream(data.stream, make_detector(cfgs[star], data, plus))
            x_records = [replace(r, detections=t) for r, t in zip(records, plus, strict=True)]
            reports[x], reports[star] = _report(cfgs[x], data, x_records), _report(cfgs[star], data, records)
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
