"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL verdict line
(run with `pytest tests/test_acceptance.py -s` to see every line).
Expected values come from independent oracles: explicit-loop fusion
re-implementations, quadratic pairing scans, closed-form kinematics, and a
from-scratch AP evaluator.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from longshort.boxes import DetectionTable
from longshort.config import SweepAxis, SweepSpec, run_config_from_dict
from longshort.fusion import (
    FusionSettings,
    FusionVariant,
    count_fusion_flops,
    fuse,
    init_weights,
    plan_channels,
)
from longshort.metrics import IOU_THRESHOLDS, compute_sap_report
from longshort.network import (
    BoxFilterExtractor,
    DualPathNetwork,
    FeaturePyramid,
    Frame,
    MODEL_CHANNELS,
)
from longshort.runner import build_run_data, make_detector, run_eval, run_sweep, sweep_to_csv
from longshort.scenarios import bundled_scene_names
from longshort.streaming import EvalPairing, PredictionRecord, pair_for_eval
from oracles import (
    BBox,
    Detection,
    GroundTruthBox,
    arr3,
    brute_force_pairings,
    detection_table,
    ground_truth_table,
    load_benchmark_workloads,
    naive_fuse,
    oracle_sap_report,
    prefix_ap,
)

INTERVAL = 33.33


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"[ACCEPTANCE {number:2d}] FAIL  {description}")
        raise
    print(f"[ACCEPTANCE {number:2d}] PASS  {description}")


def random_map(rng, d, h, w):
    return rng.standard_normal((d, h, w))


def test_criterion_1_channel_plan_golden_suite():
    golden = [
        (128, 64, 21), (256, 128, 42), (512, 256, 85),      # S at /8 /16 /32
        (192, 96, 32), (384, 192, 64), (768, 384, 128),     # M
        (256, 128, 42), (512, 256, 85), (1024, 512, 170),   # L
    ]
    with criterion(1, "channel plan reproduces all nine published width pairs"):
        start = time.monotonic()
        for d, short, long in golden:
            cfg = FusionSettings(FusionVariant.LF_DIL, n_history=3, delta_t=1, d=d, ratio=0.5)
            plan = plan_channels(cfg)
            assert (plan.short_out, plan.long_out) == (short, long), f"d={d}"
        assert time.monotonic() - start < 1.0


def test_criterion_2_fusion_matches_naive_oracle_on_100_configs():
    with criterion(2, "fuse agrees with the explicit-loop oracle on 100 seeded configs"):
        start = time.monotonic()
        rng = np.random.default_rng(2024)
        checked = 0
        cases = [
            (d, hw) for d in (8, 16) for hw in ((1, 1), (2, 3))
        ] + [(128, (1, 1))]
        for variant in FusionVariant:
            for n in range(1, 6):
                for d, (h, w) in cases:
                    cfg = FusionSettings(variant, n_history=n, delta_t=1, d=d,
                                     ratio=float(rng.choice([0.25, 0.5, 0.75])),
                                     residual=bool(rng.integers(0, 2)))
                    weights = init_weights(cfg, plan_channels(cfg), seed=int(rng.integers(1, 1 << 30)))
                    current = random_map(rng, d, h, w)
                    history = [random_map(rng, d, h, w) for _ in range(n)]
                    got = fuse(cfg, weights, current, history)
                    want = np.array(naive_fuse(cfg, weights, arr3(current), [arr3(m) for m in history]))
                    assert np.allclose(got, want, rtol=1e-6, atol=1e-9), (variant, n, d)
                    checked += 1
        assert checked == 100
        assert time.monotonic() - start < 30.0


def test_criterion_3_residual_identity_and_ablation():
    with criterion(3, "zero weights: residual returns the input bit-exactly, no residual returns zeros"):
        rng = np.random.default_rng(303)
        for variant in (FusionVariant.LF_DIL, FusionVariant.LF_AVG, FusionVariant.EF_DIL):
            for _ in range(20):
                n = int(rng.integers(1, 5))
                d = int(rng.integers(4, 24))
                h, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                current = random_map(rng, d, h, w)
                history = [random_map(rng, d, h, w) for _ in range(n)]
                cfg = FusionSettings(variant, n_history=n, delta_t=1, d=d, residual=True)
                out = fuse(cfg, init_weights(cfg, plan_channels(cfg), 0), current, history)
                assert np.array_equal(out, current)
                cfg_off = FusionSettings(variant, n_history=n, delta_t=1, d=d, residual=False)
                out_off = fuse(cfg_off, init_weights(cfg_off, plan_channels(cfg_off), 0), current, history)
                assert np.all(out_off== 0.0)


def _reference_fused_pyramids(frames, model_size, settings, weight_seed, extractor_seed):
    """No-buffer reference: every historical pyramid recomputed from scratch."""
    ext = BoxFilterExtractor(model_size, seed=extractor_seed)
    configs = [settings.config_for(d) for d in MODEL_CHANNELS[model_size]]
    weights = [init_weights(cfg, plan_channels(cfg), weight_seed) for cfg in configs]
    out = []
    for t in range(len(frames)):
        current = ext.extract(frames[t])
        history = []
        for i in range(1, settings.n_history + 1):
            idx = t - i * settings.delta_t
            history.append(ext.extract(frames[idx]) if idx >= 0 else current)
        out.append(FeaturePyramid(tuple(
            fuse(cfg, w, current.levels[lvl], [h.levels[lvl] for h in history])
            for lvl, (cfg, w) in enumerate(zip(configs, weights))
        )))
    return out


def test_criterion_4_buffer_transparency():
    class SpyHead:
        def __init__(self):
            self.pyramids = []

        def predict(self, pyramid):
            self.pyramids.append(pyramid)
            return []

    with criterion(4, "buffered network output equals the recompute-from-scratch reference"):
        rng = np.random.default_rng(404)
        frames = [Frame(k, k * INTERVAL, rng.random((40, 48))) for k in range(6)]
        for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2)):
            settings = FusionSettings(FusionVariant.LF_DIL, n_history=n, delta_t=dt)
            ext = BoxFilterExtractor("S", seed=6)
            head = SpyHead()
            net = DualPathNetwork(ext, head, settings, weight_seed=7)
            for f in frames:
                net.step(f)
            assert ext.calls == len(frames)
            want = _reference_fused_pyramids(frames, "S", settings, weight_seed=7, extractor_seed=6)
            for got_p, want_p in zip(head.pyramids, want):
                for got_l, want_l in zip(got_p.levels, want_p.levels):
                    assert np.array_equal(got_l, want_l), (n, dt)


def test_criterion_5_streaming_protocol():
    with criterion(5, "zero-latency runs score 1.0 everywhere; pairings match the quadratic scan"):
        for name in bundled_scene_names():
            cfg = run_config_from_dict(
                {"scene_name": name, "stream": {"latency_ms": 0.0}, "detector": {"kind": "delayed-gt"}}
            )
            report = run_eval(cfg)
            assert report.sap == report.sap50 == report.sap75 == 1.0, name

        n = 30
        frames = [Frame(k, k * INTERVAL, None) for k in range(n)]
        for latency in (0.0, 20.0, 40.0, 80.0):
            records = [
                PredictionRecord(k, k * INTERVAL, k * INTERVAL + latency, DetectionTable.empty())
                for k in range(n)
            ]
            pairings = pair_for_eval(records, frames)
            want = brute_force_pairings(records, [k * INTERVAL for k in range(n)])
            lag = math.ceil(latency / INTERVAL)
            for p, w in zip(pairings, want):
                assert p.paired_record == w
                if p.query_frame_index >= lag:
                    assert p.paired_record.source_frame_index == p.query_frame_index - lag
                else:
                    assert p.paired_record is None
        # the latency-40 column of the check above pins source = query - 2


def _uniform_scene_oracle_sap(latency_frames):
    """Closed-form streaming AP for the bundled uniform scene under a
    delayed ground-truth detector and an instantaneous stream.

    Every track moves at 2 px/frame, so the detection for query k is offset
    by 2*min(k, j) px from the truth, giving IoU (W - dx)/(W + dx) for a
    W-wide box.  All scores tie at 1.0 and offsets grow with k, so the true
    positives form a prefix of the pooled order and the 101-point AP has the
    closed form (floor(100*T/G) + 1)/101.
    """
    widths = {0: 20.0, 1: 60.0, 2: 100.0}
    n_frames = 20
    per_threshold_means = []
    for thr in IOU_THRESHOLDS:
        aps = []
        for width in widths.values():
            tp = 0
            for k in range(n_frames):
                dx = 2.0 * min(k, latency_frames)
                iou_k = (width - dx) / (width + dx) if dx < width else 0.0
                tp += iou_k >= thr
            aps.append(prefix_ap(tp, n_frames))
        per_threshold_means.append(sum(aps) / len(aps))
    return sum(per_threshold_means) / len(per_threshold_means)


def test_criterion_6_staleness_monotonicity():
    with criterion(6, "delayed-GT streaming AP strictly decays with staleness on the uniform scene"):
        got = []
        for j in range(6):
            cfg = run_config_from_dict({"scene_name": "uniform", "detector": {"kind": "delayed-gt", "latency_frames": j}})
            data = build_run_data(cfg)
            gts, detector = data.gts, make_detector(cfg, data)
            pairings = [
                EvalPairing(k, PredictionRecord(k, k * INTERVAL, k * INTERVAL, detector(k)))
                for k in range(len(gts))
            ]
            got.append(compute_sap_report(pairings, gts).sap)
        want = [_uniform_scene_oracle_sap(j) for j in range(6)]
        assert got == pytest.approx(want, abs=1e-9)
        assert all(b <= a for a, b in zip(got, got[1:]))
        # slack: the strictest threshold tolerates dx up to W*(1-t)/(1+t);
        # one frame of staleness already exceeds it for every track
        slack_px = min(20.0, 60.0, 100.0) * (1 - 0.95) / (1 + 0.95)
        assert 2.0 * 1 > slack_px
        assert all(b < a for a, b in zip(got, got[1:]))


def test_criterion_7_long_history_beats_short():
    with criterion(7, "accelerating scene: long-history > const-velocity > zero-motion hold"):
        def sap_for(kind):
            cfg = run_config_from_dict(
                {
                    "scene_name": "accelerating",
                    "stream": {"latency_ms": INTERVAL},
                    "detector": {"kind": kind, "n_history": 3},
                }
            )
            return run_eval(cfg).sap

        long_sap, cv_sap, hold_sap = sap_for("long-short"), sap_for("const-velocity"), sap_for("hold")
        assert long_sap > cv_sap > hold_sap
        # frozen expectations derived from the per-frame overlap sequence
        assert long_sap == pytest.approx(0.8500330033003299, abs=1e-9)
        assert cv_sap == pytest.approx(0.7093069306930693, abs=1e-9)
        assert hold_sap == pytest.approx(0.0643564356435643, abs=1e-9)


def test_criterion_7_holds_on_every_seeded_benchmark_scene():
    # perfbench's own scene sampler at seeds m/0 to m/29, fixed in advance:
    # a scene that breaks the order is a finding, not a seed to drop
    with criterion(7, "30 sampled scenes: long-short >= const-velocity >= hold on each, long-short ahead on one"):
        workloads = load_benchmark_workloads()
        ahead = []
        for m in range(30):
            scene = workloads._scene(random.Random(f"m/{m}"), 60, 640, 480, 10)
            sap = [run_eval(run_config_from_dict({
                "scene": scene, "stream": {"latency_ms": INTERVAL},
                "detector": {"kind": kind, "n_history": 3, "delta_t": 1},
            })).sap for kind in ("long-short", "const-velocity", "hold")]
            assert sap[0] >= sap[1] >= sap[2], (m, sap)
            ahead += [m] * (sap[0] > sap[1])
        assert ahead, "long-short is never ahead of const-velocity"
        print(f"long-short ahead on scenes {ahead}")


def test_criterion_8_ap_engine_correctness():
    with criterion(8, "AP engine: hand-oracle cases plus independent-evaluator agreement"):
        def one_frame_report(dets, gts):
            pairing = EvalPairing(0, PredictionRecord(0, 0.0, 0.0, detection_table(dets)))
            return compute_sap_report([pairing], [ground_truth_table(gts)])

        g = GroundTruthBox(BBox(0, 0, 10, 10), category=0, track_id=0, frame_index=0)
        exact = Detection(BBox(0, 0, 10, 10), 0, 0.8)
        off = Detection(BBox(50, 50, 60, 60), 0, 0.9)
        assert one_frame_report([exact], [g]).sap == 1.0
        assert one_frame_report([off, Detection(BBox(0, 0, 10, 10), 0, 0.5)], [g]).sap == pytest.approx(0.5, abs=1e-12)
        assert one_frame_report([], [g]).sap == 0.0

        rng = np.random.default_rng(808)
        scenes_checked = 0
        while scenes_checked < 10:
            n_frames = int(rng.integers(1, 6))
            gts, det_lists = [], []
            for k in range(n_frames):
                frame_gts, frame_dets = [], []
                for j in range(int(rng.integers(0, 4))):
                    x, y = rng.uniform(0, 120, 2)
                    w, h = rng.uniform(5, 100, 2)
                    frame_gts.append(GroundTruthBox(BBox(x, y, x + w, y + h), int(rng.integers(0, 2)), j, k))
                for _ in range(int(rng.integers(0, 7))):
                    x, y = rng.uniform(0, 120, 2)
                    w, h = rng.uniform(5, 100, 2)
                    frame_dets.append(Detection(BBox(x, y, x + w, y + h), int(rng.integers(0, 2)), float(rng.uniform(0, 1))))
                gts.append(frame_gts)
                det_lists.append(frame_dets)
            if not any(gts):
                continue
            scenes_checked += 1
            pairings = [
                EvalPairing(k, PredictionRecord(k, 0.0, 0.0, detection_table(det_lists[k])))
                for k in range(n_frames)
            ]
            report = compute_sap_report(pairings, [ground_truth_table(f) for f in gts])
            want = oracle_sap_report(det_lists, gts)
            assert report.sap == pytest.approx(want["sAP"], abs=1e-9)
            assert report.sap50 == pytest.approx(want["sAP50"], abs=1e-9)
            assert report.sap75 == pytest.approx(want["sAP75"], abs=1e-9)
            for field, key in (("sap_small", "small"), ("sap_medium", "medium"), ("sap_large", "large")):
                got_v, want_v = getattr(report, field), want[key]
                if want_v is None:
                    assert got_v is None
                else:
                    assert got_v == pytest.approx(want_v, abs=1e-9)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical configs and seeds give byte-identical outputs"):
        for run in ("a", "b"):
            cfg = run_config_from_dict(
                {
                    "scene_name": "mixed",
                    "stream": {"latency_ms": 40.0},
                    "detector": {"kind": "long-short", "n_history": 3},
                    "seed": 11,
                    "output": str(tmp_path / run),
                }
            )
            run_eval(cfg)
        for name in ("report.txt", "report.csv", "records.jsonl", "report_table.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

        base = run_config_from_dict(
            {
                "scene_name": "accelerating",
                "stream": {"latency_ms": INTERVAL},
                "detector": {"kind": "long-short"},
                "seed": 11,
            }
        )
        spec = SweepSpec(axis=SweepAxis.TEMPORAL_RANGE, base=base)
        csv_a = sweep_to_csv(spec, run_sweep(spec))
        csv_b = sweep_to_csv(spec, run_sweep(spec))
        assert csv_a.encode() == csv_b.encode()
        assert len(csv_a.strip().splitlines()) == 12  # header + 11 grid rows


def test_criterion_10_flops_estimator_properties():
    with criterion(10, "FLOPs: spatial scaling exact, hand count exact, monotone in history depth"):
        cfg = FusionSettings(FusionVariant.EF_AVG, n_history=3, delta_t=1, d=4)
        assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == 12

        for variant in FusionVariant:
            cfg = FusionSettings(variant, n_history=3, delta_t=1, d=48)
            plan = plan_channels(cfg)
            base = count_fusion_flops(cfg, plan, 2, 3)
            for k in (2, 4, 10):
                assert count_fusion_flops(cfg, plan, 2 * k, 3 * k) == k * k * base

        # Monotonicity in N holds for the early-fusion variants (the late
        # variants deliberately shrink per-frame widths to keep cost flat).
        for variant in (FusionVariant.EF_AVG, FusionVariant.EF_DIL):
            for d in (16, 128, 1024):
                values = []
                for n in range(1, 9):
                    cfg = FusionSettings(variant, n_history=n, delta_t=1, d=d)
                    values.append(count_fusion_flops(cfg, plan_channels(cfg), 5, 7))
                assert all(b > a for a, b in zip(values, values[1:])), (variant, d)
