import numpy as np
import pytest

from longshort.fusion import FusionSettings, FusionVariant, init_weights, fuse, plan_channels
from longshort.network import (
    BlobHead,
    BoxFilterExtractor,
    DualPathNetwork,
    FeatureBuffer,
    FeaturePyramid,
    Frame,
    MODEL_CHANNELS,
    NonMonotonicIndex,
    PYRAMID_RATES,
    _block_reduce_mean,
)
from longshort.config import SweepAxis, SweepSpec, apply_sweep_value, run_config_from_dict
from longshort.scenarios import bundled_scene, frames_of, generate_scenario


def tiny_maps(value: float) -> tuple:
    """One buffer entry: a map per pyramid level, all filled with value."""
    return tuple(np.full((2, 1, 1), value) for _ in PYRAMID_RATES)


def noise_frames(n, height=40, width=48, seed=42):
    rng = np.random.default_rng(seed)
    return [Frame(index=k, timestamp_ms=k * 33.33, pixels=rng.random((height, width))) for k in range(n)]


class RecordingHead:
    """Captures the fused pyramids the network hands to the head."""

    def __init__(self):
        self.pyramids = []

    def predict(self, pyramid):
        self.pyramids.append(pyramid)
        return []


# ---------------------------------------------------------------- buffer


def test_push_evicts_oldest_first():
    buf = FeatureBuffer(capacity=3)
    for i in range(5):
        buf.push(i, tiny_maps(float(i)))
    assert sorted(buf.slots) == [2, 3, 4]


def test_push_rejects_non_monotonic_index():
    buf = FeatureBuffer(capacity=3)
    buf.push(5, tiny_maps(0.0))
    with pytest.raises(NonMonotonicIndex):
        buf.push(5, tiny_maps(1.0))
    with pytest.raises(NonMonotonicIndex):
        buf.push(4, tiny_maps(1.0))


def test_strided_gather_before_and_after_push():
    # capacity = N * delta_t = 6 with N=3, delta_t=2
    buf = FeatureBuffer(capacity=6)
    for i in range(9):
        buf.push(i, tiny_maps(float(i)))
    current = tiny_maps(9.0)
    got = buf.gather(9, 3, 2, current)
    assert [m[0].flat[0] for m in got] == [7.0, 5.0, 3.0]
    buf.push(9, current)
    assert sorted(buf.slots) == [4, 5, 6, 7, 8, 9]
    assert len(buf.slots) <= 6


def test_gather_pads_with_current_at_stream_start():
    buf = FeatureBuffer(capacity=3)
    pad = tiny_maps(7.0)
    got = buf.gather(0, 3, 1, pad)
    assert all(p is pad for p in got)


def test_gather_direct_lookup():
    buf = FeatureBuffer(capacity=3)
    for i in range(3):
        buf.push(i, tiny_maps(float(i)))
    got = buf.gather(3, 3, 1, tiny_maps(3.0))
    assert [m[0].flat[0] for m in got] == [2.0, 1.0, 0.0]


def test_gather_strided_with_negative_index_padding():
    buf = FeatureBuffer(capacity=6)
    for i in range(5):
        buf.push(i, tiny_maps(float(i)))
    current = tiny_maps(5.0)
    got = buf.gather(5, 3, 2, current)
    assert [m[0].flat[0] for m in got] == [3.0, 1.0, 5.0]  # -1 -> current


def test_memory_bound_holds_throughout_a_long_stream():
    for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2)):
        buf = FeatureBuffer(capacity=n * dt)
        for i in range(40):
            buf.push(i, tiny_maps(float(i)))
            assert len(buf.slots) <= n * dt + 1


def test_delta_t_changes_gathered_indices():
    buf = FeatureBuffer(capacity=12)
    for i in range(12):
        buf.push(i, tiny_maps(float(i)))
    current = tiny_maps(12.0)
    for dt, want in ((1, [11.0, 10.0, 9.0]), (2, [10.0, 8.0, 6.0]), (3, [9.0, 6.0, 3.0]), (4, [8.0, 4.0, 0.0])):
        got = buf.gather(12, 3, dt, current)
        assert [m[0].flat[0] for m in got] == want


# ------------------------------------------------------------- extractor


def test_block_reduce_mean_exact_on_small_grid():
    img = np.arange(12.0).reshape(3, 4)
    out = _block_reduce_mean(img, 2)
    assert out.shape == (2, 2)
    assert out[0, 0] == (0 + 1 + 4 + 5) / 4
    assert out[0, 1] == (2 + 3 + 6 + 7) / 4
    assert out[1, 0] == (8 + 9) / 2  # edge block: one row only
    assert out[1, 1] == (10 + 11) / 2


def test_extractor_is_deterministic_and_weight_shared():
    frames = noise_frames(2)
    ext = BoxFilterExtractor("S", seed=3)
    a = ext.extract(frames[0])
    b = ext.extract(frames[0])
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(la, lb)
    twin = BoxFilterExtractor("S", seed=3)
    c = twin.extract(frames[0])
    for la, lc in zip(a.levels, c.levels):
        assert np.array_equal(la, lc)
    assert ext.calls == 2


def test_extractor_pyramid_shapes_follow_model_size():
    frame = noise_frames(1, height=40, width=48)[0]
    for size, widths in MODEL_CHANNELS.items():
        pyr = BoxFilterExtractor(size).extract(frame)
        for level, rate, d in zip(pyr.levels, PYRAMID_RATES, widths):
            assert level.shape == (d, -(-40 // rate), -(-48 // rate))  # ceil


def test_extract_rejects_non_finite_pixels_naming_the_frame():
    ext = BoxFilterExtractor("S")
    for bad in (np.nan, np.inf):
        img = np.zeros((16, 16))
        img[5, 9] = bad
        with pytest.raises(ValueError, match="frame 17 has non-finite pixels"):
            ext.extract(Frame(17, 0.0, img))


def test_pyramid_resolutions_at_reference_image_sizes():
    # ceil-division level sizes for the two standard input resolutions
    golden = {
        (600, 960): {8: (75, 120), 16: (38, 60), 32: (19, 30)},
        (1200, 1920): {8: (150, 240), 16: (75, 120), 32: (38, 60)},
    }
    for (h, w), by_rate in golden.items():
        img = np.zeros((h, w))
        for rate, want in by_rate.items():
            assert _block_reduce_mean(img, rate).shape == want


# ------------------------------------------------------------------ step


def test_first_frame_avg_early_fusion_is_replicated_sum():
    frames = noise_frames(1)
    ext = BoxFilterExtractor("S", seed=1)
    head = RecordingHead()
    net = DualPathNetwork(ext, head, FusionSettings(FusionVariant.EF_AVG, n_history=3))
    net.step(frames[0])
    reference = BoxFilterExtractor("S", seed=1).extract(frames[0])
    fused = head.pyramids[0]
    for got, cur in zip(fused.levels, reference.levels):
        assert np.allclose(got, 4.0 * cur, rtol=0, atol=0)


def test_extractor_called_exactly_once_per_step():
    frames = noise_frames(6)
    for n, dt in ((1, 1), (3, 2)):
        ext = BoxFilterExtractor("S", seed=2)
        net = DualPathNetwork(ext, RecordingHead(), FusionSettings(n_history=n, delta_t=dt))
        for f in frames:
            net.step(f)
        assert ext.calls == len(frames)


def reference_fused_pyramids(frames, model_size, settings, weight_seed, extractor_seed):
    """No-buffer reference: re-extract every needed historical frame and fuse
    it with the public fuse(); history before the stream start is the
    current pyramid."""
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
        fused = tuple(
            fuse(cfg, w, current.levels[lvl], [h.levels[lvl] for h in history])
            for lvl, (cfg, w) in enumerate(zip(configs, weights))
        )
        out.append(FeaturePyramid(fused))
    return out


def test_buffered_step_equals_recompute_reference():
    # The buffer holds projected history, so the pad for history before the
    # stream start must be the projected current map, not the raw one.
    frames = noise_frames(6)
    for variant in FusionVariant:
        for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2)):
            settings = FusionSettings(variant, n_history=n, delta_t=dt)
            ext = BoxFilterExtractor("S", seed=11)
            head = RecordingHead()
            net = DualPathNetwork(ext, head, settings, weight_seed=7)
            for f in frames:
                net.step(f)
            want = reference_fused_pyramids(frames, "S", settings, 7, 11)
            assert len(head.pyramids) == len(want)
            for got_p, want_p in zip(head.pyramids, want):
                for got_l, want_l in zip(got_p.levels, want_p.levels):
                    assert np.array_equal(got_l, want_l), (variant, n, dt)
            assert ext.calls == len(frames)


def test_history_disabled_passes_current_through():
    frames = noise_frames(3)
    ext = BoxFilterExtractor("S", seed=5)
    head = RecordingHead()
    net = DualPathNetwork(ext, head, FusionSettings(n_history=0))
    for f in frames:
        net.step(f)
    twin = BoxFilterExtractor("S", seed=5)
    for f, fused in zip(frames, head.pyramids):
        want = twin.extract(f)
        for got_l, want_l in zip(fused.levels, want.levels):
            assert np.array_equal(got_l, want_l)


# ------------------------------------------------------------- blob head


def test_blob_head_recovers_rectangles_through_identity_fusion():
    img = np.zeros((80, 96))
    img[16:40, 24:48] = 1.0  # 24x24 box at (24, 16)
    frame = Frame(0, 0.0, img)
    ext = BoxFilterExtractor("S", seed=0)
    net = DualPathNetwork(ext, BlobHead(threshold=0.3), FusionSettings(), weight_seed=0)
    dets = net.step(frame)
    assert len(dets) == 1
    d = dets[0]
    assert (d.bbox.x_min, d.bbox.y_min, d.bbox.x_max, d.bbox.y_max) == (24.0, 16.0, 48.0, 40.0)
    assert 0.0 <= d.score <= 1.0


# ---------------------------------------------------------- head contract


class AllLevelsBlobHead(BlobHead):
    levels_used = (0, 1, 2)


def test_blob_head_detections_do_not_depend_on_unused_levels():
    scene = bundled_scene("mixed")
    frames = frames_of(generate_scenario(scene))
    base = run_config_from_dict(
        {"scene_name": "mixed", "detector": {"kind": "pyramid", "model_size": "S", "weight_seed": 3}}
    )
    spec = SweepSpec(SweepAxis.FUSION_VARIANT, base)
    for value in spec.values:
        settings = apply_sweep_value(spec, value).fusion
        nets = [
            DualPathNetwork(BoxFilterExtractor("S", seed=1), head, settings, weight_seed=3)
            for head in (BlobHead(), AllLevelsBlobHead())
        ]
        assert [len(net._levels) for net in nets] == [1, 3]
        got, want = ([net.step(f) for f in frames] for net in nets)
        assert got == want, value
        assert sum(map(len, got)) > 0, value


def test_blob_head_network_holds_level_zero_weights_only():
    settings = FusionSettings(FusionVariant.LF_DIL, n_history=3)
    net = DualPathNetwork(BoxFilterExtractor("S"), BlobHead(), settings, weight_seed=7)
    assert list(net._levels) == [0]
    for f in noise_frames(5):
        net.step(f)
    # one projected level-0 map per buffered frame, at the long-branch width
    long_out = plan_channels(settings.config_for(MODEL_CHANNELS["S"][0])).long_out
    assert all(len(entry) == 1 for entry in net.buffer.slots.values())
    assert all(entry[0].shape[0] == long_out for entry in net.buffer.slots.values())


def test_unused_levels_reach_the_head_unfused_and_a_plain_head_gets_all_fused():
    frames = noise_frames(4)
    settings = FusionSettings(FusionVariant.LF_DIL, n_history=2)
    want = reference_fused_pyramids(frames, "S", settings, weight_seed=7, extractor_seed=2)
    raw = [BoxFilterExtractor("S", seed=2).extract(f) for f in frames]

    class LevelZeroHead(RecordingHead):
        levels_used = (0,)

    for head in (RecordingHead(), LevelZeroHead()):
        net = DualPathNetwork(BoxFilterExtractor("S", seed=2), head, settings, weight_seed=7)
        for f in frames:
            net.step(f)
        fused_levels = getattr(head, "levels_used", (0, 1, 2))
        for got_p, want_p, raw_p in zip(head.pyramids, want, raw):
            assert len(got_p.levels) == len(PYRAMID_RATES)
            for lvl, got_l in enumerate(got_p.levels):
                expected = want_p.levels[lvl] if lvl in fused_levels else raw_p.levels[lvl]
                assert np.array_equal(got_l, expected), (type(head).__name__, lvl)
                assert not np.array_equal(want_p.levels[lvl], raw_p.levels[lvl])
