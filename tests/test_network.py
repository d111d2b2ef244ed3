import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import ndimage

from longshort.boxes import detection_table
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
from longshort.scenarios import bundled_scene, generate_scenario
from oracles import reference_blob_detect


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
        return detection_table(())


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
    """No-buffer reference: re-extract every needed historical frame, looked
    up by frame index among `frames`, and fuse it with the public fuse();
    history not among them (before the stream start, or a frame the stream
    skipped) is the current pyramid."""
    ext = BoxFilterExtractor(model_size, seed=extractor_seed)
    configs = [settings.config_for(d) for d in MODEL_CHANNELS[model_size]]
    weights = [init_weights(cfg, plan_channels(cfg), weight_seed) for cfg in configs]
    by_index = {f.index: f for f in frames}
    out = []
    for frame in frames:
        current = ext.extract(frame)
        history = []
        for i in range(1, settings.n_history + 1):
            idx = frame.index - i * settings.delta_t
            history.append(ext.extract(by_index[idx]) if idx in by_index else current)
        fused = tuple(
            fuse(cfg, w, current.levels[lvl], [h.levels[lvl] for h in history])
            for lvl, (cfg, w) in enumerate(zip(configs, weights))
        )
        out.append(FeaturePyramid(fused))
    return out


def skipping_frames(n, seed=8, height=40, width=48):
    """n noise frames whose indices step ahead by 1 to 3, the way
    latest-frame dispatch skips the frames that arrive while its worker is
    busy."""
    rng = np.random.default_rng(seed)
    indices = np.cumsum(rng.integers(1, 4, size=n)) - 1
    return [Frame(int(k), k * 33.33, rng.random((height, width))) for k in indices]


def test_buffered_step_equals_recompute_reference():
    # The buffer holds projected history, so the pad for history before the
    # stream start must be the projected current map, not the raw one.  The
    # skipping stream runs every ring of capacity + 1 slots round three times.
    for variant in FusionVariant:
        for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2)):
            for residual in (True, False):
                settings = FusionSettings(variant, n_history=n, delta_t=dt, residual=residual)
                for frames in (noise_frames(6), skipping_frames(3 * (n * dt + 1))):
                    ext = BoxFilterExtractor("S", seed=11)
                    head = RecordingHead()
                    net = DualPathNetwork(ext, head, settings, weight_seed=7)
                    for f in frames:
                        net.step(f)
                    want = reference_fused_pyramids(frames, "S", settings, 7, 11)
                    assert len(head.pyramids) == len(want)
                    for got_p, want_p in zip(head.pyramids, want):
                        for got_l, want_l in zip(got_p.levels, want_p.levels):
                            assert np.array_equal(got_l, want_l), (variant, n, dt, residual)
                    assert ext.calls == len(frames)


def test_a_new_frame_size_gets_new_buffers():
    # history from before the change of size is too far back to be read
    frames = noise_frames(4) + [Frame(40, 40 * 33.33, np.random.default_rng(1).random((56, 64)))]
    for variant in FusionVariant:
        settings = FusionSettings(variant, n_history=3)
        head = RecordingHead()
        net = DualPathNetwork(BoxFilterExtractor("S", seed=11), head, settings, weight_seed=7)
        for f in frames:
            net.step(f)
        want = reference_fused_pyramids(frames, "S", settings, 7, 11)
        for got_p, want_p in zip(head.pyramids, want):
            assert all(np.array_equal(g, w) for g, w in zip(got_p.levels, want_p.levels)), variant


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


def test_blob_head_matches_the_per_label_reference_decoder_bit_for_bit():
    rng = np.random.default_rng(12)
    seen = Counter()
    for trial in range(300):
        height, width = (int(n) for n in rng.integers(1, 24, size=2))
        density = rng.uniform(0.0, 0.7)  # 0 gives no blobs, high values blobs touching the edges
        level = rng.uniform(-0.5, 2.5, size=(2, height, width)) * (rng.random((1, height, width)) < density)
        level *= rng.choice([-1.0, 1.0], p=[0.2, 0.8])  # negated, with a threshold below 0: scores clamped to 0
        threshold = float(rng.choice([-1.0, -0.2, 0.0, 0.3, 0.9, 1.4]))  # above 1: every score is clamped to 1
        head = BlobHead(threshold=threshold, category=int(rng.integers(0, 5)))
        got = head.predict(FeaturePyramid((level, np.zeros((2, 1, 1)), np.zeros((2, 1, 1)))))
        saliency = level.mean(axis=0)
        want = reference_blob_detect(saliency, threshold, head.category, PYRAMID_RATES[0])
        assert list(got) == want, trial
        labels = ndimage.label(saliency > threshold)[0]
        diagonal = (labels[1:, 1:] * labels[:-1, :-1] > 0) & (labels[1:, 1:] != labels[:-1, :-1])
        edge = PYRAMID_RATES[0] * np.array([0, 0, width, height])
        seen.update(
            trials=1, no_blobs=not want, diagonal_neighbours=bool(diagonal.any()),
            touches_edge=any(np.any(np.array(d.bbox.as_tuple()) == edge) for d in want),
            clamped_above=any(d.score == 1.0 for d in want), clamped_below=any(d.score == 0.0 for d in want),
        )
    assert all(seen[k] > 10 for k in ("no_blobs", "diagonal_neighbours", "touches_edge", "clamped_above", "clamped_below")), seen


# ---------------------------------------------------------- head contract


class AllLevelsBlobHead(BlobHead):
    levels_used = (0, 1, 2)


def test_blob_head_detections_do_not_depend_on_unused_levels():
    scene = bundled_scene("mixed")
    frames = [frame for frame, _ in generate_scenario(scene)]
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


# ------------------------------------------------------------ lazy levels


def test_pyramid_levels_read_like_a_tuple_and_build_once():
    built = []

    def level(k):
        built.append(k)
        return np.full((1, 1, 1), float(k))

    pyr = FeaturePyramid([np.zeros((1, 1, 1)), lambda: level(1), lambda: level(2)])
    assert len(pyr.levels) == 3 and built == []
    assert pyr.levels[-1][0, 0, 0] == 2.0 and built == [2]
    assert [m[0, 0, 0] for m in pyr.levels] == [0.0, 1.0, 2.0]
    assert [m[0, 0, 0] for m in reversed(pyr.levels)] == [2.0, 1.0, 0.0]
    assert built == [2, 1]
    with pytest.raises(ValueError):
        FeaturePyramid([np.zeros((1, 1, 1))] * 2)


def pooled_rates(monkeypatch, head, frames):
    import longshort.network as network

    rates = []
    pool = network._block_reduce_mean
    monkeypatch.setattr(network, "_block_reduce_mean", lambda img, rate: rates.append(rate) or pool(img, rate))
    net = DualPathNetwork(BoxFilterExtractor("S", seed=1), head, FusionSettings(), weight_seed=3)
    for f in frames:
        net.step(f)
    return rates


def test_a_step_pools_only_the_levels_that_are_read(monkeypatch):
    frames = noise_frames(5)
    assert pooled_rates(monkeypatch, BlobHead(), frames) == [8] * 5
    assert sorted(pooled_rates(monkeypatch, AllLevelsBlobHead(), frames)) == sorted(PYRAMID_RATES * 5)


def test_levels_are_built_from_the_pixels_as_they_were_at_extract():
    img = np.random.default_rng(9).random((40, 48))
    want = BoxFilterExtractor("S", seed=4).extract(Frame(0, 0.0, img.copy()))
    pyr = BoxFilterExtractor("S", seed=4).extract(Frame(0, 0.0, img))
    img[:] = 5.0
    for got_l, want_l in zip(pyr.levels, want.levels):
        assert np.array_equal(got_l, want_l)


class KeepingHead(RecordingHead):
    """Keeps every pyramid, and a copy of each level as predict() read it."""

    def __init__(self):
        super().__init__()
        self.copies = []

    def predict(self, pyramid):
        self.copies.append([m.copy() for m in pyramid.levels])
        return super().predict(pyramid)


@pytest.mark.parametrize("variant", list(FusionVariant))
def test_a_step_leaves_the_buffered_maps_as_they_were(variant):
    for residual in (True, False):
        head = KeepingHead()
        net = DualPathNetwork(BoxFilterExtractor("S", seed=2), head,
                              FusionSettings(variant, n_history=3, residual=residual), weight_seed=7)
        for f in noise_frames(3 * (3 + 1)):
            before = {k: tuple(m.copy() for m in maps) for k, maps in net.buffer.slots.items()}
            net.step(f)
            for k, maps in before.items():
                if k in net.buffer.slots:
                    assert all(np.array_equal(m, b) for m, b in zip(net.buffer.slots[k], maps)), (variant, f.index, k)
        # the head kept every pyramid it was handed; later steps changed none
        for k, (kept, copies) in enumerate(zip(head.pyramids, head.copies)):
            assert all(np.array_equal(m, c) for m, c in zip(kept.levels, copies)), (variant, residual, k)


class LevelZeroReader:
    levels_used = (0,)

    def predict(self, pyramid):
        pyramid.levels[0]
        return detection_table(())


def last_step_peak(net, frames) -> int:
    """Bytes the last frame's step allocated at its peak, above what was
    allocated before it, as tracemalloc counts them."""
    for f in frames[:-1]:
        net.step(f)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        net.step(frames[-1])
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_step_after_the_ring_fills_allocates_no_concat_buffer_or_projected_map():
    settings = FusionSettings(FusionVariant.LF_DIL, n_history=3)
    rng = np.random.default_rng(3)
    frames = [Frame(k, k * 33.33, rng.random((480, 640))) for k in range(3 * (3 + 1))]
    d = MODEL_CHANNELS["S"][0]
    plan = plan_channels(settings.config_for(d))
    assert plan.needs_output_projection
    map_bytes = 8 * 60 * 80  # per channel of a level-0 map
    fusing = last_step_peak(DualPathNetwork(BoxFilterExtractor("S"), LevelZeroReader(), settings, weight_seed=3), frames)
    bypass = last_step_peak(DualPathNetwork(BoxFilterExtractor("S"), LevelZeroReader(), FusionSettings(n_history=0)), frames)
    # Beyond what the unfused step holds (the pixels and level 0), fusion
    # allocates the fused map the head gets, and neither a concatenation
    # (pre_projection_total channels) nor a projected map (long_out).
    assert fusing - bypass < (d + min(plan.long_out, plan.pre_projection_total)) * map_bytes, (fusing, bypass)
