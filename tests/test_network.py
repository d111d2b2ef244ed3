import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

from longshort.boxes import DetectionTable
from longshort.fusion import FusionSettings, FusionVariant, init_weights, fuse, plan_channels
from longshort.network import (
    BlobHead,
    BoxFilterExtractor,
    DualPathNetwork,
    FeaturePyramid,
    Frame,
    MODEL_CHANNELS,
    NonMonotonicIndex,
    PYRAMID_RATES,
    _block_reduce_mean,
    label_blobs,
)
from longshort.config import SweepAxis, SweepSpec, apply_sweep_value, run_config_from_dict
from longshort.scenarios import bundled_scene, generate_scenario
from oracles import collapsed_saliency, objects, reference_blob_detect


def noise_frames(n, height=40, width=48, seed=42):
    rng = np.random.default_rng(seed)
    return [Frame(index=k, timestamp_ms=k * 33.33, pixels=rng.random((height, width))) for k in range(n)]


class RecordingHead:
    """Captures the fused pyramids the network hands to the head."""

    def __init__(self):
        self.pyramids = []

    def predict(self, pyramid):
        self.pyramids.append(pyramid)
        return DetectionTable.empty()


# --------------------------------------------------------------- history


def constant_frames(indices, size=16):
    """Frames whose pixels are all their index + 1."""
    return [Frame(k, k * 33.33, np.full((size, size), k + 1.0)) for k in indices]


def gathered(monkeypatch, frames, n, dt):
    """The frame index of each history map a network over `frames` handed
    to level 0's fusion, per step, most recent first, and the network.  A
    map is told by its first value: each frame's projection is its own, and
    the pad is the current frame's."""
    import longshort.network as network

    seen = []
    fuse = network.fuse_projected

    def spy(cfg, w, current, projected, history, workspace):
        seen.append([m[0, 0, 0] for m in (projected, *history)])
        return fuse(cfg, w, current, projected, history, workspace)

    monkeypatch.setattr(network, "fuse_projected", spy)
    net = DualPathNetwork(BoxFilterExtractor("S", seed=2), LevelZeroReader(),
                          FusionSettings(n_history=n, delta_t=dt), weight_seed=7)
    for f in frames:
        net.step(f)
    frame_of = {values[0]: f.index for values, f in zip(seen, frames)}
    assert len(frame_of) == len(frames)
    return [[frame_of[v] for v in values[1:]] for values in seen], net


def test_push_evicts_oldest_first(monkeypatch):
    # n_history * delta_t + 1 = 4 slots; frame 4 takes frame 0's
    _, net = gathered(monkeypatch, constant_frames(range(5)), 3, 1)
    assert net._frames == [4, 1, 2, 3]


def test_push_rejects_non_monotonic_index():
    # a repeated or decreasing index is refused before the extractor runs,
    # also where the steps wrap round the slots, and the next valid step
    # still gives the recompute reference
    settings = FusionSettings(n_history=3)
    frames = noise_frames(7)
    for stop in range(1, len(frames)):
        ext = BoxFilterExtractor("S", seed=11)
        head = RecordingHead()
        net = DualPathNetwork(ext, head, settings, weight_seed=7)
        for f in frames[:stop]:
            net.step(f)
        for refused in (frames[stop - 1], frames[0]):
            with pytest.raises(NonMonotonicIndex):
                net.step(refused)
        assert ext.calls == stop
        net.step(frames[stop])
        want = reference_fused_pyramids(frames[: stop + 1], "S", settings, 7, 11)
        for got_p, want_p in zip(head.pyramids, want, strict=True):
            assert all(np.array_equal(g, w) for g, w in zip(got_p.levels, want_p.levels)), stop


def test_strided_gather_before_and_after_push(monkeypatch):
    # N=3, delta_t=2: 7 slots
    got, net = gathered(monkeypatch, constant_frames(range(10)), 3, 2)
    assert got[9] == [7, 5, 3]
    assert sorted(net._frames) == [3, 4, 5, 6, 7, 8, 9]
    net.step(constant_frames([10])[0])
    assert sorted(net._frames) == [4, 5, 6, 7, 8, 9, 10]


def test_gather_pads_with_current_at_stream_start(monkeypatch):
    got, _ = gathered(monkeypatch, constant_frames([0]), 3, 1)
    assert got == [[0, 0, 0]]


def test_gather_direct_lookup(monkeypatch):
    got, _ = gathered(monkeypatch, constant_frames(range(4)), 3, 1)
    assert got[3] == [2, 1, 0]


def test_gather_strided_with_negative_index_padding(monkeypatch):
    got, _ = gathered(monkeypatch, constant_frames(range(6)), 3, 2)
    assert got[5] == [3, 1, 5]  # -1 -> current


def test_memory_bound_holds_throughout_a_long_stream():
    # every fused level holds a map for each of the n_history * delta_t + 1
    # slots at most, and for all of them once the stream is that long
    for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2), (3, 3), (3, 4)):
        slots = n * dt + 1
        net = DualPathNetwork(BoxFilterExtractor("S", seed=2), RecordingHead(),
                              FusionSettings(n_history=n, delta_t=dt), weight_seed=7)
        for f in noise_frames(40, height=16, width=16):
            net.step(f)
            assert len(net._frames) == slots
            for lv in net._levels.values():
                assert len(lv.held) == len(lv.ring) == slots
                assert sum(m is not None for m in lv.held) == min(f.index + 1, slots), (n, dt, f.index)
        assert sorted(net._frames) == list(range(40 - slots, 40))
        assert all(m is not None for lv in net._levels.values() for m in lv.held), (n, dt)


def test_delta_t_changes_gathered_indices(monkeypatch):
    for dt, want in ((1, [11, 10, 9]), (2, [10, 8, 6]), (3, [9, 6, 3]), (4, [8, 4, 0])):
        got, _ = gathered(monkeypatch, constant_frames(range(13)), 3, dt)
        assert got[12] == want, dt


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
    skipped) is the current pyramid.  A frame size change clears history:
    at each level, a frame from before the last change of that level's map
    size is the current pyramid too."""
    ext = BoxFilterExtractor(model_size, seed=extractor_seed)
    configs = [settings.config_for(d) for d in MODEL_CHANNELS[model_size]]
    weights = [init_weights(cfg, plan_channels(cfg), weight_seed) for cfg in configs]
    by_index = {f.index: f for f in frames}
    sizes, since = {}, {}  # per level: the map size, and the first frame index at it
    out = []
    for frame in frames:
        current = ext.extract(frame)
        history = []
        for i in range(1, settings.n_history + 1):
            idx = frame.index - i * settings.delta_t
            history.append((idx, ext.extract(by_index[idx]) if idx in by_index else current))
        fused = []
        for lvl, (cfg, w) in enumerate(zip(configs, weights)):
            if sizes.get(lvl) != current.levels[lvl].shape:
                sizes[lvl], since[lvl] = current.levels[lvl].shape, frame.index
            maps = [(h if idx >= since[lvl] else current).levels[lvl] for idx, h in history]
            fused.append(fuse(cfg, w, current.levels[lvl], maps))
        out.append(FeaturePyramid(tuple(fused)))
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
        for n, dt in ((1, 1), (3, 1), (3, 2), (5, 2), (3, 3), (3, 4)):
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
    # In the first stream, history from before the change of size is too far
    # back to be read.  The second has three 48x64 frames, a 56x64 one (the
    # level 0 and 1 maps grow, level 2's stay 2x2) and two more 48x64 ones,
    # so the change falls inside the history window: history from before a
    # level's last change of map size is the pad.
    rng = np.random.default_rng(5)
    shapes = [(48, 64)] * 3 + [(56, 64)] + [(48, 64)] * 2
    streams = [
        noise_frames(4) + [Frame(40, 40 * 33.33, np.random.default_rng(1).random((56, 64)))],
        [Frame(k, k * 33.33, rng.random(shape)) for k, shape in enumerate(shapes)],
    ]
    for frames in streams:
        for variant in FusionVariant:
            settings = FusionSettings(variant, n_history=3)
            head = RecordingHead()
            net = DualPathNetwork(BoxFilterExtractor("S", seed=11), head, settings, weight_seed=7)
            for f in frames:
                net.step(f)
            want = reference_fused_pyramids(frames, "S", settings, 7, 11)
            for got_p, want_p in zip(head.pyramids, want, strict=True):
                assert all(np.array_equal(g, w) for g, w in zip(got_p.levels, want_p.levels)), (variant, len(frames))


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
    (d,) = dets
    assert d.boxes == (24.0, 16.0, 48.0, 40.0)
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
        assert objects(got) == want, trial
        labels = ndimage.label(saliency > threshold)[0]
        diagonal = (labels[1:, 1:] * labels[:-1, :-1] > 0) & (labels[1:, 1:] != labels[:-1, :-1])
        edge = PYRAMID_RATES[0] * np.array([0, 0, width, height])
        seen.update(
            trials=1, no_blobs=not want, diagonal_neighbours=bool(diagonal.any()),
            touches_edge=any(np.any(np.array(d.bbox.as_tuple()) == edge) for d in want),
            clamped_above=any(d.score == 1.0 for d in want), clamped_below=any(d.score == 0.0 for d in want),
        )
    assert all(seen[k] > 10 for k in ("no_blobs", "diagonal_neighbours", "touches_edge", "clamped_above", "clamped_below")), seen


def spiral(height: int, width: int) -> np.ndarray:
    """One path from the top-left corner, turning right wherever a step
    would run off the mask or come beside a pixel already drawn."""
    mask = np.zeros((height, width), dtype=bool)
    r = c = dr = turns = 0
    dc = 1
    mask[0, 0] = True
    while turns < 2:
        ahead, beyond = (r + dr, c + dc), (r + 2 * dr, c + 2 * dc)
        inside = [0 <= i < height and 0 <= j < width for i, j in (ahead, beyond)]
        if inside[0] and not mask[ahead] and not (inside[1] and mask[beyond]):
            (r, c), turns = ahead, 0
            mask[r, c] = True
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return mask


def u_shapes(rng, height: int, width: int) -> np.ndarray:
    """Up to three overlapping combs, each a row of arms joined only at its
    lowest row (two arms make a U), so the arms' runs merge below where
    each began."""
    mask = np.zeros((height, width), dtype=bool)
    for _ in range(int(rng.integers(1, 4))):
        top, left = int(rng.integers(0, height - 1)), int(rng.integers(0, width - 2))
        bottom, right = int(rng.integers(top + 1, height)), int(rng.integers(left + 2, width))
        arms = np.arange(left, right + 1, int(rng.integers(2, 4)))
        mask[top:bottom, arms] = True
        mask[bottom, arms[0]:arms[-1] + 1] = True
    return mask


def labeler_masks(family: str):
    rng = np.random.default_rng(7)
    if family == "random":  # 1x1 to 60x80 at several densities
        for _ in range(400):
            height, width = int(rng.integers(1, 61)), int(rng.integers(1, 81))
            yield rng.random((height, width)) < rng.choice([0.05, 0.3, 0.5, 0.6, 0.9])
        yield rng.random((60, 80)) < 0.5
    elif family == "empty and full":
        for shape in [(1, 1), (1, 80), (60, 1), (7, 9), (60, 80)]:
            yield np.zeros(shape, dtype=bool)
            yield np.ones(shape, dtype=bool)
    elif family == "single rows and columns":
        for n in (1, 2, 5, 80):
            for density in (0.2, 0.5, 0.8):
                yield rng.random((1, n)) < density
                yield rng.random((n, 1)) < density
    elif family == "checkerboards":  # diagonal pixels never join
        for height, width in [(1, 1), (2, 2), (3, 5), (60, 80)]:
            board = np.add.outer(np.arange(height), np.arange(width)) % 2 == 0
            yield board
            yield ~board
    elif family == "u-shapes":
        for _ in range(100):
            yield u_shapes(rng, int(rng.integers(3, 61)), int(rng.integers(4, 81)))
    else:  # spirals
        for height, width in [(1, 1), (3, 3), (5, 9), (12, 7), (31, 31), (60, 80)]:
            yield spiral(height, width)
            yield spiral(height, width)[::-1]  # read from its innermost turn upwards


@pytest.mark.parametrize(
    "family", ["random", "empty and full", "single rows and columns", "checkerboards", "u-shapes", "spirals"]
)
def test_label_blobs_matches_ndimage_label_and_find_objects(family):
    for k, mask in enumerate(labeler_masks(family)):
        want, count = ndimage.label(mask)  # 4-connected
        labels, blobs = label_blobs(mask)
        assert labels.dtype == want.dtype and np.array_equal(labels, want), (family, k)
        assert blobs == ndimage.find_objects(want), (family, k)
        if family == "checkerboards":
            assert count == mask.sum()
        if family == "spirals":
            assert count == 1


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
    # one projected level-0 map per slot, at the long-branch width
    long_out = plan_channels(settings.config_for(MODEL_CHANNELS["S"][0])).long_out
    assert len(net._levels[0].held) == 4
    assert all(m.shape[0] == long_out for m in net._levels[0].held)


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
            taken = net._steps % len(net._frames)  # the oldest frame's slot, which this step takes
            before = {(level, slot): m.copy() for level, lv in net._levels.items()
                      for slot, m in enumerate(lv.held) if m is not None and slot != taken}
            net.step(f)
            for (level, slot), m in before.items():
                assert np.array_equal(net._levels[level].held[slot], m), (variant, f.index, level, slot)
        # the head kept every pyramid it was handed; later steps changed none
        for k, (kept, copies) in enumerate(zip(head.pyramids, head.copies)):
            assert all(np.array_equal(m, c) for m, c in zip(kept.levels, copies)), (variant, residual, k)


class LevelZeroReader:
    levels_used = (0,)

    def predict(self, pyramid):
        pyramid.levels[0]
        return DetectionTable.empty()


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


SCIPY_PROBE = """
import json, sys
from dataclasses import replace
configs, out, blocked = sys.argv[1], sys.argv[2], sys.argv[3] == 'scipy-blocked'
if blocked:
    sys.modules['scipy'] = None  # import scipy, or any module of it, raises ImportError
import longshort
from longshort.config import load_run_config
from longshort.runner import run_eval

def scipy_loaded():
    return any(name == 'scipy' or name.startswith('scipy.') for name in sys.modules)

loaded = [scipy_loaded()]
if not blocked:
    run_eval(replace(load_run_config(configs + '/accelerating_long_short.json'), output=out + '/forecast'))
    loaded.append(scipy_loaded())
run_eval(replace(load_run_config(configs + '/mixed_pyramid.json'), output=out + '/pyramid'))
loaded.append(scipy_loaded())
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("mode", ["scipy-importable", "scipy-blocked"])
def test_no_run_loads_scipy_and_a_pyramid_eval_runs_without_it(tmp_path, mode):
    # a fresh interpreter: importing the package, a forecaster eval and a
    # pyramid eval leave no scipy module loaded, and with scipy made
    # unimportable the pyramid eval still runs
    import longshort

    src = str(Path(longshort.__file__).resolve().parent.parent)
    configs = str(Path(__file__).resolve().parent.parent / "configs")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, configs, str(tmp_path), mode],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    ).stdout
    loaded = json.loads(out.splitlines()[-1])
    if mode == "scipy-importable":
        assert loaded == [False, False, False]
        assert (tmp_path / "forecast" / "report.txt").is_file()
    else:  # sys.modules['scipy'] is None, which counts as a loaded name
        assert loaded == [True, True]
    assert (tmp_path / "pyramid" / "report.txt").is_file()


@pytest.mark.parametrize("delta_t", [1, 2])
@pytest.mark.parametrize("residual", [True, False])
@pytest.mark.parametrize("variant", [v.value for v in FusionVariant])
def test_every_step_reads_the_collapsed_saliency(variant, residual, delta_t, monkeypatch):
    """The saliency BlobHead reads at each step of a pyramid run equals
    oracles.collapsed_saliency.  50 ms on 33.33 ms frames dispatches every
    other frame, so history meets frames the stream skipped and pads."""
    import longshort.runner as runner

    scene = {"n_frames": 9, "width": 96, "height": 64, "trajectories": [
        {"kind": "uniform", "initial_bbox": [10, 10, 30, 30], "velocity": [3, 1]},
        {"kind": "uniform", "initial_bbox": [50, 30, 70, 50], "velocity": [-2, 0]}]}
    fusion = {"variant": variant, "n_history": 2, "delta_t": delta_t, "residual": residual}
    cfg = run_config_from_dict({"scene": scene, "stream": {"latency_ms": 50.0}, "fusion": fusion,
                                "detector": {"kind": "pyramid", "model_size": "S", "weight_seed": 7}})
    seen = []

    class SaliencySpy(BlobHead):
        def predict(self, pyramid):
            seen.append(pyramid.levels[0].mean(axis=0))
            return super().predict(pyramid)

    monkeypatch.setattr(runner, "BlobHead", SaliencySpy)
    data = runner.build_run_data(cfg)
    _, records = runner._evaluate(cfg, data)
    stepped = [r.source_frame_index for r in records]
    assert stepped == [0, 2, 4, 6, 8]
    steps = []
    for t, k in enumerate(stepped):
        history = [k - j * delta_t for j in range(1, 3)]
        frames = [k] + [i if i in stepped[:t] else k for i in history]
        steps.append([data.frames[i].pixels.rasterize().tolist() for i in frames])
    lift = BoxFilterExtractor("S", seed=cfg.seed).extract(Frame(0, 0.0, np.ones((8, 8)))).levels[0][:, 0, 0]
    lsfm = cfg.fusion.config_for(MODEL_CHANNELS["S"][0])
    want = collapsed_saliency(lsfm, init_weights(lsfm, plan_channels(lsfm), 7), lift.tolist(), steps)
    np.testing.assert_allclose(np.array(seen), np.array(want), rtol=1e-12)
    assert np.ptp(np.array(want)) > 0
