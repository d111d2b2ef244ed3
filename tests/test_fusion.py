import hashlib

import numpy as np
import pytest

from longshort.config import run_config_from_dict
from longshort.fusion import (
    FusionSettings,
    FusionVariant,
    HistoryLengthMismatch,
    InvalidConfig,
    LsfmConfig,
    count_fusion_flops,
    default_config,
    fuse,
    fuse_projected,
    init_weights,
    plan_channels,
    project_history,
)
from longshort.tensor import ShapeMismatch
from oracles import arr3, naive_fuse, reference_fuse_projected

ALL_VARIANTS = list(FusionVariant)

# Published per-level fusion widths: (d, short_out, long_out) for each model
# size at each down-sampling rate, with N=3 history frames at ratio 0.5.
GOLDEN_WIDTHS = [
    ("S", 8, 128, 64, 21),
    ("S", 16, 256, 128, 42),
    ("S", 32, 512, 256, 85),
    ("M", 8, 192, 96, 32),
    ("M", 16, 384, 192, 64),
    ("M", 32, 768, 384, 128),
    ("L", 8, 256, 128, 42),
    ("L", 16, 512, 256, 85),
    ("L", 32, 1024, 512, 170),
]


def cfg_for(variant, n=3, d=16, dt=1, ratio=0.5, residual=True):
    return LsfmConfig(variant, n_history=n, delta_t=dt, d=d, ratio=ratio, residual=residual)


def random_map(rng, d, h, w):
    return rng.standard_normal((d, h, w))


# --------------------------------------------------------- plan_channels


def test_plan_golden_width_table():
    for _, _, d, short, long in GOLDEN_WIDTHS:
        plan = plan_channels(default_config(d))
        assert (plan.short_out, plan.long_out) == (short, long), f"d={d}"
        assert plan.pre_projection_total == short + 3 * long
        assert plan.needs_output_projection == (plan.pre_projection_total != d)


def test_plan_large_and_medium_examples():
    plan = plan_channels(default_config(1024))
    assert (plan.short_out, plan.long_out, plan.pre_projection_total) == (512, 170, 1022)
    assert plan.needs_output_projection
    plan = plan_channels(default_config(384))
    assert (plan.short_out, plan.long_out, plan.pre_projection_total) == (192, 64, 384)
    assert not plan.needs_output_projection


def test_plan_avg_late_fusion():
    plan = plan_channels(cfg_for(FusionVariant.LF_AVG, n=3, d=256))
    assert plan.short_out == plan.long_out == 64
    assert plan.pre_projection_total == 256
    assert not plan.needs_output_projection


def test_plan_early_variants():
    plan = plan_channels(cfg_for(FusionVariant.EF_DIL, n=3, d=9))
    assert plan.short_out == plan.long_out == 4
    assert plan.pre_projection_total == 8
    assert plan.needs_output_projection
    plan = plan_channels(cfg_for(FusionVariant.EF_AVG, n=3, d=9))
    assert plan.short_out == plan.long_out == 9
    assert not plan.needs_output_projection


def test_plan_branch_layout_per_variant():
    # (short_branch, current_as_history, projects_history, sums_history)
    layouts = {
        FusionVariant.EF_AVG: (False, True, False, True),
        FusionVariant.EF_DIL: (True, False, True, True),
        FusionVariant.LF_AVG: (False, True, True, False),
        FusionVariant.LF_DIL: (True, False, True, False),
    }
    for variant, layout in layouts.items():
        for residual in (True, False):
            plan = plan_channels(cfg_for(variant, residual=residual))
            assert (plan.short_branch, plan.current_as_history, plan.projects_history, plan.sums_history) == layout
            assert plan.residual == (residual and variant is not FusionVariant.EF_AVG), (variant, residual)
    # a branch whose width floors to zero is not built, nor an output projection for nothing
    empty = plan_channels(cfg_for(FusionVariant.LF_AVG, n=3, d=3))
    assert (empty.projects_history, empty.pre_projection_total, empty.needs_output_projection) == (False, 0, False)
    assert not plan_channels(cfg_for(FusionVariant.LF_DIL, n=3, d=8, ratio=0.1)).short_branch


def test_plan_two_frame_configuration_splits_evenly():
    # N=1, ratio 0.5: both branches get floor(d/2).
    for d in (7, 32, 128):
        plan = plan_channels(cfg_for(FusionVariant.LF_DIL, n=1, d=d))
        assert plan.short_out == plan.long_out == d // 2


def test_plan_general_ratio_reduces_to_half_formulas():
    for d in (97, 256):
        for n in (1, 2, 3, 5):
            plan = plan_channels(cfg_for(FusionVariant.LF_DIL, n=n, d=d, ratio=0.5))
            assert plan.short_out == d // 2
            assert plan.long_out == d // (2 * n)


def test_plan_total_never_exceeds_d_exhaustive():
    for variant in ALL_VARIANTS:
        for d in range(2, 4097):
            for n in range(1, 9):
                for r in (0.25, 0.5, 0.75):
                    plan = plan_channels(cfg_for(variant, n=n, d=d, ratio=r))
                    assert plan.pre_projection_total <= d


def test_invalid_configs():
    with pytest.raises(InvalidConfig):
        cfg_for(FusionVariant.LF_DIL, ratio=0.0)
    with pytest.raises(InvalidConfig):
        cfg_for(FusionVariant.LF_DIL, ratio=1.0)
    with pytest.raises(InvalidConfig):
        cfg_for(FusionVariant.LF_DIL, n=0)
    with pytest.raises(InvalidConfig):
        cfg_for(FusionVariant.LF_DIL, d=1)


# ---------------------------------------------------------- init_weights


def test_seed_zero_gives_all_zero_weights():
    cfg = default_config(64)
    w = init_weights(cfg, plan_channels(cfg), seed=0)
    for proj in (w.short_proj, w.long_proj, w.output_proj):
        assert proj is not None
        assert np.all(proj.matrix == 0.0) and np.all(proj.bias == 0.0)


def test_same_seed_is_bit_identical():
    cfg = default_config(48)
    plan = plan_channels(cfg)
    w1, w2 = init_weights(cfg, plan, 123), init_weights(cfg, plan, 123)
    assert np.array_equal(w1.short_proj.matrix, w2.short_proj.matrix)
    assert np.array_equal(w1.long_proj.bias, w2.long_proj.bias)
    w3 = init_weights(cfg, plan, 124)
    assert not np.array_equal(w1.short_proj.matrix, w3.short_proj.matrix)


def test_weight_shapes_small_model_finest_level():
    cfg = default_config(128)
    w = init_weights(cfg, plan_channels(cfg), seed=7)
    assert w.short_proj.matrix.shape == (64, 128)
    assert w.long_proj.matrix.shape == (21, 128)
    assert w.output_proj is not None  # 64 + 3*21 = 127 < 128
    assert w.output_proj.matrix.shape == (128, 127)


def test_weight_presence_pattern():
    for variant, has_short, has_long in [
        (FusionVariant.EF_AVG, False, False),
        (FusionVariant.EF_DIL, True, True),
        (FusionVariant.LF_AVG, False, True),
        (FusionVariant.LF_DIL, True, True),
    ]:
        cfg = cfg_for(variant, d=24)
        w = init_weights(cfg, plan_channels(cfg), seed=5)
        assert (w.short_proj is not None) == has_short
        assert (w.long_proj is not None) == has_long


# sha256 of each variant's init_weights matrix and bias bytes, slot by slot
# (short, long, output), at N=3 and seed 2024: a changed draw order or shape
# changes them.  EfAvg has no weights, so its digest is that of no bytes.
WEIGHT_DIGESTS = {
    (FusionVariant.EF_AVG, 9): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (FusionVariant.EF_DIL, 9): "d8c783c8cdf37f5f996dd18a5c18e64acbefa617f4e1066580fdd77882b8c928",
    (FusionVariant.LF_AVG, 9): "9060c76b4cd954048aba8663b9e5e032e4751f604eee02ae0bcce631208fc8c1",
    (FusionVariant.LF_DIL, 9): "b4410df2bc082446a26c0bec82eadf1df81f66c6c6c9f2c3c542fcc5683a983e",
    (FusionVariant.EF_AVG, 128): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    (FusionVariant.EF_DIL, 128): "eb31b3ed450b081ac3880ec3a0d9e9c6bec799eb76cfa89f8c90c27617bf592b",
    (FusionVariant.LF_AVG, 128): "a23552486df06451b67c153df7f33d3c81aed1d09a948c1c3a44519c8b96d465",
    (FusionVariant.LF_DIL, 128): "9c53b7153ef994d65cc995e05b12df59d211581a22d96c5cc1ae68d8ed52a1c4",
}


@pytest.mark.parametrize("variant, d", sorted(WEIGHT_DIGESTS, key=lambda k: (k[0].value, k[1])))
def test_init_weights_draws_are_pinned(variant, d):
    cfg = cfg_for(variant, n=3, d=d)
    w = init_weights(cfg, plan_channels(cfg), seed=2024)
    digest = hashlib.sha256()
    for proj in (w.short_proj, w.long_proj, w.output_proj):
        if proj is not None:
            digest.update(proj.matrix.tobytes())
            digest.update(proj.bias.tobytes())
    assert digest.hexdigest() == WEIGHT_DIGESTS[(variant, d)]


# ------------------------------------------------------------------ fuse


def test_fuse_avg_early_constant_sum():
    current = np.full((4, 2, 2), 4.0)
    history = [np.full((4, 2, 2), v) for v in (1.0, 2.0, 3.0)]
    cfg = cfg_for(FusionVariant.EF_AVG, n=3, d=4)
    out = fuse(cfg, init_weights(cfg, plan_channels(cfg), 0), current, history)
    assert np.all(out == 10.0)
    # the residual flag changes nothing for the plain-sum variant
    cfg_off = cfg_for(FusionVariant.EF_AVG, n=3, d=4, residual=False)
    out_off = fuse(cfg_off, init_weights(cfg_off, plan_channels(cfg_off), 0), current, history)
    assert np.array_equal(out_off, out)


def test_fuse_zero_weights_is_residual_identity():
    rng = np.random.default_rng(20)
    for variant in (FusionVariant.EF_DIL, FusionVariant.LF_AVG, FusionVariant.LF_DIL):
        cfg = cfg_for(variant, n=3, d=10)
        w = init_weights(cfg, plan_channels(cfg), seed=0)
        current = random_map(rng, 10, 2, 3)
        history = [random_map(rng, 10, 2, 3) for _ in range(3)]
        out = fuse(cfg, w, current, history)
        assert np.array_equal(out, current), variant
        cfg_off = cfg_for(variant, n=3, d=10, residual=False)
        out_off = fuse(cfg_off, init_weights(cfg_off, plan_channels(cfg_off), 0), current, history)
        assert np.all(out_off == 0.0), variant


def test_fuse_matches_naive_loop_oracle():
    rng = np.random.default_rng(21)
    cfg = cfg_for(FusionVariant.LF_DIL, n=3, d=8)
    w = init_weights(cfg, plan_channels(cfg), seed=7)
    current = random_map(rng, 8, 2, 2)
    history = [random_map(rng, 8, 2, 2) for _ in range(3)]
    got = fuse(cfg, w, current, history)
    want = np.array(naive_fuse(cfg, w, arr3(current), [arr3(m) for m in history]))
    assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


def test_fuse_oracle_agreement_across_variants_and_shapes():
    rng = np.random.default_rng(22)
    for variant in ALL_VARIANTS:
        for n in (1, 2, 4):
            for d, (h, w_) in ((8, (2, 3)), (16, (1, 2))):
                cfg = cfg_for(variant, n=n, d=d)
                w = init_weights(cfg, plan_channels(cfg), seed=int(rng.integers(1, 1 << 30)))
                current = random_map(rng, d, h, w_)
                history = [random_map(rng, d, h, w_) for _ in range(n)]
                got = fuse(cfg, w, current, history)
                want = np.array(naive_fuse(cfg, w, arr3(current), [arr3(m) for m in history]))
                assert np.allclose(got, want, rtol=1e-6, atol=1e-9), (variant, n, d)


def kernel_cases(rng, n_random):
    """(variant, n_history, d, ratio, residual): the corner cases first, then
    random draws over every variant, N in 1-5 and ratios in (0, 1)."""
    yield FusionVariant.EF_DIL, 1, 9, 0.5, True  # sum() of one map is that map
    yield FusionVariant.EF_DIL, 1, 8, 0.5, False
    yield FusionVariant.LF_DIL, 3, 8, 0.1, True  # short branch floors to 0
    yield FusionVariant.LF_DIL, 5, 6, 0.5, False  # long branch floors to 0
    yield FusionVariant.LF_DIL, 5, 4, 0.2, True  # both: nothing to concatenate
    yield FusionVariant.LF_AVG, 4, 3, 0.5, True  # LfAvg width floors to 0
    for _ in range(n_random):
        yield (ALL_VARIANTS[int(rng.integers(len(ALL_VARIANTS)))], int(rng.integers(1, 6)),
               int(rng.integers(2, 25)), float(rng.uniform(0.01, 0.99)), bool(rng.random() < 0.5))


def test_fuse_projected_matches_the_concatenating_reference_bit_for_bit():
    rng = np.random.default_rng(77)
    for variant, n, d, ratio, residual in kernel_cases(rng, 150):
        cfg = cfg_for(variant, n=n, d=d, ratio=ratio, residual=residual)
        w = init_weights(cfg, plan_channels(cfg), seed=int(rng.integers(1, 1000)))
        height, width = (int(v) for v in rng.integers(1, 7, size=2))
        current = rng.standard_normal((d, height, width))
        projected_current = project_history(cfg, w, current)
        raw = [rng.standard_normal((d, height, width)) for _ in range(n)]
        projected = [project_history(cfg, w, m) for m in raw]
        inputs = [current, projected_current, *projected]
        before = [m.copy() for m in inputs]
        got = fuse_projected(cfg, w, current, projected_current, projected)
        want = reference_fuse_projected(cfg, w, current, projected_current, projected)
        case = (variant, n, d, ratio, residual)
        assert got.shape == (d, height, width), case
        assert np.array_equal(got, want), case
        assert all(np.array_equal(m, b) for m, b in zip(inputs, before)), case
        assert not any(np.shares_memory(got, m) for m in inputs), case
        # lent arrays holding a previous frame's values (NaN here) give the same bits
        plan = plan_channels(cfg)
        out = np.full_like(projected[0], np.nan)
        assert np.array_equal(project_history(cfg, w, raw[0], out=out), projected[0]), case
        workspace = np.full((plan.pre_projection_total, height, width), np.nan)
        lent = fuse_projected(cfg, w, current, projected_current, projected, workspace)
        assert np.array_equal(lent, want), case
        assert not np.shares_memory(lent, workspace), case


def test_fuse_output_shape_always_d():
    rng = np.random.default_rng(23)
    for _ in range(25):
        variant = ALL_VARIANTS[rng.integers(0, 4)]
        n = int(rng.integers(1, 6))
        d = int(rng.integers(2, 40))
        h, w_ = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        ratio = float(rng.choice([0.25, 0.5, 0.75]))
        residual = bool(rng.integers(0, 2))
        cfg = cfg_for(variant, n=n, d=d, ratio=ratio, residual=residual)
        weights = init_weights(cfg, plan_channels(cfg), seed=3)
        current = random_map(rng, d, h, w_)
        history = [random_map(rng, d, h, w_) for _ in range(n)]
        assert fuse(cfg, weights, current, history).shape == (d, h, w_)


def test_fuse_history_order_sensitivity():
    rng = np.random.default_rng(24)
    d, n = 12, 3
    # integer-valued maps keep the permutation-insensitive cases exact
    make = lambda: rng.integers(-4, 5, size=(d, 2, 2)).astype(float)
    current = make()
    history = [make() for _ in range(n)]
    swapped = [history[1], history[0], history[2]]
    for variant in (FusionVariant.LF_DIL, FusionVariant.LF_AVG):
        cfg = cfg_for(variant, n=n, d=d)
        w = init_weights(cfg, plan_channels(cfg), seed=9)
        a = fuse(cfg, w, current, history)
        b = fuse(cfg, w, current, swapped)
        assert not np.array_equal(a, b), variant
    for variant in (FusionVariant.EF_AVG, FusionVariant.EF_DIL):
        cfg = cfg_for(variant, n=n, d=d)
        w = init_weights(cfg, plan_channels(cfg), seed=9)
        a = fuse(cfg, w, current, history)
        b = fuse(cfg, w, current, swapped)
        assert np.array_equal(a, b), variant


def test_fuse_errors():
    cfg = cfg_for(FusionVariant.LF_DIL, n=2, d=6)
    w = init_weights(cfg, plan_channels(cfg), 0)
    current = np.zeros((6, 2, 2))
    with pytest.raises(HistoryLengthMismatch):
        fuse(cfg, w, current, [current])
    with pytest.raises(ShapeMismatch):
        fuse(cfg, w, current, [current, np.zeros((6, 3, 2))])
    with pytest.raises(ShapeMismatch):
        fuse(cfg, w, np.zeros((5, 2, 2)), [current, current])
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = current.copy()
        poisoned[3, 1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fuse(cfg, w, poisoned, [current, current])
        with pytest.raises(ValueError, match="non-finite"):
            fuse(cfg, w, current, [current, poisoned])
    with pytest.raises(ShapeMismatch):
        fuse(cfg, w, np.zeros((6, 2)), [np.zeros((6, 2)), np.zeros((6, 2))])
    with pytest.raises(ShapeMismatch):
        fuse(cfg, w, current, [current, np.zeros((6, 2))])


# ----------------------------------------------------------------- flops


def test_flops_avg_early_hand_count():
    cfg = cfg_for(FusionVariant.EF_AVG, n=3, d=4)
    assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == 12  # 3 adds x 4 channels


def test_flops_dilated_late_hand_expansion():
    cfg = cfg_for(FusionVariant.LF_DIL, n=3, d=128)
    plan = plan_channels(cfg)
    want = 2 * (128 * 64 + 3 * 128 * 21 + 127 * 128) + 128
    assert count_fusion_flops(cfg, plan, 1, 1) == want


def test_flops_scale_quadratically_with_spatial_size():
    for variant in ALL_VARIANTS:
        cfg = cfg_for(variant, n=2, d=30)
        plan = plan_channels(cfg)
        base = count_fusion_flops(cfg, plan, 3, 5)
        for k in (2, 3, 7):
            assert count_fusion_flops(cfg, plan, 3 * k, 5 * k) == k * k * base


def test_flops_monotone_in_history_for_early_fusion():
    for variant in (FusionVariant.EF_AVG, FusionVariant.EF_DIL):
        for d in (16, 64, 129):
            prev = -1
            for n in range(1, 9):
                cfg = cfg_for(variant, n=n, d=d)
                val = count_fusion_flops(cfg, plan_channels(cfg), 4, 4)
                assert val > prev, (variant, d, n)
                prev = val


def test_flops_early_dilated_hand_count_with_and_without_residual():
    # d=9: short and long 4 each, 8 concatenated rows projected back to 9;
    # the three projected history maps are summed with two adds
    for residual, adds in ((True, 2 + 1), (False, 2)):
        cfg = cfg_for(FusionVariant.EF_DIL, n=3, d=9, residual=residual)
        want = 2 * (9 * 4 + 3 * 9 * 4 + 8 * 9) + adds * 9
        assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == want, residual


def test_flops_averaged_late_hand_count_with_and_without_residual():
    # d=9: the shared projection maps each of the 4 frames to 2 rows, and
    # the 8 concatenated rows are projected back to 9
    for residual, adds in ((True, 1), (False, 0)):
        cfg = cfg_for(FusionVariant.LF_AVG, n=3, d=9, residual=residual)
        want = 2 * (4 * 9 * 2 + 8 * 9) + adds * 9
        assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == want, residual


def test_flops_hand_count_with_zero_width_branches():
    # LfAvg with d < N + 1: every branch floors to zero width, leaving the residual alone
    for residual, want in ((True, 3), (False, 0)):
        cfg = cfg_for(FusionVariant.LF_AVG, n=3, d=3, residual=residual)
        assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == want, residual
    # LfDil at ratio 0.1, d=8: no short branch, three long maps of 2 rows each, 6 rows projected back to 8
    cfg = cfg_for(FusionVariant.LF_DIL, n=3, d=8, ratio=0.1)
    assert count_fusion_flops(cfg, plan_channels(cfg), 1, 1) == 2 * (3 * 8 * 2 + 6 * 8) + 8


def test_fusion_settings_round_trip():
    def parse(fusion):
        return run_config_from_dict({"scene_name": "uniform", "fusion": fusion}).fusion

    data = {"variant": "EfDil", "n_history": 2, "delta_t": 2, "ratio": 0.25, "residual": False}
    want = FusionSettings(FusionVariant.EF_DIL, n_history=2, delta_t=2, ratio=0.25, residual=False)
    assert parse(data) == want
    with pytest.raises(InvalidConfig, match=r"unknown fusion key 'bogus'"):
        parse({"variant": "LfDil", "bogus": 1})
    with pytest.raises(InvalidConfig, match="NoSuch"):
        parse({"variant": "NoSuch"})
