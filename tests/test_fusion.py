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
    assert w.avg_proj is None


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
    for variant, has_short, has_avg in [
        (FusionVariant.EF_AVG, False, False),
        (FusionVariant.EF_DIL, True, False),
        (FusionVariant.LF_AVG, False, True),
        (FusionVariant.LF_DIL, True, False),
    ]:
        cfg = cfg_for(variant, d=24)
        w = init_weights(cfg, plan_channels(cfg), seed=5)
        assert (w.short_proj is not None) == has_short
        assert (w.long_proj is not None) == has_short
        assert (w.avg_proj is not None) == has_avg


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
        projected = [project_history(cfg, w, rng.standard_normal((d, height, width))) for _ in range(n)]
        inputs = [current, projected_current, *projected]
        before = [m.copy() for m in inputs]
        got = fuse_projected(cfg, w, current, projected_current, projected)
        want = reference_fuse_projected(cfg, w, current, projected_current, projected)
        case = (variant, n, d, ratio, residual)
        assert got.shape == (d, height, width), case
        assert np.array_equal(got, want), case
        assert all(np.array_equal(m, b) for m, b in zip(inputs, before)), case
        assert not any(np.shares_memory(got, m) for m in inputs), case


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
