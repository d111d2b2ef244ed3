import numpy as np
import pytest

from longshort.fusion import FusionSettings, FusionVariant, fuse, init_weights, plan_channels
from longshort.tensor import ProjectionWeights, ShapeMismatch, as_feature_map, project_1x1
from oracles import arr3, naive_add, naive_concat, naive_project, naive_sum


def random_map(rng, c, h, w):
    return rng.standard_normal((c, h, w))


def fusion_case(variant, d, seed, residual=False, n=3):
    cfg = FusionSettings(variant, n_history=n, delta_t=1, d=d, residual=residual)
    return cfg, init_weights(cfg, plan_channels(cfg), seed)


# Concatenation, addition and summation of maps are numpy's own; fusion is
# where they happen, so they are checked through fuse(), bit for bit against
# the loop oracles rather than within a tolerance.

# ------------------------------------------------------------ concat


def test_concat_matches_naive_loop_oracle():
    # LfDil at d=12, N=3 fills d exactly (6 + 3 * 2): no output projection,
    # so the output is the concatenation itself, short first, then history
    # most-recent-first.
    rng = np.random.default_rng(11)
    current = random_map(rng, 12, 3, 5)
    history = [random_map(rng, 12, 3, 5) for _ in range(3)]
    cfg, w = fusion_case(FusionVariant.LF_DIL, 12, 14)
    assert not plan_channels(cfg).needs_output_projection
    blocks = [arr3(project_1x1(current, w.short_proj))]
    blocks += [arr3(project_1x1(m, w.long_proj)) for m in history]
    out = fuse(cfg, w, current, history)
    assert out.shape == (12, 3, 5)
    assert out.tolist() == naive_concat(blocks)


# --------------------------------------------------------------- add/sum


def test_add_matches_scalar_loop_oracle():
    # The residual adds the current map to the fused branches.
    rng = np.random.default_rng(6)
    current = random_map(rng, 12, 2, 4)
    history = [random_map(rng, 12, 2, 4) for _ in range(3)]
    cfg_off, w = fusion_case(FusionVariant.LF_DIL, 12, 15)
    cfg_on = FusionSettings(FusionVariant.LF_DIL, n_history=3, delta_t=1, d=12, residual=True)
    branches = fuse(cfg_off, w, current, history)
    got = fuse(cfg_on, w, current, history)
    assert got.tolist() == naive_add(arr3(branches), arr3(current))


def test_sum_matches_oracle():
    # Sums run left to right: EfAvg over current then history, EfDil's long
    # branch over the projected history.
    rng = np.random.default_rng(7)
    current = random_map(rng, 8, 3, 2)
    history = [random_map(rng, 8, 3, 2) for _ in range(3)]
    cfg, w = fusion_case(FusionVariant.EF_AVG, 8, 0)
    got = fuse(cfg, w, current, history)
    assert got.tolist() == naive_sum([arr3(m) for m in [current, *history]])
    # EfDil at d=8 fills d exactly (4 + 4), so there is no output projection
    cfg, w = fusion_case(FusionVariant.EF_DIL, 8, 13)
    assert not plan_channels(cfg).needs_output_projection
    long = [arr3(project_1x1(m, w.long_proj)) for m in history]
    want = naive_concat([arr3(project_1x1(current, w.short_proj)), naive_sum(long)])
    assert fuse(cfg, w, current, history).tolist() == want


# --------------------------------------------------------------- project


def test_project_identity_and_zero():
    rng = np.random.default_rng(8)
    m = random_map(rng, 4, 2, 3)
    ident = ProjectionWeights(4, 4, np.eye(4), np.zeros(4))
    assert np.array_equal(project_1x1(m, ident), m)
    zero = ProjectionWeights(6, 4, np.zeros((6, 4)), np.zeros(6))
    out = project_1x1(m, zero)
    assert out.shape == (6, 2, 3)
    assert np.all(out == 0.0)


def test_project_matches_per_site_matvec_oracle():
    rng = np.random.default_rng(9)
    m = random_map(rng, 8, 2, 2)
    w = ProjectionWeights(3, 8, rng.standard_normal((3, 8)), rng.standard_normal(3))
    got = project_1x1(m, w)
    want = np.array(naive_project(arr3(m), w.matrix.tolist(), w.bias.tolist()))
    assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_project_is_linear():
    rng = np.random.default_rng(10)
    a, b = random_map(rng, 5, 2, 2), random_map(rng, 5, 2, 2)
    w = ProjectionWeights(3, 5, rng.standard_normal((3, 5)), np.zeros(3))
    alpha, beta = 2.5, -1.25
    combo = alpha * a + beta * b
    lhs = project_1x1(combo, w)
    rhs = alpha * project_1x1(a, w) + beta * project_1x1(b, w)
    assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


def test_project_into_a_row_slice_returns_that_view_bit_equal():
    rng = np.random.default_rng(8)
    x = random_map(rng, 6, 4, 5)
    w = ProjectionWeights(3, 6, rng.standard_normal((3, 6)), rng.standard_normal(3))
    big = np.full((8, 4, 5), 7.0)
    view = big[2:5]
    got = project_1x1(x, w, out=view)
    assert got is view
    assert np.array_equal(got, project_1x1(x, w))
    assert np.array_equal(big[:2], np.full((2, 4, 5), 7.0)) and np.array_equal(big[5:], np.full((3, 4, 5), 7.0))
    for bad in (np.empty((2, 4, 5)), np.empty((3, 4, 10))[:, :, ::2], np.empty((3, 4, 5), dtype=np.float32)):
        with pytest.raises(ShapeMismatch):
            project_1x1(x, w, out=bad)


def test_project_channel_mismatch():
    w = ProjectionWeights(2, 3, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ShapeMismatch, match="map has 4 channels, weights expect 3"):
        project_1x1(np.zeros((4, 1, 1)), w)


# ------------------------------------------------------------ validation


def test_feature_map_invariants():
    m = np.arange(12.0).reshape(3, 2, 2)
    assert np.array_equal(as_feature_map(m), m)
    assert as_feature_map(m.astype(np.int64)).dtype == np.float64
    with pytest.raises(ShapeMismatch):
        as_feature_map(np.zeros(7))
    with pytest.raises(ShapeMismatch):
        as_feature_map(np.zeros((2, 2)))
    with pytest.raises(ShapeMismatch):
        as_feature_map(np.zeros((0, 1, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        poisoned = np.zeros((1, 1, 2))
        poisoned[0, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            as_feature_map(poisoned)


def test_projection_weight_invariants():
    with pytest.raises(ShapeMismatch):
        ProjectionWeights(2, 3, np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        ProjectionWeights(2, 3, np.zeros((2, 3)), np.zeros(3))
