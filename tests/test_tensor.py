import numpy as np
import pytest

from longshort.tensor import (
    ChannelMismatch,
    EmptyInput,
    FeatureMap,
    ProjectionWeights,
    ShapeMismatch,
    SpatialMismatch,
    add_elementwise,
    concat_channels,
    project_1x1,
    sum_maps,
)
from oracles import arr3, naive_add, naive_concat, naive_project, naive_sum


def random_map(rng, c, h, w):
    return FeatureMap.from_array(rng.standard_normal((c, h, w)))


# ------------------------------------------------------------ concat


def test_concat_singleton_is_identity():
    m = FeatureMap.from_array(np.arange(12.0).reshape(3, 2, 2))
    out = concat_channels([m])
    assert out.shape == m.shape
    assert np.array_equal(out.values, m.values)


def test_concat_two_scalars():
    a = FeatureMap(1, 1, 1, np.array([4.5]))
    b = FeatureMap(1, 1, 1, np.array([-2.0]))
    out = concat_channels([a, b])
    assert out.shape == (2, 1, 1)
    assert out.values.tolist() == [4.5, -2.0]


def test_concat_matches_naive_loop_oracle():
    rng = np.random.default_rng(11)
    maps = [random_map(rng, 4, 3, 5) for _ in range(3)]
    out = concat_channels(maps)
    assert out.shape == (12, 3, 5)
    assert out.to_array().tolist() == naive_concat([arr3(m) for m in maps])


def test_concat_is_associative_over_groupings():
    rng = np.random.default_rng(3)
    a, b, c = (random_map(rng, i + 1, 2, 2) for i in range(3))
    left = concat_channels([concat_channels([a, b]), c])
    flat = concat_channels([a, b, c])
    assert np.array_equal(left.values, flat.values)


def test_concat_errors():
    with pytest.raises(EmptyInput):
        concat_channels([])
    a = FeatureMap.zeros(1, 2, 2)
    b = FeatureMap.zeros(1, 3, 2)
    with pytest.raises(SpatialMismatch):
        concat_channels([a, b])


# --------------------------------------------------------------- add/sum


def test_add_zero_and_negation():
    rng = np.random.default_rng(5)
    m = random_map(rng, 2, 3, 3)
    zeros = FeatureMap.zeros(2, 3, 3)
    assert np.array_equal(add_elementwise(m, zeros).values, m.values)
    neg = FeatureMap(2, 3, 3, -m.values)
    assert np.all(add_elementwise(m, neg).values == 0.0)


def test_add_matches_scalar_loop_oracle():
    rng = np.random.default_rng(6)
    a, b = random_map(rng, 3, 2, 4), random_map(rng, 3, 2, 4)
    assert add_elementwise(a, b).to_array().tolist() == naive_add(arr3(a), arr3(b))


def test_add_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        add_elementwise(FeatureMap.zeros(1, 2, 2), FeatureMap.zeros(2, 2, 2))


def test_sum_constant_maps():
    maps = [FeatureMap.full(2, 2, 2, v) for v in (1, 2, 3, 4)]
    out = sum_maps(maps)
    assert np.all(out.values == 10.0)


def test_sum_singleton_and_empty():
    m = FeatureMap.full(1, 1, 1, 7.0)
    assert np.array_equal(sum_maps([m]).values, m.values)
    with pytest.raises(EmptyInput):
        sum_maps([])


def test_sum_matches_oracle():
    rng = np.random.default_rng(7)
    maps = [random_map(rng, 2, 3, 2) for _ in range(4)]
    assert sum_maps(maps).to_array().tolist() == naive_sum([arr3(m) for m in maps])


def test_sum_of_k_copies_is_k_times_m():
    m = FeatureMap.from_array(np.arange(-4.0, 4.0).reshape(2, 2, 2))
    for k in (2, 3, 5):
        out = sum_maps([m] * k)
        assert np.array_equal(out.values, k * m.values)


# --------------------------------------------------------------- project


def test_project_identity_and_zero():
    rng = np.random.default_rng(8)
    m = random_map(rng, 4, 2, 3)
    ident = ProjectionWeights(4, 4, np.eye(4), np.zeros(4))
    assert np.array_equal(project_1x1(m, ident).values, m.values)
    zero = ProjectionWeights(6, 4, np.zeros((6, 4)), np.zeros(6))
    out = project_1x1(m, zero)
    assert out.shape == (6, 2, 3)
    assert np.all(out.values == 0.0)


def test_project_matches_per_site_matvec_oracle():
    rng = np.random.default_rng(9)
    m = random_map(rng, 8, 2, 2)
    w = ProjectionWeights(3, 8, rng.standard_normal((3, 8)), rng.standard_normal(3))
    got = project_1x1(m, w).to_array()
    want = np.array(naive_project(arr3(m), w.matrix.tolist(), w.bias.tolist()))
    assert np.allclose(got, want, rtol=1e-6, atol=1e-12)


def test_project_is_linear():
    rng = np.random.default_rng(10)
    a, b = random_map(rng, 5, 2, 2), random_map(rng, 5, 2, 2)
    w = ProjectionWeights(3, 5, rng.standard_normal((3, 5)), np.zeros(3))
    alpha, beta = 2.5, -1.25
    combo = FeatureMap(5, 2, 2, alpha * a.values + beta * b.values)
    lhs = project_1x1(combo, w).values
    rhs = alpha * project_1x1(a, w).values + beta * project_1x1(b, w).values
    assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


def test_project_channel_mismatch():
    w = ProjectionWeights(2, 3, np.zeros((2, 3)), np.zeros(2))
    with pytest.raises(ChannelMismatch):
        project_1x1(FeatureMap.zeros(4, 1, 1), w)


# ------------------------------------------------------------ validation


def test_feature_map_invariants():
    with pytest.raises(ShapeMismatch):
        FeatureMap(2, 2, 2, np.zeros(7))
    with pytest.raises(ValueError):
        FeatureMap(1, 1, 2, np.array([1.0, np.nan]))
    with pytest.raises(ShapeMismatch):
        FeatureMap(0, 1, 1, np.zeros(0))


def test_projection_weight_invariants():
    with pytest.raises(ShapeMismatch):
        ProjectionWeights(2, 3, np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ShapeMismatch):
        ProjectionWeights(2, 3, np.zeros((2, 3)), np.zeros(3))
