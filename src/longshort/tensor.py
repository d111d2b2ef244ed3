"""Dense feature-map arithmetic.

The fusion math only ever needs three tensor operations on feature maps:
channel-wise concatenation, elementwise addition, and 1x1 convolution
(a per-site channel projection).  Everything is float64 and channel-major,
so concatenation is a contiguous block copy and results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


class EmptyInput(ValueError):
    """An operation over a list of maps received an empty list."""


class ShapeMismatch(ValueError):
    """Operands do not share the required shape."""


class SpatialMismatch(ShapeMismatch):
    """Maps to concatenate disagree on height or width."""


class ChannelMismatch(ShapeMismatch):
    """Projection input width does not match the map's channel count."""


@dataclass(frozen=True)
class FeatureMap:
    """A dense C x H x W feature map, stored flat in (channel, row, col) order.

    Treated as immutable: all operations return new maps.
    """

    channels: int
    height: int
    width: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.channels <= 0 or self.height <= 0 or self.width <= 0:
            raise ShapeMismatch(
                f"dimensions must be positive, got {self.channels}x{self.height}x{self.width}"
            )
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if vals.size != self.channels * self.height * self.width:
            raise ShapeMismatch(
                f"expected {self.channels * self.height * self.width} values, got {vals.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature map contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.channels, self.height, self.width)

    def to_array(self) -> np.ndarray:
        """View as a (C, H, W) array."""
        return self.values.reshape(self.channels, self.height, self.width)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "FeatureMap":
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 3:
            raise ShapeMismatch(f"expected a 3-d array, got ndim={arr.ndim}")
        c, h, w = arr.shape
        return cls(channels=c, height=h, width=w, values=arr.ravel())

    @classmethod
    def full(cls, channels: int, height: int, width: int, value: float) -> "FeatureMap":
        return cls(channels, height, width, np.full(channels * height * width, float(value)))

    @classmethod
    def zeros(cls, channels: int, height: int, width: int) -> "FeatureMap":
        return cls.full(channels, height, width, 0.0)


@dataclass(frozen=True)
class ProjectionWeights:
    """Weights of a 1x1 convolution: out = matrix @ in + bias at every site.

    Bias is always present; a "no bias" projection carries an all-zero bias.
    """

    out_channels: int
    in_channels: int
    matrix: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=np.float64)
        b = np.asarray(self.bias, dtype=np.float64).ravel()
        if mat.shape != (self.out_channels, self.in_channels):
            raise ShapeMismatch(
                f"matrix shape {mat.shape} != ({self.out_channels}, {self.in_channels})"
            )
        if b.size != self.out_channels:
            raise ShapeMismatch(f"bias length {b.size} != {self.out_channels}")
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "bias", b)


def concat_channels(maps: Sequence[FeatureMap]) -> FeatureMap:
    """Concatenate maps along the channel axis, preserving list order."""
    if len(maps) == 0:
        raise EmptyInput("concat_channels needs at least one map")
    h, w = maps[0].height, maps[0].width
    for m in maps[1:]:
        if m.height != h or m.width != w:
            raise SpatialMismatch(
                f"spatial dims {m.height}x{m.width} != {h}x{w}"
            )
    total = sum(m.channels for m in maps)
    out = np.concatenate([m.to_array() for m in maps], axis=0)
    return FeatureMap(total, h, w, out.ravel())


def add_elementwise(a: FeatureMap, b: FeatureMap) -> FeatureMap:
    if a.shape != b.shape:
        raise ShapeMismatch(f"shape {a.shape} != {b.shape}")
    return FeatureMap(a.channels, a.height, a.width, a.values + b.values)


def sum_maps(maps: Sequence[FeatureMap]) -> FeatureMap:
    """Elementwise sum with a fixed left-to-right reduction order."""
    if len(maps) == 0:
        raise EmptyInput("sum_maps needs at least one map")
    acc = maps[0]
    for m in maps[1:]:
        acc = add_elementwise(acc, m)
    return acc


def project_1x1(fmap: FeatureMap, w: ProjectionWeights) -> FeatureMap:
    """Apply a channel projection at every spatial site."""
    if fmap.channels != w.in_channels:
        raise ChannelMismatch(f"map has {fmap.channels} channels, weights expect {w.in_channels}")
    flat = fmap.values.reshape(fmap.channels, fmap.height * fmap.width)
    out = w.matrix @ flat + w.bias[:, None]
    return FeatureMap(w.out_channels, fmap.height, fmap.width, out.ravel())
