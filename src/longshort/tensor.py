"""1x1 convolution on dense feature maps.

A feature map is a plain C-contiguous (C, H, W) float64 numpy array.  The
fusion math needs three operations on maps: channel-wise concatenation and
elementwise addition, which are numpy's own, and the 1x1 convolution (a
per-site channel projection) defined here with its weights.  as_feature_map
checks a map where it enters, so the operations on it need not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


class ShapeMismatch(ValueError):
    """An array has the wrong shape for its use: a map's dimensions or
    channels, or the length of a fusion history."""


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


def as_feature_map(fmap) -> np.ndarray:
    """Check a value entering as a feature map and return it as a float64
    array: it must be 3-d (C, H, W) with every dimension positive and hold
    only finite values."""
    arr = np.asarray(fmap, dtype=np.float64)
    if arr.ndim != 3:
        raise ShapeMismatch(f"expected a 3-d (C, H, W) map, got ndim={arr.ndim}")
    if min(arr.shape) <= 0:
        raise ShapeMismatch(f"map dimensions must be positive, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("feature map contains non-finite values")
    return arr


def project_1x1(fmap: np.ndarray, w: ProjectionWeights, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply a channel projection at every spatial site of a (C, H, W) map.

    With out, a C-contiguous float64 (out_channels, H, W) array such as a
    row slice of a larger map, the result is written into it (the bias is
    added in place) and out is returned; the values are those of the call
    without it."""
    channels, height, width = fmap.shape
    if channels != w.in_channels:
        raise ShapeMismatch(f"map has {channels} channels, weights expect {w.in_channels}")
    shape = (w.out_channels, height, width)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ShapeMismatch(f"out must be a C-contiguous float64 array of shape {shape}")
    flat = out.reshape(w.out_channels, height * width)
    np.matmul(w.matrix, fmap.reshape(channels, height * width), out=flat)
    flat += w.bias[:, None]
    return out
