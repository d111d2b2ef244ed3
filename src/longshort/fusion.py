"""Long-short feature fusion.

Four fusion schemes combine the current frame's feature map with N buffered
historical maps, all of width d:

  EfAvg  - plain sum of all N+1 maps.
  EfDil  - project current and summed history separately, then concatenate.
  LfAvg  - one shared projection applied to every frame, concatenate all.
  LfDil  - wide projection for the current frame, narrow shared projection
           per history frame, concatenate.

Channel widths follow floor arithmetic on d, so the concatenated width can
fall short of d; a final 1x1 projection then restores d.  A residual
connection adds the current map back after that projection.

Maps are plain (C, H, W) float64 arrays.  fuse() checks its inputs' shapes
and finiteness; fuse_projected() trusts them, so the network's hot path
runs no per-operation check (its extractor checks each frame's pixels).

fuse_projected() allocates one buffer per call, as wide as the branches'
concatenation: the short projection is written straight into its first
rows (project_1x1 with out=), the projected history is copied into the rows
after it, and the EfDil history sum and the EfAvg sum accumulate in place,
left to right.  The output projection reads that buffer, and the residual is
added in place.  Only arrays the call allocated are written: never the
current map or a history map, which the network's buffer keeps (for EfAvg,
whose history projection is the identity, those are the extractor's maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .tensor import ProjectionWeights, ShapeMismatch, as_feature_map, project_1x1


class InvalidConfig(ValueError):
    """Fusion configuration violates its constraints."""


class HistoryLengthMismatch(ValueError):
    """fuse() received a history list whose length differs from n_history."""


class FusionVariant(Enum):
    EF_AVG = "EfAvg"
    EF_DIL = "EfDil"
    LF_AVG = "LfAvg"
    LF_DIL = "LfDil"

    @classmethod
    def parse(cls, name: str) -> "FusionVariant":
        for v in cls:
            if v.value == name:
                return v
        raise InvalidConfig(f"unknown fusion variant {name!r}")


@dataclass(frozen=True)
class LsfmConfig:
    """Fusion configuration: variant, temporal range (N, delta_t), channel
    width d, dilation channel ratio, and the residual switch."""

    variant: FusionVariant
    n_history: int
    delta_t: int
    d: int
    ratio: float = 0.5
    residual: bool = True

    def __post_init__(self):
        _check_range(self, min_history=1)
        if self.d < 2:
            raise InvalidConfig(f"d must be >= 2, got {self.d}")


def _check_range(cfg, min_history: int) -> None:
    """The checks LsfmConfig and FusionSettings share."""
    if not (0.0 < cfg.ratio < 1.0):
        raise InvalidConfig(f"ratio must lie in (0, 1), got {cfg.ratio}")
    if cfg.n_history < min_history:
        raise InvalidConfig(f"n_history must be >= {min_history}, got {cfg.n_history}")
    if cfg.delta_t < 1:
        raise InvalidConfig(f"delta_t must be >= 1, got {cfg.delta_t}")


def default_config(d: int) -> LsfmConfig:
    """The configuration used throughout unless overridden: dilated late
    fusion, three history frames at stride 1, ratio 0.5, residual on."""
    return LsfmConfig(FusionVariant.LF_DIL, n_history=3, delta_t=1, d=d)


@dataclass(frozen=True)
class FusionSettings:
    """Fusion settings as a config's "fusion" section gives them, independent
    of the channel width d.

    n_history=0 disables the history path entirely (fusion is bypassed and
    current features pass through); delta_t is then irrelevant.
    """

    variant: FusionVariant = FusionVariant.LF_DIL
    n_history: int = 3
    delta_t: int = 1
    ratio: float = 0.5
    residual: bool = True

    def __post_init__(self):
        _check_range(self, min_history=0)

    def config_for(self, d: int) -> LsfmConfig:
        if self.n_history == 0:
            raise InvalidConfig("history is disabled; there is no fusion config")
        return LsfmConfig(self.variant, self.n_history, self.delta_t, d, self.ratio, self.residual)

@dataclass(frozen=True)
class ChannelPlan:
    """Derived per-branch channel widths for one fusion configuration."""

    short_out: int
    long_out: int
    pre_projection_total: int
    needs_output_projection: bool


def plan_channels(cfg: LsfmConfig) -> ChannelPlan:
    """Compute branch output widths and whether an output projection is needed.

    LfDil splits d between the current frame (ratio r) and the N history
    frames (sharing 1-r); at r=0.5 this is floor(d/2) and floor(d/2N).
    LfAvg gives every one of the N+1 frames floor(d/(1+N)).  EfDil gives
    both branches floor(d/2).  EfAvg keeps full width (a plain sum).
    """
    n, d, r = cfg.n_history, cfg.d, cfg.ratio
    if cfg.variant is FusionVariant.LF_DIL:
        short = math.floor(r * d)
        long = math.floor((1.0 - r) * d / n)
        total = short + n * long
    elif cfg.variant is FusionVariant.LF_AVG:
        short = long = d // (1 + n)
        total = (1 + n) * short
    elif cfg.variant is FusionVariant.EF_DIL:
        short = long = d // 2
        total = 2 * short
    else:  # EF_AVG
        short = long = d
        total = d
    assert total <= d, f"pre-projection width {total} exceeds d={d}"
    return ChannelPlan(
        short_out=short,
        long_out=long,
        pre_projection_total=total,
        needs_output_projection=(total != d),
    )


@dataclass(frozen=True)
class LsfmWeights:
    """Projection weights for one fusion configuration.

    Which slots are populated depends on the variant: EfAvg has none,
    EfDil/LfDil carry short+long, LfAvg carries the single shared avg
    projection.  output_proj is present exactly when the plan calls for it.
    The long/avg projection is shared across frames.
    """

    short_proj: Optional[ProjectionWeights] = None
    long_proj: Optional[ProjectionWeights] = None
    avg_proj: Optional[ProjectionWeights] = None
    output_proj: Optional[ProjectionWeights] = None


def _draw(rng: Optional[np.random.Generator], out_ch: int, in_ch: int) -> ProjectionWeights:
    if rng is None:  # sentinel seed 0: all-zero weights
        mat = np.zeros((out_ch, in_ch))
        bias = np.zeros(out_ch)
    else:
        mat = rng.standard_normal((out_ch, in_ch))
        bias = rng.standard_normal(out_ch)
    return ProjectionWeights(out_ch, in_ch, mat, bias)


def init_weights(cfg: LsfmConfig, plan: ChannelPlan, seed: int) -> LsfmWeights:
    """Deterministically initialize weights matching the plan's shapes.

    Seed 0 is a sentinel producing all-zero matrices and biases, which makes
    the residual path an exact identity.  Branches whose planned width
    floors to zero (tiny d with deep history) carry no weights at all.
    """
    rng = None if seed == 0 else np.random.default_rng(seed)
    short = long = avg = out = None
    if cfg.variant in (FusionVariant.EF_DIL, FusionVariant.LF_DIL):
        if plan.short_out > 0:
            short = _draw(rng, plan.short_out, cfg.d)
        if plan.long_out > 0:
            long = _draw(rng, plan.long_out, cfg.d)
    elif cfg.variant is FusionVariant.LF_AVG:
        if plan.short_out > 0:
            avg = _draw(rng, plan.short_out, cfg.d)
    if plan.needs_output_projection and plan.pre_projection_total > 0:
        out = _draw(rng, cfg.d, plan.pre_projection_total)
    return LsfmWeights(short_proj=short, long_proj=long, avg_proj=avg, output_proj=out)


def _require(w: Optional[ProjectionWeights], slot: str) -> ProjectionWeights:
    if w is None:
        raise InvalidConfig(f"weights are missing the {slot} projection required by this variant")
    return w


def project_history(cfg: LsfmConfig, w: LsfmWeights, fmap: np.ndarray) -> np.ndarray:
    """The part of fusion that depends on one history map alone: the shared
    long projection (EfDil, LfDil) or avg projection (LfAvg).  It is the
    identity for EfAvg, which sums raw maps, and for a branch whose planned
    width is zero, which fuse_projected() never reads."""
    if cfg.variant is FusionVariant.EF_AVG or plan_channels(cfg).long_out == 0:
        return fmap
    if cfg.variant is FusionVariant.LF_AVG:
        return project_1x1(fmap, _require(w.avg_proj, "avg"))
    return project_1x1(fmap, _require(w.long_proj, "long"))


def fuse(
    cfg: LsfmConfig,
    w: LsfmWeights,
    current: np.ndarray,
    history: Sequence[np.ndarray],
) -> np.ndarray:
    """Fuse the current (d, H, W) map with its history (most-recent-first,
    length N, each of the current map's shape).

    Output width is always d: the optional output projection restores d when
    the concatenated branches fall short, and the residual adds the current
    map after that projection.  Branches whose planned width is zero are
    skipped; if every branch is empty the concatenation degenerates to an
    all-zero map of width d (and the residual still applies).
    """
    if len(history) != cfg.n_history:
        raise HistoryLengthMismatch(
            f"expected {cfg.n_history} history maps, got {len(history)}"
        )
    current = as_feature_map(current)
    history = [as_feature_map(m) for m in history]
    shape = (cfg.d, *current.shape[1:])
    for m in (current, *history):
        if m.shape != shape:
            raise ShapeMismatch(f"map shape {m.shape} != {shape}")
    # Only LfAvg reads the current map's history projection (its avg branch).
    projected_current = project_history(cfg, w, current) if cfg.variant is FusionVariant.LF_AVG else None
    return fuse_projected(cfg, w, current, projected_current, [project_history(cfg, w, m) for m in history])


def fuse_projected(
    cfg: LsfmConfig,
    w: LsfmWeights,
    current: np.ndarray,
    projected_current: Optional[np.ndarray],
    projected_history: Sequence[np.ndarray],
) -> np.ndarray:
    """fuse() for maps that already went through project_history(), so a
    caller that keeps them can project each frame once.  projected_current
    is project_history() of the current map; only LfAvg reads it, and other
    variants may pass None.  Inputs are trusted to have the shapes and the
    finite values fuse() checks."""
    shape = (cfg.d, *current.shape[1:])
    if cfg.variant is FusionVariant.EF_AVG:
        # A plain sum including the current frame, left to right; the
        # residual flag is moot.
        fused = current + projected_history[0]
        for m in projected_history[1:]:
            fused += m
        return fused

    plan = plan_channels(cfg)
    concat = np.empty((plan.pre_projection_total, *shape[1:]))
    row = 0
    if plan.short_out > 0 and cfg.variant is not FusionVariant.LF_AVG:
        project_1x1(current, _require(w.short_proj, "short"), out=concat[: plan.short_out])
        row = plan.short_out
    if cfg.variant is FusionVariant.EF_DIL:
        if plan.long_out > 0:
            long = concat[row:]
            np.copyto(long, projected_history[0])
            for m in projected_history[1:]:
                long += m
    elif plan.long_out > 0:  # LfDil; LfAvg, whose long_out is its short_out
        lf_avg = cfg.variant is FusionVariant.LF_AVG
        for m in (projected_current, *projected_history) if lf_avg else projected_history:
            concat[row : row + plan.long_out] = m
            row += plan.long_out

    if plan.pre_projection_total == 0:
        fused = np.zeros(shape)
    elif plan.needs_output_projection:
        fused = project_1x1(concat, _require(w.output_proj, "output"))
    else:
        fused = concat
    if cfg.residual:
        fused += current
    return fused


def count_fusion_flops(cfg: LsfmConfig, plan: ChannelPlan, height: int, width: int) -> int:
    """Estimate FLOPs of one fused frame as the public fuse() computes it,
    recomputing every history projection; DualPathNetwork.step, which keeps
    projected history, does less.

    Projections cost 2*H*W*in*out each (the shared long/avg projection is
    counted once per frame it is applied to); every elementwise add over the
    maps costs H*W*d.
    """
    sites = height * width
    n, d = cfg.n_history, cfg.d
    macs = 0
    adds = 0
    if cfg.variant is FusionVariant.EF_AVG:
        adds = n  # summing N+1 maps
    elif cfg.variant is FusionVariant.EF_DIL:
        macs = d * plan.short_out + n * d * plan.long_out
        adds = (n - 1) + (1 if cfg.residual else 0)
    elif cfg.variant is FusionVariant.LF_AVG:
        macs = (1 + n) * d * plan.short_out
        adds = 1 if cfg.residual else 0
    else:  # LF_DIL
        macs = d * plan.short_out + n * d * plan.long_out
        adds = 1 if cfg.residual else 0
    if cfg.variant is not FusionVariant.EF_AVG and plan.needs_output_projection:
        macs += plan.pre_projection_total * d
    return 2 * sites * macs + adds * sites * d
