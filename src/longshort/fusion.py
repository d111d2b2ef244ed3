"""Long-short feature fusion.

Four fusion schemes combine the current frame's feature map with N buffered
historical maps, all of width d:

  EfAvg  - plain sum of all N+1 maps.
  EfDil  - project current and summed history separately, then concatenate.
  LfAvg  - one shared projection applied to every frame, concatenate all.
  LfDil  - wide projection for the current frame, narrow shared projection
           per history frame, concatenate.

plan_channels() alone reads the variant; all else follows the widths and
branch layout of the ChannelPlan it returns.  Channel widths follow floor
arithmetic on d, so the concatenated width can fall short of d; a final 1x1
projection then restores d.  A residual connection adds the current map
back after that projection (not for EfAvg).

Maps are plain (C, H, W) float64 arrays.  fuse() checks its inputs' shapes
and finiteness; fuse_projected() trusts them, so the network's hot path
runs no per-operation check (its extractor checks each frame's pixels).

fuse_projected() writes every branch into one concatenation buffer, as wide
as the branches together: the short projection straight into its first rows
(project_1x1 with out=), then the history path, either each projected map
copied into rows of its own or all its maps summed in place, left to right,
into one branch (EfDil's projected history; EfAvg's raw maps, current one
first).  The output projection reads that buffer, and the residual is
added in place.  A caller that fuses frame after frame may lend it a
workspace to hold the concatenation, and project_history() an out= array to
hold a projection, so that the same arrays serve every frame; the fused map
it returns is always a fresh array.  Nothing else is written: never the
current map or a history map, which the network's buffer keeps (when the
plan does not project history, those are the extractor's maps).
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
    """One fusion configuration's branches in concatenation order, the
    current frame's short branch, then the history path (skipped when zero
    wide), and their widths."""

    short_out: int
    long_out: int  # one history-path map's width once projected
    pre_projection_total: int
    needs_output_projection: bool  # 0 < pre_projection_total != d
    short_branch: bool  # the current frame has its own projection (EfDil, LfDil)
    current_as_history: bool  # the current map leads the history path (EfAvg, LfAvg)
    projects_history: bool  # the shared long projection maps each to long_out rows; else it enters at width d
    sums_history: bool  # the history path is summed into one branch (EfAvg, EfDil), else one branch per map
    residual: bool


def plan_channels(cfg: LsfmConfig) -> ChannelPlan:
    """The plan of cfg's variant; no other code reads the variant.

    LfDil splits d between the current frame (ratio r) and the N history
    frames (sharing 1-r); at r=0.5 this is floor(d/2) and floor(d/2N).
    LfAvg gives every one of the N+1 frames floor(d/(1+N)) through one
    shared projection.  EfDil gives the current frame and the summed
    projected history floor(d/2) each.  EfAvg sums the N+1 raw maps at full
    width, with no residual.
    """
    n, d, r, variant = cfg.n_history, cfg.d, cfg.ratio, cfg.variant
    if variant is FusionVariant.LF_DIL:
        short, long = math.floor(r * d), math.floor((1.0 - r) * d / n)
    elif variant is FusionVariant.LF_AVG:
        short = long = d // (1 + n)
    elif variant is FusionVariant.EF_DIL:
        short = long = d // 2
    else:  # EF_AVG
        short = long = d
    dilated = variant in (FusionVariant.EF_DIL, FusionVariant.LF_DIL)
    summed = variant in (FusionVariant.EF_AVG, FusionVariant.EF_DIL)
    path = n + (not dilated)  # maps down the history path
    total = (short if dilated else 0) + (long if summed else path * long)
    assert total <= d, f"pre-projection width {total} exceeds d={d}"
    return ChannelPlan(
        short_out=short,
        long_out=long,
        pre_projection_total=total,
        needs_output_projection=0 < total != d,
        short_branch=dilated and short > 0,
        current_as_history=not dilated,
        projects_history=variant is not FusionVariant.EF_AVG and long > 0,
        sums_history=summed,
        residual=cfg.residual and variant is not FusionVariant.EF_AVG,
    )


@dataclass(frozen=True)
class LsfmWeights:
    """Projection weights for one fusion configuration, each present exactly
    when its plan calls for it: short_proj when it has a short branch
    (EfDil, LfDil), long_proj, shared by every map of the history path, when
    it projects history (EfDil, LfAvg, LfDil), and output_proj when it has
    an output projection.  EfAvg has none.
    """

    short_proj: Optional[ProjectionWeights] = None
    long_proj: Optional[ProjectionWeights] = None
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
    """Deterministically initialize weights matching the plan's shapes,
    drawn short, long, output in turn.

    Seed 0 is a sentinel producing all-zero matrices and biases, which makes
    the residual path an exact identity.  Branches whose planned width
    floors to zero (tiny d with deep history) carry no weights at all.
    """
    rng = None if seed == 0 else np.random.default_rng(seed)
    short = _draw(rng, plan.short_out, cfg.d) if plan.short_branch else None
    long = _draw(rng, plan.long_out, cfg.d) if plan.projects_history else None
    out = _draw(rng, cfg.d, plan.pre_projection_total) if plan.needs_output_projection else None
    return LsfmWeights(short_proj=short, long_proj=long, output_proj=out)


def _require(w: Optional[ProjectionWeights], slot: str) -> ProjectionWeights:
    if w is None:
        raise InvalidConfig(f"weights are missing the {slot} projection required by this variant")
    return w


def project_history(
    cfg: LsfmConfig, w: LsfmWeights, fmap: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """The part of fusion that depends on one history-path map alone: the
    shared long projection, written into out when given (see project_1x1).
    A plan that does not project history (EfAvg, a zero-width history path)
    gets fmap itself, and out is left untouched."""
    if not plan_channels(cfg).projects_history:
        return fmap
    return project_1x1(fmap, _require(w.long_proj, "long"), out=out)


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
    projected_current = project_history(cfg, w, current) if plan_channels(cfg).current_as_history else None
    return fuse_projected(cfg, w, current, projected_current, [project_history(cfg, w, m) for m in history])


def fuse_projected(
    cfg: LsfmConfig,
    w: LsfmWeights,
    current: np.ndarray,
    projected_current: Optional[np.ndarray],
    projected_history: Sequence[np.ndarray],
    workspace: Optional[np.ndarray] = None,
) -> np.ndarray:
    """fuse() for maps that already went through project_history(), so a
    caller that keeps them can project each frame once.  projected_current
    is project_history() of the current map; only a plan whose current frame
    goes down the history path (EfAvg, LfAvg) reads it, and others may pass
    None.  Inputs are trusted to have the shapes and the finite values
    fuse() checks.

    workspace, a C-contiguous float64 (pre_projection_total, H, W) array,
    holds the concatenation when the plan has an output projection, in
    place of a fresh buffer; without one the concatenation is the fused map,
    which is always fresh, so the workspace is left unused."""
    plan = plan_channels(cfg)
    shape = (cfg.d, *current.shape[1:])
    if workspace is not None and plan.needs_output_projection:
        concat = workspace
    else:
        concat = np.empty((plan.pre_projection_total, *shape[1:]))
    row = 0
    if plan.short_branch:
        project_1x1(current, _require(w.short_proj, "short"), out=concat[: plan.short_out])
        row = plan.short_out
    maps = (projected_current, *projected_history) if plan.current_as_history else projected_history
    if plan.long_out > 0 and plan.sums_history:  # left to right, into the rows after the short branch
        summed = concat[row:]
        if len(maps) == 1:
            np.copyto(summed, maps[0])
        else:
            np.add(maps[0], maps[1], out=summed)
        for m in maps[2:]:
            summed += m
    elif plan.long_out > 0:
        for m in maps:
            concat[row : row + plan.long_out] = m
            row += plan.long_out

    if plan.pre_projection_total == 0:
        fused = np.zeros(shape)
    elif plan.needs_output_projection:
        fused = project_1x1(concat, _require(w.output_proj, "output"))
    else:
        fused = concat
    if plan.residual:
        fused += current
    return fused


def count_fusion_flops(cfg: LsfmConfig, plan: ChannelPlan, height: int, width: int) -> int:
    """Estimate FLOPs of one fused frame as the public fuse() computes it,
    recomputing every history projection; DualPathNetwork.step, which keeps
    projected history, does less.

    Projections cost 2*H*W*in*out each (the shared long projection is
    counted once per map it is applied to); every elementwise add over the
    maps costs H*W*d: summing the history path's maps, and the residual.
    """
    sites = height * width
    d = cfg.d
    path = cfg.n_history + plan.current_as_history  # maps down the history path
    macs = d * plan.short_out if plan.short_branch else 0
    if plan.projects_history:
        macs += path * d * plan.long_out
    if plan.needs_output_projection:
        macs += plan.pre_projection_total * d
    adds = (path - 1 if plan.sums_history else 0) + plan.residual
    return 2 * sites * macs + adds * sites * d
