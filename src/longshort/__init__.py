"""Streaming-perception simulation and evaluation.

A desk-scale engine for the dual-path (long-term temporal / short-term
spatial) fusion architecture and its latency-aware evaluation protocol:
feature-map fusion with channel planning, a buffered dual-path network, a
fixed-rate latency simulator, a streaming-AP evaluator, synthetic motion
scenes, and an ablation sweep CLI.
"""

from .boxes import DetectionTable, GroundTruthTable
from .fusion import (
    ChannelPlan,
    FusionSettings,
    FusionVariant,
    LsfmWeights,
    count_fusion_flops,
    fuse,
    init_weights,
    plan_channels,
)
from .metrics import SapReport, compute_sap_report
from .network import (
    BlobHead,
    BoxFilterExtractor,
    DualPathNetwork,
    FeaturePyramid,
    Frame,
    MODEL_CHANNELS,
    PYRAMID_RATES,
)
from .scenarios import (
    SyntheticScene,
    TrajectoryKind,
    TrajectorySpec,
    bundled_scene,
    generate_scenario,
)
from .streaming import (
    ConstantLatency,
    DispatchPolicy,
    EvalPairing,
    PerFrameLatency,
    PredictionRecord,
    StreamConfig,
    pair_for_eval,
    simulate_stream,
)
from .tensor import ProjectionWeights, project_1x1

__version__ = "0.1.0"

__all__ = [
    "BlobHead",
    "BoxFilterExtractor",
    "ChannelPlan",
    "ConstantLatency",
    "DetectionTable",
    "DispatchPolicy",
    "DualPathNetwork",
    "EvalPairing",
    "FeaturePyramid",
    "Frame",
    "FusionSettings",
    "FusionVariant",
    "GroundTruthTable",
    "LsfmWeights",
    "MODEL_CHANNELS",
    "PYRAMID_RATES",
    "PerFrameLatency",
    "PredictionRecord",
    "ProjectionWeights",
    "SapReport",
    "StreamConfig",
    "SyntheticScene",
    "TrajectoryKind",
    "TrajectorySpec",
    "bundled_scene",
    "compute_sap_report",
    "count_fusion_flops",
    "fuse",
    "generate_scenario",
    "init_weights",
    "pair_for_eval",
    "plan_channels",
    "project_1x1",
    "simulate_stream",
]
