"""Desk-scale audiovisual speech recognition with a sparse MoE encoder."""

from .errors import (
    AvmoeError,
    CheckpointError,
    ConfigError,
    CtcInfeasibleError,
    DataError,
    DimensionError,
    GraphError,
    IngestError,
    NumericError,
)
from .model import Model, ModelConfig
from .moe import LoadStats, MoEConfig, MoELayer, RoutingDecision
from .tensor import Tensor, no_grad

__all__ = [
    "AvmoeError",
    "CheckpointError",
    "ConfigError",
    "CtcInfeasibleError",
    "DataError",
    "DimensionError",
    "GraphError",
    "IngestError",
    "LoadStats",
    "MoEConfig",
    "MoELayer",
    "Model",
    "ModelConfig",
    "NumericError",
    "RoutingDecision",
    "Tensor",
    "no_grad",
]
