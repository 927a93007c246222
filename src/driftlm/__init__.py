"""Desk-scale lab for drifting-objective refinement of discrete diffusion LMs."""

from .backbone import CorruptionKind, DenoiserParams, ModelConfig
from .corpus import MarkovSource, banded_source
from .drift import DriftConfig
from .encoder import LiftKind
from .objectives import ObjectiveKind, ObjectiveVariant
from .trainer import Checkpoint, TrainConfig, TrainState

__all__ = [
    "Checkpoint",
    "CorruptionKind",
    "DenoiserParams",
    "DriftConfig",
    "LiftKind",
    "MarkovSource",
    "ModelConfig",
    "ObjectiveKind",
    "ObjectiveVariant",
    "TrainConfig",
    "TrainState",
    "banded_source",
]

__version__ = "0.1.0"
