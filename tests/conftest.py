from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from driftlm.backbone import ModelConfig, init_params
from driftlm.encoder import make_frozen_encoder

settings.register_profile("ci", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("ci")


SMALL_MODEL = ModelConfig(vocab_size=7, length=5, embed_dim=6, hidden_dim=8)
DESK_MODEL = ModelConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_params():
    return init_params(SMALL_MODEL, np.random.default_rng(42))


@pytest.fixture
def small_encoder(small_params):
    return make_frozen_encoder(small_params)


def unit_rows(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """``[n, dim]`` random unit feature rows."""
    v = rng.normal(size=(n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def stack_records(records) -> tuple[np.ndarray, np.ndarray]:
    """Corrupted tokens ``[n, L]`` and the predicted-position mask ``[n, L]`` of a record list."""
    corrupted = np.stack([r.corrupted for r in records])
    predicted = np.zeros(corrupted.shape, dtype=bool)
    for i, r in enumerate(records):
        predicted[i, r.predicted_positions] = True
    return corrupted, predicted


def rel_err(analytic: np.ndarray, reference: np.ndarray, atol: float = 1e-8) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), atol)
    return float(np.max(np.abs(analytic - reference) / scale))
