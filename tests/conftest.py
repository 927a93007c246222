from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import settings

from driftlm.backbone import (
    ForwardCache,
    ModelConfig,
    backward_tokens,
    forward_tokens,
    init_params,
    sample_batch,
)
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


@dataclass
class DenoiserForward:
    hidden1: np.ndarray  # [L, d] penultimate block output
    hidden2: np.ndarray  # [L, d] final block output
    logits: np.ndarray   # [L, V]
    cache: ForwardCache


def denoise_forward(params, corrupted) -> DenoiserForward:
    """Single-sequence forward pass returning per-layer hidden states and logits."""
    logits, cache = forward_tokens(params, np.asarray(corrupted, dtype=np.int64)[None, :])
    return DenoiserForward(
        hidden1=cache.block_caches[-1].x[0],
        hidden2=cache.out[0],
        logits=logits[0],
        cache=cache,
    )


def denoise_backward(params, fwd: DenoiserForward, grad_logits) -> dict[str, np.ndarray]:
    return backward_tokens(params, fwd.cache, np.asarray(grad_logits)[None, :, :])


def sample(params, kind, nfe: int, rng: np.random.Generator) -> np.ndarray:
    """One sequence ``[L]`` from the fixed-NFE sampler."""
    return sample_batch(params, kind, nfe, 1, rng)[0]


def rel_err(analytic: np.ndarray, reference: np.ndarray, atol: float = 1e-8) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), atol)
    return float(np.max(np.abs(analytic - reference) / scale))
