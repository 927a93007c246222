from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from driftlm.backbone import (
    DenoiserParams,
    ForwardCache,
    ModelConfig,
    backward_tokens,
    forward_tokens,
    init_params,
    param_items,
    sample_batch,
)
from driftlm.encoder import make_frozen_encoder
from driftlm.numcore import InvalidInputError

settings.register_profile("ci", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("ci")


SMALL_MODEL = ModelConfig(vocab_size=7, length=5, embed_dim=6, hidden_dim=8)
DESK_MODEL = ModelConfig()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_params():
    return init_params(SMALL_MODEL, np.random.default_rng(42), init_std=0.02)


@pytest.fixture
def small_encoder(small_params):
    return make_frozen_encoder(small_params)


class ConstantDraws:
    """A generator stub whose every uniform draw is ``value``."""

    def __init__(self, value: float):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


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


# ---------------------------------------------------------------------------
# finite-difference oracle and flat parameter vectors


class OracleFailureError(RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function; double precision only."""
    if step <= 0.0:
        raise InvalidInputError("finite_diff_grad: step must be positive")
    base = np.asarray(x, dtype=np.float64)
    grad = [finite_diff_coordinate(f, base, k, step) for k in range(base.size)]
    return np.array(grad, dtype=np.float64).reshape(base.shape)


def finite_diff_coordinate(
    f: Callable[[np.ndarray], float], x: np.ndarray, index: int, step: float = 1e-5
) -> float:
    """Central difference for one flat coordinate of ``x``."""
    if step <= 0.0:
        raise InvalidInputError("finite_diff_coordinate: step must be positive")
    base = np.array(x, dtype=np.float64)
    flat = base.ravel()
    orig = flat[index]
    flat[index] = orig + step
    fp = float(f(base))
    flat[index] = orig - step
    fm = float(f(base))
    flat[index] = orig
    if not (np.isfinite(fp) and np.isfinite(fm)):
        raise OracleFailureError(f"non-finite function value at coordinate {index}")
    return (fp - fm) / (2.0 * step)


def params_to_vector(params: DenoiserParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in param_items(params)])


def params_from_vector(template: DenoiserParams, vector: np.ndarray) -> DenoiserParams:
    sizes = [arr.size for _, arr in param_items(template)]
    if sum(sizes) != vector.size:
        raise InvalidInputError("parameter vector has the wrong size")
    params = copy.deepcopy(template)
    for (_, arr), part in zip(param_items(params), np.split(vector, np.cumsum(sizes)[:-1])):
        arr[...] = part.reshape(arr.shape)
    return params
