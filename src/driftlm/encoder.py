"""Frozen semantic encoder and the soft-token lift.

The encoder is a read-only copy of a denoiser's ``DenoiserParams``.  It
consumes embedding rows directly (its own token lookup is bypassed,
positional rows are still added), runs the block stack, and pools the
penultimate and final hidden layers into one L2-normalized feature row of
``feature_dim`` values per sequence; the lifts, encoding and pullback each
take a whole micro-batch.  The soft lift replaces hard token embeddings with
probability-weighted embedding mixtures on the predicted positions, which is
the only differentiable path from logits into this feature space; the hard
straight-through lift is the ablation variant that keeps the soft backward
rule but feeds argmax embeddings forward.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numcore
from .backbone import (
    BlockCache,
    DenoiserParams,
    blocks_backward,
    param_items,
    run_blocks,
)
from .numcore import Array, InvalidInputError

_DEGENERATE_NORM = 1e-12


class DegenerateFeatureError(RuntimeError):
    """Pooled feature had (near-)zero norm; the configuration is broken."""


class LiftKind(str, Enum):
    SOFT = "soft"
    HARD_ST = "hard-st"


def make_frozen_encoder(params: DenoiserParams) -> DenoiserParams:
    """Deep-copy a checkpoint's parameters and make every array read-only."""
    snapshot = copy.deepcopy(params)
    for _, arr in param_items(snapshot):
        arr.setflags(write=False)
    return snapshot


def feature_dim(encoder: DenoiserParams) -> int:
    """Width of a feature row: the pooled context and final hidden means."""
    return 2 * encoder.embed_dim


def encoder_param_bytes(encoder: DenoiserParams) -> bytes:
    return b"".join(arr.tobytes() for _, arr in param_items(encoder))


# ---------------------------------------------------------------------------
# lifts
#
# A micro-batch is ``probs [n, L, V]`` with the corrupted tokens ``[n, L]``
# and a boolean ``predicted [n, L]`` marking the positions the model must
# predict; one sequence is the case n = 1.


def soft_token_lift(probs: Array, corrupted: Array, predicted: Array, embed: Array) -> Array:
    """Expected embeddings on predicted positions, hard lookups elsewhere."""
    probs = np.asarray(probs, dtype=np.float64)
    e = embed[corrupted]
    e[predicted] = probs[predicted] @ embed
    return e


def hard_st_lift(probs: Array, corrupted: Array, predicted: Array, embed: Array) -> Array:
    """Argmax embeddings on predicted positions (ties to the lowest index).

    Forward value is piecewise constant in the probabilities; the backward
    rule is shared with the soft lift (straight-through surrogate).
    """
    probs = np.asarray(probs, dtype=np.float64)
    e = embed[corrupted]
    e[predicted] = embed[np.argmax(probs[predicted], axis=-1)]
    return e


def lift_vjp(predicted: Array, embed: Array, grad_embeddings: Array) -> Array:
    """Cotangent into the probabilities; zero rows at non-predicted positions."""
    grad_embeddings = np.asarray(grad_embeddings, dtype=np.float64)
    grad_probs = np.zeros(grad_embeddings.shape[:-1] + (embed.shape[0],))
    grad_probs[predicted] = grad_embeddings[predicted] @ embed.T
    return grad_probs


# ---------------------------------------------------------------------------
# encoding


def encode(encoder: DenoiserParams, embeddings: Array) -> tuple[Array, Array, list[BlockCache]]:
    """Run the frozen block stack on embedding rows ``[n, L, d]`` and pool into unit features
    ``[n, m]``; also returns the pooled rows and block caches that ``encode_vjp`` takes."""
    x = np.asarray(embeddings, dtype=np.float64)
    length, d = encoder.length, encoder.embed_dim
    if x.ndim != 3 or x.shape[1:] != (length, d):
        raise InvalidInputError(f"embeddings must have shape [n, {length}, {d}]")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("encode: non-finite embeddings")
    out, caches = run_blocks(encoder, x + encoder.pos_embed)
    pooled = np.concatenate([caches[-1].c, out.mean(axis=1)], axis=1)
    norms = np.linalg.norm(pooled, axis=1, keepdims=True)
    if np.any(norms < _DEGENERATE_NORM):
        raise DegenerateFeatureError(
            f"pooled feature norm {norms.min()} below {_DEGENERATE_NORM}"
        )
    return pooled / norms, pooled, caches


def encode_vjp(
    encoder: DenoiserParams, pooled: Array, block_caches: list[BlockCache], grad_features: Array
) -> Array:
    """Pull feature cotangents ``[n, m]`` back to the input embedding rows ``[n, L, d]``."""
    g_pooled = numcore.l2_normalize_vjp(pooled, np.asarray(grad_features, np.float64))
    d, length = encoder.embed_dim, encoder.length
    shape = (g_pooled.shape[0], length, d)
    grad_out = np.broadcast_to((g_pooled[:, d:] / length)[:, None, :], shape)
    g_e, _ = blocks_backward(
        encoder, block_caches, grad_out, g_pooled[:, :d], want_param_grads=False
    )
    return g_e


def real_features_batch(encoder: DenoiserParams, clean_batch: Array) -> Array:
    """Features ``[n, m]`` of clean sequences ``[n, L]`` under the frozen embedding lookup.

    Target side only: the block caches are dropped.
    """
    batch = numcore.token_rows(clean_batch, encoder.mask_index)
    return encode(encoder, encoder.embed[batch])[0]


# ---------------------------------------------------------------------------
# composed lift-and-encode graph state


@dataclass
class LiftedEncoding:
    """Forward state of logits -> probs -> lifted embeddings -> features for a micro-batch."""

    encoder: DenoiserParams
    predicted: Array  # [n, L] bool
    logits: Array  # [n, L, V]
    probs: Array
    features: Array  # [n, m] unit rows
    pooled: Array  # [n, m] concatenated means before normalization
    block_caches: list[BlockCache]


def lift_and_encode(
    encoder: DenoiserParams,
    logits: Array,
    corrupted: Array,
    predicted: Array,
    lift: LiftKind = LiftKind.SOFT,
) -> LiftedEncoding:
    """Lift logits ``[n, L, V]`` on the ``predicted [n, L]`` positions and encode them."""
    logits = np.asarray(logits, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=bool)
    probs = numcore.softmax_rows(logits)
    lift_fn = soft_token_lift if lift == LiftKind.SOFT else hard_st_lift
    features, pooled, caches = encode(encoder, lift_fn(probs, corrupted, predicted, encoder.embed))
    return LiftedEncoding(encoder, predicted, logits, probs, features, pooled, caches)


def pullback_to_logits(state: LiftedEncoding, grad_features: Array) -> Array:
    """Apply J_h(logits)^T to feature cotangents ``[n, m]`` via the stored VJP chain."""
    g_e = encode_vjp(state.encoder, state.pooled, state.block_caches, grad_features)
    g_probs = lift_vjp(state.predicted, state.encoder.embed, g_e)
    return numcore.softmax_vjp_from_probs(state.probs, g_probs)
