"""Discrete diffusion backbone: corruption processes, denoiser, base loss, sampler.

The denoiser is deliberately tiny: token + positional embeddings followed by
two residual MLP blocks, each conditioned on the mean-pooled context of its
input, and a linear readout to vocabulary logits.  Forward passes keep the
intermediates needed for an analytic backward pass built from the numcore
VJP rules, so gradients are exact and framework-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import numcore
from .numcore import Array, InvalidInputError


class CorruptionKind(str, Enum):
    MASKED = "masked"
    UNIFORM = "uniform"


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 32  # includes the reserved mask symbol at index vocab_size - 1
    length: int = 16
    embed_dim: int = 32
    hidden_dim: int = 64
    n_blocks: int = 2

    def __post_init__(self):
        if self.vocab_size < 2 or self.length < 1:
            raise InvalidInputError("vocab_size >= 2 and length >= 1 required")
        if self.n_blocks < 2:
            raise InvalidInputError("need at least two blocks for penultimate/final pooling")

    @property
    def mask_index(self) -> int:
        return self.vocab_size - 1

    @property
    def clean_vocab(self) -> int:
        return self.vocab_size - 1


@dataclass
class BlockParams:
    w1: Array  # [2d, d_h]
    b1: Array  # [d_h]
    w2: Array  # [d_h, d]
    b2: Array  # [d]


@dataclass
class DenoiserParams:
    embed: Array      # [V, d]
    pos_embed: Array  # [L, d]
    blocks: tuple[BlockParams, ...]
    out_proj: Array   # [d, V]

    @property
    def vocab_size(self) -> int:
        return self.embed.shape[0]

    @property
    def length(self) -> int:
        return self.pos_embed.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.embed.shape[1]

    @property
    def mask_index(self) -> int:
        return self.vocab_size - 1


def param_items(params: DenoiserParams) -> list[tuple[str, Array]]:
    """Named parameter tensors in a fixed order (checkpoint / optimizer order)."""
    items = [("embed", params.embed), ("pos_embed", params.pos_embed)]
    for b, blk in enumerate(params.blocks, start=1):
        items += [
            (f"block{b}.w1", blk.w1),
            (f"block{b}.b1", blk.b1),
            (f"block{b}.w2", blk.w2),
            (f"block{b}.b2", blk.b2),
        ]
    items.append(("out_proj", params.out_proj))
    return items


def params_from_items(items: dict[str, Array]) -> DenoiserParams:
    n_blocks = sum(1 for name in items if name.endswith(".w1"))
    blocks = tuple(
        BlockParams(
            w1=items[f"block{b}.w1"],
            b1=items[f"block{b}.b1"],
            w2=items[f"block{b}.w2"],
            b2=items[f"block{b}.b2"],
        )
        for b in range(1, n_blocks + 1)
    )
    return DenoiserParams(
        embed=items["embed"],
        pos_embed=items["pos_embed"],
        blocks=blocks,
        out_proj=items["out_proj"],
    )


def copy_params(params: DenoiserParams) -> DenoiserParams:
    return params_from_items({name: arr.copy() for name, arr in param_items(params)})


def params_to_vector(params: DenoiserParams) -> Array:
    return np.concatenate([arr.ravel() for _, arr in param_items(params)])


def params_from_vector(template: DenoiserParams, vector: Array) -> DenoiserParams:
    out: dict[str, Array] = {}
    offset = 0
    for name, arr in param_items(template):
        out[name] = np.asarray(vector[offset : offset + arr.size], dtype=np.float64).reshape(
            arr.shape
        )
        offset += arr.size
    if offset != vector.size:
        raise InvalidInputError("parameter vector has the wrong size")
    return params_from_items(out)


def init_params(cfg: ModelConfig, rng: np.random.Generator, init_std: float = 0.02) -> DenoiserParams:
    d, dh = cfg.embed_dim, cfg.hidden_dim
    blocks = tuple(
        BlockParams(
            w1=rng.normal(0.0, init_std, (2 * d, dh)),
            b1=np.zeros(dh),
            w2=rng.normal(0.0, init_std, (dh, d)),
            b2=np.zeros(d),
        )
        for _ in range(cfg.n_blocks)
    )
    return DenoiserParams(
        embed=rng.normal(0.0, init_std, (cfg.vocab_size, d)),
        pos_embed=rng.normal(0.0, init_std, (cfg.length, d)),
        blocks=blocks,
        out_proj=rng.normal(0.0, init_std, (d, cfg.vocab_size)),
    )


# ---------------------------------------------------------------------------
# corruption


def corrupt(
    clean: Array,
    levels: Array,
    kind: CorruptionKind,
    rng: np.random.Generator,
    vocab_size: int = 32,
) -> tuple[Array, Array]:
    """Independent per-position corruption of each row ``clean[i]`` at level ``levels[i]``.

    Returns the corrupted tokens ``[n, L]`` and the boolean ``predicted [n, L]``
    mask of positions the model must predict: the masked positions for the
    masked process, every position for the uniform one.  All hit uniforms
    are drawn before any resampled token.
    """
    seq = np.asarray(clean, dtype=np.int64)
    t = np.asarray(levels, dtype=np.float64)
    if seq.ndim != 2 or t.shape != seq.shape[:1]:
        raise InvalidInputError("corrupt expects clean [n, L] and one level per row")
    bad = np.flatnonzero(~((t > 0.0) & (t < 1.0)))
    if bad.size:
        raise InvalidInputError(
            f"corruption level must lie in (0, 1), got {t[bad[0]]} in row {bad[0]}"
        )
    mask_index = vocab_size - 1
    if np.any(seq < 0) or np.any(seq >= mask_index):
        raise InvalidInputError("clean sequence contains the mask symbol or bad indices")
    hits = rng.random(seq.shape) < t[:, None]
    if kind == CorruptionKind.MASKED:
        return np.where(hits, mask_index, seq), hits
    resampled = rng.integers(0, mask_index, size=seq.shape)
    return np.where(hits, resampled, seq), np.ones(seq.shape, dtype=bool)


# ---------------------------------------------------------------------------
# denoiser forward / backward


@dataclass
class BlockCache:
    x: Array  # [N, L, d] block input
    c: Array  # [N, d] its mean over positions (the pooled context)
    u: Array  # [N*L, d_h] tanh activations


@dataclass
class ForwardCache:
    tokens: Array | None          # [N, L] or None when fed raw embeddings
    hiddens: list[Array]          # block outputs, each [N, L, d]
    block_caches: list[BlockCache]
    logits: Array | None          # [N, L, V]


def run_blocks(params: DenoiserParams, e: Array) -> tuple[list[Array], list[BlockCache]]:
    """Residual context-conditioned MLP stack on embeddings ``e`` of shape [N, L, d].

    Each block applies ``w1`` to [h ; mean_L h] as two halves: ``h @ w1[:d]``
    per position plus ``mean_L h @ w1[d:] + b1`` once per sequence.
    """
    h = e
    n, length, d = h.shape
    hiddens: list[Array] = []
    caches: list[BlockCache] = []
    for blk in params.blocks:
        c = h.mean(axis=1)
        a = (h.reshape(n * length, d) @ blk.w1[:d]).reshape(n, length, -1)
        a += (c @ blk.w1[d:] + blk.b1)[:, None, :]
        u = np.tanh(a, out=a).reshape(n * length, -1)
        caches.append(BlockCache(x=h, c=c, u=u))
        out = (u @ blk.w2).reshape(n, length, d)
        out += h
        out += blk.b2
        h = out
        hiddens.append(h)
    return hiddens, caches


def blocks_backward(
    params: DenoiserParams,
    caches: list[BlockCache],
    grad_hiddens: list[Array | None],
    want_param_grads: bool = True,
) -> tuple[Array, dict[str, Array] | None]:
    """Backward through the block stack.

    ``grad_hiddens[b]`` is the cotangent arriving directly at block ``b``'s
    output (pooling taps inject here); returns the cotangent at the input
    embeddings and, optionally, per-parameter gradients for the blocks.
    """
    n, length, d = caches[0].x.shape
    gh = np.zeros((n, length, d))
    grads: dict[str, Array] = {}
    for b in range(len(params.blocks) - 1, -1, -1):
        inject = grad_hiddens[b]
        if inject is not None:
            gh = gh + inject
        blk = params.blocks[b]
        cache = caches[b]
        g_flat = gh.reshape(n * length, d)
        g_a = numcore.tanh_vjp_from_output(cache.u, g_flat @ blk.w2.T)
        g_a_seq = g_a.reshape(n, length, -1).sum(axis=1)  # [N, d_h], per sequence
        if want_param_grads:
            grads[f"block{b + 1}.w2"] = cache.u.T @ g_flat
            grads[f"block{b + 1}.b2"] = g_flat.sum(axis=0)
            grads[f"block{b + 1}.w1"] = np.concatenate(
                [cache.x.reshape(n * length, d).T @ g_a, cache.c.T @ g_a_seq]
            )
            grads[f"block{b + 1}.b1"] = g_a_seq.sum(axis=0)
        # residual path + direct half + mean-pool context half
        g_x = (g_a @ blk.w1[:d].T).reshape(n, length, d)
        g_x += gh
        g_x += (g_a_seq @ blk.w1[d:].T / length)[:, None, :]
        gh = g_x
    return gh, (grads if want_param_grads else None)


def forward_tokens(params: DenoiserParams, tokens: Array) -> tuple[Array, ForwardCache]:
    """Batched forward pass on token ids of shape [N, L]."""
    tok = np.asarray(tokens, dtype=np.int64)
    if tok.ndim != 2 or tok.shape[1] != params.length:
        raise InvalidInputError(f"tokens must have shape [N, {params.length}]")
    if np.any(tok < 0) or np.any(tok >= params.vocab_size):
        raise InvalidInputError("token index outside the model vocabulary")
    e = params.embed[tok] + params.pos_embed
    hiddens, caches = run_blocks(params, e)
    n, length, d = e.shape
    logits = (hiddens[-1].reshape(n * length, d) @ params.out_proj).reshape(
        n, length, params.vocab_size
    )
    return logits, ForwardCache(tokens=tok, hiddens=hiddens, block_caches=caches, logits=logits)


def backward_tokens(
    params: DenoiserParams, cache: ForwardCache, grad_logits: Array
) -> dict[str, Array]:
    """Gradients of a scalar loss w.r.t. every parameter, given d loss / d logits."""
    tok = cache.tokens
    n, length = tok.shape
    d = params.embed_dim
    gl = np.asarray(grad_logits, dtype=np.float64).reshape(n, length, params.vocab_size)
    h_final = cache.hiddens[-1].reshape(n * length, d)
    grads = {"out_proj": h_final.T @ gl.reshape(n * length, -1)}
    g_h = (gl.reshape(n * length, -1) @ params.out_proj.T).reshape(n, length, d)
    grad_hiddens: list[Array | None] = [None] * len(params.blocks)
    grad_hiddens[-1] = g_h
    g_e, block_grads = blocks_backward(params, cache.block_caches, grad_hiddens, True)
    grads.update(block_grads)
    grads["pos_embed"] = g_e.sum(axis=0)
    onehot = (tok.reshape(-1, 1) == np.arange(params.vocab_size)).astype(np.float64)
    grads["embed"] = onehot.T @ g_e.reshape(n * length, d)
    return grads


# ---------------------------------------------------------------------------
# base denoising loss


def base_loss(logits: Array, clean: Array, predicted: Array) -> tuple[Array, Array]:
    """Per-sequence mean cross-entropy over the predicted positions, with its logit gradient.

    ``logits [n, L, V]``, ``clean [n, L]`` and the boolean ``predicted [n, L]``
    give losses ``[n]`` and the gradient ``[n, L, V]`` of their sum; a row
    with no predicted positions has zero loss and zero gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=bool)
    seq_of, pos_of = np.nonzero(predicted)
    count = np.maximum(predicted.sum(axis=1), 1)
    logp = numcore.log_softmax_rows(logits[seq_of, pos_of])  # [K, V], one row per prediction
    hit = (np.arange(seq_of.size), np.asarray(clean, dtype=np.int64)[seq_of, pos_of])
    loss = np.bincount(seq_of, weights=-logp[hit], minlength=logits.shape[0]) / count
    g = np.exp(logp)
    g[hit] -= 1.0
    grad = np.zeros_like(logits)
    grad[seq_of, pos_of] = g / count[seq_of, None]
    return loss, grad


# ---------------------------------------------------------------------------
# fixed-NFE sampler


def _categorical_rows(probs: Array, rng: np.random.Generator) -> Array:
    """One draw per row of a [..., K] probability array."""
    flat = probs.reshape(-1, probs.shape[-1])
    cdf = np.cumsum(flat, axis=1)
    u = rng.random(flat.shape[0]) * cdf[:, -1]
    picks = (u[:, None] < cdf).argmax(axis=1)
    return picks.reshape(probs.shape[:-1])


# Sequences per sampler forward.  At the default model a chunk's largest
# array, the [256, 64] block activation, is 128 KB: a step's arrays stay in a
# core's L2 cache and the allocator reuses their memory.  A whole-batch
# forward at n = 2048 streams fresh 8-16 MB arrays through the shared cache
# and faults their pages in again on every step, so its time follows the
# host's memory traffic.
SAMPLE_CHUNK = 16


def sample_batch(
    params: DenoiserParams,
    kind: CorruptionKind,
    nfe: int,
    n: int,
    rng: np.random.Generator,
    on_forward: Callable[[int], None] | None = None,
) -> Array:
    """Generate ``n`` sequences with exactly ``nfe`` denoiser calls each.

    Masked: ancestral unmasking, committing a random subset of still-masked
    positions each step.  Uniform: iterated full resampling from the
    predictive rows.  Predictions are always restricted to the clean
    vocabulary, so outputs never contain the mask symbol.  Each step runs
    the denoiser over chunks of ``SAMPLE_CHUNK`` sequences; the chunks draw
    from ``rng`` in row order, so the draws equal a whole-batch step's.
    """
    if nfe < 1:
        raise InvalidInputError("nfe must be at least 1")
    length = params.length
    mask_index = params.mask_index
    if kind == CorruptionKind.MASKED and nfe > length:
        raise InvalidInputError("masked sampling requires nfe <= sequence length")
    chunks = [slice(lo, min(lo + SAMPLE_CHUNK, n)) for lo in range(0, n, SAMPLE_CHUNK)]

    def _clean_probs(logits: Array) -> Array:
        probs = numcore.softmax_rows(logits)[..., :mask_index]
        return probs / probs.sum(axis=-1, keepdims=True)

    if kind == CorruptionKind.UNIFORM:
        tokens = rng.integers(0, mask_index, size=(n, length), dtype=np.int64)
        for _ in range(nfe):
            for part in chunks:
                logits, _ = forward_tokens(params, tokens[part])
                tokens[part] = _categorical_rows(_clean_probs(logits), rng)
            if on_forward is not None:
                on_forward(n)
        return tokens

    tokens = np.full((n, length), mask_index, dtype=np.int64)
    still_masked = np.ones((n, length), dtype=bool)
    remaining = length
    for step in range(nfe):
        steps_left = nfe - step
        commit = -(-remaining // steps_left)  # ceil division
        # random subset of masked positions, identical count per sequence
        keys = rng.random((n, length))
        keys[~still_masked] = 2.0  # unmasked positions sort last
        chosen = np.argsort(keys, axis=1)[:, :commit]
        for part in chunks:
            logits, _ = forward_tokens(params, tokens[part])
            rows = np.repeat(np.arange(logits.shape[0]), commit)
            cols = chosen[part].ravel()
            # only the committed rows are normalized and drawn from
            tokens[part][rows, cols] = _categorical_rows(_clean_probs(logits[rows, cols]), rng)
        if on_forward is not None:
            on_forward(n)
        still_masked[np.arange(n)[:, None], chosen] = False
        remaining -= commit
    if remaining != 0 or np.any(tokens == mask_index):
        raise RuntimeError("masked sampler failed to commit every position")
    return tokens
