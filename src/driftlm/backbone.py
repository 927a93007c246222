"""Discrete diffusion backbone: corruption processes, denoiser, base loss, sampler.

The denoiser is deliberately tiny: token + positional embeddings followed by
a stack of residual MLP blocks (two by default), each conditioned on the
mean-pooled context of its input, and a linear readout to vocabulary logits.
Its parameters are seven arrays, the block weights stacked along a leading
block axis; their field names also key the gradients, the Adam moments and
the checkpoint entries.  Training forward passes keep the intermediates
needed for an analytic backward pass built from the numcore VJP rules, so
gradients are exact and framework-free; the sampler's forward-only passes
keep none and run position-major, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

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
        # two blocks at least: the encoder pools the penultimate and final ones
        for name, low in (("embed_dim", 1), ("hidden_dim", 1), ("n_blocks", 2)):
            if getattr(self, name) < low:
                raise InvalidInputError(f"{name} must be >= {low}, got {getattr(self, name)}")

    @property
    def mask_index(self) -> int:
        return self.vocab_size - 1

    @property
    def clean_vocab(self) -> int:
        return self.vocab_size - 1


@dataclass
class DenoiserParams:
    """The block weights stack along a leading block axis: block ``b`` is index ``b``."""

    embed: Array      # [V, d]
    pos_embed: Array  # [L, d]
    w1: Array         # [B, 2d, h]
    b1: Array         # [B, h]
    w2: Array         # [B, h, d]
    b2: Array         # [B, d]
    out_proj: Array   # [d, V]

    def __post_init__(self):
        """Shapes only (a checkpoint may hold any values); ``embed`` fixes V and d."""
        dims = {"embed": "V d", "pos_embed": "L d", "w1": "B 2d h", "b1": "B h",
                "w2": "B h d", "b2": "B d", "out_proj": "d V"}
        sizes = dict(zip(("V", "d"), np.shape(self.embed)))
        sizes["2d"] = 2 * sizes.get("d", 0)
        for name, arr in param_items(self):  # L, B and h take the first size seen
            want, shape = dims[name].split(), np.shape(arr)
            fits = all(sizes.setdefault(s, n) == n for s, n in zip(want, shape))
            if len(shape) != len(want) or not fits:
                expected = ", ".join(f"{s}={sizes[s]}" if s in sizes else s for s in want)
                raise InvalidInputError(f"{name} has shape {shape}, expected [{expected}]")
        if sizes["B"] < 2:
            raise InvalidInputError(f"w1 stacks {sizes['B']} block(s), need at least two")
        self.model  # raises unless the shapes make a valid ModelConfig

    @property
    def model(self) -> ModelConfig:
        """The ``ModelConfig`` of these parameter shapes."""
        return ModelConfig(vocab_size=self.vocab_size, length=self.length,
                           embed_dim=self.embed_dim, hidden_dim=self.w1.shape[2],
                           n_blocks=len(self.w1))

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
    """Named parameter tensors in field order (checkpoint / optimizer order)."""
    return [(f.name, getattr(params, f.name)) for f in fields(params)]


INIT_STD = 0.3  # the scale of a fresh run's parameters


def init_params(cfg: ModelConfig, rng: np.random.Generator, init_std: float = INIT_STD) -> DenoiserParams:
    """Normal(0, init_std) weights, zero biases; draws ``w1`` then ``w2`` block by
    block, then ``embed``, ``pos_embed`` and ``out_proj``, as seeded runs always have."""
    d, dh, n_blocks = cfg.embed_dim, cfg.hidden_dim, cfg.n_blocks
    w1, w2 = np.empty((n_blocks, 2 * d, dh)), np.empty((n_blocks, dh, d))
    for b in range(n_blocks):
        w1[b] = rng.normal(0.0, init_std, (2 * d, dh))
        w2[b] = rng.normal(0.0, init_std, (dh, d))
    return DenoiserParams(
        embed=rng.normal(0.0, init_std, (cfg.vocab_size, d)),
        pos_embed=rng.normal(0.0, init_std, (cfg.length, d)),
        w1=w1,
        b1=np.zeros((n_blocks, dh)),
        w2=w2,
        b2=np.zeros((n_blocks, d)),
        out_proj=rng.normal(0.0, init_std, (d, cfg.vocab_size)),
    )


# ---------------------------------------------------------------------------
# corruption


def corrupt(
    clean: Array,
    levels: Array,
    kind: CorruptionKind,
    rng: np.random.Generator,
    vocab_size: int = ModelConfig.vocab_size,
) -> tuple[Array, Array]:
    """Independent per-position corruption of each row ``clean[i]`` at level ``levels[i]``.

    Returns the corrupted tokens ``[n, L]`` and the boolean ``predicted [n, L]``
    mask of positions the model must predict: the masked positions for the
    masked process, every position for the uniform one.  All hit uniforms
    are drawn before any resampled token.
    """
    mask_index = vocab_size - 1
    seq = numcore.token_rows(clean, mask_index)
    t = np.asarray(levels, dtype=np.float64)
    if t.shape != seq.shape[:1]:
        raise InvalidInputError("corrupt expects one level per row of clean")
    bad = np.flatnonzero(~((t > 0.0) & (t < 1.0)))
    if bad.size:
        raise InvalidInputError(
            f"corruption level must lie in (0, 1), got {t[bad[0]]} in row {bad[0]}"
        )
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
    tokens: Array                 # [N, L] token ids
    out: Array                    # [N, L, d] last block output
    block_caches: list[BlockCache]


def run_blocks(params: DenoiserParams, e: Array) -> tuple[Array, list[BlockCache]]:
    """Residual context-conditioned MLP stack on embeddings ``e`` of shape [N, L, d].

    Returns the last block's output [N, L, d] and one cache per block, whose
    ``x`` is the block's input and ``c`` its mean over positions (so the
    penultimate output's mean is ``caches[-1].c``).  Each block applies ``w1``
    to [h ; mean_L h] as two halves: ``h @ w1[:d]`` per position plus
    ``mean_L h @ w1[d:] + b1`` once per sequence.
    """
    h = e
    n, length, d = h.shape
    caches: list[BlockCache] = []
    for b in range(len(params.w1)):
        c = h.sum(axis=1) / length  # the bits of h.mean(axis=1)
        a = (h.reshape(n * length, d) @ params.w1[b, :d]).reshape(n, length, -1)
        a += (c @ params.w1[b, d:] + params.b1[b])[:, None, :]
        u = np.tanh(a, out=a).reshape(n * length, -1)
        caches.append(BlockCache(x=h, c=c, u=u))
        out = (u @ params.w2[b]).reshape(n, length, d)
        out += h
        out += params.b2[b]
        h = out
    return h, caches


def blocks_backward(
    params: DenoiserParams,
    caches: list[BlockCache],
    grad_out: Array,
    grad_context: Array | None = None,
    want_param_grads: bool = True,
) -> tuple[Array, dict[str, Array] | None]:
    """Backward through the block stack.

    ``grad_out`` [N, L, d] is the cotangent at the last block's output and
    ``grad_context`` [N, d], if given, the one at the penultimate block's
    output pooled over positions (``caches[-1].c``): it enters block B-2's
    output as ``grad_context / L`` at every position.  Returns the cotangent
    at the input embeddings and, optionally, the gradients of the stacked
    block weights ``w1``, ``b1``, ``w2`` and ``b2``.
    """
    n, length, d = caches[0].x.shape
    gh = grad_out
    names = ("w1", "b1", "w2", "b2") if want_param_grads else ()
    grads = {name: np.empty_like(getattr(params, name)) for name in names}
    for b in range(len(params.w1) - 1, -1, -1):
        if grad_context is not None and b == len(params.w1) - 2:
            gh = gh + (grad_context / length)[:, None, :]
        cache = caches[b]
        g_flat = gh.reshape(n * length, d)
        g_a = numcore.tanh_vjp_from_output(cache.u, g_flat @ params.w2[b].T)
        g_a_seq = g_a.reshape(n, length, -1).sum(axis=1)  # [N, d_h], per sequence
        if want_param_grads:
            grads["w2"][b] = cache.u.T @ g_flat
            grads["b2"][b] = g_flat.sum(axis=0)
            grads["w1"][b, :d] = cache.x.reshape(n * length, d).T @ g_a
            grads["w1"][b, d:] = cache.c.T @ g_a_seq
            grads["b1"][b] = g_a_seq.sum(axis=0)
        # residual path + direct half + mean-pool context half
        g_x = (g_a @ params.w1[b, :d].T).reshape(n, length, d)
        g_x += gh
        g_x += (g_a_seq @ params.w1[b, d:].T / length)[:, None, :]
        gh = g_x
    return gh, (grads if want_param_grads else None)


def token_tables(params: DenoiserParams) -> tuple[Array, Array]:
    """Every (token, position) pair's embedding and block 0 per-position half.

    Row ``v * L + l`` of the first table [V*L, d] is ``embed[v] + pos_embed[l]``
    and of the second [V*L, h] that row ``@ w1[0, :d]``; ``forward_tokens``
    gathers both instead of recomputing them.  Valid until ``params`` change.
    """
    e = (params.embed[:, None, :] + params.pos_embed).reshape(-1, params.embed_dim)
    return e, e @ params.w1[0, : params.embed_dim]


def forward_tokens(
    params: DenoiserParams,
    tokens: Array,
    at: Array | None = None,
    tables: tuple[Array, Array] | None = None,
) -> tuple[Array, ForwardCache | None]:
    """Batched forward pass on token ids of shape [N, L]: logits [N, L, V].

    With ``at`` ([N, k] column indices in [0, L)) only the logits at those
    columns are computed, ``logits[i, j] == full[i, at[i, j]]`` bit for bit,
    as [N, k, V].  A pass with ``at`` or ``tables`` is forward-only
    (``_forward_only_logits``): it gathers the embeddings and block 0's
    per-position half by (token, position) row from ``tables``
    (``token_tables(params)``, built for the call when not given), giving
    the same bits as computing them, since BLAS forms each row of a product
    from that row alone.  It returns ``None`` for the cache, which
    ``backward_tokens`` refuses.
    """
    tok = numcore.token_rows(tokens, params.vocab_size)
    length = params.length
    if tok.shape[1] != length:
        raise InvalidInputError(f"tokens must have shape [N, {length}]")
    if at is not None:
        at = np.asarray(at)
        if at.ndim != 2 or at.shape[0] != tok.shape[0] or at.dtype.kind not in "iu":
            raise InvalidInputError(
                f"at must be integer columns of shape [{tok.shape[0]}, k], got {at.dtype} {at.shape}"
            )
        if at.size and (at.min() < 0 or at.max() >= length):
            raise InvalidInputError(f"at holds a column outside [0, {length})")
    if at is not None or tables is not None:
        return _forward_only_logits(params, tok, at, tables or token_tables(params)), None
    out, caches = run_blocks(params, params.embed[tok] + params.pos_embed)
    n, d = tok.shape[0], params.embed_dim
    logits = (out.reshape(n * length, d) @ params.out_proj).reshape(n, length, params.vocab_size)
    return logits, ForwardCache(tokens=tok, out=out, block_caches=caches)


def _forward_only_logits(
    params: DenoiserParams, tok: Array, at: Array | None, tables: tuple[Array, Array]
) -> Array:
    """``forward_tokens``' logits, run position-major and keeping no caches.

    The block stack holds its rows as [L, N, ·], so a block's context is a
    sum over the leading axis and its broadcast back runs over contiguous
    ``N * h`` rows, where the [N, L, ·] layout of ``run_blocks`` spends a
    short inner loop per sequence on each.  Each row-wise product and each
    sum over positions (in position order) is the one ``run_blocks``
    computes, so the logits keep its bits.  The rows run in the
    ``_row_slices(n, SAMPLER_CHUNK)`` slices, so a caller may pass any number
    of them and the intermediates stay small.  The last block runs only at
    the ``at`` columns; the [k, N, V] logits come back as an [N, k, V] view.
    """
    n, length = tok.shape
    d, n_blocks = params.embed_dim, len(params.w1)
    logits = np.empty((length if at is None else at.shape[1], n, params.vocab_size))
    for part in _row_slices(n, SAMPLER_CHUNK):
        pair = tok[part].T * length + np.arange(length)[:, None]
        h = tables[0].take(pair, 0)
        a = tables[1].take(pair, 0)  # a copy: adding to it leaves the table as it is
        rows, m = h.shape[:2]  # positions, sequences
        for b in range(n_blocks):
            c = h.sum(axis=0) / length
            if at is not None and b == n_blocks - 1:
                h = h[at[part].T, np.arange(m)]
                rows = at.shape[1]
            if b > 0:
                a = (h.reshape(rows * m, d) @ params.w1[b, :d]).reshape(rows, m, -1)
            a += c @ params.w1[b, d:] + params.b1[b]
            u = np.tanh(a, out=a).reshape(rows * m, -1)
            out = (u @ params.w2[b]).reshape(rows, m, d)
            out += h
            out += params.b2[b]
            h = out
        logits[:, part] = (h.reshape(rows * m, d) @ params.out_proj).reshape(rows, m, -1)
    return logits.transpose(1, 0, 2)


def backward_tokens(
    params: DenoiserParams, cache: ForwardCache | None, grad_logits: Array
) -> dict[str, Array]:
    """Gradients of a scalar loss w.r.t. every parameter, given d loss / d logits."""
    if cache is None:
        raise InvalidInputError(
            "backward_tokens needs a full forward's cache; a forward with at or tables keeps none"
        )
    tok = cache.tokens
    n, length = tok.shape
    d = params.embed_dim
    gl = np.asarray(grad_logits, dtype=np.float64).reshape(n, length, params.vocab_size)
    h_final = cache.out.reshape(n * length, d)
    grads = {"out_proj": h_final.T @ gl.reshape(n * length, -1)}
    g_h = (gl.reshape(n * length, -1) @ params.out_proj.T).reshape(n, length, d)
    g_e, block_grads = blocks_backward(params, cache.block_caches, g_h)
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


# Sequences per denoiser forward in a base training step and, rounded down to
# whole micro-batches (at least one), in a drift step (both in
# ``trainer.train_step``), and per slice of a forward-only pass (the
# sampler's), whose groups commit at most ``SAMPLER_CHUNK * L`` positions plus
# one joined row (both ``_row_slices``).  At the default model a 16-sequence
# chunk's largest array, the [256, 64] block activation, is 128 KB: a step's
# arrays stay in a core's L2 cache and the allocator reuses most of their
# memory, where a whole-batch forward streams fresh 1-16 MB arrays through the
# shared cache and faults their pages in again on every call.  Training keeps
# 16, because the order of its chunk sums sets the gradient's bits.  The
# sampler's slices and groups only split rows, so it takes the fastest sizes
# that fault least (budget x1, slice 32).  Masked / uniform ``evaluate`` at
# 2048 samples, NFE 4/8/16 (range of the fastest of eight calls over two fresh
# processes, one BLAS thread, 2-vCPU KVM guest shared with other load; minor
# faults per masked / uniform call from ``getrusage``; a group budget of x2 is
# 1,024 positions):
#   budget x1, slice 16:  548-562 / 1397-1427 ms,       928 /         928 faults
#   budget x1, slice 32:  516-520 / 1429-1453 ms,   928-1,406 /         928 faults
#   budget x1, slice 64:  498-511 / 1426-1430 ms, 2,275-2,492 /         928 faults
#   budget x2, slice 16:  547-554 / 1346-1392 ms, 2,482-2,484 /         928 faults
#   budget x2, slice 32:  497-498 / 1375-1413 ms, 2,482-3,010 /   928-1,456 faults
#   budget x2, slice 64:  479-496 / 1387-1450 ms,       2,866 /       2,368 faults
# Uniform calls tie within the host's noise.  Masked ones gain about 4% from
# 64-row slices or, with 32- or 64-row slices, from budget x2, but fault 2-3x
# more, and the process peaks at 42.0-42.6 MB against 41.6-41.8 MB.
DENOISER_CHUNK = 16
SAMPLER_CHUNK = 32


def _row_slices(n: int, size: int) -> list[slice]:
    """``n`` rows in slices of ``size``, a last slice of one row joined to the
    one before it: BLAS runs a one-row product as gemv, whose bits differ from
    the gemm that forms the same row among others."""
    edges = [*range(0, max(n - 1, 1), size), n]
    return [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]


def sample_batch(
    params: DenoiserParams,
    kind: CorruptionKind,
    nfe: int,
    n: int,
    rng: np.random.Generator,
) -> Array:
    """Generate ``n`` sequences in ``nfe`` denoising steps.

    Masked: ancestral unmasking, committing a random subset of still-masked
    positions each step.  Every row of step 0 is the all-mask sequence, so
    its distribution comes from one one-row forward, once per call; each
    later step computes logits only at the positions it commits.
    Uniform: iterated full resampling from the predictive rows, committing
    all L positions each step.  A step that commits ``commit`` positions per
    row walks ``_row_slices(n, SAMPLER_CHUNK * L // commit)``, so a group
    commits at most ``SAMPLER_CHUNK * L`` positions plus one joined row, and
    each group takes one ``forward_tokens`` call, on the call's
    ``token_tables``, and one ``numcore.draw_rows`` pass.  A position's
    distribution is the softmax of its clean logits alone (the mask symbol
    has probability 0, as in MDLM's SUBS parameterisation), so outputs never
    contain the mask symbol.  The groups draw from ``rng`` in row order, so
    the draws equal a whole-batch step's.
    """
    if nfe < 1:
        raise InvalidInputError("nfe must be at least 1")
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    length = params.length
    mask_index = params.mask_index
    if kind == CorruptionKind.MASKED and nfe > length:
        raise InvalidInputError("masked sampling requires nfe <= sequence length")
    tables = token_tables(params)

    def _clean_cdf(logits: Array) -> Array:
        return np.cumsum(numcore.softmax_rows(logits[..., :mask_index]), axis=-1)

    if kind == CorruptionKind.UNIFORM:
        tokens = rng.integers(0, mask_index, size=(n, length), dtype=np.int64)
        for _ in range(nfe):
            for part in _row_slices(n, SAMPLER_CHUNK):
                logits, _ = forward_tokens(params, tokens[part], tables=tables)
                tokens[part] = numcore.draw_rows(_clean_cdf(logits), rng)
        return tokens

    tokens = np.full((n, length), mask_index, dtype=np.int64)
    all_mask_cdf = _clean_cdf(
        forward_tokens(params, np.full((1, length), mask_index), tables=tables)[0][0]
    )
    remaining = length
    for step in range(nfe):
        steps_left = nfe - step
        commit = -(-remaining // steps_left)  # ceil division
        # random subset of masked positions, identical count per sequence
        keys = rng.random((n, length))
        keys[tokens != mask_index] = 2.0  # committed positions sort last
        chosen = np.argsort(keys, axis=1)[:, :commit]
        for part in _row_slices(n, SAMPLER_CHUNK * length // commit):
            cols = chosen[part]
            if step == 0:
                cdf = all_mask_cdf[cols]
            else:
                logits, _ = forward_tokens(params, tokens[part], at=cols, tables=tables)
                cdf = _clean_cdf(logits)
            rows = np.arange(cols.shape[0])[:, None]
            tokens[part][rows, cols] = numcore.draw_rows(cdf, rng)
        remaining -= commit
    if remaining != 0 or np.any(tokens == mask_index):
        raise RuntimeError("masked sampler failed to commit every position")
    return tokens
