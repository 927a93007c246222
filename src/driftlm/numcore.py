"""The one token-batch check, row softmax, the one categorical draw and the
three hand-written VJPs training needs.

The training pipeline evaluates a fixed computation graph, so there is no
taped autodiff engine: the backbone and the encoder compose the softmax,
tanh and L2-normalisation VJPs below explicitly.  The test suite checks
every rule against a finite-difference oracle of its own.  ``draw_rows``
picks the tokens of both the Markov source and the denoiser's sampler, and
``token_rows`` checks every batch of token ids a stage takes.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class InvalidInputError(ValueError):
    """An operation or a config received a value outside its domain."""


def token_rows(tokens, bound: int | None = None) -> Array:
    """``tokens`` as a nonempty ``[n, L]`` int64 array, L >= 1, every id in
    ``[0, bound)`` (nonnegative when ``bound`` is None).  An error names the
    first bad row; the rows are searched only once the batch's min or max
    fails, so a valid batch costs one ``min`` and one ``max``."""
    try:
        s = np.asarray(tokens)
    except ValueError:  # a ragged list of rows
        raise InvalidInputError("ragged rows: sequences must form an [n, L] token array") from None
    if s.ndim != 2 or s.shape[0] == 0:
        raise InvalidInputError(
            f"sequences must form a nonempty [n, L] token array, got shape {s.shape}"
        )
    if s.shape[1] == 0:
        raise InvalidInputError("row 0: empty sequence")
    if s.dtype.kind not in "iu":
        raise InvalidInputError(f"token indices must be integers, got dtype {s.dtype}")
    if s.min() < 0 or (bound is not None and s.max() >= bound):
        bad = (s < 0) if bound is None else (s < 0) | (s >= bound)
        i = int(np.flatnonzero(bad.any(axis=1))[0])
        domain = "nonnegative" if bound is None else f"in [0, {bound})"
        raise InvalidInputError(f"row {i}: token index {s[i][bad[i]][0]} is not {domain}")
    return s.astype(np.int64, copy=False)


def softmax_rows(logits: Array) -> Array:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    x = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("softmax_rows: non-finite logits")
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax_rows(logits: Array) -> Array:
    """Row-wise log-softmax over the last axis."""
    x = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("log_softmax_rows: non-finite logits")
    z = x - x.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def draw_rows(cdf: Array, rng: np.random.Generator) -> Array:
    """One draw per row of cumulative sums ``cdf [..., K]``, rows in order: the
    first entry above ``rng.random() * cdf[..., -1]``.  Scaled by the row's own
    total, a draw stays in a row whose rounded total falls short of 1, and an
    entry of probability 0 repeats the sum before it, so it is never picked."""
    u = rng.random(cdf.shape[:-1]) * cdf[..., -1]
    return (u[..., None] < cdf).argmax(axis=-1)


# ---------------------------------------------------------------------------
# VJP rules
#
# Each takes the forward values it needs plus the upstream cotangent; the
# backbone and the encoder compose them by hand.


def softmax_vjp_from_probs(probs: Array, upstream: Array) -> Array:
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


def tanh_vjp_from_output(y: Array, upstream: Array) -> Array:
    # one full-size temporary instead of three; same value as upstream * (1 - y*y)
    slope = np.multiply(y, y)
    np.subtract(1.0, slope, out=slope)
    return np.multiply(upstream, slope, out=slope)


def l2_normalize_vjp(v: Array, upstream: Array) -> Array:
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    y = v / n
    return (upstream - y * np.sum(y * upstream, axis=-1, keepdims=True)) / n
