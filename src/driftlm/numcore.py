"""Row softmax, the one categorical draw and the three hand-written VJPs training needs.

The training pipeline evaluates a fixed computation graph, so there is no
taped autodiff engine: the backbone and the encoder compose the softmax,
tanh and L2-normalisation VJPs below explicitly.  The test suite checks
every rule against a finite-difference oracle of its own.  ``draw_rows``
picks the tokens of both the Markov source and the denoiser's sampler.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray


class InvalidInputError(ValueError):
    """An operation or a config received a value outside its domain."""


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
