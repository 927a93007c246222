"""Row softmax and the three hand-written vector-Jacobian products training needs.

The training pipeline evaluates a fixed computation graph, so there is no
taped autodiff engine: the backbone and the encoder compose the softmax,
tanh and L2-normalisation VJPs below explicitly.  ``finite_diff_grad`` and
``finite_diff_coordinate`` are the independent oracle the test suite checks
every rule against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

Array = np.ndarray


class InvalidInputError(ValueError):
    """An operation received values outside its domain (NaN/Inf, bad step)."""


class OracleFailureError(RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


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


# ---------------------------------------------------------------------------
# finite-difference oracle (tests only)


def finite_diff_grad(f: Callable[[Array], float], x: Array, step: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function; double precision only."""
    if step <= 0.0:
        raise InvalidInputError("finite_diff_grad: step must be positive")
    base = np.asarray(x, dtype=np.float64)
    grad = [finite_diff_coordinate(f, base, k, step) for k in range(base.size)]
    return np.array(grad, dtype=np.float64).reshape(base.shape)


def finite_diff_coordinate(
    f: Callable[[Array], float], x: Array, index: int, step: float = 1e-5
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
