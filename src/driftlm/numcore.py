"""Dense float64 tensor primitives with hand-written vector-Jacobian products.

The training pipeline evaluates a fixed computation graph, so there is no
taped autodiff engine: every primitive ships an analytic VJP rule and the
higher-level modules compose those rules explicitly.  ``finite_diff_grad``
is the independent oracle the test suite checks every rule against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

Array = np.ndarray


class InvalidInputError(ValueError):
    """An operation received values outside its domain (NaN/Inf, bad step)."""


class ContractViolationError(ValueError):
    """Tensor shapes do not match a primitive's contract."""


class OracleFailureError(RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


def tensor(values, shape: Sequence[int] | None = None) -> Array:
    """Validated float64 tensor: row-major storage, all entries finite."""
    arr = np.array(values, dtype=np.float64, order="C")
    if shape is not None:
        expected = 1
        for s in shape:
            if s <= 0:
                raise InvalidInputError(f"dimension sizes must be positive, got {list(shape)}")
            expected *= s
        if expected != arr.size:
            raise InvalidInputError(f"cannot view {arr.size} values as shape {list(shape)}")
        arr = arr.reshape(tuple(shape))
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError("tensor values must be finite")
    return arr


# ---------------------------------------------------------------------------
# forward primitives


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


def matmul(a: Array, b: Array) -> Array:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ContractViolationError("matmul expects 2-D operands")
    if a.shape[1] != b.shape[0]:
        raise ContractViolationError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    return a @ b


def add(a: Array, b: Array) -> Array:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ContractViolationError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return a + b


def tanh(x: Array) -> Array:
    return np.tanh(np.asarray(x, dtype=np.float64))


def mean_pool(x: Array) -> Array:
    """Mean over the position axis (second-to-last)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ContractViolationError("mean_pool expects at least a 2-D input")
    return x.mean(axis=-2)


def concat(a: Array, b: Array) -> Array:
    """Concatenation along the last (feature) axis."""
    return np.concatenate(
        [np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)], axis=-1
    )


def l2_normalize(v: Array) -> Array:
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    if not np.all(n > 0.0):
        raise InvalidInputError("l2_normalize: zero-norm input")
    return v / n


def scalar_scale(x: Array, c: float) -> Array:
    return np.asarray(x, dtype=np.float64) * float(c)


# ---------------------------------------------------------------------------
# VJP rules
#
# Each worker takes the forward inputs it needs plus the upstream cotangent;
# the hot paths in backbone/encoder call these directly and the ``vjp``
# dispatcher wraps them behind the shared primitive names.


def softmax_rows_vjp(logits: Array, upstream: Array) -> Array:
    return softmax_vjp_from_probs(softmax_rows(logits), upstream)


def softmax_vjp_from_probs(probs: Array, upstream: Array) -> Array:
    dot = np.sum(upstream * probs, axis=-1, keepdims=True)
    return probs * (upstream - dot)


def matmul_vjp(a: Array, b: Array, upstream: Array) -> tuple[Array, Array]:
    return upstream @ b.T, a.T @ upstream


def tanh_vjp(x: Array, upstream: Array) -> Array:
    return tanh_vjp_from_output(np.tanh(np.asarray(x, dtype=np.float64)), upstream)


def tanh_vjp_from_output(y: Array, upstream: Array) -> Array:
    # one full-size temporary instead of three; same value as upstream * (1 - y*y)
    slope = np.multiply(y, y)
    np.subtract(1.0, slope, out=slope)
    return np.multiply(upstream, slope, out=slope)


def mean_pool_vjp(input_shape: Sequence[int], upstream: Array) -> Array:
    length = input_shape[-2]
    return np.broadcast_to(np.expand_dims(upstream / length, -2), tuple(input_shape))


def concat_vjp(a: Array, upstream: Array) -> tuple[Array, Array]:
    k = np.shape(a)[-1]
    return upstream[..., :k], upstream[..., k:]


def l2_normalize_vjp(v: Array, upstream: Array) -> Array:
    v = np.asarray(v, dtype=np.float64)
    n = np.sqrt(np.sum(v * v, axis=-1, keepdims=True))
    y = v / n
    return (upstream - y * np.sum(y * upstream, axis=-1, keepdims=True)) / n


def scalar_scale_vjp(x: Array, c: float, upstream: Array) -> tuple[Array, float]:
    return upstream * float(c), float(np.sum(upstream * x))


_REGISTRY: dict[str, tuple[Callable[..., Array], Callable[..., tuple]]] = {
    "softmax_rows": (softmax_rows, lambda ins, up: (softmax_rows_vjp(ins[0], up),)),
    "matmul": (matmul, lambda ins, up: matmul_vjp(ins[0], ins[1], up)),
    "add": (add, lambda ins, up: (up.copy(), up.copy())),
    "tanh": (tanh, lambda ins, up: (tanh_vjp(ins[0], up),)),
    "mean_pool": (mean_pool, lambda ins, up: (np.array(mean_pool_vjp(np.shape(ins[0]), up)),)),
    "concat": (concat, lambda ins, up: concat_vjp(ins[0], up)),
    "l2_normalize": (l2_normalize, lambda ins, up: (l2_normalize_vjp(ins[0], up),)),
    "scalar_scale": (scalar_scale, lambda ins, up: scalar_scale_vjp(ins[0], ins[1], up)),
}


def primitive_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


def apply_primitive(primitive: str, *inputs) -> Array:
    if primitive not in _REGISTRY:
        raise ContractViolationError(f"unknown primitive {primitive!r}")
    return _REGISTRY[primitive][0](*inputs)


def vjp(primitive: str, inputs: Sequence, upstream: Array) -> tuple:
    """Cotangents of ``primitive`` at ``inputs`` for the given output cotangent."""
    if primitive not in _REGISTRY:
        raise ContractViolationError(f"unknown primitive {primitive!r}")
    forward, rule = _REGISTRY[primitive]
    out = forward(*inputs)
    up = np.asarray(upstream, dtype=np.float64)
    if np.shape(out) != up.shape:
        raise ContractViolationError(
            f"{primitive}: upstream shape {up.shape} does not match output {np.shape(out)}"
        )
    first = np.asarray(inputs[0], dtype=np.float64)
    return rule((first, *inputs[1:]), up)


# ---------------------------------------------------------------------------
# finite-difference oracle (tests only)


def finite_diff_grad(f: Callable[[Array], float], x: Array, step: float = 1e-5) -> Array:
    """Central-difference gradient of a scalar function; double precision only."""
    if step <= 0.0:
        raise InvalidInputError("finite_diff_grad: step must be positive")
    base = np.array(x, dtype=np.float64)
    grad = np.zeros_like(base)
    flat = base.ravel()
    gflat = grad.ravel()
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        fp = float(f(base))
        flat[k] = orig - step
        fm = float(f(base))
        flat[k] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise OracleFailureError(f"non-finite function value at coordinate {k}")
        gflat[k] = (fp - fm) / (2.0 * step)
    return grad


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
