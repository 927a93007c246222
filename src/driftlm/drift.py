"""Anti-symmetric attraction-repulsion drift with FIFO reference queues.

A drift vector points from the repulsive barycenter (nearby generated
features) toward the attractive barycenter (nearby real features).  Both
sides share one softmax over the concatenated temperature-scaled affinities;
per-side renormalization of the resulting weights keeps the construction
exactly anti-symmetric, which in turn forces a zero drift whenever the two
reference multisets coincide.  Multi-temperature estimates are RMS-balanced
per temperature before averaging so no scale dominates.

Features are ``[n, m]`` float64 rows.  Positives are one ``[P, m]`` set
shared by every anchor; negatives are ``[n, N, m]``, one set per anchor, so
an anchor's own row can be left out of its negatives by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Array, InvalidInputError

_UNIT_NORM_TOL = 1e-9


@dataclass(frozen=True)
class DriftConfig:
    temperatures: tuple[float, ...] = (0.02, 0.05, 0.2)
    eps: float = 1e-8
    w_plus: float = 1.0
    w_minus: float = 1.0
    renormalize_sides: bool = True  # False keeps the raw joint-softmax masses per side

    def __post_init__(self):
        temps = tuple(float(t) for t in self.temperatures)
        object.__setattr__(self, "temperatures", temps)
        if not temps or any(t <= 0.0 for t in temps):
            raise InvalidInputError("temperatures must be a nonempty list of positive reals")
        if len(set(temps)) != len(temps):
            raise InvalidInputError("temperatures must be distinct")
        if self.eps <= 0.0:
            raise InvalidInputError("eps must be positive")
        if self.w_plus < 0.0 or self.w_minus < 0.0:
            raise InvalidInputError("attraction/repulsion weights must be nonnegative")
        if self.w_plus == 0.0 and self.w_minus == 0.0:
            raise InvalidInputError("at least one of w_plus, w_minus must be positive")


class ReferenceQueue:
    """Bounded FIFO of detached unit feature rows ``[<= capacity, dim]``, oldest first."""

    def __init__(self, capacity: int, dim: int):
        if capacity < 1:
            raise InvalidInputError("queue capacity must be positive")
        self.capacity = capacity
        self.rows: Array = np.zeros((0, dim))

    def __len__(self) -> int:
        return self.rows.shape[0]


def queue_push(queue: ReferenceQueue, rows) -> None:
    """Append copies of unit feature rows ``[k, dim]``, keeping the newest ``capacity``."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != queue.rows.shape[1]:
        raise InvalidInputError(f"queue rows must have shape [k, {queue.rows.shape[1]}]")
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        raise InvalidInputError("queue rows must be finite unit vectors")
    joined = np.concatenate([queue.rows, rows])[-queue.capacity :]
    joined.setflags(write=False)
    queue.rows = joined


def build_references(
    current_real: Array, current_gen: Array, q_real: ReferenceQueue, q_gen: ReferenceQueue
) -> tuple[Array, Array]:
    """Positives ``[n_real + Q_real, m]`` and per-anchor negatives ``[n, n - 1 + Q_gen, m]``.

    ``Q_real`` and ``Q_gen`` are the queue lengths.  Current features come
    before the queue snapshots.  Anchor ``i`` is row ``i`` of
    ``current_gen`` and is left out of its own negatives by index, so a
    value-twin elsewhere in the pool stays.
    """
    real = np.asarray(current_real, dtype=np.float64)
    gen = np.asarray(current_gen, dtype=np.float64)
    if real.ndim != 2 or gen.ndim != 2 or real.shape[0] == 0 or gen.shape[0] == 0:
        raise InvalidInputError("current features must be nonempty [n, m] arrays")
    n, m = gen.shape
    positives = np.concatenate([real, q_real.rows])
    others = np.broadcast_to(gen, (n, n, m))[~np.eye(n, dtype=bool)].reshape(n, n - 1, m)
    queued = np.broadcast_to(q_gen.rows, (n,) + q_gen.rows.shape)
    return positives, np.concatenate([others, queued], axis=1)


# ---------------------------------------------------------------------------
# drift estimation


def _sq_dists(anchors: Array, refs: Array) -> Array:
    """Squared distances ``[n, K]`` from each anchor ``[n, m]`` to its references ``[n, K, m]``.

    Gram form ||h||^2 + ||r||^2 - 2 h.r, clamped at zero; every operation
    works row by row, so each anchor's distances do not depend on the rest
    of the batch.
    """
    cross = np.matmul(refs, anchors[:, :, None])[:, :, 0]
    h2 = np.einsum("nm,nm->n", anchors, anchors)
    r2 = np.einsum("nkm,nkm->nk", refs, refs)
    return np.maximum(h2[:, None] + r2 - 2.0 * cross, 0.0)


def _weighted_sum(weights: Array, refs: Array) -> Array:
    """Per-anchor ``weights [n, K] @ refs [n, K, m]``."""
    return np.matmul(weights[:, None, :], refs)[:, 0, :]


def _side_barycenter(affinities: Array, refs: Array) -> Array:
    """Renormalized barycenter of one side, as a stable per-side softmax.

    Dividing the joint-softmax masses by their per-side total cancels the
    shared normalizer, so the renormalized barycenter depends on this side's
    affinities alone; computing it that way also survives one side
    underflowing in the joint view.
    """
    if refs.shape[1] == 0:
        return np.zeros((refs.shape[0], refs.shape[2]))
    e = np.exp(affinities - affinities.max(axis=1, keepdims=True))
    return _weighted_sum(e / e.sum(axis=1, keepdims=True), refs)


def _drift_from_sq_dists(
    d_pos: Array,
    d_neg: Array,
    pos: Array,
    neg: Array,
    tau: float,
    w_plus: float,
    w_minus: float,
    renormalize: bool,
) -> Array:
    if renormalize:
        b_plus = _side_barycenter(-d_pos / tau, pos)
        b_minus = _side_barycenter(-d_neg / tau, neg)
    else:
        s = np.concatenate([-d_pos / tau, -d_neg / tau], axis=1)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        n_pos = d_pos.shape[1]
        b_plus = _weighted_sum(w[:, :n_pos], pos)
        b_minus = _weighted_sum(w[:, n_pos:], neg)
    return w_plus * b_plus - w_minus * b_minus


def _references(anchors, positives, negatives, w_plus: float, w_minus: float):
    """Validated anchors ``[n, m]``, positives as ``[n, P, m]`` and negatives ``[n, N, m]``."""
    h = np.asarray(anchors, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0:
        raise InvalidInputError("anchors must be a nonempty [n, m] array")
    n, m = h.shape
    pos = np.asarray(positives, dtype=np.float64)
    neg = np.asarray(negatives, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != m:
        raise InvalidInputError(f"positives must have shape [P, {m}]")
    if neg.ndim != 3 or neg.shape[0] != n or neg.shape[2] != m:
        raise InvalidInputError(f"negatives must have shape [{n}, N, {m}]")
    if w_plus > 0.0 and pos.shape[0] == 0:
        raise InvalidInputError("positives must be nonempty when w_plus > 0")
    if w_minus > 0.0 and neg.shape[1] == 0:
        raise InvalidInputError("negatives must be nonempty when w_minus > 0")
    return h, np.broadcast_to(pos, (n,) + pos.shape), neg


def drift_single_temp(
    anchors,
    positives,
    negatives,
    tau: float,
    w_plus: float = 1.0,
    w_minus: float = 1.0,
    renormalize: bool = True,
) -> Array:
    """Temperature-``tau`` drift w_plus * b+ - w_minus * b- for each anchor row.

    ``anchors`` is ``[n, m]``, ``positives`` ``[P, m]`` (shared) and
    ``negatives`` ``[n, N, m]``.  Affinities are exp(-||h - r||^2 / tau),
    normalized jointly across both sides.  A side whose ratio weight is zero
    may be empty and contributes a zero barycenter; otherwise an empty side
    is a contract violation.
    """
    if tau <= 0.0:
        raise InvalidInputError("tau must be positive")
    h, pos, neg = _references(anchors, positives, negatives, w_plus, w_minus)
    return _drift_from_sq_dists(
        _sq_dists(h, pos), _sq_dists(h, neg), pos, neg, tau, w_plus, w_minus, renormalize
    )


def drift_multi_temp(anchors, positives, negatives, config: DriftConfig) -> Array:
    """RMS-balanced multi-temperature drift for anchors ``[n, m]``.

    Positives ``[P, m]`` are shared; ``negatives[i]`` is anchor ``i``'s own
    set (see ``build_references``).  All references are treated as
    constants.  Squared distances are computed once; only the temperatures
    are looped over.
    """
    h, pos, neg = _references(anchors, positives, negatives, config.w_plus, config.w_minus)
    d_pos, d_neg = _sq_dists(h, pos), _sq_dists(h, neg)
    out = np.zeros(h.shape)
    for tau in config.temperatures:
        per_tau = _drift_from_sq_dists(
            d_pos, d_neg, pos, neg, tau, config.w_plus, config.w_minus, config.renormalize_sides
        )
        out += per_tau / rms_scale(per_tau, config.eps)
    return out / len(config.temperatures)


def rms_scale(drifts: Array, eps: float) -> float:
    """Batch-level RMS normalizer sqrt(mean ||V_i||^2 + eps)."""
    drifts = np.asarray(drifts, dtype=np.float64)
    return float(np.sqrt(np.mean(np.sum(drifts * drifts, axis=-1)) + eps))
