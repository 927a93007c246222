"""Anti-symmetric attraction-repulsion drift with FIFO reference queues.

A drift vector points from the repulsive barycenter (nearby generated
features) toward the attractive barycenter (nearby real features).  Each
barycenter is a softmax over its own side's temperature-scaled affinities,
so swapping the two sides exactly negates the drift, which in turn forces a
zero drift whenever the two reference multisets coincide.  Multi-temperature
estimates are RMS-balanced per temperature before averaging so no scale
dominates.

Features are ``[n, m]`` float64 rows.  Positives ``[P, m]`` and negatives
``[N, m]`` are two pools shared by every anchor of a micro-batch, current
features first, then the queue, a read-only array whose oldest row comes
first.  Anchor ``i`` is row ``i`` of the negative pool and is left out of its
own negatives by that index alone: its affinity there is -inf, so a
value-twin elsewhere in the pool stays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numcore import Array, InvalidInputError

_UNIT_NORM_TOL = 1e-9
RMS_EPS = 1e-8  # added to the mean squared drift norm in ``rms_scale``


@dataclass(frozen=True)
class DriftConfig:
    temperatures: tuple[float, ...] = (0.02, 0.05, 0.2)
    w_plus: float = 1.0
    w_minus: float = 1.0

    def __post_init__(self):
        temps = tuple(float(t) for t in self.temperatures)
        object.__setattr__(self, "temperatures", temps)
        if not temps or not all(0.0 < t < np.inf for t in temps):  # NaN fails too
            raise InvalidInputError("temperatures must be a nonempty list of positive reals")
        if len(set(temps)) != len(temps):
            raise InvalidInputError("temperatures must be distinct")
        if not (0.0 <= self.w_plus < np.inf and 0.0 <= self.w_minus < np.inf):
            raise InvalidInputError("attraction/repulsion weights must be nonnegative and finite")
        if self.w_plus == 0.0 and self.w_minus == 0.0:
            raise InvalidInputError("at least one of w_plus, w_minus must be positive")


def queue_push(queue: Array, rows, capacity: int) -> Array:
    """The FIFO ``queue [<= capacity, m]`` (oldest first) with copies of the unit
    feature rows ``[k, m]`` appended and only the newest ``capacity`` kept, read-only."""
    if capacity < 1:
        raise InvalidInputError("queue capacity must be positive")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != queue.shape[1]:
        raise InvalidInputError(f"queue rows must have shape [k, {queue.shape[1]}]")
    norms = np.linalg.norm(rows, axis=1)
    if not np.all(np.abs(norms - 1.0) <= _UNIT_NORM_TOL):
        raise InvalidInputError("queue rows must be finite unit vectors")
    joined = np.concatenate([queue, rows])[-capacity:]
    joined.setflags(write=False)
    return joined


def build_references(
    current_real: Array, current_gen: Array, q_real: Array, q_gen: Array
) -> tuple[Array, Array]:
    """Positive pool ``[n_real + Q_real, m]`` and negative pool ``[n + Q_gen, m]``.

    ``q_real [Q_real, m]`` and ``q_gen [Q_gen, m]`` are the queues.  Current
    features come before the queue snapshots, so anchor ``i`` (row ``i`` of
    ``current_gen``) is row ``i`` of the negative pool; ``drift_multi_temp``
    with ``exclude_self=True`` gives that one row weight 0, and a value-twin
    elsewhere in the pool stays.
    """
    real = np.asarray(current_real, dtype=np.float64)
    gen = np.asarray(current_gen, dtype=np.float64)
    if real.ndim != 2 or gen.ndim != 2 or real.shape[0] == 0 or gen.shape[0] == 0:
        raise InvalidInputError("current features must be nonempty [n, m] arrays")
    return np.concatenate([real, q_real]), np.concatenate([gen, q_gen])


# ---------------------------------------------------------------------------
# drift estimation
#
# Every reduction over a pool runs over its rows in order, one term at a time
# (plain ``np.einsum`` and ``np.cumsum``), so a reference's terms do not depend
# on its position in the pool and a zero weight adds an exact zero.  A BLAS
# product such as ``h @ pool.T`` blocks the pool by position: a pool with the
# same references in shifted slots, which is what the masked self row gives
# the negatives, then rounds differently and the drift at equilibrium is no
# longer exactly zero.  The temperatures are a leading axis ``[T, n, K]`` of
# the affinities; every reduction runs along the last axis, so each slice has
# the bits of a single-temperature call.


def _sq_dists(anchors: Array, pool: Array) -> Array:
    """Squared distances ``[n, K]`` from anchors ``[n, m]`` to pool rows ``[K, m]``.

    Gram form ||h||^2 + ||r||^2 - 2 h.r, clamped at zero; each entry depends
    on its anchor and its pool row only.
    """
    cross = np.einsum("nm,km->nk", anchors, pool)
    h2 = np.einsum("nm,nm->n", anchors, anchors)
    r2 = np.einsum("km,km->k", pool, pool)
    return np.maximum(h2[:, None] + r2 - 2.0 * cross, 0.0)


def _side_barycenter(affinities: Array, pool: Array) -> Array:
    """Barycenters ``[T, n, m]`` of one side's ``pool [K, m]`` under a stable
    softmax over the last axis of its ``affinities [T, n, K]``.

    The normalizer is a sequential sum and the weighted sum runs over the
    pool in row order, for the reason given above.  An empty side has a zero
    barycenter.
    """
    if pool.shape[0] == 0:
        return np.zeros(affinities.shape[:-1] + pool.shape[1:])
    e = np.exp(affinities - affinities.max(axis=-1, keepdims=True))
    weights = e / np.cumsum(e, axis=-1)[..., -1:]
    return np.einsum("...nk,km->...nm", weights, pool)


def _drifts(
    anchors, positives, negatives, taus: Array, w_plus: float, w_minus: float, exclude_self: bool
) -> Array:
    """Drifts ``[T, n, m]`` of anchors ``[n, m]``, one slice per temperature in ``taus [T]``.

    With ``exclude_self`` the first ``n`` negative rows are the anchors, and
    anchor ``i``'s distance to negative row ``i`` is +inf: its affinity is
    -inf and its weight exactly 0.  A pool of one row then leaves its single
    anchor no negatives, and the side is empty.
    """
    h = np.asarray(anchors, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0:
        raise InvalidInputError("anchors must be a nonempty [n, m] array")
    n, m = h.shape
    pos = np.asarray(positives, dtype=np.float64)
    neg = np.asarray(negatives, dtype=np.float64)
    for name, pool in (("positives", pos), ("negatives", neg)):
        if pool.ndim != 2 or pool.shape[1] != m:
            raise InvalidInputError(f"{name} must have shape [K, {m}]")
    if exclude_self:
        if not np.array_equal(neg[:n], h):
            raise InvalidInputError("exclude_self needs the anchors as the first negative rows")
        if neg.shape[0] == 1:
            neg = neg[:0]
    if w_plus > 0.0 and pos.shape[0] == 0:
        raise InvalidInputError("positives must be nonempty when w_plus > 0")
    if w_minus > 0.0 and neg.shape[0] == 0:
        raise InvalidInputError(
            "negatives must hold a row besides the anchor's own when w_minus > 0"
        )
    d_neg = _sq_dists(h, neg)
    if exclude_self and neg.shape[0]:
        np.fill_diagonal(d_neg, np.inf)
    a_pos = -_sq_dists(h, pos) / taus[:, None, None]
    a_neg = -d_neg / taus[:, None, None]
    return w_plus * _side_barycenter(a_pos, pos) - w_minus * _side_barycenter(a_neg, neg)


def drift_single_temp(
    anchors,
    positives,
    negatives,
    tau: float,
    w_plus: float = 1.0,
    w_minus: float = 1.0,
    exclude_self: bool = False,
) -> Array:
    """Temperature-``tau`` drift w_plus * b+ - w_minus * b- for each anchor row.

    ``anchors`` is ``[n, m]``; ``positives`` ``[P, m]`` and ``negatives``
    ``[N, m]`` are pools shared by every anchor, and with ``exclude_self``
    anchor ``i`` is negative row ``i`` and gets weight 0 there.  A side's
    barycenter weights its references by exp(-||h - r||^2 / tau), normalized
    over that side alone.  A side whose ratio weight is zero may be empty and
    contributes a zero barycenter; otherwise an empty side is a contract
    violation.
    """
    if tau <= 0.0:
        raise InvalidInputError("tau must be positive")
    taus = np.array([tau], dtype=np.float64)
    return _drifts(anchors, positives, negatives, taus, w_plus, w_minus, exclude_self)[0]


def drift_multi_temp(
    anchors, positives, negatives, config: DriftConfig, exclude_self: bool = False
) -> Array:
    """RMS-balanced multi-temperature drift for anchors ``[n, m]``.

    ``positives [P, m]`` and ``negatives [N, m]`` are the pools of
    ``build_references``; with ``exclude_self`` anchor ``i`` is negative row
    ``i`` and gets weight 0 there.  All references are treated as constants.
    Every temperature is computed in one pass; the balanced slices are summed
    in the order of ``config.temperatures``.
    """
    taus = np.array(config.temperatures, dtype=np.float64)
    per_tau = _drifts(anchors, positives, negatives, taus, config.w_plus, config.w_minus,
                      exclude_self)
    out = np.zeros(per_tau.shape[1:])
    for v, s in zip(per_tau, rms_scale(per_tau)):
        out += v / s
    return out / len(taus)


def rms_scale(drifts: Array) -> Array:
    """Batch-level RMS normalizer sqrt(mean ||V_i||^2 + RMS_EPS) of drifts ``[n, m]``;
    one per slice ``[T]`` for stacked drifts ``[T, n, m]``."""
    drifts = np.asarray(drifts, dtype=np.float64)
    return np.sqrt(np.mean(np.sum(drifts * drifts, axis=-1), axis=-1) + RMS_EPS)
