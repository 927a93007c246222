"""Trainable objectives: feature-space fixed-point loss and mirror teachers.

The fixed-point loss matches the generated feature to a stop-gradient target
shifted by the drift, so its feature gradient is exactly -alpha * V and the
logit gradient is the VJP pullback of that vector.  The mirror variants
instead convert the drift into a detached teacher distribution via an
exponentiated-gradient step in logit space and match it with KL or MSE.
Every function takes a whole micro-batch: features and drifts ``[n, m]``,
logits ``[n, L, V]`` and a boolean ``predicted [n, L]`` position mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numcore
from .backbone import base_loss
from .encoder import LiftedEncoding, LiftKind, pullback_to_logits
from .numcore import Array, InvalidInputError


class ObjectiveVariant(str, Enum):
    FEATURE_L2 = "feature-l2"
    MIRROR_KL = "mirror-kl"
    MIRROR_MSE = "mirror-mse"


@dataclass(frozen=True)
class ObjectiveKind:
    variant: ObjectiveVariant = ObjectiveVariant.FEATURE_L2
    with_base_loss: bool = False
    lift: LiftKind = LiftKind.SOFT
    eta: float = 1.0    # mirror step size, unused by the feature variant
    alpha: float = 1.0  # drift scale of the fixed-point target

    def __post_init__(self):
        if self.eta < 0.0:
            raise InvalidInputError("eta must be nonnegative")
        if self.alpha <= 0.0:
            raise InvalidInputError("alpha must be positive")


def feature_fixed_point_loss(h, drift: Array, alpha: float) -> tuple[Array, Array]:
    """Per-row 1/2 ||h - sg(h + alpha V)||^2 with its exact feature gradient -alpha V."""
    step = alpha * np.asarray(drift, dtype=np.float64)
    return 0.5 * np.sum(step * step, axis=-1), -step


def mirror_direction(state: LiftedEncoding, drift: Array) -> Array:
    """Logit-space ascent direction J_h(logits)^T V from the stored VJP chain."""
    return pullback_to_logits(state, np.asarray(drift, dtype=np.float64))


def mirror_teacher(logits: Array, g: Array, eta: float) -> Array:
    """Detached teacher softmax(logits + eta * g); rows stay on the simplex."""
    if eta < 0.0:
        raise InvalidInputError("eta must be nonnegative")
    return numcore.softmax_rows(np.asarray(logits, np.float64) + eta * np.asarray(g, np.float64))


def mirror_kl_loss(p_star: Array, logits: Array, predicted: Array) -> tuple[Array, Array]:
    """Per-sequence mean KL(p* || p) over predicted positions; gradient (p - p*) / count.

    Both distributions go through the same log so a bitwise-equal teacher
    (the drift-equilibrium case) yields exactly zero loss and gradient.
    """
    logits = np.asarray(logits, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=bool)
    p_star = np.asarray(p_star, dtype=np.float64)
    count = np.maximum(predicted.sum(axis=1), 1)
    p = numcore.softmax_rows(logits)
    log_ratio = np.log(np.where(p_star > 0.0, p_star, 1.0)) - np.log(p)
    row_kl = np.where(p_star > 0.0, p_star * log_ratio, 0.0).sum(axis=-1)
    loss = np.where(predicted, row_kl, 0.0).sum(axis=1) / count
    return loss, np.where(predicted[..., None], (p - p_star) / count[:, None, None], 0.0)


def mirror_mse_loss(l_star: Array, logits: Array, predicted: Array) -> tuple[Array, Array]:
    """Per-sequence mean squared logit-row distance over predicted positions."""
    logits = np.asarray(logits, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=bool)
    count = np.maximum(predicted.sum(axis=1), 1)
    diff = np.where(predicted[..., None], logits - np.asarray(l_star, dtype=np.float64), 0.0)
    return (diff * diff).sum(axis=(1, 2)) / count, 2.0 * diff / count[:, None, None]


@dataclass
class TotalObjective:
    loss: float
    grad_logits: Array  # [n, L, V] gradient of the batch-mean loss
    per_sample_loss: Array  # [n]


def total_objective(
    kind: ObjectiveKind, state: LiftedEncoding, drifts: Array, clean_batch: Array
) -> TotalObjective:
    """Batch-mean objective of one lifted micro-batch with its analytic logit gradient."""
    drifts = np.asarray(drifts, dtype=np.float64)
    if drifts.shape != state.features.shape:
        raise InvalidInputError("drifts must match the lifted features' shape")
    n = drifts.shape[0]
    if kind.variant == ObjectiveVariant.FEATURE_L2:
        losses, grad_h = feature_fixed_point_loss(state.features, drifts, kind.alpha)
        grad = pullback_to_logits(state, grad_h)
    else:
        g = mirror_direction(state, drifts)
        if kind.variant == ObjectiveVariant.MIRROR_KL:
            p_star = mirror_teacher(state.logits, g, kind.eta)
            losses, grad = mirror_kl_loss(p_star, state.logits, state.predicted)
        else:
            l_star = state.logits + kind.eta * g
            losses, grad = mirror_mse_loss(l_star, state.logits, state.predicted)
    if kind.with_base_loss:
        base_losses, base_grad = base_loss(state.logits, clean_batch, state.predicted)
        losses += base_losses
        grad += base_grad
    return TotalObjective(
        loss=float(losses.sum() / n), grad_logits=grad / n, per_sample_loss=losses
    )
