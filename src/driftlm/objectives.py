"""Trainable objectives: feature-space fixed-point loss and a mirror teacher.

The fixed-point loss matches the generated feature to a stop-gradient target
shifted by the drift, so its feature gradient is exactly -V and the logit
gradient is the VJP pullback of that vector.  The mirror variant instead
converts the drift into one detached teacher distribution via an
exponentiated-gradient step in logit space and matches it with KL.
Every function takes a whole micro-batch: features and drifts ``[n, m]``,
logits ``[n, L, V]`` and a boolean ``predicted [n, L]`` position mask.
Every loss returns per-sequence losses ``[n]`` and the gradient of their
sum, as ``backbone.base_loss`` does, so terms add up row by row and the
trainer takes the batch mean once.
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


@dataclass(frozen=True)
class ObjectiveKind:
    variant: ObjectiveVariant = ObjectiveVariant.FEATURE_L2
    with_base_loss: bool = False
    lift: LiftKind = LiftKind.SOFT
    eta: float = 1.0  # mirror step size, unused by the feature variant

    def __post_init__(self):
        if not 0.0 <= self.eta < np.inf:  # NaN fails too
            raise InvalidInputError("eta must be nonnegative and finite")


def feature_fixed_point_loss(drift: Array) -> tuple[Array, Array]:
    """Per-row 1/2 ||h - sg(h + V)||^2 with its exact feature gradient -V;
    at the current features h both depend on the drift V alone."""
    drift = np.asarray(drift, dtype=np.float64)
    return 0.5 * np.sum(drift * drift, axis=-1), -drift


def mirror_direction(state: LiftedEncoding, drift: Array) -> Array:
    """Logit-space ascent direction J_h(logits)^T V from the stored VJP chain."""
    return pullback_to_logits(state, np.asarray(drift, dtype=np.float64))


def mirror_teacher(logits: Array, g: Array, eta: float) -> Array:
    """Detached teacher softmax(logits + eta * g); rows stay on the simplex."""
    if eta < 0.0:
        raise InvalidInputError("eta must be nonnegative")
    return numcore.softmax_rows(np.asarray(logits, np.float64) + eta * np.asarray(g, np.float64))


def mirror_kl_loss(p_star: Array, probs: Array, predicted: Array) -> tuple[Array, Array]:
    """Per-sequence mean KL(p* || p) over predicted positions, for the model's
    ``probs`` p = softmax(logits); the gradient is d/d logits, (p - p*) / count.

    Both distributions go through the same log so a bitwise-equal teacher
    (the drift-equilibrium case) yields exactly zero loss and gradient.
    """
    p = np.asarray(probs, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=bool)
    p_star = np.asarray(p_star, dtype=np.float64)
    count = np.maximum(predicted.sum(axis=1), 1)
    log_ratio = np.log(np.where(p_star > 0.0, p_star, 1.0)) - np.log(p)
    row_kl = np.where(p_star > 0.0, p_star * log_ratio, 0.0).sum(axis=-1)
    loss = np.where(predicted, row_kl, 0.0).sum(axis=1) / count
    return loss, np.where(predicted[..., None], (p - p_star) / count[:, None, None], 0.0)


def total_objective(
    kind: ObjectiveKind, state: LiftedEncoding, drifts: Array, clean_batch: Array
) -> tuple[Array, Array]:
    """Per-sequence losses ``[n]`` of one lifted slice and the logit gradient of their sum.

    The drift term's loss, plus the base denoising loss if ``kind`` asks for
    it; the caller divides the gradient by its batch size.
    """
    drifts = np.asarray(drifts, dtype=np.float64)
    if drifts.shape != state.features.shape:
        raise InvalidInputError("drifts must match the lifted features' shape")
    if kind.variant == ObjectiveVariant.FEATURE_L2:
        losses, grad_h = feature_fixed_point_loss(drifts)
        grad = pullback_to_logits(state, grad_h)
    else:
        p_star = mirror_teacher(state.logits, mirror_direction(state, drifts), kind.eta)
        losses, grad = mirror_kl_loss(p_star, state.probs, state.predicted)
    if kind.with_base_loss:
        base_losses, base_grad = base_loss(state.logits, clean_batch, state.predicted)
        losses += base_losses
        grad += base_grad
    return losses, grad
