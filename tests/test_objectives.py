from __future__ import annotations

import math

import numpy as np
import pytest

from driftlm.backbone import CorruptionKind, base_loss, corrupt
from driftlm.encoder import LiftKind, feature_dim, lift_and_encode, pullback_to_logits
from driftlm.numcore import InvalidInputError, softmax_rows
from driftlm.objectives import (
    ObjectiveKind,
    ObjectiveVariant,
    feature_fixed_point_loss,
    mirror_direction,
    mirror_kl_loss,
    mirror_teacher,
    total_objective,
)

from conftest import SMALL_MODEL, finite_diff_grad, rel_err

L, V = SMALL_MODEL.length, SMALL_MODEL.vocab_size


def _lift(encoder, logits, record, lift=LiftKind.SOFT):
    """``lift_and_encode`` of one ``(corrupted [1, L], predicted [1, L])`` record."""
    return lift_and_encode(encoder, logits, *record, lift)


def _corrupt_one(clean, t, seed):
    """Masked corruption of one sequence ``[L]`` as a batch of one."""
    return corrupt(
        clean[None], np.array([t]), CorruptionKind.MASKED, np.random.default_rng(seed), V
    )


def _state(encoder, rng, t=0.6, lift=LiftKind.SOFT, record_seed=3):
    clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=SMALL_MODEL.length)
    record = _corrupt_one(clean, t, record_seed)
    logits = rng.normal(size=(1, L, V))
    return clean, record, _lift(encoder, logits, record, lift)


def _mask(positions, n_rows):
    """Predicted-position mask ``[1, n_rows]`` for one sequence."""
    predicted = np.zeros((1, n_rows), dtype=bool)
    predicted[0, positions] = True
    return predicted


# ---------------------------------------------------------------------------
# fixed-point loss


def test_fixed_point_zero_drift():
    loss, grad = feature_fixed_point_loss(np.zeros(5))
    assert loss == 0.0 and np.all(grad == 0.0)


def test_fixed_point_unit_drift():
    v = np.array([1.0, 0.0, 0.0])
    loss, grad = feature_fixed_point_loss(v)
    assert loss == 0.5
    assert np.array_equal(grad, np.array([-1.0, 0.0, 0.0]))


def test_fixed_point_gradient_is_exactly_minus_alpha_v(rng):
    v = rng.normal(size=8)
    _, grad = feature_fixed_point_loss(v)
    assert np.array_equal(grad, -v)  # bit-level stop-gradient identity


# ---------------------------------------------------------------------------
# mirror direction


def test_mirror_direction_zero_drift(small_encoder, rng):
    _, _, state = _state(small_encoder, rng)
    g = mirror_direction(state, np.zeros((1, feature_dim(small_encoder))))
    assert np.all(g == 0.0)


def test_mirror_direction_matches_finite_differences(small_encoder, rng):
    _, record, state = _state(small_encoder, rng)
    v = rng.normal(size=(1, feature_dim(small_encoder)))
    g = mirror_direction(state, v)

    def f(l):
        return float(np.sum(v * _lift(small_encoder, l, record).features))

    fd = finite_diff_grad(f, state.logits, step=1e-5)
    assert rel_err(g, fd) <= 1e-5


def test_mirror_direction_linear_in_drift(small_encoder, rng):
    _, _, state = _state(small_encoder, rng)
    v1 = rng.normal(size=(1, feature_dim(small_encoder)))
    v2 = rng.normal(size=(1, feature_dim(small_encoder)))
    g = mirror_direction(state, v1 + v2)
    g_split = mirror_direction(state, v1) + mirror_direction(state, v2)
    assert np.max(np.abs(g - g_split)) <= 1e-10


# ---------------------------------------------------------------------------
# mirror teacher


def test_teacher_eta_zero_is_identity(rng):
    logits = rng.normal(size=(4, 6))
    assert np.array_equal(mirror_teacher(logits, rng.normal(size=(4, 6)), 0.0), softmax_rows(logits))


def test_teacher_rejects_a_negative_eta(rng):
    with pytest.raises(InvalidInputError, match="eta must be nonnegative"):
        mirror_teacher(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)), -0.1)


def test_teacher_constant_direction_is_identity(rng):
    logits = rng.normal(size=(4, 6))
    g = np.ones((4, 6)) * 2.3
    assert np.max(np.abs(mirror_teacher(logits, g, 1.5) - softmax_rows(logits))) <= 1e-12


def test_teacher_two_simplex_closed_form():
    logits = np.log(np.array([[0.5, 0.5]]))
    p_star = mirror_teacher(logits, np.array([[1.0, 0.0]]), math.log(2.0))
    assert np.max(np.abs(p_star - np.array([[2 / 3, 1 / 3]]))) <= 1e-12


def _teacher_objective(q, p, g, eta):
    terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / p), 0.0)
    return float(q @ g - terms.sum() / eta)


def test_teacher_maximizes_variational_objective_on_grid(rng):
    logits = rng.normal(size=(1, 2))
    g = rng.normal(size=(1, 2))
    eta = 0.9
    p = softmax_rows(logits)[0]
    teacher = mirror_teacher(logits, g, eta)[0]
    qs = np.linspace(0.0, 1.0, 10_001)
    grid_best = max(_teacher_objective(np.array([q, 1 - q]), p, g[0], eta) for q in qs)
    val = _teacher_objective(teacher, p, g[0], eta)
    assert val >= grid_best - 1e-9
    assert val - grid_best <= 1e-3


# ---------------------------------------------------------------------------
# mirror losses


def test_mirror_kl_identity(rng):
    logits = rng.normal(size=(1, 5, 7))
    p = softmax_rows(logits)
    loss, grad = mirror_kl_loss(p, softmax_rows(logits), np.ones((1, 5), bool))
    assert abs(loss[0]) <= 1e-15 and np.max(np.abs(grad)) <= 1e-15


def test_mirror_kl_nonnegative(rng):
    for _ in range(25):
        logits = rng.normal(size=(1, 3, 5))
        p_star = softmax_rows(rng.normal(size=(1, 3, 5)))
        loss, _ = mirror_kl_loss(p_star, softmax_rows(logits), np.ones((1, 3), bool))
        assert loss[0] >= 0.0


def test_mirror_kl_gradient_matches_finite_differences(rng):
    logits = rng.normal(size=(1, 4, 6))
    p_star = softmax_rows(rng.normal(size=(1, 4, 6)))
    positions = np.array([0, 2])
    predicted = _mask(positions, 4)
    _, grad = mirror_kl_loss(p_star, softmax_rows(logits), predicted)
    # the loss takes probabilities; its gradient is with respect to the logits
    fd = finite_diff_grad(
        lambda l: mirror_kl_loss(p_star, softmax_rows(l), predicted)[0][0], logits, 1e-5
    )
    assert rel_err(grad, fd) <= 1e-5
    off = np.setdiff1d(np.arange(4), positions)
    assert np.all(grad[0, off] == 0.0)


# ---------------------------------------------------------------------------
# total objective


def _batch(encoder, rng, n=3, lift=LiftKind.SOFT):
    """``n`` sequences lifted together: clean ``[n, L]``, records and the batch state."""
    cleans, records, logits = [], [], []
    for i in range(n):
        clean, record, state = _state(encoder, rng, record_seed=10 + i, lift=lift)
        cleans.append(clean)
        records.append(record)
        logits.append(state.logits[0])
    corrupted, predicted = (np.concatenate(parts) for parts in zip(*records))
    return np.stack(cleans), records, lift_and_encode(
        encoder, np.stack(logits), corrupted, predicted, lift
    )


def test_total_feature_l2_zero_drift_reduces_to_base(small_encoder, rng):
    cleans, records, state = _batch(small_encoder, rng)
    zero = np.zeros((3, feature_dim(small_encoder)))
    losses, grad = total_objective(ObjectiveKind(), state, zero, cleans)
    assert np.all(losses == 0.0)
    assert np.all(grad == 0.0)
    _, with_base = total_objective(ObjectiveKind(with_base_loss=True), state, zero, cleans)
    for i in range(3):
        _, bg = base_loss(state.logits[i : i + 1], cleans[i : i + 1], records[i][1])
        assert np.allclose(with_base[i], bg[0], atol=1e-15)


def test_total_rejects_drifts_of_another_shape(small_encoder, rng):
    cleans, _, state = _batch(small_encoder, rng)
    m = feature_dim(small_encoder)
    for shape in ((2, m), (3, m + 1), (m,)):
        with pytest.raises(InvalidInputError, match="drifts must match the lifted features' shape"):
            total_objective(ObjectiveKind(), state, np.zeros(shape), cleans)


def test_total_mirror_kl_eta_zero_is_null(small_encoder, rng):
    cleans, records, state = _batch(small_encoder, rng)
    drifts = rng.normal(size=(3, feature_dim(small_encoder)))
    losses, grad = total_objective(
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.0), state, drifts, cleans
    )
    assert np.all(losses == 0.0)
    assert np.all(grad == 0.0)


@pytest.mark.parametrize("with_base_loss", [False, True], ids=["kl", "kl+base"])
def test_total_mirror_kl_equals_composition_from_logits(small_encoder, rng, with_base_loss):
    # total_objective reuses the lift's probabilities; composed from the
    # logits, the teacher, loss and gradient have the same bits
    cleans, records, state = _batch(small_encoder, rng)
    drifts = rng.normal(size=(3, feature_dim(small_encoder)))
    kind = ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.7, with_base_loss=with_base_loss)
    losses, grad = total_objective(kind, state, drifts, cleans)
    p_star = mirror_teacher(state.logits, mirror_direction(state, drifts), kind.eta)
    want, want_grad = mirror_kl_loss(p_star, softmax_rows(state.logits), state.predicted)
    if with_base_loss:
        base_losses, base_grad = base_loss(state.logits, cleans, state.predicted)
        want, want_grad = want + base_losses, want_grad + base_grad
    assert np.array_equal(losses, want) and np.array_equal(grad, want_grad)


@pytest.mark.parametrize(
    "kind",
    [
        ObjectiveKind(),
        ObjectiveKind(with_base_loss=True),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.7),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.7, with_base_loss=True),
    ],
    ids=["feature", "feature+base", "kl", "kl+base"],
)
def test_total_gradient_matches_frozen_target_finite_differences(small_encoder, rng, kind):
    cleans, records, state = _batch(small_encoder, rng)
    drifts = 0.5 * rng.normal(size=(3, feature_dim(small_encoder)))
    losses, grad = total_objective(kind, state, drifts, cleans)

    # independent oracle: recompute the total loss with frozen targets
    targets = state.features + drifts
    teachers = mirror_teacher(state.logits, pullback_to_logits(state, drifts), kind.eta)

    def loss_at(i, logits):
        one = _lift(small_encoder, logits, records[i], kind.lift)
        predicted = one.predicted
        if kind.variant == ObjectiveVariant.FEATURE_L2:
            diff = one.features[0] - targets[i]
            value = 0.5 * float(diff @ diff)
        else:
            value = mirror_kl_loss(teachers[i : i + 1], softmax_rows(logits), predicted)[0][0]
        if kind.with_base_loss:
            value += base_loss(logits, cleans[i : i + 1], records[i][1])[0][0]
        return value

    total_at_base = sum(loss_at(i, state.logits[i : i + 1]) for i in range(3))
    assert abs(total_at_base - losses.sum()) <= 1e-10
    for i in range(3):
        fd = finite_diff_grad(lambda l, i=i: loss_at(i, l), state.logits[i : i + 1], 1e-5)
        assert rel_err(grad[i], fd[0]) <= 1e-4


def test_logit_pullback_identity(small_encoder, rng):
    # FeatureL2 gradient equals -J^T V composed independently
    cleans, records, state = _batch(small_encoder, rng, n=2)
    drifts = rng.normal(size=(2, feature_dim(small_encoder)))
    _, grad = total_objective(ObjectiveKind(), state, drifts, cleans)
    for i in range(2):
        one = _lift(small_encoder, state.logits[i : i + 1], records[i])
        jt_v = pullback_to_logits(one, drifts[i : i + 1])[0]
        assert np.max(np.abs(grad[i] - (-jt_v))) <= 1e-10


def test_hard_st_total_uses_straight_through_gradient(small_encoder, rng):
    cleans, records, state = _batch(small_encoder, rng, lift=LiftKind.HARD_ST)
    drifts = rng.normal(size=(3, feature_dim(small_encoder)))
    _, grad = total_objective(ObjectiveKind(lift=LiftKind.HARD_ST), state, drifts, cleans)
    # nonzero gradient flows despite the hard forward
    assert np.any(grad != 0.0)


# ---------------------------------------------------------------------------
# local ascent and equilibrium properties


def test_local_ascent_and_first_order_ratio(small_encoder, rng):
    checked = 0
    trials = 0
    while checked < 100 and trials < 300:
        trials += 1
        clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=SMALL_MODEL.length)
        record = _corrupt_one(clean, 0.6, trials)
        if not np.any(record[1]):
            continue
        logits = rng.normal(size=(1, L, V))
        state = _lift(small_encoder, logits, record)
        v = rng.normal(size=(1, feature_dim(small_encoder)))
        v /= np.linalg.norm(v)
        g = mirror_direction(state, v)
        g_norm_sq = float((g * g).sum())
        if math.sqrt(g_norm_sq) <= 1e-6:
            continue

        def psi(l):
            return float(np.sum(v * _lift(small_encoder, l, record).features))

        base = psi(logits)
        for eta in (1e-3, 1e-2):
            assert psi(logits + eta * g) > base
        eta = 1e-4
        ratio = (psi(logits + eta * g) - base) / (eta * g_norm_sq)
        assert 0.95 <= ratio <= 1.05
        checked += 1
    assert checked == 100


def test_equilibrium_cascade_is_exact(small_encoder, rng):
    # V = 0 forces g = 0, teacher = p, all losses and grads exactly zero
    cleans, records, state = _batch(small_encoder, rng)
    zero = np.zeros((3, feature_dim(small_encoder)))
    for kind in (ObjectiveKind(), ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL)):
        losses, grad = total_objective(kind, state, zero, cleans)
        assert np.all(losses == 0.0)
        assert np.all(grad == 0.0)
    g = mirror_direction(state, zero)
    assert np.all(g == 0.0)
    p_star = mirror_teacher(state.logits, g, 1.0)
    assert np.array_equal(p_star, state.probs)
