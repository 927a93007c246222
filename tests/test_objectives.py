from __future__ import annotations

import math

import numpy as np
import pytest

from driftlm.backbone import CorruptionKind, base_loss, corrupt
from driftlm.encoder import LiftKind, lift_and_encode, pullback_to_logits
from driftlm.numcore import finite_diff_grad, softmax_rows
from driftlm.objectives import (
    ObjectiveKind,
    ObjectiveVariant,
    feature_fixed_point_loss,
    mirror_direction,
    mirror_kl_loss,
    mirror_mse_loss,
    mirror_teacher,
    total_objective,
)

from conftest import SMALL_MODEL, rel_err

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
    loss, grad = feature_fixed_point_loss(None, np.zeros(5), alpha=1.0)
    assert loss == 0.0 and np.all(grad == 0.0)


def test_fixed_point_unit_drift():
    v = np.array([1.0, 0.0, 0.0])
    loss, grad = feature_fixed_point_loss(None, v, alpha=1.0)
    assert loss == 0.5
    assert np.array_equal(grad, np.array([-1.0, 0.0, 0.0]))


def test_fixed_point_alpha_homogeneity(rng):
    v = rng.normal(size=6)
    loss1, grad1 = feature_fixed_point_loss(None, v, alpha=1.0)
    loss2, grad2 = feature_fixed_point_loss(None, v, alpha=2.0)
    assert abs(loss2 - 4.0 * loss1) < 1e-12
    assert np.allclose(grad2, 2.0 * grad1)


def test_fixed_point_gradient_is_exactly_minus_alpha_v(rng):
    v = rng.normal(size=8)
    alpha = 1.7
    _, grad = feature_fixed_point_loss(None, v, alpha)
    assert np.array_equal(grad, -(alpha * v))  # bit-level stop-gradient identity


# ---------------------------------------------------------------------------
# mirror direction


def test_mirror_direction_zero_drift(small_encoder, rng):
    _, _, state = _state(small_encoder, rng)
    g = mirror_direction(state, np.zeros((1, small_encoder.feature_dim)))
    assert np.all(g == 0.0)


def test_mirror_direction_matches_finite_differences(small_encoder, rng):
    _, record, state = _state(small_encoder, rng)
    v = rng.normal(size=(1, small_encoder.feature_dim))
    g = mirror_direction(state, v)

    def f(l):
        return float(np.sum(v * _lift(small_encoder, l, record).features))

    fd = finite_diff_grad(f, state.logits, step=1e-5)
    assert rel_err(g, fd) <= 1e-5


def test_mirror_direction_linear_in_drift(small_encoder, rng):
    _, _, state = _state(small_encoder, rng)
    v1 = rng.normal(size=(1, small_encoder.feature_dim))
    v2 = rng.normal(size=(1, small_encoder.feature_dim))
    g = mirror_direction(state, v1 + v2)
    g_split = mirror_direction(state, v1) + mirror_direction(state, v2)
    assert np.max(np.abs(g - g_split)) <= 1e-10


# ---------------------------------------------------------------------------
# mirror teacher


def test_teacher_eta_zero_is_identity(rng):
    logits = rng.normal(size=(4, 6))
    assert np.array_equal(mirror_teacher(logits, rng.normal(size=(4, 6)), 0.0), softmax_rows(logits))


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
    loss, grad = mirror_kl_loss(p, logits, np.ones((1, 5), bool))
    assert abs(loss[0]) <= 1e-15 and np.max(np.abs(grad)) <= 1e-15


def test_mirror_kl_nonnegative(rng):
    for _ in range(25):
        logits = rng.normal(size=(1, 3, 5))
        p_star = softmax_rows(rng.normal(size=(1, 3, 5)))
        loss, _ = mirror_kl_loss(p_star, logits, np.ones((1, 3), bool))
        assert loss[0] >= 0.0


def test_mirror_kl_gradient_matches_finite_differences(rng):
    logits = rng.normal(size=(1, 4, 6))
    p_star = softmax_rows(rng.normal(size=(1, 4, 6)))
    positions = np.array([0, 2])
    predicted = _mask(positions, 4)
    _, grad = mirror_kl_loss(p_star, logits, predicted)
    fd = finite_diff_grad(lambda l: mirror_kl_loss(p_star, l, predicted)[0][0], logits, 1e-5)
    assert rel_err(grad, fd) <= 1e-5
    off = np.setdiff1d(np.arange(4), positions)
    assert np.all(grad[0, off] == 0.0)


def test_mirror_mse_identity_and_substitution(rng):
    logits = rng.normal(size=(1, 4, 6))
    every = np.ones((1, 4), bool)
    loss, grad = mirror_mse_loss(logits, logits, every)
    assert loss[0] == 0.0 and np.all(grad == 0.0)
    g = rng.normal(size=(1, 4, 6))
    eta = 0.3
    loss, _ = mirror_mse_loss(logits + eta * g, logits, every)
    expected = eta**2 * float((g * g).sum(axis=-1).mean())
    assert abs(loss[0] - expected) < 1e-12


def test_mirror_mse_gradient_and_masking(rng):
    logits = rng.normal(size=(1, 4, 6))
    l_star = rng.normal(size=(1, 4, 6))
    predicted = _mask([1, 3], 4)
    _, grad = mirror_mse_loss(l_star, logits, predicted)
    fd = finite_diff_grad(lambda l: mirror_mse_loss(l_star, l, predicted)[0][0], logits, 1e-5)
    assert rel_err(grad, fd) <= 1e-5
    assert np.all(grad[0, np.array([0, 2])] == 0.0)


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
    zero = np.zeros((3, small_encoder.feature_dim))
    plain = total_objective(ObjectiveKind(), state, zero, cleans)
    assert plain.loss == 0.0
    assert all(np.all(g == 0.0) for g in plain.grad_logits)
    with_base = total_objective(ObjectiveKind(with_base_loss=True), state, zero, cleans)
    for i in range(3):
        _, bg = base_loss(state.logits[i : i + 1], cleans[i : i + 1], records[i][1])
        assert np.allclose(with_base.grad_logits[i], bg[0] / 3.0, atol=1e-15)


def test_total_mirror_kl_eta_zero_is_null(small_encoder, rng):
    cleans, records, state = _batch(small_encoder, rng)
    drifts = rng.normal(size=(3, small_encoder.feature_dim))
    out = total_objective(
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.0), state, drifts, cleans
    )
    assert out.loss == 0.0
    assert all(np.all(g == 0.0) for g in out.grad_logits)


@pytest.mark.parametrize(
    "kind",
    [
        ObjectiveKind(),
        ObjectiveKind(with_base_loss=True),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.7),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_MSE, eta=0.7),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL, eta=0.7, with_base_loss=True),
    ],
    ids=["feature", "feature+base", "kl", "mse", "kl+base"],
)
def test_total_gradient_matches_frozen_target_finite_differences(small_encoder, rng, kind):
    cleans, records, state = _batch(small_encoder, rng)
    drifts = 0.5 * rng.normal(size=(3, small_encoder.feature_dim))
    out = total_objective(kind, state, drifts, cleans)

    # independent oracle: recompute the total loss with frozen targets
    targets = state.features + kind.alpha * drifts
    g = pullback_to_logits(state, drifts)
    if kind.variant == ObjectiveVariant.MIRROR_KL:
        teachers = mirror_teacher(state.logits, g, kind.eta)
    elif kind.variant == ObjectiveVariant.MIRROR_MSE:
        teachers = state.logits + kind.eta * g

    def loss_at(i, logits):
        one = _lift(small_encoder, logits, records[i], kind.lift)
        predicted = one.predicted
        if kind.variant == ObjectiveVariant.FEATURE_L2:
            diff = one.features[0] - targets[i]
            value = 0.5 * float(diff @ diff)
        elif kind.variant == ObjectiveVariant.MIRROR_KL:
            value = mirror_kl_loss(teachers[i : i + 1], logits, predicted)[0][0]
        else:
            value = mirror_mse_loss(teachers[i : i + 1], logits, predicted)[0][0]
        if kind.with_base_loss:
            value += base_loss(logits, cleans[i : i + 1], records[i][1])[0][0]
        return value

    total_at_base = sum(loss_at(i, state.logits[i : i + 1]) for i in range(3)) / 3.0
    assert abs(total_at_base - out.loss) <= 1e-10
    for i in range(3):
        fd = finite_diff_grad(lambda l, i=i: loss_at(i, l) / 3.0, state.logits[i : i + 1], 1e-5)
        assert rel_err(out.grad_logits[i], fd[0]) <= 1e-4


def test_logit_pullback_identity(small_encoder, rng):
    # FeatureL2 gradient equals -alpha * J^T V composed independently
    cleans, records, state = _batch(small_encoder, rng, n=2)
    drifts = rng.normal(size=(2, small_encoder.feature_dim))
    alpha = 1.3
    out = total_objective(ObjectiveKind(alpha=alpha), state, drifts, cleans)
    for i in range(2):
        one = _lift(small_encoder, state.logits[i : i + 1], records[i])
        jt_v = pullback_to_logits(one, drifts[i : i + 1])[0]
        assert np.max(np.abs(out.grad_logits[i] - (-alpha * jt_v) / 2.0)) <= 1e-10


def test_hard_st_total_uses_straight_through_gradient(small_encoder, rng):
    cleans, records, state = _batch(small_encoder, rng, lift=LiftKind.HARD_ST)
    drifts = rng.normal(size=(3, small_encoder.feature_dim))
    out = total_objective(ObjectiveKind(lift=LiftKind.HARD_ST), state, drifts, cleans)
    # nonzero gradient flows despite the hard forward
    assert any(np.any(g != 0.0) for g in out.grad_logits)


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
        v = rng.normal(size=(1, small_encoder.feature_dim))
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
    zero = np.zeros((3, small_encoder.feature_dim))
    for kind in (
        ObjectiveKind(),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL),
        ObjectiveKind(variant=ObjectiveVariant.MIRROR_MSE),
    ):
        out = total_objective(kind, state, zero, cleans)
        assert out.loss == 0.0
        assert all(np.all(g == 0.0) for g in out.grad_logits)
    g = mirror_direction(state, zero)
    assert np.all(g == 0.0)
    p_star = mirror_teacher(state.logits, g, 1.0)
    assert np.array_equal(p_star, state.probs)
