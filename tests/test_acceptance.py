"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-7 and 10 are analytic/property checks at desk scale.  Criteria 8
and 9, the paper's directional claims (drifting vs. continuation training,
and the ablation orderings), are not gated yet: they need real training
runs and are open item 2 in ROADMAP.md.
"""

from __future__ import annotations

import json
import math

import numpy as np

from driftlm.backbone import (
    CorruptionKind,
    ModelConfig,
    corrupt,
    forward_tokens,
    backward_tokens,
    init_params,
    param_items,
)
from driftlm.corpus import banded_source, sample_sequences
from driftlm.drift import (
    DriftConfig,
    build_references,
    drift_multi_temp,
    drift_single_temp,
    queue_push,
    rms_scale,
)
from driftlm.encoder import (
    LiftKind,
    feature_dim,
    hard_st_lift,
    lift_and_encode,
    make_frozen_encoder,
    pullback_to_logits,
    real_features_batch,
)
from driftlm.numcore import softmax_rows
from driftlm.objectives import (
    ObjectiveKind,
    ObjectiveVariant,
    feature_fixed_point_loss,
    mirror_direction,
    mirror_kl_loss,
    mirror_teacher,
    total_objective,
)
from driftlm.evalcli import cli

from conftest import finite_diff_coordinate, params_from_vector, params_to_vector

DESK = ModelConfig()  # |V| = 32, L = 16, d = 32


def _report(criterion: str, detail: str = ""):
    line = f"[PASS] acceptance criterion {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)


def _unit(rng, dim):
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _desk_instance(rng, batch=4, kind=CorruptionKind.MASKED, require_predicted=True):
    """Random (params, batch, references) instance at desk scale."""
    params = init_params(DESK, rng, init_std=0.02)
    encoder = make_frozen_encoder(params)
    source = banded_source()
    while True:
        clean = sample_sequences(source, batch, DESK.length, rng)
        # one row at a time: each row's level is drawn just before its corruption
        rows = [
            corrupt(clean[i : i + 1], rng.uniform(0.2, 0.9, size=1), kind, rng, DESK.vocab_size)
            for i in range(batch)
        ]
        corrupted, predicted = (np.concatenate(parts) for parts in zip(*rows))
        if not require_predicted or np.all(predicted.any(axis=1)):
            break
    logits, cache = forward_tokens(params, corrupted)
    state = lift_and_encode(encoder, logits, corrupted, predicted)
    m = feature_dim(encoder)
    q_real = queue_push(np.zeros((0, m)), np.stack([_unit(rng, m) for _ in range(6)]), 6)
    q_gen = queue_push(np.zeros((0, m)), np.stack([_unit(rng, m) for _ in range(6)]), 6)
    reals = real_features_batch(encoder, clean)
    positives, negatives = build_references(reals, state.features, q_real, q_gen)
    drifts = drift_multi_temp(
        state.features, positives, negatives, DriftConfig(), exclude_self=True
    )
    return params, encoder, source, clean, corrupted, predicted, logits, cache, state, drifts


def _lift_one(encoder, logits, corrupted, predicted, lift=LiftKind.SOFT):
    """``lift_and_encode`` of one sequence (logits ``[L, V]``, tokens and mask ``[L]``)."""
    return lift_and_encode(encoder, logits[None], corrupted[None], predicted[None], lift)


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle suite


def test_criterion_1_gradient_oracle_suite():
    # the central-difference oracle resolves ~1e-11 absolute (eps * |loss| /
    # step), so relative error uses a 1e-6 floor: coordinates below the floor
    # are held to 1e-10 absolute, well above the oracle noise
    def rel(analytic, fd):
        return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-6)

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        params, encoder, _, clean, corrupted, predicted, logits, cache, state, drifts = (
            _desk_instance(rng)
        )
        batch = len(clean)
        kind = ObjectiveKind()  # FeatureL2, soft lift
        _, grad = total_objective(kind, state, drifts, clean)
        targets = state.features + drifts

        def sample_loss(i, sample_logits):
            lifted = _lift_one(encoder, sample_logits, corrupted[i], predicted[i], kind.lift)
            diff = lifted.features[0] - targets[i]
            return 0.5 * float(diff @ diff) / batch

        # logits: random coordinates of random samples
        for _ in range(8):
            i = int(rng.integers(batch))
            k = int(rng.integers(logits[i].size))
            fd = finite_diff_coordinate(lambda l, i=i: sample_loss(i, l), logits[i], k, 1e-5)
            an = (grad[i] / batch).ravel()[k]
            worst = max(worst, rel(an, fd))

        # parameters: random coordinates across the whole parameter vector
        theta = params_to_vector(params)

        def total_loss(vec):
            p = params_from_vector(params, vec)
            lg, _ = forward_tokens(p, corrupted)
            value = 0.0
            for i in range(batch):
                lifted = _lift_one(encoder, lg[i], corrupted[i], predicted[i], kind.lift)
                diff = lifted.features[0] - targets[i]
                value += 0.5 * float(diff @ diff)
            return value / batch

        grads = backward_tokens(params, cache, grad / batch)
        grad_vec = np.concatenate([grads[name].ravel() for name, _ in param_items(params)])
        for _ in range(6):
            k = int(rng.integers(theta.size))
            fd = finite_diff_coordinate(total_loss, theta, k, 1e-5)
            worst = max(worst, rel(grad_vec[k], fd))
    assert worst <= 1e-4
    _report("1", f"max relative error {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# criterion 2: soft lift differentiates, hard lift does not


def test_criterion_2_soft_lift_differentiable_hard_lift_piecewise_constant():
    rng = np.random.default_rng(102)
    nonzero = 0
    for _ in range(100):
        params = init_params(DESK, rng, init_std=0.02)
        encoder = make_frozen_encoder(params)
        source = banded_source()
        clean = sample_sequences(source, 1, DESK.length, rng)
        corrupted, predicted = corrupt(
            clean, rng.uniform(0.3, 0.9, size=1), CorruptionKind.MASKED, rng, 32
        )
        if not np.any(predicted):
            nonzero += 1  # vacuously fine; no predicted positions to test
            continue
        logits = rng.normal(size=(DESK.length, DESK.vocab_size))
        state = _lift_one(encoder, logits, corrupted[0], predicted[0], LiftKind.SOFT)
        g = pullback_to_logits(state, _unit(rng, feature_dim(encoder))[None])[0]
        if np.any(g[predicted[0]] != 0.0):
            nonzero += 1

        # hard forward is bit-identical under argmax-preserving perturbation:
        # move mass toward the runner-up while the top entry stays largest
        probs = state.probs[0]
        bumped = probs.copy()
        pos = np.flatnonzero(predicted[0])[0]
        order = np.argsort(probs[pos])
        top, second = int(order[-1]), int(order[-2])
        shift = 0.25 * (probs[pos, top] - probs[pos, second])
        bumped[pos, second] += shift
        bumped[pos, top] -= shift
        assert int(bumped[pos].argmax()) == top
        a = hard_st_lift(probs[None], corrupted, predicted, encoder.embed)
        b = hard_st_lift(bumped[None], corrupted, predicted, encoder.embed)
        assert a.tobytes() == b.tobytes()
    assert nonzero >= 99
    _report("2", f"nonzero soft cotangent in {nonzero}/100 instances; hard forward bit-stable")


# ---------------------------------------------------------------------------
# criterion 3: equilibrium suite


def test_criterion_3_equilibrium_suite():
    rng = np.random.default_rng(103)
    m = 2 * DESK.embed_dim
    refs = np.stack([_unit(rng, m) for _ in range(8)])
    twins = refs.copy()
    anchors = np.stack([_unit(rng, m) for _ in range(4)])

    for tau in DriftConfig().temperatures:
        for h in anchors:
            assert np.all(drift_single_temp(h[None], refs, twins, tau) == 0.0)
    drifts = drift_multi_temp(anchors, refs, twins, DriftConfig())
    assert np.max(np.abs(drifts)) <= 1e-12

    params = init_params(DESK, rng, init_std=0.02)
    encoder = make_frozen_encoder(params)
    source = banded_source()
    clean = sample_sequences(source, 2, DESK.length, rng)
    corrupted, predicted = corrupt(clean, np.full(2, 0.5), CorruptionKind.MASKED, rng, 32)
    logits, _ = forward_tokens(params, corrupted)
    state = lift_and_encode(encoder, logits, corrupted, predicted)
    zero = np.zeros((2, feature_dim(encoder)))

    loss, grad = feature_fixed_point_loss(zero)
    assert np.all(loss == 0.0) and np.all(grad == 0.0)
    g = mirror_direction(state, zero)
    assert np.all(g == 0.0)
    p_star = mirror_teacher(state.logits, g, 1.0)
    assert np.array_equal(p_star, state.probs)
    kl, kl_grad = mirror_kl_loss(p_star, softmax_rows(state.logits), state.predicted)
    assert np.all(kl == 0.0) and np.all(kl_grad == 0.0)
    for kind in (ObjectiveKind(), ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL)):
        losses, grad = total_objective(kind, state, zero, clean)
        assert np.all(losses == 0.0) and np.all(grad == 0.0)
    _report("3", "per-tau, multi-tau, FeatureL2, g, teacher, and mirror losses all zero")


# ---------------------------------------------------------------------------
# criterion 4: anti-symmetry


def test_criterion_4_antisymmetry():
    rng = np.random.default_rng(104)
    m = 2 * DESK.embed_dim
    worst = 0.0
    for _ in range(100):
        h = _unit(rng, m)
        pos = rng.normal(size=(int(rng.integers(1, 10)), m))
        neg = rng.normal(size=(int(rng.integers(1, 10)), m))
        tau = float(rng.choice([0.02, 0.05, 0.2]))
        fwd = drift_single_temp(h[None], pos, neg, tau, 1.0, 1.0)
        bwd = drift_single_temp(h[None], neg, pos, tau, 1.0, 1.0)
        worst = max(worst, float(np.max(np.abs(fwd + bwd))))
    assert worst <= 1e-12
    _report("4", f"max |V(P,N) + V(N,P)| = {worst:.2e} over 100 instances")


# ---------------------------------------------------------------------------
# criterion 5: mirror variational oracle


def _teacher_objective(q, p, g, eta):
    terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / p), 0.0)
    return float(q @ g - terms.sum() / eta)


def test_criterion_5_mirror_variational_oracle():
    rng = np.random.default_rng(105)
    for trial in range(50):
        eta = float(rng.uniform(0.2, 3.0))
        # 2-token simplex, grid step 1e-4
        logits = rng.normal(size=(1, 2))
        g = rng.normal(size=(1, 2))
        p = softmax_rows(logits)[0]
        teacher = mirror_teacher(logits, g, eta)[0]
        qs = np.linspace(0.0, 1.0, 10_001)
        grid = np.stack([qs, 1.0 - qs], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.where(grid > 0, grid * np.log(np.where(grid > 0, grid, 1.0) / p), 0.0)
        objective = grid @ g[0] - vals.sum(axis=1) / eta
        best = float(objective.max())
        val = _teacher_objective(teacher, p, g[0], eta)
        assert val >= best - 1e-9
        assert val - best <= 1e-2

        # 3-token simplex, grid step 1e-2
        logits = rng.normal(size=(1, 3))
        g = rng.normal(size=(1, 3))
        p = softmax_rows(logits)[0]
        teacher = mirror_teacher(logits, g, eta)[0]
        best = -math.inf
        steps = np.linspace(0.0, 1.0, 101)
        for a in steps:
            for b in steps[: int(round((1.0 - a) * 100)) + 1]:
                q = np.array([a, b, 1.0 - a - b])
                if q[2] < -1e-12:
                    continue
                q[2] = max(q[2], 0.0)
                best = max(best, _teacher_objective(q, p, g[0], eta))
        val = _teacher_objective(teacher, p, g[0], eta)
        assert val >= best - 1e-9
        assert val - best <= 1e-1
    _report("5", "softmax(l + eta g) attains the grid maximum on 2- and 3-simplices")


# ---------------------------------------------------------------------------
# criterion 6: local ascent


def test_criterion_6_local_ascent():
    rng = np.random.default_rng(106)
    checked = 0
    ratios = []
    while checked < 100:
        params = init_params(DESK, rng, init_std=0.02)
        encoder = make_frozen_encoder(params)
        source = banded_source()
        clean = sample_sequences(source, 1, DESK.length, rng)
        corrupted, predicted = corrupt(
            clean, rng.uniform(0.3, 0.9, size=1), CorruptionKind.MASKED, rng, 32
        )
        if not np.any(predicted):
            continue
        logits = rng.normal(size=(DESK.length, DESK.vocab_size))
        state = _lift_one(encoder, logits, corrupted[0], predicted[0])
        v = _unit(rng, feature_dim(encoder))
        g = mirror_direction(state, v[None])[0]
        g_sq = float((g * g).sum())
        if math.sqrt(g_sq) <= 1e-6:
            continue

        def psi(l):
            return float(v @ _lift_one(encoder, l, corrupted[0], predicted[0]).features[0])

        base = psi(logits)
        for eta in (1e-3, 1e-2):
            assert psi(logits + eta * g) > base
        eta = 1e-4
        ratio = (psi(logits + eta * g) - base) / (eta * g_sq)
        assert 0.95 <= ratio <= 1.05
        ratios.append(ratio)
        checked += 1
    _report("6", f"100 instances; first-order ratio span [{min(ratios):.4f}, {max(ratios):.4f}]")


# ---------------------------------------------------------------------------
# criterion 7: RMS normalization


def test_criterion_7_rms_normalization():
    rng = np.random.default_rng(107)
    m = 2 * DESK.embed_dim
    for trial in range(20):
        anchors = np.stack([_unit(rng, m) for _ in range(6)])
        pos = rng.normal(size=(8, m))
        neg = rng.normal(size=(7, m))
        for tau in (0.02, 0.05, 0.2):
            per = drift_single_temp(anchors, pos, neg, tau)
            assert float(np.sqrt(np.mean(np.sum(per * per, axis=1)))) > 1e-3
            normalized = per / rms_scale(per)
            rms = float(np.sqrt(np.mean(np.sum(normalized * normalized, axis=1))))
            assert abs(rms - 1.0) <= 1e-6
    _report("7", "normalized per-temperature batches have RMS norm 1 within 1e-6")


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism


def test_criterion_10_cli_determinism(tmp_path):
    from driftlm.corpus import save_source
    from driftlm.trainer import TrainConfig, init_state, save_checkpoint
    from driftlm.evalcli import train_config_to_dict

    source_path = tmp_path / "source.json"
    save_source(banded_source(), source_path)
    config = TrainConfig(
        batch_size=8,
        micro_batch=4,
        steps=10,
        eval_every=5,
        eval_samples=32,
        eval_nfes=(4, 8, 16),
        objective=ObjectiveKind(),
        queue_capacity=64,
        lr=3e-5,
    )
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(train_config_to_dict(config)), encoding="utf-8")
    init_path = tmp_path / "init.json"
    save_checkpoint(init_state(TrainConfig(seed=3)), init_path)

    artifacts = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        code = cli(
            [
                "drift-train",
                "--source",
                str(source_path),
                "--out",
                str(out),
                "--config",
                str(config_path),
                "--init",
                str(init_path),
                "--seed",
                "1",
            ]
        )
        assert code == 0
        eval_out = tmp_path / f"{name}_eval"
        code = cli(
            [
                "eval",
                "--init",
                str(out / "checkpoint.json"),
                "--source",
                str(source_path),
                "--out",
                str(eval_out),
                "--nfe",
                "4,8",
                "--samples",
                "64",
                "--seed",
                "7",
            ]
        )
        assert code == 0
        artifacts.append(
            (
                (out / "metrics.csv").read_bytes(),
                (eval_out / "report.json").read_bytes(),
            )
        )
    assert artifacts[0][0] == artifacts[1][0], "metrics.csv differs between reruns"
    assert artifacts[0][1] == artifacts[1][1], "report.json differs between reruns"
    _report("10", "byte-identical metrics.csv and report.json across reruns")
