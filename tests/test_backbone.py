from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlm import backbone
from driftlm.backbone import (
    CorruptionKind,
    backward_tokens,
    base_loss,
    corrupt,
    forward_tokens,
    init_params,
    param_items,
    params_from_vector,
    params_to_vector,
    sample_batch,
)
from driftlm.encoder import LiftKind, lift_and_encode, make_frozen_encoder
from driftlm.numcore import InvalidInputError, finite_diff_grad, log_softmax_rows, softmax_rows
from driftlm.objectives import ObjectiveKind, total_objective

from conftest import SMALL_MODEL, denoise_backward, denoise_forward, rel_err, sample


# ---------------------------------------------------------------------------
# per-sequence reference implementations


def _corrupt_masked_oracle(clean, levels, rng, vocab_size=32):
    """One ``rng.random(L)`` draw per sequence, in row order."""
    mask_index = vocab_size - 1
    corrupted = np.empty_like(clean)
    predicted = np.zeros(clean.shape, dtype=bool)
    for i, (seq, t) in enumerate(zip(clean, levels)):
        hits = rng.random(seq.size) < t
        corrupted[i] = np.where(hits, mask_index, seq)
        predicted[i, np.flatnonzero(corrupted[i] == mask_index)] = True
    return corrupted, predicted


def _base_loss_oracle(logits, clean, positions):
    """Mean cross-entropy of one sequence ``[L, V]`` over ``positions``, with its gradient."""
    grad = np.zeros_like(logits)
    if positions.size == 0:
        return 0.0, grad
    logp = log_softmax_rows(logits[positions])
    targets = clean[positions]
    loss = float(-logp[np.arange(positions.size), targets].mean())
    g = np.exp(logp)
    g[np.arange(positions.size), targets] -= 1.0
    grad[positions] = g / positions.size
    return loss, grad


def _one(level):
    return np.array([level])


# ---------------------------------------------------------------------------
# corruption


def test_corrupt_masked_t_to_one(rng):
    clean = rng.integers(0, 31, size=(1, 16))
    corrupted, predicted = corrupt(
        clean, _one(1.0 - 1e-12), CorruptionKind.MASKED, np.random.default_rng(1)
    )
    assert np.all(corrupted == 31)
    assert np.all(predicted)


def test_corrupt_masked_t_to_zero(rng):
    clean = rng.integers(0, 31, size=(1, 16))
    corrupted, predicted = corrupt(clean, _one(1e-12), CorruptionKind.MASKED, np.random.default_rng(1))
    assert np.array_equal(corrupted, clean)
    assert not np.any(predicted)


def test_corrupt_masked_count_binomial():
    clean = (np.arange(16) % 31)[None]
    counts = [
        corrupt(clean, _one(0.5), CorruptionKind.MASKED, rng)[1].sum()
        for rng in [np.random.default_rng(s) for s in range(10_000)]
    ]
    mean = float(np.mean(counts))
    sigma = math.sqrt(16 * 0.25 / 10_000)
    assert abs(mean - 8.0) <= 3 * sigma


def test_corrupt_masked_never_alters_unmasked(rng):
    clean = rng.integers(0, 31, size=(1, 16))
    for seed in range(50):
        corrupted, _ = corrupt(clean, _one(0.5), CorruptionKind.MASKED, np.random.default_rng(seed))
        untouched = corrupted != 31
        assert np.array_equal(corrupted[untouched], clean[untouched])


def test_corrupt_masked_matches_per_sequence_oracle():
    clean = np.random.default_rng(2).integers(0, 31, size=(64, 16))
    levels = np.random.default_rng(3).uniform(0.05, 0.95, size=64)
    rng_batch, rng_oracle = np.random.default_rng(4), np.random.default_rng(4)
    corrupted, predicted = corrupt(clean, levels, CorruptionKind.MASKED, rng_batch)
    ref_corrupted, ref_predicted = _corrupt_masked_oracle(clean, levels, rng_oracle)
    assert np.array_equal(corrupted, ref_corrupted)
    assert np.array_equal(predicted, ref_predicted)
    # both consumed the same number of draws
    assert rng_batch.random() == rng_oracle.random()


def test_corrupt_uniform_predicts_everything(rng):
    clean = rng.integers(0, 31, size=(1, 16))
    corrupted, predicted = corrupt(clean, _one(0.3), CorruptionKind.UNIFORM, np.random.default_rng(0))
    assert np.all(predicted)
    assert np.all(corrupted < 31)


def test_corrupt_uniform_resample_marginal_is_uniform():
    # chi-square over resampled values at t ~ 1
    clean = np.zeros((100_000 // 16, 16), dtype=np.int64)
    levels = np.full(clean.shape[0], 1.0 - 1e-12)
    corrupted, _ = corrupt(clean, levels, CorruptionKind.UNIFORM, np.random.default_rng(7))
    counts = np.bincount(corrupted.ravel(), minlength=31)
    expected = 100_000 / 31
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # dof = 30; p > 0.001 corresponds to chi2 < 59.7
    assert chi2 < 59.7


def test_corrupt_rejects_bad_level(rng):
    clean = rng.integers(0, 31, size=(3, 16))
    for t in (0.0, 1.0, -0.5, 2.0, math.nan):
        with pytest.raises(InvalidInputError, match="row 2"):
            corrupt(clean, np.array([0.5, 0.5, t]), CorruptionKind.MASKED, np.random.default_rng(0))


def test_corrupt_rejects_mask_in_clean():
    with pytest.raises(InvalidInputError):
        corrupt(np.array([[0, 31]]), _one(0.5), CorruptionKind.MASKED, np.random.default_rng(0), 32)


# ---------------------------------------------------------------------------
# denoiser forward


def test_zero_params_give_uniform_predictions():
    cfg = SMALL_MODEL
    zeros = init_params(cfg, np.random.default_rng(0), init_std=0.0)
    fwd = denoise_forward(zeros, np.zeros(cfg.length, dtype=np.int64))
    assert np.all(fwd.logits == 0.0)
    assert np.allclose(softmax_rows(fwd.logits), 1.0 / cfg.vocab_size)


def test_tied_position_rows_commute_with_permutation(rng):
    cfg = SMALL_MODEL
    params = init_params(cfg, np.random.default_rng(5))
    tied = params_from_vector(params, params_to_vector(params))
    tied.pos_embed[:] = tied.pos_embed[0]
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.length)
    perm = rng.permutation(cfg.length)
    direct = denoise_forward(tied, tokens[perm])
    permuted = denoise_forward(tied, tokens)
    assert np.allclose(direct.hidden2, permuted.hidden2[perm], atol=1e-12)
    assert np.allclose(direct.logits, permuted.logits[perm], atol=1e-12)


def test_forward_is_pure(small_params, rng):
    tokens = rng.integers(0, SMALL_MODEL.vocab_size, size=SMALL_MODEL.length)
    a = denoise_forward(small_params, tokens)
    b = denoise_forward(small_params, tokens)
    assert np.array_equal(a.logits, b.logits)
    assert np.array_equal(a.hidden1, b.hidden1)


def test_forward_batch_agrees_with_single(small_params, rng):
    tokens = rng.integers(0, SMALL_MODEL.vocab_size, size=(4, SMALL_MODEL.length))
    logits, _ = forward_tokens(small_params, tokens)
    for i in range(4):
        single = denoise_forward(small_params, tokens[i])
        assert np.allclose(logits[i], single.logits, atol=1e-12)


def test_forward_gradient_matches_finite_differences(small_params, rng):
    cfg = SMALL_MODEL
    tokens = rng.integers(0, cfg.vocab_size, size=cfg.length)
    fwd = denoise_forward(small_params, tokens)
    upstream = rng.normal(size=fwd.logits.shape)
    grads = denoise_backward(small_params, fwd, upstream)
    analytic = np.concatenate([grads[name].ravel() for name, _ in param_items(small_params)])

    def f(vec):
        p = params_from_vector(small_params, vec)
        return float(np.sum(upstream * denoise_forward(p, tokens).logits))

    fd = finite_diff_grad(f, params_to_vector(small_params), step=1e-5)
    assert rel_err(analytic, fd) <= 1e-5


def test_batch_gradient_matches_finite_differences_on_distinct_sequences(small_params, rng):
    # n = 3 distinct rows: a context gradient pooled across sequences instead
    # of within each one fails here but not at n = 1
    cfg = SMALL_MODEL
    tokens = rng.integers(0, cfg.vocab_size, size=(3, cfg.length))
    assert len({row.tobytes() for row in tokens}) == 3
    logits, cache = forward_tokens(small_params, tokens)
    upstream = rng.normal(size=logits.shape)
    grads = backward_tokens(small_params, cache, upstream)
    analytic = np.concatenate([grads[name].ravel() for name, _ in param_items(small_params)])

    def f(vec):
        return float(np.sum(upstream * forward_tokens(params_from_vector(small_params, vec), tokens)[0]))

    fd = finite_diff_grad(f, params_to_vector(small_params), step=1e-5)
    assert rel_err(analytic, fd) <= 1e-5


# ---------------------------------------------------------------------------
# base loss


def _mask(rows):
    """Predicted-position mask ``[len(rows), L]`` from per-row position lists."""
    predicted = np.zeros((len(rows), SMALL_MODEL.length), dtype=bool)
    for i, positions in enumerate(rows):
        predicted[i, positions] = True
    return predicted


def test_base_loss_uniform_logits(small_params):
    cfg = SMALL_MODEL
    logits = np.zeros((1, cfg.length, cfg.vocab_size))
    clean = (np.arange(cfg.length) % cfg.clean_vocab)[None]
    loss, _ = base_loss(logits, clean, np.ones((1, cfg.length), bool))
    assert abs(loss[0] - math.log(cfg.vocab_size)) < 1e-12


def test_base_loss_confident_prediction_is_tiny(rng):
    cfg = SMALL_MODEL
    clean = rng.integers(0, cfg.clean_vocab, size=(1, cfg.length))
    logits = np.zeros((1, cfg.length, cfg.vocab_size))
    logits[0, np.arange(cfg.length), clean[0]] = 1e4
    loss, grad = base_loss(logits, clean, np.ones((1, cfg.length), bool))
    assert loss[0] < 1e-8
    assert np.max(np.abs(grad)) < 1e-4


def test_base_loss_empty_positions():
    loss, grad = base_loss(np.ones((1, 4, 6)), np.zeros((1, 4), dtype=int), np.zeros((1, 4), bool))
    assert loss[0] == 0.0 and np.all(grad == 0.0)


def test_base_loss_gradient_matches_finite_differences(rng):
    cfg = SMALL_MODEL
    clean = rng.integers(0, cfg.clean_vocab, size=(2, cfg.length))
    predicted = _mask([[0, 2, 3], [1, 4]])
    logits = rng.normal(size=(2, cfg.length, cfg.vocab_size))
    _, grad = base_loss(logits, clean, predicted)
    fd = finite_diff_grad(lambda l: base_loss(l, clean, predicted)[0].sum(), logits, step=1e-5)
    assert rel_err(grad, fd) <= 1e-5


def test_base_loss_grad_zero_off_positions(rng):
    cfg = SMALL_MODEL
    clean = rng.integers(0, cfg.clean_vocab, size=(1, cfg.length))
    predicted = _mask([[1, 4]])
    _, grad = base_loss(rng.normal(size=(1, cfg.length, cfg.vocab_size)), clean, predicted)
    assert np.all(grad[~predicted] == 0.0)


def test_base_loss_matches_per_sequence_oracle(rng):
    cfg = SMALL_MODEL
    n = 8
    clean = rng.integers(0, cfg.clean_vocab, size=(n, cfg.length))
    predicted = rng.random((n, cfg.length)) < 0.5
    predicted[3] = False  # a row with nothing to predict
    predicted[5] = True
    logits = 3.0 * rng.normal(size=(n, cfg.length, cfg.vocab_size))
    loss, grad = base_loss(logits, clean, predicted)
    assert loss.shape == (n,) and grad.shape == logits.shape
    for i in range(n):
        ref_loss, ref_grad = _base_loss_oracle(logits[i], clean[i], np.flatnonzero(predicted[i]))
        assert abs(loss[i] - ref_loss) <= 1e-12
        assert np.max(np.abs(grad[i] - ref_grad)) <= 1e-12
    assert loss[3] == 0.0 and np.all(grad[3] == 0.0)


def test_total_objective_base_loss_matches_per_sequence_sum(small_params, rng):
    cfg = SMALL_MODEL
    n = 4
    encoder = make_frozen_encoder(small_params)
    clean = rng.integers(0, cfg.clean_vocab, size=(n, cfg.length))
    levels = np.array([0.5, 1e-12, 0.7, 0.9])  # row 1 has nothing to predict
    corrupted, predicted = corrupt(clean, levels, CorruptionKind.MASKED, rng, cfg.vocab_size)
    logits = rng.normal(size=(n, cfg.length, cfg.vocab_size))
    state = lift_and_encode(encoder, logits, corrupted, predicted, LiftKind.SOFT)
    drifts = rng.normal(size=(n, encoder.feature_dim))
    plain = total_objective(ObjectiveKind(), state, drifts, clean)
    with_base = total_objective(ObjectiveKind(with_base_loss=True), state, drifts, clean)
    for i in range(n):
        ref_loss, ref_grad = _base_loss_oracle(logits[i], clean[i], np.flatnonzero(predicted[i]))
        assert abs(with_base.per_sample_loss[i] - (plain.per_sample_loss[i] + ref_loss)) <= 1e-12
        assert np.max(np.abs(with_base.grad_logits[i] - (plain.grad_logits[i] + ref_grad / n))) <= 1e-12


# ---------------------------------------------------------------------------
# sampler


def test_masked_sampler_full_nfe_commits_one_per_step(small_params):
    length = SMALL_MODEL.length
    counts = []
    seq = sample(
        small_params,
        CorruptionKind.MASKED,
        length,
        np.random.default_rng(0),
        on_forward=counts.append,
    )
    assert len(counts) == length
    assert np.all(seq < SMALL_MODEL.mask_index)


def test_masked_sampler_single_step(small_params):
    seq = sample(small_params, CorruptionKind.MASKED, 1, np.random.default_rng(0))
    assert np.all(seq < SMALL_MODEL.mask_index)


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
@pytest.mark.parametrize("nfe", [1, 2, 5])
def test_sampler_exact_nfe_and_mask_free(small_params, kind, nfe):
    calls = []
    seqs = sample_batch(
        small_params, kind, nfe, 3, np.random.default_rng(4), on_forward=calls.append
    )
    assert len(calls) == nfe
    assert np.all(seqs < SMALL_MODEL.mask_index)
    assert seqs.shape == (3, SMALL_MODEL.length)


def test_sampler_rejects_bad_nfe(small_params):
    with pytest.raises(InvalidInputError):
        sample(small_params, CorruptionKind.MASKED, 0, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        sample(small_params, CorruptionKind.MASKED, SMALL_MODEL.length + 1, np.random.default_rng(0))


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
def test_sampler_chunks_draw_the_whole_batch_stream(small_params, kind, monkeypatch):
    rng_whole, rng_chunked = np.random.default_rng(5), np.random.default_rng(5)
    whole = sample_batch(small_params, kind, 3, 7, rng_whole)
    monkeypatch.setattr(backbone, "SAMPLE_CHUNK", 3)
    chunked = sample_batch(small_params, kind, 3, 7, rng_chunked)
    assert np.array_equal(chunked, whole)
    assert rng_chunked.random() == rng_whole.random()


def test_sampler_deterministic_given_seed(small_params):
    a = sample_batch(small_params, CorruptionKind.UNIFORM, 3, 4, np.random.default_rng(11))
    b = sample_batch(small_params, CorruptionKind.UNIFORM, 3, 4, np.random.default_rng(11))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# parameter plumbing


def test_params_vector_roundtrip(small_params):
    vec = params_to_vector(small_params)
    rebuilt = params_from_vector(small_params, vec)
    for (name_a, a), (name_b, b) in zip(param_items(small_params), param_items(rebuilt)):
        assert name_a == name_b
        assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_init_params_finite(seed):
    params = init_params(SMALL_MODEL, np.random.default_rng(seed))
    for _, arr in param_items(params):
        assert np.all(np.isfinite(arr))
