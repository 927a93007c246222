from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlm import backbone
from driftlm.backbone import (
    CorruptionKind,
    ModelConfig,
    backward_tokens,
    base_loss,
    corrupt,
    forward_tokens,
    init_params,
    param_items,
    sample_batch,
    token_tables,
)
from driftlm.encoder import LiftKind, feature_dim, lift_and_encode, make_frozen_encoder
from driftlm.numcore import InvalidInputError, log_softmax_rows, softmax_rows
from driftlm.objectives import ObjectiveKind, total_objective

from conftest import (
    DESK_MODEL,
    SMALL_MODEL,
    denoise_backward,
    denoise_forward,
    finite_diff_grad,
    params_from_vector,
    params_to_vector,
    rel_err,
    sample,
)


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


def test_corrupt_rejects_a_level_array_of_another_length(rng):
    clean = rng.integers(0, 31, size=(3, 16))
    with pytest.raises(InvalidInputError, match="one level per row"):
        corrupt(clean, np.full(2, 0.5), CorruptionKind.MASKED, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# denoiser forward


@pytest.mark.parametrize(
    "name, value, low",
    [pytest.param(name, value, 1, id=f"{value}-{name}")
     for value in (0, -1) for name in ("embed_dim", "hidden_dim")]
    + [pytest.param("n_blocks", 1, 2, id="1-n_blocks")],
)
def test_model_config_rejects_a_width_below_1_naming_it(name, value, low):
    with pytest.raises(InvalidInputError, match=f"^{name} must be >= {low}, got {value}$"):
        ModelConfig(**{name: value})
    ModelConfig(**{name: low})


@pytest.mark.parametrize("model", [SMALL_MODEL, DESK_MODEL], ids=["small", "default"])
def test_params_model_is_the_config_they_were_made_from(model):
    assert init_params(model, np.random.default_rng(0)).model == model


def test_zero_params_give_uniform_predictions():
    cfg = SMALL_MODEL
    zeros = init_params(cfg, np.random.default_rng(0), init_std=0.0)
    fwd = denoise_forward(zeros, np.zeros(cfg.length, dtype=np.int64))
    assert np.all(fwd.logits == 0.0)
    assert np.allclose(softmax_rows(fwd.logits), 1.0 / cfg.vocab_size)


def test_tied_position_rows_commute_with_permutation(rng):
    cfg = SMALL_MODEL
    params = init_params(cfg, np.random.default_rng(5), init_std=0.02)
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


@pytest.mark.parametrize("n_blocks", [2, 3], ids=["2-blocks", "3-blocks"])
def test_batch_gradient_matches_finite_differences_on_distinct_sequences(n_blocks, rng):
    # n = 3 distinct rows: a context gradient pooled across sequences instead
    # of within each one fails here but not at n = 1.  Three blocks have a
    # middle block, and the stacked gradients of every block are checked.
    cfg = replace(SMALL_MODEL, n_blocks=n_blocks)
    params = init_params(cfg, np.random.default_rng(42), init_std=0.02)
    tokens = rng.integers(0, cfg.vocab_size, size=(3, cfg.length))
    assert len({row.tobytes() for row in tokens}) == 3
    logits, cache = forward_tokens(params, tokens)
    upstream = rng.normal(size=logits.shape)
    grads = backward_tokens(params, cache, upstream)
    analytic = np.concatenate([grads[name].ravel() for name, _ in param_items(params)])

    def f(vec):
        return float(np.sum(upstream * forward_tokens(params_from_vector(params, vec), tokens)[0]))

    fd = finite_diff_grad(f, params_to_vector(params), step=1e-5)
    assert rel_err(analytic, fd) <= 1e-5


def _params_for(model):
    return init_params(model, np.random.default_rng(9), init_std=0.5)


def _tokens_with_mask(rng, model, n):
    tokens = rng.integers(0, model.vocab_size, size=(n, model.length))
    tokens[rng.random(tokens.shape) < 0.4] = model.mask_index
    return tokens


@pytest.mark.parametrize("model", [SMALL_MODEL, DESK_MODEL], ids=["small", "default"])
@pytest.mark.parametrize("k", [1, 3, "L"])
def test_forward_at_columns_equals_the_gathered_full_forward(model, k, rng):
    k = model.length if k == "L" else k
    params = _params_for(model)
    tokens = _tokens_with_mask(rng, model, 7)
    assert np.any(tokens == model.mask_index)
    cols = np.argsort(rng.random(tokens.shape), axis=1)[:, :k]
    full, _ = forward_tokens(params, tokens)
    picked, _ = forward_tokens(params, tokens, at=cols)
    assert picked.shape == (7, k, model.vocab_size)
    assert np.array_equal(picked, full[np.arange(7)[:, None], cols])


TABLE_MODELS = {
    "small": SMALL_MODEL, "default": DESK_MODEL, "3-blocks": replace(SMALL_MODEL, n_blocks=3)
}


@pytest.mark.parametrize("model", list(TABLE_MODELS))
@pytest.mark.parametrize("n", [1, 3, 7, 32, 33])
def test_tabled_forward_equals_the_computed_forward(model, n, rng):
    model = TABLE_MODELS[model]
    params = _params_for(model)
    tables = token_tables(params)
    kept = [table.copy() for table in tables]
    tokens = _tokens_with_mask(rng, model, n)
    cols = np.argsort(rng.random(tokens.shape), axis=1)[:, :2]
    # the computed forward: the [N, L, d] block stack that training runs
    full, _ = forward_tokens(params, tokens)
    for at, want in ((None, full), (cols, full[np.arange(n)[:, None], cols])):
        got, cache = forward_tokens(params, tokens, at=at, tables=tables)
        assert np.array_equal(got, want)
        assert cache is None
    # a forward adds to its gathered rows in place, never to the tables
    assert all(np.array_equal(table, k) for table, k in zip(tables, kept))


@pytest.mark.parametrize("n", [65, 70])
@pytest.mark.parametrize("k", [1, 2, "L"])
def test_forward_only_slices_equal_the_computed_forward(n, k, rng):
    # the rows run as SAMPLER_CHUNK-row slices: 32 + 33 (a one-row remainder
    # joins the slice before it) and 32 + 32 + 6, each written into one array
    assert 2 * backbone.SAMPLER_CHUNK < n < 3 * backbone.SAMPLER_CHUNK
    k = DESK_MODEL.length if k == "L" else k
    params = _params_for(DESK_MODEL)
    tables = token_tables(params)
    tokens = _tokens_with_mask(rng, DESK_MODEL, n)
    cols = np.argsort(rng.random(tokens.shape), axis=1)[:, :k]
    full, _ = forward_tokens(params, tokens)
    want = full[np.arange(n)[:, None], cols]
    for with_tables in (None, tables):
        got, _ = forward_tokens(params, tokens, at=cols, tables=with_tables)
        assert np.array_equal(got, want)
    assert np.array_equal(forward_tokens(params, tokens, tables=tables)[0], full)


@pytest.mark.parametrize("with_at", [True, False], ids=["at", "tables"])
def test_backward_refuses_a_forward_only_cache(small_params, with_at, rng):
    tokens = _tokens_with_mask(rng, SMALL_MODEL, 3)
    if with_at:
        logits, cache = forward_tokens(small_params, tokens, at=np.zeros((3, 1), dtype=np.int64))
    else:
        logits, cache = forward_tokens(small_params, tokens, tables=token_tables(small_params))
    with pytest.raises(InvalidInputError, match="at or tables keeps none"):
        backward_tokens(small_params, cache, logits)


TOKENS = np.zeros((3, SMALL_MODEL.length), dtype=np.int64)


@pytest.mark.parametrize(
    "tokens, at, match",
    [
        (TOKENS, np.zeros((2, 1), dtype=np.int64), r"at must be .*shape \[3, k\]"),
        (TOKENS, np.zeros(3, dtype=np.int64), r"at must be .*shape \[3, k\]"),
        (TOKENS, np.zeros((3, 1)), r"at must be integer"),
        (TOKENS, np.full((3, 1), SMALL_MODEL.length), r"at holds a column outside"),
        (TOKENS, np.full((3, 1), -1), r"at holds a column outside"),
        (TOKENS[:, 1:], None, rf"tokens must have shape \[N, {SMALL_MODEL.length}\]"),
        (TOKENS[0], None, rf"tokens must have shape \[N, {SMALL_MODEL.length}\]"),
        (TOKENS + SMALL_MODEL.vocab_size, None, "token index outside the model vocabulary"),
        (TOKENS - 1, None, "token index outside the model vocabulary"),
    ],
    ids=["rows", "ndim", "float", "past-end", "negative", "tokens-length", "tokens-ndim",
         "token-past-vocab", "negative-token"],
)
def test_forward_rejects_bad_at(small_params, tokens, at, match):
    with pytest.raises(InvalidInputError, match=match):
        forward_tokens(small_params, tokens, at=at)


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
    drifts = rng.normal(size=(n, feature_dim(encoder)))
    plain_losses, plain_grad = total_objective(ObjectiveKind(), state, drifts, clean)
    losses, grad = total_objective(ObjectiveKind(with_base_loss=True), state, drifts, clean)
    for i in range(n):
        ref_loss, ref_grad = _base_loss_oracle(logits[i], clean[i], np.flatnonzero(predicted[i]))
        assert abs(losses[i] - (plain_losses[i] + ref_loss)) <= 1e-12
        assert np.max(np.abs(grad[i] - (plain_grad[i] + ref_grad))) <= 1e-12


# ---------------------------------------------------------------------------
# sampler


def count_forwards(monkeypatch) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """Record the token batch and the ``at`` columns of every denoiser call the sampler makes."""
    calls = []
    forward = backbone.forward_tokens

    def counting(params, tokens, at=None, tables=None):
        calls.append((np.array(tokens), None if at is None else np.array(at)))
        return forward(params, tokens, at=at, tables=tables)

    monkeypatch.setattr(backbone, "forward_tokens", counting)
    return calls


def test_masked_sampler_full_nfe_commits_one_per_step(small_params, monkeypatch):
    length = SMALL_MODEL.length
    calls = count_forwards(monkeypatch)
    seq = sample(small_params, CorruptionKind.MASKED, length, np.random.default_rng(0))
    masked = [int((tokens == SMALL_MODEL.mask_index).sum()) for tokens, _ in calls]
    assert masked == list(range(length, 0, -1))
    assert all(tokens.shape == (1, length) for tokens, _ in calls)
    # step 0 is the full all-mask forward; each later step computes one column
    assert calls[0][1] is None
    assert all(at.shape == (1, 1) for _, at in calls[1:])
    assert np.all(seq < SMALL_MODEL.mask_index)


def test_masked_sampler_single_step(small_params):
    seq = sample(small_params, CorruptionKind.MASKED, 1, np.random.default_rng(0))
    assert np.all(seq < SMALL_MODEL.mask_index)


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
@pytest.mark.parametrize("nfe", [1, 2, 5])
def test_sampler_exact_nfe_and_mask_free(small_params, kind, nfe, monkeypatch):
    calls = count_forwards(monkeypatch)
    # one group holds all 3 rows (the smallest, uniform's: commit L): one call per step
    assert backbone._row_slices(3, backbone.SAMPLER_CHUNK) == [slice(0, 3)]
    seqs = sample_batch(small_params, kind, nfe, 3, np.random.default_rng(4))
    # a masked run forwards its all-mask first step once, as one row
    first = 1 if kind == CorruptionKind.MASKED else 3
    assert [tokens.shape[0] for tokens, _ in calls] == [first] + [3] * (nfe - 1)
    assert np.all(seqs < SMALL_MODEL.mask_index)
    assert seqs.shape == (3, SMALL_MODEL.length)


def test_sampler_rejects_bad_nfe(small_params):
    with pytest.raises(InvalidInputError):
        sample(small_params, CorruptionKind.MASKED, 0, np.random.default_rng(0))
    with pytest.raises(InvalidInputError):
        sample(small_params, CorruptionKind.MASKED, SMALL_MODEL.length + 1, np.random.default_rng(0))


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
@pytest.mark.parametrize("n", [0, -1])
def test_sampler_rejects_bad_n(small_params, kind, n):
    with pytest.raises(InvalidInputError, match="n must be at least 1"):
        sample_batch(small_params, kind, 2, n, np.random.default_rng(0))


@pytest.mark.parametrize(
    "kind, want",
    [
        # the all-mask forward, then groups of 2 * 5 // commit rows: step 0
        # (commit 2) draws from that forward, step 1 (commit 2) takes groups
        # of 5 rows and step 2 (commit 1) one group of 10
        (CorruptionKind.MASKED, [(1, None), (5, 2), (4, 2), (9, 1)]),
        # commit L every step: groups of 2 rows, the last row joining the last group
        (CorruptionKind.UNIFORM, [(2, None), (2, None), (2, None), (3, None)] * 3),
    ],
    ids=["masked", "uniform"],
)
def test_sampler_makes_one_forward_per_group_per_step(small_params, kind, want, monkeypatch):
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", 2)
    calls = count_forwards(monkeypatch)
    sample_batch(small_params, kind, 3, 9, np.random.default_rng(3))
    got = [(tokens.shape[0], None if at is None else at.shape[1]) for tokens, at in calls]
    assert got == want


@pytest.mark.parametrize(
    "n, want",
    [
        (1, [(0, 1)]),
        (2, [(0, 2)]),
        (32, [(0, 32)]),
        (33, [(0, 33)]),
        (64, [(0, 32), (32, 64)]),
        (65, [(0, 32), (32, 65)]),
        (513, [*((lo, lo + 32) for lo in range(0, 480, 32)), (480, 513)]),
    ],
)
def test_row_slices_join_a_one_row_remainder(n, want):
    assert backbone._row_slices(n, 32) == [slice(lo, hi) for lo, hi in want]


@pytest.mark.parametrize("kind", ["masked", "uniform"])
def test_sampler_makes_no_one_row_group(kind, monkeypatch):
    # one row past whole groups: uniform groups of chunk rows at 2 * chunk + 1
    # rows, and a masked commit-1 step's one group of chunk * L at chunk * L + 1
    chunk, length = 2, DESK_MODEL.length
    params = _params_for(DESK_MODEL)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", chunk)
    rng_ref, rng = np.random.default_rng(8), np.random.default_rng(8)
    if kind == "masked":
        n, nfe, reference = chunk * length + 1, length, _masked_sampler_reference
        want = [(1, None)] + [(n, 1)] * (nfe - 1)  # the all-mask forward is one row by design
    else:
        n, nfe, reference = 2 * chunk + 1, 3, _uniform_sampler_reference
        want = [(chunk, None), (chunk + 1, None)] * nfe
    expected = reference(params, nfe, n, rng_ref)
    calls = count_forwards(monkeypatch)
    got = sample_batch(params, CorruptionKind(kind), nfe, n, rng)
    assert [(tokens.shape[0], None if at is None else at.shape[1]) for tokens, at in calls] == want
    assert np.array_equal(got, expected)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
def test_sampler_chunks_draw_the_whole_batch_stream(small_params, kind, monkeypatch):
    rng_whole, rng_chunked = np.random.default_rng(5), np.random.default_rng(5)
    whole = sample_batch(small_params, kind, 3, 7, rng_whole)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", 3)
    chunked = sample_batch(small_params, kind, 3, 7, rng_chunked)
    assert np.array_equal(chunked, whole)
    assert rng_chunked.random() == rng_whole.random()


def _categorical_rows(probs, rng):
    """One draw per row of a [..., K] probability array, scaled by the row's
    total: the draw the sampler made from its renormalised rows."""
    flat = probs.reshape(-1, probs.shape[-1])
    cdf = np.cumsum(flat, axis=1)
    u = rng.random(flat.shape[0]) * cdf[:, -1]
    picks = (u[:, None] < cdf).argmax(axis=1)
    return picks.reshape(probs.shape[:-1])


def _masked_sampler_reference(params, nfe, n, rng):
    """The masked sampler with full forwards: every step forwards every chunk
    over all L positions, then gathers the committed rows of its logits."""
    length, mask_index = params.length, params.mask_index
    chunk = backbone.SAMPLER_CHUNK
    tokens = np.full((n, length), mask_index, dtype=np.int64)
    still_masked = np.ones((n, length), dtype=bool)
    remaining = length
    for step in range(nfe):
        commit = -(-remaining // (nfe - step))
        keys = rng.random((n, length))
        keys[~still_masked] = 2.0
        chosen = np.argsort(keys, axis=1)[:, :commit]
        for lo in range(0, n, chunk):
            part = slice(lo, min(lo + chunk, n))
            logits, _ = forward_tokens(params, tokens[part])
            rows = np.repeat(np.arange(logits.shape[0]), commit)
            cols = chosen[part].ravel()
            probs = softmax_rows(logits[rows, cols])[..., :mask_index]
            probs = probs / probs.sum(axis=-1, keepdims=True)
            tokens[part][rows, cols] = _categorical_rows(probs, rng)
        still_masked[np.arange(n)[:, None], chosen] = False
        remaining -= commit
    return tokens


@pytest.mark.parametrize("model", [SMALL_MODEL, DESK_MODEL], ids=["small", "default"])
@pytest.mark.parametrize("nfe", [1, 2, "L"])
def test_masked_sampler_equals_the_full_forward_reference(model, nfe, monkeypatch):
    nfe = model.length if nfe == "L" else nfe
    params = _params_for(model)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", 3)  # chunks of 3, 3 and a ragged 1
    rng_ref, rng = np.random.default_rng(6), np.random.default_rng(6)
    want = _masked_sampler_reference(params, nfe, 7, rng_ref)
    got = sample_batch(params, CorruptionKind.MASKED, nfe, 7, rng)
    assert np.array_equal(got, want)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("nfe", [1, 2, "L"])
def test_masked_sampler_groups_equal_the_full_forward_reference(chunk, nfe, monkeypatch):
    # groups of chunk * 16 // commit of the 7 rows, mostly ragged; at chunk 1
    # a step that commits more than 8 positions (NFE 1) draws one row per group
    nfe = DESK_MODEL.length if nfe == "L" else nfe
    params = _params_for(DESK_MODEL)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", chunk)
    rng_ref, rng = np.random.default_rng(8), np.random.default_rng(8)
    want = _masked_sampler_reference(params, nfe, 7, rng_ref)
    got = sample_batch(params, CorruptionKind.MASKED, nfe, 7, rng)
    assert np.array_equal(got, want)
    assert rng.random() == rng_ref.random()


def _uniform_sampler_reference(params, nfe, n, rng):
    """The uniform sampler with computed forwards: every step resamples every
    chunk from the full forward's clean-vocabulary probabilities."""
    mask_index, chunk = params.mask_index, backbone.SAMPLER_CHUNK
    tokens = rng.integers(0, mask_index, size=(n, params.length), dtype=np.int64)
    for _ in range(nfe):
        for lo in range(0, n, chunk):
            part = slice(lo, min(lo + chunk, n))
            probs = softmax_rows(forward_tokens(params, tokens[part])[0])[..., :mask_index]
            probs = probs / probs.sum(axis=-1, keepdims=True)
            tokens[part] = _categorical_rows(probs, rng)
    return tokens


@pytest.mark.parametrize("model", [SMALL_MODEL, DESK_MODEL], ids=["small", "default"])
@pytest.mark.parametrize("nfe", [1, 2, 5])
def test_uniform_sampler_equals_the_computed_forward_reference(model, nfe, monkeypatch):
    params = _params_for(model)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", 3)  # chunks of 3, 3 and a ragged 1
    rng_ref, rng = np.random.default_rng(6), np.random.default_rng(6)
    want = _uniform_sampler_reference(params, nfe, 7, rng_ref)
    got = sample_batch(params, CorruptionKind.UNIFORM, nfe, 7, rng)
    assert np.array_equal(got, want)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("chunk", [1, 2])
def test_uniform_sampler_groups_equal_the_computed_forward_reference(chunk, monkeypatch):
    # a forward call per row at chunk 1; groups of two with a ragged last one at 2
    params = _params_for(DESK_MODEL)
    monkeypatch.setattr(backbone, "SAMPLER_CHUNK", chunk)
    rng_ref, rng = np.random.default_rng(8), np.random.default_rng(8)
    want = _uniform_sampler_reference(params, 3, 7, rng_ref)
    got = sample_batch(params, CorruptionKind.UNIFORM, 3, 7, rng)
    assert np.array_equal(got, want)
    assert rng.random() == rng_ref.random()


def _clean_logit_sampler_reference(params, kind, nfe, n, rng):
    """Either sampler on full forwards of the whole batch, drawing each
    position from the softmax of its clean logits alone."""
    length, mask_index = params.length, params.mask_index
    if kind == CorruptionKind.UNIFORM:
        tokens = rng.integers(0, mask_index, size=(n, length), dtype=np.int64)
        for _ in range(nfe):
            logits = forward_tokens(params, tokens)[0]
            tokens = _categorical_rows(softmax_rows(logits[..., :mask_index]), rng)
        return tokens
    tokens = np.full((n, length), mask_index, dtype=np.int64)
    rows, remaining = np.arange(n)[:, None], length
    for step in range(nfe):
        commit = -(-remaining // (nfe - step))
        keys = rng.random((n, length))
        keys[tokens != mask_index] = 2.0
        chosen = np.argsort(keys, axis=1)[:, :commit]
        logits = forward_tokens(params, tokens)[0][rows, chosen]
        tokens[rows, chosen] = _categorical_rows(softmax_rows(logits[..., :mask_index]), rng)
        remaining -= commit
    return tokens


@pytest.mark.parametrize("kind", [CorruptionKind.MASKED, CorruptionKind.UNIFORM])
def test_sampler_draws_from_the_clean_logits_past_a_dominant_mask_logit(kind):
    # the mask logit beats every clean logit by about 1e4 nats, so a softmax
    # over the whole vocabulary gives every clean token exp(-1e4) == 0.0
    params = init_params(DESK_MODEL, np.random.default_rng(0))
    params.b2[-1, 0] = 1e3
    params.out_proj[0, :] = 0.0
    params.out_proj[0, -1] = 10.0
    all_mask = forward_tokens(params, np.full((1, params.length), params.mask_index))[0]
    assert not softmax_rows(all_mask)[..., : params.mask_index].any()
    rng_ref, rng = np.random.default_rng(0), np.random.default_rng(0)
    want = _clean_logit_sampler_reference(params, kind, 4, 8, rng_ref)
    got = sample_batch(params, kind, 4, 8, rng)
    assert np.array_equal(got, want)
    assert rng.random() == rng_ref.random()
    assert len(np.unique(got)) > 1


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


def test_init_params_draws_block_by_block():
    # the draw order of a per-block layout: w1 then w2 for each block, then
    # embed, pos_embed and out_proj; the block weights stack in block order
    cfg = replace(SMALL_MODEL, n_blocks=3)
    params = init_params(cfg, np.random.default_rng(5), init_std=0.3)
    rng = np.random.default_rng(5)
    d, h, v = cfg.embed_dim, cfg.hidden_dim, cfg.vocab_size
    blocks = [(rng.normal(0.0, 0.3, (2 * d, h)), rng.normal(0.0, 0.3, (h, d))) for _ in range(3)]
    expected = {
        "embed": rng.normal(0.0, 0.3, (v, d)),
        "pos_embed": rng.normal(0.0, 0.3, (cfg.length, d)),
        "w1": np.stack([w1 for w1, _ in blocks]),
        "b1": np.zeros((3, h)),
        "w2": np.stack([w2 for _, w2 in blocks]),
        "b2": np.zeros((3, d)),
        "out_proj": rng.normal(0.0, 0.3, (d, v)),
    }
    assert [name for name, _ in param_items(params)] == list(expected)
    for name, arr in param_items(params):
        assert np.array_equal(arr, expected[name]), name


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_init_params_finite(seed):
    params = init_params(SMALL_MODEL, np.random.default_rng(seed), init_std=0.02)
    for _, arr in param_items(params):
        assert np.all(np.isfinite(arr))
