from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from driftlm.backbone import CorruptionKind, corrupt, init_params
from driftlm.encoder import (
    DegenerateFeatureError,
    LiftKind,
    encode,
    encode_vjp,
    feature_dim,
    hard_st_lift,
    lift_and_encode,
    lift_vjp,
    make_frozen_encoder,
    pullback_to_logits,
    real_features_batch,
    soft_token_lift,
)
from driftlm.numcore import InvalidInputError, softmax_rows

from conftest import SMALL_MODEL, finite_diff_grad, rel_err

L, V = SMALL_MODEL.length, SMALL_MODEL.vocab_size


def _record(positions, length=SMALL_MODEL.length, rng=None):
    """One masked sequence as a batch of one: corrupted ``[1, L]`` and predicted ``[1, L]``."""
    rng = rng or np.random.default_rng(0)
    corrupted = rng.integers(0, SMALL_MODEL.clean_vocab, size=length)
    corrupted[positions] = SMALL_MODEL.mask_index
    predicted = np.zeros(length, dtype=bool)
    predicted[positions] = True
    return corrupted[None], predicted[None]


def _random_probs(rng, length=SMALL_MODEL.length, vocab=SMALL_MODEL.vocab_size):
    return softmax_rows(rng.normal(size=(1, length, vocab)))


# ---------------------------------------------------------------------------
# freezing


def test_frozen_encoder_arrays_are_read_only(small_params):
    enc = make_frozen_encoder(small_params)
    with pytest.raises(ValueError):
        enc.embed[0, 0] = 1.0
    # and it is a snapshot: mutating the original does not leak in
    before = enc.embed[0, 0]
    small_params.embed[0, 0] += 1.0
    assert enc.embed[0, 0] == before


# ---------------------------------------------------------------------------
# lifts


def test_soft_lift_one_hot_row_equals_embedding(small_encoder, rng):
    corrupted, predicted = _record([1, 3], rng=rng)
    probs = np.zeros((1, L, V))
    probs[..., 4] = 1.0
    lifted = soft_token_lift(probs, corrupted, predicted, small_encoder.embed)[0]
    assert np.array_equal(lifted[1], small_encoder.embed[4])
    assert np.array_equal(lifted[3], small_encoder.embed[4])


def test_soft_lift_uniform_row_is_embed_mean(small_encoder, rng):
    corrupted, predicted = _record([0], rng=rng)
    probs = np.full((1, L, V), 1.0 / V)
    lifted = soft_token_lift(probs, corrupted, predicted, small_encoder.embed)[0]
    assert np.allclose(lifted[0], small_encoder.embed.mean(axis=0), atol=1e-15)


def test_soft_lift_ignores_probs_at_non_predicted(small_encoder, rng):
    corrupted, predicted = _record([2], rng=rng)
    embed = small_encoder.embed
    a = soft_token_lift(_random_probs(rng), corrupted, predicted, embed)[0]
    b = soft_token_lift(_random_probs(rng), corrupted, predicted, embed)[0]
    keep = np.setdiff1d(np.arange(L), [2])
    assert np.array_equal(a[keep], b[keep])
    assert np.array_equal(a[keep], embed[corrupted[0, keep]])
    # and the cotangent there is exactly zero
    grad = lift_vjp(predicted, embed, rng.normal(size=(1,) + a.shape))[0]
    assert np.all(grad[keep] == 0.0)


def test_hard_lift_one_hot_matches_soft(small_encoder, rng):
    corrupted, predicted = _record([0, 4], rng=rng)
    probs = np.zeros((1, L, V))
    probs[0, np.arange(L), 2] = 1.0
    soft = soft_token_lift(probs, corrupted, predicted, small_encoder.embed)
    hard = hard_st_lift(probs, corrupted, predicted, small_encoder.embed)
    assert np.array_equal(soft, hard)


def test_hard_lift_tie_breaks_to_lowest_index(small_encoder, rng):
    corrupted, predicted = _record([1], rng=rng)
    probs = np.full((1, L, V), 1.0 / V)
    hard = hard_st_lift(probs, corrupted, predicted, small_encoder.embed)[0]
    assert np.array_equal(hard[1], small_encoder.embed[0])


def test_hard_lift_piecewise_constant(small_encoder, rng):
    corrupted, predicted = _record([0, 2], rng=rng)
    probs = _random_probs(rng)
    bumped = probs.copy()
    order = np.argsort(probs[0, 0])
    argmax, second = int(order[-1]), int(order[-2])
    delta = 0.25 * (probs[0, 0, argmax] - probs[0, 0, second])
    bumped[0, 0, second] += delta
    bumped[0, 0, argmax] -= delta
    assert bumped[0, 0].argmax() == argmax
    a = hard_st_lift(probs, corrupted, predicted, small_encoder.embed)
    b = hard_st_lift(bumped, corrupted, predicted, small_encoder.embed)
    assert a.tobytes() == b.tobytes()


def test_hard_lift_shares_soft_vjp(small_encoder, rng):
    corrupted, predicted = _record([0, 3], rng=rng)
    logits = rng.normal(size=(1, L, V))
    soft_state = lift_and_encode(small_encoder, logits, corrupted, predicted, LiftKind.SOFT)
    hard_state = lift_and_encode(small_encoder, logits, corrupted, predicted, LiftKind.HARD_ST)
    g_e = rng.normal(size=corrupted.shape + (SMALL_MODEL.embed_dim,))
    g_soft = lift_vjp(soft_state.predicted, small_encoder.embed, g_e)
    g_hard = lift_vjp(hard_state.predicted, small_encoder.embed, g_e)
    assert np.array_equal(g_soft, g_hard)


# ---------------------------------------------------------------------------
# encode


def test_encode_is_pure_and_unit_norm(small_encoder, rng):
    x = rng.normal(size=(1, L, SMALL_MODEL.embed_dim))
    a = encode(small_encoder, x)[0]
    b = encode(small_encoder, x)[0]
    assert np.array_equal(a, b)
    assert abs(np.linalg.norm(a[0]) - 1.0) <= 1e-9


def test_encode_degenerate_zero_configuration():
    zeros = init_params(SMALL_MODEL, np.random.default_rng(0), init_std=0.0)
    enc = make_frozen_encoder(zeros)
    with pytest.raises(DegenerateFeatureError):
        encode(enc, np.zeros((1, L, SMALL_MODEL.embed_dim)))


def _reference_block_outputs(params, x):
    """Each block's output ``[n, L, d]`` on embedding rows ``x``, one plain block at a time."""
    h = x + params.pos_embed
    outputs = []
    for b in range(len(params.w1)):
        context = np.broadcast_to(h.mean(axis=1, keepdims=True), h.shape)
        a = np.concatenate([h, context], axis=-1) @ params.w1[b] + params.b1[b]
        h = h + np.tanh(a) @ params.w2[b] + params.b2[b]
        outputs.append(h)
    return outputs


@pytest.mark.parametrize("n_blocks", [2, 3])
def test_encode_pools_penultimate_and_last_block_outputs(rng, n_blocks):
    params = init_params(replace(SMALL_MODEL, n_blocks=n_blocks), rng, init_std=0.3)
    encoder = make_frozen_encoder(params)
    x = rng.normal(size=(4, L, SMALL_MODEL.embed_dim))
    outputs = _reference_block_outputs(params, x)
    pooled = np.concatenate([outputs[-2].mean(axis=1), outputs[-1].mean(axis=1)], axis=1)
    expected = pooled / np.linalg.norm(pooled, axis=1, keepdims=True)
    assert np.max(np.abs(encode(encoder, x)[0] - expected)) <= 1e-12


def test_encode_vjp_matches_finite_differences(small_encoder, rng):
    x = rng.normal(size=(1, L, SMALL_MODEL.embed_dim))
    c = rng.normal(size=(1, feature_dim(small_encoder)))
    _, pooled, caches = encode(small_encoder, x)
    analytic = encode_vjp(small_encoder, pooled, caches, c)
    fd = finite_diff_grad(lambda e: float(np.sum(c * encode(small_encoder, e)[0])), x, 1e-5)
    assert rel_err(analytic, fd) <= 1e-5


def test_encode_vjp_matches_finite_differences_on_distinct_sequences(small_encoder, rng):
    # n = 3 distinct rows: a context cotangent pooled across sequences instead
    # of within each one fails here but not at n = 1.  With three blocks the
    # penultimate pooling tap sits on the middle block, not on block 0.
    three_blocks = make_frozen_encoder(
        init_params(replace(SMALL_MODEL, n_blocks=3), np.random.default_rng(42), init_std=0.02)
    )
    for encoder in (small_encoder, three_blocks):
        x = rng.normal(size=(3, L, SMALL_MODEL.embed_dim))
        c = rng.normal(size=(3, feature_dim(encoder)))
        analytic = encode_vjp(encoder, *encode(encoder, x)[1:], c)
        fd = finite_diff_grad(lambda e: float(np.sum(c * encode(encoder, e)[0])), x, 1e-5)
        assert rel_err(analytic, fd) <= 1e-5, len(encoder.w1)


# ---------------------------------------------------------------------------
# real features


def test_real_feature_equals_hard_one_hot_lift(small_encoder, rng):
    clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=(1, L))
    probs = np.zeros((1, L, V))
    probs[0, np.arange(L), clean[0]] = 1.0
    lifted = soft_token_lift(probs, clean, np.ones((1, L), bool), small_encoder.embed)
    assert np.array_equal(
        real_features_batch(small_encoder, clean), encode(small_encoder, lifted)[0]
    )


def test_real_feature_deterministic_and_distinct(rng):
    hits = 0
    for trial in range(100):
        params = init_params(SMALL_MODEL, np.random.default_rng(trial), init_std=0.02)
        enc = make_frozen_encoder(params)
        a = rng.integers(0, SMALL_MODEL.clean_vocab, size=(1, L))
        b = rng.integers(0, SMALL_MODEL.clean_vocab, size=(1, L))
        if np.array_equal(a, b):
            continue
        fa, fb = real_features_batch(enc, a), real_features_batch(enc, b)
        assert np.array_equal(fa, real_features_batch(enc, a))
        if np.linalg.norm(fa - fb) > 1e-6:
            hits += 1
    assert hits >= 99


def test_encode_rejects_bad_embeddings(small_encoder):
    d = small_encoder.embed_dim
    for bad in (np.zeros((2, L - 1, d)), np.zeros((L, d)), np.zeros((2, L, d + 1))):
        with pytest.raises(InvalidInputError, match=rf"embeddings must have shape \[n, {L}, {d}\]"):
            encode(small_encoder, bad)
    with pytest.raises(InvalidInputError, match="encode: non-finite embeddings"):
        encode(small_encoder, np.full((2, L, d), np.nan))


def test_real_feature_rejects_mask(small_encoder):
    seq = np.zeros((1, L), dtype=np.int64)
    seq[0, 0] = SMALL_MODEL.mask_index
    with pytest.raises(InvalidInputError):
        real_features_batch(small_encoder, seq)


def test_real_features_batch_matches_single(small_encoder, rng):
    batch = rng.integers(0, SMALL_MODEL.clean_vocab, size=(5, L))
    feats = real_features_batch(small_encoder, batch)
    for i in range(5):
        single = real_features_batch(small_encoder, batch[i : i + 1])[0]
        assert np.max(np.abs(feats[i] - single)) <= 1e-12


# ---------------------------------------------------------------------------
# the composed gradient path


@pytest.mark.parametrize("kind", list(CorruptionKind), ids=lambda k: k.value)
@pytest.mark.parametrize("lift", list(LiftKind), ids=lambda k: k.value)
def test_batched_lift_and_pullback_match_batch_of_one(small_encoder, rng, lift, kind):
    n = 5
    clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=(n, L))
    corrupted, predicted = corrupt(clean, np.full(n, 0.5), kind, rng, V)
    logits = rng.normal(size=(n, L, V))
    cotangent = rng.normal(size=(n, feature_dim(small_encoder)))
    state = lift_and_encode(small_encoder, logits, corrupted, predicted, lift)
    grad = pullback_to_logits(state, cotangent)
    for i in range(n):
        rows = slice(i, i + 1)
        one = lift_and_encode(small_encoder, logits[rows], corrupted[rows], predicted[rows], lift)
        assert np.max(np.abs(state.features[i] - one.features[0])) <= 1e-12
        assert np.max(np.abs(grad[i] - pullback_to_logits(one, cotangent[rows])[0])) <= 1e-12


def test_composed_soft_path_matches_finite_differences(small_encoder, rng):
    clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=(1, L))
    levels = np.array([0.6])
    corrupted, predicted = corrupt(clean, levels, CorruptionKind.MASKED, np.random.default_rng(3), V)
    if not np.any(predicted):
        pytest.skip("no predicted positions drawn")
    logits = rng.normal(size=(1, L, V))
    c = rng.normal(size=(1, feature_dim(small_encoder)))
    state = lift_and_encode(small_encoder, logits, corrupted, predicted, LiftKind.SOFT)
    analytic = pullback_to_logits(state, c)[0]

    def f(l):
        lifted = lift_and_encode(small_encoder, l, corrupted, predicted, LiftKind.SOFT)
        return float(np.sum(c * lifted.features))

    fd = finite_diff_grad(f, logits, step=1e-5)[0]
    assert rel_err(analytic, fd) <= 1e-5
    assert np.all(analytic[~predicted[0]] == 0.0)
    assert np.any(analytic[predicted[0]] != 0.0)


def test_encoder_params_identical_after_use(small_encoder, rng):
    from driftlm.encoder import encoder_param_bytes

    before = encoder_param_bytes(small_encoder)
    clean = rng.integers(0, SMALL_MODEL.clean_vocab, size=(1, L))
    corrupted, predicted = _record([0, 1], rng=rng)
    state = lift_and_encode(small_encoder, rng.normal(size=(1, L, V)), corrupted, predicted)
    pullback_to_logits(state, rng.normal(size=(1, feature_dim(small_encoder))))
    real_features_batch(small_encoder, clean)
    assert encoder_param_bytes(small_encoder) == before
