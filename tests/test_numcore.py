from __future__ import annotations

import math
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlm.backbone import CorruptionKind, corrupt, forward_tokens
from driftlm.corpus import banded_source, oracle_gen_ppl
from driftlm.encoder import real_features_batch
from driftlm.evalcli import entropy_metric
from driftlm.numcore import (
    InvalidInputError,
    draw_rows,
    l2_normalize_vjp,
    log_softmax_rows,
    softmax_rows,
    softmax_vjp_from_probs,
    tanh_vjp_from_output,
    token_rows,
)

from conftest import SMALL_MODEL, ConstantDraws, OracleFailureError, finite_diff_grad, rel_err

finite_rows = arrays(
    np.float64,
    (3, 4),
    elements=st.floats(min_value=-30.0, max_value=30.0, allow_nan=False),
)


# ---------------------------------------------------------------------------
# softmax


def test_softmax_uniform_row():
    assert np.allclose(softmax_rows(np.zeros((1, 4))), 0.25, atol=1e-15)


def test_softmax_two_to_one_ratio():
    row = softmax_rows(np.array([[0.0, math.log(2.0)]]))
    assert np.max(np.abs(row - np.array([[1 / 3, 2 / 3]]))) < 1e-15


def test_softmax_overflow_safe():
    row = softmax_rows(np.array([[1000.0, 1000.0]]))
    assert np.allclose(row, 0.5)


def test_softmax_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        softmax_rows(np.array([[1.0, math.inf]]))
    with pytest.raises(InvalidInputError, match="log_softmax_rows: non-finite logits"):
        log_softmax_rows(np.array([[1.0, math.nan]]))


@given(finite_rows)
def test_softmax_rows_sum_to_one(x):
    p = softmax_rows(x)
    assert np.max(np.abs(p.sum(axis=-1) - 1.0)) <= 1e-12
    assert np.all(p >= 0.0)


@given(finite_rows, st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_softmax_shift_invariance(x, c):
    assert np.max(np.abs(softmax_rows(x + c) - softmax_rows(x))) <= 1e-12


def test_softmax_pure_bit_identical():
    x = np.random.default_rng(3).normal(size=(4, 6))
    assert np.array_equal(softmax_rows(x), softmax_rows(x))


# ---------------------------------------------------------------------------
# categorical draw


def test_draw_rows_follows_the_flattened_row_order():
    cdf = np.cumsum(np.random.default_rng(4).random((3, 5, 7)), axis=-1)
    picks = draw_rows(cdf, np.random.default_rng(2))
    flat = draw_rows(cdf.reshape(15, 7), np.random.default_rng(2))
    assert picks.shape == (3, 5)
    assert np.array_equal(picks.reshape(15), flat)


@pytest.mark.parametrize("u, want", [(0.0, [0, 0, 1]), (np.nextafter(1.0, 0.0), [9, 9, 3])],
                         ids=["smallest", "largest"])
def test_draw_rows_never_picks_an_entry_of_probability_0(u, want):
    # ten masses of 0.1 sum to 1 - 2**-53, at or below the largest draw below 1;
    # the other rows end in entries of probability 0
    rows = [[0.1] * 10, [0.1] * 10 + [0.0, 0.0], [0.0, 0.3, 0.0, 0.7, 0.0]]
    assert np.cumsum(rows[0])[-1] <= np.nextafter(1.0, 0.0)
    for probs, pick in zip(map(np.array, rows), want):
        picks = draw_rows(np.cumsum(np.tile(probs, (2, 1)), axis=1), ConstantDraws(u))
        assert picks.tolist() == [pick, pick] and probs[pick] > 0.0


# ---------------------------------------------------------------------------
# token batches

# every stage that takes token ids, on the small model, with the bound it checks
# them against: the clean vocabulary, the whole one, or none
TOKEN_STAGES = {
    "corrupt": (SMALL_MODEL.mask_index, lambda params, encoder, batch: corrupt(
        batch, np.full(len(batch), 0.5), CorruptionKind.MASKED, np.random.default_rng(0),
        params.vocab_size)),
    "forward_tokens": (SMALL_MODEL.vocab_size,
                       lambda params, encoder, batch: forward_tokens(params, batch)),
    "real_features_batch": (SMALL_MODEL.mask_index,
                            lambda params, encoder, batch: real_features_batch(encoder, batch)),
    "oracle_gen_ppl": (SMALL_MODEL.clean_vocab, lambda params, encoder, batch: oracle_gen_ppl(
        banded_source(vocab_size=SMALL_MODEL.clean_vocab), batch)),
    "entropy_metric": (None, lambda params, encoder, batch: entropy_metric(batch)),
}


def _token_batch() -> np.ndarray:
    return np.arange(3 * SMALL_MODEL.length).reshape(3, -1) % SMALL_MODEL.clean_vocab


@pytest.mark.parametrize("stage", list(TOKEN_STAGES))
def test_every_stage_names_the_first_bad_row(stage, small_params, small_encoder):
    bound, run = TOKEN_STAGES[stage]
    batch = _token_batch()
    run(small_params, small_encoder, batch)  # the clean batch passes
    batch[1, 2], batch[2, 0] = -1, -2
    with pytest.raises(InvalidInputError, match=r"^row 1: token index -1 is not "):
        run(small_params, small_encoder, batch)
    if bound is not None:
        batch = _token_batch()
        batch[2, 3] = bound
        message = rf"^row 2: token index {bound} is not in \[0, {bound}\)$"
        with pytest.raises(InvalidInputError, match=message):
            run(small_params, small_encoder, batch)


def test_token_rows_returns_int64_rows_and_keeps_an_int64_array():
    batch = _token_batch()
    assert token_rows(batch, SMALL_MODEL.vocab_size) is batch
    for rows in (batch.astype(np.uint8), batch.tolist()):
        assert token_rows(rows).dtype == np.int64
        assert np.array_equal(token_rows(rows), batch)


# ---------------------------------------------------------------------------
# VJPs against the finite-difference oracle


def _l2_normalize(v):
    return v / np.sqrt(np.sum(v * v, axis=-1, keepdims=True))


def _l2_input(rng):
    v = rng.normal(size=5)
    return v + np.sign(v.sum() or 1.0) * 2.0


# name -> (forward, VJP worker given the input and upstream, input sampler)
VJP_CASES = {
    "softmax_rows": (
        softmax_rows,
        lambda x, u: softmax_vjp_from_probs(softmax_rows(x), u),
        lambda rng: rng.normal(size=(3, 4)),
    ),
    "tanh": (
        np.tanh,
        lambda x, u: tanh_vjp_from_output(np.tanh(x), u),
        lambda rng: rng.normal(size=(4, 3)),
    ),
    "l2_normalize": (_l2_normalize, l2_normalize_vjp, _l2_input),
}


@pytest.mark.parametrize("name", list(VJP_CASES))
def test_vjp_matches_finite_differences(name):
    forward, worker, draw = VJP_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for _ in range(100):
        x = draw(rng)
        upstream = rng.normal(size=np.shape(forward(x)))
        fd = finite_diff_grad(lambda val: float(np.sum(upstream * forward(val))), x, step=1e-5)
        assert rel_err(worker(x, upstream), fd) <= 1e-5


def test_vjp_softmax_constant_upstream_is_zero():
    logits = np.zeros((2, 4))
    g = softmax_vjp_from_probs(softmax_rows(logits), np.full((2, 4), 3.0))
    assert np.max(np.abs(g)) <= 1e-15


def test_vjp_l2_normalize_tangent_upstream_is_zero(rng):
    v = rng.normal(size=6)
    y = v / np.linalg.norm(v)
    g = l2_normalize_vjp(y, 2.5 * y)
    assert np.max(np.abs(g)) <= 1e-12


# ---------------------------------------------------------------------------
# finite differences


def test_finite_diff_square():
    g = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), step=1e-5)
    assert abs(g[0] - 6.0) <= 1e-6


def test_finite_diff_constant_is_zero():
    g = finite_diff_grad(lambda x: 7.0, np.ones(4), step=1e-5)
    assert np.all(g == 0.0)


def test_finite_diff_linear(rng):
    c = rng.normal(size=5)
    g = finite_diff_grad(lambda x: float(c @ x), rng.normal(size=5), step=1e-5)
    assert np.max(np.abs(g - c)) <= 1e-8


def test_finite_diff_rejects_bad_step_and_nonfinite():
    with pytest.raises(InvalidInputError):
        finite_diff_grad(lambda x: 0.0, np.ones(2), step=0.0)
    with pytest.raises(OracleFailureError):
        finite_diff_grad(lambda x: math.inf, np.ones(2), step=1e-5)
