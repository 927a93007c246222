from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlm.corpus import (
    MarkovSource,
    banded_source,
    load_source,
    oracle_gen_ppl,
    sample_sequences,
    save_source,
    token_rows,
)
from driftlm.numcore import InvalidInputError

from conftest import ConstantDraws

def cycle_source(k: int = 4) -> MarkovSource:
    transition = np.zeros((k, k))
    for i in range(k):
        transition[i, (i + 1) % k] = 1.0
    initial = np.zeros(k)
    initial[0] = 1.0
    return MarkovSource(k, initial, transition)


def uniform_source(k: int = 4) -> MarkovSource:
    return MarkovSource(k, np.full(k, 1.0 / k), np.full((k, k), 1.0 / k))


# ---------------------------------------------------------------------------
# references: one sequence at a time


def _factors(source: MarkovSource, s: np.ndarray) -> np.ndarray:
    factors = np.empty(s.size, dtype=np.float64)
    factors[0] = source.initial[s[0]]
    if s.size > 1:
        factors[1:] = source.transition[s[:-1], s[1:]]
    return factors


def oracle_log_prob(source: MarkovSource, seq) -> float:
    """Exact log-likelihood in nats; -inf sentinel when any factor is zero."""
    (s,) = token_rows([seq], source.vocab_size)
    factors = _factors(source, s)
    if np.any(factors == 0.0):
        return -math.inf
    return float(np.log(factors).sum())


def loop_gen_ppl(source: MarkovSource, seqs, floor: float = 1e-12) -> float:
    """Per-sequence Gen.-PPL loop; ``oracle_gen_ppl`` must match it bit for bit."""
    total_lp = 0.0
    total_tokens = 0
    for s in seqs:
        factors = _factors(source, s)
        factors = np.where(factors == 0.0, floor, factors)
        total_lp += float(np.log(factors).sum())
        total_tokens += s.size
    return float(math.exp(-total_lp / total_tokens))


def mean_token_nll(source: MarkovSource, length: int) -> float:
    """Analytic E[-log p(x)] / L: initial entropy plus marginal-weighted row entropies."""

    def _entropy(p: np.ndarray) -> float:
        nz = p[p > 0.0]
        return float(-(nz * np.log(nz)).sum())

    total = _entropy(source.initial)
    marginal = source.initial
    for _ in range(length - 1):
        total += float(sum(marginal[s] * _entropy(source.transition[s]) for s in range(source.vocab_size)))
        marginal = marginal @ source.transition
    return total / length


# ---------------------------------------------------------------------------
# construction


def test_source_invariants_enforced():
    with pytest.raises(InvalidInputError):
        MarkovSource(2, np.array([0.6, 0.6]), np.eye(2))
    with pytest.raises(InvalidInputError):
        MarkovSource(2, np.array([0.5, 0.5]), np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(InvalidInputError):
        MarkovSource(3, np.array([0.5, 0.5]), np.eye(3))


def test_banded_source_is_doubly_stochastic():
    src = banded_source()
    assert src.vocab_size == 31
    assert np.allclose(src.transition.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(src.transition.sum(axis=0), 1.0, atol=1e-12)
    assert np.allclose(src.initial, 1.0 / 31)


# ---------------------------------------------------------------------------
# sampling


def test_deterministic_cycle_trajectory():
    src = cycle_source()
    seq = sample_sequences(src, 1, 4, np.random.default_rng(0))[0]
    assert seq.tolist() == [0, 1, 2, 3]


def test_same_seed_same_sequences():
    src = banded_source()
    a = sample_sequences(src, 8, 16, np.random.default_rng(9))
    b = sample_sequences(src, 8, 16, np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_draw_past_a_rows_rounded_total_stays_possible():
    # 28 of the banded rows, and ten initial masses of 0.1, sum to 1 - 2**-53;
    # the largest draw below 1 lies at or above that total
    top = ConstantDraws(np.nextafter(1.0, 0.0))
    src = banded_source()
    assert np.sum(np.cumsum(src.transition, axis=1)[:, -1] <= top.value) == 28
    seqs = sample_sequences(src, 3, 6, top)
    assert np.all(src.initial[seqs[:, 0]] > 0.0)
    assert np.all(src.transition[seqs[:, :-1], seqs[:, 1:]] > 0.0)
    initial = np.array([0.1] * 10 + [0.0])
    assert np.cumsum(initial)[-1] <= top.value
    padded = MarkovSource(11, initial, banded_source(11).transition)
    assert sample_sequences(padded, 2, 1, top).tolist() == [[9], [9]]


def test_uniform_source_unigrams_close_to_uniform():
    src = uniform_source(8)
    tokens = sample_sequences(src, 1000, 100, np.random.default_rng(1)).ravel()
    freq = np.bincount(tokens, minlength=8) / tokens.size
    tv = 0.5 * np.abs(freq - 1.0 / 8).sum()
    assert tv < 0.02


# ---------------------------------------------------------------------------
# exact likelihood oracle


def test_log_prob_uniform_chain():
    src = uniform_source(4)
    seq = sample_sequences(src, 1, 8, np.random.default_rng(0))[0]
    assert abs(oracle_log_prob(src, seq) - (-8 * math.log(4))) < 1e-12


def test_log_prob_cycle_trajectory_is_zero():
    src = cycle_source()
    assert oracle_log_prob(src, np.array([0, 1, 2, 3, 0])) == 0.0


def test_log_prob_two_state_example():
    src = MarkovSource(
        2, np.array([0.5, 0.5]), np.array([[0.9, 0.1], [0.2, 0.8]])
    )
    expected = math.log(0.5 * 0.9 * 0.1)
    assert abs(oracle_log_prob(src, np.array([0, 0, 1])) - expected) < 1e-12


def test_log_prob_impossible_transition_is_neg_inf():
    src = cycle_source()
    assert oracle_log_prob(src, np.array([0, 2])) == -math.inf


def test_log_prob_length_one_equals_initial():
    src = MarkovSource(3, np.array([0.2, 0.3, 0.5]), np.full((3, 3), 1 / 3))
    assert abs(oracle_log_prob(src, np.array([2])) - math.log(0.5)) < 1e-15


def test_log_prob_rejects_mask_symbol():
    src = uniform_source(4)
    with pytest.raises(InvalidInputError):
        oracle_log_prob(src, np.array([0, 4]))


# ---------------------------------------------------------------------------
# generative perplexity


def test_gen_ppl_uniform_source_is_vocab_size():
    src = uniform_source(5)
    seqs = sample_sequences(src, 6, 10, np.random.default_rng(2))
    assert abs(oracle_gen_ppl(src, seqs) - 5.0) < 1e-9


def test_gen_ppl_probability_one_trajectory():
    src = cycle_source()
    assert abs(oracle_gen_ppl(src, [np.array([0, 1, 2, 3])]) - 1.0) < 1e-12


def test_gen_ppl_floors_impossible_factors():
    src = cycle_source()
    ppl = oracle_gen_ppl(src, [np.array([0, 2])])
    # one valid initial factor (prob 1) and one floored transition
    assert abs(math.log(ppl) - (-math.log(1e-12) / 2)) < 1e-9


def test_gen_ppl_empty_list_rejected():
    with pytest.raises(InvalidInputError):
        oracle_gen_ppl(uniform_source(4), [])


@pytest.mark.parametrize("draw", ["sampled", "random-token"])
def test_gen_ppl_bit_identical_to_per_sequence_loop(draw):
    src = banded_source()
    rng = np.random.default_rng(6)
    if draw == "sampled":
        seqs = sample_sequences(src, 2048, 32, rng)
    else:  # mostly impossible transitions under the banded chain, so mostly floored
        seqs = rng.integers(0, src.vocab_size, size=(2048, 32))
    assert oracle_gen_ppl(src, seqs) == loop_gen_ppl(src, seqs)


def test_gen_ppl_rejects_out_of_vocabulary_naming_the_row():
    seqs = np.array([[0, 1, 2], [3, 4, 5], [0, 31, 1]])
    with pytest.raises(InvalidInputError, match="row 2: token index 31"):
        oracle_gen_ppl(banded_source(), seqs)


@given(st.permutations(list(range(6))))
def test_gen_ppl_invariant_under_sequence_permutation(order):
    src = banded_source(vocab_size=9, band=(0.5, 0.5))
    seqs = list(sample_sequences(src, 6, 12, np.random.default_rng(3)))
    base = oracle_gen_ppl(src, seqs)
    assert oracle_gen_ppl(src, [seqs[i] for i in order]) == pytest.approx(base, rel=1e-12)


def test_sampled_nll_matches_entropy_rate_within_3_se():
    src = banded_source()
    length = 16
    n = 700  # > 1e4 tokens
    seqs = sample_sequences(src, n, length, np.random.default_rng(4))
    nlls = np.array([-oracle_log_prob(src, s) / length for s in seqs])
    se = nlls.std(ddof=1) / math.sqrt(n)
    assert abs(nlls.mean() - mean_token_nll(src, length)) <= 3 * se


def test_mean_token_nll_matches_enumeration():
    # brute-force oracle: full enumeration of the sequence space
    src = MarkovSource(
        3,
        np.array([0.5, 0.25, 0.25]),
        np.array([[0.1, 0.6, 0.3], [0.4, 0.4, 0.2], [0.3, 0.3, 0.4]]),
    )
    length = 4
    expected = 0.0
    for seq in itertools.product(range(3), repeat=length):
        lp = oracle_log_prob(src, np.array(seq))
        expected += math.exp(lp) * (-lp / length)
    assert abs(mean_token_nll(src, length) - expected) < 1e-12


# ---------------------------------------------------------------------------
# files


def test_source_file_roundtrip(tmp_path):
    src = banded_source()
    path = tmp_path / "source.json"
    save_source(src, path)
    loaded = load_source(path)
    assert loaded.vocab_size == src.vocab_size
    assert np.array_equal(loaded.initial, src.initial)
    assert np.array_equal(loaded.transition, src.transition)


def test_source_and_sampler_reject_empty_sizes():
    with pytest.raises(InvalidInputError, match="vocab_size must be positive"):
        MarkovSource(0, np.zeros(0), np.zeros((0, 0)))
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidInputError, match="n must be at least 1"):
        sample_sequences(uniform_source(), 0, 4, rng)
    with pytest.raises(InvalidInputError, match="length must be at least 1"):
        sample_sequences(uniform_source(), 4, 0, rng)


def test_load_source_rejects_bad_row_count(tmp_path):
    path = tmp_path / "source.json"
    doc = {"vocab_size": 3, "initial": [0.5, 0.25, 0.25], "transition": [[1, 0, 0]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvalidInputError, match="shapes"):
        load_source(path)
