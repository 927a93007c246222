"""Synthetic Markov token source with exact sequence likelihoods.

A small banded Markov chain stands in for a text corpus: it is cheap to
sample, has a closed-form entropy rate, and admits an exact per-sequence
log-likelihood, which makes it usable as a generative-perplexity oracle for
generated samples.  A source file is the JSON of a ``MarkovSource``, written
and read by the ``codec`` module, and ``MarkovSource.__post_init__`` checks
what it decodes to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import dump, load
from .numcore import Array, InvalidInputError, draw_rows, token_rows

_STOCHASTIC_TOL = 1e-12
IMPOSSIBLE_FLOOR = 1e-12  # what ``oracle_gen_ppl`` scores a zero-probability factor as


@dataclass(frozen=True)
class MarkovSource:
    """First-order Markov chain over a clean vocabulary (mask symbol excluded)."""

    vocab_size: int
    initial: Array
    transition: Array

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=np.float64)
        transition = np.asarray(self.transition, dtype=np.float64)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        k = self.vocab_size
        if k < 1:
            raise InvalidInputError("vocab_size must be positive")
        if initial.shape != (k,) or transition.shape != (k, k):
            raise InvalidInputError("initial/transition shapes inconsistent with vocab_size")
        if not (np.all(initial >= 0.0) and np.all(transition >= 0.0)):
            raise InvalidInputError("probabilities must be nonnegative numbers")
        if abs(initial.sum() - 1.0) > _STOCHASTIC_TOL:
            raise InvalidInputError("initial distribution must sum to 1")
        row_err = np.abs(transition.sum(axis=1) - 1.0).max()
        if row_err > _STOCHASTIC_TOL:
            raise InvalidInputError("every transition row must sum to 1")


def banded_source(
    vocab_size: int = 31,
    band: tuple[float, ...] = (0.4, 0.3, 0.2, 0.1),
) -> MarkovSource:
    """Cyclic banded chain: state i steps to i+1..i+len(band) with the band weights.

    Doubly stochastic, so the stationary distribution is uniform and the
    entropy rate is the entropy of the band itself.
    """
    if vocab_size <= len(band):
        raise InvalidInputError("vocab_size must exceed the band width")
    transition = np.zeros((vocab_size, vocab_size), dtype=np.float64)
    for i in range(vocab_size):
        for j, p in enumerate(band, start=1):
            transition[i, (i + j) % vocab_size] = p
    initial = np.full(vocab_size, 1.0 / vocab_size, dtype=np.float64)
    return MarkovSource(vocab_size=vocab_size, initial=initial, transition=transition)


# ---------------------------------------------------------------------------
# sampling and scoring


def sample_sequences(source: MarkovSource, n: int, length: int, rng: np.random.Generator) -> Array:
    """Draw ``n`` sequences of ``length`` tokens; deterministic given the generator.

    Every token and transition drawn has positive probability (``draw_rows``)."""
    if length < 1:
        raise InvalidInputError("length must be at least 1")
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    out = np.empty((n, length), dtype=np.int64)
    trans_cdf = np.cumsum(source.transition, axis=1)
    cur = draw_rows(np.broadcast_to(np.cumsum(source.initial), (n, source.vocab_size)), rng)
    out[:, 0] = cur
    for t in range(1, length):
        cur = draw_rows(trans_cdf[cur], rng)
        out[:, t] = cur
    return out


def oracle_gen_ppl(source: MarkovSource, seqs) -> float:
    """exp of the mean per-token NLL over all sequences, zero factors floored.

    ``seqs`` is an ``[n, L]`` token array (see ``numcore.token_rows``).  Row
    log-likelihoods are added left to right in row order (``cumsum``, not the
    pairwise ``sum``), so the result is bit-identical to scoring one
    sequence at a time.
    """
    s = token_rows(seqs, source.vocab_size)
    factors = np.empty(s.shape, dtype=np.float64)
    factors[:, 0] = source.initial[s[:, 0]]
    factors[:, 1:] = source.transition[s[:, :-1], s[:, 1:]]
    # only genuinely impossible factors are floored
    factors[factors == 0.0] = IMPOSSIBLE_FLOOR
    row_lp = np.log(factors).sum(axis=1)
    return float(math.exp(-np.cumsum(row_lp)[-1] / s.size))


# ---------------------------------------------------------------------------
# source files


def save_source(source: MarkovSource, path) -> None:
    dump(source, path)


def load_source(path) -> MarkovSource:
    return load(MarkovSource, path)
