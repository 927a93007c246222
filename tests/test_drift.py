from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlm.drift import (
    DriftConfig,
    ReferenceQueue,
    build_references,
    drift_multi_temp,
    drift_single_temp,
    queue_push,
    rms_scale,
)
from driftlm.numcore import InvalidInputError

from conftest import unit_rows

vec8 = arrays(
    np.float64, 8, elements=st.floats(min_value=-3, max_value=3, allow_nan=False)
).filter(lambda v: np.linalg.norm(v) > 1e-3)


# ---------------------------------------------------------------------------
# reference: one anchor's joint softmax over both sides


def joint_affinity_weights(h, positives, negatives, tau):
    """One softmax over the concatenated (positive ; negative) affinities of one anchor."""
    d_pos = np.sum((positives - h) ** 2, axis=1)
    d_neg = np.sum((negatives - h) ** 2, axis=1)
    s = np.concatenate([-d_pos / tau, -d_neg / tau])
    e = np.exp(s - s.max())
    w = e / e.sum()
    return w[: d_pos.size], w[d_pos.size :]


# ---------------------------------------------------------------------------
# reference: the per-anchor direct-difference drift loop the batched code replaced


def _reference_drift(h, pos, neg, tau, w_plus, w_minus, renormalize):
    d_pos = np.sum((pos - h) ** 2, axis=1)
    d_neg = np.sum((neg - h) ** 2, axis=1)

    def barycenter(affinities, refs):
        if refs.shape[0] == 0:
            return np.zeros(h.size)
        e = np.exp(affinities - affinities.max())
        return (e / e.sum()) @ refs

    if renormalize:
        b_plus = barycenter(-d_pos / tau, pos)
        b_minus = barycenter(-d_neg / tau, neg)
    else:
        s = np.concatenate([-d_pos / tau, -d_neg / tau])
        e = np.exp(s - s.max())
        w = e / e.sum()
        b_plus = w[: d_pos.size] @ pos if pos.shape[0] else np.zeros(h.size)
        b_minus = w[d_pos.size :] @ neg if neg.shape[0] else np.zeros(h.size)
    return w_plus * b_plus - w_minus * b_minus


def _reference_drift_multi_temp(anchors, positives, negatives, config):
    out = np.zeros(anchors.shape)
    for tau in config.temperatures:
        per_tau = np.stack(
            [
                _reference_drift(
                    h, positives, neg, tau, config.w_plus, config.w_minus, config.renormalize_sides
                )
                for h, neg in zip(anchors, negatives)
            ]
        )
        out += per_tau / rms_scale(per_tau, config.eps)
    return out / len(config.temperatures)


@pytest.mark.parametrize(
    "config, near_duplicates",
    [
        (DriftConfig(), True),
        (DriftConfig(w_plus=2.0, w_minus=0.5, temperatures=(0.01, 0.3)), True),
        # with raw joint masses, near-duplicates on both sides of every anchor
        # leave a ~1e-6 drift whose Gram-form rounding the RMS step scales up
        # past 1e-12 (CHANGES.md), so this variant is checked on spread features
        (DriftConfig(renormalize_sides=False), False),
    ],
    ids=["default", "weighted", "unrenormalized"],
)
def test_batched_drift_matches_per_anchor_reference(rng, config, near_duplicates):
    m = 16
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        pos = unit_rows(rng, int(rng.integers(1, 40)), m)
        neg = unit_rows(rng, n * int(rng.integers(1, 40)), m).reshape(n, -1, m)
        anchors = unit_rows(rng, n, m)
        if near_duplicates and trial % 2:
            # each anchor has a positive and a negative within 1e-9..1e-5 of
            # it, where the Gram form cancels most digits
            for i in range(n):
                for refs in (pos, neg[i]):
                    j = int(rng.integers(len(refs)))
                    near = anchors[i] + 10.0 ** rng.uniform(-9, -5) * rng.normal(size=m)
                    refs[j] = near / np.linalg.norm(near)
        got = drift_multi_temp(anchors, pos, neg, config)
        want = _reference_drift_multi_temp(anchors, pos, neg, config)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# config and queue


def test_drift_config_validation():
    with pytest.raises(InvalidInputError):
        DriftConfig(temperatures=())
    with pytest.raises(InvalidInputError):
        DriftConfig(temperatures=(0.1, 0.1))
    with pytest.raises(InvalidInputError):
        DriftConfig(temperatures=(-0.1,))
    with pytest.raises(InvalidInputError):
        DriftConfig(w_plus=0.0, w_minus=0.0)


def test_queue_fifo_eviction(rng):
    q = ReferenceQueue(2, 4)
    a, b, c = unit_rows(rng, 3, 4)
    queue_push(q, a[None])
    queue_push(q, b[None])
    queue_push(q, c[None])
    assert np.array_equal(q.rows, np.stack([b, c]))


def test_queue_push_longer_than_capacity(rng):
    q = ReferenceQueue(3, 4)
    items = unit_rows(rng, 7, 4)
    queue_push(q, items)
    assert np.array_equal(q.rows, items[-3:])


def test_queue_empty_push_no_change(rng):
    q = ReferenceQueue(2, 4)
    a = unit_rows(rng, 1, 4)
    queue_push(q, a)
    queue_push(q, np.zeros((0, 4)))
    assert np.array_equal(q.rows, a)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=30))
def test_queue_keeps_last_capacity_items(pushes):
    q = ReferenceQueue(5, 4)
    sent = np.zeros((0, 4))
    rng = np.random.default_rng(0)
    for group_size in pushes:
        group = unit_rows(rng, group_size, 4)
        sent = np.concatenate([sent, group])
        queue_push(q, group)
    assert np.array_equal(q.rows, sent[-5:])
    assert len(q) <= 5


def test_queue_rows_do_not_alias_pushed_array(rng):
    q = ReferenceQueue(4, 4)
    rows = unit_rows(rng, 2, 4)
    queue_push(q, rows)
    rows[0] = -rows[0]
    assert np.array_equal(q.rows[0], -rows[0])
    with pytest.raises(ValueError):
        q.rows[0, 0] = 1.0


def test_queue_push_rejects_non_unit_rows(rng):
    q = ReferenceQueue(4, 6)
    v = unit_rows(rng, 1, 6)
    with pytest.raises(InvalidInputError):
        queue_push(q, 2.0 * v)
    with pytest.raises(InvalidInputError):
        queue_push(q, np.full((1, 6), np.nan))
    with pytest.raises(InvalidInputError):
        queue_push(q, unit_rows(rng, 1, 5))
    queue_push(q, v)
    assert len(q) == 1


# ---------------------------------------------------------------------------
# single-temperature drift


def test_equal_distance_pair_gives_difference(rng):
    u = unit_rows(rng, 1, 8)
    # place h equidistant from u and v = -u
    h = np.zeros((1, 8))
    v = -u
    out = drift_single_temp(h, u, v[None], tau=0.1)
    assert np.allclose(out, u - v, atol=1e-12)


def test_positives_equal_negatives_zero_drift(rng):
    refs = unit_rows(rng, 6, 8)
    h = unit_rows(rng, 1, 8)
    for tau in (0.02, 0.05, 0.2):
        out = drift_single_temp(h, refs, refs.copy()[None], tau)
        assert np.all(out == 0.0)


def test_permuted_multiset_equilibrium_within_tolerance(rng):
    refs = unit_rows(rng, 6, 8)
    perm = refs[[3, 1, 5, 0, 4, 2]]
    h = unit_rows(rng, 1, 8)
    out = drift_single_temp(h, refs, perm[None], 0.05)
    assert np.max(np.abs(out)) <= 1e-12


def test_swap_negates_drift(rng):
    for _ in range(100):
        h = rng.normal(size=(1, 8))
        pos = rng.normal(size=(5, 8))
        neg = rng.normal(size=(3, 8))
        fwd = drift_single_temp(h, pos, neg[None], 0.05)
        bwd = drift_single_temp(h, neg, pos[None], 0.05)
        assert np.max(np.abs(fwd + bwd)) <= 1e-12


def test_swap_negates_drift_unrenormalized(rng):
    h = rng.normal(size=(1, 8))
    pos = rng.normal(size=(5, 8))
    neg = rng.normal(size=(3, 8))
    fwd = drift_single_temp(h, pos, neg[None], 0.05, renormalize=False)
    bwd = drift_single_temp(h, neg, pos[None], 0.05, renormalize=False)
    assert np.max(np.abs(fwd + bwd)) <= 1e-12


@given(vec8, vec8, vec8)
def test_antisymmetry_property(h, p, n):
    fwd = drift_single_temp(h[None], p[None], n[None, None], 0.1)
    bwd = drift_single_temp(h[None], n[None], p[None, None], 0.1)
    assert np.max(np.abs(fwd + bwd)) <= 1e-12


def test_empty_required_side_raises(rng):
    h = rng.normal(size=(1, 8))
    refs = rng.normal(size=(3, 8))
    with pytest.raises(InvalidInputError):
        drift_single_temp(h, np.zeros((0, 8)), refs[None], 0.1)
    with pytest.raises(InvalidInputError):
        drift_single_temp(h, refs, np.zeros((1, 0, 8)), 0.1)


def test_zero_ratio_weight_allows_empty_side(rng):
    h = rng.normal(size=(1, 8))
    refs = rng.normal(size=(3, 8))
    attraction_only = drift_single_temp(h, refs, np.zeros((1, 0, 8)), 0.1, w_plus=1.0, w_minus=0.0)
    d = np.sum((refs - h) ** 2, axis=1)
    w = np.exp(-d / 0.1)
    assert np.allclose(attraction_only[0], (w / w.sum()) @ refs, atol=1e-12)
    repulsion_only = drift_single_temp(
        h, np.zeros((0, 8)), refs[None], 0.1, w_plus=0.0, w_minus=1.0
    )
    assert np.allclose(repulsion_only[0], -(w / w.sum()) @ refs, atol=1e-12)


def test_renormalized_equals_joint_then_renormalize(rng):
    h = rng.normal(size=8)
    pos = rng.normal(size=(4, 8))
    neg = rng.normal(size=(5, 8))
    w_pos, w_neg = joint_affinity_weights(h, pos, neg, 0.05)
    expected = (w_pos @ pos) / w_pos.sum() - (w_neg @ neg) / w_neg.sum()
    out = drift_single_temp(h[None], pos, neg[None], 0.05)
    assert np.max(np.abs(out[0] - expected)) <= 1e-12


def test_joint_weights_sum_to_one(rng):
    for _ in range(20):
        w_pos, w_neg = joint_affinity_weights(
            rng.normal(size=8), rng.normal(size=(4, 8)), rng.normal(size=(6, 8)), 0.02
        )
        assert abs(w_pos.sum() + w_neg.sum() - 1.0) <= 1e-12


def test_low_temperature_concentrates_on_nearest(rng):
    for _ in range(20):
        refs = rng.normal(size=(6, 8))
        h = refs[2] + 0.05 * rng.normal(size=8)
        w_pos, w_neg = joint_affinity_weights(h, refs[:3], refs[3:], 1e-6)
        weights = np.concatenate([w_pos, w_neg])
        dists = np.sum((refs - h) ** 2, axis=1)
        assert weights[np.argmin(dists)] > 1.0 - 1e-6


# ---------------------------------------------------------------------------
# multi-temperature drift


def test_multi_temp_single_tau_equals_normalized_single(rng):
    anchors = unit_rows(rng, 4, 8)
    pos = unit_rows(rng, 5, 8)
    negs = unit_rows(rng, 4 * 6, 8).reshape(4, 6, 8)
    cfg = DriftConfig(temperatures=(0.05,))
    out = drift_multi_temp(anchors, pos, negs, cfg)
    per = np.concatenate(
        [drift_single_temp(anchors[i : i + 1], pos, negs[i : i + 1], 0.05) for i in range(4)]
    )
    expected = per / rms_scale(per, cfg.eps)
    assert np.array_equal(out, expected)


def test_multi_temp_rms_is_one_per_temperature(rng):
    anchors = unit_rows(rng, 4, 8)
    pos = rng.normal(size=(6, 8))
    pool = np.repeat(unit_rows(rng, 5, 8)[None], 4, axis=0)
    for tau in (0.02, 0.05, 0.2):
        per = drift_single_temp(anchors, pos, pool, tau)
        normalized = per / rms_scale(per, 1e-8)
        rms = math.sqrt(float(np.mean(np.sum(normalized**2, axis=1))))
        assert abs(rms - 1.0) <= 1e-6


def test_multi_temp_zero_drifts_no_nan(rng):
    refs = unit_rows(rng, 5, 8)
    anchors = unit_rows(rng, 3, 8)
    copies = np.repeat(refs.copy()[None], 3, axis=0)
    out = drift_multi_temp(anchors, refs, copies, DriftConfig())
    assert np.all(out == 0.0)
    assert np.all(np.isfinite(out))


def test_multi_temp_excludes_anchor_by_row_index(rng):
    anchor = unit_rows(rng, 1, 8)
    other = unit_rows(rng, 1, 8)
    gens = np.concatenate([anchor, anchor.copy(), other])  # row 1 is a value-twin of row 0
    reals = unit_rows(rng, 3, 8)
    pos, negs = build_references(reals, gens, ReferenceQueue(4, 8), ReferenceQueue(4, 8))
    # anchor 0's own row is dropped, its value-twin stays
    assert np.array_equal(negs[0], np.concatenate([anchor, other]))
    out = drift_single_temp(gens, pos, negs, 0.05)
    alone = drift_single_temp(anchor, pos, np.concatenate([anchor, other])[None], 0.05)
    assert np.array_equal(out[:1], alone)


def test_multi_temp_anchor_in_pool_changes_result(rng):
    gens = unit_rows(rng, 4, 8)
    pos = unit_rows(rng, 3, 8)
    _, negs = build_references(pos, gens, ReferenceQueue(4, 8), ReferenceQueue(4, 8))
    with_anchor = drift_multi_temp(gens[:1], pos, gens[None], DriftConfig())
    excluded = drift_multi_temp(gens[:1], pos, negs[:1], DriftConfig())
    without = drift_multi_temp(gens[:1], pos, gens[None, 1:], DriftConfig())
    # build_references drops the anchor's own row; left in, it changes the drift
    assert np.allclose(excluded, without, atol=1e-12)
    assert not np.allclose(with_anchor, without, atol=1e-6)


def test_multi_temp_empty_anchor_batch_rejected():
    with pytest.raises(InvalidInputError):
        drift_multi_temp(np.zeros((0, 8)), np.zeros((0, 8)), np.zeros((0, 0, 8)), DriftConfig())


# ---------------------------------------------------------------------------
# reference building


def test_build_references_cardinality(rng):
    cur_real = unit_rows(rng, 4, 8)
    cur_gen = unit_rows(rng, 4, 8)
    q_real, q_gen = ReferenceQueue(8, 8), ReferenceQueue(8, 8)
    queue_push(q_real, unit_rows(rng, 3, 8))
    queue_push(q_gen, unit_rows(rng, 3, 8))
    positives, negatives = build_references(cur_real, cur_gen, q_real, q_gen)
    assert positives.shape == (7, 8) and negatives.shape == (4, 6, 8)
    # current features come first, in order, then the queue snapshot
    assert np.array_equal(positives[:4], cur_real)
    assert np.array_equal(positives[4:], q_real.rows)
    for i in range(4):
        assert np.array_equal(negatives[i, :3], np.delete(cur_gen, i, axis=0))
        assert np.array_equal(negatives[i, 3:], q_gen.rows)


def test_build_references_empty_queues(rng):
    cur_real = unit_rows(rng, 1, 8)
    cur_gen = unit_rows(rng, 1, 8)
    positives, negatives = build_references(
        cur_real, cur_gen, ReferenceQueue(4, 8), ReferenceQueue(4, 8)
    )
    assert np.array_equal(positives, cur_real) and negatives.shape == (1, 0, 8)


def test_anchor_never_in_own_negatives(rng):
    cur_gen = unit_rows(rng, 4, 8)
    cur_real = unit_rows(rng, 4, 8)
    q_real, q_gen = ReferenceQueue(8, 8), ReferenceQueue(8, 8)
    _, negatives = build_references(cur_real, cur_gen, q_real, q_gen)
    for i, h in enumerate(cur_gen):
        assert not any(np.array_equal(h, v) for v in negatives[i])
        assert len(negatives[i]) == len(cur_gen) - 1
