from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from driftlm.drift import (
    DriftConfig,
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
#
# Its sums run over the references one at a time, in order, as the formulas
# read.  Near-duplicates on both sides of an anchor leave a drift of about
# 1e-6 that the RMS step scales by up to 1e4, so two float64 evaluations that
# only sum in different orders already differ by about 1e-12 there (against a
# long-double evaluation, both this loop and a BLAS one are about 1e-12 off);
# summing in order makes the 1e-12 bound measure the pools and the masking.


def _ordered_sum(weights, refs):
    """sum_k weights[k] * refs[k], one reference at a time in pool order."""
    total = np.zeros(refs.shape[1:])
    for w, r in zip(weights, refs):
        total = total + w * r
    return total


def _reference_drift(h, pos, neg, tau, w_plus, w_minus):
    def barycenter(refs):
        if refs.shape[0] == 0:
            return np.zeros(h.size)
        affinities = -np.sum((refs - h) ** 2, axis=1) / tau
        e = np.exp(affinities - affinities.max())
        return _ordered_sum(e / _ordered_sum(e, np.ones(e.size)), refs)

    return w_plus * barycenter(pos) - w_minus * barycenter(neg)


def _reference_drift_multi_temp(anchors, positives, negatives, config, exclude_self):
    # anchor i's own negatives: the pool without row i when it is excluded
    own = [np.delete(negatives, i, 0) if exclude_self else negatives for i in range(len(anchors))]
    out = np.zeros(anchors.shape)
    for tau in config.temperatures:
        per_tau = np.stack(
            [
                _reference_drift(h, positives, neg, tau, config.w_plus, config.w_minus)
                for h, neg in zip(anchors, own)
            ]
        )
        out += per_tau / rms_scale(per_tau)
    return out / len(config.temperatures)


@pytest.mark.parametrize(
    "config",
    [DriftConfig(), DriftConfig(w_plus=2.0, w_minus=0.5, temperatures=(0.01, 0.3))],
    ids=["default", "weighted"],
)
def test_batched_drift_matches_per_anchor_reference(rng, config):
    m = 16
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 9))
        pos = unit_rows(rng, int(rng.integers(1, 40)), m)
        anchors = unit_rows(rng, n, m)
        # pools as build_references lays them out: the anchors, then a queue
        queued = unit_rows(rng, int(rng.integers(1, 40)), m)
        exclude_self = trial % 4 != 3
        if trial % 2:
            # each anchor has a positive and a queued negative within
            # 1e-9..1e-5 of it, where the Gram form cancels most digits
            for i in range(n):
                for refs in (pos, queued):
                    j = int(rng.integers(len(refs)))
                    near = anchors[i] + 10.0 ** rng.uniform(-9, -5) * rng.normal(size=m)
                    refs[j] = near / np.linalg.norm(near)
        neg = np.concatenate([anchors, queued]) if exclude_self else queued
        got = drift_multi_temp(anchors, pos, neg, config, exclude_self=exclude_self)
        want = _reference_drift_multi_temp(anchors, pos, neg, config, exclude_self)
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
    q = np.zeros((0, 4))
    a, b, c = unit_rows(rng, 3, 4)
    q = queue_push(q, a[None], 2)
    q = queue_push(q, b[None], 2)
    q = queue_push(q, c[None], 2)
    assert np.array_equal(q, np.stack([b, c]))


def test_queue_push_longer_than_capacity(rng):
    items = unit_rows(rng, 7, 4)
    q = queue_push(np.zeros((0, 4)), items, 3)
    assert np.array_equal(q, items[-3:])


def test_queue_empty_push_no_change(rng):
    a = unit_rows(rng, 1, 4)
    q = queue_push(np.zeros((0, 4)), a, 2)
    q = queue_push(q, np.zeros((0, 4)), 2)
    assert np.array_equal(q, a)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=0, max_size=30))
def test_queue_keeps_last_capacity_items(pushes):
    q = np.zeros((0, 4))
    sent = np.zeros((0, 4))
    rng = np.random.default_rng(0)
    for group_size in pushes:
        group = unit_rows(rng, group_size, 4)
        sent = np.concatenate([sent, group])
        q = queue_push(q, group, 5)
    assert np.array_equal(q, sent[-5:])
    assert len(q) <= 5


def test_queue_rows_do_not_alias_pushed_array(rng):
    rows = unit_rows(rng, 2, 4)
    q = queue_push(np.zeros((0, 4)), rows, 4)
    rows[0] = -rows[0]
    assert np.array_equal(q[0], -rows[0])
    with pytest.raises(ValueError):
        q[0, 0] = 1.0


def test_queue_push_rejects_non_unit_rows(rng):
    q = np.zeros((0, 6))
    v = unit_rows(rng, 1, 6)
    with pytest.raises(InvalidInputError):
        queue_push(q, 2.0 * v, 4)
    with pytest.raises(InvalidInputError):
        queue_push(q, np.full((1, 6), np.nan), 4)
    with pytest.raises(InvalidInputError):
        queue_push(q, unit_rows(rng, 1, 5), 4)
    q = queue_push(q, v, 4)
    assert len(q) == 1


def test_queue_push_rejects_nonpositive_capacity(rng):
    with pytest.raises(InvalidInputError, match="capacity must be positive"):
        queue_push(np.zeros((0, 4)), unit_rows(rng, 1, 4), 0)


# ---------------------------------------------------------------------------
# single-temperature drift


def test_equal_distance_pair_gives_difference(rng):
    u = unit_rows(rng, 1, 8)
    # place h equidistant from u and v = -u
    h = np.zeros((1, 8))
    v = -u
    out = drift_single_temp(h, u, v, tau=0.1)
    assert np.allclose(out, u - v, atol=1e-12)


def test_positives_equal_negatives_zero_drift(rng):
    refs = unit_rows(rng, 6, 8)
    h = unit_rows(rng, 1, 8)
    for tau in (0.02, 0.05, 0.2):
        out = drift_single_temp(h, refs, refs.copy(), tau)
        assert np.all(out == 0.0)


def test_permuted_multiset_equilibrium_within_tolerance(rng):
    refs = unit_rows(rng, 6, 8)
    perm = refs[[3, 1, 5, 0, 4, 2]]
    h = unit_rows(rng, 1, 8)
    out = drift_single_temp(h, refs, perm, 0.05)
    assert np.max(np.abs(out)) <= 1e-12


def test_swap_negates_drift(rng):
    for _ in range(100):
        h = rng.normal(size=(1, 8))
        pos = rng.normal(size=(5, 8))
        neg = rng.normal(size=(3, 8))
        fwd = drift_single_temp(h, pos, neg, 0.05)
        bwd = drift_single_temp(h, neg, pos, 0.05)
        assert np.max(np.abs(fwd + bwd)) <= 1e-12


@given(vec8, vec8, vec8)
def test_antisymmetry_property(h, p, n):
    fwd = drift_single_temp(h[None], p[None], n[None], 0.1)
    bwd = drift_single_temp(h[None], n[None], p[None], 0.1)
    assert np.max(np.abs(fwd + bwd)) <= 1e-12


def test_empty_required_side_raises(rng):
    h = rng.normal(size=(1, 8))
    refs = rng.normal(size=(3, 8))
    with pytest.raises(InvalidInputError):
        drift_single_temp(h, np.zeros((0, 8)), refs, 0.1)
    with pytest.raises(InvalidInputError):
        drift_single_temp(h, refs, np.zeros((0, 8)), 0.1)


def test_build_references_rejects_an_empty_side(rng):
    current, queue = unit_rows(rng, 2, 8), np.zeros((0, 8))
    for real, gen in ((queue, current), (current, queue)):
        with pytest.raises(InvalidInputError, match="current features must be nonempty"):
            build_references(real, gen, queue, queue)


def test_drift_rejects_a_pool_of_another_width_and_a_nonpositive_tau(rng):
    h, refs = unit_rows(rng, 2, 8), unit_rows(rng, 3, 8)
    with pytest.raises(InvalidInputError, match=r"positives must have shape \[K, 8\]"):
        drift_multi_temp(h, refs[:, :7], refs, DriftConfig())
    with pytest.raises(InvalidInputError, match=r"negatives must have shape \[K, 8\]"):
        drift_multi_temp(h, refs, refs[:, :7], DriftConfig())
    for tau in (0.0, -0.1):
        with pytest.raises(InvalidInputError, match="tau must be positive"):
            drift_single_temp(h, refs, refs, tau)


def test_zero_ratio_weight_allows_empty_side(rng):
    h = rng.normal(size=(1, 8))
    refs = rng.normal(size=(3, 8))
    attraction_only = drift_single_temp(h, refs, np.zeros((0, 8)), 0.1, w_plus=1.0, w_minus=0.0)
    d = np.sum((refs - h) ** 2, axis=1)
    w = np.exp(-d / 0.1)
    assert np.allclose(attraction_only[0], (w / w.sum()) @ refs, atol=1e-12)
    repulsion_only = drift_single_temp(h, np.zeros((0, 8)), refs, 0.1, w_plus=0.0, w_minus=1.0)
    assert np.allclose(repulsion_only[0], -(w / w.sum()) @ refs, atol=1e-12)


def test_renormalized_equals_joint_then_renormalize(rng):
    h = rng.normal(size=8)
    pos = rng.normal(size=(4, 8))
    neg = rng.normal(size=(5, 8))
    w_pos, w_neg = joint_affinity_weights(h, pos, neg, 0.05)
    expected = (w_pos @ pos) / w_pos.sum() - (w_neg @ neg) / w_neg.sum()
    out = drift_single_temp(h[None], pos, neg, 0.05)
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
    pool = np.concatenate([anchors, unit_rows(rng, 6, 8)])
    cfg = DriftConfig(temperatures=(0.05,))
    out = drift_multi_temp(anchors, pos, pool, cfg, exclude_self=True)
    # each anchor alone against the pool without its own row
    per = np.concatenate(
        [drift_single_temp(anchors[i : i + 1], pos, np.delete(pool, i, 0), 0.05) for i in range(4)]
    )
    expected = per / rms_scale(per)
    assert np.array_equal(out, expected)


@pytest.mark.parametrize("queued", [256, 4], ids=["drift-l2", "drift-mirror"])
def test_multi_temp_equals_loop_of_single_temp_bitwise(rng, queued):
    # the benchmark workloads' pools: 8 anchors, then 256 or 4 queued rows
    cfg = DriftConfig()
    for _ in range(5):
        anchors = unit_rows(rng, 8, 64)
        pos = unit_rows(rng, 8 + queued, 64)
        neg = np.concatenate([anchors, unit_rows(rng, queued, 64)])
        want = np.zeros(anchors.shape)
        for tau in cfg.temperatures:
            per = drift_single_temp(anchors, pos, neg, tau, exclude_self=True)
            want += per / rms_scale(per)
        got = drift_multi_temp(anchors, pos, neg, cfg, exclude_self=True)
        assert np.array_equal(got, want / len(cfg.temperatures))


def test_stacked_rms_scale_equals_per_slice(rng):
    drifts = rng.normal(size=(3, 8, 64))
    stacked = rms_scale(drifts)
    assert stacked.shape == (3,)
    assert all(stacked[t] == rms_scale(drifts[t]) for t in range(3))
    assert isinstance(rms_scale(drifts[0]), float)


def test_multi_temp_rms_is_one_per_temperature(rng):
    anchors = unit_rows(rng, 4, 8)
    pos = rng.normal(size=(6, 8))
    pool = unit_rows(rng, 5, 8)
    for tau in (0.02, 0.05, 0.2):
        per = drift_single_temp(anchors, pos, pool, tau)
        normalized = per / rms_scale(per)
        rms = math.sqrt(float(np.mean(np.sum(normalized**2, axis=1))))
        assert abs(rms - 1.0) <= 1e-6


def test_multi_temp_zero_drifts_no_nan(rng):
    refs = unit_rows(rng, 5, 8)
    anchors = unit_rows(rng, 3, 8)
    out = drift_multi_temp(anchors, refs, refs.copy(), DriftConfig())
    assert np.all(out == 0.0)
    assert np.all(np.isfinite(out))


def test_multi_temp_excludes_anchor_by_row_index(rng):
    anchor = unit_rows(rng, 1, 8)
    other = unit_rows(rng, 1, 8)
    gens = np.concatenate([anchor, anchor.copy(), other])  # row 1 is a value-twin of row 0
    reals = unit_rows(rng, 3, 8)
    pos, neg = build_references(reals, gens, np.zeros((0, 8)), np.zeros((0, 8)))
    # anchor 0's own row gets weight exactly 0, its value-twin stays
    assert np.array_equal(neg, gens)
    out = drift_single_temp(gens, pos, neg, 0.05, exclude_self=True)
    alone = drift_single_temp(anchor, pos, np.concatenate([anchor, other]), 0.05)
    assert np.array_equal(out[:1], alone)


def test_multi_temp_anchor_in_pool_changes_result(rng):
    gens = unit_rows(rng, 4, 8)
    pos = unit_rows(rng, 3, 8)
    _, neg = build_references(pos, gens, np.zeros((0, 8)), np.zeros((0, 8)))
    with_anchor = drift_multi_temp(gens[:1], pos, neg, DriftConfig())
    excluded = drift_multi_temp(gens[:1], pos, neg, DriftConfig(), exclude_self=True)
    without = drift_multi_temp(gens[:1], pos, gens[1:], DriftConfig())
    # exclude_self drops the anchor's own row; left in, it changes the drift
    assert np.allclose(excluded, without, atol=1e-12)
    assert not np.allclose(with_anchor, without, atol=1e-6)


def test_multi_temp_empty_anchor_batch_rejected():
    with pytest.raises(InvalidInputError):
        drift_multi_temp(np.zeros((0, 8)), np.zeros((0, 8)), np.zeros((0, 8)), DriftConfig())


def test_exclude_self_needs_anchors_as_leading_negative_rows(rng):
    anchors = unit_rows(rng, 2, 8)
    pos = unit_rows(rng, 3, 8)
    with pytest.raises(InvalidInputError, match="exclude_self"):
        drift_multi_temp(anchors, pos, unit_rows(rng, 5, 8), DriftConfig(), exclude_self=True)
    with pytest.raises(InvalidInputError, match="exclude_self"):
        drift_multi_temp(anchors, pos, anchors[:1], DriftConfig(), exclude_self=True)


def test_own_row_only_pool(rng):
    h = unit_rows(rng, 1, 8)
    pos = unit_rows(rng, 3, 8)
    # with repulsion on, a pool holding only the anchor's own row leaves it none
    with pytest.raises(InvalidInputError, match="besides the anchor's own"):
        drift_multi_temp(h, pos, h.copy(), DriftConfig(), exclude_self=True)
    # with w_minus = 0 the repulsion is zero, not a NaN from an all -inf row
    cfg = DriftConfig(w_minus=0.0)
    out = drift_multi_temp(h, pos, h.copy(), cfg, exclude_self=True)
    attraction = drift_multi_temp(h, pos, np.zeros((0, 8)), cfg)
    assert np.all(np.isfinite(out)) and np.array_equal(out, attraction)


# ---------------------------------------------------------------------------
# exact zero at equilibrium, whatever the references' positions in the pools


def test_equilibrium_exact_zero_at_benchmark_size(rng):
    # the drift-l2 shape: 8 anchors, 255 queued rows, self-exclusion on; the
    # negatives equal the positives once each anchor's own row is masked,
    # but every reference after it sits one slot later in its pool
    m = 64
    cfg = DriftConfig()
    for _ in range(20):
        g, x = unit_rows(rng, 2, m)
        queued = unit_rows(rng, 255, m)
        anchors = np.repeat(g[None], 8, axis=0)
        pos = np.concatenate([np.repeat(g[None], 7, axis=0), x[None], queued])
        neg = np.concatenate([anchors, x[None], queued])
        out = drift_multi_temp(anchors, pos, neg, cfg, exclude_self=True)
        assert np.all(out == 0.0)


def test_equilibrium_exact_zero_per_anchor(rng):
    # distinct anchors: anchor i's positives are the negative pool without
    # row i, so its drift is exactly zero at every temperature
    for _ in range(30):
        n, m = int(rng.integers(1, 9)), int(rng.choice([8, 16, 64]))
        gens = unit_rows(rng, n, m)
        neg = np.concatenate([gens, unit_rows(rng, int(rng.integers(1, 300)), m)])
        for i in range(n):
            pos = np.delete(neg, i, 0)
            for tau in DriftConfig().temperatures:
                out = drift_single_temp(gens, pos, neg, tau, exclude_self=True)
                assert np.all(out[i] == 0.0)


# ---------------------------------------------------------------------------
# reference building


def test_build_references_cardinality(rng):
    cur_real = unit_rows(rng, 4, 8)
    cur_gen = unit_rows(rng, 4, 8)
    q_real = queue_push(np.zeros((0, 8)), unit_rows(rng, 3, 8), 8)
    q_gen = queue_push(np.zeros((0, 8)), unit_rows(rng, 3, 8), 8)
    positives, negatives = build_references(cur_real, cur_gen, q_real, q_gen)
    assert positives.shape == (7, 8) and negatives.shape == (7, 8)
    # current features come first, in order, then the queue snapshot
    assert np.array_equal(positives[:4], cur_real)
    assert np.array_equal(positives[4:], q_real)
    assert np.array_equal(negatives[:4], cur_gen)
    assert np.array_equal(negatives[4:], q_gen)


def test_build_references_empty_queues(rng):
    cur_real = unit_rows(rng, 1, 8)
    cur_gen = unit_rows(rng, 1, 8)
    positives, negatives = build_references(
        cur_real, cur_gen, np.zeros((0, 8)), np.zeros((0, 8))
    )
    assert np.array_equal(positives, cur_real) and np.array_equal(negatives, cur_gen)


def test_anchor_never_in_own_negatives(rng):
    cur_gen = unit_rows(rng, 4, 8)
    cur_real = unit_rows(rng, 4, 8)
    q_real = np.zeros((0, 8))
    q_gen = queue_push(np.zeros((0, 8)), unit_rows(rng, 3, 8), 8)
    pos, neg = build_references(cur_real, cur_gen, q_real, q_gen)
    # each anchor's drift is the one against the pool without its own row
    for tau in DriftConfig().temperatures:
        out = drift_single_temp(cur_gen, pos, neg, tau, exclude_self=True)
        for i in range(len(cur_gen)):
            alone = drift_single_temp(cur_gen[i : i + 1], pos, np.delete(neg, i, 0), tau)
            assert np.array_equal(out[i], alone[0])
