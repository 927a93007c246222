from __future__ import annotations

import copy
import json
import tracemalloc

import numpy as np
import pytest

from driftlm import trainer
from driftlm.backbone import (
    CorruptionKind,
    ModelConfig,
    backward_tokens,
    base_loss,
    corrupt,
    forward_tokens,
    param_items,
)
from driftlm.codec import jsonable
from driftlm.corpus import banded_source, sample_sequences
from driftlm.drift import DriftConfig, build_references, drift_multi_temp, queue_push
from driftlm.encoder import (
    encoder_param_bytes,
    feature_dim,
    lift_and_encode,
    real_features_batch,
)
from driftlm.evalcli import evaluate, metrics_header, train_run
from driftlm.numcore import InvalidInputError
from driftlm.objectives import ObjectiveKind, ObjectiveVariant, total_objective
from driftlm.trainer import (
    CheckpointError,
    TrainConfig,
    TrainingDivergedError,
    checkpoint_of,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train_step,
)

from conftest import params_to_vector

TINY_MODEL = ModelConfig(vocab_size=8, length=6, embed_dim=8, hidden_dim=12)


def tiny_config(**overrides) -> TrainConfig:
    defaults = dict(
        batch_size=4,
        micro_batch=2,
        steps=3,
        model=TINY_MODEL,
        queue_capacity=16,
        eval_every=1,
        eval_samples=4,
        eval_nfes=(2, 3),
        seed=0,
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


@pytest.fixture
def source():
    return banded_source(vocab_size=TINY_MODEL.clean_vocab)


def run_steps(config, source, n_steps, state=None):
    state = state or init_state(config)
    metrics = []
    for _ in range(n_steps):
        batch = sample_sequences(source, config.batch_size, config.model.length, state.rng)
        metrics.append(train_step(state, batch, config))
    return state, metrics


def test_train_step_rejects_a_batch_of_another_size(source):
    config = tiny_config()
    state = init_state(config)
    batch = sample_sequences(source, config.batch_size + 1, config.model.length, state.rng)
    with pytest.raises(InvalidInputError, match="clean_batch size must equal config.batch_size"):
        train_step(state, batch, config)


def test_train_step_rejects_non_integer_tokens(source):
    config = tiny_config()
    state = init_state(config)
    batch = sample_sequences(source, config.batch_size, config.model.length, state.rng)
    with pytest.raises(InvalidInputError, match="token indices must be integers, got dtype float64"):
        train_step(state, batch + 0.5, config)
    assert state.step == 0


# ---------------------------------------------------------------------------
# determinism and accumulation


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TrainConfig(batch_size=10, micro_batch=4, objective=ObjectiveKind())
    # base steps never read micro_batch, so a base config need not divide by it
    assert TrainConfig(batch_size=10, micro_batch=4).batch_size == 10
    with pytest.raises(InvalidInputError):
        TrainConfig(lr=0.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("micro_batch", 0),
        ("micro_batch", -8),
        ("batch_size", 0),
        ("eval_samples", 0),
        ("eval_nfes", ()),
        ("queue_capacity", 0),
        ("seed", -1),
        ("eval_nfes", (4, 0)),
        ("eval_nfes", (4, 17)),  # masked, past the default model's 16 positions
    ],
)
def test_config_rejects_empty_sizes_naming_the_field(field, value):
    with pytest.raises(InvalidInputError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("nfes", [(4.5,), (4, 8.0), (True,)], ids=["4.5", "8.0", "bool"])
def test_config_rejects_a_non_integer_nfe(nfes):
    with pytest.raises(InvalidInputError, match=r"^eval_nfes must hold integers, got "):
        TrainConfig(eval_nfes=nfes)
    assert TrainConfig(eval_nfes=(np.int64(4), 8)).eval_nfes == (4, 8)


def test_config_takes_a_uniform_nfe_past_the_length():
    # uniform sampling resamples every position at each step, so it has no upper bound
    assert TrainConfig(eval_nfes=(17,), corruption=CorruptionKind.UNIFORM).eval_nfes == (17,)


@pytest.mark.parametrize("objective", [None, ObjectiveKind()], ids=["base", "drift"])
def test_ten_steps_bit_identical(source, objective):
    cfg = tiny_config(objective=objective)
    finals = []
    for _ in range(2):
        state, _ = run_steps(cfg, source, 10)
        finals.append(params_to_vector(state.params))
    assert np.array_equal(finals[0], finals[1])


def test_micro_batch_split_matches_full_batch(source):
    # base-only gradients are a plain mean, so accumulation granularity is inert
    whole = tiny_config(batch_size=8, micro_batch=8)
    split = tiny_config(batch_size=8, micro_batch=2)
    state_whole, _ = run_steps(whole, source, 5)
    state_split, _ = run_steps(split, source, 5)
    assert np.array_equal(params_to_vector(state_whole.params), params_to_vector(state_split.params))


def count_forwards(monkeypatch) -> list[int]:
    """Record the row count of every denoiser call ``train_step`` makes."""
    calls = []
    forward = trainer.forward_tokens

    def counting(params, tokens):
        calls.append(len(tokens))
        return forward(params, tokens)

    monkeypatch.setattr(trainer, "forward_tokens", counting)
    return calls


def test_base_step_chunks_equal_whole_batch_mean(source, monkeypatch):
    # B = 40 runs as chunks of 16, 16 and a ragged 8
    cfg = tiny_config(batch_size=40, micro_batch=40)
    assert trainer.DENOISER_CHUNK == 16
    state = init_state(cfg)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    params = copy.deepcopy(state.params)
    rng = copy.deepcopy(state.rng)

    seen = []
    adam_update = trainer._adam_update

    def recording(state, grads, config):
        seen.append({name: g.copy() for name, g in grads.items()})
        adam_update(state, grads, config)

    monkeypatch.setattr(trainer, "_adam_update", recording)
    metrics = train_step(state, batch, cfg)

    # one unchunked forward / base_loss / backward over all 40 rows
    levels = rng.uniform(*trainer.NOISE_LEVELS, size=cfg.batch_size)
    corrupted, predicted = corrupt(batch, levels, cfg.corruption, rng, cfg.model.vocab_size)
    logits, cache = forward_tokens(params, corrupted)
    losses, grad_logits = base_loss(logits, batch, predicted)
    expected = backward_tokens(params, cache, grad_logits / cfg.batch_size)
    assert abs(metrics["loss"] - losses.sum() / cfg.batch_size) <= 1e-12
    assert seen[0].keys() == expected.keys()
    for name, g in expected.items():
        assert np.max(np.abs(seen[0][name] - g)) <= 1e-12, name


@pytest.mark.parametrize("micro_batch", [40, 2])
def test_base_step_forwards_are_chunked(source, monkeypatch, micro_batch):
    cfg = tiny_config(batch_size=40, micro_batch=micro_batch)
    calls = count_forwards(monkeypatch)
    run_steps(cfg, source, 1)
    chunk = trainer.DENOISER_CHUNK
    assert len(calls) == -(-cfg.batch_size // chunk)
    assert all(rows <= chunk for rows in calls) and sum(calls) == cfg.batch_size


def per_micro_batch_step(state, batch, cfg):
    """Loss and gradients of one drift step, one micro-batch at a time.

    The loop drift steps ran before they were grouped into 16-sequence
    slices: forward, lift, references, drift, objective and backward per
    micro-batch, and the micro-batch means averaged.  Draws from a copy of
    the state's generator and pushes nothing, so ``state`` is left as it was.
    """
    rng = copy.deepcopy(state.rng)
    n, mb = cfg.batch_size, cfg.micro_batch
    levels = rng.uniform(*trainer.NOISE_LEVELS, size=n)
    corrupted, predicted = corrupt(batch, levels, cfg.corruption, rng, cfg.model.vocab_size)
    grads = {name: np.zeros_like(arr) for name, arr in param_items(state.params)}
    loss = 0.0
    for lo in range(0, n, mb):
        rows = slice(lo, lo + mb)
        logits, cache = forward_tokens(state.params, corrupted[rows])
        lifted = lift_and_encode(
            state.encoder, logits, corrupted[rows], predicted[rows], cfg.objective.lift
        )
        reals = real_features_batch(state.encoder, batch[rows])
        pos, neg = build_references(reals, lifted.features, state.q_real, state.q_gen)
        drifts = drift_multi_temp(lifted.features, pos, neg, cfg.drift, exclude_self=True)
        losses, grad = total_objective(cfg.objective, lifted, drifts, batch[rows])
        loss += losses.sum() / mb / (n // mb)
        for name, g in backward_tokens(state.params, cache, grad / mb).items():
            grads[name] += g
    return loss, {name: g / (n // mb) for name, g in grads.items()}


@pytest.mark.parametrize(
    "variant", [ObjectiveVariant.FEATURE_L2, ObjectiveVariant.MIRROR_KL], ids=lambda v: v.value
)
@pytest.mark.parametrize(
    "micro_batch, batch_size, forwards",
    # slices of 16 (4 micro-batches) and 12 (2 micro-batches), each with a
    # ragged last slice
    [(4, 24, [16, 8]), (6, 30, [12, 12, 6])],
    ids=["mb4", "mb6"],
)
def test_drift_step_matches_per_micro_batch_loop(
    source, monkeypatch, variant, micro_batch, batch_size, forwards
):
    cfg = tiny_config(
        objective=ObjectiveKind(variant=variant), batch_size=batch_size, micro_batch=micro_batch
    )
    state, _ = run_steps(cfg, source, 2)  # fill the queues part way
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    want_loss, want = per_micro_batch_step(state, batch, cfg)

    seen = []
    adam_update = trainer._adam_update

    def recording(state, grads, config):
        seen.append({name: g.copy() for name, g in grads.items()})
        adam_update(state, grads, config)

    monkeypatch.setattr(trainer, "_adam_update", recording)
    calls = count_forwards(monkeypatch)
    metrics = train_step(state, batch, cfg)

    # every forward covers whole micro-batches
    assert calls == forwards
    assert all(rows % micro_batch == 0 for rows in calls[:-1])
    assert abs(metrics["loss"] - want_loss) <= 1e-12
    assert seen[0].keys() == want.keys()
    for name, g in want.items():
        assert np.max(np.abs(seen[0][name] - g)) <= 1e-12, name


def slice_mean_step_gradients(state, batch, cfg):
    """Gradients of one drift step, each slice's gradient scaled as ``(g / s) * (s / B)``.

    ``train_step``'s slices of whole micro-batches and its drift fields, but
    each slice's logit gradient is first averaged over its ``s`` rows and
    then weighted by the slice's share of the batch.  Draws from a copy of
    the state's generator and pushes nothing.
    """
    rng = copy.deepcopy(state.rng)
    n, mb = cfg.batch_size, cfg.micro_batch
    size = mb * max(1, trainer.DENOISER_CHUNK // mb)
    levels = rng.uniform(*trainer.NOISE_LEVELS, size=n)
    corrupted, predicted = corrupt(batch, levels, cfg.corruption, rng, cfg.model.vocab_size)
    grads = {name: np.zeros_like(arr) for name, arr in param_items(state.params)}
    for lo in range(0, n, size):
        rows = slice(lo, lo + size)
        s = len(batch[rows])
        logits, cache = forward_tokens(state.params, corrupted[rows])
        lifted = lift_and_encode(
            state.encoder, logits, corrupted[rows], predicted[rows], cfg.objective.lift
        )
        gens, reals = lifted.features, real_features_batch(state.encoder, batch[rows])
        drifts = []
        for j in range(0, s, mb):
            mbs = slice(j, j + mb)
            pos, neg = build_references(reals[mbs], gens[mbs], state.q_real, state.q_gen)
            drifts.append(drift_multi_temp(gens[mbs], pos, neg, cfg.drift, exclude_self=True))
        _, g = total_objective(cfg.objective, lifted, np.concatenate(drifts), batch[rows])
        for name, gp in backward_tokens(state.params, cache, (g / s) * (s / n)).items():
            grads[name] += gp
    return grads


@pytest.mark.parametrize(
    "variant", [ObjectiveVariant.FEATURE_L2, ObjectiveVariant.MIRROR_KL], ids=lambda v: v.value
)
def test_drift_step_divides_by_the_batch_once(source, monkeypatch, variant):
    # at B = 32 and 16-sequence slices, g / 32 and (g / 16) * (16 / 32) are
    # the same power-of-two scaling, so the gradients are bitwise equal
    cfg = tiny_config(objective=ObjectiveKind(variant=variant), batch_size=32, micro_batch=8)
    state, _ = run_steps(cfg, source, 2)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    want = slice_mean_step_gradients(state, batch, cfg)

    seen = []
    adam_update = trainer._adam_update

    def recording(state, grads, config):
        seen.append({name: g.copy() for name, g in grads.items()})
        adam_update(state, grads, config)

    monkeypatch.setattr(trainer, "_adam_update", recording)
    train_step(state, batch, cfg)
    assert seen[0].keys() == want.keys()
    for name, g in want.items():
        assert np.array_equal(seen[0][name], g), name


def test_single_sequence_micro_batch_needs_generated_queue(source):
    cfg = tiny_config(objective=ObjectiveKind(), batch_size=4, micro_batch=1)
    state = init_state(cfg)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    draws = copy.deepcopy(state.rng)
    with pytest.raises(InvalidInputError, match="micro_batch=1.*generated queue"):
        train_step(state, batch, cfg)
    # rejected before the step draws or updates anything
    assert state.step == 0
    assert state.rng.random() == draws.random()
    # without repulsion the empty queue is fine
    no_repulsion = tiny_config(
        objective=ObjectiveKind(), batch_size=4, micro_batch=1, drift=DriftConfig(w_minus=0.0)
    )
    _, metrics = run_steps(no_repulsion, source, 1)
    assert np.isfinite(metrics[0]["loss"])


def test_one_adam_update_per_step(source):
    cfg = tiny_config(objective=ObjectiveKind())
    state, _ = run_steps(cfg, source, 4)
    assert state.step == 4


def test_resume_from_checkpoint_of_continues_bitwise(source):
    # a base phase has no queues, so a run resumed from checkpoint_of with the
    # same generator is the unbroken run; Adam's bias correction reads the
    # restored step, so it would drift off if it kept a counter of its own
    cfg = tiny_config()
    unbroken, _ = run_steps(cfg, source, 4)
    half, _ = run_steps(cfg, source, 2)
    resumed = init_state(cfg, checkpoint_of(half))
    resumed.rng = copy.deepcopy(half.rng)
    resumed, _ = run_steps(cfg, source, 2, state=resumed)
    assert resumed.step == unbroken.step == 4
    for name, arr in param_items(unbroken.params):
        for want, got in [(arr, getattr(resumed.params, name)),
                          (unbroken.adam_m[name], resumed.adam_m[name]),
                          (unbroken.adam_v[name], resumed.adam_v[name])]:
            assert want.tobytes() == got.tobytes(), name


def test_queue_lengths_after_k_steps(source):
    cfg = tiny_config(objective=ObjectiveKind(), queue_capacity=10)
    state, _ = run_steps(cfg, source, 1)
    assert len(state.q_real) == min(10, 4) and len(state.q_gen) == min(10, 4)
    state, _ = run_steps(cfg, source, 4)
    assert len(state.q_real) == 10 and len(state.q_gen) == 10


def test_base_phase_leaves_queues_empty(source):
    state, _ = run_steps(tiny_config(objective=None), source, 3)
    assert len(state.q_real) == 0 and len(state.q_gen) == 0


def test_pushed_features_are_pre_update(source):
    cfg = tiny_config(objective=ObjectiveKind(), batch_size=2, micro_batch=2)
    state = init_state(cfg)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    train_step(state, batch, cfg)
    # real features in the queue correspond to the frozen encoder (init params),
    # not the updated generator
    expected = real_features_batch(state.encoder, batch)
    assert np.array_equal(state.q_real, expected)


def test_drift_metrics_reported(source):
    cfg = tiny_config(objective=ObjectiveKind())
    _, metrics = run_steps(cfg, source, 2)
    assert metrics[0]["drift_norm"] > 0.0
    assert metrics[0]["grad_norm"] >= 0.0
    _, metrics = run_steps(tiny_config(objective=None), source, 1)
    assert metrics[0]["drift_norm"] == 0.0


def test_nonfinite_loss_aborts_with_dump(source, monkeypatch):
    # a non-finite row loss from the objective, however it arises, aborts the
    # step before its update
    def diverging(*args):
        losses, grad = total_objective(*args)
        losses[0] = np.inf
        return losses, grad

    monkeypatch.setattr(trainer, "total_objective", diverging)
    cfg = tiny_config(objective=ObjectiveKind())
    state = init_state(cfg)
    before = params_to_vector(state.params)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    with pytest.raises(TrainingDivergedError) as excinfo:
        train_step(state, batch, cfg)
    dump = excinfo.value.dump
    assert dump["step"] == 1 and "corrupted" in dump and "levels" in dump
    assert state.step == 0 and len(state.q_real) == 0 and len(state.q_gen) == 0
    assert np.array_equal(params_to_vector(state.params), before)


@pytest.mark.parametrize("loss_name", ["base_loss", "total_objective"], ids=["base", "drift"])
def test_divergence_in_the_second_slice_dumps_its_rows(source, monkeypatch, loss_name):
    # B = 32 runs as two 16-sequence slices in a base step and in a drift step
    # at micro_batch 8; the second slice's loss is inf
    cfg = tiny_config(batch_size=32, micro_batch=8,
                      objective=ObjectiveKind() if loss_name == "total_objective" else None)
    loss_fn, calls = getattr(trainer, loss_name), []

    def diverging(*args):
        losses, grad = loss_fn(*args)
        calls.append(len(losses))
        if len(calls) == 2:
            losses[-1] = np.inf
        return losses, grad

    monkeypatch.setattr(trainer, loss_name, diverging)
    state = init_state(cfg)
    batch = sample_sequences(source, cfg.batch_size, cfg.model.length, state.rng)
    before = copy.deepcopy(state)
    draws = copy.deepcopy(state.rng)  # the step's levels, then its corruption
    levels = draws.uniform(*trainer.NOISE_LEVELS, size=cfg.batch_size)
    corrupted, _ = corrupt(batch, levels, cfg.corruption, draws, cfg.model.vocab_size)
    message = r"^non-finite loss at step 1, rows 16:32$"
    with pytest.raises(TrainingDivergedError, match=message) as excinfo:
        train_step(state, batch, cfg)
    assert calls == [16, 16]
    dump = excinfo.value.dump
    assert dump["step"] == 1 and dump["rows"] == [16, 32] and dump["loss"] == np.inf
    assert dump["corrupted"] == corrupted[16:].tolist()
    assert dump["levels"] == levels[16:].tolist()
    assert state.step == before.step == 0 and len(state.q_real) == len(state.q_gen) == 0
    for name, arr in param_items(before.params):
        assert np.array_equal(getattr(state.params, name), arr), name
        assert np.array_equal(state.adam_m[name], before.adam_m[name]), name


# ---------------------------------------------------------------------------
# the equilibrium step: matched references inject no update


def test_equilibrium_step_leaves_parameters_bit_identical(source):
    cfg = tiny_config(
        batch_size=1,
        micro_batch=1,
        objective=ObjectiveKind(),
        drift=DriftConfig(w_plus=1.0, w_minus=1.0),
    )
    state = init_state(cfg)
    rng = np.random.default_rng(9)

    # one clean sequence; its real feature under the frozen encoder
    clean = sample_sequences(source, 1, cfg.model.length, rng)
    u = real_features_batch(state.encoder, clean)

    extras = []
    for _ in range(3):
        v = rng.normal(size=feature_dim(state.encoder))
        extras.append(v / np.linalg.norm(v))
    extras = np.stack(extras)
    # positives will be [u, e0, e1, e2]; negatives (after self-exclusion)
    # must match element for element, in the same order
    state.q_real = queue_push(state.q_real, extras.copy(), cfg.queue_capacity)
    state.q_gen = queue_push(state.q_gen, np.concatenate([u, extras]), cfg.queue_capacity)

    before = params_to_vector(state.params)
    metrics = train_step(state, clean, cfg)
    assert metrics["drift_norm"] == 0.0
    assert metrics["grad_norm"] == 0.0
    assert np.array_equal(params_to_vector(state.params), before)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_identical(source, tmp_path):
    cfg = tiny_config(objective=ObjectiveKind())
    state, _ = run_steps(cfg, source, 3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    loaded = load_checkpoint(path)
    for (name, arr), (name2, arr2) in zip(param_items(state.params), param_items(loaded.params)):
        assert name == name2 and np.array_equal(arr, arr2)
    for name in state.adam_m:
        assert np.array_equal(state.adam_m[name], loaded.adam_m[name])
        assert np.array_equal(state.adam_v[name], loaded.adam_v[name])
    assert loaded.step == state.step


def test_checkpoint_file_bytes_equal_the_streaming_writer(source, tmp_path):
    cfg = tiny_config(objective=ObjectiveKind())
    state, _ = run_steps(cfg, source, 3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    # reference: the streaming writer, json.dump of the same document
    doc = {"format": trainer.CHECKPOINT_FORMAT, "version": trainer.CHECKPOINT_VERSION}
    doc.update(jsonable(checkpoint_of(state)))
    reference = tmp_path / "reference.json"
    with open(reference, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
    assert path.read_bytes() == reference.read_bytes()


def test_checkpoint_truncated_file_rejected(tmp_path, source):
    cfg = tiny_config()
    state = init_state(cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    path.write_text(path.read_text()[: path.stat().st_size // 2], encoding="utf-8")
    with pytest.raises(CheckpointError, match="parse error"):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_rejected(tmp_path, source):
    cfg = tiny_config()
    state = init_state(cfg)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    doc = json.loads(path.read_text())
    doc["version"] = 99
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_checkpoint_wrong_format_rejected(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({"format": "other"}), encoding="utf-8")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_save_checkpoint_holds_one_tensor_at_a_time(tmp_path):
    # a default-size checkpoint after one step is about 1 MB of JSON; the
    # whole document's floats and text at once traced about 3 MB, and one
    # tensor's (w1, the largest) about 1.2 MB
    cfg = TrainConfig()
    state = init_state(cfg)
    run_steps(cfg, banded_source(), 1, state)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)  # warm the encoder and the file machinery
    tracemalloc.start()
    try:
        save_checkpoint(state, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6e6, f"save_checkpoint traced a {peak / 1e6:.2f} MB peak"


def test_load_checkpoint_holds_one_object_at_a_time(tmp_path):
    # the file's text sets the peak, about 2.05 MB for 1 MB of JSON; the
    # whole document's Python floats at once (json.load with no object hook,
    # then decode) traced about 2.5 MB
    cfg = TrainConfig()
    state = init_state(cfg)
    run_steps(cfg, banded_source(), 1, state)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    load_checkpoint(path)  # warm the decoder and the file machinery
    tracemalloc.start()
    try:
        load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.3e6, f"load_checkpoint traced a {peak / 1e6:.2f} MB peak"


def _reversed_keys(doc):
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in reversed(list(doc))}
    return doc


def test_checkpoint_in_another_json_layout_loads_bit_equal(source, tmp_path):
    cfg = tiny_config(objective=ObjectiveKind())
    state, _ = run_steps(cfg, source, 3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(state, path)
    doc = _reversed_keys(json.loads(path.read_text()))
    assert list(doc)[0] == "version"
    relaid = tmp_path / "relaid.json"
    relaid.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    loaded = load_checkpoint(relaid)
    for name, arr in param_items(state.params):
        for want, got in [(arr, getattr(loaded.params, name)),
                          (state.adam_m[name], loaded.adam_m[name]),
                          (state.adam_v[name], loaded.adam_v[name])]:
            assert want.shape == got.shape and want.tobytes() == got.tobytes()
    assert loaded.step == state.step


@pytest.mark.parametrize(
    "header,message",
    [({"format": "other"}, "is not a driftlm-checkpoint file"), ({"version": 99}, "version 99")],
)
def test_bad_header_wins_over_a_malformed_section(tmp_path, header, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_state(tiny_config()), path)
    doc = json.loads(path.read_text())
    doc["params"]["w2"] = "not a tensor"
    # the malformed section comes before the header in the file
    doc = {"params": doc.pop("params"), **doc, **header}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("section", ["adam_m", "adam_v", "params"])
def test_checkpoint_cut_inside_a_section_rejected(tmp_path, section):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_state(tiny_config()), path)
    text = path.read_text()
    path.write_text(text[: text.index(f'"{section}": ') + 40], encoding="utf-8")
    with pytest.raises(CheckpointError, match="parse error"):
        load_checkpoint(path)


def test_base_checkpoint_loads_into_drift_phase(source, tmp_path):
    base_cfg = tiny_config(objective=None)
    state, _ = run_steps(base_cfg, source, 2)
    path = tmp_path / "base.json"
    save_checkpoint(state, path)
    drift_cfg = tiny_config(objective=ObjectiveKind(), steps=1)
    drift_state = init_state(drift_cfg, load_checkpoint(path), reset_optimizer=True)
    assert np.array_equal(params_to_vector(drift_state.params), params_to_vector(state.params))
    # and the frozen encoder is that checkpoint
    assert np.array_equal(drift_state.encoder.embed, state.params.embed)


# ---------------------------------------------------------------------------
# full runs


def test_zero_step_run_preserves_checkpoint(source, tmp_path):
    cfg = tiny_config(objective=ObjectiveKind())
    state, _ = run_steps(cfg, source, 2)
    ckpt = checkpoint_of(state)
    out = tmp_path / "run"
    final_state, rows = train_run(
        tiny_config(objective=ObjectiveKind(), steps=0), source, checkpoint=ckpt, out_dir=out
    )
    assert len(rows) == 1
    reloaded = load_checkpoint(out / "checkpoint.json")
    assert np.array_equal(params_to_vector(reloaded.params), params_to_vector(ckpt.params))
    # a run starts with fresh moments; init_state alone keeps the checkpoint's
    assert reloaded.step == 0
    resumed = init_state(cfg, ckpt)
    for name in ckpt.adam_m:
        assert np.array_equal(resumed.adam_m[name], ckpt.adam_m[name])
        assert np.array_equal(resumed.adam_v[name], ckpt.adam_v[name])
    assert resumed.step == ckpt.step != 0


def test_metrics_rows_count_and_header(source, tmp_path):
    cfg = tiny_config(steps=6, eval_every=2)
    out = tmp_path / "run"
    _, rows = train_run(cfg, source, out_dir=out)
    assert len(rows) == 6 // 2 + 1
    lines = (out / "metrics.csv").read_text().strip().split("\n")
    assert lines[0] == (
        "step,loss,drift_norm,grad_norm,gen_ppl_nfe2,gen_ppl_nfe3,entropy_nfe2,entropy_nfe3"
    )
    assert len(lines) == 1 + len(rows)
    # step-0 row has empty loss columns
    assert lines[1].split(",")[1] == ""


def test_default_header_matches_contract():
    assert metrics_header(TrainConfig()) == [
        "step",
        "loss",
        "drift_norm",
        "grad_norm",
        "gen_ppl_nfe4",
        "gen_ppl_nfe8",
        "gen_ppl_nfe16",
        "entropy_nfe4",
        "entropy_nfe8",
        "entropy_nfe16",
    ]


def test_final_step_is_evaluated_when_not_a_multiple(source):
    cfg = tiny_config(objective=ObjectiveKind(), steps=5, eval_every=2)
    state, rows = train_run(cfg, source)
    assert [row["step"] for row in rows] == [0, 2, 4, 5]
    _, metrics = run_steps(cfg, source, 5)
    assert rows[-1]["loss"] == metrics[-1]["loss"]
    assert rows[-1]["drift_norm"] == metrics[-1]["drift_norm"]
    report = evaluate(
        state.params, source, cfg.corruption, cfg.eval_nfes, cfg.eval_samples, cfg.seed
    )
    assert {k: rows[-1][k] for k in report.columns()} == report.columns()


def test_frozen_encoder_bytes_stable_across_run(source):
    cfg = tiny_config(objective=ObjectiveKind(), steps=4)
    state, rows = train_run(cfg, source)
    # the run asserts this internally; double-check via a fresh fingerprint
    fresh = init_state(cfg)
    assert encoder_param_bytes(state.encoder) == encoder_param_bytes(fresh.encoder)


def test_two_runs_same_config_identical_rows(source):
    cfg = tiny_config(objective=ObjectiveKind(), steps=4, eval_every=2)
    _, rows_a = train_run(cfg, source)
    _, rows_b = train_run(cfg, source)
    assert rows_a == rows_b
