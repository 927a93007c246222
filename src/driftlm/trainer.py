"""Training loop: corruption, lift, drift, objective, Adam update, queues.

One step processes the batch in micro-batches against a queue snapshot taken
at step start, averages gradients across micro-batches, applies a single
Adam update, and only then pushes the detached pre-update features into the
reference queues.  ``objective=None`` trains on the base denoising loss
alone (the base/continuation phases); an ``ObjectiveKind`` selects a
drifting objective.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .backbone import (
    CorruptionKind,
    DenoiserParams,
    ModelConfig,
    base_loss,
    copy_params,
    corrupt,
    forward_tokens,
    backward_tokens,
    init_params,
    param_items,
    params_from_items,
)
from .corpus import MarkovSource, sample_sequences
from .drift import DriftConfig, ReferenceQueue, build_references, drift_multi_temp, queue_push
from .encoder import FrozenEncoder, lift_and_encode, make_frozen_encoder, real_features_batch
from .numcore import Array, InvalidInputError
from .objectives import ObjectiveKind, total_objective

CHECKPOINT_FORMAT = "driftlm-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or from an incompatible version."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries a dump of the offending micro-batch."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    micro_batch: int = 8
    steps: int = 2000
    lr: float = 3e-4
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    objective: ObjectiveKind | None = None  # None = base denoising loss only
    drift: DriftConfig = field(default_factory=DriftConfig)
    corruption: CorruptionKind = CorruptionKind.MASKED
    eval_every: int = 500
    queue_capacity: int = 256
    t_min: float = 0.05
    t_max: float = 0.95
    model: ModelConfig = field(default_factory=ModelConfig)
    eval_nfes: tuple[int, ...] = (4, 8, 16)
    eval_samples: int = 256
    init_std: float = 0.3  # fresh-parameter scale; ignored when starting from a checkpoint

    def __post_init__(self):
        for name in ("batch_size", "micro_batch", "queue_capacity", "eval_samples"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.eval_nfes:
            raise InvalidInputError("eval_nfes must name at least one NFE budget")
        if self.batch_size % self.micro_batch != 0:
            raise InvalidInputError("micro_batch must divide batch_size")
        if self.lr <= 0.0 or self.init_std <= 0.0:
            raise InvalidInputError("lr and init_std must be positive")
        if self.steps < 0 or self.eval_every < 1:
            raise InvalidInputError("steps must be >= 0 and eval_every >= 1")
        if not (0.0 < self.t_min < self.t_max < 1.0):
            raise InvalidInputError("need 0 < t_min < t_max < 1")


@dataclass
class TrainState:
    params: DenoiserParams
    adam_m: dict[str, Array]
    adam_v: dict[str, Array]
    adam_t: int
    step: int
    q_real: ReferenceQueue
    q_gen: ReferenceQueue
    rng: np.random.Generator
    encoder: FrozenEncoder


@dataclass(frozen=True)
class Checkpoint:
    params: DenoiserParams
    adam_m: dict[str, Array]
    adam_v: dict[str, Array]
    adam_t: int
    step: int


def init_state(
    config: TrainConfig,
    checkpoint: Checkpoint | None = None,
    reset_optimizer: bool = False,
) -> TrainState:
    """Fresh state seeded from the config, optionally initialized from a checkpoint.

    The frozen encoder is snapshotted from the initial parameters, so a
    drifting phase started from a base checkpoint uses that checkpoint as its
    semantic encoder for the whole run.
    """
    rng = np.random.default_rng(config.seed)
    if checkpoint is None:
        params = init_params(config.model, rng, init_std=config.init_std)
        adam_m = {name: np.zeros_like(arr) for name, arr in param_items(params)}
        adam_v = {name: np.zeros_like(arr) for name, arr in param_items(params)}
        adam_t, step = 0, 0
    else:
        params = copy_params(checkpoint.params)
        if reset_optimizer:
            adam_m = {name: np.zeros_like(arr) for name, arr in param_items(params)}
            adam_v = {name: np.zeros_like(arr) for name, arr in param_items(params)}
            adam_t, step = 0, 0
        else:
            adam_m = {k: v.copy() for k, v in checkpoint.adam_m.items()}
            adam_v = {k: v.copy() for k, v in checkpoint.adam_v.items()}
            adam_t, step = checkpoint.adam_t, checkpoint.step
    encoder = make_frozen_encoder(params)
    return TrainState(
        params=params,
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=adam_t,
        step=step,
        q_real=ReferenceQueue(config.queue_capacity, encoder.feature_dim),
        q_gen=ReferenceQueue(config.queue_capacity, encoder.feature_dim),
        rng=rng,
        encoder=encoder,
    )


def _adam_update(state: TrainState, grads: dict[str, Array], config: TrainConfig) -> None:
    state.adam_t += 1
    b1, b2 = config.adam_beta1, config.adam_beta2
    c1 = 1.0 - b1**state.adam_t
    c2 = 1.0 - b2**state.adam_t
    for name, arr in param_items(state.params):
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= config.lr * (m / c1) / (np.sqrt(v / c2) + config.adam_eps)


def train_step(state: TrainState, clean_batch: Array, config: TrainConfig) -> dict[str, float]:
    """One optimizer update over ``batch_size`` sequences; returns step metrics."""
    batch = np.asarray(clean_batch, dtype=np.int64)
    if batch.shape[0] != config.batch_size:
        raise InvalidInputError("clean_batch size must equal config.batch_size")
    mb = config.micro_batch
    n_micro = batch.shape[0] // mb
    vocab = config.model.vocab_size
    objective = config.objective

    grad_sum = {name: np.zeros_like(arr) for name, arr in param_items(state.params)}
    loss_total = 0.0
    drift_norm_sum = 0.0
    drift_count = 0
    pushed_real: list[Array] = []
    pushed_gen: list[Array] = []

    # corrupt the whole batch up front so the draw stream does not depend on
    # the micro-batch granularity
    levels = state.rng.uniform(config.t_min, config.t_max, size=batch.shape[0])
    corrupted, predicted = corrupt(batch, levels, config.corruption, state.rng, vocab)

    for k in range(n_micro):
        rows = slice(k * mb, (k + 1) * mb)
        chunk, tokens = batch[rows], corrupted[rows]
        logits, cache = forward_tokens(state.params, tokens)

        if objective is None:
            losses, grad_logits = base_loss(logits, chunk, predicted[rows])
            micro_loss = float(losses.sum() / mb)
            grad_logits /= mb
        else:
            lifted = lift_and_encode(state.encoder, logits, tokens, predicted[rows], objective.lift)
            gens = lifted.features
            reals = real_features_batch(state.encoder, chunk)
            positives, negatives = build_references(reals, gens, state.q_real, state.q_gen)
            drifts = drift_multi_temp(gens, positives, negatives, config.drift)
            total = total_objective(objective, lifted, drifts, chunk)
            micro_loss = total.loss
            grad_logits = total.grad_logits
            drift_norm_sum += float(np.linalg.norm(drifts, axis=1).sum())
            drift_count += mb
            pushed_real.append(reals)
            pushed_gen.append(gens)

        if not np.isfinite(micro_loss):
            raise TrainingDivergedError(
                f"non-finite loss at step {state.step + 1}, micro-batch {k}",
                dump={
                    "step": state.step + 1,
                    "micro_batch": k,
                    "loss": micro_loss,
                    "corrupted": tokens.tolist(),
                    "levels": [float(t) for t in levels[rows]],
                },
            )
        loss_total += micro_loss / n_micro
        for name, g in backward_tokens(state.params, cache, grad_logits).items():
            grad_sum[name] += g

    grads = {name: g / n_micro for name, g in grad_sum.items()}
    grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
    _adam_update(state, grads, config)
    state.step += 1

    # Algorithm order: the queue push is the final line of the step, and the
    # pushed features are the pre-update ones already computed.
    if pushed_real:
        queue_push(state.q_real, np.concatenate(pushed_real))
        queue_push(state.q_gen, np.concatenate(pushed_gen))

    return {
        "loss": float(loss_total),
        "drift_norm": drift_norm_sum / drift_count if drift_count else 0.0,
        "grad_norm": grad_norm,
    }


# ---------------------------------------------------------------------------
# full runs


def metrics_header(config: TrainConfig) -> list[str]:
    cols = ["step", "loss", "drift_norm", "grad_norm"]
    cols += [f"gen_ppl_nfe{n}" for n in config.eval_nfes]
    cols.append(f"entropy_nfe{config.eval_nfes[-1]}")
    return cols


def write_metrics_csv(path, config: TrainConfig, rows: list[dict]) -> None:
    header = metrics_header(config)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_cell(row.get(col)) for col in header))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def train_run(
    config: TrainConfig,
    source: MarkovSource,
    checkpoint: Checkpoint | None = None,
    out_dir=None,
    reset_optimizer: bool = False,
) -> tuple[TrainState, list[dict]]:
    """Run ``config.steps`` updates with periodic evaluation rows.

    Evaluation happens at step 0 and every ``eval_every`` steps; the loss
    columns of an evaluation row are window means since the previous row.
    Writes ``metrics.csv`` and ``checkpoint.json`` into ``out_dir`` if given.
    """
    from .evalcli import evaluate  # deferred: evalcli imports this module

    state = init_state(config, checkpoint, reset_optimizer)
    encoder_fingerprint = _encoder_fingerprint(state)
    rows: list[dict] = []
    window = {"loss": 0.0, "drift_norm": 0.0, "grad_norm": 0.0, "n": 0}

    def eval_row(step: int) -> dict:
        report = evaluate(
            state.params,
            source,
            config.corruption,
            nfes=config.eval_nfes,
            n_samples=config.eval_samples,
            seed=config.seed,
        )
        row: dict = {"step": step}
        if window["n"]:
            for key in ("loss", "drift_norm", "grad_norm"):
                row[key] = window[key] / window["n"]
        for item in report.per_nfe:
            row[f"gen_ppl_nfe{item.nfe}"] = item.gen_ppl
        row[f"entropy_nfe{config.eval_nfes[-1]}"] = report.per_nfe[-1].entropy
        window.update({"loss": 0.0, "drift_norm": 0.0, "grad_norm": 0.0, "n": 0})
        return row

    rows.append(eval_row(0))
    length = config.model.length
    for step in range(1, config.steps + 1):
        batch = sample_sequences(source, config.batch_size, length, state.rng)
        metrics = train_step(state, batch, config)
        for key in ("loss", "drift_norm", "grad_norm"):
            window[key] += metrics[key]
        window["n"] += 1
        if step % config.eval_every == 0:
            rows.append(eval_row(step))

    if _encoder_fingerprint(state) != encoder_fingerprint:
        raise RuntimeError("frozen encoder parameters changed during training")

    if out_dir is not None:
        import os

        os.makedirs(out_dir, exist_ok=True)
        write_metrics_csv(os.path.join(out_dir, "metrics.csv"), config, rows)
        save_checkpoint(state, os.path.join(out_dir, "checkpoint.json"))
    return state, rows


def _encoder_fingerprint(state: TrainState) -> bytes:
    from .encoder import encoder_param_bytes

    return encoder_param_bytes(state.encoder)


# ---------------------------------------------------------------------------
# checkpoints


def _tensor_doc(arr: Array) -> dict:
    return {"shape": list(arr.shape), "values": [float(v) for v in arr.ravel()]}


def _tensor_from_doc(doc: dict) -> Array:
    arr = np.asarray(doc["values"], dtype=np.float64)
    return arr.reshape(doc["shape"])


def save_checkpoint(state: TrainState | Checkpoint, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "step": state.step,
        "params": {name: _tensor_doc(arr) for name, arr in param_items(state.params)},
        "adam": {
            "t": state.adam_t,
            "m": {name: _tensor_doc(arr) for name, arr in state.adam_m.items()},
            "v": {name: _tensor_doc(arr) for name, arr in state.adam_v.items()},
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)


def load_checkpoint(path) -> Checkpoint:
    """Lossless restore of parameters and optimizer moments (queues stay fresh)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"checkpoint parse error in {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {doc.get('version')} != supported {CHECKPOINT_VERSION}"
        )
    try:
        params = params_from_items(
            {name: _tensor_from_doc(t) for name, t in doc["params"].items()}
        )
        adam = doc["adam"]
        return Checkpoint(
            params=params,
            adam_m={name: _tensor_from_doc(t) for name, t in adam["m"].items()},
            adam_v={name: _tensor_from_doc(t) for name, t in adam["v"].items()},
            adam_t=int(adam["t"]),
            step=int(doc["step"]),
        )
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} is missing fields: {exc}") from exc


def checkpoint_of(state: TrainState) -> Checkpoint:
    return Checkpoint(
        params=copy_params(state.params),
        adam_m={k: v.copy() for k, v in state.adam_m.items()},
        adam_v={k: v.copy() for k, v in state.adam_v.items()},
        adam_t=state.adam_t,
        step=state.step,
    )
