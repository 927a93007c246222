"""Training state, one training step, Adam and checkpoints.

Full runs with periodic evaluation (``train_run`` and ``metrics.csv``) live
in ``evalcli``, next to ``evaluate``; this module imports nothing from it.

One step corrupts the whole batch, runs it through the denoiser in row
slices of about ``DENOISER_CHUNK`` sequences against a queue snapshot taken
at step start, sums the slices' share of the batch-mean gradient (each
slice's loss-sum gradient over B), applies a single Adam update, and only
then pushes the detached pre-update features into the reference queues.
``objective=None`` trains on the base denoising loss alone (the
base/continuation phases); an ``ObjectiveKind`` selects a drifting
objective, whose slices hold whole micro-batches and whose drift field is
computed once per ``micro_batch`` sequences.

A checkpoint file is ``codec.jsonable`` of a ``Checkpoint`` under a
``format``/``version`` header, written one tensor at a time and read back
through ``json.load`` with ``codec.arrays_hook`` and ``codec.decode``, so a
field added to ``Checkpoint`` is saved and restored with no other change.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .backbone import (
    DENOISER_CHUNK,
    CorruptionKind,
    DenoiserParams,
    ModelConfig,
    base_loss,
    corrupt,
    forward_tokens,
    backward_tokens,
    init_params,
    param_items,
)
from .codec import arrays_hook, decode, jsonable
from .drift import DriftConfig, build_references, drift_multi_temp, queue_push
from .encoder import feature_dim, lift_and_encode, make_frozen_encoder, real_features_batch
from .numcore import Array, InvalidInputError, token_rows
from .objectives import ObjectiveKind, total_objective

CHECKPOINT_FORMAT = "driftlm-checkpoint"
CHECKPOINT_VERSION = 4

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
NOISE_LEVELS = (0.05, 0.95)  # a step's corruption levels are uniform on this interval

# the metrics ``train_step`` returns, in their ``metrics.csv`` column order
STEP_METRICS = ("loss", "drift_norm", "grad_norm")


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or from an incompatible version."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries a dump of the offending rows."""

    def __init__(self, message: str, dump: dict):
        super().__init__(message)
        self.dump = dump


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 32
    micro_batch: int = 8  # sequences per drift field (each other's negatives); unused by base steps
    steps: int = 2000
    lr: float = 3e-4
    seed: int = 0
    objective: ObjectiveKind | None = None  # None = base denoising loss only
    drift: DriftConfig = field(default_factory=DriftConfig)
    corruption: CorruptionKind = CorruptionKind.MASKED
    eval_every: int = 500
    queue_capacity: int = 256
    model: ModelConfig = field(default_factory=ModelConfig)
    eval_nfes: tuple[int, ...] = (4, 8, 16)
    eval_samples: int = 256

    def __post_init__(self):
        for name in ("batch_size", "micro_batch", "queue_capacity", "eval_samples"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.eval_nfes:
            raise InvalidInputError("eval_nfes must name at least one NFE budget")
        if len(set(self.eval_nfes)) != len(self.eval_nfes):
            raise InvalidInputError("eval_nfes must be distinct")
        for nfe in self.eval_nfes:
            if not isinstance(nfe, (int, np.integer)) or isinstance(nfe, bool):
                raise InvalidInputError(f"eval_nfes must hold integers, got {nfe!r}")
            if nfe < 1:
                raise InvalidInputError(f"eval_nfes must be >= 1, got {nfe}")
            if self.corruption == CorruptionKind.MASKED and nfe > self.model.length:
                raise InvalidInputError(
                    f"eval_nfes must be <= {self.model.length}, the model's sequence length, "
                    f"for masked sampling, got {nfe}"
                )
        if self.objective is not None and self.batch_size % self.micro_batch != 0:
            raise InvalidInputError("micro_batch must divide batch_size")
        if not 0.0 < self.lr < np.inf:  # NaN fails too
            raise InvalidInputError("lr must be positive and finite")
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0, got {self.seed}")
        if self.steps < 0 or self.eval_every < 1:
            raise InvalidInputError("steps must be >= 0 and eval_every >= 1")


@dataclass
class Checkpoint:
    """What a checkpoint file holds: its JSON is ``codec.jsonable`` of this."""

    params: DenoiserParams
    adam_m: dict[str, Array]
    adam_v: dict[str, Array]
    step: int  # optimizer updates so far; Adam's bias correction reads it

    def __post_init__(self):
        shapes = {name: arr.shape for name, arr in param_items(self.params)}
        for name in ("adam_m", "adam_v"):
            moments = {k: v.shape for k, v in getattr(self, name).items()}
            bad = sorted(k for k in shapes | moments if shapes.get(k) != moments.get(k))
            if bad:
                raise InvalidInputError(f"{name} does not match the parameters at {bad}")


@dataclass
class TrainState(Checkpoint):
    """A checkpoint's fields, the run's queues (read-only ``[<= queue_capacity, m]``
    arrays, oldest row first, replaced by each drift step), generator and frozen
    encoder (a read-only copy of the initial parameters)."""

    q_real: Array
    q_gen: Array
    rng: np.random.Generator
    encoder: DenoiserParams


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
    if checkpoint is not None and not reset_optimizer:
        start = checkpoint_of(checkpoint)
    else:
        if checkpoint is None:
            params = init_params(config.model, rng)
        else:
            params = copy.deepcopy(checkpoint.params)
        zeros = {name: np.zeros_like(arr) for name, arr in param_items(params)}
        start = Checkpoint(params, zeros, copy.deepcopy(zeros), step=0)
    encoder = make_frozen_encoder(start.params)
    return TrainState(
        **vars(start),
        q_real=np.zeros((0, feature_dim(encoder))),
        q_gen=np.zeros((0, feature_dim(encoder))),
        rng=rng,
        encoder=encoder,
    )


def _adam_update(state: TrainState, grads: dict[str, Array], config: TrainConfig) -> None:
    """One Adam update of ``state.params``, counted in ``state.step``."""
    state.step += 1
    b1, b2 = ADAM_BETAS
    c1 = 1.0 - b1**state.step
    c2 = 1.0 - b2**state.step
    for name, arr in param_items(state.params):
        g = grads[name]
        m = state.adam_m[name]
        v = state.adam_v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        arr -= config.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def train_step(state: TrainState, clean_batch: Array, config: TrainConfig) -> dict[str, float]:
    """One optimizer update over ``batch_size`` sequences; returns step metrics.

    The batch is corrupted whole, then run through the denoiser, the lift,
    the encoder, the objective and the backward pass in row slices; both
    losses give per-sequence values and the logit gradient of their sum,
    divided by B once, so the slices sum to the batch mean, a ragged last
    slice included.  A base step slices by ``DENOISER_CHUNK`` whatever
    ``micro_batch`` is.  In a drift step a micro-batch's generated features
    are its anchors' negatives, so the micro-batch is part of the objective:
    a slice holds whole micro-batches (``micro_batch * max(1,
    DENOISER_CHUNK // micro_batch)`` sequences), and ``build_references``
    and ``drift_multi_temp`` run once per micro-batch inside it.
    ``micro_batch=1`` with repulsion on needs a nonempty generated queue:
    an anchor is never its own negative.
    """
    batch = token_rows(clean_batch, config.model.mask_index)
    n = batch.shape[0]
    if n != config.batch_size:
        raise InvalidInputError("clean_batch size must equal config.batch_size")
    vocab = config.model.vocab_size
    objective = config.objective
    group = config.micro_batch
    if objective is None:
        size = DENOISER_CHUNK
    else:
        size = group * max(1, DENOISER_CHUNK // group)
        if group == 1 and config.drift.w_minus > 0.0 and len(state.q_gen) == 0:
            raise InvalidInputError(
                "micro_batch=1 leaves each anchor no negatives while the generated queue is "
                "empty (w_minus > 0): use micro_batch >= 2 or fill the generated queue first"
            )

    grad_sum = {name: np.zeros_like(arr) for name, arr in param_items(state.params)}
    loss_total = 0.0
    drift_norm_sum = 0.0
    pushed_real: list[Array] = []
    pushed_gen: list[Array] = []

    # corrupt the whole batch up front so the draw stream does not depend on
    # the slice size
    levels = state.rng.uniform(*NOISE_LEVELS, size=n)
    corrupted, predicted = corrupt(batch, levels, config.corruption, state.rng, vocab)

    for lo in range(0, n, size):
        hi = min(lo + size, n)
        rows = slice(lo, hi)
        chunk, tokens = batch[rows], corrupted[rows]
        logits, cache = forward_tokens(state.params, tokens)

        if objective is None:
            losses, grad_logits = base_loss(logits, chunk, predicted[rows])
        else:
            lifted = lift_and_encode(state.encoder, logits, tokens, predicted[rows], objective.lift)
            gens = lifted.features
            reals = real_features_batch(state.encoder, chunk)
            # one drift field per micro-batch: its generated features are its
            # anchors' negatives
            parts = []
            for j in range(0, hi - lo, group):
                mb = slice(j, j + group)
                positives, negatives = build_references(
                    reals[mb], gens[mb], state.q_real, state.q_gen
                )
                drift = drift_multi_temp(
                    gens[mb], positives, negatives, config.drift, exclude_self=True
                )
                parts.append(drift)
            drifts = np.concatenate(parts)
            losses, grad_logits = total_objective(objective, lifted, drifts, chunk)
            drift_norm_sum += float(np.linalg.norm(drifts, axis=1).sum())
            pushed_real.append(reals)
            pushed_gen.append(gens)
        grad_logits /= n

        part_loss = float(losses.sum() / n)
        if not np.isfinite(part_loss):
            raise TrainingDivergedError(
                f"non-finite loss at step {state.step + 1}, rows {lo}:{hi}",
                dump={
                    "step": state.step + 1,
                    "rows": [lo, hi],
                    "loss": part_loss,
                    "corrupted": tokens.tolist(),
                    "levels": [float(t) for t in levels[rows]],
                },
            )
        loss_total += part_loss
        for name, g in backward_tokens(state.params, cache, grad_logits).items():
            grad_sum[name] += g

    grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grad_sum.values())))
    _adam_update(state, grad_sum, config)

    # Algorithm order: the queue push is the final line of the step, and the
    # pushed features are the pre-update ones already computed.
    if pushed_real:
        state.q_real = queue_push(state.q_real, np.concatenate(pushed_real), config.queue_capacity)
        state.q_gen = queue_push(state.q_gen, np.concatenate(pushed_gen), config.queue_capacity)

    values = (float(loss_total), drift_norm_sum / n, grad_norm)
    return dict(zip(STEP_METRICS, values, strict=True))


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_fields(state: Checkpoint) -> Checkpoint:
    """A ``Checkpoint`` of the same arrays, without a ``TrainState``'s run-time fields."""
    return Checkpoint(**{f.name: getattr(state, f.name) for f in fields(Checkpoint)})


def _write_sorted(fh, value) -> None:
    """Write ``json.dump(jsonable(value), fh, sort_keys=True)``, one array's
    ``tolist`` and its C-encoded text at a time."""
    if is_dataclass(value):
        value = {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, dict):
        fh.write("{")
        for n, key in enumerate(sorted(value)):
            fh.write(f"{', ' if n else ''}{json.dumps(key)}: ")
            _write_sorted(fh, value[key])
        fh.write("}")
    else:
        fh.write(json.dumps(jsonable(value), sort_keys=True))


def save_checkpoint(state: Checkpoint, path) -> None:
    """The header, then ``jsonable`` of the ``Checkpoint`` fields: the bytes of
    ``json.dump(doc, fh, sort_keys=True)``.

    Holds one tensor's Python floats and its text at a time: each tensor is
    one ``json.dumps`` of its ``tolist()``, through the C encoder, where
    ``json.dump`` would stream through the pure-Python one.
    """
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION}
    with open(path, "w", encoding="utf-8") as fh:
        _write_sorted(fh, {**header, **vars(_checkpoint_fields(state))})


def load_checkpoint(path) -> Checkpoint:
    """Lossless restore of parameters and optimizer moments (queues stay fresh).

    Holds the file's text and one JSON object's Python floats at a time:
    ``codec.arrays_hook`` builds each object's arrays as soon as it is
    parsed.  A file that is not JSON, or whose ``format`` or ``version`` is
    wrong, is a ``CheckpointError`` whatever its sections hold; a bad value
    is an ``InvalidInputError`` naming its path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=arrays_hook)
    except ValueError as exc:  # not JSON, or not text
        raise CheckpointError(f"checkpoint parse error in {path}: {exc}") from exc
    # ``jsonable`` turns a header that ``arrays_hook`` made an array back into its list
    if not isinstance(doc, dict) or jsonable(doc.pop("format", None)) != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    version = jsonable(doc.pop("version", None))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"checkpoint version {version} != supported {CHECKPOINT_VERSION}")
    return decode(Checkpoint, doc)


def checkpoint_of(state: Checkpoint) -> Checkpoint:
    """A deep copy of the ``Checkpoint`` fields of ``state`` (a ``TrainState`` too)."""
    return copy.deepcopy(_checkpoint_fields(state))
