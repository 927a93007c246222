"""Workloads of the driftlm benchmark: set-up, closed timed loops and output checks.

Every workload is a closed loop with one client: the next call starts when
the previous one returns.  Inputs come only from the workload seed.  The
loops call driftlm through stable entry points only (``init_state``,
``train_step``, ``checkpoint_of``, ``save_checkpoint``/``load_checkpoint``,
``evaluate``, ``sample_sequences``, ``banded_source``), looked up on their
modules at call time so the tracer's wrappers are seen.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from driftlm import corpus, evalcli, trainer
from driftlm.backbone import CorruptionKind, param_items
from driftlm.objectives import ObjectiveKind, ObjectiveVariant
from driftlm.trainer import TrainConfig

DRIFTING = ("drift-l2", "drift-mirror")

PRETRAIN_STEPS = 6       # base steps behind the "briefly trained" base checkpoints
WARMUP_STEPS = 2         # untimed steps before timing, at least the queue fill
SETUP_REPS = 3           # set-ups per untraced run; setup_s reports their median
EVAL_NFES = (4, 8, 16)
EVAL_SAMPLES = 2048      # the directional study's evaluation size
SMOKE_PRETRAIN_STEPS = 1
SMOKE_EVAL_SAMPLES = 64
SMOKE_CALLS = 4          # even, so eval covers both checkpoints equally


def base_phase_config(seed: int, corruption: CorruptionKind) -> TrainConfig:
    """Base phase of scripts/run_directional_study.py."""
    return TrainConfig(seed=seed, batch_size=512, micro_batch=128, lr=6e-3, corruption=corruption)


def workload_configs(name: str, seed: int) -> dict[str, TrainConfig]:
    """Every training config a workload uses, by role."""
    if name == "base-train":
        return {"train": base_phase_config(seed, CorruptionKind.MASKED)}
    if name == "drift-l2":
        return {
            "base": base_phase_config(seed, CorruptionKind.MASKED),
            "train": TrainConfig(seed=seed, lr=3e-6, objective=ObjectiveKind()),
        }
    if name == "drift-mirror":
        return {
            "base": base_phase_config(seed, CorruptionKind.UNIFORM),
            "train": TrainConfig(
                seed=seed,
                lr=3e-6,
                corruption=CorruptionKind.UNIFORM,
                objective=ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL),
                queue_capacity=4,
            ),
        }
    if name == "eval":
        return {
            "base-masked": base_phase_config(seed, CorruptionKind.MASKED),
            "base-uniform": base_phase_config(seed, CorruptionKind.UNIFORM),
        }
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# output checks


def check_step(metrics: dict, drifting: bool) -> str | None:
    """Why one train_step result is wrong, or None."""
    for key in ("loss", "drift_norm", "grad_norm"):
        if not math.isfinite(metrics[key]):
            return f"{key} is not finite: {metrics[key]!r}"
    if drifting and not metrics["drift_norm"] > 0.0:
        return f"drift_norm must be > 0 on a drifting workload, got {metrics['drift_norm']!r}"
    return None


def check_report(report, reference: dict, kind: CorruptionKind) -> str | None:
    """Why one evaluate() report is wrong, or None.

    The first report of each checkpoint is its reference: evaluate() is
    seed-deterministic, so every later call, traced or not, must equal it.
    """
    for item in report.per_nfe:
        if not (math.isfinite(item.gen_ppl) and item.gen_ppl >= 1.0):
            return f"gen_ppl at NFE {item.nfe} is {item.gen_ppl!r}, need finite and >= 1"
        if not (math.isfinite(item.entropy) and item.entropy >= 0.0):
            return f"entropy at NFE {item.nfe} is {item.entropy!r}"
    doc = report.to_dict()
    if reference.setdefault(kind, doc) != doc:
        return f"{kind.value} report differs from the first one with the same seed"
    return None


def same_params(a, b) -> bool:
    """Bitwise equality of two parameter sets."""
    items_a, items_b = param_items(a), param_items(b)
    return len(items_a) == len(items_b) and all(
        na == nb and xa.shape == xb.shape and xa.tobytes() == xb.tobytes()
        for (na, xa), (nb, xb) in zip(items_a, items_b)
    )


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Setup:
    seconds: float = 0.0
    save_ms: float = 0.0
    load_ms: float = 0.0
    checkpoint_bytes: int = 0
    state: object = None                              # TrainState (training workloads)
    checkpoints: list = field(default_factory=list)   # [(kind, params)] (eval)


def _batch(source, state, config: TrainConfig):
    return corpus.sample_sequences(source, config.batch_size, config.model.length, state.rng)


def _train_untimed(state, config: TrainConfig, source, steps: int, drifting: bool) -> None:
    for _ in range(steps):
        problem = check_step(trainer.train_step(state, _batch(source, state, config), config), drifting)
        if problem is not None:
            raise RuntimeError(f"set-up step failed its check: {problem}")


def _base_checkpoint(config: TrainConfig, source, steps: int, path: str, setup: Setup):
    """Briefly train a base model, then round-trip it through a checkpoint file."""
    state = trainer.init_state(config)
    _train_untimed(state, config, source, steps, drifting=False)
    t0 = time.perf_counter()
    trainer.save_checkpoint(trainer.checkpoint_of(state), path)
    t1 = time.perf_counter()
    checkpoint = trainer.load_checkpoint(path)
    t2 = time.perf_counter()
    setup.save_ms += (t1 - t0) * 1e3
    setup.load_ms += (t2 - t1) * 1e3
    setup.checkpoint_bytes += os.path.getsize(path)
    os.remove(path)
    return checkpoint


def set_up(name: str, seed: int, scratch_dir: str, smoke: bool) -> Setup:
    """Everything before the first timed call, timed as a whole."""
    t0 = time.perf_counter()
    setup = Setup()
    configs = workload_configs(name, seed)
    source = corpus.banded_source()
    pretrain = SMOKE_PRETRAIN_STEPS if smoke else PRETRAIN_STEPS
    ckpt_path = os.path.join(scratch_dir, f"{name}-{seed}-base.ckpt.json")
    if name == "eval":
        for role in ("base-masked", "base-uniform"):
            config = configs[role]
            checkpoint = _base_checkpoint(config, source, pretrain, ckpt_path, setup)
            setup.checkpoints.append((config.corruption, checkpoint.params))
    else:
        config = configs["train"]
        checkpoint = None
        if "base" in configs:
            checkpoint = _base_checkpoint(configs["base"], source, pretrain, ckpt_path, setup)
        setup.state = trainer.init_state(config, checkpoint, reset_optimizer=True)
        # fill both reference queues before timing starts
        fill = -(-config.queue_capacity // config.batch_size) if config.objective else 0
        _train_untimed(setup.state, config, source, max(fill, WARMUP_STEPS), name in DRIFTING)
    setup.seconds = time.perf_counter() - t0
    return setup


# ---------------------------------------------------------------------------
# timed loops


@dataclass
class Loop:
    call_ms: list[float] = field(default_factory=list)   # the entry-point call alone
    cycle_ms: list[float] = field(default_factory=list)  # input generation + call
    sequences: int = 0          # trained on or generated, over all calls
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(f"call {self.attempted}: {message}")


def _done(loop: Loop, t_begin: float, budget_s: float, max_calls: int | None) -> bool:
    if max_calls is not None:
        return loop.attempted >= max_calls
    return time.perf_counter() - t_begin >= budget_s


def train_loop(setup: Setup, name: str, seed: int, budget_s: float, max_calls: int | None) -> Loop:
    """Timed train_step calls on fresh batches, exactly as train_run makes them."""
    config = workload_configs(name, seed)["train"]
    source = corpus.banded_source()
    state = setup.state
    loop = Loop()
    t_begin = time.perf_counter()
    while True:
        loop.attempted += 1
        try:
            t0 = time.perf_counter()
            batch = _batch(source, state, config)
            t1 = time.perf_counter()
            metrics = trainer.train_step(state, batch, config)
            t2 = time.perf_counter()
            loop.call_ms.append((t2 - t1) * 1e3)
            loop.cycle_ms.append((t2 - t0) * 1e3)
        except Exception as exc:  # a failed call ends the loop; the state may be torn
            loop.fail(f"{type(exc).__name__}: {exc}")
            break
        loop.sequences += config.batch_size
        problem = check_step(metrics, name in DRIFTING)
        if problem is not None:
            loop.fail(problem)
        if _done(loop, t_begin, budget_s, max_calls):
            break
    loop.wall_s = time.perf_counter() - t_begin
    return loop


def eval_loop(
    setup: Setup, seed: int, budget_s: float, max_calls: int | None, reference: dict, n_samples: int
) -> Loop:
    """Timed evaluate() calls, alternating the masked and uniform checkpoints."""
    source = corpus.banded_source()
    loop = Loop()
    t_begin = time.perf_counter()
    while True:
        kind, params = setup.checkpoints[loop.attempted % len(setup.checkpoints)]
        loop.attempted += 1
        try:
            t0 = time.perf_counter()
            report = evalcli.evaluate(
                params, source, kind, nfes=EVAL_NFES, n_samples=n_samples, seed=seed
            )
            loop.call_ms.append((time.perf_counter() - t0) * 1e3)
            loop.cycle_ms.append(loop.call_ms[-1])
        except Exception as exc:  # a failed call ends the loop
            loop.fail(f"{type(exc).__name__}: {exc}")
            break
        loop.sequences += n_samples * len(EVAL_NFES)
        problem = check_report(report, reference, kind)
        if problem is not None:
            loop.fail(problem)
        # stop on a whole masked/uniform pair so both checkpoints weigh the same
        if loop.attempted % len(setup.checkpoints) == 0 and _done(loop, t_begin, budget_s, max_calls):
            break
    loop.wall_s = time.perf_counter() - t_begin
    return loop


def install_sample_check(patches, clean_vocab: int, failures: list[str]) -> bool:
    """Check every sampler output evaluate() scores lies in the clean vocabulary.

    Wraps ``evalcli.sample_batch``, the name evaluate() calls; returns False
    when that name is gone and the samples cannot be observed.
    """
    original = getattr(evalcli, "sample_batch", None)
    if not callable(original):
        return False

    def checked(*args, **kwargs):
        samples = original(*args, **kwargs)
        arr = np.asarray(samples)
        if arr.size == 0 or arr.min() < 0 or arr.max() >= clean_vocab:
            failures.append(f"sampler returned tokens outside [0, {clean_vocab})")
        return samples

    patches.replace(evalcli, "sample_batch", checked)
    return True
