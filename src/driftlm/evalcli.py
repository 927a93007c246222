"""Evaluation metrics, full training runs, the comparison harness and the CLI.

Generated samples are scored with the exact Markov-source oracle instead of
an external language model, so only orderings and relative changes are
meaningful, not absolute perplexities.

The fields of ``NfeMetrics`` after ``nfe`` are the one list of evaluation
metrics.  ``metrics.csv`` and the study summary name them
``<metric>_nfe<n>`` (by metric, then NFE), and the ablation CSV
``<metric>_mean``/``<metric>_sd``, so a metric added there reaches every
table.  ``train_run`` evaluates at step 0, every ``eval_every`` steps and
after the last step.  ``compare`` is the one loop behind the ablations and
the directional study: one run per (variant, seed) from a checkpoint, each
evaluating its final model alone, reduced by ``seed_stats`` to the mean and
SD over the seeds.  Its callers resolve every variant's config first.

The config dataclasses (``TrainConfig`` and its ``DriftConfig``,
``ObjectiveKind`` and ``ModelConfig`` sections) are the one list of config
fields and defaults.  The ``codec`` module walks their fields and type
hints, and the train flags and ablation axes are tables of dotted config
paths applied by ``with_overrides``.  Every ``--config``, ``--source`` and
``--init`` file is read through ``_read``, so a missing, malformed or
undecodable one ends the command with a one-line usage error naming the
flag and the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .backbone import CorruptionKind, DenoiserParams, sample_batch
from .codec import decode, dump, jsonable, load
from .corpus import (
    MarkovSource,
    banded_source,
    load_source,
    oracle_gen_ppl,
    sample_sequences,
    save_source,
)
from .encoder import LiftKind, encoder_param_bytes
from .numcore import InvalidInputError, token_rows
from .objectives import ObjectiveKind, ObjectiveVariant
from .trainer import (
    STEP_METRICS,
    Checkpoint,
    CheckpointError,
    TrainConfig,
    TrainState,
    checkpoint_of,
    init_state,
    load_checkpoint,
    save_checkpoint,
    train_step,
)


@dataclass(frozen=True)
class NfeMetrics:
    """The scores of one NFE budget; every field after ``nfe`` is a table column."""

    nfe: int
    gen_ppl: float
    entropy: float


METRICS = tuple(f.name for f in dataclasses.fields(NfeMetrics))[1:]


@dataclass(frozen=True)
class EvalReport:
    per_nfe: tuple[NfeMetrics, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        for item in self.per_nfe:
            if item.gen_ppl < 1.0 or item.entropy < 0.0:
                raise InvalidInputError("EvalReport metrics out of range")

    def to_dict(self) -> dict:
        return jsonable(self)

    def columns(self) -> dict[str, float]:
        """``<metric>_nfe<n>`` -> score, by metric, then NFE."""
        return {f"{m}_nfe{item.nfe}": getattr(item, m) for m in METRICS for item in self.per_nfe}


def entropy_metric(seqs) -> float:
    """Mean per-sequence Shannon entropy (nats) of each sequence's own histogram.

    ``seqs`` is an ``[n, L]`` token array (see ``numcore.token_rows``).
    """
    s = token_rows(seqs)
    n, length = s.shape
    vocab = int(s.max()) + 1
    # one bincount over row-offset tokens gives every row's histogram at once
    counts = np.bincount((s + vocab * np.arange(n)[:, None]).ravel(), minlength=n * vocab)
    p = counts.reshape(n, vocab) / length
    plogp = p * np.log(np.where(p > 0.0, p, 1.0))
    return float(-plogp.sum(axis=1).mean()) + 0.0  # + 0.0: constant rows give +0.0, not -0.0


def evaluate(
    params: DenoiserParams,
    source: MarkovSource,
    kind: CorruptionKind,
    nfes=TrainConfig.eval_nfes,
    n_samples: int = TrainConfig.eval_samples,
    seed: int = TrainConfig.seed,
) -> EvalReport:
    """Sample at each NFE budget and score with the exact oracle; seed-deterministic.

    The settings must pass ``TrainConfig``'s checks for the model of ``params``."""
    nfes = tuple(nfes)
    TrainConfig(model=params.model, corruption=kind, eval_nfes=nfes, eval_samples=n_samples,
                seed=seed)
    if params.vocab_size != source.vocab_size + 1:
        raise InvalidInputError(
            f"the denoiser's vocabulary of {params.vocab_size} tokens must be the source's "
            f"{source.vocab_size} tokens plus the mask symbol"
        )
    per_nfe = []
    for nfe in nfes:
        rng = np.random.default_rng([seed, int(nfe)])
        seqs = sample_batch(params, kind, int(nfe), n_samples, rng)
        per_nfe.append(
            NfeMetrics(
                nfe=int(nfe),
                gen_ppl=oracle_gen_ppl(source, seqs),
                entropy=entropy_metric(seqs),
            )
        )
    return EvalReport(per_nfe=tuple(per_nfe), n_samples=n_samples, seed=seed)


# ---------------------------------------------------------------------------
# full runs


def metrics_header(config: TrainConfig) -> list[str]:
    return ["step", *STEP_METRICS] + [f"{m}_nfe{n}" for m in METRICS for n in config.eval_nfes]


def write_csv(path, header: list[str], rows: list[dict]) -> None:
    """``header`` and one line per row dict; a missing or ``None`` cell is empty."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if row.get(col) is None else str(row[col]) for col in header))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def train_run(
    config: TrainConfig,
    source: MarkovSource,
    checkpoint: Checkpoint | None = None,
    out_dir=None,
    *,
    final_only: bool = False,
) -> tuple[TrainState, list[dict]]:
    """Run ``config.steps`` updates with evaluation rows.

    A run from ``checkpoint`` starts from its parameters with fresh Adam
    moments at step 0.  Evaluation happens at step 0, every ``eval_every``
    steps and after the last step, or with ``final_only`` after the last step
    alone; the loss columns of a row are means over the steps since the
    previous row.  Writes ``metrics.csv`` and ``checkpoint.json`` into
    ``out_dir`` if given.
    """
    state = init_state(config, checkpoint, reset_optimizer=True)
    encoder_fingerprint = encoder_param_bytes(state.encoder)
    rows: list[dict] = []
    window: dict[str, float] = {}  # train_step metrics summed over the n steps since the last row
    n = 0
    for step in range(config.steps + 1):
        if step > 0:
            batch = sample_sequences(source, config.batch_size, config.model.length, state.rng)
            for key, value in train_step(state, batch, config).items():
                window[key] = window.get(key, 0.0) + value
            n += 1
        if step == config.steps or (step % config.eval_every == 0 and not final_only):
            report = evaluate(
                state.params,
                source,
                config.corruption,
                nfes=config.eval_nfes,
                n_samples=config.eval_samples,
                seed=config.seed,
            )
            means = {key: total / n for key, total in window.items()}
            rows.append({"step": step, **means, **report.columns()})
            window, n = {}, 0

    if encoder_param_bytes(state.encoder) != encoder_fingerprint:
        raise RuntimeError("frozen encoder parameters changed during training")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_csv(os.path.join(out_dir, "metrics.csv"), metrics_header(config), rows)
        save_checkpoint(state, os.path.join(out_dir, "checkpoint.json"))
    return state, rows


# ---------------------------------------------------------------------------
# comparisons and the ablation harness


def compare(
    configs: dict[str, TrainConfig],
    source: MarkovSource,
    init: Checkpoint | None,
    seeds,
    out_dirs: dict[str, str] | None = None,
) -> list[dict]:
    """The final row of one ``final_only`` run from ``init`` per (variant, seed),
    tagged ``variant`` and ``seed``.  ``configs`` maps a name to its resolved
    config, whose seed each run replaces; the seeds are checked distinct before
    the first run.  A variant named in ``out_dirs`` writes its seed-``s`` run to
    ``<out_dirs[name]>-s<s>``."""
    seeds = [int(seed) for seed in seeds]
    if len(set(seeds)) < len(seeds):
        raise InvalidInputError(f"repeated seed in {seeds}")
    out_dirs = out_dirs or {}
    finals = []
    for name, cfg in configs.items():
        for seed in seeds:
            out_dir = f"{out_dirs[name]}-s{seed}" if name in out_dirs else None
            _, rows = train_run(replace(cfg, seed=seed), source, init, out_dir, final_only=True)
            finals.append({"variant": name, "seed": seed, **rows[-1]})
    return finals


def seed_stats(finals: list[dict], nfes) -> list[dict]:
    """Per variant (as ``value``) and NFE of ``compare`` rows, each metric's mean
    and SD over the seeds."""
    rows = []
    for name in dict.fromkeys(final["variant"] for final in finals):
        runs = [final for final in finals if final["variant"] == name]
        for nfe in nfes:
            row = {"value": name, "nfe": int(nfe), "n_seeds": len(runs)}
            for m in METRICS:
                scores = np.asarray([run[f"{m}_nfe{nfe}"] for run in runs])
                row[f"{m}_mean"] = float(scores.mean())
                row[f"{m}_sd"] = float(scores.std(ddof=0))
            rows.append(row)
    return rows


def _ratio_overrides(value: str) -> dict:
    """``"w_plus:w_minus"`` -> the two drift weights."""
    weights = value.split(":")
    if len(weights) != 2:
        raise InvalidInputError(f"expected w_plus:w_minus, such as 1:1, got {value!r}")
    return {"drift.w_plus": float(weights[0]), "drift.w_minus": float(weights[1])}


# ablation axis -> the config overrides of one grid value, in the CLI's
# --grid syntax: "hard-st", "feature-l2+base", "64", "1:0", "0.05/0.2"
ABLATION_AXES = {
    "lift": lambda v: {"objective.lift": v},
    "objective": lambda v: {
        "objective.variant": v.removesuffix("+base"),
        "objective.with_base_loss": v.endswith("+base"),
    },
    "queue_size": lambda v: {"queue_capacity": int(v)},
    "att_rep_ratio": _ratio_overrides,
    "temperature_set": lambda v: {"drift.temperatures": [float(t) for t in v.split("/")]},
}
# the paper's ablation tables: an axis's --grid when the command gives none
DEFAULT_GRIDS = {
    "lift": "soft,hard-st",
    "att_rep_ratio": "1:1,1:0,2:1,0:1,1:2",
    "queue_size": "4,64,256",
}
# the directional study: summary method -> its overrides of the phase config;
# the base rows are zero-step runs from the base checkpoint and are not saved
PHASES = {"base": {"steps": 0}, "continuation": {}, "drift": {"objective": ObjectiveKind()}}
RUN_TAGS = {"continuation": "cont", "drift": "drift"}  # method -> run directory tag
DEFAULT_SEEDS = "0,1,2"  # ablate's and study's --seeds


ABLATION_HEADER = [
    "axis", "value", "nfe", *(f"{m}_{stat}" for m in METRICS for stat in ("mean", "sd")), "n_seeds"
]


def ablation_line(row: dict) -> str:
    """``<value> nfe=<n>: <metric> <mean> +/- <sd>, ...`` for one ``seed_stats`` row."""
    scores = ", ".join(f"{m} {row[f'{m}_mean']:.4g} +/- {row[f'{m}_sd']:.3g}" for m in METRICS)
    return f"{row['value']} nfe={row['nfe']}: {scores}"


# ---------------------------------------------------------------------------
# configs


train_config_to_dict = jsonable


def with_overrides(config, overrides: dict):
    """``config`` with the field at each dotted path (``"drift.w_plus"``) set, in order.

    Values are typed or JSON data (``"hard-st"`` for a ``LiftKind``); a path
    through a ``None`` section starts that section from its defaults.
    """
    doc = jsonable(config)
    for path, value in overrides.items():
        *sections, name = path.split(".")
        node = doc
        for section in sections:
            if node.get(section) is None:
                node[section] = {}
            node = node[section]
        node[name] = jsonable(value)
    return decode(type(config), doc)


def _write_manifest(args, payload: dict) -> None:
    os.makedirs(args.out, exist_ok=True)
    dump({"command": args.command, **payload}, os.path.join(args.out, "manifest.json"))


def _flag_values(args) -> dict:
    return {k: v for k, v in vars(args).items() if k not in ("command", "out")}


# ---------------------------------------------------------------------------
# CLI


def _parse_list(item_type, text: str) -> tuple:
    """The comma list ``text`` as ``item_type`` values; argparse reports a bad
    item with the cause, which names it."""
    try:
        return tuple(item_type(v) for v in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(int, text)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(float, text)


# train flag -> (the config path it sets, argparse keywords); a flag left
# unset keeps the value of --config or of the defaults
TRAIN_FLAGS = {
    "--seed": ("seed", dict(type=int)),
    "--steps": ("steps", dict(type=int)),
    "--lr": ("lr", dict(type=float)),
    "--batch-size": ("batch_size", dict(type=int)),
    "--micro-batch": ("micro_batch", dict(type=int)),
    "--eval-every": ("eval_every", dict(type=int)),
    "--samples": ("eval_samples", dict(type=int, help="samples per evaluation")),
    "--nfe": ("eval_nfes", dict(type=parse_int_list, help="comma list, e.g. 4,8,16")),
    "--queue-capacity": ("queue_capacity", dict(type=int)),
    "--corruption": ("corruption", dict(choices=[k.value for k in CorruptionKind])),
}
# the flags only drift-train and ablate take
DRIFT_FLAGS = {
    "--objective": ("objective.variant", dict(choices=[v.value for v in ObjectiveVariant])),
    "--with-base-loss": ("objective.with_base_loss", dict(action="store_true")),
    "--lift": ("objective.lift", dict(choices=[k.value for k in LiftKind])),
    "--eta": ("objective.eta", dict(type=float)),
    "--w-plus": ("drift.w_plus", dict(type=float)),
    "--w-minus": ("drift.w_minus", dict(type=float)),
    "--temperatures": ("drift.temperatures", dict(type=_parse_float_list)),
}


def _add_train_flags(p: argparse.ArgumentParser, drift_phase: bool, seed_flag: bool = True) -> None:
    p.add_argument("--source", required=True, help="Markov source file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON training config to start from")
    for flag, (_, kwargs) in TRAIN_FLAGS.items():
        if seed_flag or flag != "--seed":
            p.add_argument(flag, default=None, **kwargs)
    p.add_argument("--init", required=drift_phase, default=None, help="initial checkpoint")
    for flag, (_, kwargs) in (DRIFT_FLAGS if drift_phase else {}).items():
        p.add_argument(flag, default=None, **kwargs)


class UsageError(InvalidInputError):
    """A command's input file or flag is unusable; the CLI reports it as a usage error."""


def _read(flag: str, path, load_file):
    """``load_file(path)``, a missing, unreadable or undecodable file being a usage error."""
    try:
        return load_file(path)
    except OSError as exc:
        raise UsageError(f"{flag} {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{flag} {path} is not valid JSON: {exc}") from exc
    except (ValueError, CheckpointError) as exc:  # undecodable text, or a bad value
        raise UsageError(f"{flag} {path}: {exc}") from exc


def _read_init(path, config: TrainConfig) -> Checkpoint:
    """The ``--init`` checkpoint, whose model must have the shape of ``config.model``."""
    checkpoint = _read("--init", path, load_checkpoint)
    have, want = checkpoint.params.model, config.model
    if have != want:
        have, want = (", ".join(f"{k}={v}" for k, v in vars(m).items()) for m in (have, want))
        raise UsageError(f"--init {path} holds a model of {have}, but the config's model is {want}")
    return checkpoint


def _check_vocabulary(path, source: MarkovSource, vocab_size: int, model: str) -> None:
    """A usage error unless ``vocab_size`` is the ``--source`` vocabulary plus the mask symbol."""
    if vocab_size != source.vocab_size + 1:
        raise UsageError(
            f"--source {path} has {source.vocab_size} tokens, but {model} has a "
            f"vocabulary of {vocab_size}; it must be {source.vocab_size + 1}, the source's "
            "tokens plus the mask symbol"
        )


def parse_seeds(text: str) -> tuple[int, ...]:
    """The ``--seeds`` value ``text`` as distinct ``TrainConfig`` seeds, or a usage error."""
    try:
        seeds = parse_int_list(text)
        if len(set(seeds)) < len(seeds):
            raise InvalidInputError("repeated seed")
        for seed in seeds:
            TrainConfig(seed=seed)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"--seeds {text}: {exc}") from exc
    return seeds


def flag_config(fixed: dict, flags: dict) -> TrainConfig:
    """``TrainConfig(**fixed)`` with each ``(flag, value)``'s fields set in turn,
    so that a failed check is a usage error naming its flag."""
    config = TrainConfig(**fixed)
    for (flag, value), fields in flags.items():
        try:
            config = replace(config, **fields)
        except ValueError as exc:
            raise UsageError(f"{flag} {value}: {exc}") from exc
    return config


def _sampling_config(args, model, nfes: tuple) -> TrainConfig:
    """``sample``'s or ``eval``'s settings on a checkpoint's ``model``; the
    placeholder NFE of 1 fits any model, so only the flags' values can fail."""
    flags = {("--samples", args.samples): dict(eval_samples=args.samples),
             ("--seed", args.seed): dict(seed=args.seed),
             ("--nfe", ",".join(map(str, nfes))): dict(eval_nfes=nfes)}
    fixed = dict(model=model, corruption=CorruptionKind(args.corruption), eval_nfes=(1,))
    return flag_config(fixed, flags)


def _check_negatives(config: TrainConfig, prefix: str = "") -> None:
    """A usage error, starting with ``prefix``, for a drift config whose first
    step ``train_step`` refuses: a run starts with an empty generated queue."""
    if config.objective is not None and config.micro_batch == 1 and config.drift.w_minus > 0.0:
        raise UsageError(
            f"{prefix}micro_batch 1 leaves each anchor no negatives while w_minus > 0 and "
            "a run's generated queue starts empty; use micro_batch >= 2 or w_minus 0"
        )


def _resolve_train_config(args, drift_phase: bool) -> TrainConfig:
    if args.config is not None:
        config = _read("--config", args.config, partial(load, TrainConfig))
    else:
        # a drift phase, or training on from a checkpoint, defaults to a smaller lr
        config = TrainConfig(lr=3e-5) if (drift_phase or args.init) else TrainConfig()
    # base training has no drifting objective; a drift phase keeps the
    # config's objective or starts from the default one
    overrides = {"objective": (config.objective or ObjectiveKind()) if drift_phase else None}
    for flag, (path, _) in {**TRAIN_FLAGS, **(DRIFT_FLAGS if drift_phase else {})}.items():
        value = vars(args).get(flag[2:].replace("-", "_"))  # ablate has no --seed
        if value is not None:
            overrides[path] = value
    try:
        return with_overrides(config, overrides)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_make_source(args) -> int:
    flag, value = (("--vocab-size", args.vocab_size) if args.vocab_size <= len(args.band)
                   else ("--band", ",".join(map(str, args.band))))  # the flag whose check fails
    try:
        source = banded_source(vocab_size=args.vocab_size, band=tuple(args.band))
    except InvalidInputError as exc:
        raise UsageError(f"{flag} {value}: {exc}") from exc
    save_source(source, args.out)
    print(f"wrote banded source with |V_data|={source.vocab_size} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _resolve_train_config(args, drift_phase=args.command == "drift-train")
    _check_negatives(config)
    source = _read("--source", args.source, load_source)
    checkpoint = _read_init(args.init, config) if args.init else None
    _check_vocabulary(args.source, source, config.model.vocab_size, "the config's model")
    _write_manifest(
        args,
        {
            "config": train_config_to_dict(config),
            "source": args.source,
            "init": args.init,
            "reset_optimizer": bool(args.init),
        },
    )
    _, rows = train_run(config, source, checkpoint=checkpoint, out_dir=args.out)
    print(
        f"finished {config.steps} steps; "
        + ", ".join(f"{k}={v!r}" for k, v in rows[-1].items() if k != "step")
    )
    return 0


def _cmd_sample(args) -> int:
    checkpoint = _read("--init", args.init, load_checkpoint)
    config = _sampling_config(args, checkpoint.params.model, (args.nfe,))
    rng = np.random.default_rng([args.seed, args.nfe])
    seqs = sample_batch(checkpoint.params, config.corruption, args.nfe, args.samples, rng)
    _write_manifest(args, _flag_values(args))
    path = os.path.join(args.out, "samples.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write(json.dumps([int(t) for t in seq]) + "\n")
    print(f"wrote {args.samples} samples to {path}")
    return 0


def _cmd_eval(args) -> int:
    checkpoint = _read("--init", args.init, load_checkpoint)
    source = _read("--source", args.source, load_source)
    _check_vocabulary(args.source, source, checkpoint.params.vocab_size, "the --init checkpoint")
    config = _sampling_config(args, checkpoint.params.model, args.nfe)
    report = evaluate(checkpoint.params, source, config.corruption, config.eval_nfes,
                      config.eval_samples, config.seed)
    _write_manifest(args, _flag_values(args))
    dump(report, os.path.join(args.out, "report.json"))
    for item in report.per_nfe:
        print(" ".join(f"{k}={v!r}" for k, v in dataclasses.asdict(item).items()))
    return 0


def _cmd_ablate(args) -> int:
    if args.grid is None and args.axis not in DEFAULT_GRIDS:
        raise UsageError(f"--axis {args.axis} has no default grid; give its values with --grid")
    config = _resolve_train_config(args, drift_phase=True)
    source = _read("--source", args.source, load_source)
    checkpoint = _read_init(args.init, config)
    _check_vocabulary(args.source, source, config.model.vocab_size, "the config's model")
    grid = (DEFAULT_GRIDS[args.axis] if args.grid is None else args.grid).split(",")
    configs = {}  # grid value -> its config, each resolved before anything is written
    for value in grid:
        try:
            if not value or grid.count(value) > 1:
                raise InvalidInputError("repeated value" if value else "empty value")
            configs[value] = with_overrides(config, ABLATION_AXES[args.axis](value))
        except ValueError as exc:
            raise UsageError(f"--grid {value}: {exc}") from exc
        _check_negatives(configs[value], f"--grid {value}: ")
    seeds = parse_seeds(args.seeds)
    _write_manifest(
        args,
        {
            "axis": args.axis,
            "grid": grid,
            "seeds": list(seeds),  # each run's seed; the config's own is unused
            "config": {k: v for k, v in train_config_to_dict(config).items() if k != "seed"},
            "source": args.source,
            "init": args.init,
        },
    )
    finals = compare(configs, source, checkpoint, seeds)
    rows = [{"axis": args.axis, **row} for row in seed_stats(finals, config.eval_nfes)]
    path = os.path.join(args.out, "ablation.csv")
    write_csv(path, ABLATION_HEADER, rows)
    for row in rows:
        print(f"{row['axis']}={ablation_line(row)}")
    return 0


def _cmd_study(args) -> int:
    # every flag is checked before anything is written; an error names its flag
    kinds = ([CorruptionKind.MASKED, CorruptionKind.UNIFORM] if args.corruption == "both"
             else [CorruptionKind(args.corruption)])
    seeds = parse_seeds(args.seeds)
    plans = {}  # backbone -> (the base run's config, each method's phase config)
    for kind in kinds:
        base_cfg = flag_config(
            dict(seed=seeds[0], corruption=kind, eval_samples=256),
            {
                ("--base-steps", args.base_steps): dict(
                    steps=args.base_steps, eval_every=max(args.base_steps, 1)
                ),
                ("--base-lr", args.base_lr): dict(lr=args.base_lr),
                ("--base-batch", args.base_batch): dict(batch_size=args.base_batch),
            },
        )
        phase_cfg = flag_config(
            dict(corruption=kind),
            {
                ("--phase-steps", args.phase_steps): dict(steps=args.phase_steps),
                ("--phase-lr", args.phase_lr): dict(lr=args.phase_lr),
                ("--nfe", ",".join(map(str, args.nfe))): dict(eval_nfes=args.nfe),
                ("--samples", args.samples): dict(eval_samples=args.samples),
            },
        )
        plans[kind] = base_cfg, {m: replace(phase_cfg, **f) for m, f in PHASES.items()}
    _write_manifest(args, _flag_values(args))
    source = banded_source()
    save_source(source, os.path.join(args.out, "source.json"))
    for kind, (base_cfg, phases) in plans.items():
        print(f"[{kind.value}] base training ({args.base_steps} steps, B={args.base_batch})")
        state, _ = train_run(base_cfg, source, out_dir=os.path.join(args.out, f"{kind.value}-base"))
        out_dirs = {m: os.path.join(args.out, f"{kind.value}-{t}") for m, t in RUN_TAGS.items()}
        rows = compare(phases, source, checkpoint_of(state), seeds, out_dirs)
        table = os.path.join(args.out, f"{kind.value}-summary.csv")
        columns = [f"{m}_nfe{n}" for m in METRICS for n in args.nfe]
        summary = [{"method": r["variant"], **r} for r in rows]
        write_csv(table, ["method", "seed", *columns], summary)
        for row in seed_stats(rows, args.nfe):
            print(f"[{kind.value}] {ablation_line(row)}")
        print(f"[{kind.value}] wrote {table}")
    return 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: leftover arguments are an error under the command's
    usage, as its other usage errors are, not under ``driftlm``'s."""

    def parse_known_args(self, args=None, namespace=None):
        parsed, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return parsed, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlm",
        description="Desk-scale drifting-objective lab for discrete diffusion LMs",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("make-source", help="write a banded Markov source file")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=31)
    p.add_argument("--band", type=_parse_float_list, default=(0.4, 0.3, 0.2, 0.1))

    p = sub.add_parser("base-train", help="train with the base denoising loss")
    _add_train_flags(p, drift_phase=False)

    p = sub.add_parser("drift-train", help="continual training with a drifting objective")
    _add_train_flags(p, drift_phase=True)

    p = sub.add_parser("sample", help="generate sequences from a checkpoint")
    p.add_argument("--init", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nfe", type=int, default=16)
    p.add_argument("--samples", type=int, default=TrainConfig.eval_samples)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--corruption", choices=[k.value for k in CorruptionKind], default="masked")

    p = sub.add_parser("eval", help="oracle Gen.-PPL and entropy at fixed NFE budgets")
    p.add_argument("--init", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nfe", type=parse_int_list, default=TrainConfig.eval_nfes)
    p.add_argument("--samples", type=int, default=TrainConfig.eval_samples)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--corruption", choices=[k.value for k in CorruptionKind], default="masked")

    # each run takes a --seeds value; without abbreviations --seed is not read as --seeds
    p = sub.add_parser("ablate", help="sweep one design axis over seeds", allow_abbrev=False)
    _add_train_flags(p, drift_phase=True, seed_flag=False)
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    defaults = "; ".join(f"{axis} {grid}" for axis, grid in DEFAULT_GRIDS.items())
    p.add_argument("--grid", default=None,
                   help=f"comma-separated axis values (default: {defaults})")
    p.add_argument("--seeds", default=DEFAULT_SEEDS)

    p = sub.add_parser("study", allow_abbrev=False,  # so --seed is not read as --seeds
                       help="the directional study: base, continuation and drift runs per seed")
    p.add_argument("--out", default="runs/directional")
    p.add_argument("--corruption", choices=["masked", "uniform", "both"], default="both")
    p.add_argument("--base-steps", type=int, default=2000)
    p.add_argument("--phase-steps", type=int, default=2000)
    p.add_argument("--base-lr", type=float, default=6e-3)
    p.add_argument("--phase-lr", type=float, default=3e-6)
    p.add_argument("--base-batch", type=int, default=512)
    p.add_argument("--seeds", default=DEFAULT_SEEDS)
    p.add_argument("--nfe", type=parse_int_list, default=TrainConfig.eval_nfes)
    p.add_argument("--samples", type=int, default=2048)
    return parser


COMMANDS = {
    "make-source": _cmd_make_source,
    "base-train": _cmd_train,
    "drift-train": _cmd_train,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "study": _cmd_study,
}


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
