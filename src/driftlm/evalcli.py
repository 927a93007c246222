"""Evaluation metrics, the ablation harness and the CLI.

Generated samples are scored with the exact Markov-source oracle instead of
an external language model, so only orderings and relative changes are
meaningful, not absolute perplexities.

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
    save_source,
    token_rows,
)
from .encoder import LiftKind
from .numcore import InvalidInputError
from .objectives import ObjectiveKind, ObjectiveVariant
from .trainer import Checkpoint, CheckpointError, TrainConfig, load_checkpoint, train_run, write_csv


@dataclass(frozen=True)
class NfeMetrics:
    nfe: int
    gen_ppl: float
    entropy: float


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


def entropy_metric(seqs) -> float:
    """Mean per-sequence Shannon entropy (nats) of each sequence's own histogram.

    ``seqs`` is an ``[n, L]`` token array (see ``corpus.token_rows``).
    """
    s = token_rows(seqs)
    n, length = s.shape
    vocab = int(s.max()) + 1
    # one bincount over row-offset tokens gives every row's histogram at once
    counts = np.bincount((s + vocab * np.arange(n)[:, None]).ravel(), minlength=n * vocab)
    p = counts.reshape(n, vocab) / length
    plogp = p * np.log(np.where(p > 0.0, p, 1.0))
    return float(-plogp.sum(axis=1).mean())


def evaluate(
    params: DenoiserParams,
    source: MarkovSource,
    kind: CorruptionKind,
    nfes=(4, 8, 16),
    n_samples: int = 256,
    seed: int = 0,
) -> EvalReport:
    """Sample at each NFE budget and score with the exact oracle; seed-deterministic."""
    if n_samples < 1:
        raise InvalidInputError("n_samples must be at least 1")
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
# ablation harness


# ablation axis -> the config overrides of one grid value, in the CLI's
# --grid syntax: "hard-st", "feature-l2+base", "64", "1:0", "0.05/0.2"
ABLATION_AXES = {
    "lift": lambda v: {"objective.lift": v},
    "objective": lambda v: {
        "objective.variant": v.removesuffix("+base"),
        "objective.with_base_loss": v.endswith("+base"),
    },
    "queue_size": lambda v: {"queue_capacity": int(v)},
    "att_rep_ratio": lambda v: dict(
        zip(("drift.w_plus", "drift.w_minus"), (float(w) for w in v.split(":")), strict=True)
    ),
    "temperature_set": lambda v: {"drift.temperatures": [float(t) for t in v.split("/")]},
}


@dataclass(frozen=True)
class AblationRow:
    axis: str
    value: str
    nfe: int
    gen_ppl_mean: float
    gen_ppl_sd: float
    entropy_mean: float
    entropy_sd: float
    n_seeds: int


ABLATION_HEADER = [f.name for f in dataclasses.fields(AblationRow)]


def apply_axis(config: TrainConfig, axis: str, value: str) -> TrainConfig:
    """Return a config with one ablation axis set to the grid value ``value``."""
    if axis not in ABLATION_AXES:
        raise InvalidInputError(f"unknown ablation axis {axis!r}; choose from {[*ABLATION_AXES]}")
    return with_overrides(config, ABLATION_AXES[axis](value))


def ablate(
    axis: str,
    grid: list[str],
    base_config: TrainConfig,
    source: MarkovSource,
    init_checkpoint: Checkpoint | None,
    seeds=(0, 1, 2),
) -> list[AblationRow]:
    """Train one run per (grid value, seed) and aggregate mean +/- SD per NFE."""
    rows: list[AblationRow] = []
    for value in grid:
        cfg_value = apply_axis(base_config, axis, value)
        per_nfe_ppl: dict[int, list[float]] = {n: [] for n in cfg_value.eval_nfes}
        per_nfe_ent: dict[int, list[float]] = {n: [] for n in cfg_value.eval_nfes}
        for seed in seeds:
            cfg = replace(cfg_value, seed=int(seed))
            state, _ = train_run(cfg, source, checkpoint=init_checkpoint, reset_optimizer=True)
            report = evaluate(
                state.params,
                source,
                cfg.corruption,
                nfes=cfg.eval_nfes,
                n_samples=cfg.eval_samples,
                seed=int(seed),
            )
            for item in report.per_nfe:
                per_nfe_ppl[item.nfe].append(item.gen_ppl)
                per_nfe_ent[item.nfe].append(item.entropy)
        for nfe in cfg_value.eval_nfes:
            ppl = np.asarray(per_nfe_ppl[nfe])
            ent = np.asarray(per_nfe_ent[nfe])
            rows.append(
                AblationRow(
                    axis=axis,
                    value=value,
                    nfe=int(nfe),
                    gen_ppl_mean=float(ppl.mean()),
                    gen_ppl_sd=float(ppl.std(ddof=0)),
                    entropy_mean=float(ent.mean()),
                    entropy_sd=float(ent.std(ddof=0)),
                    n_seeds=len(list(seeds)),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# configs


train_config_to_dict = jsonable


def train_config_from_dict(d: dict) -> TrainConfig:
    return decode(TrainConfig, d)


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


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


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
    "--nfe": ("eval_nfes", dict(type=_parse_int_list, help="comma list, e.g. 4,8,16")),
    "--queue-capacity": ("queue_capacity", dict(type=int)),
    "--corruption": ("corruption", dict(choices=[k.value for k in CorruptionKind])),
}
# the flags only drift-train and ablate take
DRIFT_FLAGS = {
    "--objective": ("objective.variant", dict(choices=[v.value for v in ObjectiveVariant])),
    "--with-base-loss": ("objective.with_base_loss", dict(action="store_true")),
    "--lift": ("objective.lift", dict(choices=[k.value for k in LiftKind])),
    "--eta": ("objective.eta", dict(type=float)),
    "--alpha": ("objective.alpha", dict(type=float)),
    "--w-plus": ("drift.w_plus", dict(type=float)),
    "--w-minus": ("drift.w_minus", dict(type=float)),
    "--temperatures": ("drift.temperatures", dict(type=_parse_float_list)),
    "--unrenormalized-barycenters": (
        "drift.renormalize_sides",
        dict(
            action="store_const",
            const=False,
            help="use raw joint-softmax masses instead of per-side renormalization",
        ),
    ),
}


def _add_train_flags(p: argparse.ArgumentParser, drift_phase: bool) -> None:
    p.add_argument("--source", required=True, help="Markov source file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON training config to start from")
    for flag, (_, kwargs) in TRAIN_FLAGS.items():
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
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            overrides[path] = value
    try:
        return with_overrides(config, overrides)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_make_source(args) -> int:
    source = banded_source(vocab_size=args.vocab_size, band=tuple(args.band))
    save_source(source, args.out)
    print(f"wrote banded source with |V_data|={source.vocab_size} to {args.out}")
    return 0


def _cmd_train(args) -> int:
    config = _resolve_train_config(args, drift_phase=args.command == "drift-train")
    source = _read("--source", args.source, load_source)
    checkpoint = _read("--init", args.init, load_checkpoint) if args.init else None
    _write_manifest(
        args,
        {
            "config": train_config_to_dict(config),
            "source": args.source,
            "init": args.init,
            "reset_optimizer": bool(args.init),
        },
    )
    state, rows = train_run(
        config, source, checkpoint=checkpoint, out_dir=args.out, reset_optimizer=bool(args.init)
    )
    final = rows[-1]
    print(
        f"finished {config.steps} steps; "
        + ", ".join(f"{k}={final[k]!r}" for k in sorted(final) if k.startswith("gen_ppl"))
    )
    return 0


def _cmd_sample(args) -> int:
    checkpoint = _read("--init", args.init, load_checkpoint)
    kind = CorruptionKind(args.corruption)
    rng = np.random.default_rng([args.seed, args.nfe])
    seqs = sample_batch(checkpoint.params, kind, args.nfe, args.samples, rng)
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
    kind = CorruptionKind(args.corruption)
    report = evaluate(
        checkpoint.params, source, kind, nfes=args.nfe, n_samples=args.samples, seed=args.seed
    )
    _write_manifest(args, _flag_values(args))
    dump(report, os.path.join(args.out, "report.json"))
    for item in report.per_nfe:
        print(f"nfe={item.nfe} gen_ppl={item.gen_ppl!r} entropy={item.entropy!r}")
    return 0


def _cmd_ablate(args) -> int:
    config = _resolve_train_config(args, drift_phase=True)
    source = _read("--source", args.source, load_source)
    checkpoint = _read("--init", args.init, load_checkpoint)
    grid = [v for v in args.grid.split(",") if v]
    seeds = _parse_int_list(args.seeds)
    _write_manifest(
        args,
        {
            "axis": args.axis,
            "grid": grid,
            "seeds": list(seeds),
            "config": train_config_to_dict(config),
            "source": args.source,
            "init": args.init,
        },
    )
    rows = ablate(args.axis, grid, config, source, checkpoint, seeds=seeds)
    path = os.path.join(args.out, "ablation.csv")
    write_csv(path, ABLATION_HEADER, [dataclasses.asdict(r) for r in rows])
    for r in rows:
        print(
            f"{r.axis}={r.value} nfe={r.nfe}: "
            f"gen_ppl {r.gen_ppl_mean:.4g} +/- {r.gen_ppl_sd:.3g}, "
            f"entropy {r.entropy_mean:.4g} +/- {r.entropy_sd:.3g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftlm",
        description="Desk-scale drifting-objective lab for discrete diffusion LMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

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
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corruption", choices=[k.value for k in CorruptionKind], default="masked")

    p = sub.add_parser("eval", help="oracle Gen.-PPL and entropy at fixed NFE budgets")
    p.add_argument("--init", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nfe", type=_parse_int_list, default=(4, 8, 16))
    p.add_argument("--samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--corruption", choices=[k.value for k in CorruptionKind], default="masked")

    p = sub.add_parser("ablate", help="sweep one design axis over seeds")
    _add_train_flags(p, drift_phase=True)
    p.add_argument("--axis", required=True, choices=ABLATION_AXES)
    p.add_argument("--grid", required=True, help="comma-separated axis values")
    p.add_argument("--seeds", default="0,1,2")
    return parser


COMMANDS = {
    "make-source": _cmd_make_source,
    "base-train": _cmd_train,
    "drift-train": _cmd_train,
    "sample": _cmd_sample,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
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
