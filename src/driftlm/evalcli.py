"""Evaluation metrics, ablation harness, and the CLI.

Generated samples are scored with the exact Markov-source oracle instead of
an external language model, so only orderings and relative changes are
meaningful, not absolute perplexities.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .backbone import CorruptionKind, DenoiserParams, ModelConfig, sample_batch
from .corpus import (
    MarkovSource,
    banded_source,
    load_source,
    oracle_gen_ppl,
    save_source,
    token_rows,
)
from .drift import DriftConfig
from .encoder import LiftKind
from .numcore import InvalidInputError
from .objectives import ObjectiveKind, ObjectiveVariant
from .trainer import Checkpoint, TrainConfig, load_checkpoint, train_run


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
        return {
            "per_nfe": [
                {"nfe": m.nfe, "gen_ppl": m.gen_ppl, "entropy": m.entropy} for m in self.per_nfe
            ],
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


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


ABLATION_AXES = ("lift", "objective", "queue_size", "att_rep_ratio", "temperature_set")


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


def apply_axis(config: TrainConfig, axis: str, value) -> TrainConfig:
    """Return a config with one ablation axis set to ``value``."""
    objective = config.objective if config.objective is not None else ObjectiveKind()
    if axis == "lift":
        return replace(config, objective=replace(objective, lift=LiftKind(value)))
    if axis == "objective":
        text = str(value)
        with_base = text.endswith("+base")
        variant = ObjectiveVariant(text.removesuffix("+base"))
        return replace(
            config, objective=replace(objective, variant=variant, with_base_loss=with_base)
        )
    if axis == "queue_size":
        return replace(config, queue_capacity=int(value))
    if axis == "att_rep_ratio":
        if isinstance(value, str):
            wp, wm = (float(v) for v in value.split(":"))
        else:
            wp, wm = (float(v) for v in value)
        return replace(config, drift=replace(config.drift, w_plus=wp, w_minus=wm))
    if axis == "temperature_set":
        if isinstance(value, str):
            temps = tuple(float(v) for v in value.split("/"))
        else:
            temps = tuple(float(v) for v in value)
        return replace(config, drift=replace(config.drift, temperatures=temps))
    raise InvalidInputError(f"unknown ablation axis {axis!r}; choose from {ABLATION_AXES}")


def _axis_value_label(axis: str, value) -> str:
    if axis == "att_rep_ratio" and not isinstance(value, str):
        return ":".join(repr(float(v)).rstrip("0").rstrip(".") or "0" for v in value)
    if axis == "temperature_set" and not isinstance(value, str):
        return "/".join(str(v) for v in value)
    return str(value)


def ablate(
    axis: str,
    grid,
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
                    value=_axis_value_label(axis, value),
                    nfe=int(nfe),
                    gen_ppl_mean=float(ppl.mean()),
                    gen_ppl_sd=float(ppl.std(ddof=0)),
                    entropy_mean=float(ent.mean()),
                    entropy_sd=float(ent.std(ddof=0)),
                    n_seeds=len(list(seeds)),
                )
            )
    return rows


def write_ablation_csv(path, rows: list[AblationRow]) -> None:
    header = "axis,value,nfe,gen_ppl_mean,gen_ppl_sd,entropy_mean,entropy_sd,n_seeds"
    lines = [header]
    for r in rows:
        lines.append(
            f"{r.axis},{r.value},{r.nfe},{r.gen_ppl_mean!r},{r.gen_ppl_sd!r},"
            f"{r.entropy_mean!r},{r.entropy_sd!r},{r.n_seeds}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# config (de)serialization


def train_config_to_dict(config: TrainConfig) -> dict:
    d = dataclasses.asdict(config)
    d["corruption"] = config.corruption.value
    d["objective"] = None
    if config.objective is not None:
        d["objective"] = {
            "variant": config.objective.variant.value,
            "with_base_loss": config.objective.with_base_loss,
            "lift": config.objective.lift.value,
            "eta": config.objective.eta,
            "alpha": config.objective.alpha,
        }
    d["drift"]["temperatures"] = list(config.drift.temperatures)
    d["eval_nfes"] = list(config.eval_nfes)
    return d


def _check_keys(section: str, doc: dict, cls) -> dict:
    unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise InvalidInputError(f"unknown {section} config keys: {sorted(unknown)}")
    return doc


def train_config_from_dict(d: dict) -> TrainConfig:
    d = _check_keys("top-level", dict(d), TrainConfig)
    objective = d.get("objective")
    if objective is not None:
        objective = _check_keys("objective", objective, ObjectiveKind)
        objective = ObjectiveKind(
            variant=ObjectiveVariant(objective["variant"]),
            with_base_loss=bool(objective["with_base_loss"]),
            lift=LiftKind(objective["lift"]),
            eta=float(objective["eta"]),
            alpha=float(objective["alpha"]),
        )
    drift = _check_keys("drift", d.get("drift", {}), DriftConfig)
    kwargs = dict(d)
    kwargs["objective"] = objective
    kwargs["drift"] = DriftConfig(**{**drift, "temperatures": tuple(drift.get("temperatures", (0.02, 0.05, 0.2)))})
    kwargs["model"] = ModelConfig(**_check_keys("model", d.get("model", {}), ModelConfig))
    kwargs["corruption"] = CorruptionKind(d.get("corruption", "masked"))
    kwargs["eval_nfes"] = tuple(int(n) for n in d.get("eval_nfes", (4, 8, 16)))
    return TrainConfig(**kwargs)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir, command: str, payload: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "manifest.json"), {"command": command, **payload})


# ---------------------------------------------------------------------------
# CLI


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _add_train_flags(p: argparse.ArgumentParser, drift_phase: bool) -> None:
    p.add_argument("--source", required=True, help="Markov source file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None, help="JSON training config to start from")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--micro-batch", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=None)
    p.add_argument("--samples", type=int, default=None, help="samples per evaluation")
    p.add_argument("--nfe", type=_parse_int_list, default=None, help="comma list, e.g. 4,8,16")
    p.add_argument("--queue-capacity", type=int, default=None)
    p.add_argument("--corruption", choices=[k.value for k in CorruptionKind], default=None)
    p.add_argument("--init", required=drift_phase, default=None, help="initial checkpoint")
    if drift_phase:
        p.add_argument(
            "--objective", choices=[v.value for v in ObjectiveVariant], default=None
        )
        p.add_argument("--with-base-loss", action="store_true", default=None)
        p.add_argument("--lift", choices=[k.value for k in LiftKind], default=None)
        p.add_argument("--eta", type=float, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--w-plus", type=float, default=None)
        p.add_argument("--w-minus", type=float, default=None)
        p.add_argument("--temperatures", type=_parse_float_list, default=None)
        p.add_argument(
            "--unrenormalized-barycenters",
            action="store_true",
            default=None,
            help="use raw joint-softmax masses instead of per-side renormalization",
        )


def _resolve_train_config(args, drift_phase: bool) -> TrainConfig:
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = train_config_from_dict(json.load(fh))
    else:
        lr = 3e-5 if (drift_phase or args.init) else 3e-4
        config = TrainConfig(lr=lr)
    simple = {
        "seed": args.seed,
        "steps": args.steps,
        "lr": args.lr,
        "batch_size": args.batch_size,
        "micro_batch": args.micro_batch,
        "eval_every": args.eval_every,
        "eval_samples": args.samples,
        "eval_nfes": args.nfe,
        "queue_capacity": args.queue_capacity,
    }
    overrides = {k: v for k, v in simple.items() if v is not None}
    if args.corruption is not None:
        overrides["corruption"] = CorruptionKind(args.corruption)
    config = replace(config, **overrides)
    if drift_phase:
        objective = config.objective if config.objective is not None else ObjectiveKind()
        obj_overrides = {}
        if args.objective is not None:
            obj_overrides["variant"] = ObjectiveVariant(args.objective)
        if args.with_base_loss:
            obj_overrides["with_base_loss"] = True
        if args.lift is not None:
            obj_overrides["lift"] = LiftKind(args.lift)
        if args.eta is not None:
            obj_overrides["eta"] = args.eta
        if args.alpha is not None:
            obj_overrides["alpha"] = args.alpha
        objective = replace(objective, **obj_overrides)
        drift_overrides = {}
        if args.w_plus is not None:
            drift_overrides["w_plus"] = args.w_plus
        if args.w_minus is not None:
            drift_overrides["w_minus"] = args.w_minus
        if args.temperatures is not None:
            drift_overrides["temperatures"] = args.temperatures
        if args.unrenormalized_barycenters:
            drift_overrides["renormalize_sides"] = False
        config = replace(
            config, objective=objective, drift=replace(config.drift, **drift_overrides)
        )
    else:
        config = replace(config, objective=None)
    return config


def _cmd_make_source(args) -> int:
    source = banded_source(
        vocab_size=args.vocab_size, band=tuple(args.band), seed=args.seed
    )
    save_source(source, args.out)
    print(f"wrote banded source with |V_data|={source.vocab_size} to {args.out}")
    return 0


def _cmd_train(args, drift_phase: bool) -> int:
    config = _resolve_train_config(args, drift_phase)
    source = load_source(args.source)
    checkpoint = load_checkpoint(args.init) if args.init else None
    _write_manifest(
        args.out,
        "drift-train" if drift_phase else "base-train",
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
    checkpoint = load_checkpoint(args.init)
    kind = CorruptionKind(args.corruption)
    rng = np.random.default_rng([args.seed, args.nfe])
    seqs = sample_batch(checkpoint.params, kind, args.nfe, args.samples, rng)
    _write_manifest(
        args.out,
        "sample",
        {
            "init": args.init,
            "nfe": args.nfe,
            "samples": args.samples,
            "seed": args.seed,
            "corruption": kind.value,
        },
    )
    path = os.path.join(args.out, "samples.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for seq in seqs:
            fh.write(json.dumps([int(t) for t in seq]) + "\n")
    print(f"wrote {args.samples} samples to {path}")
    return 0


def _cmd_eval(args) -> int:
    checkpoint = load_checkpoint(args.init)
    source = load_source(args.source)
    kind = CorruptionKind(args.corruption)
    report = evaluate(
        checkpoint.params, source, kind, nfes=args.nfe, n_samples=args.samples, seed=args.seed
    )
    _write_manifest(
        args.out,
        "eval",
        {
            "init": args.init,
            "source": args.source,
            "nfe": list(args.nfe),
            "samples": args.samples,
            "seed": args.seed,
            "corruption": kind.value,
        },
    )
    _write_json(os.path.join(args.out, "report.json"), report.to_dict())
    for item in report.per_nfe:
        print(f"nfe={item.nfe} gen_ppl={item.gen_ppl!r} entropy={item.entropy!r}")
    return 0


def _cmd_ablate(args) -> int:
    config = _resolve_train_config(args, drift_phase=True)
    source = load_source(args.source)
    checkpoint = load_checkpoint(args.init)
    grid = [v for v in args.grid.split(",") if v]
    seeds = _parse_int_list(args.seeds)
    _write_manifest(
        args.out,
        "ablate",
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
    write_ablation_csv(path, rows)
    for r in rows:
        print(
            f"{r.axis}={r.value} nfe={r.nfe}: "
            f"gen_ppl {r.gen_ppl_mean:.4g} +/- {r.gen_ppl_sd:.3g}, "
            f"entropy {r.entropy_mean:.4g} +/- {r.entropy_sd:.3g}"
        )
    return 0


def cli(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftlm",
        description="Desk-scale drifting-objective lab for discrete diffusion LMs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-source", help="write a banded Markov source file")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=31)
    p.add_argument("--band", type=_parse_float_list, default=(0.4, 0.3, 0.2, 0.1))
    p.add_argument("--seed", type=int, default=0)

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

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "make-source":
        return _cmd_make_source(args)
    if args.command == "base-train":
        return _cmd_train(args, drift_phase=False)
    if args.command == "drift-train":
        return _cmd_train(args, drift_phase=True)
    if args.command == "sample":
        return _cmd_sample(args)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "ablate":
        return _cmd_ablate(args)
    parser.print_usage()
    return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
