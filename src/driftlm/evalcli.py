"""Evaluation metrics, ablation harness, verification suite, and the CLI.

Generated samples are scored with the exact Markov-source oracle instead of
an external language model, so only orderings and relative changes are
meaningful, not absolute perplexities.  The `verify` subcommand re-runs the
library's property checks end to end and fails loudly on any violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import numcore
from .backbone import CorruptionKind, DenoiserParams, ModelConfig, sample_batch
from .corpus import MarkovSource, banded_source, load_source, oracle_gen_ppl, save_source
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
    """Mean per-sequence Shannon entropy (nats) of each sequence's own histogram."""
    seqs = list(seqs)
    if not seqs:
        raise InvalidInputError("entropy_metric: empty sequence list")
    total = 0.0
    for seq in seqs:
        s = np.asarray(seq, dtype=np.int64)
        counts = np.bincount(s)
        p = counts[counts > 0] / s.size
        total += float(-(p * np.log(p)).sum())
    return total / len(seqs)


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


def _cmd_verify(args) -> int:
    results = run_verification()
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        line = f"[{status}] {name}"
        if detail and not ok:
            line += f": {detail}"
        print(line)
        failed += 0 if ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


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

    p = sub.add_parser("verify", help="run the full property/oracle suite")

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
    if args.command == "verify":
        return _cmd_verify(args)
    parser.print_usage()
    return 2


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


# ---------------------------------------------------------------------------
# verification suite (the `verify` subcommand)


def run_verification() -> list[tuple[str, bool, str]]:
    results = []
    for name, check in _VERIFICATION_CHECKS:
        try:
            check()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report every failure kind
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results


def _check_softmax_contract():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 9))
    p = numcore.softmax_rows(x)
    assert np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-12)
    shifted = numcore.softmax_rows(x + 3.7)
    assert np.max(np.abs(shifted - p)) <= 1e-12
    big = numcore.softmax_rows(np.array([[1000.0, 1000.0]]))
    assert np.allclose(big, 0.5)


def _check_primitive_vjps():
    rng = np.random.default_rng(1)
    for name in numcore.primitive_names():
        for _ in range(3):
            _vjp_against_fd(name, rng)


def _vjp_against_fd(name: str, rng: np.random.Generator):
    if name == "softmax_rows":
        inputs = (rng.normal(size=(3, 4)),)
    elif name == "matmul":
        inputs = (rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))
    elif name == "add":
        a = rng.normal(size=(3, 4))
        inputs = (a, rng.normal(size=(3, 4)))
    elif name == "tanh":
        inputs = (rng.normal(size=(3, 4)),)
    elif name == "mean_pool":
        inputs = (rng.normal(size=(5, 3)),)
    elif name == "concat":
        inputs = (rng.normal(size=4), rng.normal(size=3))
    elif name == "l2_normalize":
        inputs = (rng.normal(size=5) + 2.0,)
    else:  # scalar_scale
        inputs = (rng.normal(size=(3, 2)), 1.7)
    out = numcore.apply_primitive(name, *inputs)
    upstream = rng.normal(size=np.shape(out))
    cotangents = numcore.vjp(name, inputs, upstream)
    for idx, x in enumerate(inputs):
        if np.isscalar(x) or np.ndim(x) == 0:
            continue

        def f(val, idx=idx):
            probe = list(inputs)
            probe[idx] = val
            return float(np.sum(upstream * numcore.apply_primitive(name, *probe)))

        fd = numcore.finite_diff_grad(f, np.asarray(x, dtype=np.float64), 1e-5)
        an = np.asarray(cotangents[idx], dtype=np.float64)
        err = np.max(np.abs(an - fd)) / max(1e-6, float(np.max(np.abs(fd))), 1.0)
        assert err <= 1e-5, f"{name} input {idx}: rel err {err}"


def _check_corpus_oracles():
    from .corpus import oracle_log_prob

    perm = np.zeros((4, 4))
    for i in range(4):
        perm[i, (i + 1) % 4] = 1.0
    cycle = MarkovSource(4, np.array([1.0, 0, 0, 0]), perm)
    assert oracle_log_prob(cycle, np.array([0, 1, 2, 3])) == 0.0
    uniform = MarkovSource(4, np.full(4, 0.25), np.full((4, 4), 0.25))
    rng = np.random.default_rng(0)
    from .corpus import sample_sequences

    seqs = sample_sequences(uniform, 16, 8, rng)
    assert abs(oracle_gen_ppl(uniform, seqs) - 4.0) <= 1e-9


def _check_sampling_determinism():
    from .corpus import sample_sequences

    src = banded_source()
    a = sample_sequences(src, 4, 16, np.random.default_rng(7))
    b = sample_sequences(src, 4, 16, np.random.default_rng(7))
    assert np.array_equal(a, b)


def _check_corrupt_boundaries():
    from .backbone import corrupt

    rng = np.random.default_rng(0)
    clean = rng.integers(0, 31, size=16)
    rec = corrupt(clean, 1.0 - 1e-12, CorruptionKind.MASKED, np.random.default_rng(1))
    assert np.all(rec.corrupted == 31) and rec.predicted_positions.size == 16
    rec = corrupt(clean, 1e-12, CorruptionKind.MASKED, np.random.default_rng(1))
    assert np.array_equal(rec.corrupted, clean) and rec.predicted_positions.size == 0


def _check_sampler_contract():
    from .backbone import init_params

    cfg = ModelConfig()
    params = init_params(cfg, np.random.default_rng(3))
    calls = []
    seqs = sample_batch(
        params, CorruptionKind.MASKED, 16, 2, np.random.default_rng(0), on_forward=calls.append
    )
    assert len(calls) == 16
    assert np.all(seqs < cfg.mask_index)


def _check_encoder_contracts():
    from .backbone import init_params
    from .encoder import encode, make_frozen_encoder, real_features_batch, soft_token_lift

    cfg = ModelConfig()
    rng = np.random.default_rng(5)
    enc = make_frozen_encoder(init_params(cfg, rng))
    clean = rng.integers(0, cfg.clean_vocab, size=(2, cfg.length))
    feats = real_features_batch(enc, clean)
    assert np.all(np.abs(np.linalg.norm(feats, axis=1) - 1.0) <= 1e-9)
    onehot = np.zeros((2, cfg.length, cfg.vocab_size))
    onehot[np.arange(2)[:, None], np.arange(cfg.length), clean] = 1.0
    lifted = soft_token_lift(onehot, clean, np.ones(clean.shape, bool), enc.params.embed)
    assert np.array_equal(encode(enc, lifted).features, feats)


def _check_drift_antisymmetry():
    from .drift import drift_single_temp

    rng = np.random.default_rng(11)
    for _ in range(20):
        h = rng.normal(size=(1, 8))
        pos = rng.normal(size=(5, 8))
        neg = rng.normal(size=(4, 8))
        fwd = drift_single_temp(h, pos, neg[None], 0.05)
        bwd = drift_single_temp(h, neg, pos[None], 0.05)
        assert np.max(np.abs(fwd + bwd)) <= 1e-12


def _check_drift_equilibrium():
    from .drift import DriftConfig, drift_multi_temp, drift_single_temp

    rng = np.random.default_rng(12)
    refs = rng.normal(size=(6, 8))
    anchors = rng.normal(size=(3, 8))
    twins = np.repeat(refs[None], 3, axis=0)
    for tau in (0.02, 0.05, 0.2):
        assert np.all(drift_single_temp(anchors, refs, twins, tau) == 0.0)
    assert np.all(drift_multi_temp(anchors, refs, twins, DriftConfig()) == 0.0)


def _check_joint_weights():
    from .drift import joint_affinity_weights

    rng = np.random.default_rng(13)
    w_pos, w_neg = joint_affinity_weights(
        rng.normal(size=6), rng.normal(size=(4, 6)), rng.normal(size=(3, 6)), 0.05
    )
    assert abs(w_pos.sum() + w_neg.sum() - 1.0) <= 1e-12
    tight_pos = np.zeros((1, 6))
    far = np.ones((3, 6))
    w_pos, w_neg = joint_affinity_weights(np.zeros(6) + 1e-4, tight_pos, far, 1e-6)
    assert w_pos[0] > 1.0 - 1e-6


def _check_rms_scale():
    from .drift import DriftConfig, drift_multi_temp, drift_single_temp, rms_scale

    rng = np.random.default_rng(14)
    anchors = rng.normal(size=(4, 8))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    pos = rng.normal(size=(6, 8))
    neg = np.repeat(rng.normal(size=(1, 5, 8)), 4, axis=0)
    for tau in (0.02, 0.2):
        per = drift_single_temp(anchors, pos, neg, tau)
        normalized = per / rms_scale(per, 1e-8)
        rms = math.sqrt(float(np.mean(np.sum(normalized * normalized, axis=1))))
        assert abs(rms - 1.0) <= 1e-6
    single = drift_multi_temp(anchors, pos, neg, DriftConfig(temperatures=(0.05,)))
    per = np.concatenate(
        [drift_single_temp(anchors[i : i + 1], pos, neg[i : i + 1], 0.05) for i in range(4)]
    )
    assert np.array_equal(single, per / rms_scale(per, 1e-8))


def _check_queue_fifo():
    from .drift import ReferenceQueue, queue_push

    rows = np.eye(4)
    q = ReferenceQueue(2, 4)
    for i in range(3):
        queue_push(q, rows[i : i + 1])
    assert np.array_equal(q.rows, rows[1:3])


def _check_objectives():
    from .objectives import feature_fixed_point_loss

    v = np.array([1.0, 0.0, 0.0])
    loss, grad = feature_fixed_point_loss(None, v, 1.0)
    assert loss == 0.5 and np.array_equal(grad, -v)
    loss0, grad0 = feature_fixed_point_loss(None, np.zeros(3), 1.0)
    assert loss0 == 0.0 and np.all(grad0 == 0.0)


def _check_mirror_teacher():
    from .objectives import mirror_teacher

    p_star = mirror_teacher(np.log(np.array([[0.5, 0.5]])), np.array([[1.0, 0.0]]), math.log(2))
    assert np.max(np.abs(p_star - np.array([[2 / 3, 1 / 3]]))) <= 1e-12
    # variational check on a coarse grid
    rng = np.random.default_rng(15)
    logits = rng.normal(size=(1, 2))
    g = rng.normal(size=(1, 2))
    eta = 0.7
    p = numcore.softmax_rows(logits)[0]
    teacher = mirror_teacher(logits, g, eta)[0]

    def objective(q):
        terms = np.where(q > 0, q * np.log(np.where(q > 0, q, 1.0) / p), 0.0)
        return float(q @ g[0] - terms.sum() / eta)

    qs = np.linspace(0.0, 1.0, 1001)
    grid_best = max(objective(np.array([q, 1 - q])) for q in qs)
    assert objective(teacher) >= grid_best - 1e-9


def _check_training_determinism():
    from .backbone import params_to_vector
    from .corpus import sample_sequences
    from .trainer import init_state, train_step

    cfg = TrainConfig(
        batch_size=4,
        micro_batch=2,
        steps=3,
        model=ModelConfig(vocab_size=8, length=6, embed_dim=8, hidden_dim=12),
        queue_capacity=16,
        objective=ObjectiveKind(),
        eval_samples=4,
    )
    src = banded_source(vocab_size=7)
    finals = []
    for _ in range(2):
        state = init_state(cfg)
        for _ in range(cfg.steps):
            batch = sample_sequences(src, cfg.batch_size, cfg.model.length, state.rng)
            train_step(state, batch, cfg)
        finals.append(params_to_vector(state.params))
    assert np.array_equal(finals[0], finals[1])


def _check_eval_determinism():
    from .backbone import init_params

    cfg = ModelConfig(vocab_size=8, length=6, embed_dim=8, hidden_dim=12)
    params = init_params(cfg, np.random.default_rng(2))
    src = banded_source(vocab_size=7)
    a = evaluate(params, src, CorruptionKind.MASKED, nfes=(2, 3), n_samples=8, seed=5)
    b = evaluate(params, src, CorruptionKind.MASKED, nfes=(2, 3), n_samples=8, seed=5)
    assert a == b


_VERIFICATION_CHECKS = [
    ("softmax rows: sums, shift invariance, overflow safety", _check_softmax_contract),
    ("numcore VJPs match the finite-difference oracle", _check_primitive_vjps),
    ("corpus oracle: cycle / uniform-chain exactness", _check_corpus_oracles),
    ("corpus sampling is seed-deterministic", _check_sampling_determinism),
    ("corruption boundaries at t -> 0 and t -> 1", _check_corrupt_boundaries),
    ("sampler: exact NFE count, mask-free output", _check_sampler_contract),
    ("encoder: unit norm, real == hard one-hot lift", _check_encoder_contracts),
    ("drift anti-symmetry within 1e-12", _check_drift_antisymmetry),
    ("drift equilibrium: matched references give zero drift", _check_drift_equilibrium),
    ("joint affinity weights sum to one; low-tau concentration", _check_joint_weights),
    ("per-temperature RMS normalization", _check_rms_scale),
    ("reference queue FIFO eviction", _check_queue_fifo),
    ("fixed-point loss stop-gradient identity", _check_objectives),
    ("mirror teacher closed form and variational optimality", _check_mirror_teacher),
    ("training determinism over repeated runs", _check_training_determinism),
    ("evaluation determinism given a seed", _check_eval_determinism),
]


if __name__ == "__main__":
    main()
