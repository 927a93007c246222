#!/usr/bin/env python3
"""Base-train, continuation, and drifting runs with a final comparison table.

Reproduces the main directional experiment on the banded Markov source:
ordinary continuation barely changes the base checkpoint while the drifting
objective improves oracle Gen.-PPL at small NFE budgets.  Writes one summary
CSV per backbone plus all run artifacts under --out.  Each summary row is the
final evaluation of its run, with --samples samples at the --nfe budgets, so
every model is evaluated once; a phase's metrics.csv holds that one row.
Prints the mean +/- SD over the seeds per method and NFE.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import replace

from driftlm import evalcli
from driftlm.backbone import CorruptionKind
from driftlm.corpus import banded_source, save_source
from driftlm.objectives import ObjectiveKind
from driftlm.trainer import checkpoint_of

# summary method -> its overrides of the phase config; the base rows are
# zero-step runs from the base checkpoint and are not saved
PHASES = {"base": {"steps": 0}, "continuation": {}, "drift": {"objective": ObjectiveKind()}}
RUN_TAGS = {"continuation": "cont", "drift": "drift"}  # method -> run directory tag


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/directional")
    ap.add_argument("--corruption", choices=["masked", "uniform", "both"], default="both")
    ap.add_argument("--base-steps", type=int, default=2000)
    ap.add_argument("--phase-steps", type=int, default=2000)
    ap.add_argument("--base-lr", type=float, default=6e-3)
    ap.add_argument("--phase-lr", type=float, default=3e-6)
    ap.add_argument("--base-batch", type=int, default=512)
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--nfe", type=evalcli.parse_int_list, default=(4, 8, 16))
    ap.add_argument("--samples", type=int, default=2048)
    args = ap.parse_args()

    kinds = (
        [CorruptionKind(args.corruption)]
        if args.corruption != "both"
        else [CorruptionKind.MASKED, CorruptionKind.UNIFORM]
    )
    try:  # every flag is checked before anything is written; an error names its flag
        seeds = evalcli.parse_seeds(args.seeds)
        plans = {}  # backbone -> (the base run's config, each method's phase config)
        for kind in kinds:
            base_cfg = evalcli.flag_config(
                dict(seed=seeds[0], corruption=kind, eval_samples=256),
                {
                    ("--base-steps", args.base_steps): dict(
                        steps=args.base_steps, eval_every=args.base_steps
                    ),
                    ("--base-lr", args.base_lr): dict(lr=args.base_lr),
                    ("--base-batch", args.base_batch): dict(batch_size=args.base_batch),
                },
            )
            phase_cfg = evalcli.flag_config(
                dict(corruption=kind),
                {
                    ("--phase-steps", args.phase_steps): dict(steps=args.phase_steps),
                    ("--phase-lr", args.phase_lr): dict(lr=args.phase_lr),
                    ("--nfe", ",".join(map(str, args.nfe))): dict(eval_nfes=args.nfe),
                    ("--samples", args.samples): dict(eval_samples=args.samples),
                },
            )
            plans[kind] = base_cfg, {m: replace(phase_cfg, **f) for m, f in PHASES.items()}
    except ValueError as exc:
        ap.error(str(exc))

    source = banded_source()
    os.makedirs(args.out, exist_ok=True)
    save_source(source, os.path.join(args.out, "source.json"))
    for kind, (base_cfg, phases) in plans.items():
        base_dir = os.path.join(args.out, f"{kind.value}-base")
        print(f"[{kind.value}] base training ({args.base_steps} steps, B={args.base_batch})")
        state, _ = evalcli.train_run(base_cfg, source, out_dir=base_dir)
        base = checkpoint_of(state)
        out_dirs = {m: os.path.join(args.out, f"{kind.value}-{t}") for m, t in RUN_TAGS.items()}
        rows = evalcli.compare(phases, source, base, seeds, out_dirs)

        table = os.path.join(args.out, f"{kind.value}-summary.csv")
        columns = [f"{m}_nfe{n}" for m in evalcli.METRICS for n in args.nfe]
        summary = [{"method": r["variant"], **r} for r in rows]
        evalcli.write_csv(table, ["method", "seed", *columns], summary)
        for row in evalcli.seed_stats(rows, args.nfe):
            print(f"[{kind.value}] {evalcli.ablation_line(row)}")
        print(f"[{kind.value}] wrote {table}")


if __name__ == "__main__":
    main()
