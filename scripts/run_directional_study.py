#!/usr/bin/env python3
"""Base-train, continuation, and drifting runs with a final comparison table.

Reproduces the main directional experiment on the banded Markov source:
ordinary continuation barely changes the base checkpoint while the drifting
objective improves oracle Gen.-PPL at small NFE budgets.  Writes one summary
CSV per backbone plus all run artifacts under --out.  Each summary row is the
final evaluation of its run, with --samples samples at the --nfe budgets, so
every model is evaluated once; a phase's metrics.csv holds that one row.
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from driftlm.backbone import CorruptionKind
from driftlm.corpus import banded_source, save_source
from driftlm.evalcli import METRICS, train_run, write_csv
from driftlm.objectives import ObjectiveKind
from driftlm.trainer import TrainConfig, checkpoint_of

# summary method, run directory tag, objective of the continual phase; the
# base rows are zero-step runs from the base checkpoint and are not saved
PHASES = (
    ("base", None, None),
    ("continuation", "cont", None),
    ("drift", "drift", ObjectiveKind()),
)


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
    ap.add_argument("--nfe", default="4,8,16")
    ap.add_argument("--samples", type=int, default=2048)
    args = ap.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    nfes = tuple(int(n) for n in args.nfe.split(","))
    source = banded_source()
    os.makedirs(args.out, exist_ok=True)
    save_source(source, os.path.join(args.out, "source.json"))

    kinds = (
        [CorruptionKind(args.corruption)]
        if args.corruption != "both"
        else [CorruptionKind.MASKED, CorruptionKind.UNIFORM]
    )
    for kind in kinds:
        base_dir = os.path.join(args.out, f"{kind.value}-base")
        base_cfg = TrainConfig(
            seed=seeds[0],
            steps=args.base_steps,
            lr=args.base_lr,
            batch_size=args.base_batch,
            micro_batch=128,
            corruption=kind,
            eval_every=args.base_steps,
            eval_samples=256,
        )
        print(f"[{kind.value}] base training ({args.base_steps} steps, B={args.base_batch})")
        state, _ = train_run(base_cfg, source, out_dir=base_dir)
        base = checkpoint_of(state)
        columns = [f"{m}_nfe{n}" for m in METRICS for n in nfes]

        rows = []
        for method, tag, objective in PHASES:
            for seed in seeds:
                cfg = TrainConfig(
                    seed=seed,
                    steps=args.phase_steps if tag else 0,
                    lr=args.phase_lr,
                    corruption=kind,
                    objective=objective,
                    eval_nfes=nfes,
                    eval_samples=args.samples,
                )
                out_dir = os.path.join(args.out, f"{kind.value}-{tag}-s{seed}") if tag else None
                _, run_rows = train_run(
                    cfg, source, checkpoint=base, reset_optimizer=True, out_dir=out_dir,
                    final_only=True,
                )
                scores = {col: run_rows[-1][col] for col in columns}
                shown = ", ".join(f"{k}={v:.4g}" for k, v in scores.items())
                print(f"[{kind.value}] {method} seed {seed}: {shown}")
                rows.append({"method": method, "seed": seed, **scores})

        table = os.path.join(args.out, f"{kind.value}-summary.csv")
        header = list(rows[0])
        write_csv(table, header, rows)
        for col in header[2:]:
            means = {
                method: np.mean([r[col] for r in rows if r["method"] == method])
                for method in dict.fromkeys(r["method"] for r in rows)
            }
            shown = ", ".join(f"{m} {v:.4g}" for m, v in means.items())
            print(f"[{kind.value}] mean {col}: {shown}")
        print(f"[{kind.value}] wrote {table}")


if __name__ == "__main__":
    main()
