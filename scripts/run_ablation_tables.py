#!/usr/bin/env python3
"""Desk-scale ablation tables: lift, attraction-repulsion ratio, queue size.

Each table continues drifting training from one base checkpoint over a grid
of axis values and seeds, then reports mean +/- SD oracle Gen.-PPL and
entropy per NFE.  Produce the checkpoint first, e.g. with
scripts/run_directional_study.py or `driftlm base-train`.
"""

from __future__ import annotations

import argparse
import os

from driftlm.backbone import CorruptionKind
from driftlm.corpus import load_source
from driftlm.evalcli import ABLATION_HEADER, ablate, ablation_line, write_csv
from driftlm.objectives import ObjectiveKind
from driftlm.trainer import TrainConfig, load_checkpoint

AXES = {
    "lift": ["soft", "hard-st"],
    "att_rep_ratio": ["1:1", "1:0", "2:1", "0:1", "1:2"],
    "queue_size": ["4", "64", "256"],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--init", required=True, help="base checkpoint to continue from")
    ap.add_argument("--source", required=True)
    ap.add_argument("--out", default="runs/ablations")
    ap.add_argument("--axes", default="lift,att_rep_ratio,queue_size")
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--lr", type=float, default=3e-6)
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--samples", type=int, default=1024)
    ap.add_argument("--corruption", choices=["masked", "uniform"], default="masked")
    args = ap.parse_args()

    source = load_source(args.source)
    checkpoint = load_checkpoint(args.init)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    base_cfg = TrainConfig(
        steps=args.steps,
        lr=args.lr,
        corruption=CorruptionKind(args.corruption),
        objective=ObjectiveKind(),
        eval_every=args.steps,
        eval_samples=args.samples,
    )
    os.makedirs(args.out, exist_ok=True)
    for axis in args.axes.split(","):
        grid = AXES[axis]
        print(f"== axis {axis}: grid {grid}, seeds {seeds}")
        rows = ablate(axis, grid, base_cfg, source, checkpoint, seeds=seeds)
        path = os.path.join(args.out, f"{axis}.csv")
        write_csv(path, ABLATION_HEADER, rows)
        for row in rows:
            print(f"  {ablation_line(row)}")
        print(f"  wrote {path}")


if __name__ == "__main__":
    main()
