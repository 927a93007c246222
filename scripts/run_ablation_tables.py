#!/usr/bin/env python3
"""Desk-scale ablation tables: lift, attraction-repulsion ratio, queue size.

Each table is one `driftlm ablate` run: drifting training continued from one
base checkpoint over a grid of axis values and seeds, reported as mean +/- SD
oracle Gen.-PPL and entropy per NFE in <out>/<axis>/ablation.csv, next to the
run's manifest.json.  Produce the checkpoint first, e.g. with
scripts/run_directional_study.py or `driftlm base-train`.
"""

from __future__ import annotations

import argparse
import os
import sys

from driftlm.evalcli import cli

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

    axes = args.axes.split(",")
    unknown = [axis for axis in axes if axis not in AXES]
    if unknown:
        ap.error(f"--axes {args.axes}: unknown axis {unknown[0]!r}; choose from {', '.join(AXES)}")
    for axis in axes:
        print(f"== axis {axis}: grid {AXES[axis]}, seeds {args.seeds}")
        code = cli([
            "ablate", "--init", args.init, "--source", args.source,
            "--out", os.path.join(args.out, axis), "--axis", axis, "--grid", ",".join(AXES[axis]),
            "--steps", str(args.steps), "--lr", repr(args.lr), "--seeds", args.seeds,
            "--samples", str(args.samples), "--corruption", args.corruption,
        ])
        if code != 0:
            sys.exit(code)


if __name__ == "__main__":
    main()
