#!/usr/bin/env python3
"""Base-train, continuation, and drifting runs with a final comparison table.

Reproduces the main directional experiment on the banded Markov source:
ordinary continuation barely changes the base checkpoint while the drifting
objective improves oracle Gen.-PPL at small NFE budgets.  Writes one summary
CSV per backbone plus all run artifacts under --out.
"""

from __future__ import annotations

import argparse
import os
import numpy as np

from driftlm.backbone import CorruptionKind
from driftlm.corpus import banded_source, save_source
from driftlm.evalcli import evaluate
from driftlm.objectives import ObjectiveKind
from driftlm.trainer import TrainConfig, checkpoint_of, train_run


def eval_ppls(params, source, kind, nfes, n_samples, seed):
    report = evaluate(params, source, kind, nfes=nfes, n_samples=n_samples, seed=seed)
    return {m.nfe: m.gen_ppl for m in report.per_nfe}, {m.nfe: m.entropy for m in report.per_nfe}


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

        rows = ["method,seed," + ",".join(f"gen_ppl_nfe{n}" for n in nfes)]
        results: dict[str, list[dict[int, float]]] = {"base": [], "continuation": [], "drift": []}
        for seed in seeds:
            ppl, _ = eval_ppls(base.params, source, kind, nfes, args.samples, seed)
            results["base"].append(ppl)
            rows.append(f"base,{seed}," + ",".join(repr(ppl[n]) for n in nfes))
        for seed in seeds:
            cfg = TrainConfig(
                seed=seed,
                steps=args.phase_steps,
                lr=args.phase_lr,
                corruption=kind,
                eval_every=args.phase_steps,
                eval_samples=256,
            )
            st, _ = train_run(
                cfg, source, checkpoint=base, reset_optimizer=True,
                out_dir=os.path.join(args.out, f"{kind.value}-cont-s{seed}"),
            )
            ppl, _ = eval_ppls(st.params, source, kind, nfes, args.samples, seed)
            results["continuation"].append(ppl)
            rows.append(f"continuation,{seed}," + ",".join(repr(ppl[n]) for n in nfes))
            print(f"[{kind.value}] continuation seed {seed}: ppl@{nfes[0]}={ppl[nfes[0]]:.4g}")
        for seed in seeds:
            cfg = TrainConfig(
                seed=seed,
                steps=args.phase_steps,
                lr=args.phase_lr,
                corruption=kind,
                objective=ObjectiveKind(),
                eval_every=args.phase_steps,
                eval_samples=256,
            )
            st, _ = train_run(
                cfg, source, checkpoint=base, reset_optimizer=True,
                out_dir=os.path.join(args.out, f"{kind.value}-drift-s{seed}"),
            )
            ppl, _ = eval_ppls(st.params, source, kind, nfes, args.samples, seed)
            results["drift"].append(ppl)
            rows.append(f"drift,{seed}," + ",".join(repr(ppl[n]) for n in nfes))
            print(f"[{kind.value}] drift seed {seed}: ppl@{nfes[0]}={ppl[nfes[0]]:.4g}")

        table = os.path.join(args.out, f"{kind.value}-summary.csv")
        with open(table, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        means = {
            name: {n: float(np.mean([p[n] for p in ppls])) for n in nfes}
            for name, ppls in results.items()
        }
        n0 = nfes[0]
        print(f"[{kind.value}] mean gen_ppl@{n0}: base {means['base'][n0]:.4g}, "
              f"continuation {means['continuation'][n0]:.4g}, drift {means['drift'][n0]:.4g}")
        print(f"[{kind.value}] wrote {table}")


if __name__ == "__main__":
    main()
