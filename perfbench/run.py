#!/usr/bin/env python3
"""driftlm benchmark: closed-loop workloads with end-to-end and traced per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload drift-l2 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload drift-l2 --seed 0 --seconds 20 --trace 1
    python3 perfbench/run.py --workload all --seed 0 --seconds 5
    python3 perfbench/run.py --workload eval --seed 0 --seconds 1 --trace 1 --smoke

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
a traced segment for the per-layer metrics, then the same number of calls
untraced from an identical set-up, and requires the two to end bitwise
equal.  Every run prints its metrics with unit and sample count, writes a
results file with the environment under ``perfbench/results/``, prints one
JSON object as its last line, and exits non-zero when an output check fails.
``--smoke`` makes a few tiny calls to check the schema and the output checks.
"""

from __future__ import annotations

import os
import sys
import time

_T_START = time.perf_counter()

# one BLAS thread, pinned before numpy is imported anywhere in the process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")
WORKLOAD_NAMES = ("base-train", "drift-l2", "drift-mirror", "eval")


def _import_program():
    """Import driftlm from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "driftlm", "__init__.py")):
        raise SystemExit(f"perfbench: no driftlm sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import driftlm

    if os.path.dirname(os.path.dirname(os.path.abspath(driftlm.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported driftlm from {driftlm.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment record


def _git_rev() -> str | None:
    """HEAD of the repository rooted at ROOT; None in a plain source checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "driftlm", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _blas() -> dict:
    info: dict = {"env_threads": os.environ["OPENBLAS_NUM_THREADS"]}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    # the live thread count, read from the OpenBLAS numpy ships
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def environment(workload: str, seed: int) -> dict:
    from driftlm.evalcli import train_config_to_dict
    from harness import workload_configs

    return {
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "workload": workload,
        "seed": seed,
        "configs": {
            role: train_config_to_dict(cfg) for role, cfg in workload_configs(workload, seed).items()
        },
    }


# ---------------------------------------------------------------------------
# one workload


def _metric(value: float, unit: str, n: int | None = None) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _loop(name, setup, seed, budget_s, max_calls, reference, smoke):
    import harness

    if name == "eval":
        samples = harness.SMOKE_EVAL_SAMPLES if smoke else harness.EVAL_SAMPLES
        return harness.eval_loop(setup, seed, budget_s, max_calls, reference, samples)
    return harness.train_loop(setup, name, seed, budget_s, max_calls)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import harness
    import spans
    from driftlm.backbone import ModelConfig

    import_s = time.perf_counter() - _T_START
    os.makedirs(RESULTS_DIR, exist_ok=True)
    failures: list[str] = []
    patches = spans.Patches()
    samples_observed = None
    if name == "eval":
        samples_observed = harness.install_sample_check(
            patches, ModelConfig().clean_vocab, failures
        )

    # the traced run needs two identical set-ups, the untraced run one
    setups = [harness.set_up(name, seed, RESULTS_DIR, smoke) for _ in range(1 + trace)]
    reference: dict = {}
    max_calls = harness.SMOKE_CALLS if smoke else None
    result: dict = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke}

    if not trace:
        loop = _loop(name, setups[-1], seed, seconds, max_calls, reference, smoke)
        n = len(loop.call_ms)
        # repeat the set-up after the loop, so that its median spans the run
        setup_reps = [setups[0].seconds] + [
            harness.set_up(name, seed, RESULTS_DIR, smoke).seconds
            for _ in range(harness.SETUP_REPS - 1)
        ]
        # gated on the 1st percentile: the program's own cost with the least
        # interference, while the median moves with the host's load (perfbench/README.md)
        seq_per_s = loop.sequences / n / (_pct(loop.cycle_ms, 1) / 1e3) if n else 0.0
        metrics = {
            "call_ms.p1": _metric(_pct(loop.call_ms, 1), "ms", n),
            "seq_per_s": _metric(seq_per_s, "1/s", n),
            "setup_s": _metric(statistics.median(setup_reps), "s", len(setup_reps)),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        result["timed_call"] = "evaluate() at NFE 4/8/16" if name == "eval" else "train_step"
        result["extra"] = {
            "call_ms.min": _metric(_pct(loop.call_ms, 0), "ms", n),
            "call_ms.p50": _metric(_pct(loop.call_ms, 50), "ms", n),
            "call_ms.p90": _metric(_pct(loop.call_ms, 90), "ms", n) if n >= 100 else None,
            "seq_per_s.mean": _metric(loop.sequences / loop.wall_s, "1/s", n),
            "error_rate": _metric(loop.failed / loop.attempted, "ratio", loop.attempted),
            "import_s": _metric(import_s, "s"),
            "setup_reps_s": setup_reps,
            "call_ms": loop.call_ms,
        }
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = _loop(name, setups[-2], seed, seconds / 2, max_calls, reference, smoke)
        finally:
            tracer.uninstall()
        loop = _loop(name, setups[-1], seed, float("inf"), traced.attempted, reference, smoke)
        loop.failures = traced.failures + loop.failures
        loop.failed += traced.failed
        loop.attempted += traced.attempted
        if name != "eval" and not harness.same_params(setups[-2].state.params, setups[-1].state.params):
            failures.append("traced run's final parameters differ from the untraced run's")
        metrics = {
            k: _metric(v, _layer_unit(k))
            for k, v in tracer.summarize(len(traced.call_ms) or 1, int(traced.wall_s * 1e9)).items()
        }
        plain, with_spans = _pct(loop.call_ms, 1), _pct(traced.call_ms, 1)
        metrics["trace.overhead_pct"] = _metric(
            100.0 * (with_spans / plain - 1.0) if plain else 0.0, "%"
        )
        last = setups[-1]
        metrics["trainer.save_checkpoint.ms"] = _metric(last.save_ms, "ms")
        metrics["trainer.load_checkpoint.ms"] = _metric(last.load_ms, "ms")
        metrics["trainer.checkpoint_bytes"] = _metric(last.checkpoint_bytes, "B")
        result["tracing"] = {
            "missing_sites": tracer.missing,
            "traced_calls": len(traced.call_ms),
            "untraced_calls": len(loop.call_ms),
            "traced_call_ms_p1": with_spans,
            "untraced_call_ms_p1": plain,
            "head_spans": tracer.head(),
        }
    patches.restore()

    # failures found outside a call (sampler outputs, traced-vs-untraced
    # parameters) count against the calls attempted too
    checks = {"failures": loop.failures + failures}
    if samples_observed is False:
        checks["warning"] = "evalcli.sample_batch is gone: sampler outputs were not observed"
    result.update(
        correct=not checks["failures"],
        attempted=loop.attempted,
        failed=min(loop.attempted, loop.failed + len(failures)),
        metrics=metrics,
        checks=checks,
        environment=environment(name, seed),
    )
    return result


def _layer_unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name in ("backbone.sample_batch.commit_ratio", "trace.coverage"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# output


def _print_report(result: dict) -> None:
    env = result["environment"]
    blas = env["blas"]
    print(
        f"driftlm benchmark  workload={result['workload']} seed={result['seed']} "
        f"trace={result['trace']}{' smoke' if result['smoke'] else ''}"
    )
    print(
        f"  python {env['python']}  numpy {env['numpy']}  {blas.get('name')} {blas.get('version')} "
        f"threads={blas.get('threads', blas['env_threads'])}  nproc={env['nproc']}  "
        f"git={env['git_rev']}  src={env['source_sha256'][:12]}"
    )
    if "timed_call" in result:
        print(f"  timed call: {result['timed_call']} (closed loop, one client)")
    rows = dict(result["metrics"])
    rows.update({k: v for k, v in result.get("extra", {}).items() if isinstance(v, dict)})
    for key, m in rows.items():
        n = f"n={m['n']}" if "n" in m else ""
        print(f"  {key:<44} {m['value']:>14.6g} {m['unit']:<6} {n}")
    if result.get("extra", {}).get("call_ms.p90", 0) is None:
        print("  call_ms.p90: not reported, fewer than 100 calls")
    if result.get("tracing", {}).get("missing_sites"):
        print(f"  missing spans: {', '.join(result['tracing']['missing_sites'])}")
    if "warning" in result["checks"]:
        print(f"  warning: {result['checks']['warning']}")
    status = "ok" if result["correct"] else "FAILED"
    print(f"  checks: {status}  attempted={result['attempted']} failed={result['failed']}")
    for failure in result["checks"]["failures"]:
        print(f"    {failure}")


def _write_results(result: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "-smoke" if result["smoke"] else ""
    path = os.path.join(
        RESULTS_DIR, f"{result['workload']}-s{result['seed']}-t{result['trace']}{tag}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _summary_line(result: dict) -> str:
    metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in result["metrics"].items()}
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _run_all(args) -> int:
    """Every workload, each in its own process; non-zero if any fails."""
    summary: dict = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= bool(last["correct"]) and proc.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["workloads"][name] = last["metrics"]
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measured time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="a few tiny calls: schema and checks only")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result["results_file"] = os.path.relpath(_write_results(result), ROOT)
    _print_report(result)
    print(f"  results: {result['results_file']}")
    print(_summary_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
