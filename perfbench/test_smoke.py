"""Smoke test of the benchmark harness: schema and output checks at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Kept beside the benchmark and out of the repository's test suite, whose
``testpaths`` is ``tests/``.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)

sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import spans  # noqa: E402


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_matches_declared_schema(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0.0, m["name"]
    if trace:
        assert last["metrics"]["trace.missing_spans"]["value"] == 0.0


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "drift-l2", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_site_is_reported_not_raised():
    from driftlm import numcore

    original = numcore.softmax_rows
    tracer = spans.Tracer({
        "numcore.softmax_rows": ("numcore.softmax_rows",),
        "drift.gone": ("drift.no_such_function", "no_such_module.fn"),
    })
    tracer.install()
    try:
        numcore.softmax_rows([[0.0, 1.0]])
        numcore.softmax_rows([[2.0, 1.0]])
    finally:
        tracer.uninstall()
    assert numcore.softmax_rows is original
    assert tracer.missing == ["drift.no_such_function", "no_such_module.fn"]
    layer = tracer.summarize(n_calls=2, wall_ns=1)
    assert layer["numcore.softmax_rows.calls"] == 1.0
    assert layer["drift.gone.calls"] == 0.0
    assert layer["trace.missing_spans"] == 2.0


def test_self_time_excludes_children():
    tracer = spans.Tracer({"a.outer": (), "a.inner": ()})
    for nid, parent, start, end in [(0, -1, 0, 100), (1, 0, 10, 40), (1, 0, 50, 70)]:
        tracer.name_id.append(nid)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.work.append(0)
    layer = tracer.summarize(n_calls=1, wall_ns=100)
    assert layer["a.outer.self_ms"] == pytest.approx(50e-6)
    assert layer["a.inner.self_ms"] == pytest.approx(50e-6)
    assert layer["a.inner.calls"] == 2.0
    assert layer["trace.coverage"] == pytest.approx(1.0)


def test_output_checks_reject_bad_results():
    good = {"loss": 0.5, "drift_norm": 0.1, "grad_norm": 1.0}
    assert harness.check_step(good, drifting=True) is None
    assert harness.check_step({**good, "loss": math.nan}, drifting=False) is not None
    assert harness.check_step({**good, "drift_norm": 0.0}, drifting=True) is not None
    assert harness.check_step({**good, "drift_norm": 0.0}, drifting=False) is None

    from driftlm.backbone import CorruptionKind
    from driftlm.evalcli import EvalReport, NfeMetrics

    def report(gen_ppl):
        return EvalReport(per_nfe=(NfeMetrics(4, gen_ppl, 1.0),), n_samples=1, seed=0)

    reference: dict = {}
    assert harness.check_report(report(3.0), reference, CorruptionKind.MASKED) is None
    assert harness.check_report(report(3.0), reference, CorruptionKind.MASKED) is None
    assert harness.check_report(report(3.5), reference, CorruptionKind.MASKED) is not None
    assert harness.check_report(report(math.inf), {}, CorruptionKind.UNIFORM) is not None
