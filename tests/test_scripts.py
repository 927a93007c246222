from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from driftlm import evalcli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


STUDY = "run_directional_study"

# a study flag value that nothing may run with, and the cause after its
# "<flags>: " prefix, or argparse's whole message where it rejects the value
BAD_STUDY_FLAGS = {
    "--seeds 0,0": "repeated seed",
    "--seeds 0,x": "invalid literal for int()",
    "--nfe 4,x": "argument --nfe: invalid literal for int() with base 10: 'x'",
    "--nfe 0": "eval_nfes must be >= 1, got 0",
    "--nfe 17": "eval_nfes must be <= 16, the model's sequence length, for masked sampling",
    "--nfe 4,4": "eval_nfes must be distinct",
    "--samples 0": "eval_samples must be >= 1",
    "--base-steps 0": "steps must be >= 0 and eval_every >= 1",
}


@pytest.mark.parametrize("flags", list(BAD_STUDY_FLAGS))
def test_study_bad_flag_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, flags):
    study = _load_script(STUDY)
    trained = []
    monkeypatch.setattr(evalcli, "train_run", lambda *args, **kwargs: trained.append(args))
    out = tmp_path / "study"
    out.mkdir()
    argv = ["--out", str(out), "--corruption", "masked", "--base-steps", "2", "--phase-steps", "2",
            "--samples", "16", *flags.split()]
    monkeypatch.setattr(sys, "argv", [f"{STUDY}.py", *argv])
    with pytest.raises(SystemExit) as exc:
        study.main()
    assert exc.value.code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1, errors
    cause = BAD_STUDY_FLAGS[flags]
    want = cause if cause.startswith("argument ") else f"{flags}: {cause}"
    assert errors[0].startswith(f"{STUDY}.py: error: {want}")
    assert trained == [] and not any(out.iterdir())
