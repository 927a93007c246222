from __future__ import annotations

import argparse
import csv
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from driftlm import evalcli
from driftlm.backbone import CorruptionKind, ModelConfig, init_params, sample_batch
from driftlm.codec import decode
from driftlm.corpus import banded_source, load_source, oracle_gen_ppl, save_source
from driftlm.evalcli import (
    ABLATION_AXES,
    ABLATION_HEADER,
    METRICS,
    EvalReport,
    NfeMetrics,
    _resolve_train_config,
    build_parser,
    cli,
    compare,
    entropy_metric,
    evaluate,
    seed_stats,
    train_config_to_dict,
    train_run,
    with_overrides,
    write_csv,
)
from driftlm.drift import DriftConfig
from driftlm.encoder import LiftKind
from driftlm.numcore import InvalidInputError
from driftlm.objectives import ObjectiveKind, ObjectiveVariant
from driftlm.trainer import TrainConfig, checkpoint_of, init_state, load_checkpoint, save_checkpoint

TINY_MODEL = ModelConfig(vocab_size=8, length=6, embed_dim=8, hidden_dim=12)


def tiny_train_config(**overrides) -> TrainConfig:
    defaults = dict(
        batch_size=4,
        micro_batch=2,
        steps=2,
        model=TINY_MODEL,
        queue_capacity=8,
        eval_every=2,
        eval_samples=6,
        eval_nfes=(2, 3),
        objective=ObjectiveKind(),
    )
    defaults.update(overrides)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# entropy metric


def test_entropy_constant_sequences_zero():
    assert entropy_metric([np.zeros(10, dtype=int), np.full(10, 3)]) == 0.0
    # a collapsed batch scores +0.0, which metrics.csv and the CLI print as 0.0, not -0.0
    assert math.copysign(1.0, entropy_metric(np.zeros((4, 16), int))) == 1.0


def test_entropy_permutation_sequences():
    length = 16
    seqs = [np.random.default_rng(s).permutation(length) for s in range(4)]
    assert abs(entropy_metric(seqs) - math.log(length)) < 1e-12


def test_entropy_invariant_under_reordering(rng):
    seq = rng.integers(0, 12, size=20)
    shuffled = rng.permutation(seq)
    assert entropy_metric([seq]) == pytest.approx(entropy_metric([shuffled]), abs=1e-14)


def test_entropy_empty_rejected():
    with pytest.raises(InvalidInputError):
        entropy_metric([])


def loop_entropy(seqs) -> float:
    """Per-sequence entropy loop; ``entropy_metric`` must match it within 1e-12."""
    total = 0.0
    for s in seqs:
        counts = np.bincount(s)
        p = counts[counts > 0] / s.size
        total += float(-(p * np.log(p)).sum())
    return total / len(seqs)


def test_entropy_matches_per_sequence_loop(small_params):
    rng = np.random.default_rng(8)
    sampled = sample_batch(small_params, CorruptionKind.MASKED, 4, 2048, rng)
    random_tokens = rng.integers(0, 31, size=(2048, 32))
    for seqs in (sampled, random_tokens):
        assert abs(entropy_metric(seqs) - loop_entropy(seqs)) <= 1e-12


BAD_SAMPLES = {
    "no-rows": ([], "nonempty"),
    "empty-row": ([np.array([], dtype=np.int64)], "row 0"),
    "ragged": ([np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([0, 1])], "ragged rows"),
    "negative": ([np.array([0, 1]), np.array([-1, 0])], "row 1: token index -1"),
    "not-2d": (np.array([0, 1, 2]), "shape"),
    "float-tokens": (np.array([[0.0, 1.0]]), "integers"),
}


@pytest.mark.parametrize("case", list(BAD_SAMPLES))
@pytest.mark.parametrize("metric", ["entropy", "gen_ppl"])
def test_metrics_reject_bad_samples_naming_the_row(metric, case):
    seqs, message = BAD_SAMPLES[case]
    src = banded_source()
    score = entropy_metric if metric == "entropy" else lambda s: oracle_gen_ppl(src, s)
    with pytest.raises(InvalidInputError, match=message):
        score(seqs)


# ---------------------------------------------------------------------------
# evaluate


def test_zero_logit_model_matches_uniform_cross_entropy():
    source = banded_source()
    params = init_params(ModelConfig(), np.random.default_rng(0), init_std=0.0)
    params.out_proj[:] = 0.0
    report = evaluate(params, source, CorruptionKind.MASKED, nfes=(4,), n_samples=256, seed=0)
    # analytic: uniform samples scored against the source, zero factors floored
    k = source.vocab_size
    floor = math.log(1e-12)
    log_t = np.where(source.transition > 0, np.log(np.maximum(source.transition, 1e-300)), floor)
    expected = -(
        float(np.log(source.initial).mean())
        + 15.0 * float(log_t.mean())
    ) / 16.0
    assert abs(math.log(report.per_nfe[0].gen_ppl) - expected) < 0.5


def test_uniform_source_scores_exactly_vocab_size(small_params):
    k = 6
    source = banded_source(vocab_size=k, band=(1.0,))
    uniform = source.__class__(k, np.full(k, 1 / k), np.full((k, k), 1 / k))
    model = ModelConfig(vocab_size=7, length=6, embed_dim=8, hidden_dim=12)
    params = init_params(model, np.random.default_rng(1), init_std=0.02)
    report = evaluate(params, uniform, CorruptionKind.UNIFORM, nfes=(2,), n_samples=16, seed=3)
    assert report.per_nfe[0].gen_ppl == pytest.approx(6.0, rel=1e-12)


def test_evaluate_deterministic(small_params):
    source = banded_source(vocab_size=6, band=(0.6, 0.4))
    a = evaluate(small_params, source, CorruptionKind.MASKED, nfes=(2, 4), n_samples=12, seed=9)
    b = evaluate(small_params, source, CorruptionKind.MASKED, nfes=(2, 4), n_samples=12, seed=9)
    assert a == b
    # a one-shot iterable is read once, for the checks and the scores alike
    c = evaluate(small_params, source, CorruptionKind.MASKED, nfes=iter((2, 4)), n_samples=12,
                 seed=9)
    assert c == a


def test_report_dict_shape(small_params):
    source = banded_source(vocab_size=6, band=(0.6, 0.4))
    report = evaluate(small_params, source, CorruptionKind.MASKED, nfes=(2,), n_samples=4, seed=1)
    doc = report.to_dict()
    assert set(doc) == {"per_nfe", "n_samples", "seed"}
    assert doc["per_nfe"][0]["nfe"] == 2
    assert doc["per_nfe"][0]["gen_ppl"] >= 1.0


@pytest.mark.parametrize("gen_ppl, entropy", [(0.5, 1.0), (1.0, -0.1)], ids=["ppl", "entropy"])
def test_report_rejects_metrics_out_of_range(gen_ppl, entropy):
    item = NfeMetrics(nfe=4, gen_ppl=gen_ppl, entropy=entropy)
    with pytest.raises(InvalidInputError, match="EvalReport metrics out of range"):
        EvalReport(per_nfe=(item,), n_samples=1, seed=0)


# evaluate()'s settings that TrainConfig refuses, and the field the error names
BAD_EVALUATE_SETTINGS = {
    "repeated-nfe": (dict(nfes=(4, 4)), r"^eval_nfes must be distinct$"),
    "no-nfe": (dict(nfes=()), r"^eval_nfes must name at least one"),
    "non-integer-nfe": (dict(nfes=(4.5,)), r"^eval_nfes must hold integers, got 4.5$"),
    "nfe-past-length": (dict(nfes=(6,)), r"^eval_nfes must be <= 5, the model's sequence length"),
    "no-samples": (dict(n_samples=0), r"^eval_samples must be >= 1, got 0$"),
    "negative-seed": (dict(seed=-1), r"^seed must be >= 0, got -1$"),
}


@pytest.mark.parametrize("case", list(BAD_EVALUATE_SETTINGS))
def test_evaluate_refuses_bad_settings_naming_the_field(small_params, monkeypatch, case):
    settings, message = BAD_EVALUATE_SETTINGS[case]
    source = banded_source(vocab_size=6, band=(0.6, 0.4))
    sampled = _counting(monkeypatch, "sample_batch")
    with pytest.raises(InvalidInputError, match=message):
        evaluate(small_params, source, CorruptionKind.MASKED, **{"nfes": (2,), **settings})
    assert sampled == []


@pytest.mark.parametrize("source_vocab", [40, 20], ids=["source-larger", "source-smaller"])
def test_vocabulary_mismatch_names_both_sizes(tmp_path, capsys, source_vocab):
    # the default model has 32 tokens: 31 source tokens and the mask
    with pytest.raises(InvalidInputError, match=f"32 tokens.*source's {source_vocab} tokens"):
        evaluate(
            init_params(ModelConfig(), np.random.default_rng(0), init_std=0.02),
            banded_source(vocab_size=source_vocab),
            CorruptionKind.MASKED,
            nfes=(2,),
            n_samples=4,
        )
    # the CLI checks the sizes before it writes anything
    source_path = tmp_path / "source.json"
    save_source(banded_source(vocab_size=source_vocab), source_path)
    argv = ["base-train", "--source", str(source_path), "--out", str(tmp_path / "run")]
    flags = ["--batch-size", "4", "--micro-batch", "2", "--samples", "4", "--nfe", "2"]
    assert cli([*argv, *flags]) == 2
    err = capsys.readouterr().err
    assert re.search(f"has {source_vocab} tokens, .* vocabulary of 32", err), err
    assert not (tmp_path / "run").exists()


# ---------------------------------------------------------------------------
# comparisons and the ablation harness


def _axis(cfg, axis, value):
    return with_overrides(cfg, ABLATION_AXES[axis](value))


def _counting(monkeypatch, name):
    """Count the calls of ``evalcli.<name>`` in the returned list."""
    calls = []
    real = getattr(evalcli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(evalcli, name, counting)
    return calls


def test_apply_axis_variants():
    cfg = tiny_train_config()
    assert _axis(cfg, "lift", "hard-st").objective.lift == LiftKind.HARD_ST
    assert _axis(cfg, "objective", "mirror-kl").objective.variant == ObjectiveVariant.MIRROR_KL
    assert _axis(cfg, "objective", "feature-l2+base").objective.with_base_loss
    assert _axis(cfg, "queue_size", "4").queue_capacity == 4
    ratio = _axis(cfg, "att_rep_ratio", "0:1")
    assert ratio.drift.w_plus == 0.0 and ratio.drift.w_minus == 1.0
    temps = _axis(cfg, "temperature_set", "0.05/0.2")
    assert temps.drift.temperatures == (0.05, 0.2)


def _compare_setup():
    source = banded_source(vocab_size=TINY_MODEL.clean_vocab)
    base = checkpoint_of(init_state(tiny_train_config(objective=None)))
    return source, base, tiny_train_config(objective=None)


def test_compare_rows_are_final_rows_of_direct_runs(monkeypatch):
    source, base, cfg = _compare_setup()
    variants = {"base": {"steps": 0}, "cont": {}, "drift": {"objective": ObjectiveKind()}}
    seeds = (0, 1)
    calls = _counting(monkeypatch, "evaluate")
    rows = compare({n: with_overrides(cfg, v) for n, v in variants.items()}, source, base, seeds)
    assert len(calls) == len(variants) * len(seeds)  # the final model of each run, once
    monkeypatch.undo()
    assert [(r["variant"], r["seed"]) for r in rows] == [(v, s) for v in variants for s in seeds]
    for row in rows:
        run_cfg = replace(with_overrides(cfg, variants[row["variant"]]), seed=row["seed"])
        _, direct = train_run(run_cfg, source, base, final_only=True)
        assert row == {"variant": row["variant"], "seed": row["seed"], **direct[-1]}
    # a zero-step variant scores the initial model itself
    for row in rows[:2]:
        seed = row["seed"]
        report = evaluate(base.params, source, cfg.corruption, cfg.eval_nfes, cfg.eval_samples, seed)
        assert {k: row[k] for k in report.columns()} == report.columns()


def test_compare_writes_only_the_named_variants(tmp_path):
    source, base, cfg = _compare_setup()
    variants = {"base": {"steps": 0}, "cont": {"steps": 1}}
    configs = {n: with_overrides(cfg, v) for n, v in variants.items()}
    compare(configs, source, base, (0, 3), out_dirs={"cont": str(tmp_path / "run-cont")})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run-cont-s0", "run-cont-s3"]
    for seed in (0, 3):
        lines = (tmp_path / f"run-cont-s{seed}" / "metrics.csv").read_text().splitlines()
        assert len(lines) == 2  # the header and the final row
        assert load_checkpoint(tmp_path / f"run-cont-s{seed}" / "checkpoint.json").step == 1


def test_seed_stats_reduces_per_variant_and_nfe():
    finals = [
        {"variant": "a", "seed": 0, "gen_ppl_nfe4": 2.0, "entropy_nfe4": 1.0},
        {"variant": "a", "seed": 1, "gen_ppl_nfe4": 4.0, "entropy_nfe4": 1.0},
        {"variant": "b", "seed": 0, "gen_ppl_nfe4": 8.0, "entropy_nfe4": 0.5},
    ]
    assert seed_stats(finals, (4,)) == [
        dict(value="a", nfe=4, n_seeds=2, gen_ppl_mean=3.0, gen_ppl_sd=1.0,
             entropy_mean=1.0, entropy_sd=0.0),
        dict(value="b", nfe=4, n_seeds=1, gen_ppl_mean=8.0, gen_ppl_sd=0.0,
             entropy_mean=0.5, entropy_sd=0.0),
    ]


def test_ablation_csv_bytes(tmp_path):
    rows = [
        dict(zip(ABLATION_HEADER, ("att_rep_ratio", "1:1", 4, 12.5, 0.0, 2.25, 0.1, 1))),
        dict(zip(ABLATION_HEADER, ("att_rep_ratio", "0:1", 8, 1e7 / 3, 1.5e-3, 2.0, 0.0, 3))),
    ]
    path = tmp_path / "ablation.csv"
    write_csv(path, ABLATION_HEADER, rows)
    assert path.read_text(encoding="utf-8") == (
        "axis,value,nfe,gen_ppl_mean,gen_ppl_sd,entropy_mean,entropy_sd,n_seeds\n"
        "att_rep_ratio,1:1,4,12.5,0.0,2.25,0.1,1\n"
        "att_rep_ratio,0:1,8,3333333.3333333335,0.0015,2.0,0.0,3\n"
    )


# ---------------------------------------------------------------------------
# config serialization


def test_train_config_dict_roundtrip():
    cfg = tiny_train_config(
        objective=ObjectiveKind(
            variant=ObjectiveVariant.MIRROR_KL, with_base_loss=True, lift=LiftKind.HARD_ST, eta=0.5
        ),
        drift=DriftConfig(temperatures=(0.1, 0.4), w_plus=2.0),
        corruption=CorruptionKind.UNIFORM,
    )
    rebuilt = decode(TrainConfig, json.loads(json.dumps(train_config_to_dict(cfg))))
    assert rebuilt == cfg


def test_train_config_rejects_unknown_keys():
    doc = train_config_to_dict(tiny_train_config())
    doc["mystery"] = 1
    with pytest.raises(InvalidInputError):
        decode(TrainConfig, doc)


# every field away from its default, and its JSON form
NON_DEFAULT_CONFIG = TrainConfig(
    batch_size=12,
    micro_batch=3,
    steps=7,
    lr=0.01,
    seed=5,
    objective=ObjectiveKind(
        variant=ObjectiveVariant.MIRROR_KL,
        with_base_loss=True,
        lift=LiftKind.HARD_ST,
        eta=0.5,
    ),
    drift=DriftConfig(temperatures=(0.1, 0.3), w_plus=2.0, w_minus=0.5),
    corruption=CorruptionKind.UNIFORM,
    eval_every=3,
    queue_capacity=9,
    model=ModelConfig(vocab_size=8, length=6, embed_dim=8, hidden_dim=12, n_blocks=3),
    eval_nfes=(2, 3),
    eval_samples=6,
)
NON_DEFAULT_JSON = {
    "batch_size": 12,
    "micro_batch": 3,
    "steps": 7,
    "lr": 0.01,
    "seed": 5,
    "objective": {
        "variant": "mirror-kl",
        "with_base_loss": True,
        "lift": "hard-st",
        "eta": 0.5,
    },
    "drift": {
        "temperatures": [0.1, 0.3],
        "w_plus": 2.0,
        "w_minus": 0.5,
    },
    "corruption": "uniform",
    "eval_every": 3,
    "queue_capacity": 9,
    "model": {"vocab_size": 8, "length": 6, "embed_dim": 8, "hidden_dim": 12, "n_blocks": 3},
    "eval_nfes": [2, 3],
    "eval_samples": 6,
}


def test_train_config_json_golden():
    # json.dumps, not ==: key order and int/float/bool types must match too
    assert json.dumps(train_config_to_dict(NON_DEFAULT_CONFIG)) == json.dumps(NON_DEFAULT_JSON)
    assert decode(TrainConfig, NON_DEFAULT_JSON) == NON_DEFAULT_CONFIG


@pytest.mark.parametrize(
    "section, key",
    [("drift", "alpha"), ("objective", "alpha"), ("model", "mystery"), ("objective", "mystery")],
    ids=["old-drift-alpha", "old-objective-alpha", "model", "objective"],
)
def test_train_config_rejects_unknown_nested_keys_by_name(section, key):
    doc = train_config_to_dict(tiny_train_config())
    assert key not in doc[section]
    doc[section][key] = 1.0
    with pytest.raises(InvalidInputError, match=f"{section}.*{key}"):
        decode(TrainConfig, doc)


# ---------------------------------------------------------------------------
# CLI


@pytest.fixture
def cli_env(tmp_path):
    source_path = tmp_path / "source.json"
    save_source(banded_source(vocab_size=TINY_MODEL.clean_vocab), source_path)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(train_config_to_dict(tiny_train_config())), encoding="utf-8"
    )
    ckpt_path = tmp_path / "init.json"
    save_checkpoint(init_state(tiny_train_config(objective=None)), ckpt_path)
    return tmp_path, source_path, config_path, ckpt_path


def test_cli_make_source_roundtrip(tmp_path, capsys):
    out = tmp_path / "src.json"
    assert cli(["make-source", "--out", str(out), "--vocab-size", "9"]) == 0
    src = load_source(out)
    assert src.vocab_size == 9


def _flags_named(line: str) -> set[str]:
    """The ``--flag`` words of an error line."""
    return set(re.findall(r"(?<![\w/-])--[a-z][a-z-]*", line))


def _error_lines(err: str, command: str) -> list[str]:
    """``err`` without the usage that argparse prints before rejecting a flag's
    value; the commands' own checks print their one line alone."""
    if err.startswith(f"usage: driftlm {command}"):
        assert "\ndriftlm " in err and "error: argument --" in err, err
        err = err[err.index("\ndriftlm ") + 1 :]
    return err.splitlines()


@pytest.mark.parametrize(
    "flags, line",
    [
        (["--vocab-size", "3"], "--vocab-size 3: vocab_size must exceed the band width"),
        (["--band", "0.5,0.6"], "--band 0.5,0.6: every transition row must sum to 1"),
        (["--band", "nan,1"], "--band nan,1.0: probabilities must be nonnegative numbers"),
        (["--band", "0.5,x"], "argument --band: could not convert string to float: 'x'"),
    ],
)
def test_cli_make_source_bad_flag_is_a_usage_error(tmp_path, capsys, flags, line):
    out = tmp_path / "src.json"
    assert cli(["make-source", "--out", str(out), *flags]) == 2
    assert _error_lines(capsys.readouterr().err, "make-source") == [
        f"driftlm make-source: error: {line}"
    ]
    assert not out.exists()


def test_cli_unknown_flag_exits_2(capsys):
    assert cli(["eval", "--nonsense"]) == 2


def test_cli_unknown_command_exits_2(capsys):
    assert cli(["frobnicate"]) == 2


def test_cli_drift_train_requires_init(cli_env, capsys):
    tmp_path, source_path, config_path, _ = cli_env
    code = cli(
        [
            "drift-train",
            "--source",
            str(source_path),
            "--out",
            str(tmp_path / "run"),
            "--config",
            str(config_path),
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "text, named",
    [
        ('{"steps": "10"}', "steps"),
        ('{"steps": 10,', "config.json"),
        (None, "config.json"),
        ('{"drift": {"renormalize_sides": false}}', "drift.renormalize_sides"),
        *[
            (json.dumps({key: 0.5}), f"unknown top-level keys: [{key!r}]")
            for key in ("adam_beta1", "adam_beta2", "adam_eps", "t_min", "t_max", "init_std")
        ],
        ('{"drift": {"eps": 1e-06}}', "unknown drift keys: ['drift.eps']"),
        ('{"model": {"hidden_dim": 0}}', "model: hidden_dim must be >= 1, got 0"),
        ('{"model": {"hidden_dim": -1}}', "model: hidden_dim must be >= 1, got -1"),
        ('{"model": {"embed_dim": 0}}', "model: embed_dim must be >= 1, got 0"),
        ('{"model": {"n_blocks": 1}}', "model: n_blocks must be >= 2, got 1"),
        ('{"eval_nfes": [0]}', "eval_nfes must be >= 1, got 0"),
        ('{"eval_nfes": [4, 17]}', "eval_nfes must be <= 16, the model's sequence length"),
        ('{"seed": -1}', "seed must be >= 0, got -1"),
    ],
    ids=[
        "decoder-rejects", "truncated-json", "missing-file", "deleted-renormalize-sides",
        "deleted-adam-beta1", "deleted-adam-beta2", "deleted-adam-eps", "deleted-t-min",
        "deleted-t-max", "deleted-init-std", "deleted-drift-eps", "hidden-dim-0",
        "hidden-dim-minus-1", "embed-dim-0", "n-blocks-1", "eval-nfes-0", "eval-nfes-past-length",
        "negative-seed",
    ],
)
def test_cli_bad_config_is_a_usage_error(cli_env, capsys, text, named):
    tmp_path, source_path, _, _ = cli_env
    config_path = tmp_path / "bad" / "config.json"
    if text is not None:
        config_path.parent.mkdir()
        config_path.write_text(text, encoding="utf-8")
    out = tmp_path / "run"
    out.mkdir()
    argv = ["base-train", "--source", str(source_path), "--out", str(out), "--steps", "1",
            "--config", str(config_path)]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0]
    assert _flags_named(errors[0]) <= set(argv)
    assert "Traceback" not in err
    assert not any(out.iterdir())


# the argv of every command that reads --source or --init, with the files
# left as {source} and {init} slots
BOTH = ["--source", "{source}", "--init", "{init}"]
INPUT_COMMANDS = {
    "base-train": ["base-train", *BOTH],
    "drift-train": ["drift-train", *BOTH],
    "eval": ["eval", *BOTH],
    "sample": ["sample", "--init", "{init}"],
    "ablate": ["ablate", *BOTH, "--axis", "lift", "--grid", "soft"],
}


def _bad_value(flag: str, good_path) -> str:
    """JSON that decodes to a bad value: a transition row summing to 0.8, or
    Adam moments of the wrong shape."""
    doc = json.loads(good_path.read_text(encoding="utf-8"))
    if flag == "--source":
        doc["transition"][0][1] -= 0.2
    else:
        doc["adam_m"]["embed"].pop()
    return json.dumps(doc)


# what a bad input file holds, from the flag and a good file; None: no file
BAD_INPUTS = {
    "missing-file": lambda flag, good_path: None,
    "not-json": lambda flag, good_path: good_path.read_text(encoding="utf-8")[:40],
    "bad-value": _bad_value,
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
@pytest.mark.parametrize(
    "command, flag",
    [(cmd, flag) for cmd, argv in INPUT_COMMANDS.items() for flag in BOTH[::2] if flag in argv],
)
def test_cli_bad_input_file_is_a_usage_error(cli_env, capsys, command, flag, case):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    bad_path = tmp_path / "bad" / "input.json"
    text = BAD_INPUTS[case](flag, source_path if flag == "--source" else ckpt_path)
    if text is not None:
        bad_path.parent.mkdir()
        bad_path.write_text(text, encoding="utf-8")
    files = {"source": source_path, "init": ckpt_path, flag[2:]: bad_path}
    argv = [a.format(**files) for a in INPUT_COMMANDS[command]]
    out = tmp_path / "run"
    if command not in ("eval", "sample"):  # tiny runs, should a bad file be accepted
        argv += ["--config", str(config_path)]
    assert cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"{flag} {bad_path}" in errors[0], err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_base_then_drift_then_eval(cli_env, capsys):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    base_out = tmp_path / "base"
    code = cli(
        [
            "base-train",
            "--source",
            str(source_path),
            "--out",
            str(base_out),
            "--config",
            str(config_path),
            "--steps",
            "2",
        ]
    )
    assert code == 0
    assert (base_out / "manifest.json").exists()
    assert (base_out / "metrics.csv").exists()
    assert (base_out / "checkpoint.json").exists()
    manifest = json.loads((base_out / "manifest.json").read_text())
    assert manifest["command"] == "base-train"
    assert manifest["config"]["objective"] is None

    drift_out = tmp_path / "drift"
    code = cli(
        [
            "drift-train",
            "--source",
            str(source_path),
            "--out",
            str(drift_out),
            "--config",
            str(config_path),
            "--init",
            str(base_out / "checkpoint.json"),
            "--steps",
            "2",
            "--lift",
            "hard-st",
        ]
    )
    assert code == 0
    manifest = json.loads((drift_out / "manifest.json").read_text())
    assert manifest["config"]["objective"]["lift"] == "hard-st"

    eval_out = tmp_path / "eval"
    code = cli(
        [
            "eval",
            "--init",
            str(drift_out / "checkpoint.json"),
            "--source",
            str(source_path),
            "--out",
            str(eval_out),
            "--nfe",
            "2,3",
            "--samples",
            "8",
            "--seed",
            "5",
        ]
    )
    assert code == 0
    report = json.loads((eval_out / "report.json").read_text())
    assert [m["nfe"] for m in report["per_nfe"]] == [2, 3]
    assert report["seed"] == 5


def test_cli_train_prints_the_final_row(cli_env, capsys):
    tmp_path, source_path, config_path, _ = cli_env
    out = tmp_path / "base"
    argv = ["base-train", "--source", str(source_path), "--out", str(out)]
    assert cli([*argv, "--config", str(config_path), "--steps", "5", "--eval-every", "2"]) == 0
    header, *lines = (out / "metrics.csv").read_text().splitlines()
    final = dict(zip(header.split(","), lines[-1].split(",")))
    assert final["step"] == "5"
    shown = ", ".join(f"{k}={v}" for k, v in final.items() if k != "step")
    assert capsys.readouterr().out.splitlines()[-1] == f"finished 5 steps; {shown}"


def _cut_pos_embed(doc: dict) -> None:
    for part in (doc["params"], doc["adam_m"], doc["adam_v"]):
        part["pos_embed"] = [row[:4] for row in part["pos_embed"]]


def _cut_w2(doc: dict) -> None:
    for part in (doc["params"], doc["adam_m"], doc["adam_v"]):
        part["w2"] = [[row[:4] for row in block] for block in part["w2"]]


def _keep_one_block(doc: dict) -> None:
    for part in (doc["params"], doc["adam_m"], doc["adam_v"]):
        for name in ("w1", "b1", "w2", "b2"):
            part[name] = part[name][:1]


def _keep_one_token(doc: dict) -> None:
    for part in (doc["params"], doc["adam_m"], doc["adam_v"]):
        part["embed"] = part["embed"][:1]
        part["out_proj"] = [row[:1] for row in part["out_proj"]]


# a checkpoint edit whose moments still match its parameters, and the field
# the error must name
BAD_SHAPES = {
    "narrow-pos-embed": (_cut_pos_embed, r"pos_embed has shape \(6, 4\), expected \[L=6, d=8\]"),
    "narrow-w2": (_cut_w2, r"w2 has shape \(2, 12, 4\), expected \[B=2, h=12, d=8\]"),
    "one-block": (_keep_one_block, r"w1 stacks 1 block\(s\), need at least two"),
    "one-token": (_keep_one_token, r"vocab_size >= 2 and length >= 1 required"),
}


@pytest.mark.parametrize("case", list(BAD_SHAPES))
def test_inconsistent_checkpoint_shapes_are_rejected(cli_env, capsys, case):
    tmp_path, _, _, ckpt_path = cli_env
    edit, message = BAD_SHAPES[case]
    doc = json.loads(ckpt_path.read_text(encoding="utf-8"))
    edit(doc)
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(InvalidInputError, match=message):
        load_checkpoint(bad_path)
    assert cli(["sample", "--init", str(bad_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "Traceback" not in err
    assert re.search(message, errors[0])


def test_cli_sample_writes_jsonl(cli_env, capsys):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    out = tmp_path / "samples"
    code = cli(
        [
            "sample",
            "--init",
            str(ckpt_path),
            "--out",
            str(out),
            "--nfe",
            "3",
            "--samples",
            "5",
        ]
    )
    assert code == 0
    lines = (out / "samples.jsonl").read_text().strip().split("\n")
    assert len(lines) == 5
    seq = json.loads(lines[0])
    assert len(seq) == TINY_MODEL.length
    assert all(0 <= t < TINY_MODEL.clean_vocab for t in seq)


def test_cli_sample_writes_what_eval_scores(cli_env, capsys):
    tmp_path, source_path, _, ckpt_path = cli_env
    flags = ["--init", str(ckpt_path), "--seed", "4", "--nfe", "3", "--samples", "7"]
    assert cli(["sample", "--out", str(tmp_path / "s"), *flags]) == 0
    assert cli(["eval", "--source", str(source_path), "--out", str(tmp_path / "e"), *flags]) == 0
    lines = (tmp_path / "s" / "samples.jsonl").read_text().splitlines()
    seqs = np.asarray([json.loads(line) for line in lines])
    [scores] = json.loads((tmp_path / "e" / "report.json").read_text())["per_nfe"]
    assert scores["gen_ppl"] == oracle_gen_ppl(load_source(source_path), seqs)
    assert scores["entropy"] == entropy_metric(seqs)


def test_cli_eval_byte_identical_reruns(cli_env, capsys):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli(
            [
                "eval",
                "--init",
                str(ckpt_path),
                "--source",
                str(source_path),
                "--out",
                str(out),
                "--nfe",
                "2",
                "--samples",
                "6",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        outputs.append((out / "report.json").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("variant", ["feature-l2", "mirror-kl"])
def test_cli_drift_train_rerun_from_its_manifest_is_byte_identical(cli_env, capsys, variant):
    """A second run whose ``--config`` is the first manifest's config writes the same bytes."""
    tmp_path, source_path, config_path, ckpt_path = cli_env
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["drift-train", "--source", str(source_path), "--init", str(ckpt_path)]
    flags = ["--config", str(config_path), "--objective", variant, "--steps", "3"]
    assert cli([*argv, "--out", str(first), *flags]) == 0
    config = json.loads((first / "manifest.json").read_text())["config"]
    assert config["objective"]["variant"] == variant
    assert float(_read_rows(first / "metrics.csv")[-1]["drift_norm"]) > 0.0  # drift steps ran
    rerun_config = tmp_path / "rerun-config.json"
    rerun_config.write_text(json.dumps(config), encoding="utf-8")
    assert cli([*argv, "--out", str(second), "--config", str(rerun_config)]) == 0
    for name in ("metrics.csv", "checkpoint.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def _ablate_argv(cli_env, out, axis: str, grid: str | None, seeds: str) -> list[str]:
    """``ablate`` of the tiny config from the tiny checkpoint; no ``--grid`` if ``grid`` is None."""
    _, source_path, config_path, ckpt_path = cli_env
    argv = ["ablate", "--source", str(source_path), "--out", str(out), "--config",
            str(config_path), "--init", str(ckpt_path), "--axis", axis, "--seeds", seeds]
    return argv if grid is None else [*argv, "--grid", grid]


def _read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_ablate_writes_table(cli_env, capsys):
    out = cli_env[0] / "ablation"
    assert cli([*_ablate_argv(cli_env, out, "att_rep_ratio", "1:1,0:1", "0"), "--steps", "2"]) == 0
    rows = _read_rows(out / "ablation.csv")
    assert all(list(row) == ABLATION_HEADER for row in rows)
    # two grid values x two NFEs, and one seed has an SD of zero
    assert [(r["value"], r["nfe"]) for r in rows] == [
        ("1:1", "2"), ("1:1", "3"), ("0:1", "2"), ("0:1", "3")
    ]
    assert all(float(r[f"{m}_sd"]) == 0.0 and r["n_seeds"] == "1" for r in rows for m in METRICS)
    # an unknown axis is argparse's usage error
    assert cli(_ablate_argv(cli_env, cli_env[0] / "nope", "bogus", None, "0")) == 2
    assert not (cli_env[0] / "nope").exists()


def test_ablate_evaluates_each_final_model_once(cli_env, capsys, monkeypatch):
    tmp_path, source_path, _, ckpt_path = cli_env
    source, base, cfg = load_source(source_path), load_checkpoint(ckpt_path), tiny_train_config()
    grid, seeds = ["4", "8", "16"], (0, 1)
    calls = _counting(monkeypatch, "evaluate")
    out = tmp_path / "ablation"
    assert cli(_ablate_argv(cli_env, out, "queue_size", ",".join(grid), "0,1")) == 0
    assert len(calls) == len(grid) * len(seeds)
    monkeypatch.undo()
    # reference: the final rows of full runs, which also evaluate at step 0
    def final_row(value, seed):
        return train_run(replace(_axis(cfg, "queue_size", value), seed=seed), source, base)[1][-1]

    finals = {(value, seed): final_row(value, seed) for value in grid for seed in seeds}
    rows = _read_rows(out / "ablation.csv")
    assert len(rows) == len(grid) * len(cfg.eval_nfes)
    for row in rows:
        assert row["axis"] == "queue_size" and row["n_seeds"] == str(len(seeds))
        for m in METRICS:
            scores = [finals[row["value"], s][f"{m}_nfe{row['nfe']}"] for s in seeds]
            assert float(row[f"{m}_mean"]) == float(np.mean(scores))
            assert float(row[f"{m}_sd"]) == float(np.std(scores, ddof=0))


def test_cli_ablate_micro_batch_1_without_repulsion_runs(cli_env, capsys):
    out = cli_env[0] / "ablation"
    argv = _ablate_argv(cli_env, out, "att_rep_ratio", "1:0", "0")
    assert cli([*argv, "--micro-batch", "1", "--steps", "1"]) == 0
    assert [r["value"] for r in _read_rows(out / "ablation.csv")] == ["1:0", "1:0"]


def test_cli_ablate_manifest_names_only_the_seeds_that_ran(cli_env, capsys):
    out = cli_env[0] / "ablation"
    assert cli([*_ablate_argv(cli_env, out, "lift", "soft", "0,1"), "--steps", "0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seeds"] == [0, 1] and "seed" not in manifest["config"]
    assert manifest["config"]["queue_capacity"] == tiny_train_config().queue_capacity


def test_cli_drift_train_takes_no_alpha_flag(cli_env, capsys, monkeypatch):
    # the deleted objective alpha, which a config names in a BAD_RUN_FLAGS case
    tmp_path, source_path, _, ckpt_path = cli_env
    trained = _counting(monkeypatch, "train_run")
    out = tmp_path / "run"
    out.mkdir()
    argv = ["drift-train", "--init", str(ckpt_path), "--alpha", "2", "--source", str(source_path),
            "--out", str(out), "--steps", "1"]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "driftlm drift-train: error: unrecognized arguments: --alpha 2"
    assert trained == [] and not any(out.iterdir())


def test_cli_ablate_takes_no_seed_flag(cli_env, capsys, monkeypatch):
    trained = _counting(monkeypatch, "train_run")
    out = cli_env[0] / "run"
    out.mkdir()
    assert cli([*_ablate_argv(cli_env, out, "lift", "soft", "0"), "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "driftlm ablate: error: unrecognized arguments: --seed 1"
    assert trained == [] and not any(out.iterdir())


# the paper's ablation grids, which ablate runs for an axis given no --grid
PAPER_GRIDS = {
    "lift": "soft,hard-st",
    "att_rep_ratio": "1:1,1:0,2:1,0:1,1:2",
    "queue_size": "4,64,256",
}


@pytest.mark.parametrize("axis", list(PAPER_GRIDS))
def test_cli_ablate_without_grid_runs_the_paper_grid(cli_env, capsys, axis):
    """Run without ``--grid``, an axis writes the bytes of its explicit paper grid."""
    default, explicit = cli_env[0] / "default", cli_env[0] / "explicit"
    for out, grid in ((default, None), (explicit, PAPER_GRIDS[axis])):
        assert cli([*_ablate_argv(cli_env, out, axis, grid, "0"), "--steps", "1"]) == 0
    for name in ("ablation.csv", "manifest.json"):
        assert (default / name).read_bytes() == (explicit / name).read_bytes(), name
    values = list(dict.fromkeys(row["value"] for row in _read_rows(default / "ablation.csv")))
    assert values == PAPER_GRIDS[axis].split(",")


@pytest.mark.parametrize("axis", ["objective", "temperature_set"])
def test_cli_ablate_axis_without_a_default_grid_needs_grid(cli_env, capsys, monkeypatch, axis):
    trained = _counting(monkeypatch, "train_run")
    out = cli_env[0] / "run"
    out.mkdir()
    assert cli(_ablate_argv(cli_env, out, axis, None, "0")) == 2
    errors = _error_lines(capsys.readouterr().err, "ablate")
    assert errors == [f"driftlm ablate: error: --axis {axis} has no default grid; "
                      "give its values with --grid"]
    assert trained == [] and not any(out.iterdir())


@pytest.mark.parametrize(
    "axis,grid,line",
    [
        ("queue_size", "abc", "--grid abc: invalid literal for int()"),
        ("att_rep_ratio", "1", "--grid 1: expected w_plus:w_minus"),
        ("att_rep_ratio", "1:2:3", "--grid 1:2:3: expected w_plus:w_minus"),
        ("lift", "nope", "--grid nope: objective.lift must be one of"),
        ("objective", "feature-l2,mirror-mse", "--grid mirror-mse: objective.variant must be"),
        ("temperature_set", "0.1/0.1", "--grid 0.1/0.1: drift: temperatures must be distinct"),
        ("queue_size", "0", "--grid 0: queue_capacity must be >= 1"),
        ("queue_size", "4,abc", "--grid abc: invalid literal for int()"),
        ("queue_size", "4,4", "--grid 4: repeated value"),
        ("queue_size", "4,", "--grid : empty value"),
    ],
)
def test_cli_ablate_bad_grid_is_a_usage_error(cli_env, capsys, monkeypatch, axis, grid, line):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    calls = _counting(monkeypatch, "train_run")
    out = tmp_path / "ablation"
    argv = ["ablate", "--source", str(source_path), "--config", str(config_path)]
    argv += ["--init", str(ckpt_path), "--out", str(out), "--axis", axis, "--grid", grid]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"driftlm ablate: error: {line}") and err.count("\n") == 1
    assert calls == [] and not out.exists()


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
    "--base-steps -1": "steps must be >= 0 and eval_every >= 1",
}


@pytest.mark.parametrize("flags", list(BAD_STUDY_FLAGS))
def test_study_bad_flag_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch, flags):
    trained = _counting(monkeypatch, "train_run")
    out = tmp_path / "study"
    out.mkdir()
    argv = ["study", "--out", str(out), "--corruption", "masked", "--base-steps", "2",
            "--phase-steps", "2", "--samples", "16", *flags.split()]
    assert cli(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1, errors
    cause = BAD_STUDY_FLAGS[flags]
    want = cause if cause.startswith("argument ") else f"{flags}: {cause}"
    assert errors[0].startswith(f"driftlm study: error: {want}")
    assert trained == [] and not any(out.iterdir())


def _study(out, *flags: str) -> int:
    """A toy study run: one phase step, one seed, 4 samples at NFE 4."""
    return cli(["study", "--out", str(out), "--base-batch", "8", "--phase-steps", "1",
                "--seeds", "0", "--samples", "4", "--nfe", "4", *flags])


def test_cli_study_runs_both_backbones_by_default(tmp_path, capsys):
    out = tmp_path / "study"
    assert _study(out, "--base-steps", "1") == 0
    for kind in ("masked", "uniform"):
        table = out / f"{kind}-summary.csv"
        assert table.read_text().splitlines()[0] == "method,seed,gen_ppl_nfe4,entropy_nfe4"
        assert [row["method"] for row in _read_rows(table)] == ["base", "continuation", "drift"]
        for run in ("base", "cont-s0", "drift-s0"):
            assert (out / f"{kind}-{run}").is_dir()
        # a phase run evaluates its final model once, at the study's plan
        assert (out / f"{kind}-cont-s0" / "metrics.csv").read_text().splitlines()[0] == (
            "step,loss,drift_norm,grad_norm,gen_ppl_nfe4,entropy_nfe4"
        )
        assert len(_read_rows(out / f"{kind}-cont-s0" / "metrics.csv")) == 1
    assert json.loads((out / "manifest.json").read_text())["command"] == "study"


def test_cli_study_takes_a_zero_step_base(tmp_path, capsys):
    out = tmp_path / "study"
    assert _study(out, "--corruption", "masked", "--base-steps", "0") == 0
    assert [row["step"] for row in _read_rows(out / "masked-base" / "metrics.csv")] == ["0"]


# command, its flags after --init, --out and --source, and the start of its
# one stderr line; "{init}" and "{config}" are the tiny checkpoint and
# config, "{micro_batch_1}" that config with micro_batch 1, "{alpha}" a config
# that sets the deleted objective alpha, and "{default}" the default config's
# model, which "{init}" does not fit
BAD_RUN_FLAGS = {
    "sample-nfe-past-length": (
        "sample", ["--nfe", "7"],
        "--nfe 7: eval_nfes must be <= 6, the model's sequence length, for masked sampling, "
        "got 7",
    ),
    "sample-nfe-0": ("sample", ["--nfe", "0"], "--nfe 0: eval_nfes must be >= 1, got 0"),
    "sample-uniform-nfe-0": (
        "sample", ["--corruption", "uniform", "--nfe", "0"], "--nfe 0: eval_nfes must be >= 1",
    ),
    "sample-no-samples": (
        "sample", ["--samples", "0"], "--samples 0: eval_samples must be >= 1, got 0",
    ),
    "eval-second-nfe-past-length": (
        "eval", ["--nfe", "2,7"], "--nfe 2,7: eval_nfes must be <= 6, the model's sequence length",
    ),
    "eval-no-samples": (
        "eval", ["--samples", "0"], "--samples 0: eval_samples must be >= 1, got 0",
    ),
    "eval-repeated-nfe": ("eval", ["--nfe", "3,2,3"], "--nfe 3,2,3: eval_nfes must be distinct"),
    "eval-repeated-adjacent-nfe": (
        "eval", ["--nfe", "4,4"], "--nfe 4,4: eval_nfes must be distinct",
    ),
    "eval-bad-nfe-item": (
        "eval", ["--nfe", "4,x"], "argument --nfe: invalid literal for int() with base 10: 'x'",
    ),
    "sample-negative-seed": ("sample", ["--seed", "-1"], "--seed -1: seed must be >= 0, got -1"),
    "eval-negative-seed": ("eval", ["--seed", "-1"], "--seed -1: seed must be >= 0, got -1"),
    "drift-train-init-shape": (
        "drift-train", [],
        "--init {init} holds a model of vocab_size=8, length=6, embed_dim=8, hidden_dim=12, "
        "n_blocks=2, but the config's model is {default}",
    ),
    "ablate-init-shape": (
        "ablate", ["--axis", "lift", "--grid", "soft"],
        "--init {init} holds a model of vocab_size=8, length=6",
    ),
    "ablate-repeated-seed": (
        "ablate", ["--config", "{config}", "--axis", "lift", "--grid", "soft", "--seeds", "0,0"],
        "--seeds 0,0: repeated seed",
    ),
    "ablate-bad-seed": (
        "ablate", ["--config", "{config}", "--axis", "lift", "--grid", "soft", "--seeds", "0,x"],
        "--seeds 0,x: invalid literal for int()",
    ),
    "ablate-negative-seed": (
        "ablate", ["--config", "{config}", "--axis", "lift", "--grid", "soft", "--seeds", "0,-1"],
        "--seeds 0,-1: seed must be >= 0, got -1",
    ),
    "ablate-nfe-0": (
        "ablate", ["--config", "{config}", "--axis", "lift", "--grid", "soft", "--nfe", "0"],
        "eval_nfes must be >= 1, got 0",
    ),
    "base-train-nfe-0": (
        "base-train", ["--config", "{config}", "--nfe", "0"], "eval_nfes must be >= 1, got 0",
    ),
    "base-train-nfe-past-length": (
        "base-train", ["--config", "{config}", "--nfe", "2,7"],
        "eval_nfes must be <= 6, the model's sequence length, for masked sampling, got 7",
    ),
    "base-train-bad-nfe-item": (
        "base-train", ["--config", "{config}", "--nfe", "4,x"],
        "argument --nfe: invalid literal for int() with base 10: 'x'",
    ),
    "base-train-repeated-nfe": (
        "base-train", ["--config", "{config}", "--nfe", "2,2"], "eval_nfes must be distinct",
    ),
    "base-train-uniform-nfe-0": (
        "base-train", ["--config", "{config}", "--corruption", "uniform", "--nfe", "0"],
        "eval_nfes must be >= 1, got 0",
    ),
    "base-train-negative-seed": (
        "base-train", ["--config", "{config}", "--seed", "-1"], "seed must be >= 0, got -1",
    ),
    "base-train-nan-lr": (
        "base-train", ["--config", "{config}", "--lr", "nan"],
        "lr must be positive and finite",
    ),
    "drift-train-bad-temperature-item": (
        "drift-train", ["--config", "{config}", "--temperatures", "0.1,x"],
        "argument --temperatures: could not convert string to float: 'x'",
    ),
    "drift-train-nan-temperature": (
        "drift-train", ["--config", "{config}", "--temperatures", "0.1,nan"],
        "drift: temperatures must be a nonempty list of positive reals",
    ),
    # the deleted mirror-mse variant and objective alpha
    "drift-train-deleted-mirror-mse": (
        "drift-train", ["--objective", "mirror-mse"],
        "argument --objective: invalid choice: 'mirror-mse'",
    ),
    "drift-train-deleted-alpha": (
        "drift-train", ["--config", "{alpha}"],
        "--config {alpha}: unknown objective keys: ['objective.alpha']",
    ),
    "drift-train-nan-eta": (
        "drift-train", ["--config", "{config}", "--objective", "mirror-kl", "--eta", "nan"],
        "objective: eta must be nonnegative and finite",
    ),
    # every run starts with an empty generated queue, so a one-sequence
    # micro-batch with repulsion on has no negatives at its first drift step
    "drift-train-micro-batch-1": (
        "drift-train", ["--config", "{config}", "--micro-batch", "1"],
        "micro_batch 1 leaves each anchor no negatives while w_minus > 0",
    ),
    "drift-train-config-micro-batch-1": (
        "drift-train", ["--config", "{micro_batch_1}"],
        "micro_batch 1 leaves each anchor no negatives while w_minus > 0",
    ),
    "ablate-micro-batch-1-repulsion": (
        "ablate", ["--config", "{config}", "--axis", "att_rep_ratio", "--grid", "1:0,1:1",
                   "--micro-batch", "1"],
        "--grid 1:1: micro_batch 1 leaves each anchor no negatives while w_minus > 0",
    ),
}


@pytest.mark.parametrize("case", list(BAD_RUN_FLAGS))
def test_cli_bad_run_flag_is_a_usage_error_before_any_work(cli_env, capsys, monkeypatch, case):
    tmp_path, source_path, config_path, ckpt_path = cli_env
    command, flags, line = BAD_RUN_FLAGS[case]
    files = dict(init=ckpt_path, config=config_path, micro_batch_1=tmp_path / "micro1.json",
                 alpha=tmp_path / "alpha.json")
    files["micro_batch_1"].write_text(
        json.dumps(train_config_to_dict(tiny_train_config(micro_batch=1))), encoding="utf-8"
    )
    files["alpha"].write_text('{"objective": {"alpha": 2.0}}', encoding="utf-8")
    default = ", ".join(f"{k}={v}" for k, v in vars(ModelConfig()).items())
    sampled = _counting(monkeypatch, "sample_batch")
    trained = _counting(monkeypatch, "train_run")
    out = tmp_path / "run"
    out.mkdir()
    argv = [command, "--init", str(ckpt_path), "--out", str(out)]
    if command != "sample":
        argv += ["--source", str(source_path)]
    argv += [flag.format(**files) for flag in flags]
    assert cli(argv) == 2
    errors = _error_lines(capsys.readouterr().err, command)
    want = line.format(**files, default=default)
    assert len(errors) == 1 and errors[0].startswith(f"driftlm {command}: error: {want}"), errors
    assert _flags_named(errors[0]) <= set(argv)
    assert sampled == [] and trained == [] and not any(out.iterdir())


# command and its flags after --source and --out; "{init}" and "{config}" are
# the tiny checkpoint and config, whose model has 8 tokens
MISFIT_SOURCE_RUNS = {
    "base-train": ["--config", "{config}"],
    "drift-train": ["--config", "{config}", "--init", "{init}"],
    "ablate": ["--config", "{config}", "--init", "{init}", "--axis", "lift", "--grid", "soft"],
    "eval": ["--init", "{init}"],
}


@pytest.mark.parametrize("command", list(MISFIT_SOURCE_RUNS))
def test_cli_source_vocabulary_misfit_is_a_usage_error(cli_env, capsys, monkeypatch, command):
    tmp_path, _, config_path, ckpt_path = cli_env
    source_path = tmp_path / "source5.json"
    save_source(banded_source(vocab_size=5), source_path)
    files = dict(init=ckpt_path, config=config_path)
    sampled = _counting(monkeypatch, "sample_batch")
    trained = _counting(monkeypatch, "train_run")
    out = tmp_path / "run"
    argv = [command, "--source", str(source_path), "--out", str(out)]
    assert cli(argv + [flag.format(**files) for flag in MISFIT_SOURCE_RUNS[command]]) == 2
    err = capsys.readouterr().err
    model = "the --init checkpoint" if command == "eval" else "the config's model"
    want = f"--source {source_path} has 5 tokens, but {model} has a vocabulary of 8; it must be 6"
    assert err.startswith(f"driftlm {command}: error: {want}") and err.count("\n") == 1, err
    assert sampled == [] and trained == [] and not out.exists()


def test_compare_rejects_a_repeated_seed(monkeypatch):
    source, base, cfg = _compare_setup()
    calls = _counting(monkeypatch, "train_run")
    with pytest.raises(InvalidInputError, match=r"repeated seed in \[1, 0, 1\]"):
        compare({"cont": cfg}, source, base, (1, 0, 1))
    assert calls == []


def _with(path: str, value) -> dict:
    """The tiny config's JSON with the value at a dotted path replaced."""
    doc = train_config_to_dict(tiny_train_config())
    *sections, name = path.split(".")
    node = doc
    for section in sections:
        node = node[section]
    node[name] = value
    return doc


BAD_CONFIGS = {
    "drift-null": (_with("drift", None), "drift"),
    "model-null": (_with("model", None), "model"),
    "top-level-list": ([["steps", 10]], "top-level"),
    "bad-enum": (_with("objective.variant", "bogus"), "objective.variant"),
    "deleted-mirror-mse": (
        _with("objective.variant", "mirror-mse"),
        r"^objective.variant must be one of \['feature-l2', 'mirror-kl'\], got 'mirror-mse'$",
    ),
    "float-in-int-list": (_with("eval_nfes", [4.7, 8]), r"eval_nfes\[0\]"),
    "repeated-nfe": (_with("eval_nfes", [4, 8, 4]), "eval_nfes must be distinct"),
    "string-int": (_with("steps", "10"), "steps"),
    "float-for-int": (_with("batch_size", 32.0), "batch_size"),
    "string-for-tuple": (_with("drift.temperatures", "0.1"), "drift.temperatures"),
    "string-for-bool": (_with("objective.with_base_loss", "false"), "objective.with_base_loss"),
    "bool-for-int": (_with("steps", True), "steps"),
    "bool-for-float": (_with("drift.w_plus", True), "drift.w_plus"),
    "nan-lr": (_with("lr", float("nan")), "lr must be positive and finite"),
    "nan-temperature": (_with("drift.temperatures", [0.1, float("nan")]), "drift: temperatures"),
    "inf-temperature": (_with("drift.temperatures", [float("inf")]), "drift: temperatures"),
    "nan-w-plus": (_with("drift.w_plus", float("nan")), "drift: attraction/repulsion"),
    "inf-w-minus": (_with("drift.w_minus", float("inf")), "drift: attraction/repulsion"),
    "nan-eta": (_with("objective.eta", float("nan")), "objective: eta"),
    "huge-int-for-float": (_with("lr", 10**400), "^lr must be a number within float range"),
}


@pytest.mark.parametrize("case", list(BAD_CONFIGS))
def test_train_config_rejects_bad_values_naming_the_field(case):
    doc, path = BAD_CONFIGS[case]
    with pytest.raises(InvalidInputError, match=path):
        decode(TrainConfig, doc)


def test_train_config_partial_sections_take_defaults():
    doc = {"objective": {"variant": "mirror-kl"}, "drift": {"w_minus": 2}}
    cfg = decode(TrainConfig, doc)
    assert cfg.objective == ObjectiveKind(variant=ObjectiveVariant.MIRROR_KL)
    assert cfg.drift == DriftConfig(w_minus=2.0)
    assert type(cfg.drift.w_minus) is float  # an int stands for a float
    assert replace(cfg, objective=None, drift=DriftConfig()) == TrainConfig()


# the parent surface of the training subcommands: (flags, choices, default, required)
TRAIN_SURFACE = [
    ("-h/--help", None, "==SUPPRESS==", False),
    ("--source", None, None, True),
    ("--out", None, None, True),
    ("--config", None, None, False),
    ("--seed", None, None, False),
    ("--steps", None, None, False),
    ("--lr", None, None, False),
    ("--batch-size", None, None, False),
    ("--micro-batch", None, None, False),
    ("--eval-every", None, None, False),
    ("--samples", None, None, False),
    ("--nfe", None, None, False),
    ("--queue-capacity", None, None, False),
    ("--corruption", ["masked", "uniform"], None, False),
]
DRIFT_SURFACE = [
    ("--objective", ["feature-l2", "mirror-kl"], None, False),
    ("--with-base-loss", None, None, False),
    ("--lift", ["soft", "hard-st"], None, False),
    ("--eta", None, None, False),
    ("--w-plus", None, None, False),
    ("--w-minus", None, None, False),
    ("--temperatures", None, None, False),
]
CLI_SURFACE = {
    "base-train": TRAIN_SURFACE + [("--init", None, None, False)],
    "drift-train": TRAIN_SURFACE + [("--init", None, None, True)] + DRIFT_SURFACE,
    "ablate": [flag for flag in TRAIN_SURFACE if flag[0] != "--seed"]
    + [("--init", None, None, True)]
    + DRIFT_SURFACE
    + [
        (
            "--axis",
            ["lift", "objective", "queue_size", "att_rep_ratio", "temperature_set"],
            None,
            True,
        ),
        ("--grid", None, None, False),
        ("--seeds", None, "0,1,2", False),
    ],
    "study": [
        ("-h/--help", None, "==SUPPRESS==", False),
        ("--out", None, "runs/directional", False),
        ("--corruption", ["masked", "uniform", "both"], "both", False),
        ("--base-steps", None, 2000, False),
        ("--phase-steps", None, 2000, False),
        ("--base-lr", None, 6e-3, False),
        ("--phase-lr", None, 3e-6, False),
        ("--base-batch", None, 512, False),
        ("--seeds", None, "0,1,2", False),
        ("--nfe", None, (4, 8, 16), False),
        ("--samples", None, 2048, False),
    ],
}


@pytest.mark.parametrize("command", list(CLI_SURFACE))
def test_cli_train_flag_surface(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = [
        ("/".join(a.option_strings), a.choices and list(a.choices), a.default, a.required)
        for a in sub.choices[command]._actions
    ]
    assert surface == CLI_SURFACE[command]


def resolve(*argv: str) -> TrainConfig:
    args = build_parser().parse_args([*argv, "--source", "s", "--out", "o"])
    return _resolve_train_config(args, drift_phase=args.command != "base-train")


def test_cli_flags_override_config_paths(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(NON_DEFAULT_JSON), encoding="utf-8")
    config = ("--config", str(config_path))
    base = resolve("base-train", *config, "--lr", "0.5", "--nfe", "4,8")
    assert base == replace(NON_DEFAULT_CONFIG, objective=None, lr=0.5, eval_nfes=(4, 8))
    drift = resolve("drift-train", *config, "--init", "i", "--lift", "soft", "--w-plus", "3")
    objective = replace(NON_DEFAULT_CONFIG.objective, lift=LiftKind.SOFT)
    assert drift == replace(
        NON_DEFAULT_CONFIG, objective=objective, drift=replace(NON_DEFAULT_CONFIG.drift, w_plus=3.0)
    )
    # without --config: the lr rule, and drifting starts from the default objective
    assert resolve("base-train") == TrainConfig()
    assert resolve("base-train", "--init", "i") == TrainConfig(lr=3e-5)
    assert resolve("drift-train", "--init", "i") == TrainConfig(lr=3e-5, objective=ObjectiveKind())

