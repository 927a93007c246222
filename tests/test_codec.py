"""The JSON codec: bitwise round trips and errors that name the dotted path."""

from __future__ import annotations

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import SMALL_MODEL
from driftlm.backbone import CorruptionKind, ModelConfig, init_params, param_items
from driftlm.codec import decode, jsonable
from driftlm.corpus import MarkovSource, banded_source
from driftlm.drift import DriftConfig
from driftlm.encoder import LiftKind
from driftlm.numcore import InvalidInputError
from driftlm.objectives import ObjectiveKind, ObjectiveVariant
from driftlm.trainer import (
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    TrainConfig,
    checkpoint_of,
    init_state,
    load_checkpoint,
)

# signed zeros, the smallest and the largest subnormal, and +-1e308
TINY = [0.0, -0.0, 5e-324, 2.225073858507201e-308]
SPECIAL = TINY + [-5e-324, -2.225073858507201e-308, 1e308, -1e308]


def floats(ok=lambda x: True):
    return (st.sampled_from(SPECIAL) | st.floats(allow_nan=False, allow_infinity=False)).filter(ok)


def roundtrip(tp, value):
    return decode(tp, json.loads(json.dumps(jsonable(value))))


def assert_same(a, b):
    """Equal types and values, floats and arrays bit for bit."""
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    elif dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            assert_same(a[k], b[k])
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b)
    else:
        assert a == b


# ---------------------------------------------------------------------------
# round trips


@st.composite
def markov_sources(draw):
    # a probability is never negative or above 1, so +-1e308 cannot appear;
    # -0.0 and subnormals can, and leave every sum within the tolerance
    k = draw(st.integers(1, 5))
    weights = draw(arrays(np.float64, (k + 1, k), elements=st.floats(0.01, 1.0)))
    probs = weights / weights.sum(axis=1, keepdims=True)
    mask = draw(arrays(np.bool_, probs.shape))
    probs[mask] = draw(st.sampled_from(TINY))
    probs[:, 0] += 1.0 - probs.sum(axis=1)
    return MarkovSource(vocab_size=k, initial=probs[0], transition=probs[1:])


@given(markov_sources())
def test_markov_source_roundtrip_is_bitwise(source):
    assert_same(roundtrip(MarkovSource, source), source)


@st.composite
def checkpoints(draw):
    model = ModelConfig(
        vocab_size=draw(st.integers(3, 5)),
        length=draw(st.integers(1, 3)),
        embed_dim=draw(st.integers(3, 4)),
        hidden_dim=draw(st.integers(1, 3)),
        n_blocks=draw(st.integers(2, 3)),
    )
    params = init_params(model, np.random.default_rng(0), init_std=0.02)
    shapes = [(name, arr.shape) for name, arr in param_items(params)]

    def tensors():
        return {name: draw(arrays(np.float64, shape, elements=floats())) for name, shape in shapes}

    for (_, arr), values in zip(param_items(params), tensors().values()):
        arr[...] = values
    params.embed.flat[: len(SPECIAL)] = SPECIAL
    return Checkpoint(params=params, adam_m=tensors(), adam_v=tensors(),
                      step=draw(st.integers(0, 2**53)))


@given(checkpoints())
def test_checkpoint_roundtrip_is_bitwise(checkpoint):
    assert_same(roundtrip(Checkpoint, checkpoint), checkpoint)


@st.composite
def train_configs(draw):
    micro_batch = draw(st.integers(1, 8))
    w_plus = draw(floats(lambda x: x >= 0.0))
    w_minus = draw(floats(lambda x: x > 0.0)) if w_plus == 0.0 else draw(floats(lambda x: x >= 0.0))
    objective = ObjectiveKind(
        variant=draw(st.sampled_from(ObjectiveVariant)),
        with_base_loss=draw(st.booleans()),
        lift=draw(st.sampled_from(LiftKind)),
        eta=draw(floats(lambda x: x >= 0.0)),
    )
    corruption = draw(st.sampled_from(CorruptionKind))
    length = draw(st.integers(1, 64))
    max_nfe = length if corruption == CorruptionKind.MASKED else 64  # masked: one step per position
    return TrainConfig(
        batch_size=micro_batch * draw(st.integers(1, 4)),
        micro_batch=micro_batch,
        steps=draw(st.integers(0, 10**6)),
        lr=draw(floats(lambda x: x > 0.0)),
        seed=draw(st.integers(0, 2**63)),
        objective=draw(st.none() | st.just(objective)),
        drift=DriftConfig(
            temperatures=tuple(
                draw(st.lists(floats(lambda x: x > 0.0), min_size=1, max_size=4, unique=True))
            ),
            w_plus=w_plus,
            w_minus=w_minus,
        ),
        corruption=corruption,
        eval_every=draw(st.integers(1, 1000)),
        queue_capacity=draw(st.integers(1, 1024)),
        model=ModelConfig(
            vocab_size=draw(st.integers(2, 64)),
            length=length,
            embed_dim=draw(st.integers(1, 64)),
            hidden_dim=draw(st.integers(1, 64)),
            n_blocks=draw(st.integers(2, 4)),
        ),
        eval_nfes=tuple(
            draw(st.lists(st.integers(1, max_nfe), min_size=1, max_size=4, unique=True))
        ),
        eval_samples=draw(st.integers(1, 4096)),
    )


@given(train_configs())
def test_train_config_roundtrip_is_bitwise(config):
    assert_same(roundtrip(TrainConfig, config), config)


def test_checkpoint_roundtrip_keeps_the_special_values():
    checkpoint = checkpoint_of(init_state(TrainConfig(model=SMALL_MODEL, eval_nfes=(4,))))
    checkpoint.params.embed.flat[: len(SPECIAL)] = SPECIAL
    text = json.dumps(jsonable(checkpoint))
    assert all(repr(v) in text for v in SPECIAL)
    assert_same(roundtrip(Checkpoint, checkpoint), checkpoint)


# ---------------------------------------------------------------------------
# errors name the dotted path


def source_doc() -> dict:
    return jsonable(banded_source(vocab_size=4, band=(0.5, 0.5)))


def checkpoint_doc() -> dict:
    state = init_state(TrainConfig(model=SMALL_MODEL, eval_nfes=(4,)))
    return json.loads(json.dumps(jsonable(checkpoint_of(state))))


def test_ragged_transition_row_names_transition():
    doc = source_doc()
    doc["transition"][1].pop()
    with pytest.raises(InvalidInputError, match="transition must be a rectangular list"):
        decode(MarkovSource, doc)


def test_string_inside_params_embed_names_params_embed():
    doc = checkpoint_doc()
    doc["params"]["embed"][2][1] = "0.5"
    message = r"params\.embed must hold only numbers, found \['str'\]"
    with pytest.raises(InvalidInputError, match=message):
        decode(Checkpoint, doc)


def test_missing_step_is_named():
    doc = checkpoint_doc()
    del doc["step"]
    with pytest.raises(InvalidInputError, match=r"missing top-level keys: \['step'\]"):
        decode(Checkpoint, doc)


def test_unknown_key_under_a_block_is_named():
    # the block weights are the stacked w1, b1, w2 and b2 under params
    doc = checkpoint_doc()
    doc["params"]["w3"] = [[[0.0]]]
    message = r"unknown params keys: \['params\.w3'\]"
    with pytest.raises(InvalidInputError, match=message):
        decode(Checkpoint, doc)


def test_nested_post_init_error_is_prefixed_with_its_path():
    # a nested dataclass's own checks run after its keys decoded; the path
    # goes in front of the message once, and a top-level check stays as it is
    model = ModelConfig(embed_dim=8, hidden_dim=12)
    params = jsonable(init_params(model, np.random.default_rng(0), init_std=0.02))
    params["w2"] = [[row[:4] for row in block] for block in params["w2"]]
    doc = {"params": params, "adam_m": {}, "adam_v": {}, "step": 0}
    message = r"^params: w2 has shape \(2, 12, 4\), expected \[B=2, h=12, d=8\]$"
    with pytest.raises(InvalidInputError, match=message):
        decode(Checkpoint, doc)
    with pytest.raises(InvalidInputError, match="^drift: temperatures must be distinct$"):
        decode(TrainConfig, {"drift": {"temperatures": [0.1, 0.1]}})
    with pytest.raises(InvalidInputError, match="^batch_size must be >= 1, got 0$"):
        decode(TrainConfig, {"batch_size": 0})


# (keys down to one array item, the value put there, the expected message)
BAD_ARRAY_ITEMS = {
    "bool": (
        ("params", "w2", 1, 0, 0),
        True,
        r"params\.w2 must hold only numbers, found \['bool'\]",
    ),
    "null": (
        ("adam_m", "out_proj", 1, 1),
        None,
        r"adam_m\['out_proj'\] must hold only numbers, found \['NoneType'\]",
    ),
    "ragged-depth": (
        ("adam_v", "embed", 0, 0),
        [1.0],
        r"adam_v\['embed'\] must be a rectangular list of numbers",
    ),
}


def bad_array_item_doc(case: str) -> dict:
    (*keys, last), value, _ = BAD_ARRAY_ITEMS[case]
    doc = checkpoint_doc()
    node = doc
    for key in keys:
        node = node[key]
    node[last] = value
    return doc


@pytest.mark.parametrize("case", list(BAD_ARRAY_ITEMS))
def test_bad_array_items_are_named(case):
    with pytest.raises(InvalidInputError, match=BAD_ARRAY_ITEMS[case][2]):
        decode(Checkpoint, bad_array_item_doc(case))


@pytest.mark.parametrize("case", list(BAD_ARRAY_ITEMS))
def test_bad_array_items_in_a_checkpoint_file_are_named(tmp_path, case):
    # the reader's object hook leaves a list that is no float array to decode
    path = tmp_path / "ckpt.json"
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION}
    path.write_text(json.dumps({**header, **bad_array_item_doc(case)}), encoding="utf-8")
    with pytest.raises(InvalidInputError, match=BAD_ARRAY_ITEMS[case][2]):
        load_checkpoint(path)


def test_scalar_for_an_array_is_named():
    doc = source_doc()
    doc["initial"] = 0.25
    with pytest.raises(InvalidInputError, match="initial must be a list of numbers, got 0.25"):
        decode(MarkovSource, doc)


def test_a_non_object_for_a_dict_field_is_named():
    doc = checkpoint_doc()
    doc["adam_m"] = [1.0]
    with pytest.raises(InvalidInputError, match=r"^adam_m must be an object, got \[1\.0\]$"):
        decode(Checkpoint, doc)


def test_moments_must_match_the_parameters():
    doc = checkpoint_doc()
    doc["adam_v"]["b1"] = doc["adam_v"]["b1"][:-1]  # one block short
    message = r"adam_v does not match the parameters at \['b1'\]"
    with pytest.raises(InvalidInputError, match=message):
        decode(Checkpoint, doc)


def test_nan_probability_is_rejected():
    doc = source_doc()
    doc["initial"][0] = float("nan")
    with pytest.raises(InvalidInputError, match="nonnegative numbers"):
        decode(MarkovSource, json.loads(json.dumps(doc)))


# a list where no array goes reads as the list it is, also when the reader's
# object hook made it an array: (key, its value, the error, its message)
LISTS_OUTSIDE_AN_ARRAY = {
    "int-list": ("step", [1], InvalidInputError, r"^step must be int, got \[1\]$"),
    "float-list": ("step", [1.0], InvalidInputError, r"^step must be int, got \[1\.0\]$"),
    "nested": ("step", {"a": [0.5]}, InvalidInputError, r"^step must be int, got \{'a': \[0\.5"),
    "version": ("version", [4.0], CheckpointError, r"^checkpoint version \[4\.0\] != supported 4$"),
    "format": ("format", [1.0, 2.0], CheckpointError, "is not a driftlm-checkpoint file$"),
}


@pytest.mark.parametrize("case", list(LISTS_OUTSIDE_AN_ARRAY))
def test_list_outside_an_array_reads_as_a_list(tmp_path, case):
    key, value, error, message = LISTS_OUTSIDE_AN_ARRAY[case]
    path = tmp_path / "ckpt.json"
    doc = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION, **checkpoint_doc()}
    path.write_text(json.dumps({**doc, key: value}), encoding="utf-8")
    with pytest.raises(error, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("version", [1, 2, 3])
def test_old_checkpoint_version_is_rejected(tmp_path, version):
    # version 2 keyed the block weights per block (params.blocks, block1.w1);
    # version 3 kept a second step counter, adam_t
    path = tmp_path / "ckpt.json"
    doc = {"format": CHECKPOINT_FORMAT, "version": version, **checkpoint_doc()}
    path.write_text(json.dumps(doc))
    with pytest.raises(CheckpointError, match=f"version {version} != supported 4"):
        load_checkpoint(path)
