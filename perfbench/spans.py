"""Span tracer for the benchmark's traced run.

The tracer wraps driftlm functions at the module attributes their callers
look them up by (``trainer.drift_multi_temp`` is what ``train_step`` calls,
``backbone.forward_tokens`` is what the sampler calls), records one span per
call -- name, start, end, parent and a work count -- and reduces the spans to
per-name call counts and self times.  Nothing under ``src/`` knows about it.

A lookup site that no longer exists is reported as missing instead of
raising, so code that deletes or renames a wrapped function still runs the
benchmark; its span then reads zero calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

# span name (module where the function lives . function) -> the
# "module.attribute" sites under driftlm where callers look it up
SPAN_SITES: dict[str, tuple[str, ...]] = {
    "corpus.sample_sequences": ("corpus.sample_sequences",),
    "corpus.oracle_gen_ppl": ("evalcli.oracle_gen_ppl",),
    "backbone.corrupt": ("trainer.corrupt",),
    "backbone.forward_tokens": ("trainer.forward_tokens", "backbone.forward_tokens"),
    "backbone.backward_tokens": ("trainer.backward_tokens",),
    "backbone.base_loss": ("trainer.base_loss", "objectives.base_loss"),
    "backbone.run_blocks": ("backbone.run_blocks", "encoder.run_blocks"),
    "backbone.blocks_backward": ("backbone.blocks_backward", "encoder.blocks_backward"),
    "backbone.sample_batch": ("evalcli.sample_batch",),
    "encoder.lift_and_encode": ("trainer.lift_and_encode",),
    "encoder.soft_token_lift": ("encoder.soft_token_lift",),
    "encoder.encode": ("encoder.encode",),
    "encoder.real_features_batch": ("trainer.real_features_batch",),
    "encoder.pullback_to_logits": ("objectives.pullback_to_logits",),
    "encoder.encode_vjp": ("encoder.encode_vjp",),
    "encoder.lift_vjp": ("encoder.lift_vjp",),
    "drift.build_references": ("trainer.build_references",),
    "drift.drift_multi_temp": ("trainer.drift_multi_temp",),
    "drift.rms_scale": ("drift.rms_scale",),
    "drift.queue_push": ("trainer.queue_push",),
    "objectives.total_objective": ("trainer.total_objective",),
    "objectives.feature_fixed_point_loss": ("objectives.feature_fixed_point_loss",),
    "objectives.mirror_direction": ("objectives.mirror_direction",),
    "objectives.mirror_teacher": ("objectives.mirror_teacher",),
    "objectives.mirror_kl_loss": ("objectives.mirror_kl_loss",),
    "trainer.train_step": ("trainer.train_step",),
    "trainer._adam_update": ("trainer._adam_update",),
    "evalcli.evaluate": ("evalcli.evaluate",),
    "evalcli.entropy_metric": ("evalcli.entropy_metric",),
    "numcore.softmax_rows": ("numcore.softmax_rows",),
    "numcore.log_softmax_rows": ("numcore.log_softmax_rows",),
    "numcore.softmax_vjp_from_probs": ("numcore.softmax_vjp_from_probs",),
    "numcore.l2_normalize_vjp": ("numcore.l2_normalize_vjp",),
    "numcore.tanh_vjp_from_output": ("numcore.tanh_vjp_from_output",),
}

# work counted per span: token positions forwarded, positions a sampler call
# returned, and references an anchor batch was compared against
WORK_PROBES = {
    "backbone.forward_tokens": lambda args, result: np.size(args[1]),
    "backbone.sample_batch": lambda args, result: np.size(result),
    "drift.drift_multi_temp": lambda args, result: len(args[1]),
}

HEAD_SPANS = 400  # spans kept verbatim in the results file


def resolve(site: str):
    """``(module, attribute)`` for a ``"module.attribute"`` site, or None if it is gone."""
    module_name, attr = site.rsplit(".", 1)
    try:
        module = importlib.import_module(f"driftlm.{module_name}")
    except ImportError:
        return None
    if not callable(getattr(module, attr, None)):
        return None
    return module, attr


class Patches:
    """Module attributes replaced by wrappers, restored newest first."""

    def __init__(self):
        self._saved: list = []

    def replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


class Tracer:
    """Records spans for every call through the wrapped sites while installed."""

    def __init__(self, span_sites: dict[str, tuple[str, ...]] = SPAN_SITES):
        self.sites = span_sites
        self.names = list(span_sites)
        self.missing: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self._stack = [-1]
        self._patches = Patches()

    def install(self) -> None:
        self.missing = []
        for nid, name in enumerate(self.names):
            for site in self.sites[name]:
                found = resolve(site)
                if found is None:
                    self.missing.append(site)
                    continue
                module, attr = found
                wrapped = self._wrap(getattr(module, attr), nid, WORK_PROBES.get(name))
                self._patches.replace(module, attr, wrapped)

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, fn, nid: int, probe):
        clock = time.perf_counter_ns
        stack = self._stack
        name_id, parent, start, end, work = (
            self.name_id, self.parent, self.start, self.end, self.work,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            work.append(0)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if probe is not None:
                try:
                    work[idx] = int(probe(args, result))
                except (IndexError, TypeError, ValueError):
                    pass
            return result

        return traced

    def summarize(self, n_calls: int, wall_ns: int) -> dict[str, float]:
        """Per-name calls and self milliseconds per timed call, plus work ratios.

        Self time is a span's duration minus the durations of its direct
        children; coverage is the summed self time over the traced wall time.
        """
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.int64)
        has_parent = parent >= 0
        child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=nid.size)
        self_ns = dur - child_ns
        calls = np.bincount(nid, minlength=len(names))
        self_total = np.bincount(nid, weights=self_ns, minlength=len(names))

        out: dict[str, float] = {}
        for i, name in enumerate(names):
            out[f"{name}.calls"] = calls[i] / n_calls
            out[f"{name}.self_ms"] = self_total[i] / 1e6 / n_calls

        ids = {name: i for i, name in enumerate(names)}
        fwd = ids.get("backbone.forward_tokens", -1)
        sampler = ids.get("backbone.sample_batch", -1)
        drift = ids.get("drift.drift_multi_temp", -1)
        is_fwd = nid == fwd
        out["backbone.forward_tokens.rows"] = _ratio(work[is_fwd].sum(), is_fwd.sum())
        in_sampler = is_fwd & has_parent & (nid[np.maximum(parent, 0)] == sampler)
        out["backbone.sample_batch.commit_ratio"] = _ratio(
            work[nid == sampler].sum(), work[in_sampler].sum()
        )
        out["drift.refs_per_anchor"] = _ratio(work[nid == drift].sum(), (nid == drift).sum())
        out["trace.coverage"] = _ratio(self_ns.sum(), wall_ns)
        out["trace.missing_spans"] = float(len(self.missing))
        return out

    def head(self, limit: int = HEAD_SPANS) -> list[dict]:
        """The first spans as records, times in microseconds from the first start."""
        n = min(limit, len(self.name_id))
        t0 = self.start[0] if n else 0
        return [
            {
                "name": self.names[self.name_id[i]],
                "start_us": (self.start[i] - t0) / 1e3,
                "end_us": (self.end[i] - t0) / 1e3,
                "parent": self.parent[i],
            }
            for i in range(n)
        ]


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0
