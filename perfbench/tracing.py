"""In-memory spans at the package's public boundaries, and the proxies that record them.

A span is (name, start, end, parent span, item id).  Names are
"<layer>.<call>", where the layer is a module of `nonmarkov` ("envs",
"wrappers", "aggregators", "agents", "analysis", "core", "experiments") or
"bench" for the benchmark's own item root.  Spans are recorded only from
outside the package: around public calls made by the benchmark, and inside
thin proxies the benchmark passes in (an `Environment`, an `NMDPOracle` and a
discretizer).  A span's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import json
import os
from array import array
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

from nonmarkov.core import NMDPOracle
from nonmarkov.envs import Environment

LAYERS = ("envs", "wrappers", "aggregators", "agents", "analysis", "core",
          "experiments", "bench")


class Tracer:
    """Append-only span store; spans nest through an explicit stack."""

    enabled = True

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.stop = array("d")
        self._stack = [-1]
        self.item_id = -1

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.item.append(self.item_id)
        self.stop.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.stop[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.end(idx)

    def __len__(self):
        return len(self.start)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)

    def write(self, path: str) -> None:
        """Write every span as compressed arrays plus the name table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            item=np.frombuffer(self.item, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.stop, dtype=np.float64),
        )


class NullTracer:
    """Stand-in for untraced runs: coarse spans cost one no-op call."""

    enabled = False
    item_id = -1

    def span(self, name: str):
        return nullcontext()

    def __len__(self):
        return 0


class SpanSummary:
    """Per-name totals: call count, summed duration and summed self time (seconds)."""

    def __init__(self, tracer: Tracer):
        nid = np.frombuffer(tracer.name_id, dtype=np.int32)
        parent = np.frombuffer(tracer.parent, dtype=np.int32)
        dur = np.frombuffer(tracer.stop, dtype=np.float64) - np.frombuffer(
            tracer.start, dtype=np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        k = len(tracer.names)
        counts = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=self_time, minlength=k)
        self._stats = {name: (int(counts[i]), float(total[i]), float(selft[i]))
                       for i, name in enumerate(tracer.names)}

    def count(self, name: str) -> int:
        return self._stats.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[1]

    def self_total(self, name: str) -> float:
        return self._stats.get(name, (0, 0.0, 0.0))[2]

    def mean(self, name: str) -> float:
        n = self.count(name)
        return self.total(name) / n if n else 0.0

    def mean_self(self, name: str) -> float:
        n = self.count(name)
        return self.self_total(name) / n if n else 0.0

    def layer_self(self, layer: str) -> float:
        return sum(s for name, (_, _, s) in self._stats.items()
                   if name.split(".", 1)[0] == layer)


# ---------------------------------------------------------------------------
# proxies
# ---------------------------------------------------------------------------

class TracedEnv(Environment):
    """An `Environment` that records `<layer>.reset` / `<layer>.step` spans around `inner`."""

    def __init__(self, inner: Environment, tracer: Tracer, layer: str):
        self.inner = inner
        self.observation_dim = inner.observation_dim
        self.num_actions = inner.num_actions
        self._tracer = tracer
        self._reset_id = tracer.intern(f"{layer}.reset")
        self._step_id = tracer.intern(f"{layer}.step")

    def reset(self, seed: int):
        idx = self._tracer.begin(self._reset_id)
        try:
            return self.inner.reset(seed)
        finally:
            self._tracer.end(idx)

    def step(self, action: int):
        idx = self._tracer.begin(self._step_id)
        try:
            return self.inner.step(action)
        finally:
            self._tracer.end(idx)


class TracedOracle(NMDPOracle):
    """An `NMDPOracle` that records spans around every call into `inner`."""

    def __init__(self, inner: NMDPOracle, tracer: Tracer, layer: str):
        self.inner = inner
        self.num_actions = inner.num_actions
        self._tracer = tracer
        self._initial_id = tracer.intern(f"{layer}.oracle_initial")
        self._transition_id = tracer.intern(f"{layer}.oracle_transition")
        self._candidates_id = tracer.intern(f"{layer}.candidates")

    def initial(self):
        idx = self._tracer.begin(self._initial_id)
        try:
            return self.inner.initial()
        finally:
            self._tracer.end(idx)

    def transition(self, h, action: int):
        idx = self._tracer.begin(self._transition_id)
        try:
            return self.inner.transition(h, action)
        finally:
            self._tracer.end(idx)

    def substitution_candidates(self, h, index: int, state_pool):
        idx = self._tracer.begin(self._candidates_id)
        try:
            return self.inner.substitution_candidates(h, index, state_pool)
        finally:
            self._tracer.end(idx)


class TracedDiscretizer:
    """A discretizer that records an `agents.key` span around `inner.key`."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self._tracer = tracer
        self._key_id = tracer.intern("agents.key")

    def key(self, obs) -> tuple:
        idx = self._tracer.begin(self._key_id)
        try:
            return self.inner.key(obs)
        finally:
            self._tracer.end(idx)
