"""Apply a reversible history aggregator to an environment or tabular process.

Wrapping transforms the observation stream (and optionally the reward
stream) while leaving the inner dynamics untouched; the burden of decoding
the history back into the underlying state falls on the agent.  The exact
oracle form reproduces the same transformation analytically over finite
outcome distributions, for use by the dependency and category checks.
"""
from __future__ import annotations

import warnings

import numpy as np

from .aggregators import Filter, parse_har_spec, parse_spec
from .core import FiniteMDP, History, NMDPOracle, UndecodableHistoryError, is_degenerate
from .envs import Environment

NODE_CAP = 1 << 13  # bounds the transducer of a stream that never repeats


class WrappedEnvironment(Environment):
    """Environment whose observations and/or rewards are aggregated histories.

    The inner environment's trajectory is untouched; only the emitted
    observations (state filter `spec`) and/or rewards (reward filter
    `har_spec`, over a scalar stream) are transformed.  Either may be None.

    Observations pass through an interned transducer: one `Filter.push` per new
    (node, 1-d float64 observation bytes) edge, on a fork of the node's stream.
    Other observations, and misses past NODE_CAP nodes, leave it for the episode.
    """

    def __init__(self, inner: Environment, spec: Filter = None, har_spec: Filter = None):
        self.inner = inner
        self.spec = spec
        self.har_spec = har_spec
        self.observation_dim = inner.observation_dim
        self.num_actions = inner.num_actions
        self._nodes = [] if spec is None else [spec.begin()]
        self._edges = {}  # (node id, observation bytes) -> (next node id, aggregate)
        self._node, self._stream = 0, None  # node None: off the memo, streaming on _stream
        self._reward = None

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def _push(self, node, obs) -> np.ndarray:
        keyed = isinstance(obs, np.ndarray) and obs.dtype == np.float64 and obs.ndim == 1
        raw = obs.tobytes() if keyed and node is not None else None
        self._node, g = self._edges.get((node, raw), (None, None))
        if g is not None:
            return g
        self._stream = self._stream if node is None else self._nodes[node].fork()
        g = self._stream.push(obs)
        if raw is not None and len(self._nodes) < NODE_CAP:
            self._node = len(self._nodes)
            self._nodes.append(self._stream)
            self._edges[node, raw] = (self._node, g)
        return g

    def reset(self, seed: int) -> np.ndarray:
        obs = self.inner.reset(seed)
        if self.spec is not None:
            obs = self._push(0, obs)
        if self.har_spec is not None:
            self._reward = self.har_spec.begin()
        return obs

    def step(self, action: int):
        obs, reward, terminated, truncated = self.inner.step(action)
        if self.spec is not None:
            obs = self._push(self._node, obs)
        if self._reward is not None:
            reward = float(self._reward.push((reward,))[0])
        return obs, reward, terminated, truncated


def wrap(env: Environment, spec=None, har_spec=None) -> Environment:
    """Wrap `env` in one layer holding a state filter and/or a reward filter.

    Specs may be strings in the shared grammar or parsed filters.  Identity
    filters are dropped; when neither filter is left, `env` is returned as is.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if isinstance(har_spec, str):
        har_spec = parse_har_spec(har_spec)
    if spec is not None and spec.is_identity:
        spec = None
    if har_spec is not None and har_spec.is_identity:
        har_spec = None
    if spec is None and har_spec is None:
        return env
    return WrappedEnvironment(env, spec=spec, har_spec=har_spec)


class AggregatedMDPOracle(NMDPOracle):
    """Exact transition law of a tabular process under a reversible aggregator.

    Given a history of aggregated observations, decodes the raw state
    stream, looks up the tabular row for the latest state, and maps each
    outcome to the unique next aggregate that decodes back to it.  With the
    identity filter this is the tabular process viewed as history-conditioned.
    Outcomes come in table order, unmerged.
    """

    def __init__(self, mdp: FiniteMDP, spec: Filter):
        self.mdp = mdp
        self.spec = spec
        self.num_actions = mdp.num_actions

    def initial(self):
        return [(self.spec.begin().push(e), float(p))
                for e, p in zip(self.mdp.embedding, self.mdp.rho0) if p > 0]

    def transition(self, h: History, action: int):
        stream = self.spec.begin()
        last = [stream.pull(g) for g in h.states][-1]
        idx = self.mdp.match_state(last)
        if idx is None:
            raise UndecodableHistoryError(
                f"decoded state at t={h.t} matches no embedded state")
        return [((stream.project(self.mdp.embedding[o.next_state]), o.reward), o.prob)
                for o in self.mdp.row(idx, action)]

    def substitution_candidates(self, h: History, index: int, state_pool):
        """Pool states re-aggregated in the context of the history prefix.

        The candidate for pool state p at position i is the aggregate the
        stream emits for p after decoding the observations g_0..g_{i-1}.
        """
        stream = self.spec.begin()
        for g in h.states[:index]:
            stream.pull(g)
        return [stream.project(p) for p in state_pool]


def as_nmdp_oracle(m: FiniteMDP, spec) -> AggregatedMDPOracle:
    """Exact oracle for the aggregated form of a tabular process."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if is_degenerate(m):
        warnings.warn("MDP is degenerate: dependency-structure guarantees do not apply",
                      stacklevel=2)
    return AggregatedMDPOracle(m, spec)
