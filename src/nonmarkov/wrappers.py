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

from .aggregators import Filter, parse_har_spec, parse_spec, remember
from .core import (
    FiniteMDP, History, NMDPOracle, UndecodableHistoryError, as_state, frozen, is_degenerate)
from .envs import Environment


class WrappedEnvironment(Environment):
    """Environment whose observations and/or rewards are aggregated histories.

    The inner environment's trajectory is untouched; only the emitted
    observations (state filter `spec`) and/or rewards (reward filter
    `har_spec`, over a scalar stream) are transformed.  Either may be None.

    Observations pass through `spec.push` from its `begin()` state.  Each next state is
    interned, and `node_count` is the number of distinct stream states interned; a
    `core.frozen` observation repeated at a node takes an identity edge, the only edge kept.
    The reward stream is a state value of `har_spec`, restarted at every reset.
    """

    def __init__(self, inner: Environment, spec: Filter = None, har_spec: Filter = None):
        self.inner = inner
        self.spec = spec
        self.har_spec = har_spec
        self.observation_dim = inner.observation_dim
        self.num_actions = inner.num_actions
        self._root = None if spec is None else spec.begin()
        self._nodes = {} if spec is None else {self._root: self._root}  # state -> interned copy
        self._node = None  # the node the episode is at
        self._seen = {}  # (id(node), id(obs)) -> (obs, node, next node, output), held ids
        self._reward = None  # the reward stream's state

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def reset(self, seed: int) -> np.ndarray:
        obs = self.inner.reset(seed)
        if self.spec is not None:
            obs = self._push(self._root, obs)
        if self.har_spec is not None:
            self._reward = self.har_spec.begin()
        return obs

    def _push(self, node: tuple, obs):
        """The output of the stream at `node` on obs; `_node` moves to the next node."""
        hit = self._seen.get((id(node), id(obs)))
        if hit is None or hit[0] is not obs:
            state, g = self.spec.push(node, obs)
            hit = (obs, node, self._nodes.get(state) or remember(self._nodes, state, state), g)
            if frozen(obs):
                remember(self._seen, (id(node), id(obs)), hit)
        self._node = hit[2]
        return hit[3]

    def step(self, action: int):
        obs, reward, terminated, truncated = self.inner.step(action)
        if self.spec is not None:
            obs = self._push(self._node, obs)
        if self._reward is not None:
            self._reward, g = self.har_spec.push(self._reward, (reward,))
            reward = float(g[0])
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

    Given a history of aggregated observations, decodes the raw state stream, looks up
    the tabular row for the latest state, and maps each outcome to the unique next
    aggregate that decodes back to it, which `spec.push` emits from the decoder state.
    With the identity filter this is the tabular process viewed as history-conditioned.
    Outcomes come in table order, unmerged.
    A prefix is the tuple (node, idx, t): a decoder stream state of `spec.pull`, the index
    of the embedded state its last observation decodes to (None when none matches), and t.
    The interned nodes, the identity edges that map (node, id of a `core.frozen` observation)
    to (next node, idx, observation), as `WrappedEnvironment` keeps them, and one memo of
    answers keyed by node, all written through `remember`, serve every prefix for the
    oracle's whole life; a state is a value, so (node, idx) is a prefix's key.
    """

    def __init__(self, mdp: FiniteMDP, spec: Filter):
        self.mdp = mdp
        self.spec = spec
        self.num_actions = mdp.num_actions
        self.root = spec.begin()
        self.nodes = {self.root: self.root}  # decoder state -> its interned copy
        self.edges = {}  # (node, id(obs)) -> (next node, idx, obs), for a frozen obs
        self.memo = {}  # (node, index, action) -> row; (node, pool shape, bytes) -> candidates
        self.verdicts = {}  # filled by empirical_dependency through `remember`

    def initial(self):
        return [(self.spec.push(self.root, e)[1], float(p))
                for e, p in zip(self.mdp.embedding, self.mdp.rho0) if p > 0]

    def transition(self, h: History, action: int):
        return self.transition_at(self._replay(h, h.t + 1), action)

    def substitution_candidates(self, h: History, index: int, state_pool):
        return self.candidates_at(self._replay(h, index), h, state_pool)

    def _replay(self, h: History, n: int) -> tuple:  # the prefix of h's first n observations
        p = self.begin()
        for obs in h.states[:n]:
            p = self.pull(p, obs)
        return p

    def begin(self) -> tuple:
        return self.root, None, -1

    def pull(self, p: tuple, obs, action=None, reward=None) -> tuple:
        node, _, t = p
        key = (node, id(obs))
        hit = self.edges.get(key)
        if hit is None or hit[2] is not obs:
            state, s = self.spec.pull(node, as_state(obs))
            hit = (self.nodes.get(state) or remember(self.nodes, state, state),
                   self.mdp.match_states([s])[0], obs)
            if frozen(obs):
                remember(self.edges, key, hit)
        return hit[0], hit[1], t + 1

    def key(self, p: tuple) -> tuple:
        return p[:2]

    def transition_at(self, p: tuple, action: int):
        node, idx, t = p
        if idx is None:
            raise UndecodableHistoryError(f"decoded state at t={t} matches no embedded state")
        key = (node, idx, action)
        dist = self.memo.get(key)
        if dist is None:
            dist = remember(self.memo, key, [
                ((self.spec.push(node, self.mdp.embedding[n])[1], r), p)
                for n, r, p in self.mdp.row(idx, action)])
        return list(dist)

    def candidates_at(self, p: tuple, h: History, state_pool):
        """The aggregate the prefix's node would emit next for each row of the pool's array."""
        pool = np.asarray(state_pool, dtype=float)
        key = (p[0], pool.shape, pool.tobytes())  # the root takes states of any length
        cands = self.memo.get(key)
        if cands is None:
            cands = remember(self.memo, key, [self.spec.push(p[0], s)[1] for s in pool])
        return list(cands)


def as_nmdp_oracle(m: FiniteMDP, spec) -> AggregatedMDPOracle:
    """Exact oracle for the aggregated form of a tabular process."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if is_degenerate(m):
        warnings.warn("MDP is degenerate: dependency-structure guarantees do not apply",
                      stacklevel=2)
    return AggregatedMDPOracle(m, spec)
