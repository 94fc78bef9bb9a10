"""Desk-scale tabular agents: random policy and windowed Q-learning.

The windowed agent keys its Q-table on the last k discretized observations,
so window size directly controls how much history it can exploit when the
environment's observations are aggregated histories.
"""
from __future__ import annotations

import numpy as np

from .core import ValidationError, parse_number
from .envs import Environment

SENTINEL = "<pad>"
KEY_CAP = 1 << 13  # ExactDiscretizer memoises keys of 1-d float64 arrays, up to this many


class ExactDiscretizer:
    """Pass observations through by rounding; suited to one-hot and small-integer streams."""

    def __init__(self, decimals: int = 6):
        self.decimals = decimals
        self._memo = {}

    def key(self, obs) -> tuple:
        keyed = isinstance(obs, np.ndarray) and obs.dtype == np.float64 and obs.ndim == 1
        raw = obs.tobytes() if keyed else None
        key = self._memo.get(raw)
        if key is None:
            key = tuple(np.asarray(obs, dtype=float).round(self.decimals).tolist())
            if raw is not None and len(self._memo) < KEY_CAP:
                self._memo[raw] = key
        return key


class UniformDiscretizer:
    """Fixed-range uniform binning per dimension."""

    def __init__(self, low, high, bins: int):
        self.low = np.asarray(low, dtype=float)
        self.high = np.asarray(high, dtype=float)
        if bins < 1:
            raise ValidationError("bin count must be >= 1")
        self.bins = bins

    def key(self, obs) -> tuple:
        x = np.asarray(obs, dtype=float)
        frac = (x - self.low) / (self.high - self.low)
        idx = np.clip((frac * self.bins).astype(int), 0, self.bins - 1)
        return tuple(int(i) for i in idx)


class RandomAgent:
    """Uniform random policy; training is a no-op."""

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self._rng = np.random.default_rng(0)

    def seed(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def act(self, obs) -> int:
        return int(self._rng.integers(self.num_actions))

    def act_greedy(self, obs) -> int:
        return self.act(obs)

    def observe_reset(self, obs):
        pass


class WindowedQAgent:
    """Tabular Q-learning over a sliding window of discretized observations.

    Keys are k-tuples of discretized observations, padded with a sentinel
    before step k-1.  Greedy ties break toward the lowest action index.
    """

    def __init__(self, num_actions: int, window: int = 1,
                 discretizer=None, alpha: float = 0.1, gamma: float = 0.99,
                 eps_start: float = 1.0, eps_final: float = 0.05,
                 eps_decay_frac: float = 0.8):
        if window < 1:
            raise ValidationError("window must be >= 1")
        self.num_actions = num_actions
        self.window = window
        self.discretizer = discretizer if discretizer is not None else ExactDiscretizer()
        self.alpha = alpha
        self.gamma = gamma
        self.eps_start = eps_start
        self.eps_final = eps_final
        self.eps_decay_frac = eps_decay_frac
        self.q = {}
        self._buf = []

    # -- window bookkeeping --------------------------------------------------

    def observe_reset(self, obs):
        self._buf = [SENTINEL] * (self.window - 1) + [self.discretizer.key(obs)]

    def _advance(self, obs):
        self._buf = self._buf[1:] + [self.discretizer.key(obs)]

    def _key(self) -> tuple:
        return tuple(self._buf)

    def _values(self, key) -> np.ndarray:
        vals = self.q.get(key)
        if vals is None:
            vals = np.zeros(self.num_actions)
            self.q[key] = vals
        return vals

    def act_greedy(self, obs=None) -> int:
        vals = self.q.get(self._key())
        if vals is None:
            return 0
        return int(np.argmax(vals))  # argmax breaks ties toward lowest index

    def epsilon(self, episode: int, episodes: int) -> float:
        cutoff = max(1, int(episodes * self.eps_decay_frac))
        if episode >= cutoff:
            return self.eps_final
        frac = episode / cutoff
        return self.eps_start + frac * (self.eps_final - self.eps_start)


def train(agent, env: Environment, episodes: int, seed: int,
          horizon: int = None):
    """Q-learning over `episodes` seeded episodes; deterministic given seed.

    Random agents pass through unchanged.
    """
    if episodes < 1:
        raise ValidationError("episodes must be >= 1")
    if isinstance(agent, RandomAgent):
        return agent
    rng = np.random.default_rng(seed)
    for ep in range(episodes):
        eps = agent.epsilon(ep, episodes)
        obs = env.reset(int(rng.integers(2 ** 31)))
        agent.observe_reset(obs)
        steps = 0
        while True:
            key = agent._key()
            if rng.random() < eps:
                action = int(rng.integers(agent.num_actions))
            else:
                action = agent.act_greedy()
            obs, reward, terminated, truncated = env.step(action)
            agent._advance(obs)
            next_key = agent._key()
            vals = agent._values(key)
            if terminated:
                target = reward
            else:
                next_vals = agent.q.get(next_key)
                bootstrap = float(next_vals.max()) if next_vals is not None else 0.0
                target = reward + agent.gamma * bootstrap
            vals[action] += agent.alpha * (target - vals[action])
            steps += 1
            if terminated or truncated or (horizon is not None and steps >= horizon):
                break
    return agent


def evaluate(agent, env: Environment, episodes: int, horizon: int, seed: int):
    """Greedy rollouts; returns (mean return, std, per-episode list)."""
    if episodes < 1:
        raise ValidationError("episodes must be >= 1")
    if isinstance(agent, RandomAgent):
        agent.seed(seed)
    rng = np.random.default_rng(seed)
    returns = []
    for _ in range(episodes):
        obs = env.reset(int(rng.integers(2 ** 31)))
        agent.observe_reset(obs)
        total = 0.0
        steps = 0
        while True:
            action = agent.act_greedy(obs)
            obs, reward, terminated, truncated = env.step(action)
            if hasattr(agent, "_advance"):
                agent._advance(obs)
            total += reward
            steps += 1
            if terminated or truncated or steps >= horizon:
                break
        returns.append(total)
    arr = np.array(returns)
    return float(arr.mean()), float(arr.std()), returns


def parse_agent_spec(text: str, num_actions: int, discretizer=None):
    """Agent grammar: "random" or "qwin:k[:bins]"."""
    text = text.strip()
    if text == "random":
        return RandomAgent(num_actions)
    if text.startswith("qwin:"):
        parts = text.split(":")
        if len(parts) > 3:
            raise ValidationError(f"cannot parse agent spec {text!r}: expected qwin:k[:bins]")
        window = parse_number(parts[1], int, text)
        if len(parts) == 3:
            bins = parse_number(parts[2], int, text)
            if discretizer is None:
                raise ValidationError("qwin with bins needs observation ranges")
            discretizer.bins = bins
        return WindowedQAgent(num_actions, window=window, discretizer=discretizer)
    raise ValidationError(f"cannot parse agent spec {text!r}")
