"""Desk-scale tabular agents: random policy and windowed Q-learning.

The windowed agent keys its Q-table on the last k discretized observations,
so window size directly controls how much history it can exploit when the
environment's observations are aggregated histories.  Both agents share one
interface: `observe_reset(obs)`, then `observe(obs)` after each step, and `act_greedy()`.
"""
from __future__ import annotations

import numpy as np

from .core import ValidationError, parse_number
from .envs import Environment

SENTINEL = "<pad>"
KEY_CAP = 1 << 13  # ExactDiscretizer memoises keys of 1-d float64 arrays, up to this many
ALPHA, GAMMA = 0.1, 0.99  # Q-learning step size and discount
# epsilon falls linearly from EPS_START to EPS_FINAL over the first EPS_DECAY_FRAC of training
EPS_START, EPS_FINAL, EPS_DECAY_FRAC = 1.0, 0.05, 0.8


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
        if self.low.shape != self.high.shape or not np.all(self.high > self.low):
            raise ValidationError("uniform bins need low and high of one shape with high > low")
        if bins < 1:
            raise ValidationError("bin count must be >= 1")
        self.bins = bins

    def key(self, obs) -> tuple:
        x = np.asarray(obs, dtype=float)
        if x.shape != self.low.shape or not np.all(np.isfinite(x)):
            raise ValidationError(f"observation {x.tolist()}: need finite, shape {self.low.shape}")
        frac = (x - self.low) / (self.high - self.low)
        idx = np.clip((frac * self.bins).astype(int), 0, self.bins - 1)
        return tuple(int(i) for i in idx)


class RandomAgent:
    """Uniform random policy; it keeps no window, and training is a no-op."""

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self._rng = np.random.default_rng(0)

    def seed(self, seed: int):
        self._rng = np.random.default_rng(seed)

    def observe_reset(self, obs):
        pass

    observe = observe_reset

    def act_greedy(self) -> int:
        return int(self._rng.integers(self.num_actions))


class WindowedQAgent:
    """Tabular Q-learning over a sliding window of discretized observations.

    `key` is the window, a k-tuple of discretized observations padded with
    SENTINEL before step k-1, and also the Q-table key.  Each row of `q` is a
    list of floats, one per action; greedy ties break toward the lowest action.
    """

    def __init__(self, num_actions: int, window: int = 1, discretizer=None):
        if window < 1:
            raise ValidationError("window must be >= 1")
        self.num_actions = num_actions
        self.window = window
        self.discretizer = discretizer if discretizer is not None else ExactDiscretizer()
        self.q = {}
        self.key = ()

    def observe_reset(self, obs):
        self.key = (SENTINEL,) * (self.window - 1) + (self.discretizer.key(obs),)

    def observe(self, obs):
        self.key = self.key[1:] + (self.discretizer.key(obs),)

    def act_greedy(self) -> int:
        row = self.q.get(self.key)
        return 0 if row is None else row.index(max(row))

    def epsilon(self, episode: int, episodes: int) -> float:
        cutoff = max(1, int(episodes * EPS_DECAY_FRAC))
        if episode >= cutoff:
            return EPS_FINAL
        return EPS_START + episode / cutoff * (EPS_FINAL - EPS_START)


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
    q = agent.q
    for ep in range(episodes):
        eps = agent.epsilon(ep, episodes)
        agent.observe_reset(env.reset(int(rng.integers(2 ** 31))))
        steps = 0
        while True:
            key = agent.key
            if rng.random() < eps:
                action = int(rng.integers(agent.num_actions))
            else:
                action = agent.act_greedy()
            obs, reward, terminated, truncated = env.step(action)
            agent.observe(obs)
            row = q.setdefault(key, [0.0] * agent.num_actions)
            if terminated:
                target = reward
            else:
                next_row = q.get(agent.key)
                target = reward + GAMMA * (max(next_row) if next_row is not None else 0.0)
            row[action] += ALPHA * (target - row[action])
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
        agent.observe_reset(env.reset(int(rng.integers(2 ** 31))))
        total = 0.0
        steps = 0
        while True:
            obs, reward, terminated, truncated = env.step(agent.act_greedy())
            agent.observe(obs)
            total += reward
            steps += 1
            if terminated or truncated or steps >= horizon:
                break
        returns.append(total)
    arr = np.array(returns)
    return float(arr.mean()), float(arr.std()), returns


def parse_agent_spec(text: str, num_actions: int, discretizer=None):
    """Agent grammar: "random" or "qwin:k[:bins]".  `:bins` needs a
    UniformDiscretizer and rebins a copy of it; the caller's is left unchanged."""
    text = text.strip()
    if text == "random":
        return RandomAgent(num_actions)
    if text.startswith("qwin:"):
        parts = text.split(":")
        if len(parts) > 3:
            raise ValidationError(f"cannot parse agent spec {text!r}: expected qwin:k[:bins]")
        window = parse_number(parts[1], int, text)
        if len(parts) == 3:
            if not isinstance(discretizer, UniformDiscretizer):
                raise ValidationError("qwin:k:bins needs a UniformDiscretizer (observation ranges)")
            discretizer = UniformDiscretizer(discretizer.low, discretizer.high,
                                             parse_number(parts[2], int, text))
        return WindowedQAgent(num_actions, window, discretizer)
    raise ValidationError(f"cannot parse agent spec {text!r}")
