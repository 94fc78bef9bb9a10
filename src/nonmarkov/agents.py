"""Desk-scale tabular agents: random policy and windowed Q-learning.

The windowed agent keys its Q-table on the last k discretized observations,
so window size directly controls how much history it can exploit when the
environment's observations are aggregated histories.  Both agents share one interface over
a key they do not keep: `start(obs)` and `advance(key, obs)` return keys, `act(key)` an action.
Their draws come from `Draws`, which computes numpy's `default_rng(seed)` doubles and bounded
ints from the raw PCG64 words; a differential test pins it to numpy's own.
"""
from __future__ import annotations

import numpy as np

from .aggregators import remember
from .core import ValidationError, frozen, is_int, parse_number
from .envs import Environment

SENTINEL = "<pad>"
DECIMALS = 6  # ExactDiscretizer rounds observations to this many decimals
ALPHA, GAMMA = 0.1, 0.99  # Q-learning step size and discount
# epsilon falls linearly from EPS_START to EPS_FINAL over the first EPS_DECAY_FRAC of training
EPS_START, EPS_FINAL, EPS_DECAY_FRAC = 1.0, 0.05, 0.8


class Draws:
    """The `random()` doubles and `int(integers(n))` ints, 1 <= n <= 2**32, of
    `np.random.default_rng(seed)`, computed from its raw 64-bit words in numpy's order.

    A double is a word's top 53 bits.  An int takes a 32-bit half through PCG64's one-word
    buffer, low half first, and applies Lemire's method with numpy's rejection loop.
    """

    def __init__(self, seed: int):
        self._words = _raw_words(np.random.default_rng(seed).bit_generator)
        self._high = None  # the buffered high half of the last word split for ints

    def random(self) -> float:
        return (next(self._words) >> 11) * 2.0 ** -53

    def integers(self, n: int) -> int:
        if n == 1:
            return 0  # numpy draws nothing
        while True:
            if self._high is None:
                word = next(self._words)
                half, self._high = word & 0xFFFFFFFF, word >> 32
            else:
                half, self._high = self._high, None
            m = half * n
            if (m & 0xFFFFFFFF) >= 2 ** 32 % n:
                return m >> 32


def _raw_words(bits):  # the generator's raw 64-bit words as ints, fetched 64 at a time
    while True:
        yield from bits.random_raw(64).tolist()


class ExactDiscretizer:
    """Pass observations through by rounding; suited to one-hot and small-integer streams.
    A repeated `core.frozen` observation object is keyed by identity."""

    def __init__(self):
        self._seen = {}  # id(obs) -> (obs, key) for a `core.frozen` obs, held so ids stay unique

    def key(self, obs) -> tuple:
        hit = self._seen.get(id(obs))
        if hit is not None and hit[0] is obs:
            return hit[1]
        key = tuple(np.asarray(obs, dtype=float).round(DECIMALS).tolist())
        if frozen(obs):
            remember(self._seen, id(obs), (obs, key))
        return key


class RandomAgent:
    """Uniform random policy; its key is None, `act` ignores it, and training is a no-op."""

    def __init__(self, num_actions: int):
        self.num_actions = num_actions
        self._rng = Draws(0)

    def seed(self, seed: int):
        self._rng = Draws(seed)

    def start(self, obs):
        return None

    def advance(self, key, obs):
        return None

    def act(self, key) -> int:
        return self._rng.integers(self.num_actions)


class WindowedQAgent:
    """Tabular Q-learning over a sliding window of discretized observations.

    A key is the window, a k-tuple of discretized observations padded with SENTINEL
    before step k-1, and also the Q-table key.  `start` and `advance` build a new one,
    so a key stays valid after it is advanced.  Each row of `q` is a list of floats,
    one per action; greedy ties break toward the lowest action.
    """

    def __init__(self, num_actions: int, window: int = 1, discretizer=None):
        if not (is_int(window) and window >= 1):
            raise ValidationError(f"window must be an int >= 1, got {window!r}")
        self.num_actions = num_actions
        self.window = window
        self.discretizer = discretizer if discretizer is not None else ExactDiscretizer()
        self.q = {}

    def start(self, obs) -> tuple:
        return (SENTINEL,) * (self.window - 1) + (self.discretizer.key(obs),)

    def advance(self, key: tuple, obs) -> tuple:
        return key[1:] + (self.discretizer.key(obs),)

    def act(self, key: tuple) -> int:
        row = self.q.get(key)
        return 0 if row is None else row.index(max(row))

    def epsilon(self, episode: int, episodes: int) -> float:
        cutoff = max(1, int(episodes * EPS_DECAY_FRAC))
        if episode >= cutoff:
            return EPS_FINAL
        return EPS_START + episode / cutoff * (EPS_FINAL - EPS_START)


def _check_run(agent, episodes: int, horizon: int):
    """A window past an episode's horizon + 1 observations only pads keys and fills memory."""
    if not (is_int(episodes) and is_int(horizon)):
        raise ValidationError(
            f"episodes and horizon must be integers, got {episodes!r} and {horizon!r}")
    if not 1 <= getattr(agent, "num_actions", 1) <= 2 ** 32:  # the range Draws.integers covers
        raise ValidationError(f"num_actions must be in [1, 2**32], got {agent.num_actions}")
    if episodes < 1 or horizon < 1:
        raise ValidationError(f"episodes and horizon must be >= 1, got {episodes} and {horizon}")
    if getattr(agent, "window", 1) > horizon + 1:
        raise ValidationError(f"window {agent.window} is longer than an episode of horizon "
                              f"{horizon} ({horizon + 1} observations)")


def train(agent, env: Environment, episodes: int, seed: int, horizon: int):
    """Q-learning over `episodes` seeded episodes of at most `horizon` steps;
    deterministic given seed.  Random agents pass through unchanged.
    """
    _check_run(agent, episodes, horizon)
    if isinstance(agent, RandomAgent):
        return agent
    draws = Draws(seed)
    random, integers = draws.random, draws.integers
    q = agent.q
    for ep in range(episodes):
        eps = agent.epsilon(ep, episodes)
        key = agent.start(env.reset(integers(2 ** 31)))
        for _ in range(horizon):
            if random() < eps:
                action = integers(agent.num_actions)
            else:
                action = agent.act(key)
            obs, reward, terminated, truncated = env.step(action)
            row = q.setdefault(key, [0.0] * agent.num_actions)
            key = agent.advance(key, obs)
            if terminated:
                target = reward
            else:
                next_row = q.get(key)
                target = reward + GAMMA * (max(next_row) if next_row is not None else 0.0)
            row[action] += ALPHA * (target - row[action])
            if terminated or truncated:
                break
    return agent


def evaluate(agent, env: Environment, episodes: int, horizon: int, seed: int):
    """Greedy rollouts; returns (mean return, std, per-episode list)."""
    _check_run(agent, episodes, horizon)
    if isinstance(agent, RandomAgent):
        agent.seed(seed)
    draws = Draws(seed)
    returns = []
    for _ in range(episodes):
        key = agent.start(env.reset(draws.integers(2 ** 31)))
        total = 0.0
        for _ in range(horizon):
            obs, reward, terminated, truncated = env.step(agent.act(key))
            key = agent.advance(key, obs)
            total += reward
            if terminated or truncated:
                break
        returns.append(total)
    arr = np.array(returns)
    return float(arr.mean()), float(arr.std()), returns


def parse_agent_spec(text: str, num_actions: int, discretizer=None):
    """Agent grammar: "random" or "qwin:k".  A windowed agent keys its Q-table
    through `discretizer`, an `ExactDiscretizer` when None."""
    text = text.strip()
    if text == "random":
        return RandomAgent(num_actions)
    if text.startswith("qwin:"):
        parts = text.split(":")
        if len(parts) != 2:
            raise ValidationError(f"cannot parse agent spec {text!r}: expected qwin:k")
        return WindowedQAgent(num_actions, parse_number(parts[1], int, text), discretizer)
    raise ValidationError(f"cannot parse agent spec {text!r}")
