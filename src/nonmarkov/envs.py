"""Environment interface, built-in desk-scale environments, and a value-iteration oracle.

All environments are fully deterministic given the reset seed: equal seeds
plus equal action sequences yield identical (observation, reward, flags)
streams.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

from .core import (
    FiniteMDP, Outcome, ValidationError, as_state, is_degenerate, load_mdp, parse_number)


class EpisodeFinishedError(RuntimeError):
    """step() called after termination/truncation without reset()."""


class Environment:
    """Minimal seeded episodic interface.

    reset(seed) -> observation; step(action) -> (obs, reward, terminated,
    truncated).  Instances are single-threaded stateful objects.
    """

    observation_dim: int
    num_actions: int

    def reset(self, seed: int) -> np.ndarray:
        raise NotImplementedError

    def step(self, action: int):
        raise NotImplementedError


class FiniteMDPEnv(Environment):
    """Sampling adapter around a tabular process.

    Every `reset` and `step` draws exactly one `Generator.random()` and picks
    the outcome from a cumulative table compiled once per row, so it returns
    the index `Generator.choice(p=...)` would return for the same stream.
    """

    def __init__(self, mdp: FiniteMDP, max_steps: int = None):
        self.mdp = mdp
        self.max_steps = max_steps
        self.observation_dim = mdp.obs_dim
        self.num_actions = mdp.num_actions
        self._rho0_cdf = _choice_cdf(mdp.rho0)
        self._cdf = []
        for per_action in mdp.outcomes:
            row = []
            for lst in per_action:
                probs = np.array([o.prob for o in lst])
                row.append(_choice_cdf(probs / probs.sum()))
            self._cdf.append(row)
        self._state = None
        self._steps = 0
        self._done = True
        self._rng = None

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng(seed)
        self._state = bisect.bisect_right(self._rho0_cdf, self._rng.random())
        self._steps = 0
        self._done = False
        return self.mdp.embedding[self._state]

    def step(self, action: int):
        if self._done:
            raise EpisodeFinishedError("step() after episode end; call reset()")
        if not 0 <= action < self.num_actions:
            raise ValidationError(f"action {action} out of range")
        idx = bisect.bisect_right(self._cdf[self._state][action], self._rng.random())
        outcome = self.mdp.row(self._state, action)[idx]
        self._state = outcome.next_state
        self._steps += 1
        truncated = self.max_steps is not None and self._steps >= self.max_steps
        if truncated:
            self._done = True
        return self.mdp.embedding[self._state], outcome.reward, False, truncated


def _choice_cdf(p: np.ndarray) -> list:
    """The cumulative table `Generator.choice(len(p), p=p)` searches with
    `side="right"` for one `Generator.random()` draw (numpy's own arithmetic)."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


# ---------------------------------------------------------------------------
# built-in tabular environments
# ---------------------------------------------------------------------------

def make_chain(length: int, p_slip: float = 0.0) -> FiniteMDP:
    """Line of `length` states with left/right actions and a goal at the end.

    Moving slips (stays put) with probability p_slip; reward 1 whenever the
    next state is the goal state length-1.  One-hot embedding, start at 0.
    """
    if length < 2:
        raise ValidationError("chain length must be >= 2")
    if not 0.0 <= p_slip < 0.5:
        raise ValidationError("slip probability must lie in [0, 0.5)")
    n = length
    goal = n - 1

    def move_outcomes(s, target):
        def rew(next_state):
            return 1.0 if next_state == goal else 0.0
        if p_slip == 0.0 or target == s:
            return (Outcome(target, rew(target), 1.0),)
        return (Outcome(target, rew(target), 1.0 - p_slip),
                Outcome(s, rew(s), p_slip))

    outcomes = []
    for s in range(n):
        left = move_outcomes(s, max(s - 1, 0))
        right = move_outcomes(s, min(s + 1, goal))
        outcomes.append((left, right))
    rho0 = np.zeros(n)
    rho0[0] = 1.0
    return FiniteMDP(num_states=n, num_actions=2, rho0=rho0,
                     outcomes=tuple(outcomes), embedding=np.eye(n))


def make_random_mdp(seed: int, num_states: int, num_actions: int,
                    branching: int, max_retries: int = 100) -> FiniteMDP:
    """Random tabular process, regenerated until non-degenerate."""
    if num_states < 1 or num_actions < 1 or branching < 1:
        raise ValidationError("sizes and branching must be >= 1")
    rng = np.random.default_rng(seed)
    reward_values = (0.0, 0.5, 1.0)
    for _ in range(max_retries):
        outcomes = []
        for _s in range(num_states):
            row = []
            for _a in range(num_actions):
                b = min(branching, num_states)
                nexts = rng.choice(num_states, size=b, replace=False)
                raw = rng.random(b) + 0.1
                probs = raw / raw.sum()
                probs[-1] = 1.0 - probs[:-1].sum()
                lst = tuple(
                    Outcome(int(ns), float(rng.choice(reward_values)), float(p))
                    for ns, p in zip(nexts, probs)
                )
                row.append(lst)
            outcomes.append(tuple(row))
        embedding = rng.normal(size=(num_states, num_states))
        m = FiniteMDP(num_states=num_states, num_actions=num_actions,
                      rho0=np.full(num_states, 1.0 / num_states),
                      outcomes=tuple(outcomes),
                      embedding=embedding)
        if not is_degenerate(m):
            return m
    raise ValidationError(f"could not draw a non-degenerate MDP in {max_retries} tries")


# ---------------------------------------------------------------------------
# classic control
# ---------------------------------------------------------------------------

class CartPoleEnv(Environment):
    """Euler-integrated cart-pole with two discrete push actions.

    Standard constants: gravity 9.8, cart mass 1.0, pole mass 0.1,
    half-length 0.5, force 10, dt 0.02; terminates at |x| > 2.4 or
    |theta| > 12 degrees; truncates at 500 steps; reward 1 per step.
    """

    observation_dim = 4
    num_actions = 2

    GRAVITY = 9.8
    CART_MASS = 1.0
    POLE_MASS = 0.1
    HALF_LENGTH = 0.5
    FORCE = 10.0
    DT = 0.02
    X_LIMIT = 2.4
    THETA_LIMIT = 12 * math.pi / 180
    MAX_STEPS = 500

    def __init__(self):
        self._state = None
        self._steps = 0
        self._done = True

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self._state = rng.uniform(-0.05, 0.05, size=4)
        self._steps = 0
        self._done = False
        return as_state(self._state)

    def step(self, action: int):
        if self._done:
            raise EpisodeFinishedError("step() after episode end; call reset()")
        if action not in (0, 1):
            raise ValidationError(f"action {action} out of range")
        x, x_dot, theta, theta_dot = self._state
        force = self.FORCE if action == 1 else -self.FORCE
        total_mass = self.CART_MASS + self.POLE_MASS
        pole_ml = self.POLE_MASS * self.HALF_LENGTH
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        temp = (force + pole_ml * theta_dot ** 2 * sin_t) / total_mass
        theta_acc = (self.GRAVITY * sin_t - cos_t * temp) / (
            self.HALF_LENGTH * (4.0 / 3.0 - self.POLE_MASS * cos_t ** 2 / total_mass))
        x_acc = temp - pole_ml * theta_acc * cos_t / total_mass
        x += self.DT * x_dot
        x_dot += self.DT * x_acc
        theta += self.DT * theta_dot
        theta_dot += self.DT * theta_acc
        self._state = np.array([x, x_dot, theta, theta_dot])
        self._steps += 1
        terminated = abs(x) > self.X_LIMIT or abs(theta) > self.THETA_LIMIT
        truncated = not terminated and self._steps >= self.MAX_STEPS
        self._done = terminated or truncated
        return as_state(self._state), 1.0, terminated, truncated


class PendulumEnv(Environment):
    """Euler-integrated pendulum swing-up with three discretized torques.

    Observation (cos theta, sin theta, theta_dot); torque in {-2, 0, +2};
    gravity 10, mass 1, length 1, dt 0.05; truncates at 200 steps.
    """

    observation_dim = 3
    num_actions = 3

    GRAVITY = 10.0
    MASS = 1.0
    LENGTH = 1.0
    DT = 0.05
    MAX_SPEED = 8.0
    TORQUES = (-2.0, 0.0, 2.0)
    MAX_STEPS = 200

    def __init__(self):
        self._theta = None
        self._theta_dot = None
        self._steps = 0
        self._done = True

    def _obs(self) -> np.ndarray:
        return as_state([math.cos(self._theta), math.sin(self._theta), self._theta_dot])

    def reset(self, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        self._theta = rng.uniform(-math.pi, math.pi)
        self._theta_dot = rng.uniform(-1.0, 1.0)
        self._steps = 0
        self._done = False
        return self._obs()

    def step(self, action: int):
        if self._done:
            raise EpisodeFinishedError("step() after episode end; call reset()")
        if not 0 <= action < 3:
            raise ValidationError(f"action {action} out of range")
        u = self.TORQUES[action]
        theta = ((self._theta + math.pi) % (2 * math.pi)) - math.pi
        cost = theta ** 2 + 0.1 * self._theta_dot ** 2 + 0.001 * u ** 2
        acc = (3 * self.GRAVITY / (2 * self.LENGTH) * math.sin(self._theta)
               + 3.0 / (self.MASS * self.LENGTH ** 2) * u)
        self._theta_dot = float(np.clip(self._theta_dot + acc * self.DT,
                                        -self.MAX_SPEED, self.MAX_SPEED))
        self._theta = self._theta + self._theta_dot * self.DT
        self._steps += 1
        truncated = self._steps >= self.MAX_STEPS
        self._done = truncated
        return self._obs(), -cost, False, truncated


def make_cartpole() -> Environment:
    return CartPoleEnv()


def make_pendulum() -> Environment:
    return PendulumEnv()


# ---------------------------------------------------------------------------
# env id grammar
# ---------------------------------------------------------------------------

def make_mdp_from_id(env_id: str) -> FiniteMDP:
    """Tabular process for ids "chain:N[:slip]", "random:seed:S:A:B", "mdp-file:PATH"."""
    parts = env_id.split(":")
    if parts[0] == "chain":
        if len(parts) == 2:
            return make_chain(parse_number(parts[1], int, env_id))
        if len(parts) == 3:
            return make_chain(parse_number(parts[1], int, env_id),
                              parse_number(parts[2], float, env_id))
    elif parts[0] == "random" and len(parts) in (4, 5):
        seed, s, a, *b = (parse_number(p, int, env_id) for p in parts[1:])
        return make_random_mdp(seed, s, a, branching=b[0] if b else 2)
    elif parts[0] == "mdp-file":
        return load_mdp(env_id.split(":", 1)[1])
    raise ValidationError(f"unrecognized tabular environment id {env_id!r}")


def make_env(env_id: str, max_steps: int = None) -> Environment:
    """Environment for any id; "cartpole" and "pendulum" plus the tabular ids."""
    if env_id == "cartpole":
        return make_cartpole()
    if env_id == "pendulum":
        return make_pendulum()
    return FiniteMDPEnv(make_mdp_from_id(env_id), max_steps=max_steps)


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------

def value_iteration(m: FiniteMDP, horizon: int):
    """Exact finite-horizon undiscounted optimal values and greedy policy.

    Returns (values, policy): values has shape (horizon+1, S) with
    values[t, s] = optimal expected return over the remaining horizon - t
    steps; policy has shape (horizon, S) with ties broken toward the lowest
    action index.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    n, k = m.num_states, m.num_actions
    values = np.zeros((horizon + 1, n))
    policy = np.zeros((horizon, n), dtype=int)
    for t in range(horizon - 1, -1, -1):
        for s in range(n):
            best_q, best_a = -np.inf, 0
            for a in range(k):
                q = sum(o.prob * (o.reward + values[t + 1, o.next_state])
                        for o in m.row(s, a))
                if q > best_q + 1e-15:
                    best_q, best_a = q, a
            values[t, s] = best_q
            policy[t, s] = best_a
    return values, policy


def optimal_return(m: FiniteMDP, horizon: int) -> float:
    """Expected optimal return from the initial distribution."""
    values, _ = value_iteration(m, horizon)
    return float(np.dot(m.rho0, values[0]))
