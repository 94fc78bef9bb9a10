"""Environment interface, built-in desk-scale environments, and a value-iteration oracle.

All environments are fully deterministic given the reset seed: equal seeds
plus equal action sequences yield identical (observation, reward, flags)
streams.
"""
from __future__ import annotations

from bisect import bisect_right
from struct import unpack

import numpy as np

from .core import FiniteMDP, Outcome, ValidationError, is_degenerate, is_int, load_mdp, parse_number

MAX_RETRIES = 100  # make_random_mdp redraws a degenerate process up to this many times
MAX_CELLS = 10 ** 6  # embedding and outcome entries of a built-in process, read at each call
SEED_CAP = 1 << 13  # reset seeds `_SEEDED` holds, read at each call; emptied when full
_SEEDED = {}  # int reset seed -> bytes of the first batch of its `default_rng` doubles


def _check_size(name: str, states: int, actions: int, branching: int):
    """Reject, before anything is built, states x (states + actions x branching) past the cap."""
    if states * (states + actions * min(branching, states)) > MAX_CELLS:
        raise ValidationError(f"{name}: {states} states x {actions} actions is larger than "
                              f"envs.MAX_CELLS = {MAX_CELLS} table entries")


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
        """Start an episode from `seed`, an int >= 0 (Python or numpy, not bool)."""
        raise NotImplementedError

    def step(self, action: int):
        raise NotImplementedError


class FiniteMDPEnv(Environment):
    """Sampling adapter around a tabular process.

    `reset` and `step` hand out one read-only row object per state, and pick the (next state,
    reward) slot `Generator.choice(p=...)` would pick with the episode's next `random()` double
    from a cumulative table of the cell's live slots.  The doubles are drawn in batches, which
    give the same doubles: `min(max_steps + 1, 64)` at a time, or 4 with no `max_steps`.
    The first batch of a seed is kept in `_SEEDED`, so the cells of a sweep that share a
    seed hash each episode seed through `SeedSequence` once.
    """

    def __init__(self, mdp: FiniteMDP, max_steps: int = None):
        if max_steps is not None and not (is_int(max_steps) and max_steps >= 1):
            raise ValidationError(f"max_steps must be None or an integer >= 1, got {max_steps!r}")
        self.mdp = mdp
        self.max_steps = max_steps
        self.observation_dim = mdp.embedding.shape[1]
        self.num_actions = mdp.num_actions
        self._rho0_cdf = _choice_cdf(mdp.rho0)
        self._cdf = [_choice_cdf(p[:n] / p[:n].sum()) for p, n in zip(mdp.prob, mdp.length)]
        self._rows = [list(zip(n, r)) for n, r in zip(mdp.next.tolist(), mdp.reward.tolist())]
        self._obs = list(mdp.embedding)  # views of the read-only embedding
        self._batch = 4 if max_steps is None else min(max_steps + 1, 64)  # doubles at a time
        self._done = True  # until reset sets the episode's _draws, _state and _steps

    def reset(self, seed: int) -> np.ndarray:
        if type(seed) is not int and not isinstance(seed, np.integer) or seed < 0:  # no bool
            raise ValidationError(f"reset seed must be an integer >= 0, got {seed!r}")
        draws = _uniforms(int(seed), self._batch)
        state = bisect_right(self._rho0_cdf, next(draws))  # draws, or raises, before any change
        self._draws, self._state, self._steps, self._done = draws, state, 0, False
        return self._obs[state]

    def step(self, action: int):
        if self._done:
            raise EpisodeFinishedError("step() after episode end; call reset()")
        if not 0 <= action < self.num_actions:
            raise ValidationError(f"action {action} out of range")
        cell = self._state * self.num_actions + action
        self._state, reward = self._rows[cell][bisect_right(self._cdf[cell], next(self._draws))]
        self._steps += 1
        self._done = self._steps == self.max_steps  # truncated
        return self._obs[self._state], reward, False, self._done


def _uniforms(seed: int, n: int):
    """The `default_rng(seed).random()` doubles, n at a time, the first n from `_SEEDED`."""
    first = _SEEDED.get(seed)
    hit = first is not None and len(first) == 8 * n  # a batch of another length misses
    if hit:
        yield from unpack(f"{n}d", first)
    rng = np.random.default_rng(seed)  # after a hit, only for an episode that outlives it
    batch = rng.random(n)  # after a hit, the n doubles `first` holds
    if not hit:
        if len(_SEEDED) >= SEED_CAP:
            _SEEDED.clear()
        _SEEDED[seed] = batch.tobytes()
        yield from batch.tolist()
    while True:
        yield from rng.random(n).tolist()


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
    _check_size(f"chain:{length}", length, 2, 2)
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
                    branching: int) -> FiniteMDP:
    """Random tabular process, regenerated until non-degenerate."""
    if seed < 0:
        raise ValidationError(f"random process seed must be >= 0, got {seed}")
    if num_states < 1 or num_actions < 1 or branching < 1:
        raise ValidationError("sizes and branching must be >= 1")
    _check_size(f"random:{seed}:{num_states}:{num_actions}:{branching}", num_states,
                num_actions, branching)
    rng = np.random.default_rng(seed)
    reward_values = (0.0, 0.5, 1.0)
    for _ in range(MAX_RETRIES):
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
    raise ValidationError(f"could not draw a non-degenerate MDP in {MAX_RETRIES} tries")


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
    """Sampling environment for a tabular id (see `make_mdp_from_id`)."""
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
        # slot by slot, as a Python sum over the row; a padded slot adds 0 * (0 + V) = 0
        q = np.zeros(n * k)  # q[s * k + a]
        for j in range(m.prob.shape[1]):
            q = q + m.prob[:, j] * (m.reward[:, j] + values[t + 1][m.next[:, j]])
        values[t] = -np.inf
        for a in range(k):  # sequential tie rule: the lowest action wins
            better = q[a::k] > values[t] + 1e-15
            values[t] = np.where(better, q[a::k], values[t])
            policy[t] = np.where(better, a, policy[t])
    return values, policy


def optimal_return(m: FiniteMDP, horizon: int) -> float:
    """Expected optimal return from the initial distribution."""
    values, _ = value_iteration(m, horizon)
    return float(np.dot(m.rho0, values[0]))
