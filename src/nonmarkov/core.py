"""Domain types: vector states, histories, and finite tabular decision processes.

A decision process history carries the full (state, action, reward) record up
to the current timestep; transitions of a non-Markovian process condition on
that whole record.  Everything here is immutable after construction so that
analysis code can share instances freely.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
EMBED_MATCH_TOL = 1e-9


class ValidationError(ValueError):
    """Raised when a constructed object violates its invariants."""


def parse_number(text: str, kind, spec: str):
    """`kind(text)` for a number inside the grammar string `spec`; a malformed
    number becomes a ValidationError naming the spec."""
    try:
        return kind(text)
    except ValueError:
        raise ValidationError(
            f"cannot parse {spec!r}: expected {kind.__name__}, got {text!r}") from None


class EmptyComponentError(ValueError):
    """Raised when extracting the latest action/reward from a length-0 history."""


def as_state(x) -> np.ndarray:
    """Coerce to a read-only float vector, rejecting NaN/Inf and non-1d input."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"state vector must be 1-d and nonempty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError("state vector entries must be finite")
    v = v.copy()
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class History:
    """A (s_{0:t}, a_{0:t-1}, r_{0:t-1}) triple; |states| = |actions|+1 = |rewards|+1."""

    states: tuple
    actions: tuple
    rewards: tuple

    def __post_init__(self):
        states = tuple(as_state(s) for s in self.states)
        actions = tuple(int(a) for a in self.actions)
        rewards = tuple(float(r) for r in self.rewards)
        if len(states) != len(actions) + 1 or len(states) != len(rewards) + 1:
            raise ValidationError(
                "history lengths must satisfy |states| = |actions|+1 = |rewards|+1, "
                f"got {len(states)}/{len(actions)}/{len(rewards)}"
            )
        dims = {s.shape[0] for s in states}
        if len(dims) > 1:
            raise ValidationError(f"inconsistent state dimensions in history: {dims}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "rewards", rewards)

    @property
    def t(self) -> int:
        return len(self.states) - 1

    def extend(self, action: int, reward: float, state) -> "History":
        """This history one step longer.  Only the appended step is validated:
        the prefix was validated when it was built and is read-only."""
        state = as_state(state)
        if state.shape != self.states[-1].shape:
            raise ValidationError("inconsistent state dimensions in history: "
                                  f"{self.states[-1].shape[0]} then {state.shape[0]}")
        h = object.__new__(History)
        object.__setattr__(h, "states", self.states + (state,))
        object.__setattr__(h, "actions", self.actions + (int(action),))
        object.__setattr__(h, "rewards", self.rewards + (float(reward),))
        return h

    def is_prefix_of(self, other: "History") -> bool:
        """Proper prefix relation on histories."""
        if other.t <= self.t:
            return False
        return (
            all(np.array_equal(a, b) for a, b in zip(self.states, other.states))
            and other.actions[: len(self.actions)] == self.actions
            and other.rewards[: len(self.rewards)] == self.rewards
        )


def initial_history(s0) -> History:
    return History((as_state(s0),), (), ())


# -- extraction operators ----------------------------------------------------

def extract_states(h: History) -> tuple:
    return h.states


def extract_actions(h: History) -> tuple:
    return h.actions


def extract_rewards(h: History) -> tuple:
    return h.rewards


def latest_state(h: History) -> np.ndarray:
    return h.states[-1]


def latest_action(h: History) -> int:
    if not h.actions:
        raise EmptyComponentError("history at t=0 has no actions")
    return h.actions[-1]


def latest_reward(h: History) -> float:
    if not h.rewards:
        raise EmptyComponentError("history at t=0 has no rewards")
    return h.rewards[-1]


# -- finite distributions ----------------------------------------------------

def canonical_distribution(outcomes):
    """Sort (key, prob) outcomes by key and merge duplicates.

    Keys must be comparable tuples.  Probabilities of identical keys are
    summed; the result is a tuple of (key, prob) pairs sorted by key.
    """
    merged: dict = {}
    for key, prob in outcomes:
        merged[key] = merged.get(key, 0.0) + prob
    return tuple(sorted(merged.items()))


def distributions_equal(d1, d2, tol: float = PROB_TOL) -> bool:
    """Exact comparison of canonicalized distributions.

    Keys are tuples of floats; two keys match when all components agree
    within `tol`, and matched probabilities must also agree within `tol`;
    a NaN never agrees.
    """
    c1 = canonical_distribution(d1)
    c2 = canonical_distribution(d2)
    if len(c1) != len(c2):
        return False
    for (k1, p1), (k2, p2) in zip(c1, c2):
        if len(k1) != len(k2):
            return False
        if not all(abs(a - b) <= tol for a, b in zip(k1, k2)):
            return False
        if not abs(p1 - p2) <= tol:
            return False
    return True


@dataclass(frozen=True)
class Outcome:
    """One branch of a transition: next state index, reward, probability."""

    next_state: int
    reward: float
    prob: float


@dataclass(frozen=True)
class FiniteMDP:
    """Tabular time-homogeneous decision process with an injective vector embedding.

    `outcomes[s][a]` is the finite distribution over (next state, reward) and
    row `embedding[s]` of the read-only (num_states, k) array is the vector
    observation emitted for state `s`.
    """

    num_states: int
    num_actions: int
    rho0: np.ndarray
    outcomes: tuple  # outcomes[s][a] -> tuple of Outcome
    embedding: np.ndarray  # (num_states, k); embedding[s] -> StateVec

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1:
            raise ValidationError("num_states and num_actions must be >= 1")
        rho0 = np.asarray(self.rho0, dtype=float)
        if rho0.shape != (self.num_states,):
            raise ValidationError(f"rho0 must have shape ({self.num_states},)")
        if np.any(rho0 < 0) or abs(rho0.sum() - 1.0) > PROB_TOL:
            raise ValidationError("rho0 must be a probability vector (sum 1 within 1e-12)")
        rho0.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)

        if len(self.outcomes) != self.num_states:
            raise ValidationError("outcomes must have one row per state")
        rows = []
        for s, per_action in enumerate(self.outcomes):
            if len(per_action) != self.num_actions:
                raise ValidationError(f"state {s}: expected {self.num_actions} action rows")
            arow = []
            for a, lst in enumerate(per_action):
                lst = tuple(lst)
                if not lst:
                    raise ValidationError(f"state {s}, action {a}: empty outcome list")
                total = 0.0
                for o in lst:
                    if not (0 <= o.next_state < self.num_states):
                        raise ValidationError(
                            f"state {s}, action {a}: next state {o.next_state} out of range")
                    if o.prob < 0:
                        raise ValidationError(f"state {s}, action {a}: negative probability")
                    total += o.prob
                if abs(total - 1.0) > PROB_TOL:
                    raise ValidationError(
                        f"state {s}, action {a}: outcome probs sum to {total!r}, not 1")
                arow.append(lst)
            rows.append(tuple(arow))
        object.__setattr__(self, "outcomes", tuple(rows))

        try:
            emb = np.array(self.embedding, dtype=float)
        except (TypeError, ValueError) as exc:  # ragged rows or non-numbers
            raise ValidationError(f"embedding must be a matrix of numbers ({exc})") from exc
        if emb.ndim != 2 or emb.shape[0] != self.num_states or emb.shape[1] < 1:
            raise ValidationError(
                f"embedding must have one nonempty vector per state, got shape {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValidationError("embedding entries must be finite")
        # + 0.0 turns -0.0 into 0.0, so rows equal under == share their bytes
        first = {}
        for s, row in enumerate(emb + 0.0):
            other = first.setdefault(row.tobytes(), s)
            if other != s:
                raise ValidationError(f"embedding is not injective: states {other} and {s}")
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)

    @property
    def obs_dim(self) -> int:
        return self.embedding.shape[1]

    def row(self, state: int, action: int):
        return self.outcomes[state][action]

    def match_state(self, vec):
        """Index of the embedded state nearest to `vec` in max-abs distance
        (lowest index on ties), or None if beyond EMBED_MATCH_TOL."""
        d = np.max(np.abs(self.embedding - np.asarray(vec, dtype=float)), axis=1)
        best = int(np.argmin(d))
        return best if d[best] <= EMBED_MATCH_TOL else None

    def reward_support(self):
        return sorted({o.reward for row in self.outcomes for lst in row for o in lst})


def is_degenerate(m: FiniteMDP) -> bool:
    """True iff two distinct states have identical outcome rows for every action."""
    rows = [[[((o.next_state, o.reward), o.prob) for o in lst] for lst in per_action]
            for per_action in m.outcomes]
    return any(all(map(distributions_equal, rows[i], rows[j]))
               for i in range(m.num_states) for j in range(i + 1, m.num_states))


class UndecodableHistoryError(ValueError):
    """Raised when a decoded observation matches no embedded state."""


class NMDPOracle:
    """Exact transition evaluator for a finite non-Markovian decision process.

    Subclasses implement `initial()` returning a finite distribution over first
    observations as (obs, prob) pairs, and either `begin()` or both History-form
    methods (each form replays the other): `transition(h, a)` returning a finite
    distribution over (next observation, reward) as ((obs, reward), prob) pairs,
    and `substitution_candidates`.  Both distributions must be deterministic
    functions of their arguments and sum to 1 within 1e-12; a key may repeat,
    and consumers sum the probabilities of equal keys.
    """

    num_actions: int

    def initial(self):
        raise NotImplementedError

    def transition(self, h: History, action: int):
        return self._replay(h, h.t + 1).transition(action)

    def substitution_candidates(self, h: History, index: int, state_pool):
        """Candidate observations to substitute at `index` of `h`, one per
        raw state in `state_pool`."""
        return self._replay(h, index).candidates(h, state_pool)

    def begin(self) -> "ReplayStream":
        """A stream at the empty history: `pull` appends a step, `fork` copies, and
        `transition(a)` and `candidates(h, pool)` answer for the prefix pulled."""
        return ReplayStream(self)

    def _replay(self, h: History, n: int):
        stream = self.begin()
        for step in zip(h.states[:n], (None, *h.actions), (None, *h.rewards)):
            stream.pull(*step)
        return stream


class ReplayStream:
    """The default oracle stream: the History pulled so far, replayed on every call."""

    def __init__(self, oracle: NMDPOracle, h: History = None):
        self.oracle, self.h = oracle, h

    def fork(self) -> "ReplayStream":
        return ReplayStream(self.oracle, self.h)

    def pull(self, obs, action=None, reward=None) -> None:
        self.h = initial_history(obs) if self.h is None else self.h.extend(action, reward, obs)

    def transition(self, action: int):
        return self.oracle.transition(self.h, action)

    def candidates(self, h: History, state_pool):
        return self.oracle.substitution_candidates(h, self.h.t + 1 if self.h else 0, state_pool)


# -- JSON interchange --------------------------------------------------------

def mdp_to_json(m: FiniteMDP) -> dict:
    return {
        "num_states": m.num_states,
        "num_actions": m.num_actions,
        "rho0": [float(p) for p in m.rho0],
        "outcomes": [
            [[{"next": o.next_state, "reward": o.reward, "prob": o.prob} for o in lst]
             for lst in row]
            for row in m.outcomes
        ],
        "embedding": m.embedding.tolist(),
    }


def mdp_from_dict(data: dict, source: str = "<dict>") -> FiniteMDP:
    def fail(path, msg):
        raise ValidationError(f"{source}: {path}: {msg}")

    for key in ("num_states", "num_actions", "rho0", "outcomes", "embedding"):
        if key not in data:
            fail(key, "missing field")
    try:
        outcomes = tuple(
            tuple(
                tuple(Outcome(int(o["next"]), float(o["reward"]), float(o["prob"]))
                      for o in lst)
                for lst in row
            )
            for row in data["outcomes"]
        )
    except (KeyError, TypeError) as exc:
        fail("outcomes", f"malformed outcome entry ({exc})")
    try:
        return FiniteMDP(
            num_states=int(data["num_states"]),
            num_actions=int(data["num_actions"]),
            rho0=np.asarray(data["rho0"], dtype=float),
            outcomes=outcomes,
            embedding=data["embedding"],
        )
    except ValidationError as exc:
        raise ValidationError(f"{source}: {exc}") from exc


def load_json(path: str):
    """Parse a JSON file; a syntax error becomes a ValidationError naming its line."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc


def load_mdp(path: str) -> FiniteMDP:
    return mdp_from_dict(load_json(path), source=path)


def save_mdp(m: FiniteMDP, path: str) -> None:
    with open(path, "w") as f:
        json.dump(mdp_to_json(m), f, indent=1)
