"""Domain types: vector states, histories, and finite tabular decision processes.

A decision process history carries the full (state, action, reward) record up
to the current timestep; transitions of a non-Markovian process condition on
that whole record.  Everything here is immutable after construction so that
analysis code can share instances freely.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, islice, repeat
from typing import NamedTuple

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


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(types) -> bool:
    """Python or numpy ints and floats only; numpy would read a bool or a numeric string."""
    return all(issubclass(k, (int, float, np.integer, np.floating))
               and not issubclass(k, (bool, np.bool_)) for k in set(types))


def json_number(v, at=""):  # JSON ints and floats, as floats, at any list depth; not true or "1"
    if isinstance(v, list) or is_int(v) or isinstance(v, float):
        return [json_number(x, at) for x in v] if isinstance(v, list) else float(v)
    raise TypeError(f"{at}non-number {v!r}")


def frozen(x) -> bool:
    """A 1-d float64 array whose memory is a `bytes` object, directly or through views: numpy
    will not make it writable, so its values are constant and its identity names them."""
    if not (isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 1):
        return False
    while isinstance(x, np.ndarray):
        x = x.base
    return type(x) is bytes


def as_state(x) -> np.ndarray:
    """A `frozen` float vector of x's values, rejecting NaN/Inf and non-1d input; a finite
    frozen x is returned as it is."""
    keep = frozen(x)
    v = x if keep else np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValidationError(f"state vector must be 1-d and nonempty, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValidationError("state vector entries must be finite")
    return x if keep else np.frombuffer(v.tobytes())


@dataclass(frozen=True, eq=False)
class History:
    """A (s_{0:t}, a_{0:t-1}, r_{0:t-1}) triple; |states| = |actions|+1 = |rewards|+1.
    Two histories are equal when their actions, rewards and states' bytes are."""

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
        vars(self).update(states=states, actions=actions, rewards=rewards)  # past frozen

    def _key(self) -> tuple:
        return self.actions, self.rewards, tuple(s.tobytes() for s in self.states)

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, History) else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def t(self) -> int:
        return len(self.states) - 1

    def extend(self, action: int, reward: float, state) -> "History":
        """This history one step longer, sharing a frozen `state`.  Only the appended step
        is validated: the prefix was validated when it was built and is frozen."""
        state = as_state(state)
        if state.shape != self.states[-1].shape:
            raise ValidationError("inconsistent state dimensions in history: "
                                  f"{self.states[-1].shape[0]} then {state.shape[0]}")
        h = object.__new__(History)
        vars(h).update(states=self.states + (state,), actions=self.actions + (int(action),),
                       rewards=self.rewards + (float(reward),))
        return h


def initial_history(s0) -> History:
    return History((s0,), (), ())


# -- finite distributions ----------------------------------------------------

def canonical(keys, prob) -> np.ndarray:
    """A finite law as one (m, d + 1) array: its distinct (n, d) key rows in lexicographic
    order (-0.0 is 0.0, a NaN equals nothing), each followed by its summed probabilities."""
    if not len(prob):
        return np.zeros((0, 2))  # every empty law is the same
    keys = np.array(keys, dtype=float) + 0.0
    order = np.lexsort(keys.T[::-1])  # stable: a row's probabilities add in input order
    keys = keys[order]
    new = np.concatenate(([True], (keys[1:] != keys[:-1]).any(axis=1)))
    sums = np.bincount(np.cumsum(new) - 1, np.asarray(prob, dtype=float)[order])
    return np.concatenate([keys[new], sums[:, None]], axis=1)


def same_law(c1, c2, tol: float = PROB_TOL) -> bool:
    """Whether `canonical` laws c1, c2 have one shape and agree within `tol`; NaN never agrees."""
    return c1.shape == c2.shape and bool((np.abs(c1 - c2) <= tol).all())


class Outcome(NamedTuple):
    """One branch of a transition: next state index, reward, probability."""

    next_state: int
    reward: float
    prob: float


def _outcomes(nxt, reward, prob) -> tuple:
    """`Outcome`s of the flat arrays, made without the namedtuple's argument parsing."""
    return tuple(map(tuple.__new__, repeat(Outcome), zip(nxt.tolist(), reward.tolist(),
                                                         prob.tolist())))


@dataclass(frozen=True, eq=False)
class FiniteMDP:
    """Tabular time-homogeneous decision process with an injective vector embedding.

    `outcomes[s][a]` is the finite distribution over (next state, reward) and
    row `embedding[s]` of the read-only (num_states, k) array is the vector
    observation emitted for state `s`.  Cell c = s * num_actions + a is held in
    read-only `length[c]` and zero-padded rows `next[c]`, `reward[c]`, `prob[c]`, which
    `row` reads.  A table from `from_arrays` builds its `outcomes` on their first read.
    """

    num_states: int
    num_actions: int
    rho0: np.ndarray
    outcomes: tuple  # outcomes[s][a] -> tuple of Outcome
    embedding: np.ndarray  # (num_states, k); embedding[s] -> StateVec

    def __post_init__(self):
        self._validate(self._compile)

    @classmethod
    def from_arrays(cls, num_states, num_actions, rho0, length, next, reward, prob, embedding):
        """Cell c's outcomes are the next `length[c]` of the flat `next`, `reward` and `prob`."""
        m = object.__new__(cls)
        vars(m).update(num_states=num_states, num_actions=num_actions, rho0=rho0,
                       embedding=embedding)
        m._validate(lambda: (length, next, reward, prob, num_states, None))
        return m

    def _compile(self):
        """The table as flat arrays, through one flat list of numbers; the number of whole
        states, and the next state a cell's slot was given as, for an error message."""
        if len(self.outcomes) != self.num_states:
            raise ValidationError("outcomes must have one row per state")
        rows = next((s for s, row in enumerate(self.outcomes) if len(row) != self.num_actions),
                    self.num_states)  # a short state is reported after a bad cell before it
        cells = list(map(tuple, chain.from_iterable(islice(self.outcomes, rows))))
        length = np.array(list(map(len, cells)), dtype=np.intp)
        table = list(chain.from_iterable(cells))
        try:
            flat = list(chain.from_iterable(table))
            ok = set(map(len, table)) <= {3} and _numbers(map(type, flat))
        except TypeError:  # an outcome that is a number
            ok = False
        if not ok:
            s, a = divmod(next(c for c, cell in enumerate(cells) for o in cell if not (
                np.shape(o) == (3,) and _numbers(map(type, o)))), self.num_actions)
            raise ValidationError(f"state {s}, action {a}: each outcome must be a "
                                  "(next_state, reward, prob) triple of numbers")
        object.__setattr__(self, "outcomes", tuple(zip(*[iter(cells)] * self.num_actions)))
        return (length, *np.array(flat, dtype=float).reshape(-1, 3).T, rows,
                lambda c, j: cells[c][j][0])

    def _validate(self, table):
        if self.num_states < 1 or self.num_actions < 1:
            raise ValidationError("num_states and num_actions must be >= 1")
        rho0 = np.asarray(self.rho0, dtype=float)
        if rho0.shape != (self.num_states,):
            raise ValidationError(f"rho0 must have shape ({self.num_states},)")
        if not (np.all(rho0 >= 0) and abs(rho0.sum() - 1.0) <= PROB_TOL):
            raise ValidationError("rho0 must be a finite probability vector (sum 1 within 1e-12)")
        rho0.flags.writeable = False
        object.__setattr__(self, "rho0", rho0)

        length, *flat, rows, shown = table()
        live = np.arange(length.max(initial=1)) < length[:, None]
        nxt, reward, prob = np.zeros((3, *live.shape))  # padding passes every check below
        nxt[live], reward[live], prob[live] = flat
        with np.errstate(all="ignore"):  # in the order of `total += prob`; inf - inf is nan
            total = reduce(np.add, prob.T, np.zeros(len(length)))
        bad_next = ~((nxt >= 0) & (nxt < self.num_states) & (nxt == np.floor(nxt)))
        bad_num = ~(np.isfinite(reward) & np.isfinite(prob))
        bad_slot = bad_next | bad_num | (prob < 0)
        bad = (length == 0) | bad_slot.any(axis=1) | ~(np.abs(total - 1.0) <= PROB_TOL)
        if bad.any():
            c = int(np.argmax(bad))
            j = int(np.argmax(bad_slot[c]))
            msg = ("empty outcome list" if not length[c]
                   else f"next state {shown(c, j) if shown else nxt[c, j]} out of range"
                   if bad_next[c, j]
                   else "non-finite reward or probability" if bad_num[c, j]
                   else "negative probability" if bad_slot[c, j]
                   else f"outcome probs sum to {float(total[c])!r}, not 1")
            s, a = divmod(c, self.num_actions)
            raise ValidationError(f"state {s}, action {a}: {msg}")
        if rows < self.num_states:
            raise ValidationError(f"state {rows}: expected {self.num_actions} action rows")
        for name, arr in (("next", np.asarray(nxt, dtype=np.intp)), ("reward", reward),
                          ("prob", prob), ("length", length)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

        try:
            emb = np.array(self.embedding, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:  # ragged rows or non-numbers
            raise ValidationError(f"embedding must be a matrix of numbers ({exc})") from exc
        if emb.ndim != 2 or emb.shape[0] != self.num_states or emb.shape[1] < 1:
            raise ValidationError(
                f"embedding must have one nonempty vector per state, got shape {emb.shape}")
        if not np.all(np.isfinite(emb)):
            raise ValidationError("embedding entries must be finite")
        _, first, twin = np.unique(emb + 0.0, axis=0, return_index=True, return_inverse=True)
        first = first[twin].ravel()  # first[s]: the first state whose row equals s's row
        dup = np.flatnonzero(first != np.arange(self.num_states))
        if dup.size:  # the first duplicate state, and its first-seen twin
            raise ValidationError("embedding is not injective: "
                                  f"states {first[dup[0]]} and {dup[0]}")
        # memory over bytes, which no caller can make writable again (`core.frozen` rows)
        object.__setattr__(self, "embedding", np.frombuffer(emb.tobytes()).reshape(emb.shape))

    def __getattr__(self, name):  # the `outcomes` of `from_arrays`, built on its first read
        if name != "outcomes":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        live, ends = np.arange(self.prob.shape[1]) < self.length[:, None], np.cumsum(self.length)
        flat = _outcomes(*(x[live] for x in (self.next, self.reward, self.prob)))
        cells = map(flat.__getitem__, map(slice, (ends - self.length).tolist(), ends.tolist()))
        vars(self)["outcomes"] = tuple(zip(*[cells] * self.num_actions))
        return self.outcomes

    def __reduce__(self):  # copies rebuild through __post_init__, so their arrays stay frozen
        return type(self), tuple(getattr(self, name) for name in self.__dataclass_fields__)

    @cached_property
    def _rows(self) -> dict:  # row bytes -> state, for match_states, built on its first call
        data, width = (self.embedding + 0.0).tobytes(), self.embedding[0].nbytes  # -0.0 -> 0.0
        return {data[s * width:(s + 1) * width]: s for s in range(self.num_states)}

    def row(self, state: int, action: int):
        c = range(self.num_states)[state] * self.num_actions + range(self.num_actions)[action]
        return _outcomes(*(x[c, :self.length[c]] for x in (self.next, self.reward, self.prob)))

    def match_states(self, states) -> list:
        """For each of the equal-shape `states`, the index of the embedded state nearest
        to it in max-abs distance (lowest index on ties), or None if beyond
        EMBED_MATCH_TOL.  An exact row is the unique distance-0 match (the embedding is
        injective), so it is looked up by its bytes first."""
        vecs = np.array(states, dtype=float) + 0.0  # -0.0 -> 0.0, as in `_rows`
        if vecs.shape[1:] != self.embedding.shape[1:]:
            raise ValidationError(f"state of shape {vecs.shape[1:]} does not match the "
                                  f"embedding rows of shape {self.embedding.shape[1:]}")
        data, width = vecs.tobytes(), self.embedding[0].nbytes
        found = [self._rows.get(data[i:i + width]) for i in range(0, len(data), width)]
        for i, s in enumerate(found):
            if s is None:
                d = np.max(np.abs(self.embedding - vecs[i]), axis=1)
                found[i] = int(np.argmin(d)) if d.min() <= EMBED_MATCH_TOL else None
        return found

    def reward_support(self):
        return sorted(set(self.reward[np.arange(self.reward.shape[1]) < self.length[:, None]]
                          .tolist()))


def is_degenerate(m: FiniteMDP) -> bool:
    """True iff two distinct states have identical outcome rows for every action."""
    live = np.arange(m.prob.shape[1]) < m.length[:, None]
    cell = np.divmod(np.repeat(np.arange(len(m.length)), m.length), m.num_actions)
    law = canonical(np.column_stack([*cell, m.next[live], m.reward[live]]), m.prob[live])
    buckets = {}  # by a state's exact (action, next state) columns, which equal rows share
    for rows in np.split(law, np.searchsorted(law[:, 0], np.arange(1, m.num_states))):
        buckets.setdefault(rows[:, 1:3].tobytes(), []).append(rows[:, 3:])
    return any(same_law(r1, r2)
               for bucket in buckets.values() for r1, r2 in combinations(bucket, 2))


class UndecodableHistoryError(ValidationError):
    """Raised when a decoded observation matches no embedded state."""


class NMDPOracle:
    """Exact transition evaluator for a finite non-Markovian decision process.

    Subclasses implement `initial()`, a finite distribution over first observations
    as (obs, prob) pairs, and the History form: `transition(h, a)`, a finite
    distribution over (next observation, reward) as ((obs, reward), prob) pairs, and
    `substitution_candidates`.  The analysis reads the prefix form, which a subclass may
    override and which defaults to the History form: `begin()`, `pull`, `key`,
    `transition_at` and `candidates_at`, where a prefix is the History (None before the
    first pull).  Prefixes are immutable; `pull(p, obs, action, reward)` returns `p` one
    step longer.  Observations are 1-d float arrays.  Both distributions must be
    deterministic functions of their arguments and sum to 1 within 1e-12; a key may
    repeat, and consumers sum the probabilities of equal keys.  `key(p)` is None, or for
    every prefix a hashable value; prefixes with equal keys have equal `transition_at` rows,
    pulling the same step onto each gives prefixes with equal keys (so the abstraction walk
    expands one prefix per key), and the oracle has `verdicts`, where `empirical_dependency`
    caches row comparisons.
    """

    num_actions: int

    def initial(self):
        raise NotImplementedError(f"{type(self).__name__} does not implement initial()")

    def transition(self, h: History, action: int):
        raise NotImplementedError(f"{type(self).__name__} does not implement transition(h, a)")

    def substitution_candidates(self, h: History, index: int, state_pool):
        """Observations to substitute at `index` of `h`, one per raw state (or array row) of
        `state_pool`; `empirical_dependency` passes one read-only (n, k) array."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement substitution_candidates()")

    def begin(self):
        """The prefix of the empty history."""
        return None

    def pull(self, p, obs, action=None, reward=None):
        return initial_history(obs) if p is None else p.extend(action, reward, obs)

    def key(self, p):
        return None

    def transition_at(self, p, action: int):
        return self.transition(p, action)

    def candidates_at(self, p, h: History, state_pool):
        """`substitution_candidates` of `h` at the position after prefix `p`."""
        return self.substitution_candidates(h, p.t + 1 if p else 0, state_pool)


# -- JSON interchange --------------------------------------------------------

def mdp_to_json(m: FiniteMDP) -> dict:
    return {
        "num_states": m.num_states,
        "num_actions": m.num_actions,
        "rho0": [float(p) for p in m.rho0],
        "outcomes": [
            [[{"next": n, "reward": r, "prob": p} for n, r, p in lst]
             for lst in row]
            for row in m.outcomes
        ],
        "embedding": m.embedding.tolist(),
    }


def mdp_from_dict(data: dict, source: str = "<dict>") -> FiniteMDP:
    def fail(path, msg):
        raise ValidationError(f"{source}: {path}: {msg}")

    def whole(v, at="") -> int:  # JSON ints and floats such as 2.0, not true or "2"
        if is_int(v) or isinstance(v, float) and v.is_integer():
            return int(v)
        raise TypeError(f"{at}non-integer {v!r}")

    if not isinstance(data, dict):
        fail("top level", f"expected a JSON object, got {json.dumps(data, default=repr)[:40]}")
    for key in ("num_states", "num_actions", "rho0", "outcomes", "embedding"):
        if key not in data:
            fail(key, "missing field")
    try:
        outcomes = tuple(tuple(tuple(Outcome(*(
            convert(o[k], f"state {s}, action {a}, outcome {j}: {k}: ")
            for k, convert in (("next", whole), ("reward", json_number), ("prob", json_number))))
            for j, o in enumerate(lst)) for a, lst in enumerate(row))
            for s, row in enumerate(data["outcomes"]))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        fail("outcomes", f"malformed outcome entry ({exc})")
    fields = {}
    for key, convert in (("num_states", whole), ("num_actions", whole),
                         ("rho0", json_number), ("embedding", json_number)):
        try:
            fields[key] = convert(data[key])
        except (TypeError, ValueError, OverflowError) as exc:
            fail(key, f"malformed value ({exc})")
    try:
        return FiniteMDP(**fields, outcomes=outcomes)
    except (ValidationError, OverflowError) as exc:  # a next state past float range
        raise ValidationError(f"{source}: {exc}") from exc


def load_json(path: str) -> dict:
    """Parse a UTF-8 JSON file holding an object; anything else is a ValidationError."""
    with open(path, encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not isinstance(data, dict):
        raise ValidationError(
            f"{path}: top level: expected a JSON object, got {json.dumps(data)[:40]}")
    return data


def load_mdp(path: str) -> FiniteMDP:
    return mdp_from_dict(load_json(path), source=path)


def save_mdp(m: FiniteMDP, path: str) -> None:
    with open(path, "w") as f:
        json.dump(mdp_to_json(m), f, indent=1)
