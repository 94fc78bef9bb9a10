"""Dependency-structure analysis and finite category-equivalence verification.

The empirical dependency check exhaustively perturbs one history position at
a time and compares exact transition distributions; the analytical check
predicts the same set from the series a/b of the aggregator's filter.  The
category functors turn a non-Markovian oracle into an explicit history-state
tabular process and back, letting the round-trip identity be verified cell by
cell.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import compress

import numpy as np

from . import aggregators
from .aggregators import identity_spec, parse_spec, remember
from .core import (
    PROB_TOL,
    FiniteMDP,
    History,
    NMDPOracle,
    UndecodableHistoryError,
    ValidationError,
    as_state,
    canonical,
    frozen,
    same_law,
)
from .wrappers import AggregatedMDPOracle

DEP_WEIGHT_TOL = 1e-9
HISTORY_CAP = 100_000  # interned histories of one walk, read when a walk interns one
_UNDECODABLE = "undecodable"  # a verdict: the perturbed prefix has no transition law


class StateExplosionError(ValidationError):
    """History enumeration exceeded the configured cap: the input is too large."""


# ---------------------------------------------------------------------------
# dependency structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyStructure:
    """Set of history indices whose state, if substituted, changes transitions.  Analytical
    `weights` are row t's decoder coefficients; an index without one is an offset position."""

    t: int
    indices: tuple
    weights: dict = None
    undecodable: int = 0  # perturbations that left the oracle's domain

    def to_json(self) -> dict:
        out = {"t": self.t, "indices": list(self.indices)}
        if self.weights is not None:
            out["weights"] = {str(i): w for i, w in sorted(self.weights.items())}
        if self.undecodable:
            out["undecodable"] = self.undecodable
        return out


def _law(row) -> np.ndarray:  # a transition row as a `canonical` law of (*obs, reward) rows
    keys = [[*obs.tolist(), reward] for (obs, reward), _ in row]
    for k in keys:
        if len(k) != len(keys[0]):
            raise ValidationError("observation dimensions differ in a transition row: "
                                  f"{len(keys[0]) - 1} then {len(k) - 1}")
    return canonical(keys, [p for _, p in row])


def empirical_dependency(oracle: NMDPOracle, h: History, state_pool) -> DependencyStructure:
    """Exhaustive perturbation test of every history position.

    Position i is a dependency when substituting some candidate state there changes
    the transition distribution for some action, compared at `PROB_TOL`.  A perturbation
    that makes the history undecodable also counts as a change (the original history
    was decodable, so the transition law visibly differs); such events are tallied in
    `undecodable`.  The pool is checked in one pass (entry by entry only to name a bad one)
    into one read-only (n, k) array for every `candidates_at` call, and the gaps of all
    positions' candidates to h's states are one array.  Each prefix of h is pulled once; a
    perturbation pulls the candidate and the suffix onto prefix i, and with prefix keys stops
    where it meets h's prefix key at the same position, from where it has h's rows.  Each
    verdict is cached in `oracle.verdicts` by (key of h, key of the perturbed prefix), through
    `remember`, so two keys' rows compare once.
    """
    t, k, states = h.t, h.states[0].size, list(state_pool)
    try:  # one pass for a valid pool; the per-entry loop below names the first bad entry
        pool = np.array(states, dtype=float)
        valid = pool.ndim == 2 and pool.shape[1] == k and np.isfinite(pool).all()
    except (TypeError, ValueError, OverflowError):
        valid = False
    if not valid:
        for p in map(as_state, states):
            if p.shape != h.states[0].shape:
                raise ValidationError(f"state pool entry of shape {p.shape} does not match "
                                      f"the history's states of shape {h.states[0].shape}")
        pool = np.array([as_state(s) for s in states]).reshape(-1, k)  # (0, k) when empty
    pool.flags.writeable = False
    actions, pull, key = range(oracle.num_actions), oracle.pull, oracle.key
    steps = list(zip(h.states, (None, *h.actions), (None, *h.rewards)))
    prefixes = [oracle.begin()]  # prefixes[i]: the prefix of positions 0..i-1
    for step in steps:
        prefixes.append(pull(prefixes[-1], *step))
    keys = [key(q) for q in prefixes]
    base_key, base = keys[-1], None  # base: h's rows, on the first miss
    verdicts = {} if base_key is None else oracle.verdicts  # empty for an unkeyed oracle
    cands = [oracle.candidates_at(q, h, pool) for q in prefixes[:-1]]
    subs = (np.abs(np.array(cands).reshape(t + 1, -1, k) - np.array(h.states)[:, None])
            .max(axis=2) > PROB_TOL).tolist()  # subs[i]: which candidates substitute at i
    indices, undecodable = [], 0
    for i in range(t + 1):
        for cand in compress(cands[i], subs[i]):
            p, j = pull(prefixes[i], cand, *steps[i][1:]), i + 1
            while j <= t and (base_key is None or key(p) != keys[j]):  # until p rejoins h
                p, j = pull(p, *steps[j]), j + 1
            vkey = (base_key, key(p) if j > t else base_key)
            verdict = verdicts.get(vkey)  # whether the rows differ, or _UNDECODABLE
            if verdict is None:
                base = base or {a: _law(oracle.transition_at(prefixes[-1], a)) for a in actions}
                try:  # a prefix that rejoined h has h's rows
                    verdict = j > t and any(
                        not same_law(base[a], _law(oracle.transition_at(p, a))) for a in actions)
                except UndecodableHistoryError:
                    verdict = _UNDECODABLE
                if base_key is not None:
                    remember(verdicts, vkey, verdict)
            undecodable += verdict is _UNDECODABLE
            if verdict:
                indices.append(i)
                break
    return DependencyStructure(t=t, indices=tuple(indices), undecodable=undecodable)


def analytical_dependency(spec, t: int) -> DependencyStructure:
    """Predicted dependency set at time t from a one-stage filter (b/a)(w . s).

    With c = (a/b) / w_t, the decoded raw state s_t is sum_tau c_tau g_{t-tau} (row t of
    the decoder), and the next aggregate's offset -b_0 sum_{tau>=1} (a/b)_tau g_{t+1-tau}
    reads row t+1, so position i in [0, t] is a dependency where c_{t-i} or c_{t+1-i}
    passes `DEP_WEIGHT_TOL`.  `weights` keep row t's coefficients c_{t-i}: an index
    without a weight is an offset position.  A gain after another stage, as in
    `S^1+corr:...`, has no form here.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if t < 0:
        raise ValidationError("t must be >= 0")
    if spec.then is not None:
        raise ValidationError(f"no analytical dependency form for {spec.label!r}: "
                              "a gain after another stage")
    b0, w = spec.b[0], spec.weight(t)  # (a/b0, b/b0) as Filter(a, b) makes it: b0 = 1 keeps them
    num, den = (c if b0 == 1.0 else tuple(x / b0 for x in c) for c in (spec.a, spec.b))
    c = [x / w for x in aggregators._series(num, den, t + 2).tolist()]  # c[tau]
    big = [abs(x) > DEP_WEIGHT_TOL for x in c]
    weights = {t - tau: x for tau, x, b in zip(range(t + 1), c, big) if b}
    indices = tuple(i for i, b, b1 in zip(range(t, -1, -1), big, big[1:]) if b or b1)[::-1]
    return DependencyStructure(t=t, indices=indices, weights=weights)


# ---------------------------------------------------------------------------
# category functors on finite instances
# ---------------------------------------------------------------------------

def build_nonmarkov_embedding(m: FiniteMDP) -> AggregatedMDPOracle:
    """A tabular process viewed as history-conditioned: the identity filter."""
    return AggregatedMDPOracle(m, identity_spec())


@dataclass(frozen=True, eq=False)
class HistoryMDP:
    """Explicit tabular process whose states enumerate reachable histories."""

    mdp: FiniteMDP
    histories: Histories  # index -> History: the walk's trie


class Histories(Sequence):
    """A walk's histories as a read-only trie: history i, at time `t[i]`, is `parent[i]`
    (None before an initial one) one step longer by `action[i]`, `reward[i]` and `obs[last[i]]`.
    A History is built on access and shares the arrays of `obs`, one per distinct observation."""

    def __init__(self):
        self.parent, self.action, self.reward, self.last, self.t, self.obs = ([] for _ in range(6))

    def __len__(self):
        return len(self.t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        i, steps = range(len(self))[i], []  # an IndexError past either end
        while i is not None:
            steps.append((self.obs[self.last[i]], self.action[i], self.reward[i]))
            i = self.parent[i]
        states, actions, rewards = zip(*reversed(steps))
        h = object.__new__(History)  # each state was validated as it entered `obs`
        vars(h).update(states=states, actions=actions[1:], rewards=rewards[1:])
        return h


class _HistoryWalk:
    """The breadth-first walk of the histories an oracle reaches within `horizon` steps.

    `levels()` appends one depth at a time to `histories`.  A history is its parent plus one
    step, interned by (parent, last action, last reward, last observation) rounded to 12
    decimals, and keeps the observation its key first saw; an observation is validated and
    rounded once, as it enters `histories.obs`.  Prefixes with equal `oracle.key`s have equal
    rows and children with equal keys, so each key gets an id (a key of None, a fresh one),
    and the first prefix with an id is expanded for all: `transition_at` for each action,
    then `pull` for each distinct child.  Ids are met, and expanded, in the order they are
    given, and a depth is gathered from its parents' expansions."""

    def __init__(self, oracle: NMDPOracle, horizon: int):
        if horizon < 0:
            raise ValidationError("horizon must be >= 0")
        self.oracle, self.horizon, self.histories = oracle, horizon, Histories()
        self._ids, self._seen = {}, {}  # oracle key -> id; obs bytes -> (j, rounded values)
        self._prefix, self._levels = [], []  # per id, until it is expanded; per depth: parents' ids
        self._starts = ([0], [0])  # per expanded id, and one more: first child; first outcome
        self._child = ([], [], [], [])  # per child: action (-1 for the root's), reward, j, id
        self._out = ([], [], [])  # per outcome: child, reward, prob

    def _observation(self, obs) -> tuple:
        hs, seen = self.histories, self._seen.get(frozen(obs) and obs.tobytes())
        if seen is None:  # a new observation, or one that is not frozen
            obs = as_state(obs)
            if hs.obs and obs.shape != hs.obs[0].shape:
                raise ValidationError(f"state dimensions differ: {hs.obs[0].size} then {obs.size}")
            seen = self._seen.setdefault(obs.tobytes(), (len(hs.obs), tuple(
                round(float(x), 12) for x in obs)))
            if seen[0] == len(hs.obs):
                hs.obs.append(obs)
        return seen

    def _id(self, prefix) -> int:
        key = self.oracle.key(prefix)
        k = len(self._prefix) if key is None else self._ids.setdefault(key, len(self._prefix))
        if k == len(self._prefix):
            self._prefix.append(prefix)
        return k

    def _expand(self, k: int, rows, pull: bool):  # rows: (action, row) pairs
        (c_action, c_reward, c_obs, c_id), out, index = self._child, self._out, {}
        for a, row in rows:
            for (obs, r), p in row:
                j, rounded = self._observation(obs)
                child = index.setdefault((a, round(float(r), 12), rounded), len(c_obs))
                if child == len(c_obs):  # counted for the cap before it is pulled
                    c_action.append(a)
                    c_reward.append(float(r))
                    c_obs.append(j)
                    c_id.append(self._id(self.oracle.pull(self._prefix[k], self.histories.obs[j],
                                                          None if a < 0 else a, r)) if pull else -1)
                for lst, x in zip(out, (child, float(r), float(p))):
                    lst.append(x)
        self._prefix[k] = None
        self._starts[0].append(len(c_obs))
        self._starts[1].append(len(out[0]))

    def levels(self):
        """Append each depth, and yield after each that expanded a history.  A depth stops at
        the parent where the cap, or an error of the oracle or of validation, comes first in
        (parent, action, outcome) order: it keeps the parents before it, yields, then raises."""
        oracle, hs, A, cap = self.oracle, self.histories, self.oracle.num_actions, HISTORY_CAP
        self._prefix.append(oracle.begin())  # id 0, the root's, has no key: it is no history
        kid, lo = np.zeros(1, dtype=np.intp), 0  # the parents' ids, and the first parent
        for t in range(self.horizon + 1):
            hi, first = len(hs), np.array(self._starts[0])
            tot = np.zeros(len(self._prefix), dtype=np.intp)  # children per id
            tot[:len(first) - 1] = np.diff(first)
            count, at, stop, error = hi, 0, len(kid), None
            explosion = StateExplosionError(f"state explosion: history cap {cap} reached at t={t} "
                                            f"of horizon {self.horizon}, {max(hi, cap)} interned")
            for q in np.flatnonzero(kid >= len(first) - 1).tolist():
                k = int(kid[q])
                if k < len(self._starts[0]) - 1:  # expanded at an earlier parent of this depth
                    continue
                count, at = count + int(tot[kid[at:q]].sum()), q  # interned before parent q
                if count > cap:
                    stop = q
                    break
                rows = ((a, oracle.transition_at(self._prefix[k], a)) for a in range(A)) if t \
                    else [(-1, (((obs, 0.0), p) for obs, p in oracle.initial()))]
                try:
                    self._expand(k, rows, t < self.horizon)
                except Exception as exc:  # raised after the parents before q are yielded, or
                    made = len(self._child[0]) - self._starts[0][-1]  # the cap, if it came first
                    stop, error = q, explosion if made and count + made > cap else exc
                    break
                tot[k] = self._starts[0][-1] - self._starts[0][-2]
            ends = hi + np.cumsum(tot[kid[:stop]])  # interned after each parent
            over = int(np.argmax(np.append(ends, cap + 1) > cap))  # the first past the cap
            if over < stop:
                stop, error = over, explosion
            kid, tot = kid[:stop], tot[kid[:stop]]
            src = np.repeat(np.array(self._starts[0])[kid] - np.cumsum(tot) + tot, tot) + \
                np.arange(tot.sum())  # each child's entry, the children of a parent in a row
            action, reward, last, ids = (np.array(x)[src].tolist() for x in self._child)
            hs.parent += np.repeat(np.arange(lo, lo + stop), tot).tolist() if t else [None] * len(src)
            hs.action += action if t else [None] * len(src)
            hs.reward += reward
            hs.last += last
            hs.t += [t] * len(src)
            self._levels.append(kid)
            kid, lo = np.array(ids, dtype=np.intp), hi
            if t and stop:
                yield
            if error:
                raise error

    def table(self) -> FiniteMDP:
        """History i below the horizon has the rows of its id's expansion, one at the horizon
        is absorbing with zero reward, and `rho0` is the root's row."""
        A, n = self.oracle.num_actions, len(self.histories)
        c_action, o_child, o_reward, o_prob = np.array(self._child[0]), *map(np.array, self._out)
        c_first, o_first = map(np.array, self._starts)
        ids = np.concatenate(self._levels)  # the root's, then each history's below the horizon
        count, tot = o_first[ids + 1] - o_first[ids], c_first[ids + 1] - c_first[ids]
        src = np.repeat(o_first[ids] - np.cumsum(count) + count, count) + np.arange(count.sum())
        owner = np.repeat(np.arange(-1, len(ids) - 1), count)  # -1: the root
        nxt = np.repeat(np.cumsum(tot) - tot - c_first[ids], count) + o_child[src]  # BFS order
        live, root, horizon = len(ids) - 1, owner < 0, (n - len(ids) + 1) * A
        return FiniteMDP.from_arrays(
            n, A, np.bincount(nxt[root], o_prob[src][root], minlength=n),
            length=np.concatenate([np.bincount((owner * A + c_action[o_child[src]])[~root],
                                               minlength=live * A), np.ones(horizon, np.intp)]),
            next=np.concatenate([nxt[~root], np.repeat(np.arange(live, n), A)]),
            reward=np.concatenate([o_reward[src][~root], np.zeros(horizon)]),
            prob=np.concatenate([o_prob[src][~root], np.ones(horizon)]),
            embedding=np.arange(n, dtype=float)[:, None])


def build_markov_abstraction(oracle: NMDPOracle, horizon: int) -> HistoryMDP:
    """Enumerate reachable histories up to `horizon` as explicit states.

    Transition probabilities are inherited exactly; histories at the horizon
    become absorbing (zero reward, the same row for all actions) so the table stays closed.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    walk = _HistoryWalk(oracle, horizon)
    for _ in walk.levels():
        pass
    return HistoryMDP(mdp=walk.table(), histories=walk.histories)  # frees the walk and oracle


def reachable_histories(oracle: NMDPOracle, max_t: int):
    """The reachable histories of the oracle with t <= max_t, breadth first.

    Lazy: the walk expands the next depth only when the caller has taken every
    history of the depths before it, so a caller that stops early skips the
    rest of the tree.  At max_t = 0 it yields the initial histories."""
    walk, done = _HistoryWalk(oracle, max_t), 0
    for _ in walk.levels():
        yield from map(walk.histories.__getitem__, range(done, len(walk.histories)))
        done = len(walk.histories)
    yield from walk.histories[done:]


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------

def verify_equivalence_roundtrip(m: FiniteMDP, horizon: int,
                                 abstraction: HistoryMDP = None,
                                 tol: float = PROB_TOL) -> dict:
    """Check the round-trip identity on every reachable (history, action) cell.

    The abstraction of the embedded process must assign, to each history
    state and action, exactly the original table row for (last state,
    action) under the history-to-state correspondence.
    """
    if not 0 <= tol < np.inf:  # inf would pass any row, nan or a negative tol fail some
        raise ValidationError(f"tol must be finite and >= 0, got {tol!r}")
    if abstraction is None:
        abstraction = build_markov_abstraction(build_nonmarkov_embedding(m), horizon)
    hm, hs, k = abstraction.mdp, abstraction.histories, m.num_actions
    if hm.num_actions != k:
        raise ValidationError(f"abstraction has {hm.num_actions} actions, the process {k}")
    if not isinstance(hs, Histories):
        raise ValidationError(f"histories must be a walk's Histories, got {type(hs).__name__}")
    decoded = np.array([-1 if s is None else s for s in m.match_states(hs.obs)])[hs.last]
    live = np.flatnonzero((decoded >= 0) & (np.array(hs.t) < horizon))
    cell = (live[:, None] * k + np.arange(k)).ravel()
    table = (decoded[live, None] * k + np.arange(k)).ravel()
    w = min(hm.prob.shape[1], m.prob.shape[1])  # a cell equal slot by slot passes at once
    same = (np.stack([hm.prob[cell, :w], hm.reward[cell, :w], decoded[hm.next[cell, :w]]])
            == np.stack([m.prob[table, :w], m.reward[table, :w], m.next[table, :w]])).all(axis=0)
    same = (same | (np.arange(w) >= m.length[table, None])).all(axis=1)
    slow = cell[~same | (hm.length[cell] != m.length[table])].tolist()
    violations = []
    for i, a in sorted({(u, -1) for u in np.flatnonzero(decoded < 0).tolist()}
                       | {divmod(c, k) for c in slow}):
        if a < 0:
            violations.append({"where": f"history {i} (t={hs.t[i]})",
                               "expected": "embedded state", "got": "undecodable last state"})
            continue
        got, expected = np.array(hm.row(i, a)), np.array(m.row(decoded[i], a))  # (n, 3) rows
        got[:, 0] = decoded[got[:, 0].astype(np.intp)]
        if (got[:, 0] < 0).any():
            continue  # the undecodable child is a violation of its own
        if not same_law(*(canonical(x[:, :2], x[:, 2]) for x in (expected, got)), tol):
            violations.append({
                "where": f"history {i} (t={hs.t[i]}), action {a}",
                "expected": sorted(((n, r), p) for n, r, p in expected.tolist()),
                "got": sorted(((n, r), p) for n, r, p in got.tolist()),
            })
    return {"pass": not violations, "violations": violations,
            "histories": len(hs), "horizon": horizon}


def _reward_image(phi_R: dict, r: float) -> float:
    for key, val in phi_R.items():
        if abs(key - r) <= PROB_TOL:
            return val
    raise ValidationError(f"reward map undefined at {r!r}")


def verify_morphism(m: FiniteMDP, m2: FiniteMDP, phi_S, phi_A, phi_R: dict) -> dict:
    """Pointwise verification of the two morphism conditions.

    phi_S and phi_A are index maps (lists), phi_R a finite map on the reward support of `m`.
    Checks rho0 = rho0' o phi_S and T(s,a)(s',r) = T'(phi_S s, phi_A a)(phi_S s', phi_R r)
    at `PROB_TOL` on all cells, visiting only the s' that either side of a cell reaches.
    """
    phi_S = list(phi_S)
    phi_A = list(phi_A)
    if len(phi_S) != m.num_states or any(not 0 <= x < m2.num_states for x in phi_S):
        raise ValidationError("phi_S must map every state of m into m2")
    if len(phi_A) != m.num_actions or any(not 0 <= x < m2.num_actions for x in phi_A):
        raise ValidationError("phi_A must map every action of m into m2")
    violations = []
    for s in range(m.num_states):
        lhs, rhs = float(m.rho0[s]), float(m2.rho0[phi_S[s]])
        if abs(lhs - rhs) > PROB_TOL:
            violations.append({"where": f"rho0, state {s}", "expected": lhs, "got": rhs})

    rewards = m.reward_support()
    images = [_reward_image(phi_R, r) for r in rewards]
    preimage = {}  # state of m2 -> the states phi_S maps onto it
    for s_next, x in enumerate(phi_S):
        preimage.setdefault(x, []).append(s_next)
    for s in range(m.num_states):
        for a in range(m.num_actions):
            row = m.row(s, a)
            row2 = m2.row(phi_S[s], phi_A[a])
            for s_next in sorted({n for n, _, _ in row}.union(  # else both sums are 0
                    *(preimage.get(n, ()) for n, _, _ in row2))):
                for r, r2 in zip(rewards, images):
                    lhs = sum(p for n, x, p in row if n == s_next and abs(x - r) <= PROB_TOL)
                    rhs = sum(p for n, x, p in row2
                              if n == phi_S[s_next] and abs(x - r2) <= PROB_TOL)
                    if abs(lhs - rhs) > PROB_TOL:
                        violations.append({
                            "where": f"T({s},{a}) at (s'={s_next}, r={r})",
                            "expected": lhs, "got": rhs,
                        })
    return {"pass": not violations, "violations": violations}


def compose_morphisms(phi, phi2):
    """(phi2 o phi) componentwise, for (phi_S, phi_A, phi_R) triples."""
    phi_S, phi_A, phi_R = phi
    phi2_S, phi2_A, phi2_R = phi2
    comp_S = [phi2_S[x] for x in phi_S]
    comp_A = [phi2_A[x] for x in phi_A]
    comp_R = {r: _reward_image(phi2_R, v) for r, v in phi_R.items()}
    return comp_S, comp_A, comp_R
