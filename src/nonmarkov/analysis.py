"""Dependency-structure analysis and finite category-equivalence verification.

The empirical dependency check exhaustively perturbs one history position at
a time and compares exact transition distributions; the analytical check
predicts the same set from the series a/b of the aggregator's filter.  The
category functors turn a non-Markovian oracle into an explicit history-state
tabular process and back, letting the round-trip identity be verified cell by
cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregators import Filter, parse_spec
from .core import (
    PROB_TOL,
    FiniteMDP,
    History,
    NMDPOracle,
    Outcome,
    UndecodableHistoryError,
    ValidationError,
    distributions_equal,
    initial_history,
    latest_state,
)

DEP_WEIGHT_TOL = 1e-9


class StateExplosionError(RuntimeError):
    """History enumeration exceeded the configured cap."""


# ---------------------------------------------------------------------------
# dependency structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependencyStructure:
    """Set of history indices whose state, if substituted, changes transitions."""

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


def _flat_dist(dist):
    """Transition outcomes as (flat key tuple, prob) pairs for exact comparison."""
    return [((*obs, reward), p) for ((obs, reward), p) in
            (((tuple(o), r), p) for ((o, r), p) in dist)]


def empirical_dependency(oracle: NMDPOracle, h: History, state_pool,
                         tol: float = PROB_TOL) -> DependencyStructure:
    """Exhaustive perturbation test of every history position.

    Position i is a dependency when substituting some candidate state there
    changes the transition distribution for some action.  A perturbation
    that makes the history undecodable also counts as a change (the
    original history was decodable, so the transition law visibly differs);
    such events are tallied in `undecodable`.
    """
    actions = range(oracle.num_actions)
    base = {a: _flat_dist(oracle.transition(h, a)) for a in actions}
    indices = []
    undecodable = 0
    for i in range(h.t + 1):
        candidates = oracle.substitution_candidates(h, i, state_pool)
        hit = False
        for cand in candidates:
            if np.max(np.abs(cand - h.states[i])) <= tol:
                continue  # not a substitution
            perturbed = History(
                h.states[:i] + (cand,) + h.states[i + 1:], h.actions, h.rewards)
            for a in actions:
                try:
                    d = _flat_dist(oracle.transition(perturbed, a))
                except UndecodableHistoryError:
                    undecodable += 1
                    hit = True
                    break
                if not distributions_equal(base[a], d, tol):
                    hit = True
                    break
            if hit:
                break
        if hit:
            indices.append(i)
    return DependencyStructure(t=h.t, indices=tuple(indices), undecodable=undecodable)


def analytical_dependency(spec, t: int) -> DependencyStructure:
    """Predicted dependency set at time t from the aggregator's filter.

    The raw state s_t is (a/b)(g)_t / w_t, so position t - tau is a
    dependency exactly where the tau-th coefficient of the series a/b is
    nonzero; those coefficients, divided by the gain w_t, are attached as
    weights.  A lone `corr` atom (a/b = 1 - z) gives {t-1, t}; chains that
    mix `corr` with other atoms have no analytical form here.
    """
    if isinstance(spec, str):
        spec = parse_spec(spec)
    if t < 0:
        raise ValidationError("t must be >= 0")
    if spec.then is not None or (spec.gain is not None
                                 and (spec.b, spec.a) != ((1.0,), (1.0, -1.0))):
        raise ValidationError(
            f"no analytical dependency form for {spec.label!r}: corr chained with other atoms")
    series = Filter(spec.a, spec.b).coeffs_upto(t + 1) / spec.weight(t)
    weights = {t - tau: float(c) for tau, c in enumerate(series) if abs(c) > DEP_WEIGHT_TOL}
    return DependencyStructure(t=t, indices=tuple(sorted(weights)), weights=weights)


# ---------------------------------------------------------------------------
# category functors on finite instances
# ---------------------------------------------------------------------------

class NonMarkovEmbeddingOracle(NMDPOracle):
    """A tabular process viewed as history-conditioned: ignores all but the last state."""

    def __init__(self, mdp: FiniteMDP):
        self.mdp = mdp
        self.num_actions = mdp.num_actions

    def initial(self):
        return [(self.mdp.embedding[s], float(p))
                for s, p in enumerate(self.mdp.rho0) if p > 0]

    def transition(self, h: History, action: int):
        idx = self.mdp.match_state(latest_state(h))
        if idx is None:
            raise UndecodableHistoryError(
                f"latest state at t={h.t} matches no embedded state")
        return [((self.mdp.embedding[o.next_state], o.reward), o.prob)
                for o in self.mdp.row(idx, action)]


def build_nonmarkov_embedding(m: FiniteMDP) -> NonMarkovEmbeddingOracle:
    return NonMarkovEmbeddingOracle(m)


def _history_key(h: History):
    return (
        tuple(tuple(round(float(x), 12) for x in s) for s in h.states),
        h.actions,
        tuple(round(float(r), 12) for r in h.rewards),
    )


@dataclass(frozen=True)
class HistoryMDP:
    """Explicit tabular process whose states enumerate reachable histories."""

    mdp: FiniteMDP
    histories: tuple  # index -> History

    def history_of(self, state: int) -> History:
        return self.histories[state]


def build_markov_abstraction(oracle: NMDPOracle, horizon: int,
                             cap: int = 100_000) -> HistoryMDP:
    """Enumerate reachable histories up to `horizon` as explicit states.

    Transition probabilities are inherited exactly; histories at the
    horizon become absorbing (zero reward) so the table stays closed.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    histories = []
    index = {}
    queue = []

    def intern(h: History) -> int:
        key = _history_key(h)
        if key not in index:
            if len(histories) >= cap:
                raise StateExplosionError(
                    f"state explosion: more than {cap} reachable histories")
            index[key] = len(histories)
            histories.append(h)
            queue.append(index[key])
        return index[key]

    rho0_entries = [(intern(initial_history(obs)), float(p))
                    for obs, p in oracle.initial()]

    rows = {}
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        h = histories[i]
        if h.t >= horizon:
            continue
        per_action = []
        for a in range(oracle.num_actions):
            lst = tuple(
                Outcome(intern(h.extend(a, reward, obs)), float(reward), float(p))
                for (obs, reward), p in oracle.transition(h, a)
            )
            per_action.append(lst)
        rows[i] = tuple(per_action)

    n = len(histories)
    outcomes = []
    for i in range(n):
        if i in rows:
            outcomes.append(rows[i])
        else:
            outcomes.append(tuple(
                (Outcome(i, 0.0, 1.0),) for _ in range(oracle.num_actions)))
    rho0 = np.zeros(n)
    for i, p in rho0_entries:
        rho0[i] += p
    mdp = FiniteMDP(
        num_states=n,
        num_actions=oracle.num_actions,
        rho0=rho0,
        outcomes=tuple(outcomes),
        embedding=tuple(np.array([float(i)]) for i in range(n)),
    )
    return HistoryMDP(mdp=mdp, histories=tuple(histories))


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
    if abstraction is None:
        abstraction = build_markov_abstraction(build_nonmarkov_embedding(m), horizon)
    violations = []
    hm = abstraction.mdp
    for i, h in enumerate(abstraction.histories):
        if h.t >= horizon:
            continue
        s = m.match_state(latest_state(h))
        if s is None:
            violations.append({"where": f"history {i}", "expected": "embedded state",
                               "got": "undecodable last state"})
            continue
        for a in range(m.num_actions):
            got = []
            for o in hm.row(i, a):
                child = abstraction.history_of(o.next_state)
                ns = m.match_state(latest_state(child))
                got.append(((float(ns) if ns is not None else np.nan, o.reward), o.prob))
            expected = [((float(o.next_state), o.reward), o.prob) for o in m.row(s, a)]
            flat_got = [((k[0], k[1]), p) for k, p in got]
            flat_exp = [((k[0], k[1]), p) for k, p in expected]
            if not distributions_equal(flat_exp, flat_got, tol):
                violations.append({
                    "where": f"history {i} (t={h.t}), action {a}",
                    "expected": sorted(flat_exp),
                    "got": sorted(flat_got),
                })
    return {"pass": not violations, "violations": violations,
            "histories": len(abstraction.histories), "horizon": horizon}


def _reward_image(phi_R: dict, r: float, tol: float = PROB_TOL) -> float:
    for key, val in phi_R.items():
        if abs(key - r) <= tol:
            return val
    raise ValidationError(f"reward map undefined at {r!r}")


def verify_morphism(m: FiniteMDP, m2: FiniteMDP, phi_S, phi_A, phi_R: dict,
                    tol: float = PROB_TOL) -> dict:
    """Literal pointwise verification of the two morphism conditions.

    phi_S and phi_A are index maps (lists), phi_R a finite map on the
    reward support of `m`.  Checks rho0 = rho0' o phi_S and
    T(s,a)(s',r) = T'(phi_S s, phi_A a)(phi_S s', phi_R r) on all cells.
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
        if abs(lhs - rhs) > tol:
            violations.append({"where": f"rho0, state {s}", "expected": lhs, "got": rhs})

    rewards = m.reward_support()
    for s in range(m.num_states):
        for a in range(m.num_actions):
            row = m.row(s, a)
            row2 = m2.row(phi_S[s], phi_A[a])
            for s_next in range(m.num_states):
                for r in rewards:
                    lhs = sum(o.prob for o in row
                              if o.next_state == s_next and abs(o.reward - r) <= tol)
                    r2 = _reward_image(phi_R, r, tol)
                    rhs = sum(o.prob for o in row2
                              if o.next_state == phi_S[s_next] and abs(o.reward - r2) <= tol)
                    if abs(lhs - rhs) > tol:
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


# ---------------------------------------------------------------------------
# history enumeration helper
# ---------------------------------------------------------------------------

def reachable_histories(oracle: NMDPOracle, max_t: int, cap: int = 100_000):
    """All reachable histories of the oracle with t <= max_t."""
    hm = build_markov_abstraction(oracle, horizon=max_t, cap=cap)
    return list(hm.histories)
