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

from .aggregators import Filter, identity_spec, parse_spec
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
from .wrappers import AggregatedMDPOracle

DEP_WEIGHT_TOL = 1e-9


class StateExplosionError(ValidationError):
    """History enumeration exceeded the configured cap: the input is too large."""


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
    return [((*obs, reward), p) for (obs, reward), p in dist]


def empirical_dependency(oracle: NMDPOracle, h: History, state_pool,
                         tol: float = PROB_TOL) -> DependencyStructure:
    """Exhaustive perturbation test of every history position.

    Position i is a dependency when substituting some candidate state there
    changes the transition distribution for some action.  A perturbation
    that makes the history undecodable also counts as a change (the
    original history was decodable, so the transition law visibly differs);
    such events are tallied in `undecodable`.  Each prefix of h is pulled once; a
    perturbation forks prefix i and pulls the candidate and the suffix.
    """
    actions = range(oracle.num_actions)
    steps = list(zip(h.states, (None, *h.actions), (None, *h.rewards)))
    prefixes = [oracle.begin()]  # prefixes[i]: the stream after positions 0..i-1
    for step in steps:
        prefixes.append(prefixes[-1].fork())
        prefixes[-1].pull(*step)
    base = {a: _flat_dist(prefixes[-1].transition(a)) for a in actions}
    indices, undecodable = [], 0
    for i in range(h.t + 1):
        for cand in prefixes[i].candidates(h, state_pool):
            if np.max(np.abs(cand - h.states[i])) <= tol:
                continue  # not a substitution
            stream = prefixes[i].fork()
            for step in ((cand, *steps[i][1:]), *steps[i + 1:]):
                stream.pull(*step)
            try:
                changed = any(not distributions_equal(
                    base[a], _flat_dist(stream.transition(a)), tol) for a in actions)
            except UndecodableHistoryError:
                undecodable += 1
                changed = True
            if changed:
                indices.append(i)
                break
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

def build_nonmarkov_embedding(m: FiniteMDP) -> AggregatedMDPOracle:
    """A tabular process viewed as history-conditioned: the identity filter."""
    return AggregatedMDPOracle(m, identity_spec())


@dataclass(frozen=True)
class HistoryMDP:
    """Explicit tabular process whose states enumerate reachable histories."""

    mdp: FiniteMDP
    histories: tuple  # index -> History


def build_markov_abstraction(oracle: NMDPOracle, horizon: int,
                             cap: int = 100_000) -> HistoryMDP:
    """Enumerate reachable histories up to `horizon` as explicit states.

    Transition probabilities are inherited exactly; histories at the
    horizon become absorbing (zero reward) so the table stays closed.
    A history is its parent plus one step, so it is interned by (parent
    index, last action, last reward, last observation), rounded to 12
    decimals; initial histories have no parent.
    """
    if horizon < 1:
        raise ValidationError("horizon must be >= 1")
    histories = []
    index = {}
    streams = {}  # open history below the horizon -> its stream, a fork of its parent's

    def intern(obs, parent=None, action=None, reward=0.0) -> int:
        key = (parent, action, round(float(reward), 12), tuple(round(float(x), 12) for x in obs))
        i = index.get(key)
        if i is None:
            t = 0 if parent is None else histories[parent].t + 1
            if len(histories) >= cap:
                raise StateExplosionError(f"state explosion: history cap {cap} reached at t={t} "
                                          f"of horizon {horizon}, {len(histories)} interned")
            i = index[key] = len(histories)
            histories.append(initial_history(obs) if parent is None
                             else histories[parent].extend(action, reward, obs))
            if t < horizon:
                streams[i] = oracle.begin() if parent is None else streams[parent].fork()
                streams[i].pull(histories[i].states[-1], action, reward)
        return i

    rho0_entries = [(intern(obs), float(p)) for obs, p in oracle.initial()]

    # `histories` grows breadth-first, so it is its own queue: row i is
    # appended when history i is expanded
    outcomes = []
    while len(outcomes) < len(histories):
        i = len(outcomes)
        if histories[i].t >= horizon:
            outcomes.append(tuple((Outcome(i, 0.0, 1.0),) for _ in range(oracle.num_actions)))
            continue
        outcomes.append(tuple(
            tuple(Outcome(intern(obs, i, a, reward), float(reward), float(p))
                  for (obs, reward), p in streams[i].transition(a))
            for a in range(oracle.num_actions)))
        del streams[i]

    n = len(histories)
    rho0 = np.zeros(n)
    for i, p in rho0_entries:
        rho0[i] += p
    mdp = FiniteMDP(
        num_states=n,
        num_actions=oracle.num_actions,
        rho0=rho0,
        outcomes=tuple(outcomes),
        embedding=np.arange(n, dtype=float)[:, None],
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
    hm = abstraction.mdp
    last = [m.match_state(latest_state(h)) for h in abstraction.histories]
    violations = []
    for i, h in enumerate(abstraction.histories):
        if last[i] is None:
            violations.append({"where": f"history {i} (t={h.t})", "expected": "embedded state",
                               "got": "undecodable last state"})
            continue
        if h.t >= horizon:
            continue
        for a in range(m.num_actions):
            row = hm.row(i, a)
            if any(last[o.next_state] is None for o in row):
                continue  # the undecodable child is a violation of its own
            got = [((float(last[o.next_state]), o.reward), o.prob) for o in row]
            expected = [((float(o.next_state), o.reward), o.prob) for o in m.row(last[i], a)]
            if not distributions_equal(expected, got, tol):
                violations.append({
                    "where": f"history {i} (t={h.t}), action {a}",
                    "expected": sorted(expected),
                    "got": sorted(got),
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
