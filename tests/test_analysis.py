import numpy as np
import pytest

from nonmarkov.aggregators import parse_spec
from nonmarkov.analysis import (
    DependencyStructure,
    StateExplosionError,
    analytical_dependency,
    build_markov_abstraction,
    build_nonmarkov_embedding,
    compose_morphisms,
    empirical_dependency,
    reachable_histories,
    verify_equivalence_roundtrip,
    verify_morphism,
)
from nonmarkov.core import FiniteMDP, Outcome, ValidationError, initial_history, is_degenerate
from nonmarkov.envs import make_chain, make_random_mdp, optimal_return
from nonmarkov.wrappers import as_nmdp_oracle


CHAIN5 = make_chain(5)
POOL = list(CHAIN5.embedding)


def histories_at(oracle, t):
    return [h for h in reachable_histories(oracle, max_t=t) if h.t == t]


class TestAnalyticalDependency:
    def test_group_power_closed_form(self):
        d = analytical_dependency("S^2", 5)
        assert d.indices == (3, 4, 5)

    def test_group_power_clips_at_zero(self):
        d = analytical_dependency("S^3", 2)
        assert d.indices == (0, 1, 2)

    def test_identity(self):
        assert analytical_dependency("id", 7).indices == (7,)
        assert analytical_dependency("S^0", 7).indices == (7,)

    def test_difference_kernel_full_range(self):
        d = analytical_dependency("conv:1,-1", 4)
        assert d.indices == (0, 1, 2, 3, 4)
        assert all(abs(w - 1.0) < 1e-9 for w in d.weights.values())

    def test_geometric_two_point(self):
        d = analytical_dependency("S_l:0.5", 6)
        assert d.indices == (5, 6)

    @pytest.mark.parametrize("text,max_t,lag", [
        ("corr:1,2,3,4,5", 3, 1), ("S^1+D^1", 4, 0), ("S_l:0.5+D_l:0.5", 4, 0)])
    def test_lone_corr_and_cancelling_chains_match_empirical(self, text, max_t, lag):
        # corr alone depends on {t-1, t}; the two chains cancel to {t}.  Five
        # weights define the corr process through t = 4, so its last
        # transition the oracle can evaluate leaves a history at t = 3.
        oracle = as_nmdp_oracle(CHAIN5, text)
        for h in reachable_histories(oracle, max_t=max_t):
            ana = analytical_dependency(text, h.t)
            assert ana.indices == tuple(range(max(0, h.t - lag), h.t + 1))
            assert empirical_dependency(oracle, h, POOL).indices == ana.indices

    def test_corr_chained_with_other_atoms_rejected(self):
        for text in ("S^1+corr:1,2,3", "corr:1,2,3+S^1"):
            with pytest.raises(ValidationError):
                analytical_dependency(text, 2)

    def test_to_json(self):
        d = DependencyStructure(t=3, indices=(2, 3), weights={2: -0.5, 3: 1.0})
        j = d.to_json()
        assert j["t"] == 3 and j["indices"] == [2, 3]
        assert j["weights"] == {"2": -0.5, "3": 1.0}


class TestEmpiricalDependency:
    def test_identity_depends_on_last_only(self):
        oracle = as_nmdp_oracle(CHAIN5, "id")
        for h in histories_at(oracle, 3):
            d = empirical_dependency(oracle, h, POOL)
            assert d.indices == (3,)

    def test_difference_t3_full_range(self):
        oracle = as_nmdp_oracle(CHAIN5, "D^1")
        for h in histories_at(oracle, 3):
            d = empirical_dependency(oracle, h, POOL)
            assert d.indices == (0, 1, 2, 3)

    def test_sum_t4_two_point(self):
        oracle = as_nmdp_oracle(CHAIN5, "S^1")
        for h in histories_at(oracle, 4):
            d = empirical_dependency(oracle, h, POOL)
            assert d.indices == (3, 4)

    def test_group_power_two_t5(self):
        oracle = as_nmdp_oracle(CHAIN5, "S^2")
        h = histories_at(oracle, 5)[0]
        d = empirical_dependency(oracle, h, POOL)
        assert d.indices == (3, 4, 5)

    def test_nonmarkov_embedding_depends_on_last(self):
        oracle = build_nonmarkov_embedding(CHAIN5)
        for h in histories_at(oracle, 2):
            d = empirical_dependency(oracle, h, POOL)
            assert d.indices == (2,)


class TestNonMarkovEmbedding:
    def test_prefix_invariance(self):
        oracle = build_nonmarkov_embedding(CHAIN5)
        hs = reachable_histories(oracle, max_t=3)
        by_last = {}
        for h in hs:
            key = tuple(h.states[-1])
            by_last.setdefault(key, []).append(h)
        from nonmarkov.core import distributions_equal
        from nonmarkov.analysis import _flat_dist
        for group in by_last.values():
            for a in range(2):
                dists = [_flat_dist(oracle.transition(h, a)) for h in group]
                assert all(distributions_equal(dists[0], d) for d in dists)

    def test_last_state_row(self):
        oracle = build_nonmarkov_embedding(CHAIN5)
        h = initial_history(CHAIN5.embedding[0]).extend(1, 0.0, CHAIN5.embedding[1]) \
                                                .extend(1, 0.0, CHAIN5.embedding[2])
        dist = oracle.transition(h, 1)
        (obs, r), p = dist[0]
        assert np.array_equal(obs, CHAIN5.embedding[3]) and p == 1.0


class TestMarkovAbstraction:
    def test_history_counts_deterministic_chain(self):
        # chain-5 is deterministic: binary action tree, 2^t histories at depth t
        oracle = build_nonmarkov_embedding(CHAIN5)
        hm = build_markov_abstraction(oracle, horizon=3)
        assert hm.mdp.num_states == 1 + 2 + 4 + 8

    def test_probabilities_inherited(self):
        m = make_chain(3, p_slip=0.25)
        oracle = build_nonmarkov_embedding(m)
        hm = build_markov_abstraction(oracle, horizon=2)
        probs = sorted(o.prob for o in hm.mdp.row(0, 1))
        assert probs == [0.25, 0.75]

    def test_cap_enforced(self):
        oracle = build_nonmarkov_embedding(CHAIN5)
        with pytest.raises(StateExplosionError):
            build_markov_abstraction(oracle, horizon=6, cap=10)

    def test_horizon_states_absorbing(self):
        oracle = build_nonmarkov_embedding(make_chain(2))
        hm = build_markov_abstraction(oracle, horizon=1)
        for i, h in enumerate(hm.histories):
            if h.t == 1:
                for a in range(2):
                    (o,) = hm.mdp.row(i, a)
                    assert o.next_state == i and o.reward == 0.0


class TestEquivalenceRoundtrip:
    def test_chain_passes(self):
        report = verify_equivalence_roundtrip(CHAIN5, horizon=3)
        assert report["pass"] and report["violations"] == []

    def test_random_mdps_pass(self):
        for seed in range(5):
            m = make_random_mdp(seed, 4, 2, 2)
            report = verify_equivalence_roundtrip(m, horizon=3)
            assert report["pass"], report["violations"]

    def test_injected_fault_detected(self):
        m = make_chain(3, p_slip=0.25)
        hm = build_markov_abstraction(build_nonmarkov_embedding(m), horizon=2)
        # perturb one probability after abstraction
        out = [list(map(list, row)) for row in hm.mdp.outcomes]
        row0 = list(out[0][1])
        o = row0[0]
        row0[0] = Outcome(o.next_state, o.reward, o.prob + 1e-6)
        row0[1] = Outcome(row0[1].next_state, row0[1].reward, row0[1].prob - 1e-6)
        out[0][1] = tuple(row0)
        mutated = FiniteMDP(num_states=hm.mdp.num_states, num_actions=2,
                            rho0=hm.mdp.rho0,
                            outcomes=tuple(tuple(r) for r in out),
                            embedding=hm.mdp.embedding)
        from nonmarkov.analysis import HistoryMDP
        bad = HistoryMDP(mdp=mutated, histories=hm.histories)
        report = verify_equivalence_roundtrip(m, horizon=2, abstraction=bad)
        assert not report["pass"]
        assert report["violations"]

    def test_reward_fault_detected(self):
        m = make_chain(3)
        hm = build_markov_abstraction(build_nonmarkov_embedding(m), horizon=2)
        out = [list(map(list, row)) for row in hm.mdp.outcomes]
        o = out[0][1][0]
        out[0][1] = ((Outcome(o.next_state, o.reward + 0.5, o.prob),),)[0]
        mutated = FiniteMDP(num_states=hm.mdp.num_states, num_actions=2,
                            rho0=hm.mdp.rho0,
                            outcomes=tuple(tuple(r) for r in out),
                            embedding=hm.mdp.embedding)
        from nonmarkov.analysis import HistoryMDP
        bad = HistoryMDP(mdp=mutated, histories=hm.histories)
        report = verify_equivalence_roundtrip(m, horizon=2, abstraction=bad)
        assert not report["pass"]


class TestOptimumPreservation:
    @pytest.mark.parametrize("spec", ["S^1", "S^2", "D^1"])
    def test_abstraction_preserves_optimum(self, spec):
        oracle = as_nmdp_oracle(CHAIN5, spec)
        hm = build_markov_abstraction(oracle, horizon=6)
        assert optimal_return(hm.mdp, 6) == pytest.approx(
            optimal_return(CHAIN5, 6), abs=1e-9)


def permutation_mdp(m, perm):
    """Relabel states of m by `perm` (state s of m becomes perm[s])."""
    inv = [0] * m.num_states
    for s, p in enumerate(perm):
        inv[p] = s
    outcomes = tuple(
        tuple(
            tuple(Outcome(perm[o.next_state], o.reward, o.prob)
                  for o in m.row(inv[s2], a))
            for a in range(m.num_actions)
        )
        for s2 in range(m.num_states)
    )
    rho0 = np.zeros(m.num_states)
    for s in range(m.num_states):
        rho0[perm[s]] = m.rho0[s]
    embedding = tuple(m.embedding[inv[s2]] + 10.0 for s2 in range(m.num_states))
    return FiniteMDP(num_states=m.num_states, num_actions=m.num_actions,
                     rho0=rho0, outcomes=outcomes, embedding=embedding)


class TestMorphism:
    def test_identity_morphism(self):
        phi_R = {r: r for r in CHAIN5.reward_support()}
        report = verify_morphism(CHAIN5, CHAIN5, list(range(5)), [0, 1], phi_R)
        assert report["pass"]

    def test_permutation_morphism(self):
        perm = [2, 0, 1, 4, 3]
        m2 = permutation_mdp(CHAIN5, perm)
        phi_R = {r: r for r in CHAIN5.reward_support()}
        report = verify_morphism(CHAIN5, m2, perm, [0, 1], phi_R)
        assert report["pass"]

    def test_wrong_map_fails(self):
        phi_R = {r: r for r in CHAIN5.reward_support()}
        report = verify_morphism(CHAIN5, CHAIN5, [0, 1, 2, 3, 3], [0, 1], phi_R)
        assert not report["pass"]
        assert report["violations"]

    def test_out_of_range_rejected(self):
        phi_R = {r: r for r in CHAIN5.reward_support()}
        with pytest.raises(ValidationError):
            verify_morphism(CHAIN5, CHAIN5, [0, 1, 2, 3, 9], [0, 1], phi_R)

    def test_missing_reward_image_rejected(self):
        with pytest.raises(ValidationError):
            verify_morphism(CHAIN5, CHAIN5, list(range(5)), [0, 1], {0.0: 0.0})

    def test_composition_closure(self):
        perm1 = [1, 2, 3, 4, 0]
        perm2 = [4, 3, 2, 1, 0]
        m2 = permutation_mdp(CHAIN5, perm1)
        m3 = permutation_mdp(m2, perm2)
        rid = {r: r for r in CHAIN5.reward_support()}
        phi = (perm1, [0, 1], rid)
        phi2 = (perm2, [0, 1], rid)
        assert verify_morphism(CHAIN5, m2, *phi)["pass"]
        assert verify_morphism(m2, m3, *phi2)["pass"]
        comp = compose_morphisms(phi, phi2)
        assert verify_morphism(CHAIN5, m3, *comp)["pass"]


class TestReachableHistories:
    def test_counts(self):
        oracle = as_nmdp_oracle(CHAIN5, "S^1")
        hs = reachable_histories(oracle, max_t=2)
        assert len(hs) == 7  # 1 + 2 + 4 on a deterministic chain
        assert {h.t for h in hs} == {0, 1, 2}
