import numpy as np
import pytest

from nonmarkov.aggregators import parse_spec
from nonmarkov.analysis import (
    DependencyStructure,
    _flat_dist,
    HistoryMDP,
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
from nonmarkov.core import (
    PROB_TOL, FiniteMDP, History, NMDPOracle, Outcome, ReplayStream, UndecodableHistoryError,
    ValidationError, distributions_equal, initial_history, is_degenerate)
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


def whole_history_dependency(oracle, h, state_pool, tol=PROB_TOL):
    """Reference empirical dependency: every perturbed History is built whole
    and every transition asks the oracle's History form."""
    actions = range(oracle.num_actions)
    base = {a: _flat_dist(oracle.transition(h, a)) for a in actions}
    indices, undecodable = [], 0
    for i in range(h.t + 1):
        hit = False
        for cand in oracle.substitution_candidates(h, i, state_pool):
            if np.max(np.abs(cand - h.states[i])) <= tol:
                continue
            perturbed = History(h.states[:i] + (cand,) + h.states[i + 1:], h.actions, h.rewards)
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


def result_or_error(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)


class HistoryOnlyOracle(NMDPOracle):
    """A proxy that forwards only `initial` and the History-form methods, as a
    tracing wrapper would, so its streams are the base-class replay default."""

    def __init__(self, inner):
        self.inner = inner
        self.num_actions = inner.num_actions

    def initial(self):
        return self.inner.initial()

    def transition(self, h, action):
        return self.inner.transition(h, action)

    def substitution_candidates(self, h, index, state_pool):
        return self.inner.substitution_candidates(h, index, state_pool)


class TestStreamMatchesWholeHistory:
    @pytest.mark.parametrize("spec", [
        "S^2", "conv:1,-0.5", "S_l:0.5", "D^1", "corr:1,2,3,4,5,6", "S^1+D_l:0.8"])
    def test_empirical_dependency(self, spec):
        # six corr weights end the process at t = 5: both forms must raise there
        oracle = as_nmdp_oracle(CHAIN5, spec)
        hs = reachable_histories(oracle, max_t=5)
        assert len(hs) == 63
        for h in hs:
            assert (result_or_error(empirical_dependency, oracle, h, POOL)
                    == result_or_error(whole_history_dependency, oracle, h, POOL))

    @pytest.mark.parametrize("spec", ["S^2", "D^1", "corr:1,2,3,4,5"])
    def test_history_only_proxy(self, spec):
        oracle = as_nmdp_oracle(CHAIN5, spec)
        proxy = HistoryOnlyOracle(oracle)
        assert isinstance(proxy.begin(), ReplayStream)
        for h in reachable_histories(oracle, max_t=3):
            assert empirical_dependency(proxy, h, POOL) == empirical_dependency(oracle, h, POOL)
        hm, hp = build_markov_abstraction(oracle, 4), build_markov_abstraction(proxy, 4)
        assert ([whole_history_key(h) for h in hp.histories]
                == [whole_history_key(h) for h in hm.histories])
        assert hp.mdp.outcomes == hm.mdp.outcomes
        assert np.array_equal(hp.mdp.rho0, hm.mdp.rho0)


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
        # 1 + 2 + 4 histories up to t=2 fit, then the cap stops t=3 at 3 of 8
        oracle = build_nonmarkov_embedding(CHAIN5)
        with pytest.raises(StateExplosionError,
                           match=r"history cap 10 reached at t=3 of horizon 6, 10 interned"):
            build_markov_abstraction(oracle, horizon=6, cap=10)

    def test_horizon_states_absorbing(self):
        oracle = build_nonmarkov_embedding(make_chain(2))
        hm = build_markov_abstraction(oracle, horizon=1)
        for i, h in enumerate(hm.histories):
            if h.t == 1:
                for a in range(2):
                    (o,) = hm.mdp.row(i, a)
                    assert o.next_state == i and o.reward == 0.0


def whole_history_key(h):
    return (
        tuple(tuple(round(float(x), 12) for x in s) for s in h.states),
        h.actions,
        tuple(round(float(r), 12) for r in h.rewards),
    )


def whole_history_walk(oracle, horizon):
    """Reference abstraction: a breadth-first walk that interns each history
    by its whole rounded record.  Returns (histories, outcomes, rho0)."""
    histories, index, queue = [], {}, []

    def intern(h):
        key = whole_history_key(h)
        if key not in index:
            index[key] = len(histories)
            histories.append(h)
            queue.append(index[key])
        return index[key]

    rho0_entries = [(intern(initial_history(obs)), float(p)) for obs, p in oracle.initial()]
    rows = {}
    head = 0
    while head < len(queue):
        i = queue[head]
        head += 1
        h = histories[i]
        if h.t >= horizon:
            continue
        rows[i] = tuple(
            tuple(Outcome(intern(h.extend(a, reward, obs)), float(reward), float(p))
                  for (obs, reward), p in oracle.transition(h, a))
            for a in range(oracle.num_actions))
    outcomes = tuple(
        rows[i] if i in rows else tuple((Outcome(i, 0.0, 1.0),) for _ in range(oracle.num_actions))
        for i in range(len(histories)))
    rho0 = np.zeros(len(histories))
    for i, p in rho0_entries:
        rho0[i] += p
    return histories, outcomes, rho0


class TestAbstractionMatchesWholeHistoryWalk:
    @pytest.mark.parametrize("spec", ["id", "S^1", "D^1", "S_l:0.5", "corr:1,2,3,4,5"])
    def test_chain_oracles(self, spec):
        self.assert_same(as_nmdp_oracle(CHAIN5, spec), horizon=4)

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("horizon,states", [(3, 340), (4, 1364)])
    def test_random_embeddings(self, seed, horizon, states):
        oracle = build_nonmarkov_embedding(make_random_mdp(seed, 4, 2, 2))
        assert self.assert_same(oracle, horizon).mdp.num_states == states

    @staticmethod
    def assert_same(oracle, horizon):
        hm = build_markov_abstraction(oracle, horizon)
        histories, outcomes, rho0 = whole_history_walk(oracle, horizon)
        assert ([whole_history_key(h) for h in hm.histories]
                == [whole_history_key(h) for h in histories])
        assert hm.mdp.outcomes == outcomes
        assert np.array_equal(hm.mdp.rho0, rho0)
        return hm


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


    def test_undecodable_history_at_horizon_detected(self):
        m = make_chain(3)
        hm = build_markov_abstraction(build_nonmarkov_embedding(m), horizon=2)
        histories = list(hm.histories)
        i = next(i for i, h in enumerate(histories) if h.t == 2)
        h = histories[i]
        histories[i] = History(h.states[:-1] + (np.array([9.0, 9.0, 9.0]),),
                               h.actions, h.rewards)
        bad = HistoryMDP(mdp=hm.mdp, histories=tuple(histories))
        report = verify_equivalence_roundtrip(m, horizon=2, abstraction=bad)
        assert not report["pass"]
        assert report["violations"] == [{"where": f"history {i} (t=2)",
                                         "expected": "embedded state",
                                         "got": "undecodable last state"}]


def repeated_pair_mdp():
    """chain:3 with slip 0.25 whose first branch of every row is listed twice,
    each copy with half its probability."""
    m = make_chain(3, p_slip=0.25)
    outcomes = tuple(
        tuple((Outcome(lst[0].next_state, lst[0].reward, lst[0].prob / 2),) * 2 + lst[1:]
              for lst in row)
        for row in m.outcomes)
    return FiniteMDP(num_states=3, num_actions=2, rho0=m.rho0, outcomes=outcomes,
                     embedding=m.embedding)


class TestRepeatedOutcomes:
    @pytest.mark.parametrize("spec", ["id", "S^1"])
    def test_oracle_keeps_table_order(self, spec):
        m = repeated_pair_mdp()
        oracle = as_nmdp_oracle(m, spec)
        ((g0, _),) = oracle.initial()
        dist = oracle.transition(initial_history(g0), 1)
        assert [p for _, p in dist] == [o.prob for o in m.row(0, 1)]

    def test_roundtrip_passes(self):
        report = verify_equivalence_roundtrip(repeated_pair_mdp(), horizon=3)
        assert report["pass"], report["violations"]

    @pytest.mark.parametrize("spec", ["S^1", "D^1"])
    def test_abstraction_preserves_optimum(self, spec):
        m = repeated_pair_mdp()
        hm = build_markov_abstraction(as_nmdp_oracle(m, spec), horizon=4)
        assert optimal_return(hm.mdp, 4) == pytest.approx(optimal_return(m, 4), abs=1e-9)


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
