import functools
import gc
import inspect
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tuple_laws

from nonmarkov import aggregators, analysis, experiments
from nonmarkov.aggregators import Filter, parse_spec
from nonmarkov.analysis import (
    DependencyStructure,
    Histories,
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
    PROB_TOL, FiniteMDP, History, NMDPOracle, Outcome, UndecodableHistoryError,
    ValidationError, initial_history, is_degenerate, same_law)
from nonmarkov.envs import make_chain, make_mdp_from_id, make_random_mdp, optimal_return
from nonmarkov.experiments import SweepConfig, run_sweep
from nonmarkov.wrappers import AggregatedMDPOracle, as_nmdp_oracle


CHAIN5 = make_chain(5)
POOL = list(CHAIN5.embedding)
SLIPPY_CHAIN5 = make_chain(5, p_slip=0.3)


def histories_at(oracle, t):
    return [h for h in reachable_histories(oracle, max_t=t) if h.t == t]


def ending_in(hs: Histories, i: int, state) -> Histories:
    """A copy of the walk's histories whose history i ends in `state`, a new `obs` entry."""
    bad = Histories()
    for name, values in vars(hs).items():
        setattr(bad, name, list(values))
    bad.last[i] = len(bad.obs)
    bad.obs.append(np.array(state, dtype=float))
    return bad


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
        ("corr:1,2,3,4,5", 3, 1), ("S^1+D^1", 4, 0), ("S_l:0.5+D_l:0.5", 4, 0),
        ("conv:1,0,0.5", 4, 4), ("corr:1,2,3,4,5+S^1", 3, 2)])
    def test_lone_corr_and_cancelling_chains_match_empirical(self, text, max_t, lag):
        # corr alone depends on {t-1, t}; the two chains cancel to {t}.  Five
        # weights define the corr process through t = 4, so its last
        # transition the oracle can evaluate leaves a history at t = 3.  The
        # interior zero of conv:1,0,0.5's inverse series is filled by the next
        # aggregate's offset (row t+1), and corr+S^1 merges into one stage.
        oracle = as_nmdp_oracle(CHAIN5, text)
        for h in reachable_histories(oracle, max_t=max_t):
            ana = analytical_dependency(text, h.t)
            assert ana.indices == tuple(range(max(0, h.t - lag), h.t + 1))
            assert empirical_dependency(oracle, h, POOL).indices == ana.indices

    @pytest.mark.parametrize("text", ["S^0", "S^2", "S^3", "D^2", "conv:1,-0.5", "S_l:0.5",
                                      "D_l:0.8", "S_l:0.9+D^1", "corr:1,2,3,4,5,6,7,8"])
    def test_repeated_calls_match_a_fresh_series(self, text, monkeypatch):
        spec = parse_spec(text)
        inverse = Filter(spec.a, spec.b)  # the normalised pair the analytical series reads
        monkeypatch.setattr(aggregators, "_SERIES", {})
        ts = (2, 7, *range(8), *range(8))  # cold, longer, then every prefix twice
        got = [analytical_dependency(spec, t).weights for t in ts]
        stored = aggregators._SERIES[inverse.b, inverse.a]
        assert len(stored) == 9 and not stored.flags.writeable
        for t, weights in zip(ts, got):
            aggregators._SERIES.clear()
            fresh = inverse.coeffs_upto(t + 1) / spec.weight(t)
            assert weights == {t - tau: float(c) for tau, c in enumerate(fresh)
                               if abs(c) > analysis.DEP_WEIGHT_TOL}
            assert all(type(w) is float for w in weights.values())

    def test_corr_chained_with_other_atoms_rejected(self):
        with pytest.raises(ValidationError, match="a gain after another stage"):
            analytical_dependency("S^1+corr:1,2,3", 2)

    def test_offset_positions_carry_no_weight(self):
        d = analytical_dependency("conv:1,0,0.5", 4)  # a/b = 1 - 0.5 z^2 + 0.25 z^4 - ...
        assert d.indices == (0, 1, 2, 3, 4) and d.weights == {4: 1.0, 2: -0.5, 0: 0.25}

    def test_to_json(self):
        d = DependencyStructure(t=3, indices=(2, 3), weights={2: -0.5, 3: 1.0})
        j = d.to_json()
        assert j["t"] == 3 and j["indices"] == [2, 3]
        assert j["weights"] == {"2": -0.5, "3": 1.0} and "undecodable" not in j
        assert DependencyStructure(t=1, indices=(), undecodable=4).to_json() == {
            "t": 1, "indices": [], "undecodable": 4}


CONV_TEXTS = st.builds(
    lambda head, tail: "conv:" + ",".join(f"{c:g}" for c in (head, *tail)),
    st.sampled_from([1.0, 2.0, -2.0]),
    st.lists(st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0]), max_size=3))
CORR_CHAINS = st.builds(
    lambda ws, conv: "corr:" + ",".join(f"{w:g}" for w in ws) + "+" + conv,
    st.lists(st.sampled_from([1.0, 2.0, -1.0, 0.5, 3.0]), min_size=6, max_size=6), CONV_TEXTS)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.one_of(CONV_TEXTS, CORR_CHAINS))
def test_analytical_set_is_the_empirical_set(text):
    # interior zeros of the inverse series are where row t alone misses the offset
    try:
        oracle = as_nmdp_oracle(SLIPPY_CHAIN5, text)
    except ValidationError:  # an unstable decoder
        assume(False)
    want = [analytical_dependency(text, t).indices for t in range(5)]
    for h in reachable_histories(oracle, max_t=4):
        assert empirical_dependency(oracle, h, POOL).indices == want[h.t], (text, h.t)


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

    @pytest.mark.parametrize("entry,match", [
        ([0.0, np.nan, 0.0, 0.0, 0.0], "finite"),
        ([0.0, np.inf, 0.0, 0.0, 0.0], "finite"),
        (np.eye(5)[:2], "1-d"),
        ([], "nonempty"),
        ([1.0, 0.0, 0.0, 0.0], r"shape \(4,\) does not match the history's states of shape \(5,\)"),
    ], ids=["nan", "inf", "2-d", "empty", "wrong-length"])
    def test_pool_validated_before_any_pull(self, entry, match):
        class NoStreams(HistoryOnlyOracle):
            def begin(self):
                raise AssertionError("pool entries must be checked before any stream is made")

        oracle = NoStreams(as_nmdp_oracle(CHAIN5, "S^2"))
        h = histories_at(as_nmdp_oracle(CHAIN5, "S^2"), 2)[0]
        with pytest.raises(ValidationError, match=match):
            empirical_dependency(oracle, h, [*POOL, entry])

    @pytest.mark.parametrize("spec", ["S^2", "D^1", "S_l:0.5"])
    def test_pool_forms_agree(self, spec):
        # a 2-d array, a list of frozen rows and a list of int lists are one pool
        oracle = as_nmdp_oracle(CHAIN5, spec)
        forms = (CHAIN5.embedding, POOL, np.eye(5, dtype=int).tolist())
        assert np.array_equal(CHAIN5.embedding, np.eye(5))
        for h in reachable_histories(oracle, max_t=4):
            first, *rest = (empirical_dependency(oracle, h, pool) for pool in forms)
            assert all(r == first for r in rest)


def whole_history_dependency(oracle, h, state_pool):
    """Reference empirical dependency: every perturbed History is built whole
    and every transition asks the oracle's History form."""
    actions = range(oracle.num_actions)
    base = {a: tuple_laws.flat_dist(oracle.transition(h, a)) for a in actions}
    indices, undecodable = [], 0
    for i in range(h.t + 1):
        hit = False
        for cand in oracle.substitution_candidates(h, i, state_pool):
            if np.max(np.abs(cand - h.states[i])) <= PROB_TOL:
                continue
            perturbed = History(h.states[:i] + (cand,) + h.states[i + 1:], h.actions, h.rewards)
            for a in actions:
                try:
                    d = tuple_laws.flat_dist(oracle.transition(perturbed, a))
                except UndecodableHistoryError:
                    undecodable += 1
                    hit = True
                    break
                if not tuple_laws.canonical_equal(base[a], d, PROB_TOL):
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


class RowOracle(NMDPOracle):
    """A History-form oracle over 1-d states whose one action's row is `rows(h)`, and
    whose candidates are the pool's rows."""

    num_actions = 1

    def __init__(self, rows):
        self.rows = rows

    def transition(self, h, action):
        return self.rows(h)

    def substitution_candidates(self, h, index, state_pool):
        return list(state_pool)


class TestEdgeRows:
    H, POOL = initial_history([0.0]), [[0.0], [1.0]]

    def test_empty_rows_are_one_law(self):
        assert empirical_dependency(RowOracle(lambda h: []), self.H, self.POOL).indices == ()

    def test_empty_row_differs_from_a_nonempty_one(self):
        oracle = RowOracle(lambda h: [] if h.states[0][0] else [((np.zeros(1), 0.0), 1.0)])
        assert empirical_dependency(oracle, self.H, self.POOL).indices == (0,)

    def test_ragged_row_names_both_lengths(self):
        # its keys were compared as tuples of mixed lengths, without a word
        oracle = RowOracle(lambda h: [((np.zeros(2), 0.0), 0.5), ((np.zeros(3), 1.0), 0.5)])
        with pytest.raises(ValidationError, match="observation dimensions differ in a "
                                                  "transition row: 2 then 3"):
            empirical_dependency(oracle, self.H, self.POOL)


class HistoryOnlyOracle(NMDPOracle):
    """A proxy that forwards only `initial` and the History-form methods, as a
    tracing wrapper would, so its prefixes are the base-class History default."""

    def __init__(self, inner):
        self.inner = inner
        self.num_actions = inner.num_actions

    def initial(self):
        return self.inner.initial()

    def transition(self, h, action):
        return self.inner.transition(h, action)

    def substitution_candidates(self, h, index, state_pool):
        return self.inner.substitution_candidates(h, index, state_pool)


class InitialOnlyOracle(NMDPOracle):
    num_actions = 1

    def initial(self):
        return [(np.zeros(1), 1.0)]


def test_oracle_with_neither_form_raises():
    # the base class once replayed each form through the other, so these recursed
    # until RecursionError; now each ends in the History form's stub
    oracle = InitialOnlyOracle()
    for call in (lambda: oracle.transition(initial_history([0.0]), 0),
                 lambda: build_markov_abstraction(oracle, 2),
                 lambda: empirical_dependency(oracle, initial_history([0.0]), [np.ones(1)])):
        with pytest.raises(NotImplementedError, match="InitialOnlyOracle does not implement"):
            call()


class TransitionOnlyOracle(InitialOnlyOracle):
    def transition(self, h, action):
        return [((np.zeros(1), 0.0), 1.0)]


def test_history_form_without_candidates_raises():
    # a History-form oracle without candidates builds its abstraction, and the
    # base candidates_at ends in the substitution_candidates stub
    oracle, h = TransitionOnlyOracle(), initial_history([0.0])
    assert build_markov_abstraction(oracle, 2).mdp.num_states == 3
    for call in (lambda: oracle.substitution_candidates(h, 0, [np.zeros(1)]),
                 lambda: empirical_dependency(oracle, h, [np.ones(1)])):
        with pytest.raises(NotImplementedError,
                           match="TransitionOnlyOracle does not implement substitution_candidates"):
            call()


def head(h, n):
    """The first n states of `h` as a History."""
    return History(h.states[:n], h.actions[:n - 1], h.rewards[:n - 1])


def answers_at(oracle, p, k, h=None):
    """Transition rows and candidates, as bytes, at prefix `p` of `k`, or at the
    whole of `k` through the History form when `p` is None; the candidates
    substitute into `h` (default `k`) at the position after `k`."""
    h = k if h is None else h
    if p is None:
        rows = [oracle.transition(k, a) for a in range(2)]
        cands = oracle.substitution_candidates(h, k.t + 1, POOL)
    else:
        rows = [oracle.transition_at(p, a) for a in range(2)]
        cands = oracle.candidates_at(p, h, POOL)
    return ([[(o.tobytes(), r, q) for (o, r), q in row] for row in rows],
            [c.tobytes() for c in cands])


class TestPrefixValues:
    """A prefix is a value: pulling from it leaves it as it was."""

    @pytest.mark.parametrize("make", [lambda o: o, HistoryOnlyOracle], ids=["prefix", "history"])
    def test_two_suffixes_from_one_prefix(self, make):
        def fresh():
            return make(as_nmdp_oracle(SLIPPY_CHAIN5, "S^2"))

        oracle, hs = fresh(), histories_at(fresh(), 3)
        h = hs[0]
        g = next(k for k in hs if whole_history_key(head(k, 2)) == whole_history_key(head(h, 2))
                 and whole_history_key(k) != whole_history_key(h))
        p = oracle.pull(oracle.pull(oracle.begin(), h.states[0]), h.states[1], h.actions[0],
                        h.rewards[0])
        before, got = answers_at(oracle, p, h), []
        for k in (h, g):  # two different suffixes pulled from the one prefix
            q = p
            for step in zip(k.states[2:], k.actions[1:], k.rewards[1:]):
                q = oracle.pull(q, *step)
            got.append(answers_at(oracle, q, k))
            assert got[-1] == answers_at(fresh(), None, k)
        assert got[0] != got[1]
        assert answers_at(oracle, p, h) == before == answers_at(fresh(), None, head(h, 2), h)


class TestStreamMatchesWholeHistory:
    @pytest.mark.parametrize("spec", [
        "S^2", "conv:1,-0.5", "S_l:0.5", "D^1", "corr:1,2,3,4,5,6", "S^1+D_l:0.8"])
    def test_empirical_dependency(self, spec):
        # six corr weights end the process at t = 5: both forms must raise there
        oracle = as_nmdp_oracle(CHAIN5, spec)
        hs = list(reachable_histories(oracle, max_t=5))
        assert len(hs) == 63
        for h in hs:
            assert (result_or_error(empirical_dependency, oracle, h, POOL)
                    == result_or_error(whole_history_dependency, oracle, h, POOL))

    @pytest.mark.parametrize("spec", ["S^2", "D^1", "corr:1,2,3,4,5"])
    def test_history_only_proxy(self, spec):
        oracle = as_nmdp_oracle(CHAIN5, spec)
        proxy = HistoryOnlyOracle(oracle)
        assert proxy.begin() is None
        assert isinstance(proxy.pull(None, oracle.initial()[0][0]), History)
        for h in reachable_histories(oracle, max_t=3):
            assert empirical_dependency(proxy, h, POOL) == empirical_dependency(oracle, h, POOL)
        hm, hp = build_markov_abstraction(oracle, 4), build_markov_abstraction(proxy, 4)
        assert ([whole_history_key(h) for h in hp.histories]
                == [whole_history_key(h) for h in hm.histories])
        assert hp.mdp.outcomes == hm.mdp.outcomes
        assert np.array_equal(hp.mdp.rho0, hm.mdp.rho0)


class UnkeyedOracle(AggregatedMDPOracle):
    """The oracle without prefix keys, so every verdict is decided afresh."""

    def key(self, p):
        return None


VERDICT_SPECS = ["S^0", "S^2", "D^1", "conv:1,-0.5", "S_l:0.5", "S^1+corr:1,2,3,0.5,1,2,3"]


def dependency_pass(oracle, hs):
    return [empirical_dependency(oracle, h, POOL) for h in hs]


class TestVerdictsByKey:
    """`empirical_dependency` decides each (base key, key) verdict once per oracle."""

    @pytest.mark.parametrize("m", [CHAIN5, SLIPPY_CHAIN5], ids=["chain", "slippy"])
    @pytest.mark.parametrize("spec", VERDICT_SPECS)
    def test_keyed_equals_unkeyed(self, m, spec):
        keyed, unkeyed = (cls(m, parse_spec(spec)) for cls in (AggregatedMDPOracle, UnkeyedOracle))
        hs = list(reachable_histories(keyed, max_t=5))
        expected = dependency_pass(unkeyed, hs)
        for _ in ("cold", "warm"):  # a warm pass counts each undecodable verdict it hits
            assert dependency_pass(keyed, hs) == expected
        assert dependency_pass(unkeyed, hs) == expected
        assert keyed.verdicts and not unkeyed.verdicts
        assert {len(vkey) for vkey in keyed.verdicts} == {2}
        assert (sum(d.undecodable for d in expected) > 0) == (spec != "S^0")

    def test_warm_pass_compares_no_rows(self, monkeypatch):
        calls, compare = [0], analysis.same_law

        def counted(*args):
            calls[0] += 1
            return compare(*args)

        monkeypatch.setattr(analysis, "same_law", counted)
        oracle = as_nmdp_oracle(SLIPPY_CHAIN5, "S^2")
        hs = list(reachable_histories(oracle, max_t=5))
        cold = dependency_pass(oracle, hs)
        assert calls[0] > 0
        calls[0] = 0
        assert dependency_pass(oracle, hs) == cold
        assert calls[0] == 0

    def test_keyed_suffixes_stop_where_they_rejoin(self, monkeypatch):
        # S^3 decodes from its last three aggregates, so a perturbation at position i
        # meets h's prefix key at i + 3: a warm keyed pass pulls less, with equal results
        m, spec = make_mdp_from_id("chain:5:0.3"), parse_spec("S^3")
        keyed, unkeyed = AggregatedMDPOracle(m, spec), UnkeyedOracle(m, spec)
        hs = list(reachable_histories(keyed, max_t=6))
        pulls = {}
        for oracle in (keyed, unkeyed):
            cold = dependency_pass(oracle, hs)
            pulls[oracle], pull = 0, oracle.pull

            def counted(*args, oracle=oracle, pull=pull):
                pulls[oracle] += 1
                return pull(*args)

            monkeypatch.setattr(oracle, "pull", counted)
            assert dependency_pass(oracle, hs) == cold
        assert dependency_pass(keyed, hs) == dependency_pass(unkeyed, hs)
        assert 0 < pulls[keyed] < pulls[unkeyed]

    @pytest.mark.parametrize("spec", ["S^1", "S^3"])
    def test_undecodable_history_raises_after_rejoins(self, spec):
        # every perturbation before the last position rejoins h, whose last state
        # decodes to nothing: the check raises as it did before suffixes stopped
        oracle = as_nmdp_oracle(CHAIN5, spec)
        hs = list(reachable_histories(oracle, max_t=4))
        dependency_pass(oracle, hs)  # warm: every decodable verdict is cached
        h = hs[-1]
        bad = h.extend(0, 0.0, h.states[-1] + np.array([0.5, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(UndecodableHistoryError, match="t=5 matches no embedded state"):
            empirical_dependency(oracle, bad, POOL)

    def test_verdicts_stop_at_node_cap(self, monkeypatch):
        hs = list(reachable_histories(as_nmdp_oracle(CHAIN5, "S^2"), max_t=5))
        expected = dependency_pass(as_nmdp_oracle(CHAIN5, "S^2"), hs)
        monkeypatch.setattr(aggregators, "NODE_CAP", 8)
        oracle = as_nmdp_oracle(CHAIN5, "S^2")
        for _ in ("cold", "warm"):
            assert dependency_pass(oracle, hs) == expected
            assert len(oracle.verdicts) == 8


def recording(make, made: list):
    """`make`, which also appends each object it returns to `made`."""
    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]
    return record


class TestEveryCacheUnderTheCap:
    """A small NODE_CAP bounds every memo that `aggregators.remember` writes, and
    changes no result: past the cap an answer is computed again, not stored.  A
    walk's observation table is no memo, as its histories index it: each history
    adds at most one entry, so HISTORY_CAP bounds it."""

    SPECS = ["S^1", "S^2", "S^3", "D^2", "S_l:0.5", "D_l:0.5", "conv:1,0.5", "S^1+D_l:0.25"]

    def run_all(self, made):
        """The results of one learn cell, a deps pass, an abstraction and batch round trips,
        the size of every memo they wrote and of the walks' observation tables."""
        for objects in made.values():
            objects.clear()
        aggregators._SERIES.clear()
        csv = run_sweep(SweepConfig(envs=["chain:5:0.4"], wrappers=["S_l:0.5"], agents=["qwin:2"],
                                    seeds=[0], episodes=500, eval_episodes=20, horizon=8))
        oracle = as_nmdp_oracle(CHAIN5, "S^2")
        deps = [empirical_dependency(oracle, h, POOL) for h in reachable_histories(oracle, 4)]
        abstraction = build_markov_abstraction(
            as_nmdp_oracle(make_mdp_from_id("random:1:4:2:2"), "S^1"), horizon=3)
        x = np.random.default_rng(0).normal(size=(12, 2))
        batch = [(f.aggregate(x).tobytes(), f.decode(x).tobytes())
                 for f in map(parse_spec, self.SPECS)]
        # the sweep config parses each agent spec once up front, then the cell makes its own
        (env,), (_, agent), walks = made["envs"], made["agents"], made["walks"]
        sizes = {"learn nodes": env.node_count, "learn identity edges": len(env._seen),
                 "discretizer identity": len(agent.discretizer._seen),
                 "decoder nodes": len(oracle.nodes), "decoder edges": len(oracle.edges),
                 "oracle memo": len(oracle.memo), "verdicts": len(oracle.verdicts),
                 "series": len(aggregators._SERIES)}
        tables = {"deps walk": len(walks[0].histories.obs),
                  "abstraction walk": len(walks[1].histories.obs)}
        assert ",ok," in csv and ",0,0,500," not in csv  # the cell learned something
        assert all(len(w.histories.obs) <= len(w.histories) <= analysis.HISTORY_CAP for w in walks)
        return (csv, deps, abstraction.mdp.outcomes, batch), sizes, tables

    def test_every_cache_stays_within_the_cap(self, monkeypatch):
        made = {"envs": [], "agents": [], "walks": []}
        for module, name, key in ((experiments, "wrap", "envs"),
                                  (experiments, "parse_agent_spec", "agents"),
                                  (analysis, "_HistoryWalk", "walks")):
            monkeypatch.setattr(module, name, recording(getattr(module, name), made[key]))
        monkeypatch.setattr(aggregators, "_SERIES", {})
        results, uncapped, tables = self.run_all(made)
        assert min(uncapped.values()) > 8, uncapped  # so every cache meets the cap below
        assert min(tables.values()) > 8, tables  # so a table the cap bounded would show
        monkeypatch.setattr(aggregators, "NODE_CAP", 8)
        assert self.run_all(made) == (results, dict.fromkeys(uncapped, 8), tables)


class TestNonMarkovEmbedding:
    def test_prefix_invariance(self):
        oracle = build_nonmarkov_embedding(CHAIN5)
        hs = reachable_histories(oracle, max_t=3)
        by_last = {}
        for h in hs:
            key = tuple(h.states[-1])
            by_last.setdefault(key, []).append(h)
        for group in by_last.values():
            for a in range(2):
                dists = [analysis._law(oracle.transition(h, a)) for h in group]
                assert all(same_law(dists[0], d) for d in dists)

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

    def test_cap_enforced(self, monkeypatch):
        # 1 + 2 + 4 histories up to t=2 fit, then the cap stops t=3 at 3 of 8
        monkeypatch.setattr(analysis, "HISTORY_CAP", 10)
        oracle = build_nonmarkov_embedding(CHAIN5)
        with pytest.raises(StateExplosionError,
                           match=r"history cap 10 reached at t=3 of horizon 6, 10 interned"):
            build_markov_abstraction(oracle, horizon=6)

    def test_horizon_states_absorbing(self):
        oracle = build_nonmarkov_embedding(make_chain(2))
        hm = build_markov_abstraction(oracle, horizon=1)
        for i, h in enumerate(hm.histories):
            if h.t == 1:
                for a in range(2):
                    (o,) = hm.mdp.row(i, a)
                    assert o.next_state == i and o.reward == 0.0

    def test_horizon_row_shared_by_actions(self):
        oracle = build_nonmarkov_embedding(make_random_mdp(0, 3, 3, 2))
        hm = build_markov_abstraction(oracle, horizon=2)
        horizon = [i for i, h in enumerate(hm.histories) if h.t == 2]
        assert horizon
        for i in horizon:
            assert all(hm.mdp.row(i, a) == (Outcome(i, 0.0, 1.0),) for a in range(3))


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


HAS_SPECS = ["S^1", "S^2", "D^1", "S_l:0.5", "conv:1,-0.5", "corr:1,2,3,4,5,6,7",
             "S^1+corr:1,2,3,4,5,6,7", "D_l:0.5+corr:1,2,3,1,2,3,1+S"]
ROUNDTRIP_TOL = 1e-6  # the batch round trip's tolerance in test_aggregators.py


@functools.lru_cache(maxsize=None)
def identity_abstraction(env, horizon):
    return build_markov_abstraction(build_nonmarkov_embedding(make_mdp_from_id(env)), horizon)


def observations_at(hs, t):
    """(t + 1, n * k): the observations of the n histories at depth t, read off the trie,
    history j's k coordinates in columns j * k to j * k + k - 1."""
    parent = np.array([-1 if p is None else p for p in hs.parent])
    obs, last, at, rows = np.array(hs.obs), np.array(hs.last), np.array(hs.t) == t, []
    idx = np.flatnonzero(at)
    for _ in range(t + 1):
        rows.append(obs[last[idx]].ravel())
        idx = parent[idx]
    return np.array(rows[::-1])


class TestAggregatedTreeIsTheRawTree:
    """HAS relabels the history process of a tabular one: the walk of the aggregated oracle
    is the identity embedding's walk, array for array, and the observations of every
    history, batch-decoded, are its raw twin's.  Every filter decodes each column on its
    own, so one decode reads all histories of a depth."""

    @pytest.mark.parametrize("spec", HAS_SPECS)
    @pytest.mark.parametrize("env", ["chain:5:0.3", "random:1:4:2:2", "random:3:4:2:2"])
    def test_same_table_and_decoded_histories(self, env, spec):
        raw = identity_abstraction(env, 5)
        hm = build_markov_abstraction(as_nmdp_oracle(make_mdp_from_id(env), spec), 5)
        for name in ("next", "reward", "prob", "length", "rho0"):
            got, want = getattr(hm.mdp, name), getattr(raw.mdp, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        for t in range(6):
            got = parse_spec(spec).decode(observations_at(hm.histories, t))
            assert np.max(np.abs(got - observations_at(raw.histories, t))) <= ROUNDTRIP_TOL, t


    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(0, 199), st.integers(1, 4), st.integers(1, 2),
           st.integers(1, 2), st.integers(1, 4))
    def test_any_spec_on_any_small_process(self, data, seed, states, actions, branching,
                                           horizon):
        spec = data.draw(has_specs(horizon), label="spec")
        m = make_random_mdp(seed, states, actions, branching)
        raw = build_markov_abstraction(build_nonmarkov_embedding(m), horizon)
        hm = build_markov_abstraction(as_nmdp_oracle(m, spec), horizon)
        for name in ("next", "reward", "prob", "length", "rho0"):
            got, want = getattr(hm.mdp, name), getattr(raw.mdp, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name


@st.composite
def has_specs(draw, horizon):
    """A spec of the wrapper grammar: every family, and `+`-chains of up to three atoms,
    gains among them, of total order at most 8 (a power counts n, a `conv` band its tail,
    S, D, S_l, D_l and corr one).  A band is head-dominant, so its decoder is stable, and
    a `corr` gain lies in [0.5, 2] and lasts past `horizon`."""
    atoms, budget = [], 8
    for _ in range(draw(st.integers(1, 3))):
        family = draw(st.sampled_from(["id", "S^", "D^", "conv"] + budget * ["S", "D", "S_l",
                                                                           "D_l", "corr"]))
        budget -= family in ("S", "D", "S_l", "D_l", "corr")
        if family in ("S^", "D^"):
            n = draw(st.integers(0, budget))
            budget -= n
            atoms.append(f"{family}{n}")
        elif family == "conv":
            head = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
            tail = draw(st.lists(st.floats(-1.0, 1.0), max_size=budget))
            budget -= len(tail)
            scale = 0.8 * abs(head) / max(sum(map(abs, tail)), 0.8 * abs(head))
            atoms.append("conv:" + ",".join(repr(c) for c in (head, *(c * scale for c in tail))))
        elif family == "corr":
            gains = draw(st.lists(st.floats(0.5, 2.0), min_size=horizon + 1, max_size=8))
            atoms.append("corr:" + ",".join(map(repr, gains)))
        elif family in ("S_l", "D_l"):
            atoms.append(f"{family}:{draw(st.floats(0.0, 1.0))!r}")
        else:
            atoms.append(family)
    return "+".join(atoms)


class RoundingOracle(NMDPOracle):
    """Observations and rewards that differ only in the sign of a zero or below
    12 decimals, so that histories merge under the walk's rounded keys."""

    num_actions = 2

    def initial(self):
        return [(np.array([0.0, 1.0]), 0.25), (np.array([-0.0, 1.0]), 0.25),
                (np.array([0.0, 1.0 + 1e-14]), 0.25),
                (np.array([0.0, 1.0], dtype=np.float32), 0.25)]

    def transition(self, h, action):
        base = float(h.states[-1][1]) + 1.0 + 0.5 * action
        return [((np.array([0.0, base]), 0.0), 0.25),
                ((np.array([-0.0, base + 1e-14]), -0.0), 0.25),  # the first key
                ((np.array([1e-13, base]), 1e-14), 0.25),  # the first key
                ((np.array([0.0, base + 1e-11]), 0.0), 0.25)]  # a key of its own


class TestWalkRounding:
    def test_keys_round_per_coordinate(self):
        hm = TestAbstractionMatchesWholeHistoryWalk.assert_same(RoundingOracle(), horizon=3)
        assert hm.mdp.num_states == 1 + 4 + 16 + 64  # one initial history, two children per action
        assert hm.mdp.rho0.tolist() == [1.0] + [0.0] * 84
        assert hm.histories[1].states[-1].tobytes() == np.array([0.0, 2.0]).tobytes()


class TestHistorySequence:
    """An abstraction's `histories` is a trie that builds each History on access,
    and reads like the tuple of the same histories."""

    M = make_chain(3, p_slip=0.25)
    HM = build_markov_abstraction(build_nonmarkov_embedding(M), horizon=3)

    def test_reads_like_a_tuple(self):
        hs = self.HM.histories
        ref = tuple(whole_history_walk(build_nonmarkov_embedding(self.M), 3)[0])
        assert len(hs) == len(ref) == self.HM.mdp.num_states == 48
        for i in (0, 1, 7, len(ref) - 1, -1, -len(ref)):
            assert hs[i] == ref[i] and hs[i].t == ref[i].t
        for i in (len(ref), -len(ref) - 1):
            with pytest.raises(IndexError):
                hs[i]
        for cut in (slice(None), slice(1, 30, 3), slice(None, None, -2), slice(-4, None),
                    slice(5, 2)):
            assert hs[cut] == ref[cut]
        assert list(hs) == list(ref) and tuple(reversed(hs)) == ref[::-1]

    def test_each_access_builds_an_equal_history(self):
        hs = self.HM.histories
        for i in range(len(hs)):
            assert hs[i] == hs[i] and hash(hs[i]) == hash(hs[i])

    def test_one_array_per_distinct_observation(self):
        hs = self.HM.histories
        assert len(hs.obs) == 3  # the chain's three states, under 48 histories
        shared = {}
        for h in hs:
            for s in h.states:
                assert shared.setdefault(s.tobytes(), s) is s and not s.flags.writeable
        assert len(shared) == len({id(h.states[-1]) for h in hs}) == 3

    def test_the_walk_is_released(self):
        oracle = build_nonmarkov_embedding(self.M)
        ref = weakref.ref(oracle)
        hs = build_markov_abstraction(oracle, horizon=2).histories
        del oracle
        gc.collect()
        assert ref() is None
        assert set(vars(hs)) == {"parent", "action", "reward", "last", "t", "obs"}


class MixedDimensionOracle(NMDPOracle):
    num_actions = 1

    def initial(self):
        return [(np.zeros(2), 1.0)]

    def transition(self, h, action):
        return [((np.zeros(3), 0.0), 1.0)]


def test_walk_rejects_mixed_state_dimensions():
    with pytest.raises(ValidationError, match="state dimensions differ: 2 then 3"):
        build_markov_abstraction(MixedDimensionOracle(), horizon=2)


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
        i = hm.histories.t.index(2)
        bad = HistoryMDP(mdp=hm.mdp, histories=ending_in(hm.histories, i, [9.0, 9.0, 9.0]))
        report = verify_equivalence_roundtrip(m, horizon=2, abstraction=bad)
        assert not report["pass"]
        assert report["violations"] == [{"where": f"history {i} (t=2)",
                                         "expected": "embedded state",
                                         "got": "undecodable last state"}]

    @pytest.mark.parametrize("kind", [tuple, list])
    def test_histories_other_than_a_walk_s_rejected(self, kind):
        m = make_chain(3)
        hm = build_markov_abstraction(build_nonmarkov_embedding(m), horizon=2)
        bad = HistoryMDP(mdp=hm.mdp, histories=kind(hm.histories))
        with pytest.raises(ValidationError, match=f"walk's Histories, got {kind.__name__}$"):
            verify_equivalence_roundtrip(m, horizon=2, abstraction=bad)


class TestRoundtripRowComparison:
    """Cells that do not equal their table row slot by slot are compared as
    distributions, with the violation dicts the per-cell comparison gives."""

    M = make_chain(3, p_slip=0.25)
    HM = build_markov_abstraction(build_nonmarkov_embedding(M), horizon=2)

    def with_cell(self, i, a, lst, histories=None):
        out = [list(r) for r in self.HM.mdp.outcomes]
        out[i][a] = tuple(lst)
        mdp = FiniteMDP(num_states=self.HM.mdp.num_states, num_actions=2,
                        rho0=self.HM.mdp.rho0, outcomes=tuple(tuple(r) for r in out),
                        embedding=self.HM.mdp.embedding)
        return HistoryMDP(mdp=mdp, histories=histories or self.HM.histories)

    def test_reordered_and_split_rows_pass(self):
        row = self.HM.mdp.row(0, 1)
        o = row[0]
        half = Outcome(o.next_state, o.reward, o.prob / 2)
        for lst in (row[::-1], (half, *row[1:], half)):
            report = verify_equivalence_roundtrip(self.M, 2, abstraction=self.with_cell(0, 1, lst))
            assert report["pass"], report["violations"]

    def test_zero_probability_outcome_to_wrong_child_fails(self):
        row = self.HM.mdp.row(0, 1)
        child = next(i for i, h in enumerate(self.HM.histories) if h.states[-1][2] == 1.0)
        bad = self.with_cell(0, 1, row + (Outcome(child, 0.0, 0.0),))
        report = verify_equivalence_roundtrip(self.M, 2, abstraction=bad)
        assert report["violations"] == [{
            "where": "history 0 (t=0), action 1",
            "expected": [((0.0, 0.0), 0.25), ((1.0, 0.0), 0.75)],
            "got": [((0.0, 0.0), 0.25), ((1.0, 0.0), 0.75), ((2.0, 0.0), 0.0)]}]

    def test_violations_in_history_order(self):
        # history 2 undecodable (so history 0's action-1 cell, its parent, is
        # skipped), then a reward fault in history 3
        row = self.HM.mdp.row(3, 1)
        faulty = (Outcome(row[0].next_state, row[0].reward + 0.5, row[0].prob), *row[1:])
        bad = self.with_cell(3, 1, faulty, ending_in(self.HM.histories, 2, [9.0, 9.0, 9.0]))
        report = verify_equivalence_roundtrip(self.M, 2, abstraction=bad)
        assert report["violations"] == [
            {"where": "history 2 (t=1)", "expected": "embedded state",
             "got": "undecodable last state"},
            {"where": "history 3 (t=1), action 1",
             "expected": [((0.0, 0.0), 0.25), ((1.0, 0.0), 0.75)],
             "got": [((0.0, 0.0), 0.25), ((1.0, 0.5), 0.75)]}]

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # cell (0, 1) reads 0.95/0.05 where the process has 0.75/0.25; tol=inf passed it
        row = self.HM.mdp.row(0, 1)
        bad = self.with_cell(0, 1, [Outcome(n, r, {0.75: 0.95, 0.25: 0.05}[p]) for n, r, p in row])
        assert not verify_equivalence_roundtrip(self.M, 2, abstraction=bad)["pass"]
        assert not verify_equivalence_roundtrip(self.M, 2, abstraction=bad, tol=1e-12)["pass"]
        message = f"tol must be finite and >= 0, got {tol!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            verify_equivalence_roundtrip(self.M, 2, abstraction=bad, tol=tol)

    def test_zero_tol_accepted(self):
        assert verify_equivalence_roundtrip(self.M, 2, abstraction=self.HM, tol=0.0)["pass"]

    def test_abstraction_with_other_action_count_rejected(self):
        other = build_markov_abstraction(build_nonmarkov_embedding(make_random_mdp(0, 3, 3, 2)), 2)
        with pytest.raises(ValidationError, match="abstraction has 3 actions, the process 2"):
            verify_equivalence_roundtrip(self.M, 2, abstraction=other)


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
        with pytest.raises(ValidationError, match=r"reward map undefined at 1\.0"):
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


def literal_verify_morphism(m, m2, phi_S, phi_A, phi_R):
    """The reference: `verify_morphism`'s two conditions over every (s, a, s', r)."""
    violations = []
    for s in range(m.num_states):
        lhs, rhs = float(m.rho0[s]), float(m2.rho0[phi_S[s]])
        if abs(lhs - rhs) > PROB_TOL:
            violations.append({"where": f"rho0, state {s}", "expected": lhs, "got": rhs})
    for s in range(m.num_states):
        for a in range(m.num_actions):
            row, row2 = m.row(s, a), m2.row(phi_S[s], phi_A[a])
            for s_next in range(m.num_states):
                for r in m.reward_support():
                    lhs = sum(o.prob for o in row
                              if o.next_state == s_next and abs(o.reward - r) <= PROB_TOL)
                    r2 = next(v for k, v in phi_R.items() if abs(k - r) <= PROB_TOL)
                    rhs = sum(o.prob for o in row2
                              if o.next_state == phi_S[s_next] and abs(o.reward - r2) <= PROB_TOL)
                    if abs(lhs - rhs) > PROB_TOL:
                        violations.append({"where": f"T({s},{a}) at (s'={s_next}, r={r})",
                                           "expected": lhs, "got": rhs})
    return {"pass": not violations, "violations": violations}


def morphism_cases():
    """(m, m2, phi) for identity, random, collapsing and permutation maps, within one
    process and onto a second one."""
    rng = np.random.default_rng(11)
    processes = [CHAIN5, make_chain(5, p_slip=0.3), make_random_mdp(0, 6, 2, 3)]
    for m in processes:
        rewards = m.reward_support()
        rid = {r: r for r in rewards}
        yield m, m, (list(range(m.num_states)), list(range(m.num_actions)), rid)
        yield m, m, ([0] * m.num_states, [0] * m.num_actions, rid)
        perm = rng.permutation(m.num_states).tolist()
        yield m, permutation_mdp(m, perm), (perm, list(range(m.num_actions)), rid)
        for m2 in processes:
            for _ in range(4):
                yield m, m2, (rng.integers(m2.num_states, size=m.num_states).tolist(),
                              rng.integers(m2.num_actions, size=m.num_actions).tolist(),
                              {r: float(rng.choice(m2.reward_support())) for r in rewards})


class TestMorphismSupport:
    def test_report_equals_the_literal_loop(self):
        cases = list(morphism_cases())
        int_zero = 0
        for m, m2, phi in cases:
            want = literal_verify_morphism(m, m2, *phi)
            assert json.dumps(verify_morphism(m, m2, *phi)) == json.dumps(want)
            int_zero += sum(type(v["expected"]) is int or type(v["got"]) is int
                            for v in want["violations"])
        assert len(cases) > 40 and int_zero > 0


@pytest.mark.parametrize("check", [reachable_histories, build_markov_abstraction,
                                   empirical_dependency, verify_morphism])
def test_exact_checks_take_no_cap_or_tol(check):
    # the walk reads HISTORY_CAP, and the checks PROB_TOL, when they run
    assert not {"cap", "tol"} & set(inspect.signature(check).parameters)


class TestReachableHistories:
    def test_counts(self):
        oracle = as_nmdp_oracle(CHAIN5, "S^1")
        hs = list(reachable_histories(oracle, max_t=2))
        assert len(hs) == 7  # 1 + 2 + 4 on a deterministic chain
        assert {h.t for h in hs} == {0, 1, 2}

    def test_max_t_zero_yields_the_initial_histories(self):
        m = make_random_mdp(1, 4, 2, 2)
        hs = list(reachable_histories(as_nmdp_oracle(m, "S^1"), max_t=0))
        assert [h.t for h in hs] == [0, 0, 0, 0]
        assert sorted(m.match_states([h.states[0]])[0] for h in hs) == [0, 1, 2, 3]
        with pytest.raises(ValidationError):
            build_markov_abstraction(as_nmdp_oracle(m, "S^1"), horizon=0)
        with pytest.raises(ValidationError):
            list(reachable_histories(as_nmdp_oracle(m, "S^1"), max_t=-1))

    def test_lazy(self, monkeypatch):
        # the tree to t=9 passes a cap of 50, but its first history at t=2 is
        # yielded once 4 + 16 + 4 histories are interned
        monkeypatch.setattr(analysis, "HISTORY_CAP", 50)
        oracle = as_nmdp_oracle(make_random_mdp(1, 4, 2, 2), "S^1")
        first = next(h for h in reachable_histories(oracle, max_t=9) if h.t == 2)
        assert first.t == 2
        with pytest.raises(StateExplosionError):
            list(reachable_histories(oracle, max_t=9))

    def test_same_order_as_abstraction(self):
        oracle = as_nmdp_oracle(make_random_mdp(1, 4, 2, 2), "S^1")
        hm = build_markov_abstraction(oracle, horizon=3)
        assert ([whole_history_key(h) for h in reachable_histories(oracle, max_t=3)]
                == [whole_history_key(h) for h in hm.histories])
