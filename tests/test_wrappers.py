import hashlib

import numpy as np
import pytest

from nonmarkov import aggregators
from nonmarkov.agents import evaluate, parse_agent_spec, train
from nonmarkov.analysis import empirical_dependency, reachable_histories
from nonmarkov.aggregators import har_aggregate, parse_har_spec, parse_spec
from nonmarkov.core import (
    FiniteMDP, UndecodableHistoryError, ValidationError, initial_history)
from nonmarkov.envs import Environment, make_chain, make_env
from nonmarkov.wrappers import AggregatedMDPOracle, WrappedEnvironment, as_nmdp_oracle, wrap


def rollout(env, seed, actions):
    stream = [env.reset(seed)]
    rewards = []
    for a in actions:
        obs, r, term, trunc = env.step(a)
        stream.append(obs)
        rewards.append(r)
        if term or trunc:
            break
    return stream, rewards


ACTIONS = [1, 1, 0, 1, 1, 1, 0, 1]


class TestWrappedEnvironment:
    def test_interface_preserved(self):
        env = wrap(make_env("chain:5"), "S^2")
        assert env.num_actions == 2
        assert env.observation_dim == 5
        obs = env.reset(0)
        assert obs.shape == (5,)

    @pytest.mark.parametrize("spec", ["S_l:0.0", "D_l:0.0", "S^0"])
    def test_identity_specs_leave_stream_unchanged(self, spec):
        raw, _ = rollout(make_env("chain:5:0.2"), 7, ACTIONS)
        wrapped, _ = rollout(wrap(make_env("chain:5:0.2"), spec), 7, ACTIONS)
        for a, b in zip(raw, wrapped):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("spec", ["S^1", "S^2", "D^1", "S_l:0.5", "D_l:0.8",
                                      "conv:1,-0.5,0.25"])
    def test_rewards_unchanged_by_state_wrapping(self, spec):
        _, raw_r = rollout(make_env("chain:5:0.2"), 3, ACTIONS)
        _, wrapped_r = rollout(wrap(make_env("chain:5:0.2"), spec), 3, ACTIONS)
        assert raw_r == wrapped_r  # bit-identical

    def test_observations_unchanged_by_reward_wrapping(self):
        raw_s, raw_r = rollout(make_env("chain:5:0.2"), 3, ACTIONS)
        env = wrap(make_env("chain:5:0.2"), har_spec="sum")
        wrapped_s, wrapped_r = rollout(env, 3, ACTIONS)
        for a, b in zip(raw_s, wrapped_s):
            assert np.array_equal(a, b)  # bit-identical
        assert np.allclose(wrapped_r, np.cumsum(raw_r))

    @pytest.mark.parametrize("har", ["sum", "conv:1,-0.5"])
    def test_reward_stream_restarts_at_every_reset(self, har):
        # two episodes in a row, each aggregated from its own first reward on
        env, raw = wrap(make_env("random:3:4:2:2"), har_spec=har), make_env("random:3:4:2:2")
        for seed in (0, 1):
            _, raw_r = rollout(raw, seed, ACTIONS)
            assert raw_r[-1] != 0.0  # a stream carried over would change the next episode
            assert rollout(env, seed, ACTIONS)[1] == har_aggregate(parse_har_spec(har), raw_r)

    @pytest.mark.parametrize("spec", ["S^1", "D^1", "S_l:0.5", "conv:1,0.3,-0.2"])
    def test_decode_recovers_raw_stream(self, spec):
        raw, _ = rollout(make_env("chain:5:0.2"), 11, ACTIONS)
        wrapped, _ = rollout(wrap(make_env("chain:5:0.2"), spec), 11, ACTIONS)
        decoded = parse_spec(spec).decode(wrapped)
        assert np.max(np.abs(np.array(decoded) - np.array(raw))) <= 1e-9

    def test_nested_sums_equal_double_sum(self):
        w1, _ = rollout(wrap(make_env("chain:5"), "S^1+S^1"), 5, ACTIONS)
        w2, _ = rollout(wrap(make_env("chain:5"), "S^2"), 5, ACTIONS)
        assert np.max(np.abs(np.array(w1) - np.array(w2))) <= 1e-9

    def test_determinism(self):
        s1, r1 = rollout(wrap(make_env("chain:5:0.2"), "S^2"), 9, ACTIONS)
        s2, r2 = rollout(wrap(make_env("chain:5:0.2"), "S^2"), 9, ACTIONS)
        assert r1 == r2
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    def test_har_roundtrip_through_env(self):
        har = parse_har_spec("conv:1,-0.5")
        _, raw_r = rollout(make_env("chain:5:0.2"), 3, ACTIONS)
        _, wrapped_r = rollout(wrap(make_env("chain:5:0.2"), har_spec=har), 3, ACTIONS)
        from nonmarkov.aggregators import har_decode
        assert np.max(np.abs(np.array(har_decode(har, wrapped_r)) - raw_r)) <= 1e-9


class TestAggregatedOracle:
    def test_identity_matches_table(self):
        m = make_chain(5)
        oracle = as_nmdp_oracle(m, "id")
        h = initial_history(m.embedding[0])
        dist = oracle.transition(h, 1)
        assert len(dist) == 1
        (obs, r), p = dist[0]
        assert np.array_equal(obs, m.embedding[1]) and p == 1.0

    @pytest.mark.filterwarnings("ignore:MDP is degenerate")
    def test_chain2_hand_composition(self):
        # deterministic 2-chain, prefix sums: from history (g0=e0, g1=e0+e1)
        # taking action right must concentrate on g2 = g1 + e1
        m = make_chain(2)
        oracle = as_nmdp_oracle(m, "S^1")
        g0 = m.embedding[0]
        g1 = g0 + m.embedding[1]
        h = initial_history(g0).extend(1, 1.0, g1)
        dist = oracle.transition(h, 1)
        assert len(dist) == 1
        (obs, r), p = dist[0]
        assert np.allclose(obs, g1 + m.embedding[1])
        assert p == 1.0 and r == 1.0

    def test_out_of_manifold_errors(self):
        m = make_chain(5)
        oracle = as_nmdp_oracle(m, "S^1")
        h = initial_history(np.full(5, 0.3))
        with pytest.raises(UndecodableHistoryError):
            oracle.transition(h, 0)

    def test_degenerate_warns(self):
        from nonmarkov.core import FiniteMDP, Outcome
        row = ((Outcome(0, 0.0, 1.0),), (Outcome(1, 0.0, 1.0),))
        m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=(row, row), embedding=tuple(np.eye(2)))
        with pytest.warns(UserWarning, match="degenerate"):
            as_nmdp_oracle(m, "S^1")

    def test_initial_is_pushforward(self):
        m = make_chain(3)
        oracle = as_nmdp_oracle(m, "S^1")
        init = oracle.initial()
        assert len(init) == 1
        obs, p = init[0]
        assert np.array_equal(obs, m.embedding[0]) and p == 1.0

    @pytest.mark.parametrize("spec", ["S^1", "D^1", "S_l:0.5"])
    def test_simulator_frequencies_match_oracle(self, spec):
        # 1e5 wrapped-env samples from a fixed one-step history; empirical
        # frequencies must sit within 3 standard errors of the oracle probs
        m = make_chain(3, p_slip=0.25)
        oracle = as_nmdp_oracle(m, spec)
        n = 100_000
        action = 1
        rng = np.random.default_rng(0)

        counts = {}
        env = wrap(make_env("chain:3:0.25"), spec)
        first_next = None
        collected = 0
        for i in range(n * 2):
            env.reset(int(rng.integers(2 ** 31)))
            obs1, r1, _, _ = env.step(action)
            if first_next is None:
                first_next = (tuple(np.round(obs1, 9)), r1)
            if (tuple(np.round(obs1, 9)), r1) != first_next:
                continue  # condition on one fixed one-step history
            obs2, r2, _, _ = env.step(action)
            key = (tuple(np.round(obs2, 9)), round(r2, 9))
            counts[key] = counts.get(key, 0) + 1
            collected += 1
            if collected == n:
                break

        h = initial_history(env.reset(0))
        obs1, r1, _, _ = env.step(action)
        assert (tuple(np.round(obs1, 9)), r1) == first_next
        h = h.extend(action, r1, obs1)
        dist = oracle.transition(h, action)
        probs = {(tuple(np.round(obs, 9)), round(r, 9)): p for (obs, r), p in dist}
        assert set(counts) <= set(probs)
        for key, p in probs.items():
            freq = counts.get(key, 0) / collected
            se = np.sqrt(p * (1 - p) / collected)
            assert abs(freq - p) <= 3 * se + 1e-12, (key, freq, p)


class TestOverflow:
    """A filter whose aggregate overflows float64 stops the stream that pushes it."""

    def test_reward_filter(self):
        # rewards 0, 0, 0, 1, 1: the second 1 aggregates to 2e308
        env, steps = wrap(make_env("chain:5"), har_spec="conv:1e308,1e308"), 0
        env.reset(0)
        with np.errstate(over="ignore"), pytest.raises(
                ValidationError, match=r"filter conv:1e\+308,1e\+308 overflows float64"):
            for steps in range(8):
                env.step(1)
        assert steps == 4

    def test_oracle_transition_and_candidates(self):
        oracle = as_nmdp_oracle(SLIPPY_CHAIN, "conv:1e308,1e308")
        p = oracle.pull(oracle.begin(), oracle.initial()[0][0])  # 1e308 e_0
        with np.errstate(over="ignore"):
            for answer in (lambda: oracle.transition_at(p, 0),  # a slip stays at e_0
                           lambda: oracle.candidates_at(p, None, POOL)):
                with pytest.raises(ValidationError, match="conv:1e308,1e308 overflows"):
                    answer()
        assert not oracle.memo


class TestOracleVsWrapStringForms:
    def test_wrap_accepts_parsed_and_string(self):
        env1 = wrap(make_env("chain:5"), parse_spec("S^1"))
        env2 = wrap(make_env("chain:5"), "S^1")
        s1, _ = rollout(env1, 3, ACTIONS)
        s2, _ = rollout(env2, 3, ACTIONS)
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    def test_wrap_none_is_noop(self):
        env = make_env("chain:5")
        assert wrap(env) is env
        assert wrap(env, "S^0") is env
        assert wrap(env, "S^0", "none") is env
        wrapped = wrap(env, "S^1", "none")
        assert wrapped.har_spec is None and wrapped.spec.label == "S^1"

    def test_chain_is_one_layer(self):
        env = make_env("chain:5")
        wrapped = wrap(env, "S^3", har_spec="sum")
        assert isinstance(wrapped, WrappedEnvironment) and wrapped.inner is env


# -- the interned state stream ---------------------------------------------------

CORR = "corr:" + ",".join(str(1 + t % 3) for t in range(12))
TRANSDUCER_SPECS = ["S^1", "S^3", "D^2", "S_l:0.5", CORR, "D_l:0.5+" + CORR]


def assert_matches_fresh_streams(env_id, spec, episodes, seed, max_steps=8):
    """The memoised wrapper against `spec.push` from `spec.begin()` over the raw stream of
    a second inner env: same bytes, rewards and flags, episode by episode.
    Returns the wrapper and the number of observations it emitted."""
    wrapped = wrap(make_env(env_id, max_steps=max_steps), spec)
    raw = make_env(env_id, max_steps=max_steps)
    template = parse_spec(spec)
    rng = np.random.default_rng(seed)
    emitted = 0
    for _ in range(episodes):
        episode_seed = int(rng.integers(2 ** 31))
        state, want = template.push(template.begin(), raw.reset(episode_seed))
        assert wrapped.reset(episode_seed).tobytes() == want.tobytes()
        emitted += 1
        for _ in range(max_steps):
            action = int(rng.integers(raw.num_actions))
            got, want = wrapped.step(action), raw.step(action)
            state, g = template.push(state, want[0])
            assert got[0].tobytes() == g.tobytes()
            assert got[1:] == want[1:]
            emitted += 1
            if want[2] or want[3]:
                break
    return wrapped, emitted


class TestInternedTransducer:
    @pytest.mark.parametrize("spec", TRANSDUCER_SPECS)
    @pytest.mark.parametrize("env_id", ["chain:5:0.4", "random:3:4:2:2"])
    def test_matches_fresh_stream(self, env_id, spec):
        env, emitted = assert_matches_fresh_streams(env_id, spec, episodes=300, seed=1)
        assert 1 < env.node_count < emitted  # next states merged into interned nodes

    @pytest.mark.parametrize("spec", TRANSDUCER_SPECS)
    def test_matches_fresh_stream_past_node_cap(self, spec, monkeypatch):
        monkeypatch.setattr(aggregators, "NODE_CAP", 5)
        env, _ = assert_matches_fresh_streams("chain:5:0.4", spec, episodes=100, seed=2)
        assert env.node_count == 5

    @pytest.mark.parametrize("cap", [aggregators.NODE_CAP, 50], ids=["default_cap", "cap_50"])
    def test_stream_that_never_repeats(self, cap, monkeypatch):
        # every observation is new, so each makes a new node until NODE_CAP nodes
        # exist; past the cap the rest of the episode streams without the memo
        monkeypatch.setattr(aggregators, "NODE_CAP", cap)
        episodes = [[np.array([e, t / 7.0]) for t in range(41)] for e in range(3)]
        env = wrap(StubEnv(episodes), "S^1")
        for seed in range(3):
            assert_replays(env, seed, "S^1", episodes[seed])
        assert env.node_count == min(cap, 1 + 3 * 41)

    def test_aggregates_are_read_only(self):
        env = wrap(make_env("chain:5:0.4", max_steps=8), "S^2")
        for seed in (0, 0, 1):  # the second reset of seed 0 replays memoised edges
            obs = env.reset(seed)
            assert not obs.flags.writeable
            for a in ACTIONS:
                obs = env.step(a)[0]
                assert not obs.flags.writeable
                with pytest.raises(ValueError):
                    obs[0] = 1.0


def assert_replays(env, seed, spec, episode):
    """Each observation of `env`'s episode `seed` has the bytes `spec.push` gives on
    `episode` from `spec.begin()`; returns the node `env` is at after each one."""
    spec = parse_spec(spec)
    state, g = spec.push(spec.begin(), episode[0])
    assert env.reset(seed).tobytes() == g.tobytes()
    nodes = [env._node]
    for obs in episode[1:]:
        state, g = spec.push(state, obs)
        assert env.step(0)[0].tobytes() == g.tobytes()
        nodes.append(env._node)
    return nodes


def constant(*values):
    """A `core.frozen` array of the values: read-only over a bytes object."""
    return np.frombuffer(np.array(values, dtype=float).tobytes())


class StubEnv(Environment):
    """Replays `episodes[seed]`, one observation per reset/step; reward 0."""

    observation_dim = 2
    num_actions = 1

    def __init__(self, episodes):
        self.episodes = episodes

    def reset(self, seed: int):
        self._obs = iter(self.episodes[seed])
        return next(self._obs)

    def step(self, action: int):
        return next(self._obs), 0.0, False, False


class TestMergedStates:
    def test_stateless_filter_stays_within_cap(self, monkeypatch):
        # conv:2 keeps no state, so every miss merges into the root: the cap
        # bounds the identity edges of a stream that never repeats, and past it
        # each step is computed again, stores no edge and still merges into the root
        monkeypatch.setattr(aggregators, "NODE_CAP", 50)
        episodes = [[constant(e, t / 7.0) for t in range(41)] for e in range(3)]
        env = wrap(StubEnv(episodes), "conv:2")
        for seed in range(3):
            nodes = assert_replays(env, seed, "conv:2", episodes[seed])
            assert all(n is env._root for n in nodes)  # past the edge cap in episode 2
        assert env.node_count == 1 and len(env._seen) == 50

    def test_learn_cell_node_count(self):
        # D^2 keeps the last two observations, and chain:5 moves one state at a
        # time; interned by path instead of by state, this cell had 1,330 nodes
        env = wrap(make_env("chain:5:0.4", max_steps=8), "D^2")
        train(parse_agent_spec("qwin:1", env.num_actions), env, episodes=2000, seed=0,
              horizon=8)
        assert env.node_count <= 50

    def test_merged_decoder_stream_reports_its_own_t(self):
        # S^1 decodes e0, e0 to e0 then the zero vector; its state, the last
        # aggregate e0, is the state after the first step, so the nodes merge
        oracle = as_nmdp_oracle(make_chain(3), "S^1")
        e0 = oracle.mdp.embedding[0]
        first = oracle.pull(oracle.begin(), e0)
        second = oracle.pull(first, e0, 0, 0.0)
        assert second[0] == first[0] and (first[2], second[2]) == (0, 1)
        assert len(oracle.transition_at(first, 0)) == 1
        with pytest.raises(UndecodableHistoryError, match="decoded state at t=1 matches"):
            oracle.transition_at(second, 0)
        third = oracle.pull(oracle.begin(), np.zeros(3))
        with pytest.raises(UndecodableHistoryError, match="decoded state at t=0 matches"):
            oracle.transition_at(third, 1)

    def test_prefixes_of_two_begins_share_the_memo(self):
        # a prefix pulled by the History-form replay and one pulled by a caller step
        # the oracle's one decoder from its root
        oracle = as_nmdp_oracle(make_chain(3), "S^2")
        assert oracle.begin()[0] is oracle.root
        (g, _), = oracle.initial()
        p, h = oracle.begin(), None
        for a in (0, 0, 1, 0, 0):  # a state and action seen again at a later t
            p = oracle.pull(p, g, a, 0.0)
            h = initial_history(g) if h is None else h.extend(a, 0.0, g)
            dists = [oracle.transition_at(p, a), oracle.transition(h, a)]
            assert [(o.tobytes(), r, q) for (o, r), q in dists[0]] == \
                [(o.tobytes(), r, q) for (o, r), q in dists[1]]
            (g, _), _ = dists[0][0]
        assert oracle._replay(h, h.t + 1)[0] is p[0]
        assert oracle.nodes[p[0]] is p[0]
        assert len(oracle.edges) == 5


SLIPPY_CHAIN = make_chain(5, p_slip=0.3)
POOL = list(SLIPPY_CHAIN.embedding)
SHARED_SPECS = ["S^2", "S_l:0.5", "conv:1,-0.5", "D^1", CORR, "S^1+" + CORR]


def as_bytes(x):
    """Arrays as their bytes, through nested lists and tuples, for exact comparison."""
    if isinstance(x, np.ndarray):
        return x.tobytes()
    return tuple(map(as_bytes, x)) if isinstance(x, (list, tuple)) else x


def answers(oracle, h):
    """Every transition and candidate list of `oracle` at `h`, as bytes, and its
    dependency structure; the History form replays a prefix from `begin()`."""
    rows = [as_bytes(oracle.transition(h, a)) for a in range(oracle.num_actions)]
    cands = [as_bytes(oracle.substitution_candidates(h, i, POOL)) for i in range(h.t + 2)]
    return rows, cands, empirical_dependency(oracle, h, POOL)


def assert_shared_oracle_matches_fresh(spec):
    """One oracle reused across every reachable history against a fresh oracle
    per history; returns the reused oracle."""
    shared = as_nmdp_oracle(SLIPPY_CHAIN, spec)
    histories = list(reachable_histories(shared, max_t=4))
    assert len(histories) > 100
    for h in histories:
        assert answers(shared, h) == answers(as_nmdp_oracle(SLIPPY_CHAIN, spec), h)
    return shared


class TestSharedDecoder:
    @pytest.mark.parametrize("spec", SHARED_SPECS)
    def test_reused_oracle_matches_fresh_oracles(self, spec):
        shared = assert_shared_oracle_matches_fresh(spec)
        assert shared.memo and len(shared.nodes) > 1

    @pytest.mark.parametrize("spec", ["S_l:0.5", "S^1+" + CORR])
    def test_memo_stops_storing_at_node_cap(self, spec, monkeypatch):
        monkeypatch.setattr(aggregators, "NODE_CAP", 7)
        shared = assert_shared_oracle_matches_fresh(spec)
        assert len(shared.memo) == 7 and len(shared.nodes) == 7

    def test_stream_past_the_cap_answers_as_a_fresh_oracle(self, monkeypatch):
        # past NODE_CAP nodes a stream's new states are not interned, yet each is a
        # node that is a value: a later t must not be answered from an earlier one
        monkeypatch.setattr(aggregators, "NODE_CAP", 3)
        chain = make_chain(3)
        oracle, pool = as_nmdp_oracle(chain, "S_l:0.5"), list(chain.embedding)
        encoder, p = oracle.spec.begin(), oracle.begin()
        h = None
        for t in range(6):
            encoder, g = oracle.spec.push(encoder, pool[0])
            p = oracle.pull(p, g, 0, 0.0)
            h = initial_history(g) if h is None else h.extend(0, 0.0, g)
            assert (t < 2) == (p[0] in oracle.nodes)
            fresh = as_nmdp_oracle(chain, "S_l:0.5")
            for _ in range(2):  # the second time from the memo, where it has room
                for a in range(oracle.num_actions):
                    assert as_bytes(oracle.transition_at(p, a)) == as_bytes(fresh.transition(h, a))
                assert as_bytes(oracle.candidates_at(p, h, pool)) == \
                    as_bytes(fresh.substitution_candidates(h, t + 1, pool))
        assert len(oracle.memo) == 3

    def test_history_form_answers_from_a_warm_memo(self):
        oracle = as_nmdp_oracle(SLIPPY_CHAIN, "S_l:0.5")
        for h in reachable_histories(oracle, max_t=3):
            p = oracle.begin()
            for step in zip(h.states, (None, *h.actions), (None, *h.rewards)):
                p = oracle.pull(p, *step)
            for a in range(oracle.num_actions):
                want = as_bytes(oracle.transition_at(p, a))
                size = len(oracle.memo)
                assert as_bytes(oracle.transition(h, a)) == want and len(oracle.memo) == size

    def test_returned_lists_are_fresh(self):
        oracle = as_nmdp_oracle(SLIPPY_CHAIN, "S^2")
        p = oracle.pull(oracle.begin(), oracle.initial()[0][0])
        for answer in (lambda: oracle.transition_at(p, 1),
                       lambda: oracle.candidates_at(p, None, POOL)):
            first = answer()
            want = as_bytes(first)
            first.clear()
            assert as_bytes(answer()) == want and len(want) > 1
        assert as_bytes(oracle.candidates_at(p, None, POOL[:0:-1])) == want[:0:-1]  # keyed by pool

    def test_pool_bytes_computed_once_per_dependency_call(self):
        pools = []

        class Recording(AggregatedMDPOracle):
            def candidates_at(self, p, h, state_pool):
                pools.append(state_pool)
                return super().candidates_at(p, h, state_pool)

        oracle = Recording(SLIPPY_CHAIN, parse_spec("S^2"))
        fresh = as_nmdp_oracle(SLIPPY_CHAIN, "S^2")
        for h in reachable_histories(fresh, max_t=3):
            pools.clear()
            got = empirical_dependency(oracle, h, POOL)
            assert got == empirical_dependency(fresh, h, POOL)
            assert len(pools) == h.t + 1 and all(p is pools[0] for p in pools)
            assert pools[0].dtype == float and not pools[0].flags.writeable
            assert pools[0].tobytes() == np.array(POOL, dtype=float).tobytes()
        p = oracle.pull(oracle.begin(), oracle.initial()[0][0])  # a plain list still works
        assert as_bytes(oracle.candidates_at(p, None, list(POOL))) == \
            as_bytes(oracle.candidates_at(p, None, pools[0]))

    def test_pool_shape_keys_the_memo(self):
        # the root takes states of any length, so two pools with equal bytes differ by shape
        oracle, pool = as_nmdp_oracle(SLIPPY_CHAIN, "S^2"), np.arange(10.0)
        p = oracle.begin()
        assert as_bytes(oracle.candidates_at(p, None, pool.reshape(2, 5))) == \
            (pool[:5].tobytes(), pool[5:].tobytes())
        assert as_bytes(oracle.candidates_at(p, None, pool.reshape(1, 10))) == (pool.tobytes(),)

    def test_list_pool_with_a_non_finite_entry_is_rejected(self):
        oracle = as_nmdp_oracle(SLIPPY_CHAIN, "S^2")
        p = oracle.pull(oracle.begin(), oracle.initial()[0][0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ValidationError, match="finite"):
                oracle.candidates_at(p, None, [*POOL, np.full_like(POOL[0], bad)])
        assert not oracle.memo

    def test_pull_validates_a_missed_observation(self):
        # an int observation is decoded as floats, as the float path is; NaN and 2-d raise
        oracle = as_nmdp_oracle(make_chain(3), "S^1")
        p = oracle.pull(oracle.begin(), np.array([1, 0, 0]))
        assert p[1:] == (0, 0)
        assert oracle.pull(p, np.array([1.0, 1.0, 0.0]))[1:] == (1, 1)
        for bad in (np.array([np.nan, 0.0, 0.0]), np.eye(3)[:1], np.array([1.0, 1.0])):
            with pytest.raises(ValidationError):
                oracle.pull(p, bad)
        assert oracle.edges == {}


class TestMatchedIndex:
    """Each decoder edge stores the index its decoded state matches, once."""

    @pytest.mark.parametrize("spec", SHARED_SPECS)
    def test_index_equals_a_plain_decode(self, spec):
        # the last state shifted off every aggregate decodes to no embedded state
        oracle, nones = as_nmdp_oracle(SLIPPY_CHAIN, spec), 0
        for h in reachable_histories(as_nmdp_oracle(SLIPPY_CHAIN, spec), max_t=4):
            for states in (h.states, (*h.states[:-1], h.states[-1] + 0.25)):
                plain = parse_spec(spec)
                p, state = oracle.begin(), plain.begin()
                for t, step in enumerate(zip(states, (None, *h.actions), (None, *h.rewards))):
                    p = oracle.pull(p, *step)
                    state, s = plain.pull(state, step[0])
                    want = SLIPPY_CHAIN.match_states([s])[0]
                    assert (p[2], p[1]) == (t, want)
                nones += want is None
        assert nones > 0
        with pytest.raises(UndecodableHistoryError, match=f"decoded state at t={p[2]} "):
            oracle.transition_at(p, 0)

    def test_warm_oracle_matches_nothing_again(self, monkeypatch):
        calls, match = [], FiniteMDP.match_states
        monkeypatch.setattr(FiniteMDP, "match_states",
                            lambda m, states: calls.append(len(states)) or match(m, states))
        histories = list(reachable_histories(as_nmdp_oracle(SLIPPY_CHAIN, "S^2"), max_t=4))
        oracle = as_nmdp_oracle(SLIPPY_CHAIN, "S^2")
        calls.clear()
        first = [empirical_dependency(oracle, h, POOL) for h in histories]
        assert 0 < len(calls) <= len(oracle.edges) and set(calls) == {1}
        calls.clear()
        assert [empirical_dependency(oracle, h, POOL) for h in histories] == first
        assert calls == []


class TestUnkeyedObservations:
    E0 = np.array([1.0, 0.0])

    def test_two_dimensional_rejected_where_same_bytes_were_memoised(self):
        env = wrap(StubEnv([[self.E0, self.E0], [self.E0.reshape(1, 2)],
                            [self.E0, self.E0.reshape(1, 2)]]), "S^1")
        env.reset(0)
        env.step(0)
        with pytest.raises(ValidationError):
            env.reset(1)
        env.reset(2)
        with pytest.raises(ValidationError):
            env.step(0)

    def test_nan_rejected_on_every_episode(self):
        env = wrap(StubEnv([[self.E0, np.array([np.nan, 0.0])]]), "S^1")
        for _ in range(3):
            env.reset(0)
            with pytest.raises(ValidationError):
                env.step(0)
        assert env.node_count == 2

    def test_float32_streams_as_before_and_stores_no_edge(self):
        e0 = constant(*self.E0)
        e0_32 = e0.astype(np.float32)
        e0_32.flags.writeable = False
        owner = e0.copy()
        owner.flags.writeable = False
        episodes = [[e0, e0_32, np.array([0.5, 0.25], dtype=np.float32)],
                    [e0_32, e0], [e0.view(np.float32)],  # e0's bytes, read-only
                    [owner, owner]]  # read-only, yet numpy lets its owner write again
        env = wrap(StubEnv(episodes), "S^1")
        for seed in (0, 1, 0, 2, 3, 3):
            assert_replays(env, seed, "S^1", episodes[seed])
        # each state is interned, but only e0 stored edges: read-only float32
        # arrays, e0's own bytes among them, and the owner never look one up
        assert env.node_count == 5
        assert [obs for _, obs in env._seen] == [id(e0)] * 2


class TestIdentityEdges:
    def test_writable_array_mutated_in_place_gets_its_new_aggregate(self):
        base = np.array([1.0, 0.0])
        view = base[:]
        view.flags.writeable = False  # read-only, but its values change with base
        for x in (base, view):
            env = wrap(StubEnv([[x, x]]), "S^1")
            for values in ([1.0, 0.0], [0.0, 1.0]):
                base[:] = values
                assert_replays(env, 0, "S^1", [base.copy()] * 2)
            assert env._seen == {}

    def test_repeated_frozen_object_is_answered_by_identity(self, monkeypatch):
        e0, e1 = constant(1.0, 0.0), constant(0.0, 1.0)
        episodes = [[e0, e1, e1, e0], [e1, e0, e0]]
        env = wrap(StubEnv(episodes), "S_l:0.5")
        nodes = [assert_replays(env, seed, "S_l:0.5", episodes[seed]) for seed in (0, 1)]
        assert len(env._seen) == 7
        with monkeypatch.context() as m:
            m.setattr(env.spec, "push", lambda *args: pytest.fail("reached Filter.push"))
            assert [assert_replays(env, s, "S_l:0.5", episodes[s]) for s in (0, 1)] == nodes
        # equal values in a new object are pushed again and merge into the same nodes
        assert assert_replays(env, 0, "S_l:0.5", [x.copy() for x in episodes[0]]) == nodes[0]

    def test_repeated_evaluation_takes_only_identity_edges(self):
        # a greedy evaluation replays the episodes of one with the same seed: each row
        # the env hands out is frozen, so every push and every key is an identity hit
        env = wrap(make_env("chain:5:0.4", max_steps=8), "S_l:0.5")
        agent = parse_agent_spec("qwin:2", env.num_actions)
        train(agent, env, episodes=2000, seed=123, horizon=8)
        first = evaluate(agent, env, episodes=100, horizon=8, seed=7)
        sizes = (env.node_count, len(env._seen), len(agent.discretizer._seen))
        assert min(sizes) > 1
        env.spec.push = lambda *args: pytest.fail("reached Filter.push")
        assert evaluate(agent, env, episodes=100, horizon=8, seed=7) == first
        assert (env.node_count, len(env._seen), len(agent.discretizer._seen)) == sizes


GOLDEN_CORR = "corr:1,2,3,0.5,2,1"  # six weights: a row at t = 4 aggregates with w_5


def oracle_digest(spec: str, max_t: int = 4) -> str:
    """sha256 of the bytes of `initial()` and of every `transition_at` row and
    `candidates_at` answer over each reachable prefix of chain:5:0.3 up to max_t."""
    oracle, digest = as_nmdp_oracle(SLIPPY_CHAIN, spec), hashlib.sha256()

    def feed(answer):  # arrays, floats and ints in nested lists and tuples
        if isinstance(answer, (list, tuple)):
            for x in answer:
                feed(x)
        else:
            digest.update(np.asarray(answer, dtype=float).tobytes())

    feed(oracle.initial())
    for h in reachable_histories(as_nmdp_oracle(SLIPPY_CHAIN, spec), max_t=max_t):
        p = oracle.begin()
        for step in zip(h.states, (None, *h.actions), (None, *h.rewards)):
            p = oracle.pull(p, *step)
        for a in range(oracle.num_actions):
            feed(oracle.transition_at(p, a))
        feed(oracle.candidates_at(p, h, POOL))
    return digest.hexdigest()


class TestOracleGoldenDigest:
    """Pins the exact oracle's output bytes, not only its two forms against each other."""

    @pytest.mark.parametrize("spec, want", [
        ("S^2",
         "b8635692508550e71edcfcf7e8a30a0a16922d9299ecaa35ce9ac16d71d54b21"),
        ("D^1",
         "c5d307c7c16f1f95a7907617ceb5a017f3458f4071a537dbe84c347e3a7ec492"),
        ("S_l:0.5",
         "e763620cb4bfebe115ea3d5e6119f1391b3f1174e4ed2af363fb473f40f693ea"),
        ("conv:2,1",
         "3b2fde57e2e7769e615d03bc10c92bcc1084c06aed9d9fc26b9c539efd52ec24"),
        (GOLDEN_CORR,
         "8897083d57630627681f321a364242b5142896ad2edd7affda81f0657844e2ad"),
        ("S^1+" + GOLDEN_CORR,
         "7e2b26ed9b5ed508d6e311642d6732df8bd1c3abffb16974dee0569c1bc0e8ae"),
    ])
    def test_golden_digest(self, spec, want):
        assert oracle_digest(spec) == want
