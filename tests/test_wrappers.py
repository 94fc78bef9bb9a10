import numpy as np
import pytest

from nonmarkov.aggregators import parse_har_spec, parse_spec
from nonmarkov.core import UndecodableHistoryError, initial_history
from nonmarkov.envs import make_chain, make_env
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

    def test_chain_is_one_layer(self):
        env = make_env("chain:5")
        wrapped = wrap(env, "S^3", har_spec="sum")
        assert isinstance(wrapped, WrappedEnvironment) and wrapped.inner is env
