import numpy as np
import pytest

from nonmarkov import agents
from nonmarkov.agents import (
    ExactDiscretizer,
    RandomAgent,
    SENTINEL,
    UniformDiscretizer,
    WindowedQAgent,
    evaluate,
    parse_agent_spec,
    train,
)
from nonmarkov.core import ValidationError
from nonmarkov.envs import make_env, optimal_return, make_chain
from nonmarkov.wrappers import wrap


class TestDiscretizers:
    def test_exact_rounds(self):
        d = ExactDiscretizer()
        assert d.key([0.1234567, 1.0]) == (0.123457, 1.0)

    def test_uniform_bins(self):
        d = UniformDiscretizer(low=[0.0], high=[1.0], bins=4)
        assert d.key([0.1]) == (0,)
        assert d.key([0.9]) == (3,)
        assert d.key([-5.0]) == (0,)  # clipped
        assert d.key([5.0]) == (3,)

    def test_bins_validated(self):
        with pytest.raises(ValidationError):
            UniformDiscretizer([0.0], [1.0], bins=0)

    @pytest.mark.parametrize("low, high", [([0.0], [0.0, 1.0]),  # shapes differ
                                           ([0.0, 1.0], [1.0, 1.0]),  # low == high
                                           ([1.0], [0.0])])  # high < low
    def test_ranges_validated(self, low, high):
        with pytest.raises(ValidationError):
            UniformDiscretizer(low, high, bins=4)

    @pytest.mark.parametrize("obs", [[0.1, 0.9, 0.5, 2.0],  # broadcasts over the range
                                     [0.1, 0.2, 0.3],  # does not broadcast
                                     [[0.1, 0.2]],  # not 1-d
                                     [0.1, float("nan")], [float("inf"), 0.1]])
    def test_key_checks_observation(self, obs):
        d = UniformDiscretizer([0.0, 0.0], [1.0, 1.0], bins=4)
        with pytest.raises(ValidationError):
            d.key(obs)


class TestRandomAgent:
    def test_seeded_determinism(self):
        a1, a2 = RandomAgent(3), RandomAgent(3)
        a1.seed(5)
        a2.seed(5)
        assert [a1.act_greedy() for _ in range(20)] == [a2.act_greedy() for _ in range(20)]

    def test_training_is_noop(self):
        env = make_env("chain:5", max_steps=8)
        agent = RandomAgent(2)
        out = train(agent, env, episodes=3, seed=0, horizon=8)
        assert out is agent


class TestWindowedQAgent:
    def test_window_padding(self):
        agent = WindowedQAgent(num_actions=2, window=3)
        agent.observe_reset(np.array([1.0]))
        assert agent.key == (SENTINEL, SENTINEL, (1.0,))

    def test_window_slides(self):
        agent = WindowedQAgent(num_actions=2, window=2)
        agent.observe_reset(np.array([1.0]))
        agent.observe(np.array([2.0]))
        assert agent.key == ((1.0,), (2.0,))
        agent.observe(np.array([3.0]))
        assert agent.key == ((2.0,), (3.0,))

    def test_greedy_ties_low_action(self):
        agent = WindowedQAgent(num_actions=3, window=1)
        agent.observe_reset(np.array([1.0]))
        agent.q[agent.key] = [0.5, 0.5, 0.5]
        assert agent.act_greedy() == 0
        agent.q[agent.key] = [0.1, 0.5, 0.5]
        assert agent.act_greedy() == 1

    def test_unseen_key_default_action(self):
        agent = WindowedQAgent(num_actions=3, window=1)
        agent.observe_reset(np.array([9.0]))
        assert agent.act_greedy() == 0

    def test_epsilon_schedule(self):
        agent = WindowedQAgent(num_actions=2, window=1)
        assert agent.epsilon(0, 100) == pytest.approx(1.0)
        assert agent.epsilon(80, 100) == pytest.approx(0.05)
        assert agent.epsilon(99, 100) == pytest.approx(0.05)
        assert agent.epsilon(40, 100) == pytest.approx(0.525)

    def test_window_validated(self):
        with pytest.raises(ValidationError):
            WindowedQAgent(num_actions=2, window=0)


class TestTraining:
    def test_chain_convergence_to_optimum(self):
        env = make_env("chain:5", max_steps=8)
        agent = WindowedQAgent(num_actions=2, window=1)
        train(agent, env, episodes=500, seed=0, horizon=8)
        mean, std, _ = evaluate(agent, env, episodes=20, horizon=8, seed=99)
        assert mean == pytest.approx(optimal_return(make_chain(5), 8), abs=1e-9)
        assert std == 0.0

    def test_training_deterministic(self):
        def run():
            env = wrap(make_env("chain:5:0.2", max_steps=8), "S^1")
            agent = WindowedQAgent(num_actions=2, window=1)
            train(agent, env, episodes=200, seed=7, horizon=8)
            return evaluate(agent, env, episodes=50, horizon=8, seed=123)

        m1, s1, r1 = run()
        m2, s2, r2 = run()
        assert m1 == m2 and s1 == s2 and r1 == r2

    def test_evaluate_deterministic_for_random_agent(self):
        env = make_env("chain:5:0.2", max_steps=8)
        agent = RandomAgent(2)
        r1 = evaluate(agent, env, episodes=30, horizon=8, seed=5)
        r2 = evaluate(agent, env, episodes=30, horizon=8, seed=5)
        assert r1 == r2

    def test_q_rows_are_float_lists(self):
        env = make_env("chain:5", max_steps=8)
        agent = train(WindowedQAgent(num_actions=2, window=2), env, episodes=20, seed=0, horizon=8)
        assert agent.q and all(type(row) is list and len(row) == 2 for row in agent.q.values())
        assert all(isinstance(v, float) for row in agent.q.values() for v in row)

    def test_evaluate_drives_the_public_interface(self):
        class Recorder:
            def __init__(self):
                self.calls = []

            def observe_reset(self, obs):
                self.calls.append("reset")

            def observe(self, obs):
                self.calls.append("observe")

            def act_greedy(self):
                self.calls.append("act")
                return 1

        agent = Recorder()
        evaluate(agent, make_env("chain:5", max_steps=8), episodes=2, horizon=3, seed=0)
        assert agent.calls == (["reset"] + ["act", "observe"] * 3) * 2

    def test_episode_count_validated(self):
        env = make_env("chain:5", max_steps=8)
        with pytest.raises(ValidationError):
            train(WindowedQAgent(2), env, episodes=0, seed=0)
        with pytest.raises(ValidationError):
            evaluate(WindowedQAgent(2), env, episodes=0, horizon=8, seed=0)


class TestParseAgentSpec:
    def test_random(self):
        assert isinstance(parse_agent_spec("random", 2), RandomAgent)

    def test_qwin(self):
        agent = parse_agent_spec("qwin:3", 2)
        assert isinstance(agent, WindowedQAgent) and agent.window == 3

    def test_qwin_bins_requires_ranges(self):
        with pytest.raises(ValidationError):
            parse_agent_spec("qwin:2:8", 2)
        with pytest.raises(ValidationError):  # the exact discretizer has no bins to set
            parse_agent_spec("qwin:2:8", 2, discretizer=ExactDiscretizer())

    def test_qwin_bins_with_discretizer(self):
        d = UniformDiscretizer([0.0], [1.0], bins=2)
        agent = parse_agent_spec("qwin:2:8", 2, discretizer=d)
        assert agent.discretizer.bins == 8
        assert agent.discretizer.key([0.3]) == (2,)

    def test_qwin_bins_leaves_caller_discretizer(self):
        d = UniformDiscretizer([0.0], [1.0], bins=2)
        a4 = parse_agent_spec("qwin:1:4", 2, discretizer=d)
        a8 = parse_agent_spec("qwin:1:8", 2, discretizer=d)
        assert (d.bins, a4.discretizer.bins, a8.discretizer.bins) == (2, 4, 8)

    @pytest.mark.parametrize("spec", ["qwin:1:0", "qwin:1:-3"])
    def test_qwin_bins_validated(self, spec):
        d = UniformDiscretizer([0.0], [1.0], bins=2)
        with pytest.raises(ValidationError):
            parse_agent_spec(spec, 2, discretizer=d)
        assert d.bins == 2

    def test_unknown(self):
        with pytest.raises(ValidationError):
            parse_agent_spec("dqn", 2)


class TestExactDiscretizerMemo:
    @staticmethod
    def rounded(obs, decimals=6):
        return tuple(np.asarray(obs, dtype=float).round(decimals).tolist())

    def test_matches_rounding_on_every_input_kind(self):
        d = ExactDiscretizer()
        inputs = [np.array([0.1234567, 1.0]), np.array([0.1234567, 1.0]),
                  np.array([-0.0, 0.0]), np.array([0.0, -0.0]), np.array([-0.0, 0.0]),
                  [0.1234567, 2.0], [3, -4], np.array([1, 2]),
                  np.array([0.1234567, 1.0], dtype=np.float32),
                  np.array([0.25, 0.5]), np.array([[0.25, 0.5]])]
        for _ in range(2):  # the second pass reads the memo
            for obs in inputs:
                assert repr(d.key(obs)) == repr(self.rounded(obs)), obs  # repr keeps -0.0

    def test_float32_with_float64_bytes_is_not_confused(self):
        d = ExactDiscretizer()
        x = np.array([0.1, 0.2])
        assert d.key(x) == self.rounded(x)
        y = x.view(np.float32)  # the same bytes read as four float32 values
        assert d.key(y) == self.rounded(y)

    def test_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(agents, "KEY_CAP", 3)
        d = ExactDiscretizer(decimals=2)
        xs = [np.array([i / 7.0, -i / 3.0]) for i in range(10)]
        for _ in range(2):
            for x in xs:
                assert d.key(x) == self.rounded(x, 2)
        assert len(d._memo) == 3
