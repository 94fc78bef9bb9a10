import numpy as np
import pytest

from nonmarkov import aggregators
from nonmarkov.agents import (
    GAMMA,
    ALPHA,
    Draws,
    ExactDiscretizer,
    RandomAgent,
    SENTINEL,
    WindowedQAgent,
    evaluate,
    parse_agent_spec,
    train,
)
from nonmarkov.core import ValidationError
from nonmarkov.envs import Environment, make_env, optimal_return, make_chain
from nonmarkov.wrappers import wrap


class TestDiscretizers:
    def test_exact_rounds(self):
        d = ExactDiscretizer()
        assert d.key([0.1234567, 1.0]) == (0.123457, 1.0)


class TestRandomAgent:
    def test_seeded_determinism(self):
        a1, a2 = RandomAgent(3), RandomAgent(3)
        a1.seed(5)
        a2.seed(5)
        assert [a1.act(None) for _ in range(20)] == [a2.act(None) for _ in range(20)]

    def test_actions_are_default_rng_draws(self):
        agent = RandomAgent(3)
        agent.seed(5)
        ref = np.random.default_rng(5)
        assert [agent.act(None) for _ in range(50)] == [int(ref.integers(3)) for _ in range(50)]
        assert agent.start(np.array([1.0])) is agent.advance(None, np.array([2.0])) is None

    def test_training_is_noop(self):
        env = make_env("chain:5", max_steps=8)
        agent = RandomAgent(2)
        out = train(agent, env, episodes=3, seed=0, horizon=8)
        assert out is agent


class TestWindowedQAgent:
    def test_window_padding(self):
        agent = WindowedQAgent(num_actions=2, window=3)
        assert agent.start(np.array([1.0])) == (SENTINEL, SENTINEL, (1.0,))

    def test_window_slides(self):
        agent = WindowedQAgent(num_actions=2, window=2)
        key = agent.advance(agent.start(np.array([1.0])), np.array([2.0]))
        assert key == ((1.0,), (2.0,))
        assert agent.advance(key, np.array([3.0])) == ((2.0,), (3.0,))

    def test_advance_branches_from_one_key(self):
        # a key is a value: advancing it twice gives two windows and changes neither it nor q
        agent = WindowedQAgent(num_actions=2, window=2)
        key = agent.start(np.array([1.0]))
        agent.q[key] = [0.25, 0.5]
        left, right = agent.advance(key, np.array([2.0])), agent.advance(key, np.array([3.0]))
        assert left == ((1.0,), (2.0,)) and right == ((1.0,), (3.0,))
        assert key == (SENTINEL, (1.0,)) and agent.q == {key: [0.25, 0.5]}
        assert agent.act(key) == 1 and agent.act(left) == agent.act(right) == 0

    def test_greedy_ties_low_action(self):
        agent = WindowedQAgent(num_actions=3, window=1)
        key = agent.start(np.array([1.0]))
        agent.q[key] = [0.5, 0.5, 0.5]
        assert agent.act(key) == 0
        agent.q[key] = [0.1, 0.5, 0.5]
        assert agent.act(key) == 1

    def test_unseen_key_default_action(self):
        agent = WindowedQAgent(num_actions=3, window=1)
        assert agent.act(agent.start(np.array([9.0]))) == 0

    def test_epsilon_schedule(self):
        agent = WindowedQAgent(num_actions=2, window=1)
        assert agent.epsilon(0, 100) == pytest.approx(1.0)
        assert agent.epsilon(80, 100) == pytest.approx(0.05)
        assert agent.epsilon(99, 100) == pytest.approx(0.05)
        assert agent.epsilon(40, 100) == pytest.approx(0.525)

    @pytest.mark.parametrize("window", [0, -1, 2.5, "2", True])
    def test_window_validated(self, window):
        # 2.5 and "2" raised a bare TypeError on the first step, and True trained as window 1
        with pytest.raises(ValidationError, match=r"window must be an int >= 1, got "):
            WindowedQAgent(num_actions=2, window=window)


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
                self.calls, self.last = [], None

            def start(self, obs):
                self.calls.append("start")
                self.last = object()
                return self.last

            def advance(self, key, obs):
                assert key is self.last
                self.calls.append("advance")
                self.last = object()
                return self.last

            def act(self, key):
                assert key is self.last  # the key the previous start or advance returned
                self.calls.append("act")
                return 1

        agent = Recorder()
        evaluate(agent, make_env("chain:5", max_steps=8), episodes=2, horizon=3, seed=0)
        assert agent.calls == (["start"] + ["act", "advance"] * 3) * 2

    def test_training_leaves_no_episode_state(self):
        env = wrap(make_env("chain:5:0.2", max_steps=8), "S^1")
        agent = train(WindowedQAgent(num_actions=2, window=2), env, episodes=20, seed=0, horizon=8)
        assert set(vars(agent)) == {"num_actions", "window", "discretizer", "q"}

    def test_episode_count_validated(self):
        env = make_env("chain:5", max_steps=8)
        with pytest.raises(ValidationError):
            train(WindowedQAgent(2), env, episodes=0, seed=0, horizon=8)
        with pytest.raises(ValidationError):
            evaluate(WindowedQAgent(2), env, episodes=0, horizon=8, seed=0)

    def test_train_needs_a_horizon(self):
        # with no horizon, train on a chain made without max_steps looped forever;
        # max_steps here keeps a regression a failure rather than a hang
        with pytest.raises(TypeError, match="horizon"):
            train(WindowedQAgent(2), make_env("chain:5", max_steps=8), episodes=1, seed=0)

    def test_window_longer_than_an_episode_rejected(self):
        # a window past horizon + 1 observations only pads its keys, and qwin:100000000
        # would build a tuple of 10^8 pads per step
        env = make_env("chain:5", max_steps=8)
        with pytest.raises(ValidationError, match="window 10 is longer than an episode"):
            train(WindowedQAgent(2, window=10), env, episodes=1, seed=0, horizon=8)
        with pytest.raises(ValidationError, match="window 10 is longer than an episode"):
            evaluate(WindowedQAgent(2, window=10), env, episodes=1, horizon=8, seed=0)
        agent = train(WindowedQAgent(2, window=9), env, episodes=2, seed=0, horizon=8)
        assert len(evaluate(agent, env, episodes=2, horizon=8, seed=0)[2]) == 2

    @pytest.mark.parametrize("horizon", [0, -5])
    def test_horizon_below_one_rejected(self, horizon):
        # evaluate used to play one step per episode
        env = make_env("chain:5", max_steps=8)
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            train(WindowedQAgent(2), env, episodes=1, seed=0, horizon=horizon)
        with pytest.raises(ValidationError, match="horizon must be >= 1"):
            evaluate(WindowedQAgent(2), env, episodes=1, horizon=horizon, seed=0)


    @pytest.mark.parametrize("episodes, horizon", [(2.5, 8), (1, 2.5), (True, 8), (1, True),
                                                   (np.int64(1), 8), ("1", 8)])
    def test_run_sizes_must_be_integers(self, episodes, horizon):
        # 2.5 raised a bare TypeError from range(), and True ran one episode or step
        env = make_env("chain:5", max_steps=8)
        with pytest.raises(ValidationError, match="must be integers"):
            train(WindowedQAgent(2), env, episodes=episodes, seed=0, horizon=horizon)
        with pytest.raises(ValidationError, match="must be integers"):
            evaluate(WindowedQAgent(2), env, episodes=episodes, horizon=horizon, seed=0)

    @pytest.mark.parametrize("num_actions", [0, -1, 2 ** 32 + 1])
    def test_num_actions_within_what_draws_cover(self, num_actions):
        env = make_env("chain:5", max_steps=8)
        for agent in (WindowedQAgent(num_actions), RandomAgent(num_actions)):
            with pytest.raises(ValidationError, match="num_actions must be in"):
                train(agent, env, episodes=1, seed=0, horizon=8)
            with pytest.raises(ValidationError, match="num_actions must be in"):
                evaluate(agent, env, episodes=1, horizon=8, seed=0)


BOUNDS = [1, 2, 3, 5, 7, 2 ** 31 - 1, 2 ** 31, 3 * 2 ** 30 + 7, 2 ** 32 - 1, 2 ** 32]


class TestDraws:
    """`Draws` recomputes numpy's PCG64 doubles and Lemire ints; if numpy ever changes
    either algorithm these tests fail, and the learn CSV bytes change with them."""

    def test_matches_default_rng(self):
        pick = np.random.default_rng(12345)
        calls, rejected = {}, {}  # per bound: integers calls, and calls that drew > 1 half
        for seed in range(300):
            ref, draws = np.random.default_rng(seed), Draws(seed)
            words = [0]  # raw words read so far
            raw = draws._words

            def counted():
                for w in raw:
                    words[0] += 1
                    yield w

            draws._words = counted()
            for i in range(400):
                if pick.random() < 0.4:
                    assert draws.random() == ref.random(), (seed, i)
                    continue
                n = BOUNDS[pick.integers(len(BOUNDS))]
                before = 2 * words[0] - (draws._high is not None)  # halves used so far
                got = draws.integers(n)
                assert type(got) is int and got == int(ref.integers(n)), (seed, i, n)
                used = 2 * words[0] - (draws._high is not None) - before
                assert used == 0 if n == 1 else used >= 1  # numpy draws nothing for n = 1
                calls[n] = calls.get(n, 0) + 1
                rejected[n] = rejected.get(n, 0) + (used > 1)
        assert set(calls) == set(BOUNDS)
        n = 3 * 2 ** 30 + 7  # Lemire rejects 2**32 % n = 2**30 - 7 of the 2**32 halves
        assert 0.2 < rejected[n] / calls[n] < 0.3, (rejected, calls)
        assert rejected[2] == rejected[2 ** 31] == rejected[2 ** 32] == 0

    def test_doubles_and_ints_share_one_stream(self):
        ref, draws = np.random.default_rng(7), Draws(7)
        for _ in range(200):  # each round's int leaves or takes a half buffered across doubles
            assert [draws.integers(5), draws.random(), draws.random()] == [
                int(ref.integers(5)), ref.random(), ref.random()]


def _reference_train(agent, env, episodes, seed, horizon):
    """The training loop on numpy's own generator, as it ran before `Draws`."""
    rng = np.random.default_rng(seed)
    q = agent.q
    for ep in range(episodes):
        eps = agent.epsilon(ep, episodes)
        key = agent.start(env.reset(int(rng.integers(2 ** 31))))
        for _ in range(horizon):
            if rng.random() < eps:
                action = int(rng.integers(agent.num_actions))
            else:
                action = agent.act(key)
            obs, reward, terminated, truncated = env.step(action)
            next_key = agent.advance(key, obs)
            row = q.setdefault(key, [0.0] * agent.num_actions)
            if terminated:
                target = reward
            else:
                next_row = q.get(next_key)
                target = reward + GAMMA * (max(next_row) if next_row is not None else 0.0)
            row[action] += ALPHA * (target - row[action])
            if terminated or truncated:
                break
            key = next_key
    return agent


def _reference_evaluate(agent, env, episodes, horizon, seed):
    rng = np.random.default_rng(seed)
    returns = []
    for _ in range(episodes):
        key = agent.start(env.reset(int(rng.integers(2 ** 31))))
        total = 0.0
        for _ in range(horizon):
            obs, reward, terminated, truncated = env.step(agent.act(key))
            key = agent.advance(key, obs)
            total += reward
            if terminated or truncated:
                break
        returns.append(total)
    return returns


class TestTrainMatchesNumpyLoop:
    @pytest.mark.parametrize("wrapper", ["S^0", "S^1", "S^3", "D^2", "S_l:0.5"])
    @pytest.mark.parametrize("spec", ["qwin:1", "qwin:2"])
    def test_same_q_table_and_returns(self, wrapper, spec):
        runs = []
        for train_fn, evaluate_fn in ((train, lambda *a: evaluate(*a)[2]),
                                      (_reference_train, _reference_evaluate)):
            env = wrap(make_env("chain:5:0.4", max_steps=8), wrapper)
            agent = parse_agent_spec(spec, env.num_actions)
            train_fn(agent, env, 400, 3, 8)
            returns = evaluate_fn(agent, env, 50, 8, 10_003)
            runs.append((agent.q, returns))
        (q, returns), (ref_q, ref_returns) = runs
        assert len(q) > 4 and q == ref_q and list(q) == list(ref_q)  # q_keys, in order
        assert returns == ref_returns


class TestParseAgentSpec:
    def test_random(self):
        assert isinstance(parse_agent_spec("random", 2), RandomAgent)

    def test_qwin(self):
        agent = parse_agent_spec("qwin:3", 2)
        assert isinstance(agent, WindowedQAgent) and agent.window == 3
        d = ExactDiscretizer()  # a caller's discretizer is used as is
        assert parse_agent_spec("qwin:3", 2, discretizer=d).discretizer is d

    @pytest.mark.parametrize("spec", ["qwin:1:8", "qwin:2:8", "qwin:1:0",
                                      "qwin:1:-3", "qwin:1:2:3"])
    def test_qwin_extra_field_rejected(self, spec):
        with pytest.raises(ValidationError, match="expected qwin:k"):
            parse_agent_spec(spec, 2)
        with pytest.raises(ValidationError, match="expected qwin:k"):
            parse_agent_spec(spec, 2, discretizer=ExactDiscretizer())

    def test_unknown(self):
        with pytest.raises(ValidationError):
            parse_agent_spec("dqn", 2)


class TestExactDiscretizerMemo:
    @staticmethod
    def rounded(obs):
        return tuple(np.asarray(obs, dtype=float).round(6).tolist())

    def test_matches_rounding_on_every_input_kind(self):
        d = ExactDiscretizer()
        inputs = [np.array([0.1234567, 1.0]), np.array([0.1234567, 1.0]),
                  np.array([-0.0, 0.0]), np.array([0.0, -0.0]), np.array([-0.0, 0.0]),
                  [0.1234567, 2.0], [3, -4], np.array([1, 2]),
                  np.array([0.1234567, 1.0], dtype=np.float32),
                  np.array([0.25, 0.5]), np.array([[0.25, 0.5]]),
                  np.frombuffer(np.array([-0.0, 0.5]).tobytes())]
        for _ in range(2):  # the second pass reads the frozen array from the memo
            for obs in inputs:
                assert repr(d.key(obs)) == repr(self.rounded(obs)), obs  # repr keeps -0.0

    def test_float32_with_float64_bytes_is_not_confused(self):
        d = ExactDiscretizer()
        x = np.array([0.1, 0.2])
        assert d.key(x) == self.rounded(x)
        y = x.view(np.float32)  # the same bytes read as four float32 values
        assert d.key(y) == self.rounded(y)

    def test_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(aggregators, "NODE_CAP", 3)
        d = ExactDiscretizer()
        xs = [np.array([i / 7.0, -i / 3.0]) for i in range(10)]
        xs[::2] = [np.frombuffer(x.tobytes()) for x in xs[::2]]  # five constants, three entries
        for x in xs[1::2]:
            x.flags.writeable = False  # read-only owners, which are not constants
        for _ in range(2):
            for x in xs:
                assert d.key(x) == self.rounded(x)
        assert [id(x) for x, _ in d._seen.values()] == list(map(id, xs[:6:2]))

    def test_writable_array_mutated_in_place_gets_its_new_key(self):
        d = ExactDiscretizer()
        base = np.array([0.25, 0.5])
        view = base[:]
        view.flags.writeable = False  # read-only, but its values change with base
        for x in (base, view):
            base[:] = (0.25, 0.5)
            assert d.key(x) == (0.25, 0.5)
            base[0] = 0.75
            assert d.key(x) == (0.75, 0.5)
        assert d._seen == {}

    def test_repeated_read_only_object_is_keyed_by_identity(self):
        d = ExactDiscretizer()
        x = np.frombuffer(np.array([0.1234567, 1.0]).tobytes())  # read-only over bytes
        assert d.key(x) == d.key(x) == self.rounded(x)
        assert list(d._seen.values()) == [(x, self.rounded(x))]
        d._seen[id(x)] = (x, "from the memo")
        assert d.key(x) == "from the memo"

    def test_short_lived_read_only_arrays_reusing_ids(self, monkeypatch):
        # past the cap an array is not held, so the next one may take its id
        monkeypatch.setattr(aggregators, "NODE_CAP", 8)
        d, ids = ExactDiscretizer(), set()
        for i in range(3000):
            x = np.frombuffer(np.array([i / 7.0, -i / 3.0]).tobytes())
            ids.add(id(x))
            assert d.key(x) == self.rounded(x)
        assert len(ids) < 3000 - 8  # ids were reused
        assert len(d._seen) == 8


class Replay(Environment):
    """Hands out the one observation object `obs` at every reset and step; reward 0."""

    observation_dim = 2
    num_actions = 1

    def __init__(self, obs):
        self.obs = obs

    def reset(self, seed: int):
        return self.obs

    def step(self, action: int):
        return self.obs, 0.0, False, False


class TestChangedBytes:
    """An array whose values can still change is not a constant, so no memo keys it by
    identity: after a change each key and aggregate is that of a fresh instance."""

    @staticmethod
    def changing():
        """A read-only array over a bytearray, and a function that rewrites its first entry."""
        buf = bytearray(np.array([1.0, 0.0]).tobytes())
        x = np.frombuffer(buf)
        x.flags.writeable = False

        def change(value):
            buf[:8] = np.array([value]).tobytes()
        return x, change

    @staticmethod
    def reenabled():
        """An owning array set read-only, and a function that makes it writable to change it."""
        x = np.array([1.0, 0.0])
        x.flags.writeable = False

        def change(value):
            x.flags.writeable = True
            x[0] = value
            x.flags.writeable = False
        return x, change

    @pytest.mark.parametrize("make", ["changing", "reenabled"])
    def test_discretizer_key(self, make):
        x, change = getattr(self, make)()
        d = ExactDiscretizer()
        assert d.key(x) == (1.0, 0.0)
        change(5.0)
        assert d.key(x) == ExactDiscretizer().key(x) == (5.0, 0.0)
        assert d._seen == {}

    @pytest.mark.parametrize("make", ["changing", "reenabled"])
    def test_wrapped_step(self, make):
        x, change = getattr(self, make)()
        env = wrap(Replay(x), "S^1")
        assert env.reset(0).tolist() == [1.0, 0.0] and env.step(0)[0].tolist() == [2.0, 0.0]
        change(5.0)
        fresh = wrap(Replay(x), "S^1")
        for e in (env, fresh):
            assert e.reset(0).tolist() == [5.0, 0.0] and e.step(0)[0].tolist() == [10.0, 0.0]
        assert env._seen == {}
