import re
import tracemalloc

import numpy as np
import pytest

from nonmarkov import envs
from nonmarkov.analysis import build_markov_abstraction, build_nonmarkov_embedding
from nonmarkov.core import FiniteMDP, Outcome, ValidationError, is_degenerate, save_mdp
from nonmarkov.envs import (
    EpisodeFinishedError,
    FiniteMDPEnv,
    make_chain,
    make_env,
    make_mdp_from_id,
    make_random_mdp,
    optimal_return,
    value_iteration,
)
from nonmarkov.experiments import SweepConfig, run_sweep


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


class TestChain:
    def test_structure(self):
        m = make_chain(5)
        assert m.num_states == 5 and m.num_actions == 2
        assert m.rho0[0] == 1.0
        assert not is_degenerate(m)

    def test_goal_reward(self):
        m = make_chain(3)
        # from state 1, right reaches the goal with reward 1
        (o,) = m.row(1, 1)
        assert o.next_state == 2 and o.reward == 1.0

    def test_boundaries_self_loop(self):
        m = make_chain(4)
        assert m.row(0, 0)[0].next_state == 0
        assert m.row(3, 1)[0].next_state == 3

    def test_slip(self):
        m = make_chain(5, p_slip=0.2)
        row = m.row(1, 1)
        assert {o.next_state: o.prob for o in row} == {2: 0.8, 1: 0.2}

    def test_validation(self):
        with pytest.raises(ValidationError):
            make_chain(1)
        with pytest.raises(ValidationError):
            make_chain(5, p_slip=0.6)


class TestRandomMdp:
    def test_non_degenerate(self):
        for seed in range(5):
            assert not is_degenerate(make_random_mdp(seed, 4, 2, 2))

    def test_deterministic_in_seed(self):
        m1 = make_random_mdp(3, 4, 2, 2)
        m2 = make_random_mdp(3, 4, 2, 2)
        assert m1.outcomes == m2.outcomes

    def test_probabilities_sum(self):
        m = make_random_mdp(0, 4, 2, 3)
        for s in range(4):
            for a in range(2):
                assert abs(sum(o.prob for o in m.row(s, a)) - 1.0) <= 1e-12


class TestEnvDeterminism:
    @pytest.mark.parametrize("env_id", ["chain:5", "chain:5:0.2", "random:1:4:2:2"])
    def test_same_seed_same_stream(self, env_id):
        env1, env2 = make_env(env_id), make_env(env_id)
        actions = [i % env1.num_actions for i in range(20)]
        s1, r1 = rollout(env1, 42, actions)
        s2, r2 = rollout(env2, 42, actions)
        assert r1 == r2
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    def test_step_after_done(self):
        env = FiniteMDPEnv(make_chain(3), max_steps=2)
        env.reset(0)
        env.step(1)
        env.step(1)
        with pytest.raises(EpisodeFinishedError):
            env.step(1)

    def test_action_range(self):
        env = make_env("chain:5")
        env.reset(0)
        with pytest.raises(ValidationError):
            env.step(2)

    @pytest.mark.parametrize("max_steps", [0, -1, True, 2.5])
    def test_bad_max_steps_rejected(self, max_steps):
        # 0, -1 and True used to give one-step episodes, and 2.5 three-step ones
        with pytest.raises(ValidationError, match="max_steps"):
            make_env("chain:5", max_steps=max_steps)


def _sampler_processes():
    """Rows branching to every state, rho0 with zeros, single-outcome rows."""
    wide = make_random_mdp(4, 5, 3, branching=5)
    single = make_random_mdp(5, 4, 2, branching=1)
    return [
        make_chain(5, p_slip=0.4),
        FiniteMDP(num_states=5, num_actions=3, rho0=np.array([0.3, 0.0, 0.7, 0.0, 0.0]),
                  outcomes=wide.outcomes, embedding=wide.embedding),
        FiniteMDP(num_states=4, num_actions=2, rho0=np.array([0.0, 0.25, 0.0, 0.75]),
                  outcomes=single.outcomes, embedding=single.embedding),
        make_random_mdp(6, 6, 2, branching=3),
    ]


class TestSampler:
    """The compiled sampler against the `Generator.choice` sampler it replaced."""

    @pytest.mark.parametrize("m", _sampler_processes())
    def test_reset_matches_choice(self, m):
        env = FiniteMDPEnv(m)
        for seed in range(300):
            expected = int(np.random.default_rng(seed).choice(m.num_states, p=m.rho0))
            assert m.match_states([env.reset(seed)])[0] == expected

    @pytest.mark.parametrize("m", _sampler_processes())
    def test_step_matches_choice(self, m):
        env = FiniteMDPEnv(m)
        actions = np.random.default_rng(99).integers(m.num_actions, size=3000)
        got = [m.match_states([env.reset(7)])[0]]
        for a in actions:
            obs, reward, _, _ = env.step(int(a))
            got.append((m.match_states([obs])[0], reward))
        rng = np.random.default_rng(7)
        state = int(rng.choice(m.num_states, p=m.rho0))
        expected = [state]
        for a in actions:
            row = m.row(state, int(a))
            probs = np.array([o.prob for o in row])
            o = row[int(rng.choice(len(row), p=probs / probs.sum()))]
            state = o.next_state
            expected.append((state, o.reward))
        assert got == expected

    @pytest.mark.parametrize("m", _sampler_processes())
    def test_bounded_episodes_match_choice(self, m):
        # the sweep's shape: many resets, episodes of at most max_steps = 8 steps, some
        # cut short, so an episode's batch of draws is not always used up
        env = FiniteMDPEnv(m, max_steps=8)
        rng = np.random.default_rng(98)
        for seed in range(400):
            actions = rng.integers(m.num_actions, size=int(rng.integers(1, 9))).tolist()
            got = [m.match_states([env.reset(seed)])[0]]
            for a in actions:
                obs, reward, _, truncated = env.step(a)
                got.append((m.match_states([obs])[0], reward))
            assert truncated == (len(actions) == 8)
            assert got == _choice_episode(m, seed, actions)

    def test_array_built_table_samples_without_its_outcomes(self):
        # the sampler read `mdp.outcomes`, which builds the tuple view of a table from arrays
        hm = build_markov_abstraction(build_nonmarkov_embedding(make_chain(3, p_slip=0.25)), 3)
        actions = np.random.default_rng(96).integers(2, size=200).tolist()
        got = _episode(FiniteMDPEnv(hm.mdp), 3, actions)
        assert "outcomes" not in vars(hm.mdp)
        assert got == _choice_episode(hm.mdp, 3, actions)

    def test_long_horizon_reset_draws_a_bounded_batch(self):
        # a reset drew all max_steps + 1 doubles of its episode: 38 MB traced at 10**6
        m = make_chain(5, p_slip=0.3)
        long, plain = FiniteMDPEnv(m, max_steps=10 ** 6), FiniteMDPEnv(m)
        tracemalloc.start()
        try:
            long.reset(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        actions = np.random.default_rng(97).integers(2, size=100).tolist()
        assert long.reset(5).tobytes() == plain.reset(5).tobytes()
        for a in actions:
            got, want = long.step(a), plain.step(a)
            assert (got[0].tobytes(), *got[1:]) == (want[0].tobytes(), *want[1:])


def _choice_episode(m, seed, actions) -> list:
    """The start state, then (state, reward) per action, of the `Generator.choice` sampler."""
    rng = np.random.default_rng(seed)
    state = int(rng.choice(m.num_states, p=m.rho0))
    expected = [state]
    for a in actions:
        row = m.row(state, a)
        probs = np.array([o.prob for o in row])
        o = row[int(rng.choice(len(row), p=probs / probs.sum()))]
        state = o.next_state
        expected.append((state, o.reward))
    return expected


def _episode(env, seed, actions) -> list:
    """`_choice_episode`'s list for `env` (a FiniteMDPEnv), run from reset(seed)."""
    m = env.mdp
    got = [m.match_states([env.reset(seed)])[0]]
    for a in actions:
        obs, reward, _, _ = env.step(a)
        got.append((m.match_states([obs])[0], reward))
    return got


@pytest.fixture
def empty_memo(monkeypatch):
    """A fresh `envs._SEEDED`, so the first reset of a seed misses."""
    memo = {}
    monkeypatch.setattr(envs, "_SEEDED", memo)
    return memo


class TestResetSeed:
    """reset takes an int >= 0, Python or numpy, and rejects anything else before any change."""

    @pytest.mark.parametrize("seed", [-1, 2.5, None, True, np.bool_(True), "3", np.int64(-2)])
    def test_bad_seed_rejected_before_any_change(self, seed):
        # -1 raised numpy's ValueError, 2.5 a TypeError, None seeded from OS entropy, and
        # True was seed 1
        m = make_chain(5, p_slip=0.4)
        env, actions = FiniteMDPEnv(m, max_steps=8), [1, 0, 1, 1, 0, 1, 1]
        got = [m.match_states([env.reset(11)])[0]]
        obs, reward, _, _ = env.step(actions[0])
        got.append((m.match_states([obs])[0], reward))
        with pytest.raises(ValidationError, match=re.escape(f"must be an integer >= 0, got {seed!r}")):
            env.reset(seed)
        for a in actions[1:]:  # the episode goes on as if the reset was never called
            obs, reward, _, _ = env.step(a)
            got.append((m.match_states([obs])[0], reward))
        assert got == _choice_episode(m, 11, actions)

    def test_bad_seed_on_a_fresh_env(self):
        env = FiniteMDPEnv(make_chain(3))
        with pytest.raises(ValidationError, match="reset seed"):
            env.reset(-1)
        with pytest.raises(EpisodeFinishedError):
            env.step(0)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint32(3), np.int8(3)])
    def test_numpy_int_is_the_python_int(self, seed, empty_memo):
        m = make_random_mdp(4, 5, 3, branching=5)
        actions = np.random.default_rng(96).integers(3, size=20).tolist()
        want = _episode(FiniteMDPEnv(m, max_steps=20), 3, actions)
        assert _episode(FiniteMDPEnv(m, max_steps=20), seed, actions) == want  # a hit
        empty_memo.clear()
        assert _episode(FiniteMDPEnv(m, max_steps=20), seed, actions) == want  # a miss
        assert list(empty_memo) == [3] and type(next(iter(empty_memo))) is int


class TestSeedMemo:
    """`envs._SEEDED` holds the first batch of doubles per reset seed; a memo hit gives the
    doubles a fresh `default_rng(seed)` gives."""

    @pytest.mark.parametrize("m", _sampler_processes())
    def test_repeated_seed_same_episode(self, m, empty_memo):
        env = FiniteMDPEnv(m, max_steps=8)
        rng = np.random.default_rng(95)
        for seed in range(60):
            actions = rng.integers(m.num_actions, size=8).tolist()
            first = _episode(env, seed, actions)
            assert len(empty_memo[seed]) == 9 * 8  # max_steps + 1 doubles
            assert _episode(env, seed, actions) == first == _choice_episode(m, seed, actions)
            assert _episode(FiniteMDPEnv(m, max_steps=8), seed, actions) == first

    @pytest.mark.parametrize("m", _sampler_processes())
    def test_long_episode_continues_past_the_stored_batch(self, m, empty_memo):
        env = FiniteMDPEnv(m)  # a batch of 4 doubles, so the rest comes from a new generator
        actions = np.random.default_rng(94).integers(m.num_actions, size=3000).tolist()
        first = _episode(env, 7, actions)
        assert len(empty_memo[7]) == 4 * 8
        assert _episode(env, 7, actions) == first == _choice_episode(m, 7, actions)

    def test_batch_lengths_alternate_on_one_seed(self, empty_memo):
        m = make_chain(5, p_slip=0.4)
        bounded, plain = FiniteMDPEnv(m, max_steps=8), FiniteMDPEnv(m)
        actions = [1, 1, 0, 1, 1, 1, 0, 1]
        want = _choice_episode(m, 5, actions)
        for env, batch in [(bounded, 9), (plain, 4), (bounded, 9), (bounded, 9), (plain, 4)]:
            assert _episode(env, 5, actions) == want
            assert len(empty_memo[5]) == 8 * batch  # a batch of another length missed
        assert _episode(plain, 5, actions * 3) == _choice_episode(m, 5, actions * 3)

    def test_memo_emptied_at_the_cap(self, empty_memo, monkeypatch):
        monkeypatch.setattr(envs, "SEED_CAP", 3)  # read at call time
        m = make_random_mdp(6, 6, 2, branching=3)
        env = FiniteMDPEnv(m, max_steps=8)
        actions = [0, 1, 1, 0, 1, 0, 0, 1]
        sizes = []
        for seed in [0, 1, 2, 0, 3, 1, 4, 5, 6, 2, 2, 7, 0]:
            assert _episode(env, seed, actions) == _choice_episode(m, seed, actions)
            sizes.append(len(empty_memo))
        assert sizes == [1, 2, 3, 3, 1, 2, 3, 1, 2, 3, 3, 1, 2]

    def test_sweep_same_bytes_cold_warm_and_emptied(self, empty_memo):
        cfg = SweepConfig(envs=["chain:5:0.4"], wrappers=["S^1", "D^2"],
                          agents=["qwin:1", "qwin:2"], seeds=[0, 1], episodes=60,
                          eval_episodes=10, horizon=8, workers=1)
        cold = run_sweep(cfg)
        assert len(empty_memo) == 2 * 70  # each seed's episode seeds, shared by its four cells
        warm = run_sweep(cfg)
        empty_memo.clear()
        assert cold == warm == run_sweep(cfg)


class TestEnvIds:
    def test_mdp_file(self, tmp_path):
        path = str(tmp_path / "m.json")
        save_mdp(make_chain(4), path)
        m = make_mdp_from_id(f"mdp-file:{path}")
        assert m.num_states == 4

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            make_mdp_from_id("gridworld:3")

    @pytest.mark.parametrize("env_id", ["gridworld:3", "cartpole", "pendulum"])
    def test_unknown_id_through_make_env(self, env_id):
        with pytest.raises(ValidationError, match="unrecognized"):
            make_env(env_id)


class TestValueIteration:
    def test_chain_optimum(self):
        # start at 0, goal at 4: first goal entry at step 4, then re-entry
        # each remaining step
        m = make_chain(5)
        assert optimal_return(m, 6) == pytest.approx(3.0, abs=1e-12)
        assert optimal_return(m, 4) == pytest.approx(1.0, abs=1e-12)

    def test_policy_prefers_right_on_chain(self):
        m = make_chain(5)
        _, policy = value_iteration(m, 6)
        assert np.all(policy[0] == 1)

    def test_matches_brute_force_enumeration(self):
        # independent oracle: exhaustive max over stationary-by-step action
        # sequences via recursion on the horizon
        m = make_chain(3, p_slip=0.1)

        def best(s, steps):
            if steps == 0:
                return 0.0
            return max(
                sum(o.prob * (o.reward + best(o.next_state, steps - 1))
                    for o in m.row(s, a))
                for a in range(m.num_actions)
            )

        horizon = 4
        expected = sum(p * best(s, horizon) for s, p in enumerate(m.rho0))
        assert optimal_return(m, horizon) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("case", ["random-60x4x3", "abstraction-h4", "chain-slip",
                                      "zero-prob-outcome", "exact-tie"])
    def test_bit_identical_to_python_loop(self, case):
        m, horizon = _value_iteration_case(case)
        values, policy = value_iteration(m, horizon)
        ref_values, ref_policy = _python_value_iteration(m, horizon)
        assert values.tobytes() == ref_values.tobytes()
        assert policy.tobytes() == ref_policy.tobytes()

    def test_tie_breaks_low_action(self):
        # symmetric two-state process: both actions identical value
        from nonmarkov.core import FiniteMDP, Outcome
        out = (
            ((Outcome(1, 0.0, 1.0),), (Outcome(1, 0.0, 1.0),)),
            ((Outcome(0, 1.0, 1.0),), (Outcome(0, 1.0, 1.0),)),
        )
        m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=out, embedding=tuple(np.eye(2)))
        _, policy = value_iteration(m, 3)
        assert np.all(policy == 0)


def _python_value_iteration(m, horizon):
    """The reference: one Python sum per (state, action) over the row's outcomes
    in table order, and the sequential tie rule."""
    n, k = m.num_states, m.num_actions
    values = np.zeros((horizon + 1, n))
    policy = np.zeros((horizon, n), dtype=int)
    for t in range(horizon - 1, -1, -1):
        for s in range(n):
            best_q, best_a = -np.inf, 0
            for a in range(k):
                q = sum(o.prob * (o.reward + values[t + 1, o.next_state]) for o in m.row(s, a))
                if q > best_q + 1e-15:
                    best_q, best_a = q, a
            values[t, s] = best_q
            policy[t, s] = best_a
    return values, policy


def _value_iteration_case(case):
    if case == "random-60x4x3":
        return make_random_mdp(0, 60, 4, 3), 50
    if case == "abstraction-h4":
        oracle = build_nonmarkov_embedding(make_random_mdp(3, 4, 2, 2))
        return build_markov_abstraction(oracle, 4).mdp, 4
    if case == "chain-slip":
        return make_chain(5, p_slip=0.4), 8
    if case == "zero-prob-outcome":  # rows of unequal width: padded slots and a real 0
        out = (((Outcome(1, 0.3, 0.0), Outcome(1, 1.0, 0.7), Outcome(0, 0.1, 0.3)),
                (Outcome(2, 0.5, 1.0),)),
               ((Outcome(2, 0.2, 0.6), Outcome(0, 0.9, 0.4)), (Outcome(1, 0.0, 1.0),)),
               ((Outcome(0, 0.7, 1.0),), (Outcome(2, 0.25, 0.5), Outcome(1, 0.75, 0.5))))
        return FiniteMDP(num_states=3, num_actions=2, rho0=np.array([1.0, 0.0, 0.0]),
                         outcomes=out, embedding=tuple(np.eye(3))), 7
    # exact ties between actions, and q values 1e-16 apart that the tie rule keeps equal
    out = (((Outcome(1, 0.1, 1.0),), (Outcome(1, 0.1, 1.0),), (Outcome(1, 0.1 + 1e-16, 1.0),)),
           ((Outcome(0, 0.2, 0.5), Outcome(1, 0.2, 0.5)), (Outcome(0, 0.2, 1.0),),
            (Outcome(1, 0.2, 1.0),)))
    return FiniteMDP(num_states=2, num_actions=3, rho0=np.array([0.5, 0.5]),
                     outcomes=out, embedding=tuple(np.eye(2))), 6
