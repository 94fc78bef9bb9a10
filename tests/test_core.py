import copy
import json
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tuple_laws

from nonmarkov.core import (
    EMBED_MATCH_TOL,
    PROB_TOL,
    FiniteMDP,
    History,
    Outcome,
    ValidationError,
    as_state,
    canonical,
    frozen,
    initial_history,
    is_degenerate,
    load_mdp,
    mdp_from_dict,
    mdp_to_json,
    same_law,
    save_mdp,
)
from nonmarkov.aggregators import parse_spec
from nonmarkov.analysis import build_markov_abstraction, build_nonmarkov_embedding
from nonmarkov.envs import make_chain, make_env, make_random_mdp
from nonmarkov.wrappers import as_nmdp_oracle


def simple_mdp(num_states=2):
    outcomes = tuple(
        tuple(
            (Outcome((s + a + 1) % num_states, float(s == 0), 1.0),)
            for a in range(2)
        )
        for s in range(num_states)
    )
    rho0 = np.zeros(num_states)
    rho0[0] = 1.0
    return FiniteMDP(num_states=num_states, num_actions=2, rho0=rho0,
                     outcomes=outcomes, embedding=tuple(np.eye(num_states)))


class TestAsState:
    def test_coerces_lists(self):
        v = as_state([1, 2, 3])
        assert v.dtype == float and v.shape == (3,)

    def test_read_only(self):
        v = as_state([1.0])
        with pytest.raises(ValueError):
            v[0] = 2.0

    def test_rejects_non_1d(self):
        with pytest.raises(ValidationError):
            as_state([[1.0, 2.0]])

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            as_state([np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            as_state([])


class TestFrozen:
    """`frozen` holds exactly for the 1-d float64 arrays whose memory is a `bytes` object,
    directly or through views, which numpy will not make writable."""

    def test_arrays_over_bytes(self):
        x = np.frombuffer(np.array([1.0, 0.0, 2.0, 3.0]).tobytes())
        assert frozen(x) and frozen(x[1:]) and frozen(x[::2]) and frozen(x.reshape(2, 2)[:, 1])
        for arr in (x, x[1:]):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True

    def test_embedding_rows_and_outputs(self):
        spec = parse_spec("S^1+corr:1,2")
        state, g = spec.push(spec.begin(), [1.0, 0.0, 0.0])
        assert all(frozen(row) for row in make_chain(3).embedding)
        assert frozen(as_state([1, 2])) and frozen(g) and frozen(spec.push(state, g)[1])
        assert frozen(parse_spec("D^1").push(parse_spec("D^1").begin(), [1.0])[1])

    def test_arrays_whose_values_can_change(self):
        owner = np.array([1.0, 0.0])
        owner.flags.writeable = False
        assert not frozen(owner) and not frozen(owner[1:])
        owner.flags.writeable = True  # numpy lets an owner write again
        buf = bytearray(np.array([1.0, 0.0]).tobytes())
        for over in (np.frombuffer(buf), np.frombuffer(memoryview(buf))):
            over.flags.writeable = False
            assert not frozen(over) and not frozen(over[1:])
        assert not frozen(np.frombuffer(memoryview(bytes(16))))

    def test_other_shapes_and_kinds(self):
        data = np.array([1.0, 0.0]).tobytes()
        for x in (np.frombuffer(data).reshape(1, 2), np.frombuffer(data, dtype=np.float32),
                  np.frombuffer(data)[0], [1.0, 0.0], data):
            assert not frozen(x)

    def test_as_state_returns_a_finite_frozen_input_as_it_is(self):
        x, row = np.frombuffer(np.array([1.0, 2.0]).tobytes()), make_chain(3).embedding[1]
        view = row[:2]
        assert as_state(x) is x and as_state(row) is row and as_state(view) is view
        owner = np.array([1.0, 2.0])
        owner.flags.writeable = False
        v = as_state(owner)
        assert v is not owner and frozen(v) and v.tolist() == [1.0, 2.0]
        with pytest.raises(ValidationError, match="finite"):
            as_state(np.frombuffer(np.array([1.0, np.nan]).tobytes()))
        h = initial_history(x).extend(0, 0.0, view)
        assert h.states[0] is x and h.states[1] is view


class TestHistory:
    def test_initial_history(self):
        h = initial_history([1.0, 0.0])
        assert h.t == 0
        assert h.actions == () and h.rewards == ()

    def test_extend(self):
        h = initial_history([1.0]).extend(0, 0.5, [2.0]).extend(1, 1.0, [3.0])
        assert h.t == 2
        assert h.actions == (0, 1)
        assert h.rewards == (0.5, 1.0)
        assert [s[0] for s in h.states] == [1.0, 2.0, 3.0]

    def test_length_invariant(self):
        with pytest.raises(ValidationError):
            History((as_state([1.0]),), (0,), ())

    def test_dim_invariant(self):
        with pytest.raises(ValidationError):
            History((as_state([1.0]), as_state([1.0, 2.0])), (0,), (0.0,))

    def test_extend_validates_appended_step(self):
        h = initial_history([1.0, 0.0]).extend(0, 0.5, [2.0, 1.0])
        with pytest.raises(ValidationError):
            h.extend(1, 0.0, [np.nan, 0.0])
        with pytest.raises(ValidationError):
            h.extend(1, 0.0, [1.0])
        with pytest.raises(ValidationError):
            h.extend(1, 0.0, [[1.0, 0.0]])
        h2 = h.extend(1, 1, np.array([3.0, 4.0]))
        assert [s.tolist() for s in h2.states] == [[1.0, 0.0], [2.0, 1.0], [3.0, 4.0]]
        assert h2.actions == (0, 1) and h2.rewards == (0.5, 1.0)
        assert type(h2.actions[-1]) is int and type(h2.rewards[-1]) is float
        assert not h2.states[-1].flags.writeable

    @pytest.mark.parametrize("s0,s1", [([1.0], [2.0]), ([0.0, 1.0], [2.0, 3.0])],
                             ids=["1-entry", "2-entry"])
    def test_equality_and_hash(self, s0, s1):
        # the generated dataclass __eq__ compared tuples of arrays, which raised for
        # states of two or more entries, and its __hash__ raised on the arrays
        h = initial_history(s0).extend(1, 0.5, s1)
        same = History((np.array(s0), np.array(s1)), (1,), (0.5,))
        assert h == same and not h != same and hash(h) == hash(same)
        others = [initial_history(s0), initial_history(s0).extend(0, 0.5, s1),
                  initial_history(s0).extend(1, 0.25, s1),
                  initial_history(s0).extend(1, 0.5, [x + 1.0 for x in s1]),
                  initial_history(s1).extend(1, 0.5, s0)]
        for other in others:
            assert h != other and not h == other
        assert h != (h.states, h.actions, h.rewards)
        histories = {h, *others}
        assert same in histories and len(histories) == 1 + len(others)
        assert len({h, same}) == 1


class TestDistributions:
    def test_canonical_merges_duplicates(self):
        law = canonical([[0, 1.0], [0, 1.0], [1, 0.0]], [0.25, 0.25, 0.5])
        assert law.tolist() == [[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]]

    def test_canonical_sums_in_input_order(self):
        # the tuple form's dict sum, 0.0 + p1 + p2 + ..., bit for bit; -0.0 is 0.0
        probs = [0.1, 0.7, 0.2, 1e-17, 0.3]
        law = canonical([[-0.0], [1.0], [0.0], [-0.0], [1.0]], probs)
        assert law.tolist() == [[0.0, 0.0 + 0.1 + 0.2 + 1e-17], [1.0, 0.0 + 0.7 + 0.3]]
        assert str(law[0, 0]) == "0.0"

    def test_equal_up_to_order(self):
        c1 = canonical([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5])
        c2 = canonical([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        assert same_law(c1, c2)
        assert not same_law(c1, canonical([[0.0, 1.0]], [1.0]))
        # one (1, 4) law and one (2, 2) law hold the same numbers in the same order
        assert not same_law(canonical([[0.0, 0.5, 1.0]], [0.0]), canonical([[0.0], [1.0]],
                                                                             [0.5, 0.0]))

    def test_unequal_probs(self):
        c1 = canonical([[0.0], [1.0]], [0.5, 0.5])
        c2 = canonical([[0.0], [1.0]], [0.4, 0.6])
        assert not same_law(c1, c2)

    def test_tolerance(self):
        c1 = canonical([[0.0]], [1.0])
        c2 = canonical([[1e-13]], [1.0])
        assert same_law(c1, c2, tol=1e-12)
        assert not same_law(c1, c2, tol=1e-14)
        assert same_law(canonical([[0.0]], [1.0 - 0.5 * PROB_TOL]), c1)
        assert not same_law(canonical([[0.0]], [1.0 - 2 * PROB_TOL]), c1)

    def test_nan_key_component_never_equal(self):
        c1 = canonical([[1.0, 0.0]], [1.0])
        c2 = canonical([[float("nan"), 0.0]], [1.0])
        assert not same_law(c1, c2)
        assert not same_law(c2, c1)
        assert not same_law(c2, c2)

    def test_nan_keys_are_not_merged(self):
        nan = float("nan")
        assert canonical([[nan], [nan], [0.0]], [0.25, 0.25, 0.5]).shape == (3, 2)

    def test_nan_probability_never_equal(self):
        c1 = canonical([[1.0, 0.0]], [1.0])
        c2 = canonical([[1.0, 0.0]], [float("nan")])
        assert not same_law(c1, c2)
        assert not same_law(c2, c1)

    def test_empty_laws_are_equal(self):
        empty = canonical([], [])
        assert same_law(empty, canonical(np.zeros((0, 3)), []))
        assert not same_law(empty, canonical([[0.0]], [1.0]))

    KEYS = [0.0, -0.0, 0.5, 1.0, 1.0 + 0.5 * PROB_TOL, 1.0 - 0.5 * PROB_TOL,
            1.0 + 2 * PROB_TOL, 1.0 - 2 * PROB_TOL, float("nan")]

    @staticmethod
    @st.composite
    def law_pair(draw):
        """Two laws over d-column keys: the second a permutation of the first, with rows
        split in two, keys and probabilities moved within or past the tolerance, or
        another law altogether."""
        d = draw(st.integers(1, 3))
        key = st.lists(st.sampled_from(TestDistributions.KEYS), min_size=d, max_size=d)
        prob = st.sampled_from([0.5, 0.25, 0.1, 0.2, 1.0, 0.5 + 0.5 * PROB_TOL,
                                0.5 + 2 * PROB_TOL, float("nan")])
        first = draw(st.lists(st.tuples(key, prob), max_size=5))
        second = draw(st.permutations(first) | st.lists(st.tuples(key, prob), max_size=5))
        if second and draw(st.booleans()):  # one row split in two halves
            (k, p), *rest = second
            second = [*rest, (k, p / 2), (k, p / 2)]
        return d, first, second

    @settings(max_examples=400, deadline=None)
    @given(law_pair())
    def test_matches_the_tuple_form(self, pair):
        d, first, second = pair
        laws = [canonical([k for k, _ in x], [p for _, p in x]) for x in (first, second)]
        tuples = [[(tuple(k), p) for k, p in x] for x in (first, second)]
        assert same_law(*laws) == tuple_laws.distributions_equal(*tuples)
        for law, x in zip(laws, tuples):
            reference = [[*k, p] for k, p in tuple_laws.canonical_distribution(x)]
            nan_key = any(map(np.isnan, np.ravel([k for k, _ in x])))  # merged by identity
            if x and not nan_key:  # every empty law is the same (0, 2) array
                assert np.array_equal(law, reference, equal_nan=True)


class TestFiniteMDP:
    def test_valid_construction(self):
        m = simple_mdp()
        assert m.embedding.shape[1] == 2
        assert m.row(0, 1)[0].next_state == 1 or m.row(0, 1)[0].next_state == 0

    def test_prob_sum_enforced(self):
        bad = ((((Outcome(0, 0.0, 0.5),),) * 2,),)
        with pytest.raises(ValidationError):
            FiniteMDP(num_states=1, num_actions=2, rho0=np.array([1.0]),
                      outcomes=bad[0], embedding=(np.array([0.0]),))

    def test_rho0_must_sum_to_one(self):
        m = simple_mdp()
        with pytest.raises(ValidationError):
            FiniteMDP(num_states=2, num_actions=2, rho0=np.array([0.5, 0.4]),
                      outcomes=m.outcomes, embedding=m.embedding)

    @pytest.mark.parametrize("change, match", [
        ({"num_states": 0}, "num_states and num_actions must be >= 1"),
        ({"rho0": np.array([1.0, 0.0, 0.0])}, re.escape("rho0 must have shape (2,)")),
        ({"outcomes": simple_mdp(3).outcomes}, "one row per state"),
        ({"embedding": ([0.0, 1.0], [np.nan, 0.0])}, "embedding entries must be finite"),
    ], ids=["no-states", "rho0-shape", "row-count", "nan-embedding"])
    def test_malformed_fields_rejected(self, change, match):
        m = simple_mdp()
        fields = dict(num_states=2, num_actions=2, rho0=m.rho0, outcomes=m.outcomes,
                      embedding=m.embedding)
        with pytest.raises(ValidationError, match=match):
            FiniteMDP(**{**fields, **change})

    def test_embedding_injective(self):
        m = simple_mdp()
        with pytest.raises(ValidationError):
            FiniteMDP(num_states=2, num_actions=2, rho0=m.rho0,
                      outcomes=m.outcomes,
                      embedding=(np.array([1.0, 0.0]), np.array([1.0, 0.0])))

    def test_signed_zero_rows_not_injective(self):
        # -0.0 == 0.0, so the two states emit equal observations
        with pytest.raises(ValidationError, match="not injective"):
            FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * 2,
                      embedding=([0.0], [-0.0]))

    def test_first_duplicate_named_with_its_first_twin(self):
        with pytest.raises(ValidationError, match="not injective: states 0 and 2$"):
            FiniteMDP(num_states=3, num_actions=1, rho0=np.array([1.0, 0.0, 0.0]),
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * 3,
                      embedding=([1.0, 2.0], [3.0, 4.0], [1.0, 2.0]))

    def test_row_lookup_built_on_first_match(self):
        m = simple_mdp(3)
        assert "_rows" not in vars(m)
        assert m.match_states([m.embedding[2], [0.0, -0.0, 1.0]]) == [2, 2]
        assert len(vars(m)["_rows"]) == 3

    def test_embedding_is_read_only_matrix(self):
        m = simple_mdp(3)
        assert m.embedding.shape == (3, 3)
        with pytest.raises(ValueError):
            m.embedding[0, 0] = 5.0

    def test_embedding_cannot_be_made_writable(self):
        # a row handed out again is keyed by identity, so its values must never change
        env = make_env("chain:3", max_steps=4)
        for arr in (env.mdp.embedding, env.mdp.embedding[1], env.reset(0)):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True

    @pytest.mark.parametrize("duplicate", [lambda m: pickle.loads(pickle.dumps(m)),
                                           copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_stay_frozen(self, duplicate):
        # pickle and deepcopy restored the fields without __post_init__: a writable embedding
        m = make_chain(3)
        dup = duplicate(m)
        for arr in (dup.embedding, *dup.embedding):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.flags.writeable = True
        assert np.array_equal(dup.rho0, m.rho0) and dup.outcomes == m.outcomes
        assert np.array_equal(dup.embedding, m.embedding)

    def test_embedding_rows_stay_frozen(self):
        env = make_env("chain:3", max_steps=4)
        assert all(frozen(row) for row in env.mdp.embedding)
        obs = env.reset(0)
        assert frozen(obs) and obs is env.reset(1)
        assert frozen(env.step(1)[0])

    def test_next_state_range(self):
        with pytest.raises(ValidationError):
            FiniteMDP(num_states=1, num_actions=1, rho0=np.array([1.0]),
                      outcomes=(((Outcome(3, 0.0, 1.0),),),),
                      embedding=(np.array([0.0]),))

    def test_match_state(self):
        # within EMBED_MATCH_TOL of row 0, and far from both rows
        m = simple_mdp()
        assert m.match_states([[1.0, 1e-10], [0.5, 0.5]]) == [0, None]

    def test_match_state_tie_picks_lowest_index(self):
        m = FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * 2,
                      embedding=([0.0], [2e-10]))
        assert m.match_states([[1e-10]]) == [0]

    def test_match_state_rejects_wrong_shape(self):
        # a (1,) vector used to broadcast against the (2, 2) embedding and match state 1
        m = FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(1, 0.0, 1.0),),), ((Outcome(0, 1.0, 1.0),),)),
                      embedding=([0.0, 0.0], [1.0, 1.0]))
        for vec in ([1.0], [[1.0, 1.0]], np.ones((2, 1))):
            shapes = f"shape {np.shape(vec)} does not match the embedding rows of shape (2,)"
            with pytest.raises(ValidationError, match=re.escape(shapes)):
                m.match_states([vec])
        with pytest.raises(ValidationError, match=re.escape("shape (1,) does not match")):
            as_nmdp_oracle(m, "S^0").transition(initial_history([1.0]), 0)

    def test_reward_support(self):
        assert simple_mdp().reward_support() == [0.0, 1.0]

    @pytest.mark.parametrize("cell, rho0, match", [
        ((Outcome(0, 0.0, float("nan")), Outcome(1, 0.0, 1.0)), [1.0, 0.0],
         "state 1, action 0: non-finite reward or probability"),
        ((Outcome(0, 0.0, float("inf")),), [1.0, 0.0],
         "state 1, action 0: non-finite reward or probability"),
        ((Outcome(0, float("nan"), 1.0),), [1.0, 0.0],
         "state 1, action 0: non-finite reward or probability"),
        ((Outcome(0, float("inf"), 1.0),), [1.0, 0.0],
         "state 1, action 0: non-finite reward or probability"),
        ((Outcome(0, -float("inf"), 1.0),), [1.0, 0.0],
         "state 1, action 0: non-finite reward or probability"),
        ((Outcome(0, 0.0, 1.0),), [float("nan"), 1.0], "rho0 must be a finite probability"),
        ((Outcome(0, 0.0, 1.0),), [float("inf"), 0.0], "rho0 must be a finite probability"),
    ], ids=["nan-prob", "inf-prob", "nan-reward", "inf-reward", "-inf-reward", "nan-rho0",
            "inf-rho0"])
    def test_non_finite_numbers_rejected(self, cell, rho0, match):
        # each of these used to construct, and value iteration returned nan or +-inf
        ok = (Outcome(1, 0.0, 1.0),)
        with pytest.raises(ValidationError, match=re.escape(match)):
            FiniteMDP(num_states=2, num_actions=1, rho0=np.array(rho0),
                      outcomes=((ok,), (cell,)), embedding=([0.0], [1.0]))

    def test_non_integral_next_state_rejected(self):
        with pytest.raises(ValidationError, match="state 0, action 0: next state 0.5 out of range"):
            FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(0.5, 0.0, 1.0),),), ((Outcome(0, 0.0, 1.0),),)),
                      embedding=([0.0], [1.0]))

    @pytest.mark.parametrize("outcomes, message", [
        # a bad cell earlier in row-major order wins over a later one
        ((((Outcome(0, 0.0, 1.0),), (Outcome(0, 0.0, -0.5), Outcome(1, 0.0, 1.5))),
          ((), (Outcome(0, 0.0, 1.0),))),
         "state 0, action 1: negative probability"),
        # within a cell: each outcome's range before the sum
        ((((Outcome(0, 0.0, 0.5), Outcome(7, 0.0, 0.2)), (Outcome(0, 0.0, 1.0),)),
          ((Outcome(0, 0.0, 1.0),), (Outcome(0, 0.0, 1.0),))),
         "state 0, action 0: next state 7 out of range"),
        # outcomes in order: a bad probability before a later out-of-range state
        ((((Outcome(0, 0.0, -1.0), Outcome(7, 0.0, 2.0)), (Outcome(0, 0.0, 1.0),)),
          ((Outcome(0, 0.0, 1.0),), (Outcome(0, 0.0, 1.0),))),
         "state 0, action 0: negative probability"),
        ((((Outcome(0, 0.0, 0.25), Outcome(1, 0.0, 0.25)), (Outcome(0, 0.0, 1.0),)),
          ((Outcome(0, 0.0, 1.0),), (Outcome(0, 0.0, 1.0),))),
         "state 0, action 0: outcome probs sum to 0.5, not 1"),
        # a state with the wrong action count after a bad cell of an earlier state
        ((((Outcome(0, 0.0, 1.0),), ()), ((Outcome(0, 0.0, 1.0),),)),
         "state 0, action 1: empty outcome list"),
        ((((Outcome(0, 0.0, 1.0),),), ((), (Outcome(0, 0.0, 1.0),))),
         "state 0: expected 2 action rows"),
    ], ids=["row-major", "range-before-sum", "outcome-order", "sum", "cell-before-count",
            "count-before-cell"])
    def test_first_bad_cell_reported(self, outcomes, message):
        with pytest.raises(ValidationError) as err:
            FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=outcomes, embedding=([0.0], [1.0]))
        assert str(err.value) == message

    def test_compiled_arrays(self):
        zero = Outcome(1, 2.0, 0.0)  # a real outcome of probability 0 is not padding
        m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(1, 0.5, 0.25), zero, Outcome(0, 1.0, 0.75)),
                                 (Outcome(0, 0.0, 1.0),)),
                                ((Outcome(1, 3.0, 1.0),), (zero, Outcome(0, 0.0, 1.0)))),
                      embedding=([0.0], [1.0]))
        assert m.length.tolist() == [3, 1, 1, 2]
        assert m.next.tolist() == [[1, 1, 0], [0, 0, 0], [1, 0, 0], [1, 0, 0]]
        assert m.reward.tolist() == [[0.5, 2.0, 1.0], [0, 0, 0], [3.0, 0, 0], [2.0, 0, 0]]
        assert m.prob.tolist() == [[0.25, 0.0, 0.75], [1.0, 0, 0], [1.0, 0, 0], [0.0, 1.0, 0]]
        assert m.next.dtype == np.intp
        for arr in (m.next, m.reward, m.prob, m.length):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_equality_and_hash_by_identity(self):
        # the generated __eq__ compared the arrays, whose truth value raised, and the
        # generated __hash__ hashed them
        m, again = make_chain(3), make_chain(3)
        assert m == m and m != again and m in [again, m] and m not in [again]
        assert len({m, again, m}) == 2 and hash(m) == hash(m)
        oracle = as_nmdp_oracle(m, "S^1")
        hm, hm2 = build_markov_abstraction(oracle, 2), build_markov_abstraction(oracle, 2)
        assert hm == hm and hm != hm2 and len({hm, hm2}) == 2


def reference_arrays(m):
    """`next`, `reward`, `prob` and `length` built outcome by outcome, field by field."""
    cells = [cell for row in m.outcomes for cell in row]
    nxt, reward, prob = np.zeros((3, len(cells), max(map(len, cells))))
    for c, cell in enumerate(cells):
        for j, o in enumerate(cell):
            nxt[c, j], reward[c, j], prob[c, j] = o.next_state, o.reward, o.prob
    return nxt.astype(np.intp), reward, prob, np.array(list(map(len, cells)), dtype=np.intp)


def signed_zero_and_int_rewards():
    return FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                     outcomes=(((Outcome(1, -0.0, 0.5), Outcome(0, 2, 0.5)),),
                               ((Outcome(0, 0, 1.0),),)),
                     embedding=([0.0], [1.0]))


def loaded(m, tmp_path):
    save_mdp(m, tmp_path / "m.json")
    return load_mdp(tmp_path / "m.json")


COMPILE_CASES = {
    "chain5": lambda tmp: make_chain(5, 0.2),
    **{f"random{s}": lambda tmp, s=s: make_random_mdp(s, 4, 2, 2) for s in range(5)},
    "chain5-loaded": lambda tmp: loaded(make_chain(5, 0.2), tmp),
    "random3-loaded": lambda tmp: loaded(make_random_mdp(3, 4, 2, 2), tmp),
    "abstraction": lambda tmp: build_markov_abstraction(
        build_nonmarkov_embedding(make_chain(3, 0.25)), 3).mdp,
    "signed-zero-int-reward": lambda tmp: signed_zero_and_int_rewards(),
}


class TestOutcomeCompile:
    @pytest.mark.parametrize("case", COMPILE_CASES)
    def test_arrays_equal_field_by_field_reference(self, case, tmp_path):
        m = COMPILE_CASES[case](tmp_path)
        for got, want in zip((m.next, m.reward, m.prob, m.length), reference_arrays(m)):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())

    def test_signed_zero_and_int_reward_compiled(self):
        m = signed_zero_and_int_rewards()
        assert np.signbit(m.reward[0, 0]) and m.reward[0, 1] == 2.0
        # the support reads the compiled float rows: an int reward comes back as its float
        support = m.reward_support()
        assert support == [0, 2] and np.signbit(support[0]) and set(map(type, support)) == {float}

    def test_outcome_is_a_named_triple(self):
        o = Outcome(next_state=1, reward=0.0, prob=1.0)
        next_state, reward, prob = o
        assert (next_state, reward, prob) == (o.next_state, o.reward, o.prob) == (1, 0.0, 1.0)
        assert o == Outcome(1, 0.0, 1.0) and hash(o) == hash(Outcome(1, 0.0, 1.0))
        assert repr(o) == "Outcome(next_state=1, reward=0.0, prob=1.0)"
        with pytest.raises(AttributeError):
            o.prob = 0.5

    def test_plain_triples_compile_as_outcomes(self):
        m = simple_mdp()
        plain = tuple(tuple(tuple(map(tuple, cell)) for cell in row) for row in m.outcomes)
        again = FiniteMDP(num_states=2, num_actions=2, rho0=m.rho0, outcomes=plain,
                          embedding=m.embedding)
        for name in ("next", "reward", "prob", "length"):
            assert getattr(again, name).tobytes() == getattr(m, name).tobytes()

    @pytest.mark.parametrize("cell", [
        Outcome(0, 0.0, 1 / 3),  # three numbers, not three outcomes of probability 1/3
        Outcome(0, 0.0, 1.0),
        ((0, 1.0),),
        ((0, 0.0, 1.0, 0.0),),
        ("001",),
        (((0, 0.0, 1.0),),),
        (Outcome("0", "0", "1"),),  # numpy asked for floats parsed these, so the
        (Outcome(0, "0", 1.0),),  # compile kept '0' and reward_support() returned ['0']
        (Outcome(0, None, "1"),),  # object tables were reported as non-finite numbers
        (Outcome(0, None, 1.0),),
    ], ids=["bare-outcome-third", "bare-outcome", "pair", "quadruple", "string", "nested",
            "numeric-strings", "string-reward", "none-and-string", "none-reward"])
    def test_entry_that_is_not_a_triple_rejected(self, cell):
        with pytest.raises(ValidationError, match=re.escape(
                "state 0, action 0: each outcome must be a (next_state, reward, prob) triple")):
            FiniteMDP(num_states=1, num_actions=1, rho0=np.array([1.0]),
                      outcomes=((cell,),), embedding=([0.0],))

    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    @pytest.mark.parametrize("slot", ["next_state", "reward", "prob"])
    def test_bool_beside_numbers_rejected(self, flag, slot):
        # numpy's dtype discovery reads a bool beside numbers as 1.0
        outcome = Outcome(0, 0.0, 1.0)._replace(**{slot: flag})
        with pytest.raises(ValidationError, match=re.escape(
                "state 0, action 0: each outcome must be a (next_state, reward, prob) triple")):
            FiniteMDP(1, 1, [1.0], (((outcome,),),), ([0.0],))

    def test_bare_outcome_beside_outcomes_rejected(self):
        # numpy's ValueError about an inhomogeneous shape used to escape here
        with pytest.raises(ValidationError, match=re.escape(
                "state 0, action 1: each outcome must be a (next_state, reward, prob) triple")):
            FiniteMDP(num_states=1, num_actions=2, rho0=np.array([1.0]),
                      outcomes=(((Outcome(0, 0.0, 1.0),), Outcome(0, 0.0, 1.0)),),
                      embedding=([0.0],))

    def test_ints_past_int64_still_compile(self):
        m = FiniteMDP(num_states=1, num_actions=1, rho0=[1.0],
                      outcomes=(((Outcome(0, 2 ** 64, 1.0),),),), embedding=([0.0],))
        assert m.reward[0, 0] == 2.0 ** 64


def nearest_by_distance(m, vec):
    """The max-abs distance rule alone, without the exact-row lookup."""
    d = np.max(np.abs(m.embedding - np.asarray(vec, dtype=float)), axis=1)
    best = int(np.argmin(d))
    return best if d[best] <= EMBED_MATCH_TOL else None


MATCH_EMBEDDINGS = {
    "one-hot": tuple(np.eye(4)),
    "random": tuple(np.random.default_rng(3).normal(size=(6, 3))),
    "within-tol": ([0.0], [2e-10], [-0.5], [1.0]),  # rows 0 and 1 tie within the tolerance
}


def match_inputs(row, rng):
    noise = rng.choice([-1.0, 1.0], size=row.shape) * EMBED_MATCH_TOL
    yield row
    yield np.where(row == 0.0, -0.0, row)
    yield row + 0.5 * noise
    yield row + 2.0 * noise
    yield row.tolist()
    yield row.astype(np.float32)
    yield np.where(row == 0.0, -0.0, row).astype(np.float32).tolist()


class TestMatchStateFastPath:
    @pytest.mark.parametrize("name", sorted(MATCH_EMBEDDINGS))
    def test_agrees_with_distance_rule(self, name):
        emb = MATCH_EMBEDDINGS[name]
        m = FiniteMDP(num_states=len(emb), num_actions=1, rho0=np.eye(len(emb))[0],
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * len(emb), embedding=emb)
        rng = np.random.default_rng(4)
        for s, row in enumerate(m.embedding):
            for k, vec in enumerate(match_inputs(row, rng)):
                assert m.match_states([vec]) == [nearest_by_distance(m, vec)], (s, k)
            assert m.match_states([row, np.where(row == 0.0, -0.0, row)]) == [s, s]

    @pytest.mark.parametrize("name", sorted(MATCH_EMBEDDINGS))
    def test_batch_agrees_with_single(self, name):
        # one stacked call against the distance rule applied to one vector at a time
        emb = MATCH_EMBEDDINGS[name]
        m = FiniteMDP(num_states=len(emb), num_actions=1, rho0=np.eye(len(emb))[0],
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * len(emb), embedding=emb)
        rng = np.random.default_rng(5)
        vecs = [np.asarray(v, dtype=float) for row in m.embedding for v in match_inputs(row, rng)]
        assert m.match_states(vecs) == [nearest_by_distance(m, v) for v in vecs]
        with pytest.raises(ValidationError, match="does not match the embedding rows"):
            m.match_states([np.zeros(m.embedding.shape[1] + 1)] * 2)


class TestDegeneracy:
    def test_identical_rows_degenerate(self):
        row = ((Outcome(0, 0.0, 1.0),), (Outcome(1, 0.0, 1.0),))
        m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=(row, row), embedding=tuple(np.eye(2)))
        assert is_degenerate(m)

    def test_chain_not_degenerate(self):
        assert not is_degenerate(simple_mdp(3))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_pairwise_rule(self, seed):
        """Bucketing agrees with comparing every pair of states, on copied rows
        that are reordered, split or moved by 0.5x or 2x PROB_TOL."""
        rng = np.random.default_rng(seed)
        n, k = 6, 2
        m = make_random_mdp(seed, n, k, 3)
        rows = [list(r) for r in m.outcomes]
        for s in range(1, n):
            if rng.random() < 0.6:
                src = int(rng.integers(s))
                rows[s] = [perturbed(lst, rng) for lst in rows[src]]
        m = FiniteMDP(num_states=n, num_actions=k, rho0=m.rho0,
                      outcomes=tuple(tuple(r) for r in rows), embedding=m.embedding)
        assert is_degenerate(m) == pairwise_degenerate(m)

    def test_tolerance_edges(self):
        base = (Outcome(0, 0.0, 0.5), Outcome(1, 1.0, 0.5))
        for shift, expected in ((0.5 * PROB_TOL, True), (2 * PROB_TOL, False)):
            for other in ((Outcome(0, shift, 0.5), Outcome(1, 1.0, 0.5)),
                          (Outcome(0, 0.0, 0.5 + shift), Outcome(1, 1.0, 0.5 - shift)),
                          (Outcome(1, 1.0 - shift, 0.5), Outcome(0, 0.0, 0.5))):
                m = FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                              outcomes=((base,), (other,)), embedding=([0.0], [1.0]))
                assert is_degenerate(m) == pairwise_degenerate(m) == expected


def test_degenerate_rows_split_by_action():
    # the two states list next states 0, 1, 1 with equal rewards and probabilities in
    # order, but action 0 of state 0 has two outcomes where state 1's has one
    zero, one = Outcome(1, 0.0, 0.0), Outcome(1, 1.0, 1.0)
    m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                  outcomes=(((Outcome(0, 0.0, 1.0), zero), (one,)),
                            ((Outcome(0, 0.0, 1.0),), (zero, one))),
                  embedding=([0.0], [1.0]))
    assert not is_degenerate(m) and not pairwise_degenerate(m)


def perturbed(lst, rng):
    """The outcome list reordered, with one outcome split in two, or with a
    reward or a pair of probabilities moved by 0.5x or 2x PROB_TOL."""
    lst = list(lst)
    kind = int(rng.integers(4))
    shift = PROB_TOL * float(rng.choice([0.5, 2.0]))
    if kind == 0:
        lst = [lst[i] for i in rng.permutation(len(lst))]
    elif kind == 1:
        o = lst.pop(0)
        lst += [Outcome(o.next_state, o.reward, o.prob / 2)] * 2
    elif kind == 2:
        o = lst[0]
        lst[0] = Outcome(o.next_state, o.reward + shift, o.prob)
    elif len(lst) > 1:
        lst[0] = Outcome(lst[0].next_state, lst[0].reward, lst[0].prob + shift)
        lst[1] = Outcome(lst[1].next_state, lst[1].reward, lst[1].prob - shift)
    return tuple(lst)


def pairwise_degenerate(m):
    """The O(S^2) rule: some pair of distinct states has equal rows for every action."""
    rows = [[[((o.next_state, o.reward), o.prob) for o in lst] for lst in per_action]
            for per_action in m.outcomes]
    return any(all(map(tuple_laws.distributions_equal, rows[i], rows[j]))
               for i in range(m.num_states) for j in range(i + 1, m.num_states))


class TestJson:
    def test_roundtrip(self, tmp_path):
        m = simple_mdp(3)
        path = str(tmp_path / "m.json")
        save_mdp(m, path)
        m2 = load_mdp(path)
        assert m2.num_states == m.num_states
        assert mdp_to_json(m2) == mdp_to_json(m)

    def test_missing_field(self):
        with pytest.raises(ValidationError, match="missing field"):
            mdp_from_dict({"num_states": 1})

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "num_states": 1,\n broken\n}')
        with pytest.raises(ValidationError, match="line 3"):
            load_mdp(str(path))

    def test_ragged_embedding(self):
        data = mdp_to_json(simple_mdp())
        data["embedding"] = [[1.0, 0.0], [1.0]]
        with pytest.raises(ValidationError, match="embedding"):
            mdp_from_dict(data)

    @pytest.mark.parametrize("where, value, message", [
        (("outcomes", 2, 1, 0, "reward"), "1",
         "outcomes: malformed outcome entry (state 2, action 1, outcome 0: "
         "reward: non-number '1')"),
        (("outcomes", 2, 1, 0, "prob"), True,
         "outcomes: malformed outcome entry (state 2, action 1, outcome 0: "
         "prob: non-number True)"),
        (("rho0", 0), "1", "rho0: malformed value (non-number '1')"),
        (("rho0", 1), False, "rho0: malformed value (non-number False)"),
        (("embedding", 1, 0), "0", "embedding: malformed value (non-number '0')"),
        (("embedding", 0, 0), True, "embedding: malformed value (non-number True)"),
    ], ids=["string-reward", "bool-prob", "string-rho0", "bool-rho0", "string-embedding",
            "bool-embedding"])
    def test_numbers_must_be_json_numbers(self, where, value, message):
        # float() and numpy turned "1" and true into 1.0 without a word
        data = mdp_to_json(simple_mdp(3))
        target = data
        for key in where[:-1]:
            target = target[key]
        target[where[-1]] = value
        with pytest.raises(ValidationError, match=re.escape(f"<dict>: {message}")):
            mdp_from_dict(data)

    @pytest.mark.parametrize("value", [1.7, True, "1", None, float("inf")])
    def test_next_state_must_be_integer(self, value):
        # int() used to turn 1.7 and true into 1 without a word
        data = mdp_to_json(simple_mdp(3))
        data["outcomes"][2][1][0]["next"] = value
        expected = f"<dict>: outcomes: malformed outcome entry (state 2, action 1, outcome 0: "
        with pytest.raises(ValidationError, match=re.escape(expected)):
            mdp_from_dict(data)

    @pytest.mark.parametrize("field", ["next", "embedding"])
    def test_int_past_float_range(self, field):
        data = mdp_to_json(simple_mdp(3))
        if field == "next":
            data["outcomes"][2][1][0]["next"] = 10 ** 400
        else:
            data["embedding"][1][0] = 10 ** 400
        with pytest.raises(ValidationError, match="too large"):
            mdp_from_dict(data)

    def test_integral_float_next_state_accepted(self):
        data = mdp_to_json(simple_mdp(3))
        data["outcomes"][2][1][0]["next"] = 1.0
        m = mdp_from_dict(data)
        assert m.row(2, 1)[0].next_state == 1 and type(m.row(2, 1)[0].next_state) is int

    @pytest.mark.parametrize("field, value", [("num_actions", 2.9), ("num_states", "3"),
                                              ("num_states", 2.7), ("num_actions", True),
                                              ("num_states", None), ("num_actions", [2])])
    def test_counts_must_be_integers(self, field, value):
        # int() used to load 2.9 actions as 2 and "3" states as 3 without a word
        data = mdp_to_json(simple_mdp(3))
        data[field] = value
        with pytest.raises(ValidationError,
                           match=re.escape(f"<dict>: {field}: malformed value (non-integer")):
            mdp_from_dict(data)

    def test_integral_float_counts_accepted(self):
        data = mdp_to_json(simple_mdp(3))
        data["num_states"], data["num_actions"] = 3.0, 2.0
        m = mdp_from_dict(data)
        assert (m.num_states, m.num_actions) == (3, 2) and type(m.num_states) is int

    def test_invalid_content(self, tmp_path):
        m = simple_mdp()
        data = mdp_to_json(m)
        data["rho0"] = [0.5, 0.4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError):
            load_mdp(str(path))
