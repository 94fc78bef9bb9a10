import json
import re

import numpy as np
import pytest

from nonmarkov.core import (
    EMBED_MATCH_TOL,
    FiniteMDP,
    History,
    Outcome,
    ValidationError,
    as_state,
    canonical_distribution,
    distributions_equal,
    initial_history,
    is_degenerate,
    load_mdp,
    mdp_from_dict,
    mdp_to_json,
    save_mdp,
)
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


class TestDistributions:
    def test_canonical_merges_duplicates(self):
        d = canonical_distribution([((0, 1.0), 0.25), ((0, 1.0), 0.25), ((1, 0.0), 0.5)])
        assert d == (((0, 1.0), 0.5), ((1, 0.0), 0.5))

    def test_equal_up_to_order(self):
        d1 = [((0.0, 1.0), 0.5), ((1.0, 0.0), 0.5)]
        d2 = [((1.0, 0.0), 0.5), ((0.0, 1.0), 0.5)]
        assert distributions_equal(d1, d2)

    def test_unequal_probs(self):
        d1 = [((0.0,), 0.5), ((1.0,), 0.5)]
        d2 = [((0.0,), 0.4), ((1.0,), 0.6)]
        assert not distributions_equal(d1, d2)

    def test_tolerance(self):
        d1 = [((0.0,), 1.0)]
        d2 = [((1e-13,), 1.0)]
        assert distributions_equal(d1, d2, tol=1e-12)
        assert not distributions_equal(d1, d2, tol=1e-14)

    def test_nan_key_component_never_equal(self):
        d1 = [((1.0, 0.0), 1.0)]
        d2 = [((float("nan"), 0.0), 1.0)]
        assert not distributions_equal(d1, d2)
        assert not distributions_equal(d2, d1)
        assert not distributions_equal(d2, d2)

    def test_nan_probability_never_equal(self):
        d1 = [((1.0, 0.0), 1.0)]
        d2 = [((1.0, 0.0), float("nan"))]
        assert not distributions_equal(d1, d2)
        assert not distributions_equal(d2, d1)


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

    def test_embedding_is_read_only_matrix(self):
        m = simple_mdp(3)
        assert m.embedding.shape == (3, 3)
        with pytest.raises(ValueError):
            m.embedding[0, 0] = 5.0

    def test_next_state_range(self):
        with pytest.raises(ValidationError):
            FiniteMDP(num_states=1, num_actions=1, rho0=np.array([1.0]),
                      outcomes=(((Outcome(3, 0.0, 1.0),),),),
                      embedding=(np.array([0.0]),))

    def test_match_state(self):
        m = simple_mdp()
        assert m.match_state([1.0, 1e-10]) == 0
        assert m.match_state([0.5, 0.5]) is None

    def test_match_state_tie_picks_lowest_index(self):
        m = FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(0, 0.0, 1.0),),),) * 2,
                      embedding=([0.0], [2e-10]))
        assert m.match_state([1e-10]) == 0

    def test_match_state_rejects_wrong_shape(self):
        # a (1,) vector used to broadcast against the (2, 2) embedding and match state 1
        m = FiniteMDP(num_states=2, num_actions=1, rho0=np.array([1.0, 0.0]),
                      outcomes=(((Outcome(1, 0.0, 1.0),),), ((Outcome(0, 1.0, 1.0),),)),
                      embedding=([0.0, 0.0], [1.0, 1.0]))
        for vec in ([1.0], [[1.0, 1.0]], np.ones((2, 1))):
            shapes = f"shape {np.shape(vec)} does not match the embedding rows of shape (2,)"
            with pytest.raises(ValidationError, match=re.escape(shapes)):
                m.match_state(vec)
        with pytest.raises(ValidationError, match=re.escape("shape (1,) does not match")):
            as_nmdp_oracle(m, "S^0").transition(initial_history([1.0]), 0)

    def test_reward_support(self):
        assert simple_mdp().reward_support() == [0.0, 1.0]


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
                assert m.match_state(vec) == nearest_by_distance(m, vec), (s, k)
            assert m.match_state(row) == s
            assert m.match_state(np.where(row == 0.0, -0.0, row)) == s


class TestDegeneracy:
    def test_identical_rows_degenerate(self):
        row = ((Outcome(0, 0.0, 1.0),), (Outcome(1, 0.0, 1.0),))
        m = FiniteMDP(num_states=2, num_actions=2, rho0=np.array([1.0, 0.0]),
                      outcomes=(row, row), embedding=tuple(np.eye(2)))
        assert is_degenerate(m)

    def test_chain_not_degenerate(self):
        assert not is_degenerate(simple_mdp(3))


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

    def test_invalid_content(self, tmp_path):
        m = simple_mdp()
        data = mdp_to_json(m)
        data["rho0"] = [0.5, 0.4]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValidationError):
            load_mdp(str(path))
