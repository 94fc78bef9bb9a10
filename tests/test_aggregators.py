import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonmarkov import aggregators
from nonmarkov.aggregators import (
    Filter,
    Kernel,
    NonInvertibleKernelError,
    band_kernel,
    compose_kernels,
    corr_spec,
    damp_spec,
    geometric_kernel,
    group_power_spec,
    har_aggregate,
    har_decode,
    identity_spec,
    invert_kernel,
    parse_har_spec,
    parse_spec,
    smooth_spec,
)
from nonmarkov.analysis import analytical_dependency
from nonmarkov.core import FiniteMDP, Outcome, ValidationError, as_state, frozen
from nonmarkov.wrappers import AggregatedMDPOracle

ALGEBRA_TOL = 1e-9
ROUNDTRIP_TOL = 1e-6


# -- independent oracles -------------------------------------------------------

def brute_prefix_sums(traj):
    return [np.sum(traj[: i + 1], axis=0) for i in range(len(traj))]


def toeplitz_matrix(coeffs, n):
    """Lower-triangular Toeplitz matrix T with T[i, j] = w_{i-j}."""
    return np.array([[coeffs[i - j] if i >= j else 0.0 for j in range(n)] for i in range(n)])


def corr_direct(weights, traj):
    """g_t = sum_{tau<=t} w_tau * s_tau, summed term by term."""
    return [sum(weights[tau] * traj[tau] for tau in range(t + 1)) for t in range(len(traj))]


def trajectories(max_dim=4, max_len=16):
    return st.integers(1, max_dim).flatmap(
        lambda k: st.lists(
            st.lists(st.floats(-10, 10, allow_nan=False), min_size=k, max_size=k),
            min_size=1, max_size=max_len,
        )
    ).map(lambda rows: np.array(rows, dtype=float))


def stream(step, spec, xs):
    """Outputs of `step` (spec.push or spec.pull) over xs from `spec.begin()`."""
    state, out = spec.begin(), []
    for x in xs:
        state, y = step(state, x)
        out.append(y)
    return out


def stream_push(spec, traj):
    return stream(spec.push, spec, traj)


def stream_pull(spec, aggs):
    return stream(spec.pull, spec, aggs)


def assert_projects(spec, traj, aggs, tol=ALGEBRA_TOL):
    """After pulling g_0..g_{t-1}, pushing s_t emits g_t (the oracle's projection of a
    next raw state) and pulling it gives s_t back."""
    state = spec.begin()
    for s, g in zip(traj, aggs):
        assert np.allclose(spec.push(state, s)[1], g, atol=tol)
        state, back = spec.pull(state, g)
        assert np.allclose(back, s, atol=tol)


def assert_values(spec, traj, aggs):
    """push and pull give equal bytes and equal, equally hashed states when called
    twice on one state, and every output is read-only."""
    state = spec.begin()
    for s, g in zip(traj, aggs):
        outputs = []
        for step, x in ((spec.push, s), (spec.pull, g)):
            (n1, y1), (n2, y2) = step(state, x), step(state, x)
            assert n1 == n2 and hash(n1) == hash(n2) and y1.tobytes() == y2.tobytes()
            outputs += [y1, y2]
        assert not any(y.flags.writeable for y in outputs)
        state = spec.push(state, s)[0]


# -- random specs from the wrapper grammar --------------------------------------

PROPERTY_MAX_LEN = 16
unit = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def conv_atoms(draw):
    head = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    tail = draw(st.lists(st.floats(-1.0, 1.0), max_size=3))
    total = sum(abs(c) for c in tail)
    if total > 0:  # head-dominant: the decoder is a stable recursion
        tail = [c * 0.8 * abs(head) / max(total, 0.8 * abs(head)) for c in tail]
    return "conv:" + ",".join(repr(c) for c in (head, *tail))


atoms = st.one_of(
    st.just("id"),
    st.integers(0, 3).map(lambda n: f"S^{n}"),
    st.integers(0, 2).map(lambda n: f"D^{n}"),
    unit.map(lambda x: f"S_l:{x!r}"),
    unit.map(lambda x: f"D_l:{x!r}"),
    conv_atoms(),
    st.lists(st.floats(0.5, 1.5), min_size=PROPERTY_MAX_LEN, max_size=PROPERTY_MAX_LEN)
    .map(lambda ws: "corr:" + ",".join(repr(w) for w in ws)),
)
specs = st.lists(atoms, min_size=1, max_size=3).map("+".join)


@settings(max_examples=150, deadline=None)
@given(specs, trajectories(max_dim=3, max_len=PROPERTY_MAX_LEN))
def test_streaming_and_batch_paths_agree(text, traj):
    spec = parse_spec(text)
    aggs = spec.aggregate(traj)
    assert aggs.shape == traj.shape
    assert np.allclose(aggs, stream_push(spec, traj), atol=ALGEBRA_TOL)
    assert np.max(np.abs(spec.decode(aggs) - traj)) <= ROUNDTRIP_TOL
    assert np.max(np.abs(np.array(stream_pull(spec, aggs)) - traj)) <= ROUNDTRIP_TOL
    assert_projects(spec, traj, aggs)
    assert_values(spec, traj, aggs)


# -- kernels ---------------------------------------------------------------------

class TestKernel:
    def test_band_coeff_zero_beyond_band(self):
        w = band_kernel(1.0, -0.5)
        assert list(w.coeffs_upto(6)) == [1.0, -0.5, 0.0, 0.0, 0.0, 0.0]

    def test_geometric_coeff(self):
        w = geometric_kernel(2.0, 0.5)
        assert list(w.coeffs_upto(3)) == [2.0, 1.0, 0.5]

    def test_zero_head_rejected(self):
        with pytest.raises(NonInvertibleKernelError):
            band_kernel(0.0, 1.0)
        with pytest.raises(NonInvertibleKernelError):
            band_kernel(1e-10, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"b": (np.nan,)}, {"b": (1.0, np.inf)}, {"b": (1.0,), "a": (1.0, -np.inf)},
        {"b": (1.0,), "a": (1.0, -1.0), "gain": (1.0, np.nan)},
    ])
    def test_non_finite_coefficient_rejected(self, kwargs):
        with pytest.raises(ValidationError, match="finite"):
            Filter(**kwargs)

    def test_geometric_ratio_bound(self):
        with pytest.raises(ValidationError):
            geometric_kernel(1.0, 1.5)

    def test_negative_length_rejected(self):
        w = parse_spec("S^2")
        assert len(w.coeffs_upto(8)) == 8  # a warm series must not answer w[:-3]
        with pytest.raises(ValidationError, match="length must be >= 0, got -3"):
            w.coeffs_upto(-3)
        assert len(w.coeffs_upto(0)) == 0


class TestInvertKernel:
    def test_difference_inverts_to_ones(self):
        assert invert_kernel(band_kernel(1.0, -1.0), 32) == [1.0] * 32

    def test_damped_difference_inverts_to_geometric(self):
        lam = 0.7
        inv = invert_kernel(band_kernel(1.0, -lam), 16)
        expected = [lam ** n for n in range(16)]
        assert np.allclose(inv, expected, atol=ALGEBRA_TOL)

    def test_matches_linear_solve(self):
        # independent oracle: first column of the Toeplitz matrix inverse
        rng = np.random.default_rng(7)
        for _ in range(20):
            coeffs = rng.uniform(-1, 1, size=rng.integers(1, 5))
            coeffs[0] = rng.uniform(0.5, 2.0)
            w = Kernel(coeffs=tuple(coeffs))
            n = 12
            T = toeplitz_matrix(np.pad(coeffs, (0, n)), n)
            e0 = np.zeros(n)
            e0[0] = 1.0
            expected = np.linalg.solve(T, e0)
            assert np.allclose(invert_kernel(w, n), expected, atol=ALGEBRA_TOL)

    def test_double_inversion(self):
        w = band_kernel(1.5, -0.4, 0.2)
        inv = invert_kernel(w, 24)
        back = invert_kernel(Kernel(coeffs=tuple(inv)), 24)
        assert np.allclose(back[:3], w.coeffs, atol=1e-8)
        assert np.allclose(back[3:], 0.0, atol=1e-8)

    def test_identity_is_self_inverse(self):
        assert invert_kernel(band_kernel(1.0), 8) == [1.0] + [0.0] * 7


class TestComposeKernels:
    def test_ones_times_difference_is_identity(self):
        # exact: (1 / (1 - z)) (1 - z) has no truncation boundary
        ones = geometric_kernel(1.0, 1.0)
        c = compose_kernels(ones, band_kernel(1.0, -1.0), truncate=16)
        assert list(c.coeffs_upto(256)) == [1.0] + [0.0] * 255

    def test_band_band_exact(self):
        c = compose_kernels(band_kernel(1.0, 2.0), band_kernel(1.0, -1.0))
        assert c.coeffs == (1.0, 1.0, -2.0)
        assert c.a == (1.0,)

    def test_matches_matrix_product(self):
        c1, c2 = (1.0, 0.3, -0.2), (2.0, -0.5)
        n = 8
        prod = toeplitz_matrix(np.pad(c1, (0, n)), n) @ toeplitz_matrix(np.pad(c2, (0, n)), n)
        c = compose_kernels(band_kernel(*c1), band_kernel(*c2))
        assert np.allclose(c.coeffs_upto(n), prod[:, 0], atol=ALGEBRA_TOL)


# -- families ---------------------------------------------------------------------

class TestGroup:
    @settings(max_examples=60, deadline=None)
    @given(trajectories())
    def test_roundtrip(self, traj):
        spec = group_power_spec(1)
        back = spec.decode(spec.aggregate(traj))
        assert np.max(np.abs(back - traj)) <= ROUNDTRIP_TOL

    @settings(max_examples=40, deadline=None)
    @given(trajectories())
    def test_batch_matches_brute_force(self, traj):
        aggs = group_power_spec(1).aggregate(traj)
        assert np.allclose(aggs, brute_prefix_sums(traj), atol=ALGEBRA_TOL)

    @settings(max_examples=40, deadline=None)
    @given(trajectories())
    def test_batch_matches_incremental(self, traj):
        spec = group_power_spec(1)
        inc = stream_push(spec, traj)
        assert np.allclose(spec.aggregate(traj), inc, atol=ALGEBRA_TOL)
        assert np.allclose(stream_pull(spec, inc), traj, atol=ROUNDTRIP_TOL)

    def test_project(self):
        spec = group_power_spec(1)
        state = spec.pull(spec.begin(), np.array([1.0]))[0]
        g = spec.push(state, np.array([2.0]))[1]
        assert g[0] == 3.0
        assert spec.pull(state, g)[1][0] == 2.0


# (kernel, its coefficients w_0..w_31 written out independently of the filter)
KERNELS = [
    (band_kernel(*c), np.pad(c, (0, 32 - len(c))))
    for c in ((1.0, -1.0), (1.0, -0.5), (2.0, 0.3, -0.1), (1.0,))
] + [
    (geometric_kernel(first, ratio), first * ratio ** np.arange(32.0))
    for first, ratio in ((1.0, 0.5), (1.0, 1.0), (2.0, -0.3))
]


class TestConv:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_roundtrip(self, kernel):
        w, _ = kernel
        rng = np.random.default_rng(3)
        traj = rng.uniform(-1, 1, size=(20, 3))
        back = w.decode(w.aggregate(traj))
        assert np.max(np.abs(back - traj)) <= ROUNDTRIP_TOL

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_matches_matrix_multiply(self, kernel):
        w, coeffs = kernel
        rng = np.random.default_rng(4)
        traj = rng.uniform(-1, 1, size=(12, 2))
        expected = toeplitz_matrix(coeffs, 12) @ traj
        assert np.allclose(w.aggregate(traj), expected, atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_batch_matches_incremental(self, kernel):
        w, _ = kernel
        rng = np.random.default_rng(5)
        traj = rng.uniform(-1, 1, size=(15, 2))
        assert np.allclose(w.aggregate(traj), stream_push(w, traj), atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_project_consistency(self, kernel):
        # push(s) must emit exactly the aggregate that pull would decode to s
        w, _ = kernel
        rng = np.random.default_rng(6)
        traj = rng.uniform(-1, 1, size=(8, 2))
        assert_projects(w, traj, w.aggregate(traj))


class TestCorr:
    def test_roundtrip(self):
        spec = corr_spec((1.0, 2.0, 3.0, 0.5, -1.0))
        rng = np.random.default_rng(8)
        traj = rng.uniform(-1, 1, size=(5, 2))
        aggs = spec.aggregate(traj)
        assert np.allclose(spec.decode(aggs), traj, atol=ROUNDTRIP_TOL)
        assert np.allclose(stream_pull(spec, aggs), traj, atol=ROUNDTRIP_TOL)

    def test_matches_direct_formula(self):
        weights = (1.0, 2.0, 3.0)
        traj = np.array([[1.0], [10.0], [100.0]])
        expected = [1.0, 21.0, 321.0]
        assert np.allclose(corr_direct(weights, traj), np.array(expected)[:, None])
        spec = corr_spec(weights)
        assert np.allclose(spec.aggregate(traj)[:, 0], expected)
        assert np.allclose([g[0] for g in stream_push(spec, traj)], expected)
        rng = np.random.default_rng(16)
        weights, traj = rng.uniform(0.5, 1.5, size=9), rng.uniform(-1, 1, size=(9, 3))
        assert np.allclose(corr_spec(weights).aggregate(traj), corr_direct(weights, traj),
                           atol=ALGEBRA_TOL)

    def test_all_ones_matches_group(self):
        rng = np.random.default_rng(9)
        traj = rng.uniform(-1, 1, size=(6, 2))
        assert np.allclose(corr_spec((1.0,) * 6).aggregate(traj),
                           group_power_spec(1).aggregate(traj))

    def test_weight_exhaustion(self):
        spec = corr_spec((1.0, 2.0))
        state = spec.begin()
        for _ in range(2):
            state = spec.push(state, np.array([1.0]))[0]
        with pytest.raises(ValidationError, match="exhausted at t=2"):
            spec.push(state, np.array([1.0]))
        with pytest.raises(ValidationError, match="exhausted at t=2"):
            corr_spec((1.0, 2.0)).aggregate(np.ones((3, 1)))

    def test_zero_weight_rejected(self):
        spec = corr_spec((1.0, 0.0))
        state = spec.push(spec.begin(), np.array([1.0]))[0]
        with pytest.raises(NonInvertibleKernelError):
            spec.push(state, np.array([1.0]))
        with pytest.raises(NonInvertibleKernelError):
            spec.decode(np.ones((2, 1)))

    def test_project(self):
        spec = corr_spec((1.0, 2.0))
        state = spec.pull(spec.begin(), np.array([3.0]))[0]
        g = spec.push(state, np.array([5.0]))[1]
        assert g[0] == 3.0 + 2.0 * 5.0
        assert np.allclose(spec.pull(state, g)[1], [5.0])

    @pytest.mark.parametrize("method", ["aggregate", "decode"])
    def test_small_weight_reported_before_exhaustion(self, method):
        with pytest.raises(NonInvertibleKernelError, match=r"weight w_1 below"):
            getattr(corr_spec((1.0, 1e-12, 1.0)), method)(np.ones((5, 1)))

    @pytest.mark.parametrize("method", ["aggregate", "decode"])
    def test_batch_names_exhausted_length(self, method):
        with pytest.raises(ValidationError, match=r"length 2 exhausted at t=2") as info:
            getattr(corr_spec((1.0, 2.0)), method)(np.ones((3, 1)))
        assert info.type is ValidationError


MEMO_WEIGHTS = "corr:" + ",".join(
    repr(w) for w in np.random.default_rng(21).uniform(0.5, 1.5, size=40).tolist())
MEMO_SPECS = {text: text for text in ("S^1", "S^3", "D^3", "S_l:0.5", "D_l:0.8",
                                      "conv:1,-0.5,0.25,-0.125", "S^1+D_l:0.8")}
MEMO_SPECS.update({"corr": MEMO_WEIGHTS, "S^1+corr+S_l:0.5": f"S^1+{MEMO_WEIGHTS}+S_l:0.5"})


GOLDEN_SPECS = ("id", "S^1", "S^3", "D^2", "S_l:0.5", "D_l:0.8", "conv:2,1",
                "conv:1.5,-0.4,0.2", "conv:-0.7,0.3", MEMO_WEIGHTS, "S^1+D_l:0.8",
                "S_l:0.9+D^1", "conv:2,1+S^2", f"S^1+{MEMO_WEIGHTS}+S_l:0.5")


def test_remember_stores_below_the_cap_or_over_a_held_key(monkeypatch):
    monkeypatch.setattr(aggregators, "NODE_CAP", 2)  # read at call time
    memo, value = {}, object()
    assert aggregators.remember(memo, "a", 1) == 1 and aggregators.remember(memo, "b", 2) == 2
    assert aggregators.remember(memo, "c", value) is value  # returned, not stored
    assert aggregators.remember(memo, "a", 3) == 3  # a held key is overwritten
    assert memo == {"a": 3, "b": 2}


@pytest.fixture
def series_memo(monkeypatch):
    """An empty series memo for the test, whatever earlier tests left in it."""
    monkeypatch.setattr(aggregators, "_SERIES", {})
    return aggregators._SERIES


class TestBatchKernelMemo:
    """One memo keeps the longest series a/b of each (num, den) pair for every
    filter and kernel reader; reusing it must not change a single output bit."""

    def test_golden_digest(self):
        # batch aggregate/decode bytes and analytical weights over FIR, IIR, corr,
        # chains and a head != 1; the lengths grow, shrink and repeat per spec
        digest = hashlib.sha256()
        rng = np.random.default_rng(25)
        for text in GOLDEN_SPECS:
            spec = parse_spec(text)
            for n in (7, 1, 16, 3, 40, 2):
                x = rng.uniform(-1.0, 1.0, size=(n, 2))
                g = spec.aggregate(x)
                for arr in (g, spec.decode(g), spec.decode(x)):
                    digest.update(arr.tobytes())
                if spec.then is None:
                    weights = analytical_dependency(spec, n - 1).weights
                    digest.update(repr(sorted(weights.items())).encode())
        assert digest.hexdigest() == (
            "acd4d3e37f03ead20820df747099ada38bfa2769985d1de0b77a2ce1846820a2")

    @pytest.mark.parametrize("num, den", [((1.0,), (1.0, -2.0, 1.0)), ((1.0, -0.5), (1.0,)),
                                          ((2.0, 1.0), (1.0, -0.9)), ((1.0, 0.3), (2.0, 1.0))])
    def test_short_then_long_matches_one_long(self, num, den, series_memo):
        for n in (3, 10, 7, 25, 0, 12):
            short = aggregators._series(num, den, n)
        assert len(short) == 12 and len(series_memo[num, den]) == 25
        long = aggregators._series(num, den, 25)
        series_memo.clear()
        assert long.tobytes() == aggregators._series(num, den, 25).tobytes()
        assert short.tobytes() == long[:12].tobytes()

    def test_memo_is_bounded(self, series_memo, monkeypatch):
        monkeypatch.setattr(aggregators, "NODE_CAP", 4)
        pairs = [((1.0,), (1.0, -lam)) for lam in np.linspace(0.1, 0.9, 9).tolist()]
        first = [aggregators._series(num, den, 6) for num, den in pairs]
        assert list(series_memo) == pairs[:4]
        longer = aggregators._series(*pairs[0], 9)  # a stored pair still grows
        assert len(series_memo[pairs[0]]) == 9 and len(series_memo) == 4
        series_memo.clear()
        monkeypatch.setattr(aggregators, "NODE_CAP", 64)
        for (num, den), w in zip(pairs, first):
            assert w.tobytes() == aggregators._series(num, den, 6).tobytes()
        assert longer[:6].tobytes() == first[0].tobytes()

    @pytest.mark.parametrize("name", MEMO_SPECS)
    def test_warm_filter_matches_fresh(self, name):
        text = MEMO_SPECS[name]
        warm = parse_spec(text)
        rng = np.random.default_rng(22)
        for n in (5, 20, 12, 20, 3, 33, 40):  # grows, shrinks and repeats
            x = rng.uniform(-1.0, 1.0, size=(n, 2))
            g = warm.aggregate(x)
            assert g.tobytes() == parse_spec(text).aggregate(x).tobytes()
            assert warm.decode(g).tobytes() == parse_spec(text).decode(g).tobytes()
            assert warm.decode(x).tobytes() == parse_spec(text).decode(x).tobytes()

    @pytest.mark.parametrize("text", ["sum", "conv:1,-0.5"])
    def test_warm_reward_filter_matches_fresh(self, text):
        warm = parse_har_spec(text)
        rng = np.random.default_rng(23)
        for n in (7, 30, 4, 30):
            r = list(rng.uniform(-1.0, 1.0, size=n))
            g = har_aggregate(warm, r)
            assert g == har_aggregate(parse_har_spec(text), r)
            assert har_decode(warm, g) == har_decode(parse_har_spec(text), g)

    @pytest.mark.parametrize("method", ["aggregate", "decode"])
    @pytest.mark.parametrize("rows, message", [([1.0, 2.0], "nonempty \\(T, k\\) array"),
                                               ([[1.0], [np.nan]], "must be finite"),
                                               ([[1.0], [np.inf]], "must be finite")])
    def test_malformed_batch_rejected(self, method, rows, message):
        with pytest.raises(ValidationError, match=message):
            getattr(parse_spec("S^1"), method)(rows)

    def test_stored_kernel_is_read_only(self, series_memo):
        spec = parse_spec("S_l:0.5+D^1")  # both b and a have two coefficients
        spec.decode(spec.aggregate(np.ones((6, 1))))
        assert set(series_memo) == {(spec.b, spec.a), (spec.a, spec.b)}  # one per direction
        for (num, den), stored in series_memo.items():
            for w in (stored, aggregators._series(num, den, 3)):
                with pytest.raises(ValueError):
                    w[-1] = 5.0
        with pytest.raises(ValueError):
            spec.coeffs_upto(3)[0] = 5.0

    @pytest.mark.parametrize("name", ["S^2", "S_l:0.5+D^1", "corr"])
    def test_streams_of_warm_filter_match_fresh(self, name, series_memo):
        text = MEMO_SPECS.get(name, name)
        warm, fresh = parse_spec(text), parse_spec(text)
        traj = np.random.default_rng(24).uniform(-1.0, 1.0, size=(12, 3))
        warm.decode(warm.aggregate(traj[:10]))
        assert len(series_memo[warm.b, warm.a]) == 10  # kept in the memo, not the filter
        a, b = warm.begin(), fresh.begin()
        for s in traj:
            (a, ga), (b, gb) = warm.push(a, s), fresh.push(b, s)
            assert ga.tobytes() == gb.tobytes() and a == b


class TestPoly:
    def test_trailing_zeros_dropped(self):
        f = Filter((2.0, 1.0, 0.0, -0.0), (1.0, -0.0))
        assert f.b == (2.0, 1.0) and f.a == (1.0,)
        assert all(type(c) is float for c in f.b + f.a)

    @pytest.mark.parametrize("b, message", [((1.0, np.nan, 0.0), "must be finite"),
                                            ((1.0, np.inf), "must be finite"),
                                            ((0.0, -0.0), "nonzero coefficient"),
                                            ((), "nonzero coefficient")])
    def test_rejects(self, b, message):
        with pytest.raises(ValidationError, match=message):
            Filter(b)


# -- the interned transducer of the oracle's decoder ----------------------------

TRANSDUCER_CORR = "corr:" + ",".join(str(1 + t % 3) for t in range(8))
PULL_SPECS = {text: text for text in ("S^2", "S_l:0.5", "D^1", "conv:1,-0.5")}
PULL_SPECS.update({"corr": TRANSDUCER_CORR, "S^1+corr": f"S^1+{TRANSDUCER_CORR}"})


def embedding_mdp(*rows):
    """A one-action process that embeds `rows` and stays put; the decoder reads only
    its embedding."""
    n = len(rows)
    return FiniteMDP(num_states=n, num_actions=1, rho0=np.eye(n)[0],
                     outcomes=tuple(((Outcome(s, 0.0, 1.0),),) for s in range(n)),
                     embedding=tuple(map(as_state, rows)))


class TestTransducer:
    """`AggregatedMDPOracle.pull` is a transducer of `spec.pull`: it interns each decoder
    state as a node and stores each (node, id of a frozen aggregate) edge once."""

    @pytest.mark.parametrize("name", PULL_SPECS)
    def test_pull_matches_fresh_streams(self, name):
        # aggregates of raw states from a small pool, so that edges repeat and
        # states merge: one oracle's decoder against a fresh stream per episode
        template = parse_spec(PULL_SPECS[name])
        mdp = embedding_mdp([1.0, 0.0], [0.0, 1.0], [0.5, -0.5])
        oracle = AggregatedMDPOracle(mdp, template)
        rng = np.random.default_rng(41)
        steps, shared = 0, {}  # one frozen aggregate object per bytes, so that edges repeat
        for _ in range(150):
            raw = [mdp.embedding[i] for i in rng.integers(3, size=rng.integers(1, 9))]
            p, fresh = oracle.begin(), template.begin()
            for t, g in enumerate(stream_push(template, raw)):
                g = shared.setdefault(g.tobytes(), g)
                assert frozen(g)
                p = oracle.pull(p, g)
                fresh, want = template.pull(fresh, g)
                assert p == (fresh, mdp.match_states([want])[0], t)
                assert oracle.nodes[p[0]] is p[0]
                steps += 1
        assert len(oracle.nodes) <= len(oracle.edges) + 1 < steps  # edges were looked up
        assert all(key[1] == id(obs) for key, (_, _, obs) in oracle.edges.items())

    def test_corr_streams_at_different_t_do_not_merge(self):
        zero, one = as_state([0.0]), as_state([1.0])
        mdp = embedding_mdp([0.0], [1.0])
        sums = AggregatedMDPOracle(mdp, corr_spec((1.0, 2.0, 3.0)))
        p1 = sums.pull(sums.begin(), zero)
        p2 = sums.pull(p1, zero)
        assert p1[0][1:3] == p2[0][1:3]
        assert p2[0] != p1[0]  # the gains ahead differ: 2 at t = 1, 3 at t = 2
        assert [sums.pull(p, as_state([w]))[1] for p in (p1, p2) for w in (2.0, 3.0)] == \
            [1, None, None, 1]
        plain = AggregatedMDPOracle(mdp, group_power_spec(1))
        m1 = plain.pull(plain.begin(), zero)
        assert plain.pull(m1, zero)[0] is m1[0]  # without a gain the same streams merge

    def test_unkeyed_input_and_full_transducer_leave_the_memo(self, monkeypatch):
        # unkeyed input (a float32 stream, a read-only owner) stores no edge, and past
        # NODE_CAP nodes a new state is not interned; an interned state still merges
        monkeypatch.setattr(aggregators, "NODE_CAP", 2)
        mdp, spec = embedding_mdp([1.0, 2.0], [1.0, 1.0], [-2.0, -2.0]), group_power_spec(1)
        unkeyed = AggregatedMDPOracle(mdp, spec)
        owner = np.array([1.0, 2.0])
        owner.flags.writeable = False
        for obs in (np.array([1.0, 2.0], dtype=np.float32), owner, owner):
            p = unkeyed.pull(unkeyed.begin(), obs)
            assert p[1:] == (0, 0) and unkeyed.edges == {} and unkeyed.nodes[p[0]] is p[0]
        sums = AggregatedMDPOracle(mdp, spec)
        one, two = as_state([1.0, 2.0]), as_state([2.0, 3.0])
        n1 = sums.pull(sums.begin(), one)
        assert sums.nodes[n1[0]] is n1[0]
        off = sums.pull(n1, two)  # a new state past cap nodes
        assert off[1:] == (1, 1) and off[0] not in sums.nodes
        assert sums.edges == {(sums.root, id(one)): (*n1[:2], one),
                              (n1[0], id(two)): (*off[:2], two)}
        off2 = sums.pull(off, as_state([3.0, 4.0]))
        assert off2[1:] == (1, 2) and len(sums.nodes) == 2 and len(sums.edges) == 2
        back = sums.pull(off2, as_state([1.0, 2.0]))  # past cap edges too
        assert back[0] is n1[0] and back[1:] == (2, 3) and len(sums.edges) == 2

    def test_stream_past_the_cap_never_changes(self, monkeypatch):
        # a state that is not interned is still a node: pulls from it leave it as it was
        monkeypatch.setattr(aggregators, "NODE_CAP", 1)
        spec = group_power_spec(2)
        sums = AggregatedMDPOracle(embedding_mdp([1.0], [-2.0]), spec)
        off = sums.pull(sums.begin(), as_state([1.0]))
        fresh = spec.pull(spec.begin(), as_state([1.0]))[0]
        assert [sums.pull(off, as_state([3.0]))[1] for _ in range(3)] == [0, 0, 0]
        assert off[0] == fresh
        p = off
        for g in (3.0, 6.0, 10.0):  # S^2 of four ones
            p = sums.pull(p, as_state([g]))
            assert p[1] == 0
        assert off[0] == fresh and len(sums.nodes) == 1


class TestChain:
    def test_two_sums_equal_double_cumsum(self):
        rng = np.random.default_rng(10)
        traj = rng.uniform(-1, 1, size=(10, 2))
        spec = parse_spec("S^2")
        expected = np.cumsum(np.cumsum(traj, axis=0), axis=0)
        assert np.allclose(spec.aggregate(traj), expected, atol=ALGEBRA_TOL)
        assert np.allclose(parse_spec("S^1+S^1").aggregate(traj), expected, atol=ALGEBRA_TOL)

    def test_chain_roundtrip(self):
        rng = np.random.default_rng(11)
        traj = rng.uniform(-1, 1, size=(12, 3))
        for text in ("S^1+D_l:0.4+conv:1,0.2", "S^1+corr:1,2,3,0.5,1,2,3,0.5,1,2,3,0.5+D_l:0.4"):
            spec = parse_spec(text)
            assert np.max(np.abs(spec.decode(spec.aggregate(traj)) - traj)) <= ROUNDTRIP_TOL

    def test_chain_project(self):
        spec = parse_spec("S^1+S^1")
        rng = np.random.default_rng(12)
        traj = rng.uniform(-1, 1, size=(5, 2))
        aggs = spec.aggregate(traj)
        state = spec.begin()
        for g in aggs[:-1]:
            state = spec.pull(state, g)[0]
        assert np.allclose(spec.push(state, traj[-1])[1], aggs[-1], atol=ALGEBRA_TOL)

    @pytest.mark.parametrize("text", ["id", "S^2", "D_l:0.5", "corr:1,2,3", "S^1+corr:1,2,3"])
    def test_project_is_read_only(self, text):
        # an aggregate pushed from a decoder state is shared through the oracle's memo
        spec = parse_spec(text)
        state = spec.pull(spec.begin(), spec.push(spec.begin(), as_state([1.0, 2.0]))[1])[0]
        g = spec.push(state, as_state([3.0, 4.0]))[1]
        assert not g.flags.writeable
        with pytest.raises(ValueError):
            g[0] = 0.0

    @pytest.mark.parametrize("text, stage, x, at", [
        ("conv:1e308,1e308", "conv:1e308,1e308", [1.0, 0.5], 1),
        ("S^1", "S^1", [1e308, 1.0], 1),
        ("S^1+corr:1e308,2", "corr:1e+308,2", [2.0, 1.0], 0),
        ("corr:1,1e308", "corr:1,1e308", [2.0, 1.0], 1)])
    def test_overflowing_stage_raises(self, text, stage, x, at):
        # the stage that overflows names itself, so a chain's message names the corr stage;
        # a warning is an error here, so numpy's RuntimeWarning must not come first
        spec = parse_spec(text)
        state, pushed = spec.begin(), 0
        with warnings.catch_warnings(), pytest.raises(
                ValidationError, match=re.escape(f"filter {stage} overflows float64")):
            warnings.simplefilter("error")
            for pushed in range(3):
                state = spec.push(state, x)[0]
        assert pushed == at


    @pytest.mark.parametrize("text, stage, method, x", [
        ("conv:1e308,1e308", "conv:1e308,1e308", "aggregate", np.ones((3, 1))),
        ("S^1", "S^1", "aggregate", [[1e308], [1e308]]),
        ("S^1+corr:1e308,2", "corr:1e+308,2", "aggregate", [[2.0], [1.0]]),
        ("corr:1,1e308", "corr:1,1e308", "aggregate", [[2.0], [2.0]]),
        ("S^1", "S^1", "decode", [[1e308], [-1e308]]),
        ("corr:1e-8,1e-8", "corr:1e-8,1e-8", "decode", [[1e305]]),
        ("S^1+corr:1,1e-8", "corr:1,1e-08", "decode", [[1.0], [1e305]])])
    def test_overflowing_batch_raises(self, text, stage, method, x):
        # the batch path returned inf, and -inf, where the stream raises
        with warnings.catch_warnings(), pytest.raises(
                ValidationError, match=re.escape(f"filter {stage} overflows float64")):
            warnings.simplefilter("error")
            getattr(parse_spec(text), method)(x)


class TestSpecs:
    def test_identity_specs(self):
        rng = np.random.default_rng(13)
        traj = rng.uniform(-1, 1, size=(6, 2))
        for spec in (identity_spec(), group_power_spec(0), smooth_spec(0.0),
                     damp_spec(0.0), parse_spec("S^0"), parse_spec("D^0")):
            assert spec.is_identity
            assert np.array_equal(spec.aggregate(traj), traj)

    def test_chain_multiplies_into_one_filter(self):
        s3 = parse_spec("S^3")
        assert (s3.b, s3.a, s3.then) == ((1.0,), (1.0, -3.0, 3.0, -1.0), None)
        chained = parse_spec("S^1+D_l:0.5+conv:2,1")
        assert chained.then is None
        assert np.allclose(chained.b, np.convolve((1.0, -0.5), (2.0, 1.0)))
        assert chained.a == (1.0, -1.0)
        # a gain after an earlier stage starts a second stage
        mixed = parse_spec("S^1+corr:1,2")
        assert mixed.then is not None and mixed.then.gain == (1.0, 2.0)
        assert parse_spec("corr:1,2+S^1").then is None

    def test_smooth_incremental_form(self):
        # g_t = s_t + lam * g_{t-1}
        lam = 0.6
        spec = smooth_spec(lam)
        traj = np.array([[1.0], [2.0], [3.0]])
        aggs = spec.aggregate(traj)
        assert np.allclose([a[0] for a in aggs], [1.0, 2.0 + lam, 3.0 + lam * (2.0 + lam)])

    def test_damp_form(self):
        # g_t = s_t - lam * s_{t-1}
        lam = 0.5
        aggs = damp_spec(lam).aggregate(np.array([[2.0], [4.0], [8.0]]))
        assert np.allclose([a[0] for a in aggs], [2.0, 3.0, 6.0])

    def test_difference_of_sum_is_identity(self):
        rng = np.random.default_rng(14)
        traj = rng.uniform(-1, 1, size=(9, 2))
        aggs = parse_spec("S^1+D^1").aggregate(traj)
        assert np.allclose(aggs, traj, atol=ALGEBRA_TOL)

    def test_to_kernel_composition(self):
        k = parse_spec("S^1+D^1")
        assert list(k.coeffs_upto(10)) == [1.0] + [0.0] * 9
        assert np.allclose(parse_spec("S^2").coeffs_upto(6), np.arange(1.0, 7.0))
        with pytest.raises(ValidationError):
            parse_spec("corr:1,2").coeffs_upto(2)


class TestParseSpec:
    @pytest.mark.parametrize("text", ["id", "S^2", "D^1", "S_l:0.4", "D_l:0.8",
                                      "conv:1,-0.5,0.25", "corr:1,2,3", "S^1+D^1", "S", "D",
                                      # roots of b(z) on the unit circle, repeated ones too
                                      "conv:1,-1", "conv:1,-2,1", "conv:1,-3,3,-1",
                                      "conv:1,-4,6,-4,1",
                                      "conv:-1.0,0.0,0.8,1.7265030821076188e-87"])
    def test_accepts_grammar(self, text):
        parse_spec(text)

    @pytest.mark.parametrize("text", ["", "Q^1", "S_l:2.0", "conv:0,1", "S^-1", "sum", "none",
                                      # a root of b(z) inside the unit disk: unstable decoder
                                      "conv:0.5,0.9", "conv:1,-1.5", "conv:1,0,-1.1"])
    def test_rejects_invalid(self, text):
        with pytest.raises((ValidationError, ValueError)):
            parse_spec(text)

    def test_label_preserved(self):
        assert parse_spec("S^1+D^1").label == "S^1+D^1"

    @pytest.mark.parametrize("text", ["S^100000000", "D^100000", "S^1030", "D^1030"])
    def test_power_past_float64_rejected_at_once(self, text):
        # (1 - z)^n overflows past n = 1,029; the n convolutions used to run to the end
        with pytest.raises(ValidationError, match="coefficients must be finite"):
            parse_spec(text)

    @pytest.mark.parametrize("text", ["S^1030", "D^1030"])
    def test_power_overflow_names_the_spec(self, text):
        with pytest.raises(ValidationError, match=re.escape(
                f"{text}: (1 - z)^1030 overflows float64 past n = 1,029")):
            parse_spec(text)

    def test_largest_finite_power_unchanged(self):
        c = np.ones(1)
        for _ in range(1029):
            c = np.convolve(c, (1.0, -1.0))
        assert np.array(parse_spec("D^1029").b).tobytes() == c.tobytes()
        assert np.array(parse_spec("S^1029").a).tobytes() == c.tobytes()


class TestHar:
    @pytest.mark.parametrize("spec_text", ["sum", "conv:1,-0.5", "conv:2,0.3,0.1", "id"])
    def test_roundtrip(self, spec_text):
        spec = parse_har_spec(spec_text)
        assert isinstance(spec, Filter)
        rng = np.random.default_rng(15)
        rewards = list(rng.uniform(-5, 5, size=30))
        back = har_decode(spec, har_aggregate(spec, rewards))
        assert np.max(np.abs(np.array(back) - np.array(rewards))) <= 1e-9

    def test_sum_is_running_total(self):
        spec = parse_har_spec("sum")
        assert har_aggregate(spec, [1.0, 2.0, 3.0]) == [1.0, 3.0, 6.0]
        assert [float(g[0]) for g in stream_push(spec, [[1.0], [2.0], [3.0]])] == [1.0, 3.0, 6.0]

    def test_parse_rejects_unknown(self):
        # the reward grammar is atoms only: no chain, and no state-grammar atom
        for text in ("exp:0.5", "conv:1,-0.5+S", "S", "S^1"):
            with pytest.raises(ValidationError, match="cannot parse"):
                parse_har_spec(text)
