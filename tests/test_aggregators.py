import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nonmarkov.core import ValidationError

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


def stream_push(spec, traj):
    stream = spec.begin()
    return [stream.push(s) for s in traj]


def stream_pull(spec, aggs):
    stream = spec.begin()
    return [stream.pull(g) for g in aggs]


def assert_projects(spec, traj, aggs, tol=ALGEBRA_TOL):
    """After pulling g_0..g_{t-1}, project(s_t) is g_t and pulling it gives s_t back."""
    stream = spec.begin()
    for s, g in zip(traj, aggs):
        assert np.allclose(stream.project(s), g, atol=tol)
        assert np.allclose(stream.pull(g), s, atol=tol)


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

    def test_geometric_ratio_bound(self):
        with pytest.raises(ValidationError):
            geometric_kernel(1.0, 1.5)


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
        stream = group_power_spec(1).begin()
        stream.pull(np.array([1.0]))
        g = stream.project(np.array([2.0]))
        assert g[0] == 3.0
        assert stream.pull(g)[0] == 2.0


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
        # project(s) must be exactly the aggregate that pull would decode to s
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
        stream = corr_spec((1.0, 2.0)).begin()
        stream.push(np.array([1.0]))
        stream.push(np.array([1.0]))
        with pytest.raises(ValidationError, match="exhausted at t=2"):
            stream.push(np.array([1.0]))
        with pytest.raises(ValidationError, match="exhausted at t=2"):
            corr_spec((1.0, 2.0)).aggregate(np.ones((3, 1)))

    def test_zero_weight_rejected(self):
        spec = corr_spec((1.0, 0.0))
        stream = spec.begin()
        stream.push(np.array([1.0]))
        with pytest.raises(NonInvertibleKernelError):
            stream.push(np.array([1.0]))
        with pytest.raises(NonInvertibleKernelError):
            spec.decode(np.ones((2, 1)))

    def test_project(self):
        stream = corr_spec((1.0, 2.0)).begin()
        stream.pull(np.array([3.0]))
        g = stream.project(np.array([5.0]))
        assert g[0] == 3.0 + 2.0 * 5.0
        assert np.allclose(stream.pull(g), [5.0])


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
        stream = spec.begin()
        for g in aggs[:-1]:
            stream.pull(g)
        assert np.allclose(stream.project(traj[-1]), aggs[-1], atol=ALGEBRA_TOL)


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
                                      "conv:1,-0.5,0.25", "corr:1,2,3", "S^1+D^1", "S", "D"])
    def test_accepts_grammar(self, text):
        parse_spec(text)

    @pytest.mark.parametrize("text", ["", "Q^1", "S_l:2.0", "conv:0,1", "S^-1"])
    def test_rejects_invalid(self, text):
        with pytest.raises((ValidationError, ValueError)):
            parse_spec(text)

    def test_label_preserved(self):
        assert parse_spec("S^1+D^1").label == "S^1+D^1"


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
        with pytest.raises(ValidationError):
            parse_har_spec("exp:0.5")
