"""History aggregators as reversible rational filters.

Every aggregator is one causal linear filter applied to each coordinate of a
state stream s_t in R^k (or to a scalar reward stream, k = 1):

    g = (b / a) (w . s),   i.e.  sum_j a_j g_{t-j} = sum_j b_j w_{t-j} s_{t-j}

with past values taken as zero.  The polynomials b (numerator) and a
(denominator, a_0 = 1) cover the named families:

    spec        b            a
    id          1            1
    S^n         1            (1 - z)^n
    D^n         (1 - z)^n    1
    S_l:x       1            1 - x z
    D_l:x       1 - x z      1
    conv:c..    c            1
    corr:w..    1            1 - z      with the gain w_t

The gain w_t is tied to absolute time, which makes `corr` the only
time-varying stage; every other stage has w = 1.  Decoding swaps b and a, so
the inverse exists whenever b_0 != 0.  A `+`-chain multiplies adjacent
time-invariant stages into one exact (b, a) pair; a gain after an earlier
stage starts a new stage (`Filter.then`).  The series a/b of one stage gives
the history positions the aggregated process depends on (see
`analysis.analytical_dependency`).

Two paths share the coefficients.  Batch: `aggregate` / `decode` convolve
each column of a whole (T, k) array with the first T coefficients of the
kernel b/a (a/b to decode).  Streaming: `begin()` starts a
stream whose state is the last len(b)-1 filter inputs and the last len(a)-1
aggregates; `push(s)` emits the next aggregate, `pull(g)` decodes the next
aggregate, and `project(s)` is the aggregate `push(s)` would emit, without
committing it (used by the exact transition oracle).
"""
from __future__ import annotations

import copy

import numpy as np

from .core import ValidationError, as_state

KERNEL_HEAD_TOL = 1e-9


class NonInvertibleKernelError(ValidationError):
    """Kernel head coefficient (or a correlation weight) is (numerically) zero."""


def _poly(coeffs) -> tuple:
    """Coefficient tuple with trailing zeros dropped (at least one kept)."""
    c = np.trim_zeros(np.atleast_1d(np.asarray(coeffs, dtype=float)), "b")
    if c.size < 1:
        raise ValidationError("filter needs a nonzero coefficient")
    return tuple(float(x) for x in c)


def _series(num, den, n: int) -> np.ndarray:
    """First n coefficients of the power series num/den (den_0 != 0)."""
    w = [0.0] * n
    for t in range(n):
        acc = num[t] if t < len(num) else 0.0
        for j in range(1, min(len(den) - 1, t) + 1):
            acc -= den[j] * w[t - j]
        w[t] = acc / den[0]
    return np.array(w)


def _convolve(num, den, x) -> np.ndarray:
    """(num/den) x along axis 0: each column convolved with the kernel num/den."""
    n = len(x)
    w = np.asarray(num[:n]) / den[0] if len(den) == 1 else _series(num, den, n)
    out = np.empty_like(x)
    for d in range(x.shape[1]):
        out[:, d] = np.convolve(w, x[:, d])[:n]
    return out


def _batch(rows) -> np.ndarray:
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValidationError(f"batch must be a nonempty (T, k) array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValidationError("batch entries must be finite")
    return x


class Filter:
    """g = (b/a)(w . s) on each coordinate, optionally followed by `then`.

    `gain` is the tuple of time-indexed weights w_0, w_1, ... or None (all
    ones).  Instances made by the spec constructors are templates: stream
    with `begin()`, which returns a copy with its own empty history.
    """

    def __init__(self, b, a=(1.0,), gain=None, label: str = "", then: Filter = None):
        b, a = _poly(b), _poly(a)
        if abs(b[0]) < KERNEL_HEAD_TOL or abs(a[0]) < KERNEL_HEAD_TOL:
            raise NonInvertibleKernelError("non-invertible kernel head (|w0| < 1e-9)")
        self.b = tuple(x / a[0] for x in b)
        self.a = tuple(x / a[0] for x in a)
        self.gain = None if gain is None else tuple(float(w) for w in gain)
        if self.gain == ():
            raise ValidationError("correlation weights must be nonempty")
        self.label = label
        self.then = then
        self._t = 0
        self._x, self._g = [], []  # newest first; shorter than the filter early on

    @property
    def is_identity(self) -> bool:
        return self.gain is None and self.then is None and self.b == self.a == (1.0,)

    def weight(self, t: int) -> float:
        """Gain w_t at absolute time t (1 for a time-invariant stage)."""
        if self.gain is None:
            return 1.0
        if t >= len(self.gain):
            raise ValidationError(
                f"correlation weight list of length {len(self.gain)} exhausted at t={t}")
        if abs(self.gain[t]) < KERNEL_HEAD_TOL:
            raise NonInvertibleKernelError(f"correlation weight w_{t} below 1e-9")
        return self.gain[t]

    # -- streaming ---------------------------------------------------------

    def begin(self) -> Filter:
        """A new stream of this filter: a copy with an empty history at t = 0."""
        stream = copy.copy(self)
        stream._t = 0
        stream._x, stream._g = [], []
        if self.then is not None:
            stream.then = self.then.begin()
        return stream

    def _fold(self, acc: np.ndarray, sign: float) -> np.ndarray:
        """acc + sign * sum_{j>=1} (b_j x_{t-j} - a_j g_{t-j}), added in place."""
        recent = self._g or self._x
        if recent and recent[0].shape != acc.shape:
            raise ValidationError("dimension mismatch in filter stream")
        for bj, xj in zip(self.b[1:], self._x):
            acc += (sign * bj) * xj
        for aj, gj in zip(self.a[1:], self._g):
            acc -= (sign * aj) * gj
        return acc

    def _next(self, s):
        """(filter input x_t, aggregate g_t) for raw state s at the current t."""
        s = as_state(s)
        x = s if self.gain is None else self.weight(self._t) * s
        return x, self._fold(self.b[0] * x, 1.0)

    def _commit(self, x, g) -> None:
        # stored arrays are shared with callers, so they are made read-only
        x.flags.writeable = g.flags.writeable = False
        self._x = [x, *self._x][: len(self.b) - 1]
        self._g = [g, *self._g][: len(self.a) - 1]
        self._t += 1

    def push(self, s) -> np.ndarray:
        """Aggregate the next raw state."""
        x, g = self._next(s)
        self._commit(x, g)
        return g if self.then is None else self.then.push(g)

    def pull(self, g) -> np.ndarray:
        """Decode the next aggregate back to its raw state."""
        if self.then is not None:
            g = self.then.pull(g)
        g = as_state(g)
        x = self._fold(g.copy(), -1.0) / self.b[0]
        s = x if self.gain is None else x / self.weight(self._t)
        self._commit(x, g)
        return s

    def project(self, s) -> np.ndarray:
        """The aggregate `push(s)` would emit next, without committing it."""
        g = self._next(s)[1]
        return g if self.then is None else self.then.project(g)

    # -- batch -------------------------------------------------------------

    def _gains(self, n: int) -> np.ndarray:
        return np.array([self.weight(t) for t in range(n)])[:, None]

    def aggregate(self, trajectory) -> np.ndarray:
        """Aggregates of a whole (T, k) trajectory."""
        x = _batch(trajectory)
        if self.gain is not None:
            x = x * self._gains(len(x))
        g = _convolve(self.b, self.a, x)
        return g if self.then is None else self.then.aggregate(g)

    def decode(self, aggregates) -> np.ndarray:
        """Raw states of a whole (T, k) aggregate sequence."""
        g = _batch(aggregates)
        if self.then is not None:
            g = self.then.decode(g)
        x = _convolve(self.a, self.b, g)
        return x if self.gain is None else x / self._gains(len(x))

    # -- kernel view -------------------------------------------------------

    def _require_lti(self) -> None:
        if self.gain is not None or self.then is not None:
            raise ValidationError(f"time-varying filter {self.label!r} has no kernel form")

    def coeffs_upto(self, length: int) -> np.ndarray:
        """First `length` coefficients w_tau of the kernel b/a (impulse response)."""
        self._require_lti()
        return _series(self.b, self.a, length)

    @property
    def coeffs(self) -> tuple:
        """The band of a finite (a = 1) kernel."""
        if self.a != (1.0,):
            raise ValidationError("infinite kernel has no finite band")
        return self.b


def chain(first: Filter, second: Filter) -> Filter:
    """`first` then `second`; a time-invariant `second` multiplies into the last stage."""
    if first.then is not None:
        return Filter(first.b, first.a, first.gain, then=chain(first.then, second))
    if second.gain is None and second.then is None:
        return Filter(np.convolve(first.b, second.b), np.convolve(first.a, second.a),
                      first.gain)
    return Filter(first.b, first.a, first.gain, then=second)


# ---------------------------------------------------------------------------
# kernel algebra over the coefficient sequence w = b/a
# ---------------------------------------------------------------------------

def Kernel(coeffs) -> Filter:  # noqa: N802 - kernel-algebra name kept for callers
    """Band kernel (w_0, ..., w_{n-1}), zero beyond the band."""
    return Filter(coeffs)


def band_kernel(*coeffs) -> Filter:
    return Filter(coeffs)


def geometric_kernel(first: float, ratio: float) -> Filter:
    """w_tau = first * ratio**tau, i.e. b = first, a = 1 - ratio z."""
    if abs(ratio) > 1.0:
        raise ValidationError("geometric kernel ratio must satisfy |ratio| <= 1")
    return Filter((first,), (1.0, -ratio))


def invert_kernel(w: Filter, length: int) -> list:
    """First `length` coefficients of the power-series inverse a/b of w.

    Equivalently the first column of the inverse of the lower-triangular
    Toeplitz matrix built from w.
    """
    if length < 1:
        raise ValidationError("inverse length must be >= 1")
    w._require_lti()
    return _series(w.a, w.b, length).tolist()


def compose_kernels(w1: Filter, w2: Filter, truncate: int = 64) -> Filter:
    """Convolution of two kernels: exact, (b1 b2) / (a1 a2).

    `truncate` is accepted for callers of the earlier truncated form and
    ignored.
    """
    w1._require_lti()
    w2._require_lti()
    return chain(w1, w2)


# ---------------------------------------------------------------------------
# named specs and the string grammar
# ---------------------------------------------------------------------------

def _difference_power(n: int) -> np.ndarray:
    c = np.ones(1)
    for _ in range(n):
        c = np.convolve(c, (1.0, -1.0))
    return c


def identity_spec() -> Filter:
    return Filter((1.0,), label="id")


def group_power_spec(n: int) -> Filter:
    if n < 0:
        raise ValidationError("group power must be >= 0")
    return Filter((1.0,), _difference_power(n), label=f"S^{n}")


def difference_power_spec(n: int) -> Filter:
    if n < 0:
        raise ValidationError("difference power must be >= 0")
    return Filter(_difference_power(n), label=f"D^{n}")


def _check_lambda(lam: float) -> None:
    if not 0.0 <= lam <= 1.0:
        raise ValidationError("lambda must lie in [0, 1]")


def smooth_spec(lam: float) -> Filter:
    """Exponentially weighted running sum: g_t = s_t + lam * g_{t-1}."""
    _check_lambda(lam)
    return Filter((1.0,), (1.0, -lam), label=f"S_l:{lam:g}")


def damp_spec(lam: float) -> Filter:
    """Damped difference: g_t = s_t - lam*s_{t-1} (s_{-1} := 0)."""
    _check_lambda(lam)
    return Filter((1.0, -lam), label=f"D_l:{lam:g}")


def conv_spec(coeffs) -> Filter:
    cs = tuple(float(c) for c in coeffs)
    return Filter(cs, label="conv:" + ",".join(f"{c:g}" for c in cs))


def corr_spec(weights) -> Filter:
    """g_t = sum_{tau<=t} w_tau * s_tau: the gain w_t followed by a running sum."""
    ws = tuple(float(w) for w in weights)
    return Filter((1.0,), (1.0, -1.0), gain=ws,
                  label="corr:" + ",".join(f"{w:g}" for w in ws))


def _parse_atom_spec(text: str) -> Filter:
    text = text.strip()
    if text in ("id", "S^0", "D^0"):
        return identity_spec()
    if text.startswith("S^"):
        return group_power_spec(int(text[2:]))
    if text.startswith("D^"):
        return difference_power_spec(int(text[2:]))
    if text.startswith("S_l:"):
        return smooth_spec(float(text[4:]))
    if text.startswith("D_l:"):
        return damp_spec(float(text[4:]))
    if text.startswith("conv:"):
        return conv_spec(float(c) for c in text[5:].split(","))
    if text.startswith("corr:"):
        return corr_spec(float(c) for c in text[5:].split(","))
    if text == "S":
        return group_power_spec(1)
    if text == "D":
        return difference_power_spec(1)
    raise ValidationError(f"cannot parse functor spec {text!r}")


def parse_spec(text: str) -> Filter:
    """Parse the wrapper grammar: "id", "S^n", "D^n", "S_l:x", "D_l:x",
    "conv:c0,c1,...", "corr:w0,w1,...", and "+"-separated chains."""
    parts = [p for p in text.split("+") if p.strip()]
    if not parts:
        raise ValidationError(f"empty functor spec {text!r}")
    spec = _parse_atom_spec(parts[0])
    for part in parts[1:]:
        spec = chain(spec, _parse_atom_spec(part))
    spec.label = text.strip()
    return spec


# ---------------------------------------------------------------------------
# reward aggregators: the same filters over a scalar stream (k = 1)
# ---------------------------------------------------------------------------

def parse_har_spec(text: str) -> Filter:
    """Reward aggregator grammar: "sum", "conv:c0,c1,...", "id" (or "none")."""
    text = text.strip()
    if text in ("id", "none"):
        return identity_spec()
    if text == "sum":
        return Filter((1.0,), (1.0, -1.0), label="sum")
    if text.startswith("conv:"):
        return conv_spec(float(c) for c in text[5:].split(","))
    raise ValidationError(f"cannot parse reward aggregator spec {text!r}")


def har_aggregate(spec: Filter, rewards) -> list:
    return spec.aggregate(np.reshape(rewards, (-1, 1)))[:, 0].tolist()


def har_decode(spec: Filter, aggregates) -> list:
    return spec.decode(np.reshape(aggregates, (-1, 1)))[:, 0].tolist()
