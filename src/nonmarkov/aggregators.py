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

Two paths share the coefficients.  Batch: `aggregate` / `decode` convolve each column of
a whole (T, k) array with the first T coefficients of the kernel b/a (a/b to decode),
read from `_series`, the one memo of each (b, a) series for every filter and kernel
reader.  Streaming: a stream state is a hashable tuple (t, xs, gs, rest) per stage: t
for a gain stage (else None), the bytes of the last len(b)-1 filter inputs and len(a)-1
aggregates, newest first, and the next stage's state or None.  From `begin()`,
`push(state, s)` (encode) and `pull(state, g)` (decode) return the next state with the
next aggregate or decoded raw state.  Only `push` validates its input (`pull` takes states:
`as_state` results, outputs); `push`, `aggregate` and `decode` reject a non-finite output.
"""
from __future__ import annotations

import math

import numpy as np

from .core import ValidationError, as_state, parse_number

KERNEL_HEAD_TOL = 1e-9
UNIT_ROOT_TOL = 1e-3  # keeps repeated unit-circle roots, as in conv:1,-2,1, legal
NODE_CAP = 1 << 13  # entries of each memo that `remember` writes: a bound on endless input
_SERIES = {}  # (num, den) -> the longest read-only series computed, for up to NODE_CAP pairs


def remember(memo: dict, key, value):
    """Store value at key unless memo is full (NODE_CAP keys) without key; return value."""
    if len(memo) < NODE_CAP or key in memo:
        memo[key] = value
    return value


class NonInvertibleKernelError(ValidationError):
    """Kernel head coefficient (or a correlation weight) is (numerically) zero."""


def _poly(coeffs) -> tuple:
    """Coefficient tuple with trailing zeros dropped (at least one kept)."""
    c = np.atleast_1d(np.asarray(coeffs, dtype=float)).tolist()
    while c and c[-1] == 0.0:
        c.pop()
    if not all(map(math.isfinite, c)):
        raise ValidationError("filter coefficients must be finite")
    if not c:
        raise ValidationError("filter needs a nonzero coefficient")
    return tuple(c)


def _series(num, den, n: int) -> np.ndarray:
    """First n coefficients of the power series num/den (den_0 != 0), read-only; past the
    longest series kept for (num, den), the recursion continues from it (causal prefix)."""
    if n < 0:
        raise ValidationError(f"series length must be >= 0, got {n}")
    w = _SERIES.get((num, den))
    if w is None or len(w) < n:
        w = [] if w is None else w.tolist()
        for t in range(len(w), n):
            acc = num[t] if t < len(num) else 0.0
            for j in range(1, min(len(den) - 1, t) + 1):
                acc -= den[j] * w[t - j]
            w.append(acc / den[0])
        w = np.array(w)
        w.flags.writeable = False
        remember(_SERIES, (num, den), w)
    return w[:n]


def _convolve(num, den, x) -> np.ndarray:
    """(num/den) x along axis 0, the series cut to the band when den is a constant."""
    n = len(x)
    w = _series(num, den, min(n, len(num)) if len(den) == 1 else n)
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
    ones).  A filter holds only its coefficients; a stream is a state value
    that `begin()` starts and `push` and `pull` take and return.
    """

    def __init__(self, b, a=(1.0,), gain=None, label: str = "", then: Filter = None):
        b, a = _poly(b), _poly(a)
        if abs(b[0]) < KERNEL_HEAD_TOL or abs(a[0]) < KERNEL_HEAD_TOL:
            raise NonInvertibleKernelError("non-invertible kernel head (|w0| < 1e-9)")
        self.b = tuple(x / a[0] for x in b)
        self.a = tuple(x / a[0] for x in a)
        self.gain = None if gain is None else tuple(float(w) for w in gain)
        if self.gain == () or not np.all(np.isfinite(self.gain or ())):
            raise ValidationError("correlation weights must be finite and nonempty")
        self.label = label
        self.then = then

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

    def begin(self) -> tuple:
        """The start state of a stream: per stage (t, xs, gs, rest), at t = 0."""
        return (None if self.gain is None else 0, (), (),
                None if self.then is None else self.then.begin())

    def _fold(self, state: tuple, acc: np.ndarray, sign: float) -> np.ndarray:
        """acc + sign * sum_{j>=1} (b_j x_{t-j} - a_j g_{t-j}), added in place."""
        recent = state[2] or state[1]
        if recent and len(recent[0]) != acc.nbytes:
            raise ValidationError("dimension mismatch in filter stream")
        for bj, xj in zip(self.b[1:], state[1]):
            acc += (sign * bj) * np.frombuffer(xj)
        for aj, gj in zip(self.a[1:], state[2]):
            acc -= (sign * aj) * np.frombuffer(gj)
        return acc

    def _commit(self, state: tuple, x: bytes, g: bytes, rest) -> tuple:
        """The state after input bytes x and aggregate bytes g, with `rest` for the next stage."""
        t, xs, gs, _ = state
        return (None if t is None else t + 1, (x, *xs)[: len(self.b) - 1],
                (g, *gs)[: len(self.a) - 1], rest)

    def push(self, state: tuple, s) -> tuple:
        """(next state, `core.frozen` aggregate over the bytes the state stores) of the next
        raw state; raw input is validated here, and an aggregate that overflows float64 raises."""
        s = as_state(s)
        with np.errstate(over="ignore", invalid="ignore"):  # the check below names the stage
            x = s if state[0] is None else self.weight(state[0]) * s
            g = self._fold(state, self.b[0] * x, 1.0)
        data = self._finite(g, "an aggregate").tobytes()
        g = np.frombuffer(data)
        rest, y = (None, g) if self.then is None else self.then.push(state[3], g)
        return self._commit(state, x.tobytes(), data, rest), y

    def pull(self, state: tuple, g) -> tuple:
        """(next state, read-only raw state) of the next aggregate (a state, not raw input)."""
        rest = state[3]
        if rest is not None:
            rest, g = self.then.pull(rest, g)
        x = self._fold(state, g.copy(), -1.0) / self.b[0]
        s = x if state[0] is None else x / self.weight(state[0])
        s.flags.writeable = False
        return self._commit(state, x.tobytes(), g.tobytes(), rest), s

    def _finite(self, y: np.ndarray, what: str) -> np.ndarray:
        if not np.isfinite(y).all():
            raise ValidationError(f"filter {self.label or 'stage'} overflows float64: "
                                  f"{what} is not finite")
        return y

    # -- batch -------------------------------------------------------------

    def _gained(self, x: np.ndarray, op) -> np.ndarray:  # op(x, w): row t of x by gain w_t
        if self.gain is None:
            return x
        w = np.array(self.gain[:len(x)])
        bad = np.flatnonzero(np.abs(w) < KERNEL_HEAD_TOL)
        if bad.size or len(w) < len(x):
            self.weight(int(bad[0]) if bad.size else len(w))  # raises the first error
        with np.errstate(over="ignore"):  # `_finite` names the stage
            return op(x, w[:, None])

    def aggregate(self, trajectory) -> np.ndarray:
        """Aggregates of a whole (T, k) trajectory."""
        return self._aggregate(_batch(trajectory))

    def decode(self, aggregates) -> np.ndarray:
        """Raw states of a whole (T, k) aggregate sequence."""
        return self._decode(_batch(aggregates))

    def _aggregate(self, x: np.ndarray) -> np.ndarray:  # x: a `_batch` array or a stage's output
        g = self._finite(_convolve(self.b, self.a, self._gained(x, np.multiply)), "an aggregate")
        return g if self.then is None else self.then._aggregate(g)

    def _decode(self, g: np.ndarray) -> np.ndarray:  # g: a `_batch` array or a stage's output
        g = g if self.then is None else self.then._decode(g)
        return self._finite(self._gained(_convolve(self.a, self.b, g), np.divide), "a raw state")

    # -- kernel view -------------------------------------------------------

    def _require_lti(self) -> None:
        if self.gain is not None or self.then is not None:
            raise ValidationError(f"time-varying filter {self.label!r} has no kernel form")

    def coeffs_upto(self, length: int) -> np.ndarray:
        """First `length` coefficients w_tau of the kernel b/a (impulse response), read-only."""
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
    """First `length` coefficients of the power-series inverse a/b of w: the first
    column of the inverse of the lower-triangular Toeplitz matrix built from w."""
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

def _difference_power(n: int, label: str) -> np.ndarray:
    c = np.ones(1)
    while len(c) <= n:
        c = np.convolve(c, (1.0, -1.0))
        if not np.isfinite(c).all():  # stop at the first overflow, not after n steps
            raise ValidationError(f"{label}: (1 - z)^{n} overflows float64 past n = 1,029; "
                                  "filter coefficients must be finite")
    return c


def identity_spec() -> Filter:
    return Filter((1.0,), label="id")


def group_power_spec(n: int) -> Filter:
    if n < 0:
        raise ValidationError("group power must be >= 0")
    return Filter((1.0,), _difference_power(n, f"S^{n}"), label=f"S^{n}")


def difference_power_spec(n: int) -> Filter:
    if n < 0:
        raise ValidationError("difference power must be >= 0")
    return Filter(_difference_power(n, f"D^{n}"), label=f"D^{n}")


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
    """Band kernel b with a stable decoder 1/b: no root of b(z) inside the unit disk."""
    cs = tuple(float(c) for c in coeffs)
    f = Filter(cs, label="conv:" + ",".join(f"{c:g}" for c in cs))
    if np.any(np.abs(np.roots(f.b)) > 1.0 + UNIT_ROOT_TOL):  # reciprocal roots of b(z)
        raise ValidationError(f"unstable decoder: b(z) of {f.label} has a root in the unit disk")
    return f


def corr_spec(weights) -> Filter:
    """g_t = sum_{tau<=t} w_tau * s_tau: the gain w_t followed by a running sum."""
    ws = tuple(float(w) for w in weights)
    return Filter((1.0,), (1.0, -1.0), gain=ws,
                  label="corr:" + ",".join(f"{w:g}" for w in ws))


# prefix -> (number kind, constructor); the tuple kind reads comma-separated floats
_ATOMS = {"S^": (int, group_power_spec), "D^": (int, difference_power_spec),
          "S_l:": (float, smooth_spec), "D_l:": (float, damp_spec),
          "conv:": (tuple, conv_spec), "corr:": (tuple, corr_spec)}


def _split_atom(text: str):
    """(table prefix, number text) of a stripped atom; the prefix is None off the
    table.  A bare S or D is S^1 or D^1."""
    text = {"S": "S^1", "D": "D^1"}.get(text, text)
    prefix = next((p for p in _ATOMS if text.startswith(p)), None)
    return prefix, text[len(prefix or ""):]


def _parse_atom_spec(text: str) -> Filter:
    text = text.strip()
    prefix, arg = _split_atom(text)
    if prefix is None:
        if text == "id":
            return identity_spec()
        raise ValidationError(f"cannot parse functor spec {text!r}")
    kind, make = _ATOMS[prefix]
    if kind is tuple:
        return make(parse_number(c, float, text) for c in arg.split(","))
    return make(parse_number(arg, kind, text))


def spec_family(text: str):
    """(sweep family, parameter) of a spec: S, D, S_l or D_l and the number of one
    such atom; any other spec, chains included, is its own family with parameter 0."""
    text = text.strip()
    prefix, arg = _split_atom(text)
    if prefix is None or "+" in text or _ATOMS[prefix][0] is tuple:
        return text, 0.0
    return prefix.rstrip("^:"), parse_number(arg, float, text)


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
    """Reward aggregator grammar, atoms only: "sum" (S^1), "conv:c0,c1,...", "id"
    and "none" (id)."""
    text = text.strip()
    if text not in ("sum", "id", "none") and not text.startswith("conv:"):
        raise ValidationError(f"cannot parse reward aggregator spec {text!r}")
    spec = _parse_atom_spec({"sum": "S^1", "none": "id"}.get(text, text))
    if text == "sum":
        spec.label = text
    return spec


def har_aggregate(spec: Filter, rewards) -> list:
    return spec.aggregate(np.reshape(rewards, (-1, 1)))[:, 0].tolist()


def har_decode(spec: Filter, aggregates) -> list:
    return spec.decode(np.reshape(aggregates, (-1, 1)))[:, 0].tolist()
