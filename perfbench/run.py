#!/usr/bin/env python3
"""Benchmark for the nonmarkov package: end-to-end metrics per workload, and
per-layer costs from a separate traced run.

    python3 perfbench/run.py --workload learn --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20 --trace 1

Workloads: learn, deps, category, roundtrip (see workloads.py), or "all".
Run it from any directory; it imports the package from ../src relative to
this file and exits non-zero if that source tree is missing.

--trace 0 measures the end-to-end metrics: setup_s (median of several
set-ups, each a fresh-interpreter import of nonmarkov and nonmarkov.cli plus
the workload's construction and warm-up), work_per_s, item_p50_ms,
item_tail_ms (printed where a percentile has >= 10 samples beyond it),
peak_rss_mb and failed_ratio.  Item times of learn, deps and roundtrip are
reported in reference-host seconds: scaled by the host's speed measured in
the same run (see CALIB_REF_S), with the raw times printed beside them.

--trace 1 first runs untraced for half the time, then runs the same blocks
with spans recorded at the package's public boundaries, and reports the
per-layer metrics, each layer's self time and the tracing overhead.  Spans
are written to perfbench/out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output check passed and 1 when one failed.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import nonmarkov, nonmarkov.cli; print(time.perf_counter() - t)")

# The shared host this benchmark was defined on changes speed by up to 1.7x
# within minutes, for every process on it.  Over ten 20 s runs, throughput
# spread by 0.23 (learn), 0.21 (deps) and 0.17 (roundtrip), as quartile
# distance over median; divided by the mean time of a fixed calibration slice
# run between items, it spread by 0.045, 0.024 and 0.017.  So a pass of those
# workloads times the slice once per CALIB_EVERY_S elapsed and scales its item
# times by CALIB_REF_S / (mean slice time).  The slice mixes dict and tuple
# operations with small numpy calls, as the package does, and never calls it.
# Category's speed follows the slice only loosely (correlation 0.6-0.75, not
# 0.9-0.99), and scaling widened its spread (0.09 to 0.18), so it stays raw.
CALIB_EVERY_S = 0.25
CALIB_REF_S = 8e-3  # typical slice time on the 2-vCPU host the bounds come from
_CALIB_ARRAYS = [np.arange(5.0) + i for i in range(16)]

E2E_UNITS = {"setup_s": "s", "work_per_s": "units/s", "peak_rss_mb": "MB"}


def _load_package():
    """Put ../src and this directory on sys.path and import the workloads."""
    if not os.path.isfile(os.path.join(SRC, "nonmarkov", "__init__.py")):
        raise SystemExit(f"perfbench: package source not found under {SRC}")
    for path in (HERE, SRC):
        if path not in sys.path:
            sys.path.insert(0, path)
    import tracing
    import workloads
    return tracing, workloads


# ---------------------------------------------------------------------------
# run context
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def run_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

def import_seconds() -> float:
    """Import time of nonmarkov and nonmarkov.cli in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def calibration_slice() -> float:
    """Seconds taken by a fixed mix of dict, tuple and small numpy operations."""
    start = perf_counter()
    table = {}
    acc = 0
    for i in range(15_000):
        key = (i % 97, i % 13)
        acc += table.get(key, 0)
        table[key] = acc & 1023
    for i in range(1_500):
        acc += np.array_equal(_CALIB_ARRAYS[i % 16], _CALIB_ARRAYS[i * 7 % 16])
    return perf_counter() - start


def timed_setup(wl, imports: list) -> list:
    """One set-up sample per import sample: that import time plus a fresh
    construction and warm-up of the workload."""
    samples = []
    for imported in imports:
        start = perf_counter()
        wl.setup()
        samples.append(imported + perf_counter() - start)
    return samples


class Pass:
    """Item latencies, work and failures of one pass over whole blocks."""

    def __init__(self, host_scaled: bool):
        self.host_scaled = host_scaled
        self.latencies = []
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.blocks = 0
        self.reasons = []
        self.counts = Counter()
        self.slices = []

    @property
    def scale(self) -> float:
        """Reference-host seconds per second measured in this pass, or 1."""
        return CALIB_REF_S / statistics.fmean(self.slices) if self.slices else 1.0

    @property
    def work_per_s(self) -> float:
        """Work units per (reference-host) second of item time."""
        return self.units / (self.busy * self.scale) if self.busy > 0 else 0.0


def run_pass(wl, tracer, seconds: float = None, blocks: int = None) -> Pass:
    """Run exactly `blocks` blocks, or whole blocks for about `seconds`: the
    pass stops at the block boundary nearest to `seconds`, judged by the mean
    block time so far, and always runs at least one block.  For a host-scaled
    workload, calibration slices run first and then between items, one per
    CALIB_EVERY_S elapsed, so that a long item weighs in by its length."""
    p = Pass(wl.host_scaled)
    wl.counts = p.counts
    root_id = tracer.intern("bench.item") if tracer.enabled else -1
    if p.host_scaled:
        p.slices.append(calibration_slice())
    start = last_slice = perf_counter()
    while True:
        for item in wl.block(p.blocks):
            tracer.item_id = p.attempted
            p.attempted += 1
            idx = tracer.begin(root_id) if tracer.enabled else -1
            t0 = perf_counter()
            try:
                out = wl.compute(item, tracer)
                error = None
            except Exception as exc:  # a raising item is a failed item; the run goes on
                out, error = None, f"{type(exc).__name__}: {exc}"
            finally:
                dt = perf_counter() - t0
                if idx >= 0:
                    tracer.end(idx)
            p.latencies.append(dt)
            p.busy += dt
            if error is None:
                ok, units, reason = wl.check(item, out)
            else:
                ok, units, reason = False, 0, error
            p.units += units
            if not ok:
                p.failed += 1
                p.reasons.append(reason)
            due = int((perf_counter() - last_slice) / CALIB_EVERY_S) if p.host_scaled else 0
            if due:
                p.slices.extend(calibration_slice() for _ in range(due))
                last_slice = perf_counter()
        p.blocks += 1
        elapsed = perf_counter() - start
        if blocks is not None:
            if p.blocks >= blocks:
                return p
        elif elapsed + elapsed / p.blocks / 2 >= seconds:
            return p


def tail(latencies):
    """(percentile, value, samples beyond) at the highest percentile with at
    least TAIL_MIN_BEYOND samples beyond it (nearest rank), or None."""
    xs = sorted(latencies)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, xs[rank - 1], n - rank
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p: Pass, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "work_per_s": p.work_per_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(s, ref: Pass, traced: Pass, n_spans: int, layers) -> dict:
    """Per-layer metrics of a traced pass, times in reference-host units; zero
    where a workload does not use a layer."""
    us, ms = 1e6 * traced.scale, 1e3 * traced.scale
    c, blocks = traced.counts, traced.blocks

    def ratio(num, den):
        return num / den if den else 0.0

    steps = s.count("envs.step")
    agent_loop = (s.total("agents.train") + s.total("agents.evaluate")
                  - s.total("wrappers.step") - s.total("wrappers.reset"))
    items = s.total("bench.item")
    out = {
        "envs.step_us": s.mean("envs.step") * us,
        "envs.reset_us": s.mean("envs.reset") * us,
        "envs.step_calls": steps / blocks,
        "envs.value_iteration_ms": s.mean("envs.optimal_return") * ms,
        "wrappers.step_self_us": s.mean_self("wrappers.step") * us,
        "wrappers.oracle_transition_us": s.mean("wrappers.oracle_transition") * us,
        "wrappers.oracle_transition_calls": s.count("wrappers.oracle_transition") / blocks,
        "wrappers.candidates_us": s.mean("wrappers.candidates") * us,
        "aggregators.aggregate_us_per_step":
            ratio(s.total("aggregators.aggregate"), c["state_steps"]) * us,
        "aggregators.decode_us_per_step":
            ratio(s.total("aggregators.decode"), c["state_steps"]) * us,
        "aggregators.har_us_per_step": ratio(s.total("aggregators.har"), c["reward_steps"]) * us,
        "aggregators.max_roundtrip_err": max(c["max_err"], ref.counts["max_err"]),
        "agents.self_us_per_step": ratio(agent_loop, steps) * us,
        "agents.key_us": s.mean("agents.key") * us,
        "agents.key_calls": s.count("agents.key") / blocks,
        "agents.q_keys": ratio(c["q_keys"], c["cells"]),
        "analysis.empirical_self_us": s.mean_self("analysis.empirical_dependency") * us,
        "analysis.analytical_us": s.mean("analysis.analytical_dependency") * us,
        "analysis.undecodable": c["undecodable"] / blocks,
        "analysis.abstraction_self_ms": s.mean_self("analysis.build_markov_abstraction") * ms,
        "analysis.histories_interned": c["histories_interned"] / blocks,
        "analysis.verify_roundtrip_ms": s.mean("analysis.verify_roundtrip") * ms,
        "core.finite_mdp_build_ms": s.mean("core.finite_mdp") * ms,
        "core.finite_mdp_states": ratio(c["histories_interned"], c["instances"]),
        "experiments.sweep_overhead_ms":
            ratio(ref.busy - ref.counts["sweep_cell_ms"] / 1e3, ref.counts["cells"])
            * 1e3 * ref.scale if ref.counts["sweep_cell_ms"] else 0.0,
    }
    for layer in layers:
        out[f"{layer}.self_pct"] = ratio(s.layer_self(layer), items) * 100.0
    out["trace.overhead_pct"] = (1.0 - ratio(traced.work_per_s, ref.work_per_s)) * 100.0
    out["trace.spans"] = n_spans / blocks
    return out


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us_per_step", "us"), ("_us", "us"), ("_ms", "ms"),
                         ("_pct", "%"), ("_err", "abs")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _print_pass(name: str, wl, p: Pass, label: str) -> None:
    print(f"{name} {label}: {p.attempted} items (one {wl.item_name} each) in {p.blocks} blocks, "
          f"{p.units} {wl.unit}, {p.busy:.3f} s busy (raw)")
    if p.host_scaled:
        print(f"{name} {label} host scale = {p.scale!r} ({len(p.slices)} calibration "
              f"slices, mean {statistics.fmean(p.slices) * 1e3:.3f} ms, reference "
              f"{CALIB_REF_S * 1e3:g} ms); raw work_per_s = {p.units / p.busy!r}, raw "
              f"item_p50_ms = {statistics.median(p.latencies) * 1e3!r}")
    print(f"{name} item_p50_ms = {statistics.median(p.latencies) * p.scale * 1e3!r} ms "
          f"(n={len(p.latencies)})")
    t = tail(p.latencies)
    if t is None:
        print(f"{name} item_tail_ms = omitted (no percentile has >= {TAIL_MIN_BEYOND} "
              f"samples beyond it; n={len(p.latencies)})")
    else:
        pct, value, beyond = t
        print(f"{name} item_tail_ms = {value * p.scale * 1e3!r} ms "
              f"(p{pct:g}, {beyond} samples beyond, n={len(p.latencies)}; raw "
              f"{value * 1e3!r} ms)")
    print(f"{name} failed_ratio = {p.failed / p.attempted!r} ratio "
          f"({p.failed}/{p.attempted})")
    for reason in p.reasons[:5]:
        print(f"{name} failure: {reason}")
    counts = ", ".join(f"{k}={v:g}" for k, v in sorted(p.counts.items()))
    print(f"{name} counts over {p.blocks} blocks: {counts}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 imports: list):
    tracing, workloads = _load_package()
    wl = workloads.WORKLOADS[name](seed, tiny=tiny)
    setup = timed_setup(wl, imports)
    print(f"{name} setup samples (s, raw): {', '.join(repr(x) for x in setup)}")
    if not trace:
        p = run_pass(wl, tracing.NullTracer(), seconds=seconds)
        metrics = end_to_end(p, setup)
        units = dict(E2E_UNITS)
        _print_pass(name, wl, p, "untraced")
        for line in wl.notes(None):
            print(f"{name} {line}")
        print(f"{name} work unit: {wl.unit}; item: one {wl.item_name}")
        return metrics, units, p.attempted, p.failed

    wl.reference_pass = True
    ref = run_pass(wl, tracing.NullTracer(), seconds=seconds / 2)
    wl.reference_pass = False
    _print_pass(name, wl, ref, "untraced reference")
    tracer = tracing.Tracer()
    wl.trace_setup(tracer)
    traced = run_pass(wl, tracer, blocks=ref.blocks)
    _print_pass(name, wl, traced, "traced")
    summary = tracer.summary()
    metrics = layer_metrics(summary, ref, traced, len(tracer), tracing.LAYERS)
    units = {k: layer_unit(k) for k in metrics}
    print(f"{name} work_per_s untraced = {ref.work_per_s!r}, traced = "
          f"{traced.work_per_s!r} units/s (tracing overhead "
          f"{metrics['trace.overhead_pct']:.2f}%)")
    for layer in tracing.LAYERS:
        print(f"{name} self time {layer:12s} {summary.layer_self(layer):10.4f} s raw "
              f"({metrics[layer + '.self_pct']:.2f}% of traced item time)")
    for line in wl.notes(summary):
        print(f"{name} {line}")
    path = os.path.join(HERE, "out", f"trace-{name}-seed{seed}.npz")
    tracer.write(path)
    print(f"{name} spans: {len(tracer)} written to {os.path.relpath(path, ROOT)}")
    return metrics, units, ref.attempted + traced.attempted, ref.failed + traced.failed


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["learn", "deps", "category", "roundtrip", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    _load_package()

    names = (["learn", "deps", "category", "roundtrip"] if args.workload == "all"
             else [args.workload])
    context = run_context()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# context: " + " ".join(f"{k}={v}" for k, v in context.items()))
    imports = [import_seconds() for _ in range(1 if tiny else SETUP_REPEATS)]
    results = {}
    attempted = failed = 0
    for name in names:
        metrics, units, a, f = run_workload(name, args.seed, args.seconds,
                                            bool(args.trace), tiny, imports)
        attempted += a
        failed += f
        for key, value in metrics.items():
            print(f"{name} {key} = {value!r} {units[key]}")
            label = key if len(names) == 1 else f"{name}.{key}"
            results[label] = {"value": value, "unit": units[key]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
