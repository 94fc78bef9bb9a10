"""Command-line entry point binding all modules.

Exit codes: 0 success / all checks pass; 1 check failure; 2 usage or
validation error.  `--seed` exists only on `run` and `verify-reversibility`,
and seeds must be >= 0.  `analyze-deps --t 0` checks the initial histories.
The sweep uses `--workers` processes when given, else the config file's
`workers` (default 1), else, for a flag grid, the CPU count; never more than one per cell.
"""
from __future__ import annotations

import argparse
import bisect
import dataclasses
import json
import os
import sys

import numpy as np

from . import analysis
from .aggregators import parse_spec
from .analysis import (
    analytical_dependency,
    empirical_dependency,
    verify_equivalence_roundtrip,
    verify_morphism,
)
from .core import ValidationError, is_int, json_number, load_json, load_mdp
from .envs import make_mdp_from_id
from .experiments import SweepConfig, render_plot, run_cell, run_sweep
from .wrappers import as_nmdp_oracle


# ---------------------------------------------------------------------------
# reversibility suite
# ---------------------------------------------------------------------------

def _standard_families(rng, random_kernels: int = 50, max_len: int = 64):
    """Spec strings covering the named aggregator families, one `corr` and
    one `+`-chain, plus random band kernels."""
    fams = ["S", "D"]
    for lam in (0.2, 0.4, 0.6, 0.8, 1.0):
        fams += [f"S_l:{lam:g}", f"D_l:{lam:g}"]
    fams += [f"S^{n}" for n in (1, 2, 3)]
    weights = ",".join(f"{w:.6g}" for w in rng.uniform(0.5, 1.5, size=max_len))
    fams += [f"corr:{weights}", f"D_l:0.5+corr:{weights}+S"]
    for _ in range(random_kernels):
        length = int(rng.integers(1, 6))
        head = float(rng.uniform(0.5, 2.0)) * float(rng.choice([-1.0, 1.0]))
        tail = rng.uniform(-1.0, 1.0, size=length - 1)
        # head-dominant tail keeps the inverse filter stable, so decoding
        # stays well conditioned over long trajectories
        total = float(np.sum(np.abs(tail)))
        if total > 0:
            tail = tail * (0.8 * abs(head) / max(total, 0.8 * abs(head)))
        fams.append("conv:" + ",".join(f"{c:.6g}" for c in (head, *tail)))
    return fams


def reversibility_report(seed: int = 0, trajectories: int = 1000,
                         max_dim: int = 6, max_len: int = 64,
                         random_kernels: int = 50, tol: float = 1e-6) -> dict:
    """Decode-after-aggregate error of the package's own filters over random
    trajectories x aggregator families."""
    if trajectories < 1:
        raise ValidationError(f"--trajectories must be >= 1, got {trajectories}")
    if seed < 0:
        raise ValidationError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    fams = [(label, parse_spec(label))
            for label in _standard_families(rng, random_kernels, max_len)]
    max_err = 0.0
    worst = None
    cases = 0
    for _ in range(trajectories):
        k = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(1, max_len + 1))
        traj = rng.uniform(-1.0, 1.0, size=(n, k))
        for label, spec in fams:
            err = float(np.max(np.abs(spec.decode(spec.aggregate(traj)) - traj)))
            cases += 1
            if err > max_err:
                max_err, worst = err, label
    return {
        "pass": max_err <= tol,
        "max_error": max_err,
        "worst_family": worst,
        "cases": cases,
        "families": len(fams),
        "tolerance": tol,
        "violations": [] if max_err <= tol else [
            {"where": worst, "expected": f"<= {tol}", "got": max_err}],
    }


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------

def _emit(report: dict, args, summary: str) -> int:
    """Write the report to --out, print it (--json) or else `summary`, and return
    the exit code: 1 when `report["pass"]` is false, else 0."""
    text = json.dumps(report, indent=2, default=float)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    print(text if args.json else summary)
    return 0 if report.get("pass", True) else 1


def _cmd_verify_reversibility(args) -> int:
    r = reversibility_report(seed=args.seed, trajectories=args.trajectories)
    return _emit(r, args, f"reversibility: {r['cases']} cases over {r['families']} families, "
                          f"max error {r['max_error']:.3e} -> {'PASS' if r['pass'] else 'FAIL'}")


def _cmd_verify_category(args) -> int:
    r = verify_equivalence_roundtrip(make_mdp_from_id(args.env), horizon=args.horizon)
    return _emit(r, args, f"category round-trip on {args.env}, horizon {args.horizon}: "
                          f"{r['histories']} histories, {len(r['violations'])} violations "
                          f"-> {'PASS' if r['pass'] else 'FAIL'}")


def _load_morphism_map(path: str):
    """(phi_S, phi_A, phi_R) from a JSON map file: two lists of integer
    indices and an object from reward strings to finite JSON numbers."""
    mapping = load_json(path)
    for key in ("phi_S", "phi_A", "phi_R"):
        if key not in mapping:
            raise ValidationError(f"{path}: missing field {key}")
    for key in ("phi_S", "phi_A"):
        if not (isinstance(mapping[key], list) and all(map(is_int, mapping[key]))):
            raise ValidationError(f"{path}: {key} must be a list of integers, "
                                  f"got {mapping[key]!r}")
    try:
        phi_R = {float(k): json_number(v) for k, v in mapping["phi_R"].items()}
        if not np.isfinite([*phi_R, *phi_R.values()]).all():
            raise ValueError
    except (AttributeError, TypeError, ValueError, OverflowError):
        raise ValidationError(f"{path}: phi_R must map reward strings to finite numbers, "
                              f"got {mapping['phi_R']!r}") from None
    return mapping["phi_S"], mapping["phi_A"], phi_R


def _cmd_verify_morphism(args) -> int:
    r = verify_morphism(load_mdp(args.m), load_mdp(args.m2), *_load_morphism_map(args.map))
    return _emit(r, args, f"morphism check: {len(r['violations'])} violations "
                          f"-> {'PASS' if r['pass'] else 'FAIL'}")


def _cmd_analyze_deps(args) -> int:
    if args.max_histories < 1:
        raise ValidationError(f"--max-histories must be >= 1, got {args.max_histories}")
    m = make_mdp_from_id(args.env)
    spec = parse_spec(args.wrapper)
    oracle = as_nmdp_oracle(m, spec)
    cap = analysis.HISTORY_CAP  # a walk's interned histories; one at t is the last of t + 1
    if args.t >= cap:
        raise ValidationError(f"--t must be below the history cap {cap}, got {args.t}")
    analytical = analytical_dependency(spec, args.t)
    if m.num_states < 2:  # a one-state pool has nothing to substitute
        raise ValidationError(f"analyze-deps needs >= 2 states, {args.env} has {m.num_states}")
    walk, want = analysis._HistoryWalk(oracle, args.t), min(args.max_histories, cap)
    try:  # a depth t cut short by the cap or an error answers when it holds `want` histories
        for _ in walk.levels():
            pass
    except Exception:
        if not args.t or walk.histories.t.count(args.t) < want:
            raise
    lo = bisect.bisect_left(walk.histories.t, args.t)
    at_t = walk.histories[lo:lo + want]  # builds a History only at depth t
    if not at_t:
        raise ValidationError(f"no reachable histories at t={args.t}")
    empirical = [empirical_dependency(oracle, h, m.embedding) for h in at_t]
    match = all(e.indices == analytical.indices for e in empirical)
    report = {
        "pass": match,
        "match": match,
        "dependency": analytical.to_json(),
        "histories_checked": len(at_t),
        "undecodable": [e.undecodable for e in empirical],
        "violations": [
            {"where": f"history {i} (t={args.t})",
             "expected": list(analytical.indices), "got": list(e.indices)}
            for i, e in enumerate(empirical) if e.indices != analytical.indices
        ],
    }
    return _emit(report, args, f"dependency at t={args.t} for {args.wrapper} on {args.env}: "
                               f"indices {list(analytical.indices)}, match={match}")


def _cmd_run(args) -> int:
    mean, std = run_cell(args.env, args.wrapper, args.agent, args.seed, args.episodes,
                         args.eval_episodes, args.horizon)
    report = {"env": args.env, "wrapper": args.wrapper, "agent": args.agent,
              "seed": args.seed, "episodes": args.episodes,
              "mean_return": mean, "std_return": std}
    return _emit(report, args, f"{args.env} | {args.wrapper} | {args.agent} | seed {args.seed}: "
                               f"mean return {mean:.4f} (std {std:.4f})")


def _cmd_sweep(args) -> int:
    if args.config:
        cfg = SweepConfig.from_json(args.config)
    else:
        if not (args.env and args.wrapper and args.agent):
            raise ValidationError("sweep needs --config or --env/--wrapper/--agent")
        try:
            seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError:
            raise ValidationError(
                f"--seeds must be comma-separated integers, got {args.seeds!r}") from None
        cfg = SweepConfig(
            envs=args.env, wrappers=args.wrapper, agents=args.agent, seeds=seeds,
            episodes=args.episodes, eval_episodes=args.eval_episodes,
            horizon=args.horizon, workers=os.cpu_count() or 1,
        )
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)  # validates workers
    run_sweep(cfg, out_path=args.out)
    print(f"sweep written to {args.out}")
    return 0


def _cmd_plot(args) -> int:
    if not os.path.exists(args.infile):
        raise ValidationError(f"input file not found: {args.infile}")
    render_plot(args.infile, args.out)
    print(f"plot written to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p):
    p.add_argument("--out", help="write the report/artifact here")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonmarkov",
        description="Reversible history aggregation: construction, exact "
                    "verification, and desk-scale experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-reversibility",
                       help="decode-after-aggregate error over random trajectories")
    p.add_argument("--trajectories", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0, help="RNG seed (>= 0)")
    _add_common(p)
    p.set_defaults(func=_cmd_verify_reversibility)

    p = sub.add_parser("verify-category",
                       help="history-abstraction round-trip check on a tabular process")
    p.add_argument("--env", default="chain:5")
    p.add_argument("--horizon", type=int, default=3)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_category)

    p = sub.add_parser("verify-morphism",
                       help="check a JSON-specified structure-preserving map")
    p.add_argument("--m", required=True, help="source process JSON file")
    p.add_argument("--m2", required=True, help="target process JSON file")
    p.add_argument("--map", required=True,
                   help='JSON file with "phi_S", "phi_A", "phi_R"')
    _add_common(p)
    p.set_defaults(func=_cmd_verify_morphism)

    p = sub.add_parser("analyze-deps",
                       help="empirical vs analytical dependency structure")
    p.add_argument("--env", default="chain:5")
    p.add_argument("--wrapper", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-histories", type=int, default=64)
    _add_common(p)
    p.set_defaults(func=_cmd_analyze_deps)

    p = sub.add_parser("run", help="train and evaluate one (env, wrapper, agent) cell")
    p.add_argument("--env", default="chain:5")
    p.add_argument("--wrapper", default="id")
    p.add_argument("--agent", default="qwin:1")
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--eval-episodes", type=int, default=100)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--seed", type=int, default=0, help="training seed (>= 0)")
    _add_common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a full experiment grid to CSV")
    p.add_argument("--config", help="SweepConfig JSON file")
    p.add_argument("--env", action="append", help="env id (repeatable)")
    p.add_argument("--wrapper", action="append", help="wrapper spec (repeatable)")
    p.add_argument("--agent", action="append", help="agent spec (repeatable)")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--episodes", type=int, default=2000)
    p.add_argument("--eval-episodes", type=int, default=100)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default: the config's workers, else cpu count)")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("plot", help="render a sweep CSV to a self-contained SVG")
    p.add_argument("--in", dest="infile", required=True, help="input CSV path")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
