"""Deterministic sweep runner over (env, wrapper, agent, seed) grids.

Results are emitted as sorted CSV rows with fixed float formatting so that
identical configs produce byte-identical files, regardless of worker count
or scheduling.  A small self-contained SVG renderer plots mean return
against the wrapper parameter per (agent, wrapper family) series.
"""
from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .agents import evaluate, parse_agent_spec, train
from .aggregators import parse_spec
from .core import ValidationError
from .envs import make_env
from .wrappers import wrap

CSV_HEADER = ["env", "wrapper_family", "param", "agent", "seed",
              "mean_return", "std_return", "episodes", "status", "wall_ms"]


@dataclass
class SweepConfig:
    envs: list
    wrappers: list
    agents: list
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    episodes: int = 2000
    eval_episodes: int = 100
    horizon: int = 8
    workers: int = 1
    record_walltime: bool = False

    def __post_init__(self):
        if not (self.envs and self.wrappers and self.agents and self.seeds):
            raise ValidationError("sweep grid must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValidationError("sweep seeds must be distinct")

    @classmethod
    def from_json(cls, path: str) -> "SweepConfig":
        with open(path) as f:
            data = json.load(f)
        return cls(**data)


def wrapper_family(spec_str: str):
    """Split a wrapper spec into (family, numeric parameter)."""
    s = spec_str.strip()
    if s == "id":
        return "id", 0.0
    if s.startswith("S^"):
        return "S", float(s[2:])
    if s.startswith("D^"):
        return "D", float(s[2:])
    if s.startswith("S_l:"):
        return "S_l", float(s[4:])
    if s.startswith("D_l:"):
        return "D_l", float(s[4:])
    return s, 0.0


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _run_cell(args: dict) -> dict:
    row = {
        "env": args["env"],
        "wrapper_family": args["family"],
        "param": _fmt(args["param"]),
        "agent": args["agent"],
        "seed": str(args["seed"]),
        "episodes": str(args["episodes"]),
        "status": "ok",
        "mean_return": "",
        "std_return": "",
        "wall_ms": "0",
    }
    start = time.perf_counter()
    try:
        env = wrap(make_env(args["env"], max_steps=args["horizon"]),
                   parse_spec(args["wrapper"]))
        agent = parse_agent_spec(args["agent"], env.num_actions)
        train(agent, env, episodes=args["episodes"], seed=args["seed"],
              horizon=args["horizon"])
        mean, std, _ = evaluate(agent, env, episodes=args["eval_episodes"],
                                horizon=args["horizon"], seed=args["seed"] + 10_000)
        row["mean_return"] = _fmt(mean)
        row["std_return"] = _fmt(std)
    except Exception as exc:  # cell failures become rows, the sweep continues
        row["status"] = f"error:{type(exc).__name__}"
    if args["record_walltime"]:
        row["wall_ms"] = str(int((time.perf_counter() - start) * 1000))
    return row


def run_sweep(cfg: SweepConfig, out_path: str = None) -> str:
    """Run every grid cell and return the CSV text (optionally written to out_path)."""
    cells = []
    for env_id in cfg.envs:
        for wrapper in cfg.wrappers:
            family, param = wrapper_family(wrapper)
            for agent in cfg.agents:
                for seed in cfg.seeds:
                    cells.append({
                        "env": env_id, "wrapper": wrapper, "family": family,
                        "param": param, "agent": agent, "seed": seed,
                        "episodes": cfg.episodes, "eval_episodes": cfg.eval_episodes,
                        "horizon": cfg.horizon,
                        "record_walltime": cfg.record_walltime,
                    })
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_run_cell, cells))
    else:
        rows = [_run_cell(c) for c in cells]

    rows.sort(key=lambda r: (r["env"], r["wrapper_family"], float(r["param"]),
                             r["agent"], int(r["seed"])))
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        with open(out_path, "w", newline="") as f:
            f.write(text)
    return text


# ---------------------------------------------------------------------------
# plotting
# ---------------------------------------------------------------------------

class CSVFormatError(ValueError):
    """Malformed results CSV, with the offending line number."""


def _read_results(csv_path: str):
    rows = []
    with open(csv_path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_HEADER:
            raise CSVFormatError(f"{csv_path}: line 1: unexpected header {reader.fieldnames}")
        for lineno, row in enumerate(reader, start=2):
            if row["status"] != "ok":
                continue
            try:
                rows.append({
                    "agent": row["agent"],
                    "family": row["wrapper_family"],
                    "param": float(row["param"]),
                    "mean": float(row["mean_return"]),
                })
            except (TypeError, ValueError) as exc:
                raise CSVFormatError(f"{csv_path}: line {lineno}: {exc}") from exc
    if not rows:
        raise CSVFormatError(f"{csv_path}: no data rows")
    return rows


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def render_plot(csv_path: str, out_path: str) -> str:
    """Render mean return vs. wrapper parameter, one polyline per
    (agent, wrapper family) series with across-seed error bars."""
    rows = _read_results(csv_path)
    series = {}
    for r in rows:
        series.setdefault((r["agent"], r["family"]), {}).setdefault(r["param"], []).append(r["mean"])

    width, height, margin = 640, 420, 60
    xs = sorted({r["param"] for r in rows})
    all_means = [m for pts in series.values() for vals in pts.values() for m in vals]
    y_lo, y_hi = min(all_means), max(all_means)
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi - x_lo < 1e-12:
        x_hi = x_lo + 1.0

    def sx(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">wrapper parameter</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height / 2:.1f})">average episode return</text>',
    ]
    for idx, ((agent, family), pts) in enumerate(sorted(series.items())):
        color = _COLORS[idx % len(_COLORS)]
        coords = []
        for x in sorted(pts):
            vals = pts[x]
            mean = sum(vals) / len(vals)
            std = (sum((v - mean) ** 2 for v in vals) / len(vals)) ** 0.5
            px, py = sx(x), sy(mean)
            coords.append(f"{px:.2f},{py:.2f}")
            if std > 0:
                parts.append(
                    f'<line x1="{px:.2f}" y1="{sy(mean - std):.2f}" '
                    f'x2="{px:.2f}" y2="{sy(mean + std):.2f}" stroke="{color}"/>')
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3" fill="{color}"/>')
        parts.append(
            f'<polyline points="{" ".join(coords)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        parts.append(
            f'<text x="{width - margin + 5}" y="{margin + 16 * idx}" font-size="11" '
            f'fill="{color}">{agent}/{family}</text>')
    parts.append("</svg>")
    svg = "\n".join(parts)
    with open(out_path, "w") as f:
        f.write(svg)
    return svg
