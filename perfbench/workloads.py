"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next item starts when the
previous one returns.  Items come in blocks of fixed composition, generated
from (seed, block index), and a run executes whole blocks only, so the mix of
cheap and expensive items is the same in every run.

A workload provides:
  setup()                construction and warm-up, timed as part of setup_s;
  block(b)               the items of block b (input generation, untimed);
  compute(item, tracer)  the timed calls into the package;
  check(item, out)       the output check, returning (ok, work units, reason);
  counts                 exact counts accumulated by check();
  notes(summary)         extra report lines, given the span summary of a
                         traced pass or None after an untraced one.
"""
from __future__ import annotations

import csv
import hashlib
import io
from collections import Counter

import numpy as np

from nonmarkov.agents import ExactDiscretizer, evaluate, parse_agent_spec, train
from nonmarkov.aggregators import har_aggregate, har_decode, parse_har_spec, parse_spec
from nonmarkov.analysis import (
    HistoryMDP,
    analytical_dependency,
    build_markov_abstraction,
    build_nonmarkov_embedding,
    empirical_dependency,
    reachable_histories,
    verify_equivalence_roundtrip,
)
from nonmarkov.core import FiniteMDP, Outcome
from nonmarkov.envs import make_chain, make_env, make_random_mdp, optimal_return
from nonmarkov.experiments import SweepConfig, run_sweep
from nonmarkov.wrappers import as_nmdp_oracle, wrap

from tracing import TracedDiscretizer, TracedEnv, TracedOracle


def _rng(seed: int, tag: int, block: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, block))


class Workload:
    name = ""
    unit = ""  # what one work unit is
    item_name = ""
    tag = 0  # separates the random streams of different workloads
    host_scaled = True  # whether item times are scaled by the measured host speed

    def __init__(self, seed: int):
        self.seed = seed
        self.counts = Counter()
        # set by the runner for the untraced pass that precedes a traced one
        self.reference_pass = False

    def trace_setup(self, tracer) -> None:
        """Build the proxies a traced pass passes into the package."""

    def notes(self, summary) -> list:
        return []


def _share(summary, name: str) -> str:
    items = summary.total("bench.item")
    pct = 100.0 * summary.total(name) / items if items else 0.0
    return (f"{name} share: {pct:.1f}% of traced item time ({summary.count(name)} "
            f"calls over {summary.count('bench.item')} items)")


# ---------------------------------------------------------------------------
# learn: the degradation sweep
# ---------------------------------------------------------------------------

class Learn(Workload):
    """Serial sweep cells on chain:5:0.4 at horizon 8, one cell per item.

    Untraced, each item is `run_sweep` over a one-cell grid, so the CSV bytes
    are the package's own.  Traced, each item makes the same calls a sweep
    cell makes (make_env, wrap, parse_agent_spec, train, evaluate) with a
    traced environment under and over the wrappers and a traced discretizer.
    """

    name = "learn"
    unit = "env steps"
    item_name = "cell"
    tag = 1
    ENV = "chain:5:0.4"
    HORIZON = 8
    WRAPPERS = ("S^0", "S^1", "S^3", "D^2", "S_l:0.5")
    AGENTS = ("qwin:1", "qwin:2")

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.episodes, self.eval_episodes = (30, 5) if tiny else (2000, 100)
        self.reference = {}  # item -> mean return from an untraced pass
        self.csv_digest = hashlib.sha256()
        self.q_keys = {}  # (wrapper, agent) -> Q-table keys after training, block 0

    def _config(self, wrapper, agent, seed, episodes=None, eval_episodes=None):
        return SweepConfig(envs=[self.ENV], wrappers=[wrapper], agents=[agent],
                           seeds=[seed], episodes=episodes or self.episodes,
                           eval_episodes=eval_episodes or self.eval_episodes,
                           horizon=self.HORIZON, workers=1,
                           record_walltime=self.reference_pass)

    def setup(self):
        for w in self.WRAPPERS:
            parse_spec(w)
        run_sweep(self._config(self.WRAPPERS[1], self.AGENTS[0], 0,
                               episodes=20, eval_episodes=2))

    def block(self, b):
        cell_seed = int(_rng(self.seed, self.tag, b).integers(2 ** 31 - 10_001))
        return [(b, w, a, cell_seed) for w in self.WRAPPERS for a in self.AGENTS]

    def compute(self, item, tracer):
        _, wrapper, agent_spec, seed = item
        if not tracer.enabled:
            return {"csv": run_sweep(self._config(wrapper, agent_spec, seed))}
        with tracer.span("envs.make_env"):
            inner = TracedEnv(make_env(self.ENV, max_steps=self.HORIZON), tracer, "envs")
        with tracer.span("wrappers.wrap"):
            env = TracedEnv(wrap(inner, parse_spec(wrapper)), tracer, "wrappers")
        with tracer.span("agents.parse_agent_spec"):
            agent = parse_agent_spec(agent_spec, env.num_actions,
                                     discretizer=TracedDiscretizer(ExactDiscretizer(), tracer))
        with tracer.span("agents.train"):
            train(agent, env, episodes=self.episodes, seed=seed, horizon=self.HORIZON)
        with tracer.span("agents.evaluate"):
            mean, _, returns = evaluate(agent, env, episodes=self.eval_episodes,
                                        horizon=self.HORIZON, seed=seed + 10_000)
        return {"mean": mean, "returns": returns, "q_keys": len(agent.q)}

    def check(self, item, out):
        units = (self.episodes + self.eval_episodes) * self.HORIZON
        self.counts["cells"] += 1
        if "csv" in out:
            if not self.reference_pass and item[0] == 0:
                self.csv_digest.update(out["csv"].encode())
            rows = list(csv.DictReader(io.StringIO(out["csv"])))
            if len(rows) != 1 or rows[0]["status"] != "ok":
                return False, units, f"cell status {[r['status'] for r in rows]}"
            mean = float(rows[0]["mean_return"])
            self.reference[item] = mean
            self.counts["env_steps"] += units
            if self.reference_pass:
                self.counts["sweep_cell_ms"] += float(rows[0]["wall_ms"])
            if not 0.0 <= mean <= self.HORIZON:
                return False, units, f"mean return {mean} outside [0, {self.HORIZON}]"
            return True, units, ""
        self.counts["q_keys"] += out["q_keys"]
        self.counts["env_steps"] += units
        if item[0] == 0:
            self.q_keys[item[1:3]] = out["q_keys"]
        if not all(0.0 <= r <= self.HORIZON for r in out["returns"]):
            return False, units, f"a return lies outside [0, {self.HORIZON}]"
        ref = self.reference.get(item)
        if ref is not None and abs(ref - out["mean"]) > 1e-5 * max(1.0, abs(ref)):
            return False, units, f"traced mean return {out['mean']} != untraced {ref}"
        return True, units, ""

    def notes(self, summary):
        if summary is None:
            return [f"csv_sha256 (block 0, informational) = {self.csv_digest.hexdigest()}"]
        return ["q_keys per cell (block 0): " + ", ".join(
            f"{w}/{a}={n}" for (w, a), n in self.q_keys.items())]


# ---------------------------------------------------------------------------
# deps: exhaustive dependency structure
# ---------------------------------------------------------------------------

class Deps(Workload):
    """empirical_dependency and analytical_dependency for every reachable
    chain:5 history with t <= 7 under four aggregators; one history per item.

    The seed only orders the items; a block is one pass over all of them.
    """

    name = "deps"
    unit = "histories"
    item_name = "history"
    tag = 2
    SPECS = ("S^2", "conv:1,-0.5", "S_l:0.5", "D^1")

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.max_t = 3 if tiny else 7

    def setup(self):
        m = make_chain(5)
        self.pool = list(m.embedding)
        self.specs = [parse_spec(text) for text in self.SPECS]
        self.oracles = [as_nmdp_oracle(m, spec) for spec in self.specs]
        self.items = [(k, h) for k, oracle in enumerate(self.oracles)
                      for h in reachable_histories(oracle, max_t=self.max_t)]
        for k, h in self.items[:2]:
            empirical_dependency(self.oracles[k], h, self.pool)

    def trace_setup(self, tracer):
        self.traced = [TracedOracle(o, tracer, "wrappers") for o in self.oracles]

    def block(self, b):
        order = _rng(self.seed, self.tag, b).permutation(len(self.items))
        return [self.items[i] for i in order]

    def compute(self, item, tracer):
        k, h = item
        oracle = self.traced[k] if tracer.enabled else self.oracles[k]
        with tracer.span("analysis.empirical_dependency"):
            emp = empirical_dependency(oracle, h, self.pool)
        with tracer.span("analysis.analytical_dependency"):
            ana = analytical_dependency(self.specs[k], h.t)
        return emp, ana

    def check(self, item, out):
        emp, ana = out
        self.counts["histories"] += 1
        self.counts["undecodable"] += emp.undecodable
        if emp.indices != ana.indices:
            return False, 1, (f"{self.SPECS[item[0]]} t={item[1].t}: empirical "
                              f"{emp.indices} != analytical {ana.indices}")
        return True, 1, ""

    def notes(self, summary):
        if summary is None:
            return []
        return [_share(summary, "wrappers.oracle_transition")]


# ---------------------------------------------------------------------------
# category: history abstraction round trip
# ---------------------------------------------------------------------------

def _mutant(hm: HistoryMDP, rng) -> HistoryMDP:
    """The abstraction with 1e-6 of probability moved inside one random
    multi-branch cell, or a reward shifted by 1e-6 if every cell is
    deterministic.  Built with the public FiniteMDP constructor."""
    m = hm.mdp
    rows = [list(r) for r in m.outcomes]
    cells = [(i, a) for i, r in enumerate(rows) for a, lst in enumerate(r) if len(lst) >= 2]
    if cells:
        i, a = cells[int(rng.integers(len(cells)))]
        lst = list(rows[i][a])
        lst[0] = Outcome(lst[0].next_state, lst[0].reward, lst[0].prob + 1e-6)
        lst[1] = Outcome(lst[1].next_state, lst[1].reward, lst[1].prob - 1e-6)
    else:
        i, a = 0, 0
        lst = list(rows[0][0])
        lst[0] = Outcome(lst[0].next_state, lst[0].reward + 1e-6, lst[0].prob)
    rows[i][a] = tuple(lst)
    mutated = FiniteMDP(num_states=m.num_states, num_actions=m.num_actions, rho0=m.rho0,
                        outcomes=tuple(tuple(r) for r in rows), embedding=m.embedding)
    return HistoryMDP(mdp=mutated, histories=hm.histories)


class Category(Workload):
    """build_nonmarkov_embedding -> build_markov_abstraction ->
    verify_equivalence_roundtrip on seeded random 4x2x2 processes and
    chain:5, one instance per item, plus a mutant that must be caught and
    an optimum that must be preserved.

    A block holds chain:5 and six random processes at horizon 3 (340
    history states each) and one random process at horizon 4 (1,364
    states), so that the O(S^2) table construction shows at two sizes.
    """

    name = "category"
    unit = "history states"
    item_name = "instance"
    tag = 3
    host_scaled = False  # see CALIB_REF_S in run.py

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.horizons = (2, 2, 3) if tiny else (3,) * 7 + (4,)
        self.embed = build_nonmarkov_embedding

    def setup(self):
        m = make_chain(3)
        verify_equivalence_roundtrip(m, 2)
        optimal_return(m, 2)

    def trace_setup(self, tracer):
        self.embed = lambda m: TracedOracle(build_nonmarkov_embedding(m), tracer, "analysis")

    def block(self, b):
        rng = _rng(self.seed, self.tag, b)
        items = []
        for j, horizon in enumerate(self.horizons):
            mutant_seed = int(rng.integers(2 ** 31))
            if j == 0:
                items.append(("chain:5", make_chain(5), horizon, mutant_seed))
            else:
                s = int(rng.integers(2 ** 31))
                items.append((f"random:{s}:4:2:2", make_random_mdp(s, 4, 2, 2),
                              horizon, mutant_seed))
        return items

    def compute(self, item, tracer):
        _, m, horizon, mutant_seed = item
        with tracer.span("analysis.build_nonmarkov_embedding"):
            oracle = self.embed(m)
        with tracer.span("analysis.build_markov_abstraction"):
            hm = build_markov_abstraction(oracle, horizon)
        with tracer.span("analysis.verify_roundtrip"):
            rep = verify_equivalence_roundtrip(m, horizon, abstraction=hm)
        with tracer.span("core.finite_mdp"):
            bad = _mutant(hm, np.random.default_rng(mutant_seed))
        with tracer.span("analysis.verify_roundtrip"):
            rep_bad = verify_equivalence_roundtrip(m, horizon, abstraction=bad)
        with tracer.span("envs.optimal_return"):
            opt_abs = optimal_return(hm.mdp, horizon)
        with tracer.span("envs.optimal_return"):
            opt = optimal_return(m, horizon)
        return {"states": hm.mdp.num_states, "pass": rep["pass"],
                "mutant_pass": rep_bad["pass"], "gap": abs(opt_abs - opt)}

    def check(self, item, out):
        units = out["states"]
        self.counts["instances"] += 1
        self.counts["histories_interned"] += units
        if not out["pass"]:
            return False, units, f"{item[0]} h={item[2]}: round trip failed"
        if out["mutant_pass"]:
            return False, units, f"{item[0]} h={item[2]}: mutant not detected"
        if out["gap"] > 1e-9:
            return False, units, f"{item[0]} h={item[2]}: optimum differs by {out['gap']:.3g}"
        return True, units, ""

    def notes(self, summary):
        if summary is None:
            return []
        return [_share(summary, "core.finite_mdp") + "; one FiniteMDP(...) per instance, "
                "the mutant built on the abstraction's own fields. build_markov_abstraction "
                "makes one more of the same size, counted in analysis self time"]


# ---------------------------------------------------------------------------
# roundtrip: batch aggregate + decode
# ---------------------------------------------------------------------------

class Roundtrip(Workload):
    """parse_spec(x).aggregate then .decode on seeded random trajectories
    (length 64-512, dimension 1-6) for eight state aggregators, and
    har_aggregate / har_decode on a reward stream for two reward aggregators;
    one trajectory per item, sixteen per block.
    """

    name = "roundtrip"
    unit = "aggregator-steps"
    item_name = "trajectory"
    tag = 4
    STATE_SPECS = ("S^1", "S^3", "D^3", "S_l:0.5", "D_l:0.8",
                   "conv:1,-0.5,0.25,-0.125", "S^1+D_l:0.8")
    REWARD_SPECS = ("sum", "conv:1,-0.5")
    TOL = 1e-6

    def __init__(self, seed, tiny=False):
        super().__init__(seed)
        self.lengths = (8, 16) if tiny else (64, 512)
        self.per_block = 3 if tiny else 16

    def setup(self):
        weights = np.random.default_rng((self.seed, self.tag)).uniform(0.5, 1.5, size=self.lengths[1])
        corr = "corr:" + ",".join(repr(float(w)) for w in weights)
        self.specs = [parse_spec(text) for text in self.STATE_SPECS + (corr,)]
        self.har_specs = [parse_har_spec(text) for text in self.REWARD_SPECS]
        x = np.linspace(-1.0, 1.0, 8).reshape(4, 2)
        for spec in self.specs:
            spec.decode(spec.aggregate(x))

    def block(self, b):
        rng = _rng(self.seed, self.tag, b)
        items = []
        for _ in range(self.per_block):
            n = int(rng.integers(self.lengths[0], self.lengths[1] + 1))
            k = int(rng.integers(1, 7))
            items.append((rng.uniform(-1.0, 1.0, size=(n, k)),
                          list(rng.uniform(-1.0, 1.0, size=n))))
        return items

    def compute(self, item, tracer):
        traj, rewards = item
        backs = []
        for spec in self.specs:
            with tracer.span("aggregators.aggregate"):
                g = spec.aggregate(traj)
            with tracer.span("aggregators.decode"):
                backs.append(spec.decode(g))
        har_backs = []
        for spec in self.har_specs:
            with tracer.span("aggregators.har"):
                har_backs.append(har_decode(spec, har_aggregate(spec, rewards)))
        return backs, har_backs

    def check(self, item, out):
        traj, rewards = item
        backs, har_backs = out
        n = traj.shape[0]
        self.counts["trajectories"] += 1
        self.counts["state_steps"] += n * len(self.specs)
        self.counts["reward_steps"] += n * len(self.har_specs)
        units = n * (len(self.specs) + len(self.har_specs))
        r = np.asarray(rewards)
        err = max([float(np.max(np.abs(np.asarray(b) - traj))) for b in backs]
                  + [float(np.max(np.abs(np.asarray(b) - r))) for b in har_backs])
        self.counts["max_err"] = max(self.counts["max_err"], err)
        if not err <= self.TOL:
            return False, units, f"round-trip error {err:.3g} > {self.TOL:g}"
        return True, units, ""


WORKLOADS = {w.name: w for w in (Learn, Deps, Category, Roundtrip)}
