"""Reversible history aggregation over decision processes.

Construct non-Markovian decision processes from Markovian ones by
aggregating the state (and optionally reward) history through reversible
transforms, verify the structural guarantees exactly on finite instances,
and run desk-scale tabular experiments on the result.
"""

from .aggregators import (
    Filter,
    Kernel,
    NonInvertibleKernelError,
    band_kernel,
    compose_kernels,
    conv_spec,
    corr_spec,
    damp_spec,
    difference_power_spec,
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
from .agents import RandomAgent, WindowedQAgent, evaluate, parse_agent_spec, train
from .analysis import (
    DependencyStructure,
    HistoryMDP,
    StateExplosionError,
    analytical_dependency,
    build_markov_abstraction,
    build_nonmarkov_embedding,
    compose_morphisms,
    empirical_dependency,
    reachable_histories,
    verify_equivalence_roundtrip,
    verify_morphism,
)
from .core import (
    FiniteMDP,
    History,
    NMDPOracle,
    Outcome,
    UndecodableHistoryError,
    ValidationError,
    initial_history,
    is_degenerate,
    load_mdp,
    mdp_from_dict,
    mdp_to_json,
    save_mdp,
)
from .envs import (
    Environment,
    EpisodeFinishedError,
    FiniteMDPEnv,
    make_chain,
    make_env,
    make_mdp_from_id,
    make_random_mdp,
    optimal_return,
    value_iteration,
)
from .experiments import SweepConfig, render_plot, run_sweep
from .wrappers import AggregatedMDPOracle, WrappedEnvironment, as_nmdp_oracle, wrap

__version__ = "0.1.0"
