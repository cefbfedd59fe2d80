"""Joint function-chain embedding and lightpath topology design toolkit.

Compiles scenarios into an exact quadratically constrained model or a
piecewise-linear approximation, talks to external solvers through a small
adapter contract, validates solutions against the exact delay model, and
certifies desk-size optima with an exhaustive reference solver.
"""

from .approx import (
    ApproxError,
    Partition,
    PathTable,
    QueuePartitions,
    build_milp,
    compute_partition,
    eval_gtilde,
    interpolate_xi,
    minimal_base_points,
    resolve_partitions,
    shortest_paths,
)
from .delays import (
    EmbeddingView,
    ValidationReport,
    build_embedding_view,
    exact_path_delay,
    request_lateness,
    validate,
)
from .exact import BigMPolicy, build_miqcp, compute_bigM
from .optmodel import (
    Assignment,
    Constraint,
    Model,
    ModelError,
    SolutionError,
    SOS2Set,
    Variable,
    emit_lp,
    emit_model,
    emit_mps,
    model_stats,
    objective_value,
    parse_solution,
    write_model,
)
from .oracle import (
    OracleLimits,
    OracleResult,
    OracleScaleError,
    as_assignment,
    solve_exhaustive,
    solve_sequential_baseline,
)
from .scenario import (
    ApproxConfig,
    BigMConfig,
    ForwardingGraph,
    ObjectiveWeights,
    QueueApprox,
    Request,
    Scenario,
    ScenarioError,
    SubstrateNetwork,
    builtin_topology,
    dumps_scenario,
    load_scenario,
    loads_scenario,
    motivation_scenario,
    permutation_scenario,
    propagate_rate_bounds,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
