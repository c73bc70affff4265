"""Migration-aware VM consolidation toolkit.

Exact-arithmetic vector bin packing with a migration-cost objective: the
BalCon heuristic with Force Steps, Sercon-style baselines, a brute-force
oracle for desk-scale optima, LP-format integer-program export, a seeded
synthetic instance generator, and an evaluation harness.
"""

from .classify import (
    ClusterClass,
    DEFAULT_ALPHA,
    Stash,
    balance_factor,
    capacity,
    classify,
    potential_capacity,
)
from .datagen import GenConfig, GenerationError, generate_flavors, generate_instance, instance_balance_factor
from .evaluate import (
    ALGORITHMS,
    GapRecord,
    SweepPoint,
    gap,
    mean_gap,
    mph_sweep,
    performance_profile,
)
from .ilp import (
    EmitCounts,
    ModelKind,
    SolutionError,
    emit_allocation_model,
    emit_flavor_flow_model,
    emit_model,
    expected_counts,
    lp_entity_counts,
    read_solution,
)
from .model import (
    Flavor,
    Host,
    InfeasibleInstanceError,
    Instance,
    InstanceFormatError,
    Mapping,
    ObjectiveWeights,
    ResourceVec,
    VM,
    host_migration_cost,
    instance_from_dict,
    instance_to_dict,
    instance_with_mapping,
    load_instance,
    migrated_memory,
    migration_costs,
    objective,
    save_instance,
    surrogate_load,
    vm_size,
)
from .oracle import (
    OracleLimits,
    OracleResult,
    OracleSizeError,
    brute_force_optimal,
    min_active_hosts_bound,
)
from .sercon import sercon_modified, sercon_original
from .solver import (
    RepeatsProhibitor,
    ResourceToggle,
    RunReport,
    SolverParams,
    balcon,
    best_fit,
    choose_host_balanced,
    choose_host_lopsided,
    force_fit,
    force_fit_balanced,
    force_fit_lopsided,
)

__version__ = "0.1.0"
