"""Exact tooling for variable-setting constraint problems: generators,
table-driven resampling, witness-digraph verification, locality search,
and derandomized solving."""

from .csp import (
    AlwaysViolated,
    BadPredicate,
    Constraint,
    Csp,
    build_dependency_graph,
    csp_stats,
    dump_problem,
    is_solution,
    lll_condition,
    load_problem,
    prob_bad,
    quotient_csp,
    uniform_weights,
    violates,
)
from .derand import (
    PipelineParams,
    induction_step,
    parameter_advisor,
    pipeline,
    solve_double_exp,
    solve_edgeless,
)
from .generators import (
    hypergraph_2coloring,
    proper_coloring,
    sinkless_orientation,
)
from .graphs import FiniteGraph, GrowthProfile, ball, graph_from_edges, growth_profile
from .local_goodness import (
    LocalParams,
    build_lg_csp,
    estimate_lbad_prob,
    is_folner,
    is_locally_good,
    lbad_bound,
    lg_degree_check,
    local_csp,
)
from .moser_tardos import (
    MAXIMAL_GREEDY,
    MtSequence,
    RunTrace,
    check_consistency,
    mt_monte_carlo,
    mta_run,
)
from .tables import Table, sample_table
from .witness import (
    WitnessDigraph,
    compatibility_check,
    enumerate_sink_star,
    full_witness_digraph,
    validate_witness,
    verify_mt1,
    verify_mt2_partial_sums,
)

__version__ = "0.1.0"
