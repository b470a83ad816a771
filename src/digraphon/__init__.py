"""Directed graph limits at desk scale.

Exact homomorphism and induced densities on digraphs and step kernels,
cut norms, complex spectra with algebraic multiplicities, W-random
sampling, and reproducible spectral-convergence experiments.
"""

from .digraph import (
    Digraph,
    UndirectedRegularGraph,
    automorphism_count,
    bidirected_double_cover,
    cycle_digraph,
    digraph_edgelist_text,
    digraph_from_edgelist,
    digraph_from_json,
    digraph_json_text,
    digraph_to_edgelist,
    empty_digraph,
    hom_count,
    hom_density,
    oneway_double_cover,
    random_regular_graph,
    sample_bidirected_random,
    sample_w_random,
    subgraph_density,
    trace_power,
)
from .errors import (
    BudgetError,
    DigraphonError,
    GenerationError,
    IsolationError,
    NumericalError,
    StructureError,
)
from .limits import (
    ConvergenceReport,
    ConvergenceRow,
    DoubleCoverReport,
    DoubleCoverRow,
    TraceCheckReport,
    convergence_experiment,
    convergence_report_json_text,
    convergence_report_to_csv,
    convergence_report_to_json,
    cycle_density_via_spectrum,
    double_cover_example,
    double_cover_report_to_csv,
    double_cover_report_to_json,
    step_sequence_convergence,
    trace_checks_to_csv,
    verify_trace_formula,
)
from .seeding import child_seed
from .spectra import (
    MultiplicityLedger,
    Spectrum,
    check_isolation,
    cluster_multiplicities,
    default_cluster_tol,
    digraph_spectrum,
    eigenvalues,
    hausdorff_distance,
    multiplicity_match,
    normalized_spectrum,
    singular_moment_bound,
    spectrum_to_csv,
    spectrum_to_json,
    step_spectrum,
)
from .stepkernel import (
    BidirectedStepPair,
    CutNormWitness,
    StepDigraphon,
    StepKernel,
    bidirected_crossing_pair,
    collapse,
    common_refinement,
    compose_step,
    cut_metric,
    cut_norm,
    cut_norm_witness,
    hom_density_pair,
    hom_density_step,
    kernel_from_json,
    kernel_to_json,
    nu_convergence_gaps,
    oneway_crossing_pair,
    op_norm_2to2,
    pair_from_json,
    pair_to_json,
    step_from_digraph,
    subgraph_density_step,
    uniform_measures,
)

__version__ = "0.1.0"
