"""Greedy sparse approximation for smooth convex objectives.

Weak Chebyshev / relaxed / free-relaxation greedy algorithms over symmetric
dictionaries (finite column dictionaries and the rank-one matrix dictionary),
with certified atom selection, convergence-theory helpers, and a
reproducible experiment harness.
"""

from .objectives import (
    DimensionMismatchError,
    NonFiniteEnergyError,
    Objective,
    SmoothnessParams,
    check_smoothness_inequality,
    empirical_modulus,
    l2_norm,
    lr_norm,
    make_least_squares,
    make_logistic,
    make_norm_power,
)
from .dictionaries import (
    Atom,
    FiniteDictionary,
    RankOneDictionary,
    SelectionCertificate,
    UnsupportedDictionaryError,
    WeaknessCertificationError,
    select_e_greedy_fixed,
    select_gradient_greedy,
    synthesis_l1,
)
from .inner_solvers import (
    LineSearchError,
    LineSearchResult,
    NonConvexityError,
    SliceResult,
    SubspaceToleranceError,
    UnboundedBelowError,
    line_search,
    minimize_on_slice,
    minimize_subspace,
)
from .algorithms import (
    BestStep,
    Chebyshev,
    ConvexRelaxation,
    FixedRelaxation,
    FreeRelaxation,
    GreedyRunError,
    IterationRecord,
    MonotonicityError,
    Prescribed,
    ReducedStep,
    RunTrace,
    StopReason,
    StopRule,
    WeaknessSequence,
    run_greedy,
)
from .theory import (
    EnvelopeReport,
    InsufficientDataError,
    RecurrenceReport,
    check_envelope,
    fit_power_slope,
    solve_xi,
    solve_xi_flagged,
    theta0,
    verify_recurrence,
    xi_closed_form,
)
from .instances import (
    SynthesisCertificate,
    gen_compressed_sensing,
    gen_low_rank,
    gen_lp_approx,
    verify_certificate,
)
from .experiment import (
    ConfigError,
    ExperimentResult,
    build_instance,
    config_hash,
    load_config,
    omp_reference,
    run_experiment,
    run_verification_suite,
    signal_coefficients,
    validate_config,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
