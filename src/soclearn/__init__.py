"""Networked social learning with informativeness-triggered communication.

Agents on a communication graph learn a hidden state from private
signals. Each round, an agent shares its accumulated evidence with a
neighbor only when one of them found its fresh signal uninformative,
so the network pays for communication exactly when private data stops
being enough.
"""

from .analysis import (
    IdentifiabilityReport,
    ValidationReport,
    equivalence_classes,
    estimate_rate,
    identifiability_report,
    mixing_gap,
    product_convergence_gap,
    validate_assumptions,
)
from .harness import (
    BaselineComparison,
    ExperimentConfig,
    TrajectoryRecord,
    build_likelihoods,
    build_model,
    compare_baseline,
    distinguished_state,
    export,
    reference_config,
    run_experiment,
)
from .learning import (
    BeliefState,
    belief_from_potentials,
    binary_informative,
    binary_tv,
    initial_state,
    potential_update,
    run_round,
)
from .model import (
    AssumptionViolation,
    LikelihoodModel,
    Network,
    Prior,
    StateSpace,
    complete_edges,
    generate_signals,
    metropolis_weights,
    ring_edges,
)
from .switching import (
    CommLedger,
    SwitchingMatrix,
    build_switching_matrix,
    record_round,
)

__version__ = "0.1.0"
