"""Sequential-measurement game on odd N-cycle contextuality scenarios.

Exact analytics (transition matrix, affine recurrences, channel iteration),
exact classical bounds, and reproducible Monte Carlo simulation
of independent sequential observers.
"""

from .analytic import (
    MarkovMatrix,
    OptimalityReport,
    RecurrenceCoeffs,
    SequenceResult,
    Table1Row,
    aggregate_probability_vector,
    channel_sequence,
    context_probabilities,
    exact_sequence,
    extract_recurrence,
    markov_matrix,
    optimal_initial_state_check,
    protocol1_sequence,
    recurrence_sequence,
    table1,
)
from .errors import (
    DecompositionFailureError,
    InsufficientRunsError,
    InvariantBreachError,
    NCycleError,
    PairingError,
    SymmetryBreachError,
    UnsupportedScenarioError,
    ZeroProbabilityBranchError,
)
from .montecarlo import (
    ComparisonReport,
    GameConfig,
    Ordering,
    SimulationEstimate,
    compare_to_analytic,
    estimate_sequence,
)
from .protocols import (
    VIOLATION_EPS,
    FunctionalOperator,
    InequalityId,
    ProtocolId,
    Verdict,
    evaluate,
    functional_operator,
    measurement_set,
)
from .quantum import (
    AverageChannel,
    Channel,
    DensityMatrix,
    Projector,
    average_protocol_channel,
    born_probability,
    handle_state,
    maximally_mixed,
    pure_state,
    random_pure_state,
)
from .scenario import (
    ClassicalBounds,
    Scenario,
    build_scenario,
    enumerate_classical_bounds,
)

__version__ = "0.1.0"
