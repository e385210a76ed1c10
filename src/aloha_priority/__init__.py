"""Stability region of two interacting queues under slotted random access
with collision-feedback priority.

The package computes the region in closed form (dominant-system analysis
plus a quasi-birth-death solver), certifies the formulas against a
truncated-chain oracle built from the same slot dynamics, and checks both
against Monte Carlo simulation.
"""

from .errors import (
    AlohaError,
    ComplexSpectrumError,
    DegenerateParameterError,
    NoConvergenceError,
    SingularBlockError,
    SingularSystemError,
    UnstableParameterError,
)
from .model import (
    AccessProbabilities,
    ArrivalRates,
    DominanceMode,
    Phase,
    ProtocolKind,
    SlotOutcome,
    SystemState,
    advance_slot,
)
from .qbd import (
    QbdBlocks,
    ds2_pi0,
    ds2_service_rate_q1,
    ds2_service_rate_q1_series,
    ds2_stationary,
    qbd_blocks,
    rate_matrix_closed_form,
    solve_rate_matrix,
    spectral_radius,
    spectral_radius_closed_form,
)
from .simulate import (
    DEFAULT_SEED,
    SimulationConfig,
    SimulationMetrics,
    run,
    run_trajectory,
)
from .stability import (
    Ds1SteadyState,
    Ds3SteadyState,
    RegionVerdict,
    ds1_region_contains,
    ds1_rho,
    ds1_service_rate_q2,
    ds1_stationary,
    ds1_steady_state,
    ds2_region_contains,
    ds3_steady_state,
    optimal_p2,
    priority_boundary,
    ra_boundary,
    td_boundary,
    union_region_contains,
)
from .sweep import RegionDataset, compare_envelopes, sweep

__version__ = "0.1.0"
