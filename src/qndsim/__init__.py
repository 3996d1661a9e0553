"""Simulator for tunable quadrature measurement chains.

A signal mode is mixed with a Gaussian probe in a phase-tunable
interferometer; one output port is read by homodyne detection while the
other is displaced according to the outcome and then squeezed.  Varying the
probe width (or the phase) moves the chain continuously between a
projective readout and a non-destructive pass-through, and the package
quantifies that trade-off with state and distribution fidelities.
"""

from .chain import (
    JointWaveFunction,
    Outcome,
    beam_splitter_transform,
    conditional_output,
    conditional_state_raw,
    feedback_displace,
    homodyne_distribution,
    make_outcome,
    outcome_grid,
    output_squeeze,
    sample_outcomes,
)
from .errors import (
    BracketError,
    DegeneratePhaseError,
    GridMismatchError,
    GridTooNarrowError,
    InvalidParameterError,
    NonFiniteObjectiveError,
    NoSignChangeError,
    NullOutcomeError,
    QndSimError,
)
from .fidelity import (
    DensityMatrixGrid,
    FidelityPair,
    distribution_fidelity,
    gaussian_distribution_fidelity,
    gaussian_state_fidelity,
    output_ensemble,
    state_fidelity,
    state_fidelity_via_transfer,
    transfer_function,
)
from .grids import (
    VACUUM_VARIANCE,
    CatSpec,
    Distribution,
    GaussianSpec,
    Grid,
    GridPolicy,
    WaveFunction,
    auto_grid,
    build_cat,
    build_gaussian,
    build_state,
    density,
    overlap,
    parse_state_spec,
    photon_number_paper,
)
from .optimize import (
    TradeOffReport,
    equal_fidelity_point,
    gaussian_trade_off_report,
    maximize_trade_off,
    numeric_trade_off_curve,
    numeric_trade_off_report,
    trade_off,
    tune_phase,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CatSpec",
    "DegeneratePhaseError",
    "DensityMatrixGrid",
    "Distribution",
    "FidelityPair",
    "GaussianSpec",
    "Grid",
    "GridMismatchError",
    "GridPolicy",
    "GridTooNarrowError",
    "InvalidParameterError",
    "JointWaveFunction",
    "NonFiniteObjectiveError",
    "NoSignChangeError",
    "NullOutcomeError",
    "Outcome",
    "QndSimError",
    "TradeOffReport",
    "VACUUM_VARIANCE",
    "WaveFunction",
    "auto_grid",
    "beam_splitter_transform",
    "build_cat",
    "build_gaussian",
    "build_state",
    "conditional_output",
    "conditional_state_raw",
    "density",
    "distribution_fidelity",
    "equal_fidelity_point",
    "feedback_displace",
    "gaussian_distribution_fidelity",
    "gaussian_state_fidelity",
    "gaussian_trade_off_report",
    "homodyne_distribution",
    "make_outcome",
    "maximize_trade_off",
    "numeric_trade_off_curve",
    "numeric_trade_off_report",
    "outcome_grid",
    "output_ensemble",
    "output_squeeze",
    "overlap",
    "parse_state_spec",
    "photon_number_paper",
    "sample_outcomes",
    "state_fidelity",
    "state_fidelity_via_transfer",
    "trade_off",
    "transfer_function",
    "tune_phase",
]
