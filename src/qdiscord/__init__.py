"""Mixed-state trace-estimation circuit simulation, exact quantum discord,
and the correlation-matrix rank witness with Monte Carlo error propagation."""

from .linalg import (
    DensityMatrix,
    PauliLabel,
    pauli_labels,
    pauli_realize,
    random_density_matrix,
    tensor,
    von_neumann_entropy,
)
from .dqc1 import (
    Dqc1Instance,
    haar_random_unitary,
    input_state,
    jones_unitary,
    load_unitary_json,
    output_state,
    trace_estimate,
)
from .discord import (
    DiscordResult,
    MeasurementBasis,
    MinimizerOptions,
    ScalingFit,
    ScalingFitError,
    discord,
    discord_at_small_polarization,
    dqc1_discord,
    fit_polarization_scaling,
    haar_discord_survey,
    is_zero_discord,
    mutual_information,
)
from .witness import (
    ColumnPolicy,
    ColumnSource,
    CorrelationMatrix,
    SingularValueDistribution,
    WitnessVerdict,
    column_combination_scan,
    correlation_matrix,
    default_tau,
    extract_columns,
    monte_carlo_svd,
    rank_lower_bound,
    reconstruct_state,
    witness_procedure,
    write_histogram_csvs,
    z_sector_first_policy,
)
from .nmr import (
    NmrEnsemble,
    boltzmann_polarization,
    embed,
    load_ensemble,
    measured_correlation_matrix,
    simulate_measurement,
    verdict_polarization_invariance,
)
from .states import named_state, eq3_fixture

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "PauliLabel", "pauli_labels", "pauli_realize", "random_density_matrix",
    "tensor", "von_neumann_entropy",
    "Dqc1Instance", "haar_random_unitary", "input_state", "jones_unitary",
    "load_unitary_json", "output_state", "trace_estimate",
    "DiscordResult", "MeasurementBasis", "MinimizerOptions", "ScalingFit",
    "ScalingFitError", "discord", "discord_at_small_polarization", "dqc1_discord",
    "fit_polarization_scaling", "haar_discord_survey", "is_zero_discord", "mutual_information",
    "ColumnPolicy", "ColumnSource", "CorrelationMatrix", "SingularValueDistribution",
    "WitnessVerdict", "column_combination_scan", "correlation_matrix", "default_tau",
    "extract_columns", "monte_carlo_svd", "rank_lower_bound", "reconstruct_state",
    "witness_procedure", "write_histogram_csvs", "z_sector_first_policy",
    "NmrEnsemble", "boltzmann_polarization", "embed", "load_ensemble",
    "measured_correlation_matrix", "simulate_measurement", "verdict_polarization_invariance",
    "named_state", "eq3_fixture",
]
