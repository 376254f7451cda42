"""Mixed-state trace-estimation circuit simulation, exact quantum discord,
and the correlation-matrix rank witness with Monte Carlo error propagation."""

from .linalg import (
    DensityMatrix,
    PauliLabel,
    pauli_labels,
    pauli_realize,
    tensor,
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
    ScalingFit,
    ScalingFitError,
    discord,
    dqc1_discord,
    fit_polarization_scaling,
    haar_discord_survey,
    is_zero_discord,
    mutual_information,
)
from .witness import (
    CorrelationMatrix,
    RankCheck,
    SingularValueDistribution,
    WitnessVerdict,
    column_combination_scan,
    correlation_matrix,
    default_tau,
    witness_procedure,
    write_histogram_csvs,
    z_sector_first_order,
)
from .nmr import (
    embed,
    load_ensemble,
    measured_correlation_matrix,
    simulate_measurement,
)
from .states import named_state, eq3_fixture

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix", "PauliLabel", "pauli_labels", "pauli_realize", "tensor",
    "Dqc1Instance", "haar_random_unitary", "input_state", "jones_unitary",
    "load_unitary_json", "output_state", "trace_estimate",
    "DiscordResult", "MeasurementBasis", "ScalingFit",
    "ScalingFitError", "discord", "dqc1_discord",
    "fit_polarization_scaling", "haar_discord_survey", "is_zero_discord", "mutual_information",
    "CorrelationMatrix", "RankCheck", "SingularValueDistribution", "WitnessVerdict",
    "column_combination_scan", "correlation_matrix", "default_tau",
    "witness_procedure", "write_histogram_csvs", "z_sector_first_order",
    "embed", "load_ensemble", "measured_correlation_matrix",
    "simulate_measurement",
    "named_state", "eq3_fixture",
]
