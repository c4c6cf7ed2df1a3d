"""Simulation and analysis toolkit for fluorescence readout of a trapped
ion with an in-vacuum single-photon counter.

Subpackages by concern:

- chain: the two-state chain, one bin at a time (pumping rule, filter step)
- photon_sim: two-state Poisson emitter, heralding, time-tag streams
- readout: threshold and adaptive Bayesian state classification
- rfcircuit: induced-current model of the counter under trap rf drive
- optics: emission pattern, collection geometry, efficiency calibration
- timing: intensity correlation histograms
- heating: motional heating scalings
- scenario / cli: config-driven end-to-end runs
"""
from .heating import HeatingPoint, field_noise_ratio, kick_heating_rate, scale_heating
from .optics import (
    APCoverageError,
    APSurface,
    DetectorScene,
    PositionSweep,
    collection_fraction,
    dipole_intensity,
    expected_rate,
    extrapolate_sde_no_rf,
    obscured_fraction,
    rate_vs_position,
    saturation_extrapolate,
    sde_calibrate,
)
from .photon_sim import (
    BRIGHT,
    DARK,
    Dataset,
    EmitterStreamConfig,
    RateParams,
    ReadoutConfig,
    Trajectory,
    as_dataset,
    simulate_dataset,
    simulate_timetag_streams,
)
from .readout import (
    AdaptiveBatchResult,
    CalibratedRates,
    ErrorStats,
    adaptive_classify_batch,
    calibrate_rates,
    error_stats,
    optimize_threshold,
)
from .rfcircuit import (
    BiasCountCurve,
    InducedCurrentSolution,
    NanowireNetwork,
    PickupDecomposition,
    PickupFit,
    PickupModel,
    decompose_currents,
    fit_pickup,
    max_induced,
    pickup_from_solution,
    predict_counts,
    solve_network,
)
from .scenario import ConfigError, Scenario, load_scenario, run_scenario
from .timing import DipResult, G2Estimate, TimeTagStream, find_dip, g2_estimate

__version__ = "0.1.0"

__all__ = [
    "APCoverageError",
    "APSurface",
    "AdaptiveBatchResult",
    "BRIGHT",
    "BiasCountCurve",
    "CalibratedRates",
    "ConfigError",
    "DARK",
    "Dataset",
    "DetectorScene",
    "DipResult",
    "EmitterStreamConfig",
    "ErrorStats",
    "G2Estimate",
    "HeatingPoint",
    "InducedCurrentSolution",
    "NanowireNetwork",
    "PickupDecomposition",
    "PickupFit",
    "PickupModel",
    "PositionSweep",
    "RateParams",
    "ReadoutConfig",
    "Scenario",
    "TimeTagStream",
    "Trajectory",
    "adaptive_classify_batch",
    "as_dataset",
    "calibrate_rates",
    "collection_fraction",
    "decompose_currents",
    "dipole_intensity",
    "error_stats",
    "expected_rate",
    "extrapolate_sde_no_rf",
    "field_noise_ratio",
    "find_dip",
    "fit_pickup",
    "g2_estimate",
    "kick_heating_rate",
    "load_scenario",
    "max_induced",
    "obscured_fraction",
    "optimize_threshold",
    "pickup_from_solution",
    "predict_counts",
    "rate_vs_position",
    "run_scenario",
    "saturation_extrapolate",
    "scale_heating",
    "sde_calibrate",
    "simulate_dataset",
    "simulate_timetag_streams",
    "solve_network",
]
