"""Shared fixtures: the reference emitter and one frozen Monte Carlo dataset.

The big heralded dataset (10^5 + 10^5 trials at the reference rates,
master seed 42) is built once per session and shared between the module
tests and the acceptance tests.  Everything downstream of it is deterministic.
"""
import numpy as np
import pytest

from ionreadout import (
    BiasCountCurve,
    RateParams,
    ReadoutConfig,
    adaptive_classify_batch,
    optimize_threshold,
    simulate_dataset,
)

SEED = 42
TRIALS_PER_STATE = 100_000


@pytest.fixture(scope="session")
def rates():
    """Reference emitter rates, 1/ms."""
    return RateParams(gamma_b=162.50, gamma_d=5.095, gamma_dp=0.020, gamma_rp=0.0120)


@pytest.fixture(scope="session")
def config():
    return ReadoutConfig(
        bin_width_us=1.0, n_bins=500, herald_duration_us=50.0, herald_bright_min=8
    )


@pytest.fixture(scope="session")
def heralded(rates, config):
    """(retained post-herald records, outcome tally), simulated and heralded in one pass."""
    return simulate_dataset(rates, config, trials_per_state=TRIALS_PER_STATE, seed=SEED)


@pytest.fixture(scope="session")
def levels16():
    """16 stopping levels log-spaced in [0.9, 0.9999]."""
    return 1.0 - np.geomspace(0.1, 1e-4, 16)


@pytest.fixture(scope="session")
def bayes16(heralded, rates, levels16):
    """Adaptive classification of the retained records at all 16 levels."""
    retained, _ = heralded
    return adaptive_classify_batch(retained, rates, 1.0, levels16)


@pytest.fixture(scope="session")
def threshold125(heralded):
    """(best threshold, error stats) at the 125 us readout duration."""
    retained, _ = heralded
    return optimize_threshold(retained, 125.0)


@pytest.fixture()
def plateau_curve():
    """Flat-top response: zero counts below 2 uA, plateau 1000 up to 8.9 uA."""
    return BiasCountCurve(
        np.array([0.0, 2.0, 5.0, 8.9]), np.array([0.0, 0.0, 1000.0, 1000.0])
    )
