"""Shared fixtures: the reference emitter and one frozen Monte Carlo dataset.

The big heralded dataset (10^5 + 10^5 trials at the reference rates,
master seed 42) is built once per session and shared between the module
tests and the acceptance tests.  Everything downstream of it is deterministic.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ionreadout
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
    """The retained post-herald records, simulated and heralded in one pass."""
    return simulate_dataset(rates, config, trials_per_state=TRIALS_PER_STATE, seed=SEED)


@pytest.fixture(scope="session")
def levels16():
    """16 stopping levels log-spaced in [0.9, 0.9999]."""
    return 1.0 - np.geomspace(0.1, 1e-4, 16)


@pytest.fixture(scope="session")
def bayes16(heralded, rates, levels16):
    """Adaptive classification of the heralded records at all 16 levels."""
    return adaptive_classify_batch(heralded, rates, 1.0, levels16)


@pytest.fixture(scope="session")
def threshold125(heralded):
    """(best threshold, error stats) at the 125 us readout duration."""
    return optimize_threshold(heralded, 125.0)


@pytest.fixture()
def plateau_curve():
    """Flat-top response: zero counts below 2 uA, plateau 1000 up to 8.9 uA."""
    return BiasCountCurve(
        np.array([0.0, 2.0, 5.0, 8.9]), np.array([0.0, 0.0, 1000.0, 1000.0])
    )


def _peak_rise(setup: str, first_use: str, call: str, result: str) -> list[int]:
    """Run setup, first_use, then call in a child process; return the rise of
    the child's peak resident set (bytes) over the call, then result's ints.

    The child reads its own VmHWM: its ru_maxrss would start at this
    process's peak, since the kernel carries that across fork and exec.
    VmHWM counts resident pages only, so an array allocated at an upper
    bound costs what its filled rows touch (tracemalloc would not see that).
    The child's path holds only the directory of the imported package: a
    longer path moves the measured rise by about 1 MiB.
    """
    code = "\n".join([
        "def peak():  # bytes",
        "    with open('/proc/self/status') as fh:",
        "        return 1024 * next(int(line.split()[1]) for line in fh",
        "                           if line.startswith('VmHWM:'))",
        setup, first_use, "before = peak()", call, f"print(peak() - before, {result})",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(ionreadout.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    return list(map(int, done.stdout.split()))


@pytest.fixture()
def peak_rise():
    """The child-process peak-memory probe :func:`_peak_rise`; skips without VmHWM."""
    if not Path("/proc/self/status").exists():
        pytest.skip("needs Linux VmHWM")
    return _peak_rise
