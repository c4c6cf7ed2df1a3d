"""The public namespace: every exported name resolves, retired ones stay gone."""
import os
import subprocess
import sys
import types

import ionreadout

RETIRED = ("simulate_trial", "apply_herald", "threshold_classify", "threshold_error_vs_duration",
           "poisson_pmf", "poisson_log_pmf", "apply_herald_dataset")


def test_every_exported_name_resolves():
    assert len(set(ionreadout.__all__)) == len(ionreadout.__all__)
    missing = [name for name in ionreadout.__all__ if not hasattr(ionreadout, name)]
    assert missing == []


def test_star_import_gives_the_exported_names():
    namespace: dict = {}
    exec("from ionreadout import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ionreadout.__all__)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(ionreadout).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(ionreadout.__all__)


def test_retired_names_are_gone():
    for name in RETIRED:
        assert name not in ionreadout.__all__
        assert not hasattr(ionreadout, name)
        assert not hasattr(ionreadout.photon_sim, name)
        assert not hasattr(ionreadout.readout, name)


# Runs with every scipy import refused: the CLI import, a scenario run that
# calibrates, and the pickup solve and fit, so lazy imports are covered too.
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not available")

sys.meta_path.insert(0, NoScipy())
import numpy as np
import ionreadout.cli
from ionreadout import (BiasCountCurve, NanowireNetwork, fit_pickup, pickup_from_solution,
                        predict_counts, run_scenario, solve_network)

summary = run_scenario(sys.argv[1])
assert summary["calibrated_gamma_b"] > summary["calibrated_gamma_d"] > 0, summary
model = pickup_from_solution(solve_network(NanowireNetwork(k_segments=20)))
off = BiasCountCurve(np.linspace(10.0, 20.0, 21), np.linspace(0.0, 100.0, 21))
on = BiasCountCurve(off.bias_ua, predict_counts(model, off, off.bias_ua))
fit = fit_pickup(on, off, np.hypot(model.i0_ua, model.i1_ua), k_segments=20)
assert abs(fit.model.i0_ua - model.i0_ua) < 0.05 * model.i0_ua, (fit, model)
"""


def test_package_runs_without_scipy(tmp_path):
    cfg = tmp_path / "small.cfg"
    values = {"seed": 3, "trials_per_state": 200, "gamma_b_per_ms": 162.5,
              "gamma_d_per_ms": 5.095, "gamma_dp_per_ms": 0.02, "n_bins": 100,
              "herald_duration_us": 0.0, "threshold_duration_us": 50.0,
              "bayes_levels": "0.9:0.99:2", "out_dir": tmp_path / "out"}
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(cfg)],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
