"""The public namespace: every exported name resolves, retired ones stay gone."""
import os
import subprocess
import sys
import types

import ionreadout

RETIRED = ("simulate_trial", "apply_herald", "threshold_classify", "threshold_error_vs_duration")


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


def test_cli_import_leaves_scipy_interpolate_unloaded():
    code = "import sys, ionreadout.cli; print('scipy.interpolate' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"
