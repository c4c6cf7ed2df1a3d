"""Flat-config scenarios and the command-line front end."""
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from ionreadout import (
    APSurface,
    BiasCountCurve,
    Dataset,
    DetectorScene,
    EmitterStreamConfig,
    NanowireNetwork,
    PickupModel,
    RateParams,
    ReadoutConfig,
    TimeTagStream,
    adaptive_classify_batch,
    collection_fraction,
    decompose_currents,
    expected_rate,
    find_dip,
    g2_estimate,
    max_induced,
    obscured_fraction,
    pickup_from_solution,
    predict_counts,
    simulate_dataset,
    simulate_timetag_streams,
    solve_network,
)
from ionreadout import io as iio
from ionreadout import photon_sim
from ionreadout.cli import DEFAULT_SEED, main
from ionreadout.scenario import (
    ConfigError,
    load_scenario,
    parse_duration_sweep,
    parse_flat_config,
    parse_level_sweep,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, val = line.split(" = ", 1)
            out[key.strip()] = val.strip()
    return out


# ------------------------------------------------------------- parsing

def test_flat_config_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text(
        "# full-line comment\n"
        "\n"
        "alpha = 1.5   # trailing comment\n"
        "  beta=  two words  \n"
    )
    assert parse_flat_config(cfg) == {"alpha": "1.5", "beta": "two words"}

    cfg.write_text("a = 1\nb = 2\na = 3\n")
    with pytest.raises(ConfigError, match=r"3: duplicate key 'a'"):
        parse_flat_config(cfg)

    cfg.write_text("= 5\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_flat_config(cfg)

    cfg.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_flat_config(cfg)


def test_duration_sweep_grid():
    grid = parse_duration_sweep("25:450:25")
    assert np.array_equal(grid, np.arange(25.0, 451.0, 25.0))
    assert grid[0] == 25.0 and grid[-1] == 450.0  # inclusive on both ends
    assert np.array_equal(parse_duration_sweep("10:10:1"), [10.0])
    for bad in ("5", "10:5:1", "0:10:0", "a:b:c", "0:nan:8", "0:inf:8", "-inf:0:1", "0:10:inf"):
        with pytest.raises(ConfigError):
            parse_duration_sweep(bad)


def test_level_sweep_log_spacing():
    levels = parse_level_sweep("0.9:0.9999:16")
    assert levels.size == 16
    assert np.allclose(levels, 1.0 - np.geomspace(0.1, 1e-4, 16), rtol=1e-12)
    assert levels[0] == pytest.approx(0.9)
    assert levels[-1] == pytest.approx(0.9999)
    assert np.all(np.diff(levels) > 0)
    assert np.array_equal(parse_level_sweep("0.95:0.999:1"), [0.95])
    for bad in ("0.4:0.9:4", "0.9:1.0:4", "0.9:0.99", "0.9:0.99:x", "0.9:0.99:0"):
        with pytest.raises(ConfigError):
            parse_level_sweep(bad)


# ------------------------------------------------------------- scenarios

def _write_minimal_cfg(path: Path, out_dir: Path, **overrides) -> Path:
    values = {
        "seed": 7,
        "trials_per_state": 200,
        "gamma_b_per_ms": 162.50,
        "gamma_d_per_ms": 5.095,
        "n_bins": 150,
        "herald_duration_us": 0.0,
        "threshold_duration_us": 100.0,
        "bayes_levels": "0.9:0.999:3",
        "write_trajectories": "true",
        "out_dir": str(out_dir),
    }
    values.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def test_load_scenario_fills_defaults(tmp_path):
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out")
    scn = load_scenario(cfg)
    assert scn.name == "scenario"
    assert scn.transition_mode == "exact"
    assert scn.rates.gamma_dp == 0.0 and scn.rates.gamma_rp == 0.0
    assert scn.readout.herald_bright_min == 8
    assert scn.threshold_sweep_us is None
    assert scn.bayes_levels.size == 3
    assert scn.out_dir == tmp_path / "out"


def test_unknown_and_missing_keys_are_named(tmp_path):
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out", gama_b="5")
    with pytest.raises(ConfigError, match="gama_b"):
        load_scenario(cfg)

    cfg = _write_minimal_cfg(tmp_path / "t.cfg", tmp_path / "out")
    cfg.write_text(cfg.read_text().replace("seed = 7\n", ""))
    with pytest.raises(ConfigError, match="'seed'"):
        load_scenario(cfg)


def test_bad_value_reports_file_and_key(tmp_path):
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out", n_bins="many")
    with pytest.raises(ConfigError, match=r"s\.cfg.*'n_bins'"):
        load_scenario(cfg)


def test_run_scenario_outputs_and_replay(tmp_path):
    out = tmp_path / "out"
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", out)
    summary = run_scenario(cfg)

    assert summary["retained_bright"] + summary["retained_dark"] + summary["discarded"] == 400
    assert summary["discarded"] == 0  # zero-length herald keeps everything
    assert 0.0 <= summary["threshold_mean_error"] <= 0.02
    assert summary["threshold_fidelity"] == 1.0 - summary["threshold_mean_error"]
    assert summary["bayes_best_level"] in (0.9, 0.99, 0.999)
    assert summary["bayes_best_mean_duration_us"] < 150.0
    assert summary["calibrated_gamma_b"] == pytest.approx(162.5, rel=0.05)
    assert summary["calibrated_gamma_d"] == pytest.approx(5.095, rel=0.25)

    produced = [
        "trajectories.csv", "threshold_results.csv", "bayes_results.csv",
        "bayes_sweep.csv", "summary.txt", "effective_config.cfg",
    ]
    for name in produced:
        assert (out / name).exists(), name
    first = {name: (out / name).read_bytes() for name in produced}

    # the effective config must reproduce the run byte for byte
    replay = tmp_path / "replay.cfg"
    replay.write_bytes(first["effective_config.cfg"])
    summary2 = run_scenario(replay)
    assert summary2 == summary
    for name in produced:
        assert (out / name).read_bytes() == first[name], name


def test_run_scenario_writes_threshold_sweep(tmp_path):
    out = tmp_path / "out"
    cfg = _write_minimal_cfg(
        tmp_path / "s.cfg", out,
        trials_per_state=120, n_bins=100,
        threshold_duration_us=50.0, threshold_sweep_us="25:100:25",
    )
    run_scenario(cfg)
    lines = (out / "threshold_sweep.csv").read_text().splitlines()
    assert lines[0] == "duration_us,threshold,eps_bright,eps_dark,mean_error,fidelity"
    assert len(lines) == 5


def test_herald_as_long_as_record_is_a_config_error(tmp_path):
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out",
                             n_bins=50, herald_duration_us=50.0)
    with pytest.raises(ConfigError, match="herald_duration_us"):
        load_scenario(cfg)


@pytest.mark.parametrize("key, value, problem", [
    ("threshold_duration_us", "125.0", "whole record"),
    ("threshold_duration_us", "12.5", "whole number"),
    ("threshold_sweep_us", "25:125:25", "whole record"),
    ("threshold_sweep_us", "12.5:37.5:12.5", "whole number"),
])
def test_readout_duration_outside_the_record_names_its_key(tmp_path, key, value, problem):
    # 150 bins less a 50 us herald leave 100 us of record to read out; the
    # config alone shows it, so the run stops before simulating or writing
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out", trials_per_state=50,
                             herald_duration_us=50.0, **{key: value})
    with pytest.raises(ConfigError, match=rf"s\.cfg: key '{key}': .*{problem}"):
        load_scenario(cfg)
    with pytest.raises(ConfigError, match=rf"s\.cfg: key '{key}': .*{problem}"):
        run_scenario(cfg)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, key", [
    pytest.param({"bin_width_us": 0.1, "n_bins": 1500}, None, id="0.1us-bins"),
    pytest.param({"gamma_d_per_ms": 0.0}, None, id="no-dark-counts"),
    pytest.param({"gamma_dp_per_ms": 0.0, "gamma_rp_per_ms": 0.0}, None, id="no-pumping"),
    pytest.param({"n_bins": 1, "threshold_duration_us": 1.0}, "n_bins", id="1-bin"),
    pytest.param({"n_bins": 2, "threshold_duration_us": 1.0}, "n_bins", id="2-bins"),
    pytest.param({"herald_duration_us": 50.0, "herald_bright_min": 60}, "herald_bright_min",
                 id="one-class-herald"),
    pytest.param({"bayes_levels": "0.9:1.5:3"}, "bayes_levels", id="bad-levels"),
    pytest.param({"threshold_sweep_us": "10:5:1"}, "threshold_sweep_us", id="bad-sweep"),
    pytest.param({"seed": -1}, "seed", id="negative-seed"),
    pytest.param({"trials_per_state": 0}, "trials_per_state", id="no-trials"),
    pytest.param({"out_dir": ""}, "out_dir", id="empty-out-dir"),
])
def test_accepted_config_runs_or_names_its_key(tmp_path, monkeypatch, overrides, key):
    monkeypatch.chdir(tmp_path)  # an empty out_dir would write here
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", **{"out_dir": tmp_path / "out", **overrides})
    if key is None:
        assert run_scenario(cfg)["threshold_mean_error"] < 0.05
    else:
        with pytest.raises(ConfigError, match=rf"s\.cfg: .*'{key}'"):
            run_scenario(cfg)
        assert not (tmp_path / "out").exists()  # a failed run writes nothing


@pytest.mark.parametrize("key, value", [
    ("herald_duration_us", "nan"), ("bin_width_us", "inf"), ("threshold_sweep_us", "25:nan:25"),
])
def test_non_finite_config_value_names_its_key(tmp_path, key, value):
    cfg = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out", **{key: value})
    with pytest.raises(ConfigError, match=rf"s\.cfg: .*{key}.* finite"):
        run_scenario(cfg)


def test_one_expected_flip_per_bin_is_rejected_everywhere(tmp_path, monkeypatch, capsys):
    # gamma * t0 >= 1 fails by name in the simulator, the scenario loader,
    # the simulate command and the adaptive filter; just below 1 still runs
    def no_draws(*args):
        raise AssertionError("drew trials")

    fast, cfg = RateParams(1000.0, 1.0, 0.0, 1e4), ReadoutConfig(n_bins=100)
    with monkeypatch.context() as m:
        m.setattr(photon_sim, "_segments", no_draws)
        with pytest.raises(ValueError, match="gamma_rp times the bin width is 10 "):
            simulate_dataset(fast, cfg, trials_per_state=10**6, seed=1)
    cfg_path = _write_minimal_cfg(tmp_path / "s.cfg", tmp_path / "out", gamma_dp_per_ms="1e4")
    code, _, err = _run_cli(capsys, "run", "--config", str(cfg_path))
    assert code == 1 and re.search(r"s\.cfg: gamma_dp times the bin width", err), err
    assert not (tmp_path / "out").exists()
    code, kv, err = _run_cli(capsys, "simulate", "--gamma-dp-per-ms", "1e4", "--n-bins", "100",
                             "--out", str(tmp_path / "x.csv"))
    assert code == 1 and "gamma_dp times the bin width" in err and not kv
    assert not (tmp_path / "x.csv").exists()

    ds = Dataset(np.ones((2, 5), dtype=np.int64), np.array([True, False]), 1.0)
    with pytest.raises(ValueError, match="gamma_dp times the bin width is 1 "):
        adaptive_classify_batch(ds, RateParams(1000.0, 1.0, 1000.0), 1.0, [0.9])
    res, = adaptive_classify_batch(ds, RateParams(1000.0, 1.0, 999.0), 1.0, [0.9])
    assert res.decisions.tolist() == [True, True]
    with pytest.warns(UserWarning, match="not small"):
        edge = simulate_dataset(RateParams(1000.0, 1.0, 999.0, 999.0),
                                ReadoutConfig(n_bins=20, herald_duration_us=0.0), 5, seed=1)
    assert len(edge) == 10


def test_paper_scenario_reproduces_shipped_outputs(tmp_path, monkeypatch):
    # the shipped config as it is, run from tmp_path: its relative out_dir
    # lands there, and effective_config.cfg names it as the shipped one does
    golden = SCENARIO_DIR.parent / "out" / "paper"
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():  # the top level, 0.9999, is below the zero-count cap
        warnings.simplefilter("error")
        run_scenario(SCENARIO_DIR / "paper.cfg")
    written = tmp_path / "out" / "paper"
    names = sorted(p.name for p in golden.iterdir())
    assert names == ["bayes_sweep.csv", "effective_config.cfg", "summary.txt",
                     "threshold_sweep.csv"]
    assert sorted(p.name for p in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (golden / name).read_bytes(), name


def test_shipped_scenario_config_loads():
    scn = load_scenario(SCENARIO_DIR / "paper.cfg")
    assert scn.seed == 42
    assert scn.trials_per_state == 100_000
    assert scn.rates.gamma_b == 162.50
    assert scn.readout.n_bins == 500
    assert scn.threshold_sweep_us is not None and scn.threshold_sweep_us.size == 18
    assert scn.bayes_levels.size == 16


# ------------------------------------------------------------- CLI

def _run_cli(capsys, *argv) -> tuple[int, dict[str, str], str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, _kv(captured.out), captured.err


def test_cli_simulate_is_deterministic(tmp_path, capsys):
    args = (
        "simulate", "--seed", "3", "--trials-per-state", "50", "--n-bins", "60",
        "--herald", "--herald-duration-us", "10", "--herald-bright-min", "2",
    )
    code, kv, _ = _run_cli(capsys, *args, "--out", str(tmp_path / "a.csv"))
    assert code == 0
    tally = sum(
        int(kv[k]) for k in ("herald_retained_bright", "herald_retained_dark", "herald_discarded")
    )
    assert tally == 100
    assert int(kv["trials_written"]) == 100 - int(kv["herald_discarded"])
    written = iio.read_trajectories_csv(tmp_path / "a.csv", bin_width_us=1.0)
    assert int(kv["herald_retained_bright"]) == np.count_nonzero(written.bright)

    code, _, _ = _run_cli(capsys, *args, "--out", str(tmp_path / "b.csv"))
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.fixture()
def small_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    code = main([
        "simulate", "--seed", "9", "--trials-per-state", "150", "--n-bins", "200",
        "--out", str(path),
    ])
    capsys.readouterr()
    assert code == 0
    return path


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1", "--out", "never.csv"],
    ["g2", "--simulate", "--seed", "-1"],
])
def test_cli_negative_seed_names_the_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize("level", ["0.99", "0.99995"])
def test_cli_classify_compares_methods(small_csv, capsys, level):
    # 0.99995 lies above the zero-count cap, 0.999930 at these rates, and
    # makes the longest method name, "bayes@0.99995"
    argv = ["classify", "--in", str(small_csv), "--bin-width-us", "1",
            "--threshold", "--duration-us", "100", "--bayes", "--level", level]
    if level == "0.99995":
        with pytest.warns(UserWarning, match="0.999930"):
            code = main(argv)
    else:
        code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold_counts = " in out
    rows = [l for l in out.splitlines() if l.startswith(("threshold ", "bayes@"))]
    assert len(rows) == 2
    assert rows[1].split()[0] == f"bayes@{level}"
    header = [l for l in out.splitlines() if l.startswith("method")]
    assert header and "mean_error" in header[0] and "fidelity" in header[0]
    assert all(len(row) == len(header[0]) for row in rows)  # the columns line up


def test_cli_classify_warns_of_a_level_above_the_zero_count_cap(tmp_path, capsys):
    # the offline CSV workload's operating point: at 0.5 us bins a record with
    # no counts approaches 0.999796, so it never stops at 0.9999
    path = tmp_path / "offline.csv"
    width = ["--bin-width-us", "0.5"]
    rates = ["--gamma-b-per-ms", "60", "--gamma-d-per-ms", "2", "--gamma-dp-per-ms", "0.02",
             "--gamma-rp-per-ms", "0.012"]
    assert main(["simulate", "--seed", "1", "--trials-per-state", "100", "--n-bins", "400",
                 "--mode", "bin-boundary", "--herald", "--herald-duration-us", "100",
                 "--herald-bright-min", "3", "--out", str(path), *width, *rates]) == 0
    capsys.readouterr()
    argv = ["classify", "--in", str(path), "--bayes", "--level", "0.9999", *width, *rates]
    with pytest.warns(UserWarning, match=r"^confidence level\(s\) 0\.9999 at or above 0\.999796"):
        assert main(argv) == 0
    warned = capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    assert warned.out == capsys.readouterr().out
    assert [l.split()[0] for l in warned.out.splitlines()] == ["method", "bayes@0.9999"]


def test_cli_classify_flag_conflicts(small_csv, tmp_path, capsys):
    code = main(["classify", "--in", str(small_csv), "--bin-width-us", "1"])
    assert code == 1
    assert "threshold" in capsys.readouterr().err

    code = main([
        "classify", "--in", str(small_csv), "--bin-width-us", "1", "--threshold", "--bayes",
        "--out", str(tmp_path / "res.csv"),
    ])
    assert code == 1
    assert "single method" in capsys.readouterr().err


def test_cli_classify_writes_results(small_csv, tmp_path, capsys):
    out_csv = tmp_path / "res.csv"
    code = main([
        "classify", "--in", str(small_csv), "--bin-width-us", "1", "--bayes", "--level", "0.99",
        "--out", str(out_csv),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "trial_id,truth,decision,duration_us,confidence"
    assert len(lines) == 301


def test_cli_classify_fixed_threshold_decisions(small_csv, tmp_path, capsys):
    ds = iio.read_trajectories_csv(small_csv, bin_width_us=1.0)
    totals = ds.counts[:, :125].sum(axis=1)  # default --duration-us 125 at 1 us bins
    # threshold 7 splits the trials; threshold 0 decides everything bright
    for thr, decided in ((7, {"bright", "dark"}), (0, {"bright"})):
        out_csv = tmp_path / f"r{thr}.csv"
        code = main([
            "classify", "--in", str(small_csv), "--bin-width-us", "1",
            "--threshold", "--threshold-counts", str(thr),
            "--out", str(out_csv),
        ])
        capsys.readouterr()
        assert code == 0
        expected = [
            [str(i), "bright" if bright else "dark", "bright" if total >= thr else "dark"]
            for i, (bright, total) in enumerate(zip(ds.bright, totals))
        ]
        rows = [line.split(",")[:3] for line in out_csv.read_text().splitlines()[1:]]
        assert rows == expected
        assert {r[2] for r in rows} == decided

    code = main(["classify", "--in", str(small_csv), "--bin-width-us", "1",
                 "--threshold", "--threshold-counts", "-1"])
    assert code == 1
    capsys.readouterr()


@pytest.mark.parametrize("threshold_counts", [[], ["--threshold-counts", "3"]])
@pytest.mark.parametrize("duration, problem", [
    ("1000", r"duration \(1000 us\) must cover between 1 bin and the whole record "
             r"\(200 bins of 0\.5 us\)"),
    ("0.7", r"duration_us \(0\.7\) must be a whole number of 0\.5 us bins"),
])
def test_cli_classify_duration_outside_the_record_names_the_flag(small_csv, capsys, duration,
                                                                 problem, threshold_counts):
    code = main(["classify", "--in", str(small_csv), "--bin-width-us", "0.5", "--threshold",
                 "--duration-us", duration, *threshold_counts])
    assert code == 1
    assert re.search(rf"^error: --duration-us: {problem}$", capsys.readouterr().err, re.M)


@pytest.mark.parametrize("level, shown", [("1.0", "1"), ("nan", "nan"), ("0.5", "0.5")])
def test_cli_classify_names_a_level_outside_its_range(small_csv, capsys, level, shown):
    code = main(["classify", "--in", str(small_csv), "--bin-width-us", "0.5", "--bayes",
                 "--level", level])
    assert code == 1
    assert capsys.readouterr().err == f"error: --level must lie in (0.5, 1), got {shown}\n"


@pytest.mark.parametrize("argv, flag, method", [
    (["--threshold", "--level", "2"], "--level", "--bayes"),
    (["--bayes", "--duration-us", "500"], "--duration-us", "--threshold"),
])
def test_cli_classify_refuses_a_flag_its_method_does_not_use(small_csv, capsys, argv, flag,
                                                             method):
    assert main(["classify", "--in", str(small_csv), "--bin-width-us", "1", *argv]) == 1
    assert capsys.readouterr() == ("", f"error: {flag} needs {method}\n")


def test_cli_classify_names_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    iio.write_trajectories_csv(path, Dataset(np.zeros((0, 0), dtype=int), np.zeros(0, bool), 1.0))
    for method in (["--threshold"], ["--threshold", "--threshold-counts", "3"], ["--bayes"]):
        assert main(["classify", "--in", str(path), "--bin-width-us", "1", *method]) == 1
        assert capsys.readouterr().err == f"error: {path}: empty dataset\n"


def test_cli_calibrate_recovers_rates(small_csv, capsys):
    code, kv, _ = _run_cli(capsys, "calibrate", "--in", str(small_csv), "--bin-width-us", "1")
    assert code == 0
    assert float(kv["gamma_b"]) == pytest.approx(162.5, rel=0.05)
    assert float(kv["gamma_d"]) == pytest.approx(5.095, rel=0.25)
    assert "gamma_rp_err" in kv

    code = main(["calibrate", "--in", "no-such-file.csv", "--bin-width-us", "1"])
    assert code == 1


def test_cli_reading_commands_require_the_bin_width(small_csv, capsys):
    # the CSV does not record the bin width, so a guessed one would scale every rate
    for args in (["classify", "--in", str(small_csv), "--bayes"],
                 ["calibrate", "--in", str(small_csv)]):
        assert main(args) == 1
        assert "--bin-width-us" in capsys.readouterr().err


def test_cli_rfmodel_default_network(capsys):
    code, kv, _ = _run_cli(capsys, "rfmodel")
    assert code == 0
    assert float(kv["i0_ua"]) == pytest.approx(0.9, abs=0.01)
    assert float(kv["i1_ua"]) == pytest.approx(3.5, abs=0.01)
    assert float(kv["max_induced_ua"]) == pytest.approx(3.614, abs=0.002)
    assert float(kv["linear_r_squared"]) > 0.999
    assert float(kv["solver_residual"]) < 1e-9
    assert "plateau_deficit" not in kv  # no rf-off curve, no plateau
    # an unset flag leaves its field at the default, so these are the library's numbers
    sol = solve_network(NanowireNetwork())
    model = pickup_from_solution(sol)
    assert kv == {"i0_ua": f"{model.i0_ua:.8g}", "i1_ua": f"{model.i1_ua:.8g}",
                  "max_induced_ua": f"{max_induced(model):.8g}",
                  "linear_r_squared": f"{decompose_currents(sol).r_squared:.8g}",
                  "solver_residual": f"{sol.residual:.8g}"}


def test_cli_rfmodel_fit_recovers_the_generating_amplitudes(tmp_path, capsys):
    off = BiasCountCurve(np.array([0.0, 2.0, 5.0, 8.9]), np.array([0.0, 0.0, 1000.0, 1000.0]))
    bias = np.linspace(0.5, 8.5, 33)
    on = BiasCountCurve(bias, np.array([predict_counts(PickupModel(0.9, 3.5), off, b)
                                        for b in bias]))
    iio.write_bias_curve_csv(tmp_path / "off.csv", off)
    iio.write_bias_curve_csv(tmp_path / "on.csv", on)
    code, kv, _ = _run_cli(capsys, "rfmodel", "--fit", "--rf-on", str(tmp_path / "on.csv"),
                           "--rf-off", str(tmp_path / "off.csv"),
                           "--delta-im-ua", repr(float(np.hypot(0.9, 3.5))))
    assert code == 0
    assert list(kv) == ["i0_ua", "i0_err_ua", "i1_ua", "i1_err_ua", "max_induced_ua",
                        "residual_norm"]
    assert float(kv["i0_ua"]) == pytest.approx(0.9, rel=1e-5)
    assert float(kv["i1_ua"]) == pytest.approx(3.5, rel=1e-5)


def test_cli_rfmodel_prediction_flow(tmp_path, capsys):
    curve = tmp_path / "off.csv"
    iio.write_bias_curve_csv(curve, BiasCountCurve(np.array([0.0, 2.0, 5.0, 8.9]),
                                                   np.array([0.0, 0.0, 1000.0, 1000.0])))
    code, kv, _ = _run_cli(
        capsys, "rfmodel", "--rf-off", str(curve),
        "--bias-ua", "6.0", "--out", str(tmp_path / "on.csv"),
    )
    assert code == 0
    assert 0.0 < float(kv["predicted_counts"]) < 1000.0
    on = iio.read_bias_curve_csv(tmp_path / "on.csv")
    assert on.bias_ua.size == 4
    assert np.all(on.counts <= 1000.0)
    # the drive's loss of peak counts, over the curve --out writes
    assert float(kv["plateau_deficit"]) == pytest.approx(1.0 - on.counts.max() / 1000.0,
                                                         rel=1e-7)
    assert float(kv["plateau_deficit"]) > 0.0

    iio.write_bias_curve_csv(curve, BiasCountCurve(np.array([0.0, 1.0]), np.zeros(2)))
    code, kv, _ = _run_cli(capsys, "rfmodel", "--rf-off", str(curve))
    assert code == 0 and "plateau_deficit" not in kv  # no counts, no plateau

    code = main(["rfmodel", "--bias-ua", "5.0"])
    assert code == 1
    assert "--rf-off" in capsys.readouterr().err


def test_cli_optics_summary_and_sweep(tmp_path, capsys):
    code, kv, _ = _run_cli(
        capsys, "optics", "--ap-constant", "1.0", "--measured-rate-s", "5.42e5"
    )
    assert code == 0
    assert float(kv["collection_fraction"]) == pytest.approx(0.0202, abs=3e-4)
    assert float(kv["obscured_fraction"]) == 0.0
    assert float(kv["sde"]) == pytest.approx(0.475, abs=0.01)

    sweep_csv = tmp_path / "sweep.csv"
    code = main(["optics", "--sweep-lateral", "0:16:8", "--out", str(sweep_csv)])
    capsys.readouterr()
    assert code == 0
    assert len(sweep_csv.read_text().splitlines()) == 4

    assert main(["optics", "--out", str(sweep_csv)]) == 1
    capsys.readouterr()
    assert main(["optics", "--ap-constant", "0.5", "--ap-file", str(sweep_csv)]) == 1
    assert "conflict" in capsys.readouterr().err
    # the synthetic surface is the default, so it has no flag
    assert main(["optics", "--ap-constant", "0.5", "--ap-synthetic"]) == 1
    capsys.readouterr()
    assert main(["optics", "--scene", "bogus"]) == 1
    capsys.readouterr()


def test_cli_optics_flags_are_the_scene_fields(capsys):
    code, kv, _ = _run_cli(capsys, "optics")
    assert code == 0
    assert kv == {"collection_fraction": "0.020217775", "obscured_fraction": "0",
                  "expected_rate_s": "792147.31"}
    # every flag changed at once; putting any one back changes the printed values
    changed = dict(detector_w_um=30.0, detector_h_um=10.0, recess_um=3.0, ion_height_um=40.0,
                   lateral_um=50.0, quant_axis_deg=0.0, nanowire_axis_deg=30.0,
                   grid_pitch_um=0.5, opening_margin_um=0.0)
    code, kv, _ = _run_cli(capsys, "optics", *(arg for name, value in changed.items()
                                               for arg in ("--" + name.replace("_", "-"),
                                                           str(value))))
    assert code == 0
    scene = DetectorScene(**changed)
    rate = expected_rate(scene, APSurface.synthetic_placeholder())
    assert kv == {"collection_fraction": f"{collection_fraction(scene):.8g}",
                  "obscured_fraction": f"{obscured_fraction(scene):.8g}",
                  "expected_rate_s": f"{rate:.8g}"}


@pytest.mark.parametrize("argv, problem", [
    (["optics", "--ion-height-um", "nan"], "ion_height_um must be finite"),
    (["optics", "--sweep-lateral", "0:nan:8", "--out", "sweep.csv"], "need finite bounds"),
    (["heating", "--rate-quanta-s", "nan", "--freq-mhz", "2", "--distance-um", "39",
      "--target-freq-mhz", "5.3"], "rate_quanta_s must be finite"),
    (["heating", "--rate-quanta-s", "63", "--freq-mhz", "2", "--distance-um", "39",
      "--target-freq-mhz", "inf"], "target frequency must be finite"),
    (["heating", "--rate-quanta-s", "63", "--freq-mhz", "2", "--distance-um", "39",
      "--target-freq-mhz", "5.3", "--alpha", "nan"], "alpha must be finite"),
    (["heating", "--quanta-per-count", "nan", "--count-rate-s", "1000"],
     "quanta_per_count must be finite"),
])
def test_cli_names_a_non_finite_value(tmp_path, monkeypatch, capsys, argv, problem):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert problem in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--sweep-lateral", "0:nan:8", "--out", "sweep.csv"],
                                  ["--sweep-lateral", "0:16:8"], ["--out", "sweep.csv"]])
def test_cli_optics_checks_the_sweep_before_printing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["optics", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("argv", [["--rf-off", "off.csv"], ["--rf-off", "off.csv", "--bias-ua", "6"],
                                  ["--bias-ua", "6"], ["--out", "on.csv"]])
def test_cli_rfmodel_checks_its_inputs_before_printing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "off.csv").write_text("bias_ua,counts\n1.5,10.0\n2.5,-1.0\n")
    assert main(["rfmodel", *argv]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / "on.csv").exists()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--herald-duration-us", "40", "--out", "out.csv"],
     "--herald-duration-us and --herald-bright-min need --herald"),
    (["simulate", "--herald-bright-min", "3", "--out", "out.csv"],
     "--herald-duration-us and --herald-bright-min need --herald"),
    (["classify", "--in", "data.csv", "--bin-width-us", "1", "--bayes",
      "--threshold-counts", "3"], "--threshold-counts needs --threshold"),
    (["rfmodel", "--fit", "--rf-on", "on.csv", "--rf-off", "off.csv", "--delta-im-ua", "3.6",
      "--bias-ua", "6"], "--fit ignores --bias-ua and --out; drop them"),
    (["rfmodel", "--fit", "--rf-on", "on.csv", "--rf-off", "off.csv", "--delta-im-ua", "3.6",
      "--out", "out.csv"], "--fit ignores --bias-ua and --out; drop them"),
    (["rfmodel", "--fit", "--rf-on", "on.csv", "--rf-off", "off.csv", "--delta-im-ua", "3.6",
      "--k-segments", "50", "--v-rf-v", "1", "--freq-mhz", "10"],
     "--fit ignores --freq-mhz, --v-rf-v; of the network flags only --k-segments shapes the fit"),
    (["rfmodel", "--rf-on", "on.csv", "--delta-im-ua", "3"],
     "without --fit, rfmodel ignores --rf-on and --delta-im-ua"),
    (["rfmodel", "--delta-im-ua", "3", "--rf-off", "off.csv", "--out", "out.csv"],
     "without --fit, rfmodel ignores --delta-im-ua"),
    (["g2", "--in", "tags.csv", "--emission-rate-s", "1", "--seed", "3", "--out", "out.csv"],
     "--in reads its tags from the file and ignores --emission-rate-s, --seed"),
    (["g2", "--in", "tags.csv", "--dead-time-ns", "2", "--offset-b-ns", "5"],
     "--in reads its tags from the file and ignores --dead-time-ns, --offset-b-ns"),
])
def test_cli_refuses_a_flag_its_mode_would_ignore(small_csv, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(small_csv.parent)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (small_csv.parent / "out.csv").exists()


@pytest.mark.parametrize("argv", [
    ["optics", "--ap-file", "ap30.csv", "--sweep-lateral", "0:160:8", "--out", "out.csv"],
    ["optics", "--sweep-lateral", "0:16:8", "--out", "missing/out.csv"],
    ["g2", "--simulate", "--duration-s", "0.01", "--out", "missing/out.csv"],
    ["rfmodel", "--rf-off", "off.csv", "--out", "missing/out.csv"],
    ["heating", "--rate-quanta-s", "63", "--freq-mhz", "2", "--distance-um", "39",
     "--target-freq-mhz", "5.3", "--rate2-quanta-s", "200"],
    ["classify", "--in", "data.csv", "--bin-width-us", "1", "--threshold", "--bayes",
     "--level", "1.5"],
])
def test_cli_prints_nothing_when_a_later_step_fails(small_csv, monkeypatch, capsys, argv):
    """Every value is computed and --out written before the first line of output."""
    tmp_path = small_csv.parent
    monkeypatch.chdir(tmp_path)
    # an AP table that covers only theta <= 30 deg, which the far offsets exceed
    (tmp_path / "ap30.csv").write_text("polarization,theta_deg,phi_deg,ap\n" + "".join(
        f"{pol},{theta},{phi},0.5\n" for pol in ("TE", "TM") for theta in (0, 30)
        for phi in (0, 360)))
    (tmp_path / "off.csv").write_text("bias_ua,counts\n0,0\n2,0\n5,1000\n8.9,1000\n")
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")
    assert not (tmp_path / "out.csv").exists() and not (tmp_path / "missing").exists()


def test_cli_optics_sweep_ignores_the_internal_efficiency(tmp_path, capsys):
    """The sweep is a ratio to its first offset, so even a zero efficiency sweeps."""
    for eff in ("1", "0"):
        code = main(["optics", "--internal-efficiency", eff, "--sweep-lateral", "0:16:8",
                     "--out", str(tmp_path / f"sweep{eff}.csv")])
        capsys.readouterr()
        assert code == 0
    assert (tmp_path / "sweep0.csv").read_bytes() == (tmp_path / "sweep1.csv").read_bytes()


def test_cli_g2_simulate_and_exclusion(tmp_path, capsys):
    base = (
        "g2", "--simulate", "--seed", "42", "--offset-b-ns", "28",
        "--duration-s", "0.3", "--bin", "1ns",
    )
    code, kv, _ = _run_cli(capsys, *base, "--out", str(tmp_path / "g2.csv"))
    assert code == 0
    assert float(kv["dip_delay_ns"]) == 28.0
    assert float(kv["dip_g2"]) == 0.0
    assert (tmp_path / "g2.csv").read_text().startswith("delay_ns,g2,ci_low,ci_high,masked")

    code, kv, _ = _run_cli(capsys, *base, "--exclude-ns", "20:36")
    assert code == 0
    assert not (20.0 <= float(kv["dip_delay_ns"]) <= 36.0)

    for bad in ("1:2:3", "abc", "5"):
        assert main([*base, "--exclude-ns", bad]) == 1
        assert f"--exclude-ns must be LO:HI in ns, got {bad!r}" in capsys.readouterr().err
    for window in ("nan:10", "-10:nan", "-inf:10"):
        assert main([*base, f"--exclude-ns={window}"]) == 1
        assert "error: exclusion window bounds must be finite" in capsys.readouterr().err
    assert main(["g2", "--simulate", "--in", "x.csv"]) == 1
    capsys.readouterr()
    assert main(["g2"]) == 1
    capsys.readouterr()


def test_cli_g2_simulates_the_library_defaults(capsys):
    """Unset stream flags and seed leave EmitterStreamConfig's defaults and DEFAULT_SEED."""
    code, kv, _ = _run_cli(capsys, "g2", "--simulate", "--duration-s", "0.05")
    a, b = simulate_timetag_streams(EmitterStreamConfig(duration_s=0.05), DEFAULT_SEED)
    dip = find_dip(g2_estimate(a, b))
    assert code == 0
    assert kv == {"n_tags_a": str(a.t_ns.size), "n_tags_b": str(b.t_ns.size),
                  "dip_delay_ns": f"{dip.delay_ns:.8g}", "dip_g2": f"{dip.g2_min:.8g}"}
    assert _run_cli(capsys, "g2", "--simulate", "--duration-s", "0.05",
                    "--seed", str(DEFAULT_SEED))[1] == kv


def test_cli_g2_reads_two_channels_from_a_file(tmp_path, capsys):
    cfg = EmitterStreamConfig(5.42e5, 1e-9, 0.5, 0.5, delay_offset_b_s=28e-9, duration_s=0.05)
    a, b = simulate_timetag_streams(cfg, 7)
    end = int(max(a.t_ns[-1], b.t_ns[-1])) + 1  # the duration the reader infers
    a, b = (TimeTagStream(s.channel, s.t_ns, end) for s in (a, b))
    iio.write_timetags_csv(tmp_path / "tags.csv", [a, b])
    code, kv, _ = _run_cli(capsys, "g2", "--in", str(tmp_path / "tags.csv"))
    dip = find_dip(g2_estimate(a, b))
    assert code == 0
    assert kv == {"n_tags_a": str(a.t_ns.size), "n_tags_b": str(b.t_ns.size),
                  "dip_delay_ns": f"{dip.delay_ns:.8g}", "dip_g2": f"{dip.g2_min:.8g}"}

    iio.write_timetags_csv(tmp_path / "one.csv", [a])
    assert main(["g2", "--in", str(tmp_path / "one.csv")]) == 1
    assert "need exactly 2 channels, found 1" in capsys.readouterr().err


def test_cli_g2_rejects_a_fractional_bin(capsys):
    assert main(["g2", "--simulate", "--duration-s", "0.01", "--bin", "1.5ns"]) == 1
    assert "--bin" in capsys.readouterr().err


def test_cli_g2_names_the_cause_of_an_empty_simulation(capsys):
    # a window that rounds to 0 ns names the config field, not the stream's
    assert main(["g2", "--simulate", "--duration-s", "1e-10"]) == 1
    err = capsys.readouterr().err
    assert "duration_s (1e-10 s) must round to at least 1 ns" in err
    assert "duration_ns" not in err
    # an offset longer than the window pushes every B tag out of it
    assert main(["g2", "--simulate", "--duration-s", "0.01", "--offset-b-ns", "2e7"]) == 1
    assert "empty tag stream: channel 'B' has no tags" in capsys.readouterr().err


def test_cli_heating_numbers(capsys):
    code, kv, _ = _run_cli(
        capsys, "heating",
        "--rate-quanta-s", "63", "--freq-mhz", "2", "--distance-um", "39",
        "--target-freq-mhz", "5.3",
        "--rate2-quanta-s", "113", "--freq2-mhz", "5.3", "--distance2-um", "35",
    )
    assert code == 0
    assert float(kv["scaled_rate_quanta_s"]) == pytest.approx(12.0177, abs=5e-4)
    assert float(kv["field_noise_ratio"]) == pytest.approx(6.0992, abs=5e-4)

    code, kv, _ = _run_cli(
        capsys, "heating", "--quanta-per-count", "0.009", "--count-rate-s", "1000"
    )
    assert code == 0
    assert float(kv["kick_heating_quanta_s"]) == pytest.approx(9.0)

    assert main(["heating"]) == 1
    capsys.readouterr()


def test_cli_run_executes_scenario(tmp_path, capsys):
    cfg = _write_minimal_cfg(
        tmp_path / "s.cfg", tmp_path / "out",
        trials_per_state=120, n_bins=120, threshold_duration_us=60.0,
    )
    code, kv, _ = _run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert "calibrated_gamma_b" in kv
    assert (tmp_path / "out" / "summary.txt").exists()


def test_cli_exit_codes(tmp_path, capsys):
    assert main(["simulate", "--no-such-flag"]) == 1
    capsys.readouterr()
    assert main(["no-such-command"]) == 1
    capsys.readouterr()
    # writing to a directory is an environment failure, not bad usage
    code = main(["simulate", "--trials-per-state", "2", "--n-bins", "60", "--out", str(tmp_path)])
    assert code == 2
    assert "runtime error" in capsys.readouterr().err
