"""End-to-end readout experiment driven by a flat-key config file.

Config format: one ``key = value`` pair per line, ``#`` starts a
comment.  The schema is flat and closed: unknown keys are rejected, and
every run writes back an ``effective_config.cfg`` carrying all keys
(defaults included) that reproduces the run exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import io as _io
from .photon_sim import (
    HeraldOutcome,
    RateParams,
    ReadoutConfig,
    simulate_dataset,
)
from .readout import (
    MIN_CALIBRATION_BINS,
    MIN_CALIBRATION_TRIALS,
    adaptive_classify_batch,
    calibrate_rates,
    error_stats,
    optimize_threshold,
)


class ConfigError(ValueError):
    """A scenario configuration could not be validated."""


def parse_flat_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; duplicate keys are errors."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def parse_duration_sweep(text: str) -> np.ndarray:
    """'lo:hi:step' -> inclusive arithmetic grid."""
    try:
        lo, hi, step = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}; expected lo:hi:step") from exc
    if not np.isfinite([lo, hi, step]).all() or step <= 0 or hi < lo:
        raise ConfigError(f"bad sweep {text!r}; need finite bounds, hi >= lo and step > 0")
    n = int(round((hi - lo) / step))
    grid = lo + step * np.arange(n + 1)
    return grid[grid <= hi + 1e-9]


def parse_level_sweep(text: str) -> np.ndarray:
    """'lo:hi:n' -> n confidence levels, log-spaced in (1 - level)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad levels {text!r}; expected lo:hi:n")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        n = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad levels {text!r}; expected lo:hi:n") from exc
    if not (0.5 < lo < 1 and 0.5 < hi < 1) or n < 1:
        raise ConfigError(f"bad levels {text!r}; levels must lie in (0.5, 1)")
    if n == 1:
        return np.array([lo])
    return 1.0 - np.geomspace(1.0 - lo, 1.0 - hi, n)


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError("expected true or false")
    return text.lower() == "true"


def _mode(text: str) -> str:
    if text not in ("exact", "bin-boundary"):
        raise ValueError("expected exact or bin-boundary")
    return text


def _int_at_least(low: int):
    """A parser of integers of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse


def _out_dir(text: str) -> Path:
    if not text:
        raise ValueError("expected a directory path")
    return Path(text)


# key -> (parser of its text, default text or None if required)
_SCHEMA = {
    "name": (str, "scenario"),
    "seed": (_int_at_least(0), None),
    "trials_per_state": (_int_at_least(1), None),
    "transition_mode": (_mode, "exact"),
    "gamma_b_per_ms": (float, None),
    "gamma_d_per_ms": (float, None),
    "gamma_dp_per_ms": (float, "0.0"),
    "gamma_rp_per_ms": (float, "0.0"),
    "bin_width_us": (float, "1.0"),
    "n_bins": (int, None),
    "herald_duration_us": (float, "50.0"),
    "herald_bright_min": (int, "8"),
    "threshold_duration_us": (float, "125.0"),
    "threshold_sweep_us": (lambda text: parse_duration_sweep(text) if text else None, ""),
    "bayes_levels": (parse_level_sweep, "0.9:0.9999:16"),
    "write_trajectories": (_bool, "false"),
    "write_results": (_bool, "true"),
    "out_dir": (_out_dir, None),
}


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    trials_per_state: int
    transition_mode: str
    rates: RateParams
    readout: ReadoutConfig
    threshold_duration_us: float
    threshold_sweep_us: np.ndarray | None
    bayes_levels: np.ndarray
    write_trajectories: bool
    write_results: bool
    out_dir: Path
    raw: dict[str, str]


def load_scenario(path) -> Scenario:
    source = str(path)
    raw = parse_flat_config(path)
    unknown = sorted(set(raw) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"{source}: unknown key(s): {', '.join(unknown)}")
    values: dict[str, object] = {}
    filled: dict[str, str] = {}
    for key, (parse, default) in _SCHEMA.items():
        if key not in raw and default is None:
            raise ConfigError(f"{source}: missing required key {key!r}")
        filled[key] = raw.get(key, default)
        try:
            values[key] = parse(filled[key])
        except ValueError as exc:
            raise ConfigError(f"{source}: key {key!r}: {exc}") from exc

    try:
        rates = RateParams(**{f.name: values[f"{f.name}_per_ms"] for f in fields(RateParams)})
        readout = ReadoutConfig(**{f.name: values[f.name] for f in fields(ReadoutConfig)})
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    record_bins = readout.n_bins - readout.herald_bins
    if record_bins < MIN_CALIBRATION_BINS:
        raise ConfigError(f"{source}: keys 'n_bins' and 'herald_duration_us' leave {record_bins} "
                          f"bin(s) after the herald; calibration needs {MIN_CALIBRATION_BINS}")
    return Scenario(**{f.name: values[f.name] for f in fields(Scenario) if f.name in values},
                    rates=rates, readout=readout, raw=filled)


def _write_effective_config(scn: Scenario, path: Path) -> None:
    lines = [f"# effective configuration for scenario {scn.name!r}"]
    for key in _SCHEMA:
        lines.append(f"{key} = {scn.raw[key]}")
    path.write_text("\n".join(lines) + "\n")


def _stat_columns(stats, names: list[str]) -> list[list[float]]:
    """One column per ErrorStats field named, one entry per ErrorStats."""
    return [[getattr(st, name) for st in stats] for name in names]


def run_scenario(path) -> dict:
    """Simulate, herald, classify both ways, calibrate, and write reports.

    Returns a summary dict (also rendered to out_dir/summary.txt).
    """
    scn = load_scenario(path)
    out = _io.ensure_dir(scn.out_dir)
    t0 = scn.readout.bin_width_us

    retained, tally = simulate_dataset(
        scn.rates, scn.readout, scn.trials_per_state, scn.seed, mode=scn.transition_mode
    )
    sweep = () if scn.threshold_sweep_us is None else scn.threshold_sweep_us
    for key, d in [("threshold_duration_us", scn.threshold_duration_us),
                   *(("threshold_sweep_us", d) for d in sweep)]:
        try:
            retained.totals(float(d))  # the readout must fit the post-herald record
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r}: {exc}") from exc
    for outcome, state in ((HeraldOutcome.RETAINED_BRIGHT, "bright"),
                           (HeraldOutcome.RETAINED_DARK, "dark")):
        if tally[outcome] < MIN_CALIBRATION_TRIALS:
            raise ConfigError(
                f"{path}: heralding retained {tally[outcome]} {state} trials; calibration needs "
                f"{MIN_CALIBRATION_TRIALS} per state; check keys 'trials_per_state', "
                "'herald_duration_us' and 'herald_bright_min'")
    if scn.write_trajectories:
        _io.write_trajectories_csv(out / "trajectories.csv", retained)

    threshold, thr_stats = optimize_threshold(retained, scn.threshold_duration_us)
    if scn.write_results:
        _io.write_results_csv(out / "threshold_results.csv", retained.bright,
                              retained.totals(scn.threshold_duration_us) >= threshold,
                              scn.threshold_duration_us)

    errors = ["eps_bright", "eps_dark", "mean_error", "fidelity"]
    if scn.threshold_sweep_us is not None:
        thresholds, stats = zip(*(optimize_threshold(retained, float(d))
                                  for d in scn.threshold_sweep_us))
        _io.write_table(out / "threshold_sweep.csv", ["duration_us", "threshold", *errors],
                        [scn.threshold_sweep_us, thresholds, *_stat_columns(stats, errors)])

    batch = adaptive_classify_batch(retained, scn.rates, t0, scn.bayes_levels)
    per_level = [error_stats(retained.bright, res.decisions, res.bins_consumed * t0)
                 for res in batch]
    fields = [*errors, "mean_duration_us", "mean_duration_bright_us", "mean_duration_dark_us"]
    _io.write_table(out / "bayes_sweep.csv", ["confidence_level", *fields, "n_converged"],
                    [[res.confidence_level for res in batch], *_stat_columns(per_level, fields),
                     [np.count_nonzero(res.converged) for res in batch]])
    best_idx = int(np.argmin([st.mean_error for st in per_level]))
    best_stats = per_level[best_idx]
    best = batch[best_idx]
    if scn.write_results:
        _io.write_results_csv(out / "bayes_results.csv", retained.bright, best.decisions,
                              best.bins_consumed * t0, best.confidence)
    del batch, best  # the per-trial ladder is written; free it before calibration

    cal = calibrate_rates(retained)

    summary = {
        "name": scn.name,
        "seed": scn.seed,
        "trials_per_state": scn.trials_per_state,
        "retained_bright": tally[HeraldOutcome.RETAINED_BRIGHT],
        "retained_dark": tally[HeraldOutcome.RETAINED_DARK],
        "discarded": tally[HeraldOutcome.DISCARDED],
        "threshold_duration_us": scn.threshold_duration_us,
        "threshold": threshold,
        "threshold_eps_bright": thr_stats.eps_bright,
        "threshold_eps_dark": thr_stats.eps_dark,
        "threshold_mean_error": thr_stats.mean_error,
        "threshold_fidelity": thr_stats.fidelity,
        "bayes_best_level": float(scn.bayes_levels[best_idx]),
        "bayes_best_mean_error": best_stats.mean_error,
        "bayes_best_fidelity": best_stats.fidelity,
        "bayes_best_mean_duration_us": best_stats.mean_duration_us,
        "bayes_best_mean_duration_bright_us": best_stats.mean_duration_bright_us,
        "bayes_best_mean_duration_dark_us": best_stats.mean_duration_dark_us,
        "calibrated_gamma_b": cal.gamma_b,
        "calibrated_gamma_b_err": cal.gamma_b_err,
        "calibrated_gamma_d": cal.gamma_d,
        "calibrated_gamma_d_err": cal.gamma_d_err,
        "calibrated_gamma_dp": cal.gamma_dp,
        "calibrated_gamma_dp_err": cal.gamma_dp_err,
        "calibrated_gamma_rp": cal.gamma_rp,
        "calibrated_gamma_rp_err": cal.gamma_rp_err,
    }

    lines = [f"scenario summary: {scn.name}", ""]
    lines += [f"{key} = {_io.format_value(val)}" for key, val in summary.items()]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    _write_effective_config(scn, out / "effective_config.cfg")
    return summary
