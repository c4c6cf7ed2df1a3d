"""End-to-end readout experiment driven by a flat-key config file.

Config format: one ``key = value`` pair per line, ``#`` starts a
comment.  The schema is flat and closed: unknown keys are rejected, and
every run writes back an ``effective_config.cfg`` carrying all keys
(defaults included) that reproduces the run exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io as _io
from .photon_sim import (
    HeraldOutcome,
    RateParams,
    ReadoutConfig,
    apply_herald_dataset,
    simulate_dataset,
)
from .readout import (
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
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad sweep {text!r}; need hi >= lo and step > 0")
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


# key -> (type tag, required, default-as-string)
_SCHEMA: dict[str, tuple[str, bool, str | None]] = {
    "name": ("str", False, "scenario"),
    "seed": ("int", True, None),
    "trials_per_state": ("int", True, None),
    "transition_mode": ("mode", False, "exact"),
    "gamma_b_per_ms": ("float", True, None),
    "gamma_d_per_ms": ("float", True, None),
    "gamma_dp_per_ms": ("float", False, "0.0"),
    "gamma_rp_per_ms": ("float", False, "0.0"),
    "bin_width_us": ("float", False, "1.0"),
    "n_bins": ("int", True, None),
    "herald_duration_us": ("float", False, "50.0"),
    "herald_bright_min": ("int", False, "8"),
    "threshold_duration_us": ("float", False, "125.0"),
    "threshold_sweep_us": ("str", False, ""),
    "bayes_levels": ("str", False, "0.9:0.9999:16"),
    "write_trajectories": ("bool", False, "false"),
    "write_results": ("bool", False, "true"),
    "out_dir": ("str", True, None),
}


def _convert(key: str, value: str, kind: str, source: str):
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            if value.lower() in ("true", "false"):
                return value.lower() == "true"
            raise ValueError("expected true or false")
        if kind == "mode":
            if value in ("exact", "bin-boundary"):
                return value
            raise ValueError("expected exact or bin-boundary")
        return value
    except ValueError as exc:
        raise ConfigError(f"{source}: key {key!r}: {exc}") from exc


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
    for key, (kind, required, default) in _SCHEMA.items():
        if key in raw:
            text = raw[key]
        elif required:
            raise ConfigError(f"{source}: missing required key {key!r}")
        else:
            text = default
        filled[key] = text
        values[key] = _convert(key, text, kind, source)

    try:
        rates = RateParams(
            gamma_b=values["gamma_b_per_ms"],
            gamma_d=values["gamma_d_per_ms"],
            gamma_dp=values["gamma_dp_per_ms"],
            gamma_rp=values["gamma_rp_per_ms"],
        )
        readout = ReadoutConfig(
            bin_width_us=values["bin_width_us"],
            n_bins=values["n_bins"],
            herald_duration_us=values["herald_duration_us"],
            herald_bright_min=values["herald_bright_min"],
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if values["trials_per_state"] < 1:
        raise ConfigError(f"{source}: trials_per_state must be >= 1")
    sweep = values["threshold_sweep_us"]
    levels = parse_level_sweep(values["bayes_levels"])
    return Scenario(
        name=values["name"],
        seed=values["seed"],
        trials_per_state=values["trials_per_state"],
        transition_mode=values["transition_mode"],
        rates=rates,
        readout=readout,
        threshold_duration_us=values["threshold_duration_us"],
        threshold_sweep_us=parse_duration_sweep(sweep) if sweep else None,
        bayes_levels=levels,
        write_trajectories=values["write_trajectories"],
        write_results=values["write_results"],
        out_dir=Path(values["out_dir"]),
        raw=filled,
    )


def _write_effective_config(scn: Scenario, path: Path) -> None:
    lines = [f"# effective configuration for scenario {scn.name!r}"]
    for key in _SCHEMA:
        lines.append(f"{key} = {scn.raw[key]}")
    path.write_text("\n".join(lines) + "\n")


def run_scenario(path) -> dict:
    """Simulate, herald, classify both ways, calibrate, and write reports.

    Returns a summary dict (also rendered to out_dir/summary.txt).
    """
    scn = load_scenario(path)
    out = _io.ensure_dir(scn.out_dir)
    t0 = scn.readout.bin_width_us

    dataset = simulate_dataset(
        scn.rates, scn.readout, scn.trials_per_state, scn.seed, mode=scn.transition_mode
    )
    retained, tally = apply_herald_dataset(dataset, scn.readout)
    del dataset  # only the retained records are needed from here on
    if not len(retained):
        raise ConfigError(f"{path}: heralding retained no trials")
    sweep = () if scn.threshold_sweep_us is None else scn.threshold_sweep_us
    for key, d in [("threshold_duration_us", scn.threshold_duration_us),
                   *(("threshold_sweep_us", d) for d in sweep)]:
        try:
            retained.totals(float(d))  # the readout must fit the post-herald record
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r}: {exc}") from exc
    if scn.write_trajectories:
        _io.write_trajectories_csv(out / "trajectories.csv", retained)

    threshold, thr_stats = optimize_threshold(retained, scn.threshold_duration_us)
    if scn.write_results:
        _io.write_results_csv(out / "threshold_results.csv", retained.bright,
                              retained.totals(scn.threshold_duration_us) >= threshold,
                              scn.threshold_duration_us)

    sweep_rows = []
    if scn.threshold_sweep_us is not None:
        for d in scn.threshold_sweep_us:
            thr_d, stats_d = optimize_threshold(retained, float(d))
            sweep_rows.append(
                (d, thr_d, stats_d.eps_bright, stats_d.eps_dark,
                 stats_d.mean_error, stats_d.fidelity)
            )
        _io._write_rows(
            out / "threshold_sweep.csv",
            ["duration_us", "threshold", "eps_bright", "eps_dark", "mean_error", "fidelity"],
            sweep_rows,
        )

    batch = adaptive_classify_batch(retained, scn.rates, t0, scn.bayes_levels)
    bayes_rows = []
    for res in batch:
        stats = error_stats(retained.bright, res.decisions, res.bins_consumed * t0)
        bayes_rows.append(
            (
                res.confidence_level,
                stats.eps_bright,
                stats.eps_dark,
                stats.mean_error,
                stats.fidelity,
                stats.mean_duration_us,
                stats.mean_duration_bright_us,
                stats.mean_duration_dark_us,
                int(res.converged.sum()),
            )
        )
    _io._write_rows(
        out / "bayes_sweep.csv",
        [
            "confidence_level", "eps_bright", "eps_dark", "mean_error", "fidelity",
            "mean_duration_us", "mean_duration_bright_us", "mean_duration_dark_us",
            "n_converged",
        ],
        bayes_rows,
    )
    best_idx = int(np.argmin([row[3] for row in bayes_rows]))
    best = batch[best_idx]
    if scn.write_results:
        _io.write_results_csv(out / "bayes_results.csv", retained.bright, best.decisions,
                              best.bins_consumed * t0, best.confidence)

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
        "bayes_best_mean_error": bayes_rows[best_idx][3],
        "bayes_best_fidelity": bayes_rows[best_idx][4],
        "bayes_best_mean_duration_us": bayes_rows[best_idx][5],
        "bayes_best_mean_duration_bright_us": bayes_rows[best_idx][6],
        "bayes_best_mean_duration_dark_us": bayes_rows[best_idx][7],
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
    lines += [f"{key} = {_io._fmt(val)}" for key, val in summary.items()]
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    _write_effective_config(scn, out / "effective_config.cfg")
    return summary
