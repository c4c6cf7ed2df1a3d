"""Command-line front end.

Every subcommand maps onto one module-level operation; quantities in
flag names carry explicit units.  Exit codes: 0 success, 1 validation
error (bad flags, bad config, bad input file), 2 runtime or numerical
error.  All randomness flows from explicit integer seeds; the default
seed for every subcommand that simulates is 12345.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from . import io as _io
from .optics import (
    APSurface,
    DetectorScene,
    collection_fraction,
    expected_rate,
    obscured_fraction,
    rate_vs_position,
    sde_calibrate,
)
from .photon_sim import (
    TRANSITION_MODES,
    EmitterStreamConfig,
    RateParams,
    ReadoutConfig,
    simulate_dataset,
    simulate_timetag_streams,
)
from .readout import (
    CalibratedRates,
    adaptive_classify_batch,
    calibrate_rates,
    error_stats,
    optimize_threshold,
)
from .rfcircuit import (
    BiasCountCurve,
    NanowireNetwork,
    decompose_currents,
    fit_pickup,
    max_induced,
    pickup_from_solution,
    predict_counts,
    solve_network,
)
from .scenario import ConfigError, parse_duration_sweep, run_scenario
from .timing import find_dip, g2_estimate

DEFAULT_SEED = 12345


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message: str):  # noqa: D102
        raise ConfigError(f"{self.prog}: {message}")


def _ns(text: str) -> float:
    """Parse a delay flag; a trailing 'ns' unit is accepted ('1ns' -> 1)."""
    text = text.strip()
    if text.endswith("ns"):
        text = text[: -2].strip()
    return float(text)


def _rate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma-b-per-ms", type=float, default=162.50,
                   help="bright-state count rate (1/ms, default 162.50)")
    p.add_argument("--gamma-d-per-ms", type=float, default=5.095,
                   help="dark-state count rate (1/ms, default 5.095)")
    p.add_argument("--gamma-dp-per-ms", type=float, default=0.020,
                   help="bright-to-dark pumping rate (1/ms, default 0.020)")
    p.add_argument("--gamma-rp-per-ms", type=float, default=0.0120,
                   help="dark-to-bright repumping rate (1/ms, default 0.0120)")


def _rates_from(args) -> RateParams:
    return RateParams(**{f.name: getattr(args, f.name + "_per_ms") for f in fields(RateParams)})


# rfmodel's flags: flag -> (NanowireNetwork field, the flag's unit in SI)
_NETWORK_FLAGS = {
    "k_segments": ("k_segments", 1),
    "l_wire_uh": ("l_wire_total", 1e-6),
    "c_ground_ff": ("c_ground", 1e-15),
    "c_drive_ff": ("c_drive", 1e-15),
    "c_lead_ff": ("c_lead", 1e-15),
    "l_lead_nh": ("l_lead", 1e-9),
    "r_lead_ohm": ("r_lead", 1),
    "z_term_left_ohm": ("z_term_left", 1),
    "z_term_right_ohm": ("z_term_right", 1),
    "freq_mhz": ("omega_rf", 2 * np.pi * 1e6),
    "v_rf_v": ("v_rf", 1),
}

# g2 --simulate's flags: flag -> (EmitterStreamConfig field, the flag's unit in SI)
_STREAM_FLAGS = {
    "emission_rate_s": ("emission_rate_s", 1),
    "dead_time_ns": ("dead_time_s", 1e-9),
    "route_prob_a": ("route_prob_a", 1),
    "route_prob_b": ("route_prob_b", 1),
    "background_rate_a_s": ("background_rate_a_s", 1),
    "background_rate_b_s": ("background_rate_b_s", 1),
    "offset_b_ns": ("delay_offset_b_s", 1e-9),
    "duration_s": ("duration_s", 1),
}


def _field_flags(p: argparse.ArgumentParser, cls, table=None) -> None:
    """Add an unset flag, typed as the field's default, for each field of the
    dataclass cls: those of ``table``, else one named after each field."""
    default = {f.name: f.default for f in fields(cls)}
    for flag, (name, _) in (table or {f.name: (f.name, 1) for f in fields(cls)}).items():
        p.add_argument("--" + flag.replace("_", "-"), type=type(default[name]))


def _from_flags(cls, args, table=None, **given):
    """cls from the ``given`` fields and the flags of _field_flags that the
    command line set, in SI; an unset flag leaves its field at cls's default."""
    for flag, (name, unit) in (table or {f.name: (f.name, 1) for f in fields(cls)}).items():
        if getattr(args, flag) is not None:
            given[name] = getattr(args, flag) * unit
    return cls(**given)


def _flags_set(args, dests) -> list[str]:
    """The flags, by their command-line names, among ``dests`` that the command line set."""
    return ["--" + d.replace("_", "-") for d in dests if getattr(args, d) is not None]


def _print_kv(pairs) -> None:
    for key, val in pairs:
        if isinstance(val, float):
            print(f"{key} = {val:.8g}")
        else:
            print(f"{key} = {val}")


# ---------------------------------------------------------------- simulate

def _cmd_simulate(args) -> int:
    if not args.herald and (args.herald_duration_us, args.herald_bright_min) != (None, None):
        raise ConfigError("--herald-duration-us and --herald-bright-min need --herald")
    cfg = _from_flags(ReadoutConfig, args, **({} if args.herald else {"herald_duration_us": 0.0}))
    trajs = simulate_dataset(
        _rates_from(args), cfg, args.trials_per_state, args.seed, mode=args.mode
    )
    pairs = [("trials_per_state", args.trials_per_state), ("seed", args.seed)]
    if args.herald:
        n_bright = int(np.count_nonzero(trajs.bright))
        pairs += [("herald_retained_bright", n_bright),
                  ("herald_retained_dark", len(trajs) - n_bright),
                  ("herald_discarded", 2 * args.trials_per_state - len(trajs))]
    _io.write_trajectories_csv(args.out, trajs)
    pairs.append(("trials_written", len(trajs)))
    pairs.append(("out", args.out))
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------- classify

def _stats_row(name: str, stats) -> str:
    return (
        f"{name:<10} {stats.eps_bright:>12.6g} {stats.eps_dark:>12.6g} "
        f"{stats.mean_error:>12.6g} {stats.fidelity:>12.8g} "
        f"{stats.mean_duration_us:>15.6g}"
    )


def _cmd_classify(args) -> int:
    if not (args.threshold or args.bayes):
        raise ConfigError("choose --threshold, --bayes, or both")
    if args.out and args.threshold and args.bayes:
        raise ConfigError("--out works with a single method; drop it to compare both")
    for flag, value, method in (("--threshold-counts", args.threshold_counts, "threshold"),
                                ("--duration-us", args.duration_us, "threshold"),
                                ("--level", args.level, "bayes")):
        if value is not None and not getattr(args, method):
            raise ConfigError(f"{flag} needs --{method}")
    duration_us = 125.0 if args.duration_us is None else args.duration_us
    level = 0.9999 if args.level is None else args.level
    if args.bayes and not 0.5 < level < 1.0:
        raise ConfigError(f"--level must lie in (0.5, 1), got {level:g}")
    ds = _io.read_trajectories_csv(args.infile, bin_width_us=args.bin_width_us)
    if not len(ds):
        raise ConfigError(f"{args.infile}: empty dataset")
    rows = []

    if args.threshold:
        thr = args.threshold_counts
        if thr is not None and thr < 0:
            raise ConfigError("--threshold-counts must be >= 0")
        try:
            totals = ds.totals(duration_us)  # the readout must fit the records
        except ValueError as exc:
            raise ConfigError(f"--duration-us: {exc}") from exc
        if thr is None:
            thr, _ = optimize_threshold(ds, duration_us)
        decisions = totals >= thr
        stats = error_stats(ds.bright, decisions, np.full(len(ds), duration_us))
        rows.append(("threshold", stats))
        if args.out and not args.bayes:
            _io.write_results_csv(args.out, ds.bright, decisions, duration_us)

    if args.bayes:
        res = adaptive_classify_batch(ds, _rates_from(args),
                                      args.bin_width_us, [level])[0]
        durations = res.bins_consumed * args.bin_width_us
        stats_b = error_stats(ds.bright, res.decisions, durations)
        rows.append((f"bayes@{level:g}", stats_b))
        if args.out and not args.threshold:
            _io.write_results_csv(args.out, ds.bright, res.decisions, durations, res.confidence)

    if args.threshold:
        print(f"threshold_counts = {thr}")
    print(f"{'method':<10} {'eps_bright':>12} {'eps_dark':>12} "
          f"{'mean_error':>12} {'fidelity':>12} {'mean_dur_us':>15}")
    for name, stats in rows:
        print(_stats_row(name, stats))
    return 0


# ---------------------------------------------------------------- calibrate

def _cmd_calibrate(args) -> int:
    cal = calibrate_rates(_io.read_trajectories_csv(args.infile, bin_width_us=args.bin_width_us))
    _print_kv((f.name, getattr(cal, f.name)) for f in fields(CalibratedRates))
    return 0


# ---------------------------------------------------------------- rfmodel

def _cmd_rfmodel(args) -> int:
    if args.fit:
        if not (args.rf_on and args.rf_off and args.delta_im_ua is not None):
            raise ConfigError("--fit needs --rf-on, --rf-off and --delta-im-ua")
        if args.bias_ua is not None or args.out:
            raise ConfigError("--fit ignores --bias-ua and --out; drop them")
        ignored = _flags_set(args, [f for f in _NETWORK_FLAGS if f != "k_segments"])
        if ignored:  # fit_pickup takes the segment count alone
            raise ConfigError(f"--fit ignores {', '.join(ignored)}; of the network flags "
                              "only --k-segments shapes the fit")
        fit = fit_pickup(
            _io.read_bias_curve_csv(args.rf_on),
            _io.read_bias_curve_csv(args.rf_off),
            args.delta_im_ua,
            k_segments=_from_flags(NanowireNetwork, args, _NETWORK_FLAGS).k_segments,
        )
        _print_kv([
            ("i0_ua", fit.model.i0_ua), ("i0_err_ua", fit.i0_err_ua),
            ("i1_ua", fit.model.i1_ua), ("i1_err_ua", fit.i1_err_ua),
            ("max_induced_ua", max_induced(fit.model)),
            ("residual_norm", fit.residual_norm),
        ])
        return 0

    ignored = _flags_set(args, ("rf_on", "delta_im_ua"))
    if ignored:
        raise ConfigError(f"without --fit, rfmodel ignores {' and '.join(ignored)}")
    net = _from_flags(NanowireNetwork, args, _NETWORK_FLAGS)
    # read and check every input before the first line of output
    if args.rf_off:
        curve = _io.read_bias_curve_csv(args.rf_off)
    elif args.bias_ua is not None or args.out:
        raise ConfigError("--bias-ua/--out need --rf-off to supply the drive-off curve")
    sol = solve_network(net)
    model = pickup_from_solution(sol)
    dec = decompose_currents(sol)
    pairs = [
        ("i0_ua", model.i0_ua),
        ("i1_ua", model.i1_ua),
        ("max_induced_ua", max_induced(model)),
        ("linear_r_squared", dec.r_squared),
        ("solver_residual", sol.residual),
    ]
    if args.rf_off:
        on = predict_counts(model, curve, curve.bias_ua)  # the curve --out writes
        if curve.counts.max() > 0:  # the drive's loss of peak counts
            pairs.append(("plateau_deficit", 1.0 - on.max() / curve.counts.max()))
        if args.bias_ua is not None:
            pairs.append(("predicted_counts", predict_counts(model, curve, args.bias_ua)))
    if args.out:  # --out has --rf-off, checked above
        _io.write_bias_curve_csv(args.out, BiasCountCurve(curve.bias_ua.copy(), on))
        pairs.append(("out", args.out))
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------- optics

def _cmd_optics(args) -> int:
    scene = _from_flags(DetectorScene, args)
    if args.ap_constant is not None and args.ap_file:
        raise ConfigError("--ap-constant and --ap-file conflict; pick one AP source")
    if args.ap_constant is not None:
        ap = APSurface.constant(args.ap_constant)
    elif args.ap_file:
        ap = _io.read_ap_surface_csv(args.ap_file)
    else:
        ap = APSurface.synthetic_placeholder()

    offsets = None
    if args.sweep_lateral:  # a bad sweep fails before any output
        if not args.out:
            raise ConfigError("--sweep-lateral needs --out for the CSV")
        offsets = parse_duration_sweep(args.sweep_lateral)
    elif args.out:
        raise ConfigError("--out needs --sweep-lateral")
    pairs = [
        ("collection_fraction", collection_fraction(scene)),
        ("obscured_fraction", obscured_fraction(scene)),
        ("expected_rate_s", expected_rate(scene, ap, args.internal_efficiency)),
    ]
    if args.measured_rate_s is not None:
        pairs.append(("sde", sde_calibrate(args.measured_rate_s, scene)))
    if offsets is not None:
        _io.write_position_sweep_csv(args.out, rate_vs_position(scene, ap, offsets))
        pairs.append(("out", args.out))
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------- g2

def _cmd_g2(args) -> int:
    if not float(args.bin_width_ns).is_integer():
        raise ConfigError(f"--bin must be a whole number of ns, got {args.bin_width_ns:g}")
    if args.infile and args.simulate:
        raise ConfigError("--in and --simulate conflict; pick one tag source")
    if args.infile:
        ignored = _flags_set(args, [*_STREAM_FLAGS, "seed"])
        if ignored:
            raise ConfigError(f"--in reads its tags from the file and ignores "
                              f"{', '.join(ignored)}")
        streams = _io.read_timetags_csv(args.infile)
        if len(streams) != 2:
            raise ConfigError(f"need exactly 2 channels, found {len(streams)}")
        a, b = streams
    elif args.simulate:
        a, b = simulate_timetag_streams(_from_flags(EmitterStreamConfig, args, _STREAM_FLAGS),
                                        DEFAULT_SEED if args.seed is None else args.seed)
    else:
        raise ConfigError("supply --in tags.csv or --simulate")

    exclude = None
    if args.exclude_ns:
        try:
            lo, hi = (float(p) for p in args.exclude_ns.split(":"))
        except ValueError:
            raise ConfigError(
                f"--exclude-ns must be LO:HI in ns, got {args.exclude_ns!r}") from None
        exclude = (lo, hi)
    est = g2_estimate(a, b, bin_width_ns=int(args.bin_width_ns),
                      max_delay_ns=args.max_delay_ns, exclude_ns=exclude)
    dip = find_dip(est)
    pairs = [
        ("n_tags_a", a.t_ns.size), ("n_tags_b", b.t_ns.size),
        ("dip_delay_ns", dip.delay_ns), ("dip_g2", dip.g2_min),
    ]
    if args.out:
        _io.write_g2_csv(args.out, est)
        pairs.append(("out", args.out))
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------- heating

def _cmd_heating(args) -> int:
    from .heating import HeatingPoint, field_noise_ratio, kick_heating_rate, scale_heating

    pairs = []
    if args.rate_quanta_s is not None:
        if args.freq_mhz is None or args.distance_um is None:
            raise ConfigError("a source point needs --rate-quanta-s, --freq-mhz, --distance-um")
        src = HeatingPoint(args.rate_quanta_s, args.freq_mhz, args.distance_um)
        if args.target_freq_mhz is not None:
            pairs.append(("scaled_rate_quanta_s",
                          scale_heating(src, args.target_freq_mhz, args.alpha)))
        if args.rate2_quanta_s is not None:
            if args.freq2_mhz is None or args.distance2_um is None:
                raise ConfigError(
                    "a comparison point needs --rate2-quanta-s, --freq2-mhz, --distance2-um"
                )
            other = HeatingPoint(args.rate2_quanta_s, args.freq2_mhz, args.distance2_um)
            pairs.append(("field_noise_ratio", field_noise_ratio(src, other, args.alpha)))
    if args.quanta_per_count is not None:
        if args.count_rate_s is None:
            raise ConfigError("--quanta-per-count needs --count-rate-s")
        pairs.append(("kick_heating_quanta_s",
                      kick_heating_rate(args.quanta_per_count, args.count_rate_s)))
    if not pairs:
        raise ConfigError("nothing to compute; see ionreadout heating --help")
    _print_kv(pairs)
    return 0


# ---------------------------------------------------------------- run

def _cmd_run(args) -> int:
    summary = run_scenario(args.config)
    _print_kv(summary.items())
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ionreadout",
                     description="Trapped-ion fluorescence readout toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a labeled trajectory dataset")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--trials-per-state", type=int, default=1000)
    _field_flags(p, ReadoutConfig)
    p.add_argument("--mode", choices=TRANSITION_MODES, default=TRANSITION_MODES[0])
    p.add_argument("--herald", action="store_true",
                   help="apply the herald filter before writing")
    _rate_flags(p)
    p.add_argument("--out", required=True, help="trajectory CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("classify", help="state discrimination on a trajectory CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bin-width-us", type=float, required=True,
                   help="bin width of the records (the CSV does not record it)")
    p.add_argument("--threshold", action="store_true",
                   help="fixed-duration counting threshold method")
    p.add_argument("--threshold-counts", type=int, default=None,
                   help="fixed threshold; omitted = optimize on this dataset")
    p.add_argument("--duration-us", type=float, default=None,
                   help="readout duration for --threshold (default 125)")
    p.add_argument("--bayes", action="store_true",
                   help="adaptive Bayesian method")
    p.add_argument("--level", type=float, default=None,
                   help="posterior stopping level for --bayes (default 0.9999)")
    _rate_flags(p)
    p.add_argument("--out", default=None, help="per-trial results CSV")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("calibrate", help="recover emitter rates from a dataset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--bin-width-us", type=float, required=True,
                   help="bin width of the records (the CSV does not record it)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("rfmodel", help="induced-current model of the biased wire")
    _field_flags(p, NanowireNetwork, _NETWORK_FLAGS)
    p.add_argument("--rf-off", default=None, help="drive-off bias curve CSV")
    p.add_argument("--bias-ua", type=float, default=None,
                   help="predict drive-on counts at this dc bias")
    p.add_argument("--out", default=None, help="write predicted drive-on curve CSV")
    p.add_argument("--fit", action="store_true",
                   help="fit pickup amplitudes to measured curves")
    p.add_argument("--rf-on", default=None, help="drive-on bias curve CSV (for --fit)")
    p.add_argument("--delta-im-ua", type=float, default=None,
                   help="observed shift of the response edge (for --fit)")
    p.set_defaults(func=_cmd_rfmodel)

    p = sub.add_parser("optics", help="collection geometry and efficiency")
    _field_flags(p, DetectorScene)
    p.add_argument("--ap-constant", type=float, default=None,
                   help="angle-independent absorption probability")
    p.add_argument("--ap-file", default=None,
                   help="AP surface CSV (default: a smooth synthetic surface)")
    p.add_argument("--internal-efficiency", type=float, default=1.0)
    p.add_argument("--measured-rate-s", type=float, default=None,
                   help="saturated count rate; prints the implied SDE")
    p.add_argument("--sweep-lateral", default=None, metavar="LO:HI:STEP",
                   help="emitter offset sweep in um, e.g. 0:160:8")
    p.add_argument("--out", default=None, help="position sweep CSV")
    p.set_defaults(func=_cmd_optics)

    p = sub.add_parser("g2", help="intensity correlation of two tag channels")
    p.add_argument("--in", dest="infile", default=None, help="time-tag CSV")
    p.add_argument("--simulate", action="store_true",
                   help="simulate the two channels instead of reading a file")
    p.add_argument("--seed", type=int, default=None,
                   help=f"stream seed for --simulate (default {DEFAULT_SEED})")
    _field_flags(p, EmitterStreamConfig, _STREAM_FLAGS)
    p.add_argument("--bin", "--bin-width-ns", dest="bin_width_ns", type=_ns,
                   default=1, help="histogram bin width, e.g. 1ns")
    p.add_argument("--max-delay-ns", type=int, default=500)
    p.add_argument("--exclude-ns", default=None, metavar="LO:HI",
                   help="mask delays in [LO, HI] ns")
    p.add_argument("--out", default=None, help="histogram CSV")
    p.set_defaults(func=_cmd_g2)

    p = sub.add_parser("heating", help="motional heating scalings")
    p.add_argument("--rate-quanta-s", type=float, default=None)
    p.add_argument("--freq-mhz", type=float, default=None)
    p.add_argument("--distance-um", type=float, default=None)
    p.add_argument("--target-freq-mhz", type=float, default=None)
    p.add_argument("--alpha", type=float, default=1.7,
                   help="spectral exponent of the field noise (default 1.7)")
    p.add_argument("--rate2-quanta-s", type=float, default=None)
    p.add_argument("--freq2-mhz", type=float, default=None)
    p.add_argument("--distance2-um", type=float, default=None)
    p.add_argument("--quanta-per-count", type=float, default=None)
    p.add_argument("--count-rate-s", type=float, default=None)
    p.set_defaults(func=_cmd_heating)

    p = sub.add_parser("run", help="execute a scenario config end to end")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        seed = getattr(args, "seed", None)  # g2 leaves it unset until --simulate
        if seed is not None and seed < 0:  # numpy's own error would not name the flag
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # numerical / runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
