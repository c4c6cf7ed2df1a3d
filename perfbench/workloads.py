"""The benchmark's three workloads: inputs, the timed calls, and output checks.

Each workload has ``setup`` (build the inputs from the seed), ``run`` (the
calls into the program that the clock times) and ``check`` (run after the
clock stops; compares outputs with ``oracles`` or with properties the
method must have).  A check returns (name, ok, detail).  Tolerances are
5 binomial or Poisson sigma at the workload's own sample size unless a
check says otherwise.
"""
from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import oracles

def _call_cli(main, argv) -> tuple[int, str]:
    """Run the program's CLI entry point in-process, capturing stdout.

    A command that raises (or exits, as argparse does) counts as failed
    with a non-zero code, like one that returns it.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as exc:
        rc = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = 1
    return rc, buf.getvalue()


def _key_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _read_csv(path) -> list[dict[str, str]]:
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _printed_tol(text: str) -> float:
    """Half a unit in the last printed digit of a '%.6g' number."""
    x = abs(float(text))
    return 0.0 if x == 0 else 0.5 * 10 ** (math.floor(math.log10(x)) - 5) * 1.0001


def _guarded(name, fn) -> list:
    """Run a check (or a list of checks); a malformed output fails it, not the run."""
    try:
        result = fn()
    except Exception as exc:
        return [(name, False, f"{type(exc).__name__}: {exc}")]
    return result if isinstance(result, list) else [result]


def _op(ops: list, name: str, fn):
    """Call the program once, recording the call as one attempted operation."""
    try:
        result = fn()
    except Exception:
        ops.append((name, 1))
        return None
    ops.append((name, 0))
    return result


def _rate_band(name, got, true, err_reported, floor):
    sigma = max(err_reported, floor)
    ok = abs(got - true) <= 5 * sigma
    return (f"calibrated_{name}", ok,
            f"{got:.5g} vs {true:.5g}, {abs(got - true) / sigma:.2f} sigma "
            f"(sigma {sigma:.3g}: reported {err_reported:.3g}, Poisson floor {floor:.3g})")


def _calibration_checks(values: dict[str, float], em: oracles.Emitter, n_bright: int,
                        n_dark: int, record_ms: float) -> list:
    """Calibrated rates within 5 sigma of the generating ones.

    sigma is the program's reported error, but never below the Poisson
    floor sqrt(gamma / (trials * record)) for a count rate, since the
    reported error of the peak fits is the spread of four estimates made
    from overlapping windows of the same records.
    """
    checks = []
    for name, n in (("gamma_b", n_bright), ("gamma_d", n_dark)):
        true = getattr(em, name)
        floor = math.sqrt(true / (n * record_ms))
        checks.append(_rate_band(name, values[name], true, values[name + "_err"], floor))
    for name in ("gamma_dp", "gamma_rp"):
        checks.append(_rate_band(name, values[name], getattr(em, name),
                                 values[name + "_err"], 0.0))
    return checks


# ----------------------------------------------------------- paper_pipeline

PAPER_EMITTER = oracles.Emitter(gamma_b=162.50, gamma_d=5.095, gamma_dp=0.020, gamma_rp=0.0120)
PAPER_CONFIG = {
    "name": "paper",
    "transition_mode": "exact",
    "gamma_b_per_ms": "162.50",
    "gamma_d_per_ms": "5.095",
    "gamma_dp_per_ms": "0.020",
    "gamma_rp_per_ms": "0.0120",
    "bin_width_us": "1.0",
    "n_bins": "500",
    "herald_duration_us": "50.0",
    "herald_bright_min": "8",
    "threshold_duration_us": "125.0",
    "threshold_sweep_us": "25:450:25",
    "bayes_levels": "0.9:0.9999:16",
    "write_trajectories": "false",
    "write_results": "false",
}


@dataclass
class PaperPipeline:
    """``ionreadout run`` on the paper's operating point."""

    size: str
    name = "paper_pipeline"

    @property
    def trials_per_state(self) -> int:
        return {"full": 10_000, "tiny": 1_500, "reference": 100_000}[self.size]

    def setup(self, seed: int, workdir: Path, program) -> dict:
        cfg = dict(PAPER_CONFIG, seed=str(seed), trials_per_state=str(self.trials_per_state),
                   out_dir=str(workdir / "paper"))
        path = workdir / "paper.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        return {"cfg": cfg, "path": path, "main": program.cli.main}

    def run(self, inputs: dict) -> dict:
        rc, out = _call_cli(inputs["main"], ["run", "--config", str(inputs["path"])])
        return {"ops": [("run", rc)], "stdout": out}

    def check(self, inputs: dict, outputs: dict, program) -> list:
        out_dir = Path(inputs["cfg"]["out_dir"])
        summary = {}

        def read_summary():
            text = (out_dir / "summary.txt").read_text()
            summary.update({k: float(v) if k != "name" else v
                            for k, v in _key_values(text).items()})
            return ("summary", "retained_bright" in summary, f"{len(summary)} keys")

        checks = _guarded("summary", read_summary)
        if not checks[0][1]:  # every check below reads the summary
            return checks
        return checks + [
            *_guarded("herald", lambda: self._herald(summary)),
            *_guarded("threshold_sweep", lambda: self._sweep(summary, out_dir)),
            *_guarded("adaptive_ladder", lambda: self._ladder(summary, out_dir)),
            *_guarded("calibration", lambda: _calibration_checks(
                {k[len("calibrated_"):]: v for k, v in summary.items()
                 if k.startswith("calibrated_")},
                PAPER_EMITTER, int(summary["retained_bright"]), int(summary["retained_dark"]),
                0.45)),
            *_guarded("effective_config", lambda: self._effective(inputs, out_dir)),
        ]

    def _herald(self, summary):
        n = self.trials_per_state
        probs = oracles.herald_probs(PAPER_EMITTER, 50.0, 8, "exact", 1.0)
        tallies = {"bright": summary["retained_bright"], "dark": summary["retained_dark"],
                   "discarded": summary["discarded"]}
        checks = [("herald_total", sum(tallies.values()) == 2 * n,
                   f"{sum(tallies.values()):.0f} of {2 * n}")]
        for outcome, got in tallies.items():
            expected = n * (probs[True][outcome] + probs[False][outcome])
            ok, dev = oracles.within_counts(got, expected, 2 * n)
            checks.append((f"herald_{outcome}", ok,
                           f"{got:.0f} vs model {expected:.1f} ({dev:.2f} sigma)"))
        return checks

    def _sweep(self, summary, out_dir):
        rows = _read_csv(out_dir / "threshold_sweep.csv")
        durations = [float(r["duration_us"]) for r in rows]
        checks = [("sweep_durations", durations == [25.0 * i for i in range(1, 19)],
                   f"{len(durations)} durations")]
        n_b, n_d = summary["retained_bright"], summary["retained_dark"]

        def model(d, thr):
            return oracles.threshold_error_model(PAPER_EMITTER, 50.0, 8, d, thr, "exact", 1.0,
                                                 self.trials_per_state)

        def model_error(m):
            return 0.5 * (m["err_bright"] / m["n_bright"] + m["err_dark"] / m["n_dark"])

        worst = (0.0, "")
        ok_all = True
        not_optimal = []
        for r in rows:
            d, thr = float(r["duration_us"]), int(r["threshold"])
            m = model(d, thr)
            # The chosen threshold must be optimal up to sampling noise: its
            # model error may exceed the model's best nearby threshold by at
            # most 5 sigma of a mean error measured on this many trials.
            err = model_error(m)
            p_b, p_d = m["err_bright"] / m["n_bright"], m["err_dark"] / m["n_dark"]
            sigma = 0.5 * math.sqrt(p_b * (1 - p_b) / n_b + p_d * (1 - p_d) / n_d)
            best = min(model_error(model(d, t)) for t in range(max(thr - 3, 0), thr + 4))
            if err > best + 5 * sigma:
                not_optimal.append(f"{d:g} us: threshold {thr} model error {err:.3g}, "
                                   f"best {best:.3g}")
            for label, n_obs, eps, err, n_model in (
                ("bright", n_b, float(r["eps_bright"]), m["err_bright"], m["n_bright"]),
                ("dark", n_d, float(r["eps_dark"]), m["err_dark"], m["n_dark"]),
            ):
                ok, dev = oracles.within_counts(eps * n_obs, n_obs * err / n_model, n_obs)
                ok_all &= ok
                if dev >= worst[0]:
                    worst = (dev, f"eps_{label} at {d:g} us, threshold {thr}")
        checks.append(("sweep_vs_model", ok_all,
                       f"worst {worst[0]:.2f} sigma ({worst[1]}) over {len(rows)} durations"))
        checks.append(("sweep_thresholds_optimal", not not_optimal,
                       "; ".join(not_optimal) or f"all {len(rows)} within 5 sigma of the "
                       "model's best threshold"))
        return checks

    def _ladder(self, summary, out_dir):
        rows = _read_csv(out_dir / "bayes_sweep.csv")
        dur = [float(r["mean_duration_us"]) for r in rows]
        conv = [int(r["n_converged"]) for r in rows]
        err = [float(r["mean_error"]) for r in rows]
        best = int(np.argmin(err))
        n_b, n_d = summary["retained_bright"], summary["retained_dark"]
        # 1.5e-3 is the paper-scale band.  At 10^4 trials per state an error
        # of 1e-3 is about 13 misclassified trials, so the band alone would
        # fail a correct program on some seeds: allow 3 binomial sigma of a
        # 1.5e-3 error at this size (one-sided, 0.13 % false alarms at the band).
        p = 1.5e-3
        limit = p + 3 * 0.5 * math.sqrt(p * (1 - p) / n_b + p * (1 - p) / n_d)
        return [
            ("ladder_levels", len(rows) == 16, f"{len(rows)} levels"),
            ("ladder_duration_monotone", all(b >= a for a, b in zip(dur, dur[1:])),
             f"{dur[0]:.2f} .. {dur[-1]:.2f} us"),
            ("ladder_converged_monotone", all(b <= a for a, b in zip(conv, conv[1:])),
             f"{conv[0]} .. {conv[-1]}"),
            ("ladder_best_error", err[best] <= limit,
             f"{err[best]:.3e} at level {float(rows[best]['confidence_level']):.6f} "
             f"(limit {limit:.3e})"),
            ("ladder_best_duration", 30.0 <= dur[best] <= 65.0, f"{dur[best]:.2f} us"),
            ("summary_matches_ladder", math.isclose(summary["bayes_best_mean_error"],
                                                    err[best], rel_tol=1e-9),
             f"{summary['bayes_best_mean_error']:.6e}"),
        ]

    def _effective(self, inputs, out_dir):
        got = _key_values((out_dir / "effective_config.cfg").read_text())
        bad = []
        for key, want in inputs["cfg"].items():
            have = got.get(key)
            try:
                same = have is not None and float(have) == float(want)
            except ValueError:
                same = have == want
            if not same:
                bad.append(f"{key}: {have!r} != {want!r}")
        return ("effective_config", not bad, "; ".join(bad) or f"{len(got)} keys reload")


# ---------------------------------------------------------------- offline_csv

OFFLINE_EMITTER = oracles.Emitter(gamma_b=60.0, gamma_d=2.0, gamma_dp=0.020, gamma_rp=0.0120)
OFFLINE = dict(bin_width_us=0.5, n_bins=1000, herald_us=100.0, herald_bright_min=3,
               duration_us=200.0, level=0.9999)


@dataclass
class OfflineCsv:
    """simulate -> trajectory CSV -> classify and calibrate from the file."""

    size: str
    name = "offline_csv"

    @property
    def trials_per_state(self) -> int:
        return {"full": 300, "tiny": 200}[self.size]

    def setup(self, seed: int, workdir: Path, program) -> dict:
        o, em = OFFLINE, OFFLINE_EMITTER
        csv = str(workdir / "traj.csv")
        width = ["--bin-width-us", str(o["bin_width_us"])]
        rates = ["--gamma-b-per-ms", str(em.gamma_b), "--gamma-d-per-ms", str(em.gamma_d),
                 "--gamma-dp-per-ms", str(em.gamma_dp), "--gamma-rp-per-ms", str(em.gamma_rp)]
        return {
            "csv": csv,
            "main": program.cli.main,
            "argv": [
                ["simulate", "--seed", str(seed), "--trials-per-state", str(self.trials_per_state),
                 "--n-bins", str(o["n_bins"]), "--mode", "bin-boundary", "--herald",
                 "--herald-duration-us", str(o["herald_us"]),
                 "--herald-bright-min", str(o["herald_bright_min"]), "--out", csv,
                 *width, *rates],
                ["classify", "--in", csv, "--threshold", "--bayes",
                 "--duration-us", str(o["duration_us"]), "--level", str(o["level"]),
                 *width, *rates],
                ["calibrate", "--in", csv, *width],
            ],
        }

    def run(self, inputs: dict) -> dict:
        ops, stdout = [], []
        for argv in inputs["argv"]:
            rc, out = _call_cli(inputs["main"], argv)
            ops.append((argv[0], rc))
            stdout.append(out)
        return {"ops": ops, "stdout": stdout}

    def check(self, inputs: dict, outputs: dict, program) -> list:
        sim, cls, cal = outputs["stdout"]
        parsed = {}

        def sim_kv():
            return {k: float(v) for k, v in _key_values(sim).items() if k != "out"}

        def parse():
            n = int(sim_kv()["trials_written"])
            parsed["labels"], parsed["counts"] = oracles.read_trajectory_csv(inputs["csv"])
            labels, counts = parsed["labels"], parsed["counts"]
            post = OFFLINE["n_bins"] - int(OFFLINE["herald_us"] / OFFLINE["bin_width_us"])
            return ("csv_parse", counts.shape == (n, post)
                    and np.count_nonzero(labels) == sim_kv()["herald_retained_bright"],
                    f"{counts.shape[0]} trials x {counts.shape[1]} bins, "
                    f"{counts.size} rows; trials_written {n}")

        checks = [*_guarded("csv_parse", parse),
                  *_guarded("herald", lambda: self._herald(sim_kv()))]
        if "counts" not in parsed:  # the checks below need the records
            return checks
        checks += _guarded("threshold_recount", lambda: self._recount(parsed, cls))
        checks += _guarded("adaptive", lambda: self._adaptive(parsed, cls, program))
        checks += _guarded("calibration", lambda: _calibration_checks(
            {k: float(v) for k, v in _key_values(cal).items()}, OFFLINE_EMITTER,
            int(np.count_nonzero(parsed["labels"])), int(np.count_nonzero(~parsed["labels"])),
            parsed["counts"].shape[1] * OFFLINE["bin_width_us"] * 1e-3))
        return checks

    @staticmethod
    def _classify_table(cls: str) -> dict[str, list[str]]:
        """Rows of the printed classify table, by method."""
        return {line.split()[0]: line.split()[1:] for line in cls.splitlines()[2:]}

    def _herald(self, sim_kv):
        n = self.trials_per_state
        o = OFFLINE
        probs = oracles.herald_probs(OFFLINE_EMITTER, o["herald_us"], o["herald_bright_min"],
                                     "bin-boundary", o["bin_width_us"])
        checks = []
        for outcome in ("bright", "dark", "discarded"):
            got = sim_kv[f"herald_retained_{outcome}" if outcome != "discarded"
                         else "herald_discarded"]
            expected = n * (probs[True][outcome] + probs[False][outcome])
            ok, dev = oracles.within_counts(got, expected, 2 * n)
            checks.append((f"herald_{outcome}", ok,
                           f"{got:.0f} vs model {expected:.1f} ({dev:.2f} sigma)"))
        return checks

    def _recount(self, parsed, cls):
        threshold = int(_key_values(cls)["threshold_counts"])
        row = self._classify_table(cls)["threshold"]
        nb = int(round(OFFLINE["duration_us"] / OFFLINE["bin_width_us"]))
        thr, eps_b, eps_d = oracles.best_threshold(parsed["labels"],
                                                   parsed["counts"][:, :nb].sum(axis=1))
        printed = {"eps_bright": row[0], "eps_dark": row[1], "mean_error": row[2]}
        mine = {"eps_bright": eps_b, "eps_dark": eps_d, "mean_error": 0.5 * (eps_b + eps_d)}
        bad = [k for k in printed
               if abs(mine[k] - float(printed[k])) > _printed_tol(printed[k])]
        return ("threshold_recount", thr == threshold and not bad,
                f"threshold {thr} vs printed {threshold}; mean error {mine['mean_error']:.6g} "
                f"vs printed {printed['mean_error']}" + (f"; differ: {bad}" if bad else ""))

    def _adaptive(self, parsed, cls, program):
        o, em = OFFLINE, OFFLINE_EMITTER
        labels, counts = parsed["labels"], parsed["counts"]
        dec, used = oracles.llr_filter(counts, em, o["bin_width_us"], o["level"])
        row = self._classify_table(cls)[f"bayes@{o['level']:g}"]
        n_b, n_d = np.count_nonzero(labels), np.count_nonzero(~labels)
        eps_b = np.count_nonzero(~dec & labels) / n_b
        eps_d = np.count_nonzero(dec & ~labels) / n_d
        err = 0.5 * (eps_b + eps_d)
        dur = used * o["bin_width_us"]
        sigma_err = 0.5 * math.sqrt(eps_b * (1 - eps_b) / n_b + eps_d * (1 - eps_d) / n_d)
        sigma_dur = float(dur.std(ddof=1) / math.sqrt(dur.size))
        checks = [
            ("llr_error", abs(err - float(row[2])) <= sigma_err + _printed_tol(row[2]),
             f"{err:.6g} vs printed {row[2]} (sigma {sigma_err:.2g})"),
            ("llr_mean_duration",
             abs(dur.mean() - float(row[4])) <= sigma_dur + _printed_tol(row[4]),
             f"{dur.mean():.6g} us vs printed {row[4]} (sigma {sigma_dur:.2g})"),
        ]
        # Per-trial agreement needs the program's per-trial decisions, which
        # the timed command only summarizes: recompute them with the same
        # library call on the same records and tie them to the printed row.
        trajs = [program.Trajectory(prepared="bright" if b else "dark", bins=c,
                                    bin_width_us=o["bin_width_us"])
                 for b, c in zip(labels, counts)]
        rates = program.RateParams(em.gamma_b, em.gamma_d, em.gamma_dp, em.gamma_rp)
        res = program.adaptive_classify_batch(trajs, rates, o["bin_width_us"], [o["level"]])[0]
        p_eps_b = np.count_nonzero(~res.decisions & labels) / n_b
        p_eps_d = np.count_nonzero(res.decisions & ~labels) / n_d
        same_row = (abs(0.5 * (p_eps_b + p_eps_d) - float(row[2])) <= _printed_tol(row[2])
                    and abs(res.bins_consumed.mean() * o["bin_width_us"] - float(row[4]))
                    <= _printed_tol(row[4]))
        agree = float(np.mean(res.decisions == dec))
        same_stop = float(np.mean(res.bins_consumed == used))
        checks.append(("llr_decisions", same_row and agree >= 0.999,
                       f"{agree * 100:.3f}% decisions and {same_stop * 100:.3f}% stop bins "
                       f"agree over {labels.size} trials ({np.mean(~res.converged) * 100:.1f}% "
                       f"still open at the record end); program rerun matches printed row: "
                       f"{same_row}"))
        return checks


# ---------------------------------------------------------------- side_paths

@dataclass
class SidePaths:
    """Time-tag g2, the optics lateral sweep and the rf pickup solve and fit."""

    size: str
    name = "side_paths"

    @property
    def params(self) -> dict:
        if self.size == "full":
            return dict(stream_s=4.0, pitch_um=0.25, offsets=np.arange(0.0, 241.0, 4.0),
                        k_segments=1200, n_bias=65)
        return dict(stream_s=0.2, pitch_um=0.5, offsets=np.arange(0.0, 241.0, 40.0),
                    k_segments=200, n_bias=17)

    # The electrode edge starts to cut the detector at about 186 um.
    CF_OFFSETS = (0.0, 60.0, 132.0, 180.0, 200.0, 230.0)

    def setup(self, seed: int, workdir: Path, program) -> dict:
        p = self.params
        rng = np.random.default_rng(seed)
        i0, i1 = rng.uniform(0.6, 1.4), rng.uniform(2.5, 4.5)
        off_bias, off_counts = np.array([0.0, 2.0, 5.0, 8.9]), np.array([0.0, 0.0, 1000.0, 1000.0])
        bias = np.linspace(0.5, 8.5, p["n_bias"])
        on_counts = oracles.rf_on_counts(i0, i1, 40, off_bias, off_counts, bias)
        return {
            "program": program,
            "seeds": (seed * 2 + 1, seed * 2 + 2),
            "background": program.EmitterStreamConfig(
                emission_rate_s=0.0, dead_time_s=0.0, route_prob_a=0.0, route_prob_b=0.0,
                background_rate_a_s=1.05e6, background_rate_b_s=1.05e6,
                duration_s=p["stream_s"]),
            "single": program.EmitterStreamConfig(
                emission_rate_s=5.42e5, dead_time_s=1e-9, route_prob_a=0.5, route_prob_b=0.5,
                delay_offset_b_s=28e-9, duration_s=p["stream_s"]),
            "scene": program.DetectorScene(grid_pitch_um=p["pitch_um"]),
            "ap": program.APSurface.synthetic_placeholder(),
            "offsets": p["offsets"],
            "network": program.NanowireNetwork(k_segments=p["k_segments"]),
            "pickup": (i0, i1),
            "rf_off": program.BiasCountCurve(off_bias, off_counts),
            "rf_on": program.BiasCountCurve(bias, on_counts),
        }

    def run(self, inputs: dict) -> dict:
        pg = inputs["program"]
        ops: list = []
        out = {"ops": ops}
        out["bg"] = _op(ops, "simulate_timetag_streams", lambda: pg.simulate_timetag_streams(
            inputs["background"], inputs["seeds"][0]))
        out["bg_g2"] = _op(ops, "g2_estimate", lambda: pg.g2_estimate(*out["bg"]))
        out["single"] = _op(ops, "simulate_timetag_streams", lambda: pg.simulate_timetag_streams(
            inputs["single"], inputs["seeds"][1]))
        out["single_g2"] = _op(ops, "g2_estimate", lambda: pg.g2_estimate(*out["single"]))
        out["dip"] = _op(ops, "find_dip", lambda: pg.find_dip(out["single_g2"]))
        out["sweep"] = _op(ops, "rate_vs_position", lambda: pg.rate_vs_position(
            inputs["scene"], inputs["ap"], inputs["offsets"]))
        out["cf"] = [_op(ops, "collection_fraction", lambda x=x: pg.collection_fraction(
            replace(inputs["scene"], lateral_um=x))) for x in self.CF_OFFSETS]
        out["solution"] = _op(ops, "solve_network", lambda: pg.solve_network(inputs["network"]))
        out["fit"] = _op(ops, "fit_pickup", lambda: pg.fit_pickup(
            inputs["rf_on"], inputs["rf_off"], float(np.hypot(*inputs["pickup"]))))
        return out

    def check(self, inputs: dict, outputs: dict, program) -> list:
        return [*_guarded("g2_background", lambda: self._flat(inputs, outputs)),
                *_guarded("g2_dip", lambda: self._dip(outputs)),
                *_guarded("optics", lambda: self._optics(inputs, outputs)),
                *_guarded("rfcircuit", lambda: self._rf(inputs, outputs))]

    def _flat(self, inputs, outputs):
        a, b = outputs["bg"]
        est = outputs["bg_g2"]
        cfg = inputs["background"]
        expect_tags = cfg.background_rate_a_s * cfg.duration_s
        tag_dev = max(abs(s.t_ns.size - expect_tags) for s in (a, b)) / math.sqrt(expect_tags)
        mu = oracles.g2_expected_pairs(a.t_ns.size, b.t_ns.size, a.duration_ns,
                                       int(est.bin_width_ns))
        pairs = est.n_pairs.astype(float)
        bin_dev = float(np.max(np.abs(pairs - mu)) / math.sqrt(mu))
        total = pairs.sum()
        total_mu = mu * pairs.size
        total_dev = abs(total - total_mu) / math.sqrt(total_mu)
        normalised = bool(np.allclose(est.g2, pairs / mu, rtol=1e-12, atol=0))
        return [
            ("g2_tag_counts", tag_dev <= 5, f"{a.t_ns.size} / {b.t_ns.size} tags, "
             f"worst {tag_dev:.2f} sigma from {expect_tags:.0f}"),
            ("g2_flat", bin_dev <= 5 + 1 / math.sqrt(mu) and normalised,
             f"worst bin {bin_dev:.2f} sigma over {pairs.size} bins "
             f"(expected {mu:.1f} pairs each); g2 = pairs / expectation: {normalised}"),
            ("g2_total_pairs", total_dev <= 5,
             f"{total:.0f} vs {total_mu:.1f} ({total_dev:.2f} sigma)"),
        ]

    def _dip(self, outputs):
        dip, est = outputs["dip"], outputs["single_g2"]
        at = est.g2[np.argmin(np.abs(est.delay_ns - 28.0))]
        return [("g2_dip", abs(dip.delay_ns - 28.0) <= est.bin_width_ns and at < 0.1,
                 f"dip at {dip.delay_ns:g} ns, g2(28 ns) = {at:.4f}")]

    def _optics(self, inputs, outputs):
        geo = oracles.DetectorGeometry()
        pitch = inputs["scene"].grid_pitch_um

        def tol(x):
            # 1e-3 relative; where the edge cuts the detector, widened by the
            # emission into the half-pitch strip around the edge, which bounds
            # the error of keeping or dropping whole grid cells by their centre
            return 1e-3 + geo.edge_strip_fraction(x, pitch) / geo.collection_fraction(x)

        cf_dev = {x: abs(got / geo.collection_fraction(x) - 1) / tol(x)
                  for x, got in zip(self.CF_OFFSETS, outputs["cf"])}
        blocked = [x for x in self.CF_OFFSETS if geo.edge_strip_fraction(x, pitch) > 0]
        clear = [x for x in self.CF_OFFSETS if x not in blocked]
        sweep = outputs["sweep"]
        offs = inputs["offsets"]
        ref = geo.collection_fraction(offs[0])
        ratio_dev = [abs(got / (geo.collection_fraction(x) / ref) - 1) / (tol(x) + tol(offs[0]))
                     for x, got in zip(offs, sweep.rel_rate_const_ap)]
        return [
            ("collection_fraction", bool(clear) and max(cf_dev[x] for x in clear) <= 1,
             f"worst {max(cf_dev[x] for x in clear) * 1e-3:.2e} relative at unblocked "
             f"offsets {clear} um (tolerance 1e-3)"),
            ("collection_fraction_blocked", max(cf_dev[x] for x in blocked) <= 1,
             f"worst {max(cf_dev[x] for x in blocked):.3f} of tolerance at blocked "
             f"offsets {blocked} um"),
            ("sweep_const_ap_vs_quadrature", max(ratio_dev) <= 1,
             f"worst {max(ratio_dev):.3f} of tolerance over {offs.size} offsets"),
            ("sweep_const_ap_decreasing", bool(np.all(np.diff(sweep.rel_rate_const_ap) < 0)),
             f"{sweep.rel_rate_const_ap[0]:.3f} .. {sweep.rel_rate_const_ap[-1]:.4f}"),
            ("sweep_angle_ap_below", bool(np.all(sweep.rel_rate[1:]
                                                 <= sweep.rel_rate_const_ap[1:] + 1e-12)),
             f"rel_rate at last offset {sweep.rel_rate[-1]:.4f}"),
        ]

    def _rf(self, inputs, outputs):
        sol, net = outputs["solution"], inputs["network"]
        resid = oracles.network_residual(
            sol.node_voltages, net.k_segments, net.l_wire_total, net.c_ground, net.c_drive,
            net.c_lead, net.l_lead, net.r_lead, net.z_term_left, net.z_term_right,
            net.omega_rf, net.v_rf)
        fit = outputs["fit"].model
        i0, i1 = inputs["pickup"]
        rel = max(abs(fit.i0_ua - i0) / i0, abs(fit.i1_ua - i1) / i1)
        return [
            ("network_residual", resid < 1e-9 and sol.residual < 1e-9,
             f"Kirchhoff imbalance {resid:.2e}, reported {sol.residual:.2e}"),
            ("pickup_fit", rel <= 0.05,
             f"({fit.i0_ua:.4f}, {fit.i1_ua:.4f}) vs ({i0:.4f}, {i1:.4f}) uA, "
             f"worst {rel * 100:.3f}%"),
        ]


WORKLOADS = {cls.name: cls for cls in (PaperPipeline, OfflineCsv, SidePaths)}
