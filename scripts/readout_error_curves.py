"""Readout error versus integration time, fixed threshold and adaptive.

Simulates a heralded dataset, scans the classical threshold classifier
over readout durations, runs the adaptive classifier over a ladder of
stopping confidences, and writes both sweeps as CSV next to a printed
summary.  Seeded, so reruns reproduce byte-identical outputs.
"""
import argparse
from pathlib import Path

import numpy as np

from ionreadout import (
    BRIGHT,
    DARK,
    RateParams,
    ReadoutConfig,
    adaptive_classify_batch,
    apply_herald_dataset,
    error_stats,
    simulate_dataset,
    threshold_error_vs_duration,
)
from ionreadout.io import ensure_dir


def main():
    parser = argparse.ArgumentParser(
        description="Threshold and adaptive readout error curves"
    )
    parser.add_argument("--trials", type=int, default=20_000,
                        help="trials per prepared state")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="out/error_curves",
                        help="output directory for the two CSV sweeps")
    args = parser.parse_args()

    rates = RateParams(gamma_b=162.50, gamma_d=5.095, gamma_dp=0.020, gamma_rp=0.0120)
    config = ReadoutConfig(bin_width_us=1.0, n_bins=500,
                           herald_duration_us=50.0, herald_bright_min=8)
    dataset = simulate_dataset(rates, config, trials_per_state=args.trials,
                               seed=args.seed)
    retained, tally = apply_herald_dataset(dataset, config)
    for outcome, n in sorted(tally.items(), key=lambda kv: kv[0].value):
        print(f"{outcome.value} = {n}")

    out_dir = ensure_dir(Path(args.out))
    durations = np.arange(25.0, 451.0, 25.0)
    rows = threshold_error_vs_duration(retained, durations)
    with open(out_dir / "threshold_sweep.csv", "w") as fh:
        fh.write("duration_us,threshold,mean_error\n")
        for dur, thr, stats in rows:
            fh.write(f"{dur},{thr},{stats.mean_error!r}\n")
    best_dur, best_thr, best_stats = min(rows, key=lambda r: r[2].mean_error)
    print(f"threshold_best_duration_us = {best_dur}")
    print(f"threshold_best_error = {best_stats.mean_error:.3e}")

    labels = np.where(retained.bright, BRIGHT, DARK)
    levels = 1.0 - np.geomspace(0.1, 1e-4, 16)
    with open(out_dir / "adaptive_sweep.csv", "w") as fh:
        fh.write("confidence_level,mean_duration_us,mean_error\n")
        best = None
        for res in adaptive_classify_batch(retained, rates, config.bin_width_us, levels):
            decisions = np.where(res.decisions, BRIGHT, DARK)
            stats = error_stats(labels, decisions,
                                res.bins_consumed * config.bin_width_us)
            fh.write(f"{res.confidence_level!r},{stats.mean_duration_us!r},"
                     f"{stats.mean_error!r}\n")
            if best is None or stats.mean_error < best[1].mean_error:
                best = (res.confidence_level, stats)
    print(f"adaptive_best_level = {best[0]:.6f}")
    print(f"adaptive_best_error = {best[1].mean_error:.3e}")
    print(f"adaptive_best_duration_us = {best[1].mean_duration_us:.1f}")
    print(f"wrote {out_dir}/threshold_sweep.csv and adaptive_sweep.csv")


if __name__ == "__main__":
    main()
