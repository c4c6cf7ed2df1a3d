"""Induced rf pickup: full network solve down to the two-term model.

Solves the lumped-element nanowire network at the trap drive frequency,
decomposes the segment currents into uniform and linear-gradient parts,
then predicts how a flat-top count-vs-bias curve deforms when the drive
is on and fits the pickup amplitudes back from that synthetic data.
"""
import argparse

import numpy as np

from ionreadout import (
    BiasCountCurve,
    NanowireNetwork,
    decompose_currents,
    fit_pickup,
    max_induced,
    pickup_from_solution,
    predict_counts,
    solve_network,
)
from ionreadout.io import write_bias_curve_csv


def main():
    parser = argparse.ArgumentParser(description="rf pickup model demo")
    parser.add_argument("--v-rf", type=float, default=8.8, help="drive amplitude, V")
    parser.add_argument("--out", default=None,
                        help="optional CSV path for the predicted rf-on curve")
    args = parser.parse_args()

    sol = solve_network(NanowireNetwork(v_rf=args.v_rf))
    dec = decompose_currents(sol)
    print(f"solver_residual = {sol.residual:.2e}")
    print(f"uniform_amplitude_ua = {abs(dec.uniform) * 1e6:.4f}")
    print(f"linear_amplitude_ua = {abs(dec.linear) * 1e6:.4f}")
    print(f"decomposition_r_squared = {dec.r_squared:.7f}")

    model = pickup_from_solution(sol)
    print(f"max_induced_ua = {max_induced(model):.4f}")

    # flat-top response: no counts below 2 uA, plateau up to the switch
    rf_off = BiasCountCurve(np.array([0.0, 2.0, 5.0, 8.9]),
                            np.array([0.0, 0.0, 1000.0, 1000.0]))
    bias = np.linspace(0.5, 8.5, 33)
    on_counts = predict_counts(model, rf_off, bias)
    rf_on = BiasCountCurve(bias, on_counts)
    deficit = 1.0 - on_counts.max() / rf_off.counts.max()
    print(f"plateau_deficit = {deficit:.4f}")

    fit = fit_pickup(rf_on, rf_off, delta_im_ua=max_induced(model))
    print(f"fit_i0_ua = {fit.model.i0_ua:.4f} +- {fit.i0_err_ua:.4f}")
    print(f"fit_i1_ua = {fit.model.i1_ua:.4f} +- {fit.i1_err_ua:.4f}")

    if args.out:
        write_bias_curve_csv(args.out, rf_on)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
