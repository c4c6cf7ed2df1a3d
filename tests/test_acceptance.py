"""End-to-end scorecard for the toolkit's headline numbers.

Each test prints a single ``criterion N: PASS/FAIL - detail`` line before
asserting (run with ``-s`` to see the full scorecard), so one pytest pass
over this file doubles as a release checklist.  Tolerances are frozen;
loosening them here is never the right fix.
"""
from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from ionreadout import (
    APSurface,
    BiasCountCurve,
    DetectorScene,
    EmitterStreamConfig,
    HeatingPoint,
    NanowireNetwork,
    PickupModel,
    calibrate_rates,
    collection_fraction,
    decompose_currents,
    dipole_intensity,
    error_stats,
    expected_rate,
    extrapolate_sde_no_rf,
    field_noise_ratio,
    find_dip,
    fit_pickup,
    g2_estimate,
    max_induced,
    optimize_threshold,
    predict_counts,
    rate_vs_position,
    sde_calibrate,
    simulate_dataset,
    simulate_timetag_streams,
    solve_network,
)
from test_optics import oracle_collection_fraction


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def _phase_from_inphase_deg(z: complex) -> float:
    ph = np.degrees(np.angle(z))
    return abs((ph + 90.0) % 180.0 - 90.0)


def test_criterion_1_threshold_error(rates, config):
    """10^5 + 10^5 heralded trials; optimal-threshold error at 125 us."""
    start = time.perf_counter()
    retained = simulate_dataset(rates, config, trials_per_state=100_000, seed=42)
    threshold, stats = optimize_threshold(retained, 125.0)
    elapsed = time.perf_counter() - start
    err = stats.mean_error
    ok = 0.7e-3 <= err <= 1.8e-3 and elapsed < 120.0
    _report(
        1,
        ok,
        f"mean error {err:.3e} at 125 us (threshold {threshold}), "
        f"pipeline {elapsed:.1f} s",
    )


def test_criterion_2_adaptive_beats_threshold(heralded, bayes16):
    """Adaptive stopping: low error, short records, never worse than a
    fixed threshold at the same mean duration."""
    n_bins = heralded.n_bins

    per_level = []
    for res in bayes16:
        stats = error_stats(heralded.bright, res.decisions, res.bins_consumed * 1.0)
        per_level.append(stats)

    best = min(per_level, key=lambda s: s.mean_error)
    dominated = True
    for stats in per_level:
        matched = int(np.clip(round(stats.mean_duration_us), 1, n_bins))
        _, thr_stats = optimize_threshold(heralded, float(matched))
        if stats.mean_error > thr_stats.mean_error:
            dominated = False
            break

    ok = (
        best.mean_error <= 1.5e-3
        and 30.0 <= best.mean_duration_us <= 65.0
        and 15.0 <= best.mean_duration_bright_us <= 35.0
        and 40.2 <= best.mean_duration_dark_us <= 93.8
        and dominated
    )
    _report(
        2,
        ok,
        f"best error {best.mean_error:.3e}, mean duration "
        f"{best.mean_duration_us:.1f} us (bright {best.mean_duration_bright_us:.1f}, "
        f"dark {best.mean_duration_dark_us:.1f}), dominates threshold "
        f"at all {len(per_level)} levels: {dominated}",
    )


def test_criterion_3_rate_calibration(heralded, rates):
    """Rates fitted from the heralded records land near generating values."""
    cal = calibrate_rates(heralded)
    rel = {
        "gamma_b": abs(cal.gamma_b - rates.gamma_b) / rates.gamma_b,
        "gamma_d": abs(cal.gamma_d - rates.gamma_d) / rates.gamma_d,
        "gamma_dp": abs(cal.gamma_dp - rates.gamma_dp) / rates.gamma_dp,
        "gamma_rp": abs(cal.gamma_rp - rates.gamma_rp) / rates.gamma_rp,
    }
    ok = (
        rel["gamma_b"] <= 0.05
        and rel["gamma_d"] <= 0.05
        and rel["gamma_dp"] <= 0.30
        and rel["gamma_rp"] <= 0.30
    )
    _report(
        3,
        ok,
        "relative errors "
        + ", ".join(f"{k} {v * 100:.2f}%" for k, v in rel.items()),
    )


def test_criterion_4_pickup_amplitude_and_fit(plateau_curve):
    """Reduced pickup model: peak amplitude, fit recovery, rf-on deficit."""
    true = PickupModel(0.9, 3.5)
    peak = max_induced(true)

    bias = np.linspace(0.5, 8.5, 33)
    rf_on = BiasCountCurve(
        bias, np.array([predict_counts(true, plateau_curve, b) for b in bias])
    )
    fit = fit_pickup(rf_on, plateau_curve, delta_im_ua=float(np.hypot(0.9, 3.5)))

    grid = np.linspace(0.0, 8.9, 179)
    best = max(predict_counts(true, plateau_curve, b) for b in grid)
    deficit = 1.0 - best / float(plateau_curve.counts.max())

    ok = (
        abs(peak - 3.614) / 3.614 <= 0.01
        and abs(fit.model.i0_ua - 0.9) / 0.9 <= 0.05
        and abs(fit.model.i1_ua - 3.5) / 3.5 <= 0.05
        and 0.10 <= deficit <= 0.25
    )
    _report(
        4,
        ok,
        f"peak {peak:.3f} uA, fit ({fit.model.i0_ua:.3f}, {fit.model.i1_ua:.3f}) uA, "
        f"plateau deficit {deficit * 100:.1f}%",
    )


def test_criterion_5_network_structure():
    """Circuit solve: antisymmetry, quadrature linear-in-k term, linearity."""
    sym = solve_network(NanowireNetwork(z_term_left=50.0, z_term_right=50.0))
    cur = sym.currents
    anti_resid = float(np.abs(cur + cur[::-1]).max() / np.abs(cur).max())

    sol = solve_network(NanowireNetwork())
    dec = decompose_currents(sol)
    k = sol.network.k_segments
    u = (np.arange(k + 1) - k / 2) / (k / 2)
    quad = sol.currents.imag
    slope = float((quad * u).sum() / (u * u).sum())
    resid = quad - quad.mean() - slope * u
    r2_quad = 1.0 - float((resid**2).sum() / ((quad - quad.mean()) ** 2).sum())
    phase = _phase_from_inphase_deg(dec.linear)

    c = 3.7
    scaled = solve_network(NanowireNetwork(v_rf=8.8 * c))
    lin_resid = float(np.abs(scaled.currents / sol.currents - c).max() / c)

    ok = (
        anti_resid < 1e-6
        and r2_quad > 0.999
        and abs(phase - 90.0) <= 1.0
        and lin_resid < 1e-12
    )
    _report(
        5,
        ok,
        f"antisymmetry {anti_resid:.1e}, quadrature R^2 {r2_quad:.6f}, "
        f"phase {phase:.2f} deg, drive linearity {lin_resid:.1e}",
    )


def test_criterion_6_collection_geometry():
    """Emission pattern normalization, collection fraction, lateral sweep,
    and agreement with an independent fine-grid quadrature."""
    theta = np.linspace(0.0, np.pi, 2001)
    sphere = float(np.trapezoid(dipole_intensity(theta) * 2.0 * np.pi * np.sin(theta), theta))

    scene = DetectorScene()
    kappa = collection_fraction(scene)

    sweep = rate_vs_position(scene, APSurface.synthetic_placeholder(), np.arange(0.0, 161.0, 8.0))
    decreasing = bool(np.all(np.diff(sweep.rel_rate_const_ap) < 0.0))
    below_const = bool(np.all(sweep.rel_rate[1:] <= sweep.rel_rate_const_ap[1:] + 1e-12))

    fine0 = collection_fraction(replace(scene, grid_pitch_um=0.25))
    oracle0 = oracle_collection_fraction(0.0)
    oracle132 = oracle_collection_fraction(132.0)
    coarse0 = kappa
    coarse132 = collection_fraction(replace(scene, lateral_um=132.0))
    fine_rel = abs(fine0 - oracle0) / oracle0
    coarse_rel = abs(coarse0 - oracle0) / oracle0
    ratio_rel = abs(coarse132 / coarse0 - oracle132 / oracle0) / (oracle132 / oracle0)

    ok = (
        abs(sphere - 1.0) <= 1e-6
        and abs(kappa - 0.020) <= 0.0015
        and decreasing
        and below_const
        and fine_rel < 1e-6
        and coarse_rel < 1e-3
        and ratio_rel < 1e-3
    )
    _report(
        6,
        ok,
        f"sphere integral {sphere:.8f}, kappa {kappa:.5f}, sweep decreasing "
        f"{decreasing}, angle-AP below const-AP {below_const}, oracle rel errs "
        f"fine {fine_rel:.1e} coarse {coarse_rel:.1e} ratio {ratio_rel:.1e}",
    )


def test_criterion_7_efficiency_calibration():
    """SDE round trip, reference operating point, drive-off extrapolation."""
    scene = DetectorScene()

    rate = expected_rate(scene, APSurface.constant(0.5))
    round_trip = sde_calibrate(rate, scene)

    sde_on = sde_calibrate(5.42e5, scene)

    rf_off = BiasCountCurve(np.array([0.0, 2.0, 5.0, 8.9]),
                            np.array([0.0, 0.0, 1300.0, 1300.0]))
    rf_on = BiasCountCurve(np.array([0.0, 2.0, 4.5, 5.3]),
                           np.array([0.0, 0.0, 960.0, 960.0]))
    sde_off = extrapolate_sde_no_rf(0.48, rf_off, rf_on, i_m_ua=5.3, margin_ua=0.8)

    # a steeper count ratio would land above the absorption bound; the
    # result must saturate there instead
    rf_on_low = BiasCountCurve(np.array([0.0, 2.0, 4.5, 5.3]),
                               np.array([0.0, 0.0, 800.0, 800.0]))
    capped = extrapolate_sde_no_rf(0.48, rf_off, rf_on_low, i_m_ua=5.3,
                                   margin_ua=0.8, ap_normal_bound=0.72)

    ok = (
        abs(round_trip - 0.5) <= 1e-9
        and abs(sde_on - 0.48) <= 0.02
        and abs(sde_off - 0.65) <= 0.001
        and capped == 0.72
        and max(round_trip, sde_on, sde_off, capped) <= 0.72
    )
    _report(
        7,
        ok,
        f"round trip {round_trip:.9f}, rf-on SDE {sde_on:.4f}, drive-off "
        f"SDE {sde_off:.4f}, bound holds at {capped:.2f}",
    )


def test_criterion_8_correlation_histograms():
    """Flat g2 for independent channels; dip at the inserted delay."""
    bg = EmitterStreamConfig(
        emission_rate_s=0.0, dead_time_s=0.0,
        route_prob_a=0.0, route_prob_b=0.0,
        background_rate_a_s=1.05e6, background_rate_b_s=1.05e6,
        duration_s=1.0,
    )
    a, b = simulate_timetag_streams(bg, seed=42)
    n_tags = min(a.t_ns.size, b.t_ns.size)
    est = g2_estimate(a, b)
    sigma = est.ci_high - est.g2
    max_dev = float((np.abs(est.g2 - 1.0) / sigma).max())

    single = EmitterStreamConfig(
        emission_rate_s=5.42e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=1.0,
    )
    a2, b2 = simulate_timetag_streams(single, seed=42)
    est2 = g2_estimate(a2, b2)
    dip = find_dip(est2)

    ok = (
        n_tags >= 1_000_000
        and max_dev < 5.0
        and abs(dip.delay_ns - 28.0) <= est2.bin_width_ns
    )
    _report(
        8,
        ok,
        f"{n_tags} tags/channel, flat-g2 max deviation {max_dev:.2f} sigma, "
        f"dip at {dip.delay_ns:.1f} ns (g2_min {dip.g2_min:.3f})",
    )


def test_criterion_9_heating_ratio():
    """Field-noise scaling between the reference and detector zones."""
    reference = HeatingPoint(rate_quanta_s=63.0, frequency_mhz=2.0, distance_um=39.0)
    detector = HeatingPoint(rate_quanta_s=113.0, frequency_mhz=5.3, distance_um=35.0)
    ratio = field_noise_ratio(reference, detector, alpha=1.7)
    ok = abs(ratio - 6.1) <= 0.2
    _report(9, ok, f"excess field noise x{ratio:.3f}")
