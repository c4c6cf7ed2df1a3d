"""Collection geometry, polarization split, detection-efficiency pipeline."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.interpolate import RegularGridInterpolator

from ionreadout import (
    APCoverageError,
    APSurface,
    BiasCountCurve,
    CalibrationInputs,
    DetectorScene,
    collection_fraction,
    dipole_intensity,
    expected_rate,
    extrapolate_sde_no_rf,
    obscured_fraction,
    rate_vs_position,
    saturation_extrapolate,
    sde_calibrate,
)
from ionreadout.optics import DEFAULT_DECAY_RATE_S, _polarization_weights, _visible_cells

HALF_DECAY = 0.5 * DEFAULT_DECAY_RATE_S  # photons/s into 4pi, per saturation limit


def oracle_collection_fraction(lateral_um: float, pitch_um: float = 0.25) -> float:
    """Independent scalar-loop quadrature of the same integrand.

    Deliberately avoids the package's vectorized implementation: plain
    Python loops, math-module scalars, 0.25 um midpoint cells, explicit
    edge-blocking check.
    """
    w, h = 22.0, 20.0
    height, recess = 29.0, 6.0
    z = height + recess
    margin = 30.0
    qx, qy = math.cos(math.radians(45.0)), math.sin(math.radians(45.0))
    nx, ny = int(round(w / pitch_um)), int(round(h / pitch_um))
    dx, dy = w / nx, h / ny
    f = height / z  # sight line's crossing of the electrode top plane
    total = 0.0
    for i in range(nx):
        cell_x = -w / 2 + (i + 0.5) * dx
        x = cell_x - lateral_um
        for j in range(ny):
            y = -h / 2 + (j + 0.5) * dy
            cross_x = lateral_um + f * (cell_x - lateral_um)
            cross_y = f * y
            if abs(cross_x) > w / 2 + margin or abs(cross_y) > h / 2 + margin:
                continue
            r = math.sqrt(x * x + y * y + z * z)
            cos_inc = z / r
            cos_tq = (x * qx + y * qy) / r
            weight = 3.0 / (16.0 * math.pi) * (1.0 + cos_tq * cos_tq)
            total += weight * dx * dy * cos_inc / (r * r)
    return total


def test_dipole_reference_values():
    assert dipole_intensity(0.0) == pytest.approx(3.0 / (8.0 * np.pi), rel=1e-12)
    assert dipole_intensity(0.0) == pytest.approx(0.11937, abs=5e-6)
    assert dipole_intensity(np.pi / 2) == pytest.approx(0.05968, abs=5e-6)


def test_dipole_full_sphere_normalization():
    theta = np.linspace(0.0, np.pi, 2001)
    integrand = dipole_intensity(theta) * 2.0 * np.pi * np.sin(theta)
    assert np.trapezoid(integrand, theta) == pytest.approx(1.0, abs=1e-6)


def test_collection_fraction_reference_geometry():
    assert collection_fraction(DetectorScene()) == pytest.approx(0.020, abs=0.001)


def test_collection_fraction_zero_area():
    assert collection_fraction(replace(DetectorScene(), detector_w_um=0.0)) == 0.0


def test_collection_fraction_hemisphere_limit():
    # a plane detector sees at most half the sphere; the dipole pattern
    # is symmetric under inversion, so the half-space integral is 1/2
    big = DetectorScene(
        detector_w_um=20_000.0, detector_h_um=20_000.0, recess_um=6.0,
        ion_height_um=29.0, grid_pitch_um=20.0, opening_margin_um=1e9,
    )
    assert collection_fraction(big) == pytest.approx(0.5, abs=0.005)


def test_grid_halving_changes_little():
    coarse = collection_fraction(DetectorScene())
    fine = collection_fraction(replace(DetectorScene(), grid_pitch_um=0.5))
    assert abs(fine - coarse) / coarse < 0.002


def test_fine_grid_oracle_agreement():
    scene_fine = replace(DetectorScene(), grid_pitch_um=0.25)
    for lateral in (0.0, 132.0):
        mine = collection_fraction(replace(scene_fine, lateral_um=lateral))
        assert mine == pytest.approx(oracle_collection_fraction(lateral), rel=1e-9)
    coarse0 = collection_fraction(DetectorScene())
    coarse132 = collection_fraction(replace(DetectorScene(), lateral_um=132.0))
    assert coarse0 == pytest.approx(oracle_collection_fraction(0.0), rel=1e-3)
    ratio = coarse132 / coarse0
    oracle_ratio = oracle_collection_fraction(132.0) / oracle_collection_fraction(0.0)
    assert ratio == pytest.approx(oracle_ratio, rel=1e-3)


def test_polarization_weights_sum_to_one():
    n_hat, _, _ = _visible_cells(replace(DetectorScene(), lateral_um=40.0))
    w_te, w_tm, theta_deg, phi_deg = _polarization_weights(n_hat, DetectorScene())
    assert np.all(np.abs(w_te + w_tm - 1.0) < 1e-9)
    assert np.all((theta_deg >= 0) & (theta_deg <= 90.0))


def _complex_projection_weights(n_hat, scene):
    """(w_te, w_tm) from the complex far field d - (n.d) n of the rotating dipole."""
    a = np.radians(scene.quant_axis_deg)
    d_vec = (np.array([-np.sin(a), np.cos(a), 0.0]) + 1j * np.array([0.0, 0.0, 1.0])) / np.sqrt(2)
    e_field = d_vec[None, :] - (n_hat @ d_vec)[:, None] * n_hat
    w = np.radians(scene.nanowire_axis_deg)
    s_raw = np.stack([n_hat[:, 1], -n_hat[:, 0], np.zeros(len(n_hat))], axis=1)
    s_norm = np.linalg.norm(s_raw, axis=1, keepdims=True)
    s_hat = np.where(s_norm < 1e-12, [-np.sin(w), np.cos(w), 0.0], s_raw / np.maximum(s_norm, 1e-300))
    p_hat = np.cross(s_hat, n_hat)
    te = np.abs(np.sum(e_field * s_hat, axis=1)) ** 2
    tm = np.abs(np.sum(e_field * p_hat, axis=1)) ** 2
    return te / (te + tm), tm / (te + tm)


@pytest.mark.parametrize("quant_axis_deg", [0.0, 45.0, 90.0, 137.5])
@pytest.mark.parametrize("nanowire_axis_deg", [0.0, 30.0, 90.0])
def test_real_polarization_weights_match_complex_projection(quant_axis_deg, nanowire_axis_deg):
    """The real-arithmetic weights equal the complex field projection, n = +/-z included."""
    rng = np.random.default_rng(int(quant_axis_deg * 10 + nanowire_axis_deg))
    random = rng.normal(size=(500, 3))
    ring = np.radians(rng.uniform(0.0, 360.0, 20))
    flat = np.stack([np.cos(ring), np.sin(ring), np.zeros(ring.size)], axis=1)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    n_hat = np.concatenate([random, flat, poles])
    n_hat /= np.linalg.norm(n_hat, axis=1, keepdims=True)
    scene = DetectorScene(quant_axis_deg=quant_axis_deg, nanowire_axis_deg=nanowire_axis_deg)
    w_te, w_tm, _, _ = _polarization_weights(n_hat, scene)
    ref_te, ref_tm = _complex_projection_weights(n_hat, scene)
    assert np.allclose(w_te, ref_te, rtol=0.0, atol=1e-12)
    assert np.allclose(w_tm, ref_tm, rtol=0.0, atol=1e-12)
    assert np.all(np.abs(w_te + w_tm - 1.0) < 1e-12)


def _grid(lo, hi):
    """Strictly increasing grids of 2-6 points inside [lo, hi], both ends included."""
    inner = st.lists(st.floats(lo, hi), max_size=4, unique=True)
    grids = inner.map(lambda xs: np.unique([lo, *xs, hi]))
    return grids.filter(lambda g: np.all(np.diff(g) > 1e-3))


@given(thetas=_grid(0.0, 90.0), phis=_grid(0.0, 355.0),
       coef=st.tuples(*[st.floats(0.0, 0.25)] * 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_ap_surface_validation_and_lookup(thetas, phis, coef, data):
    with pytest.raises(ValueError):
        APSurface(np.array([0.0, 1.0]), np.array([0.0, 360.0]),
                  np.full((2, 2), 1.5), np.full((2, 2), 0.5))
    surf = APSurface.constant(0.3)
    te, tm = surf.lookup(17.0, 123.0)
    assert te.shape == tm.shape == ()
    assert te == pytest.approx(0.3) and tm == pytest.approx(0.3)
    narrow = APSurface(np.array([0.0, 45.0]), np.array([0.0, 360.0]),
                       np.full((2, 2), 0.5), np.full((2, 2), 0.5))
    with pytest.raises(APCoverageError):
        narrow.lookup(60.0, 10.0)
    # a far-offset emitter needs incidence angles past the tabulated edge
    far = replace(DetectorScene(), lateral_um=132.0)
    with pytest.raises(APCoverageError):
        expected_rate(far, narrow, CalibrationInputs())

    # bilinear interpolation is exact for a + b*theta + c*phi + d*theta*phi
    a, b, c, d = coef
    def plane(t, p):
        return a + b * t / 90.0 + c * p / 355.0 + d * (t / 90.0) * (p / 355.0)
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    surf = APSurface(thetas, phis, plane(tt, pp), 1.0 - plane(tt, pp))
    assert set(vars(surf)) == {"theta_deg", "phi_deg", "ap_te", "ap_tm"}
    te, tm = surf.lookup(tt, pp)  # the nodes come back exactly
    assert np.array_equal(te, surf.ap_te) and np.array_equal(tm, surf.ap_tm)
    shape = data.draw(st.sampled_from([(), (3,), (2, 4)]))
    t = data.draw(arrays(float, shape, elements=st.floats(0.0, 90.0)))
    p = data.draw(arrays(float, shape, elements=st.floats(0.0, 355.0)))
    te, tm = surf.lookup(t, p)
    assert te.shape == tm.shape == shape
    np.testing.assert_allclose(te, plane(t, p), rtol=0, atol=1e-12)
    np.testing.assert_allclose(tm, 1.0 - plane(t, p), rtol=0, atol=1e-12)
    # on any table it agrees with scipy's interpolator to rounding
    table = data.draw(arrays(float, tt.shape, elements=st.floats(0.0, 1.0)))
    ref = RegularGridInterpolator((thetas, phis), table)(np.stack([t, p], axis=-1))
    got = APSurface(thetas, phis, table, table).lookup(t, p)[0]
    np.testing.assert_allclose(got, ref.reshape(shape), rtol=0, atol=1e-14)

    # phi wraps modulo 360; anything off the table names the angle and its range
    ring = APSurface(np.array([0.0, 90.0]), np.linspace(0.0, 355.0, 72),
                     np.full((2, 72), 0.5), np.tile(np.linspace(0.0, 1.0, 72), (2, 1)))
    assert ring.lookup(30.0, -10.0)[1] == ring.lookup(30.0, 350.0)[1]
    assert ring.lookup(30.0, 370.0)[1] == ring.lookup(30.0, 10.0)[1]
    assert ring.lookup(30.0, -1e-20)[1] == ring.lookup(30.0, 0.0)[1]
    for theta, phi, message in [
        (95.0, 10.0, "theta = 95 deg; its table spans 0 to 90 deg"),
        (-1.0, 10.0, "theta = -1 deg"),
        (10.0, 357.2, "phi = 357.2 deg; its table spans 0 to 355 deg"),
        (10.0, -2.8, "phi = 357.2 deg"),
        (np.nan, 10.0, "theta = nan deg"),
        (10.0, np.nan, "phi = nan deg"),
        (np.inf, 10.0, "theta = inf deg"),
        (10.0, np.inf, "phi = inf deg"),
        (10.0, [5.0, -np.inf], "phi = -inf deg"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(APCoverageError, match=message):
                ring.lookup(theta, phi)


def test_expected_rate_bounds_and_reference():
    scene = DetectorScene()
    cal = CalibrationInputs()
    kappa = collection_fraction(scene)
    full = expected_rate(scene, APSurface.constant(1.0), cal)
    assert full == pytest.approx(HALF_DECAY * kappa, rel=1e-9)
    assert full == pytest.approx(1.13e6, rel=0.02)
    synthetic = expected_rate(scene, APSurface.synthetic_placeholder(), cal)
    assert 0.0 < synthetic <= full


def test_position_sweep_shape():
    scene = DetectorScene()
    offsets = np.arange(0.0, 161.0, 8.0)
    sweep = rate_vs_position(scene, APSurface.synthetic_placeholder(), offsets)
    assert sweep.rel_rate[0] == 1.0
    assert sweep.rel_rate_const_ap[0] == 1.0
    assert np.all(np.diff(sweep.rel_rate_const_ap) < 0.0)
    assert np.all(np.diff(sweep.rel_rate) < 0.0)
    assert np.all(sweep.rel_rate[1:] <= sweep.rel_rate_const_ap[1:] + 1e-12)
    # the recess opening is wide enough that no sight line is clipped
    # anywhere on this sweep; blocking only starts much farther out
    for off in offsets:
        assert obscured_fraction(replace(scene, lateral_um=float(off))) == 0.0


def test_position_sweep_matches_per_offset_rates():
    """The sweep's two curves are the per-offset expected_rate and
    collection_fraction ratios, bit for bit: both trace the sight lines
    of each offset with one function."""
    ap = APSurface.synthetic_placeholder()
    cal = CalibrationInputs(internal_efficiency=0.8)
    offsets = np.array([12.0, 0.0, 90.0, 200.0, 260.0, 300.0, 400.0])  # last two all blocked
    for scene in (DetectorScene(nanowire_axis_deg=20.0),
                  DetectorScene(nanowire_axis_deg=-35.0, quant_axis_deg=70.0, grid_pitch_um=0.5)):
        assert 0.0 < obscured_fraction(replace(scene, lateral_um=200.0)) < 1.0
        sweep = rate_vs_position(scene, ap, offsets, cal)
        rates = np.array([expected_rate(replace(scene, lateral_um=x), ap, cal) for x in offsets])
        flat = np.array([0.5 * cal.decay_rate_s * cal.internal_efficiency
                         * collection_fraction(replace(scene, lateral_um=x)) for x in offsets])
        assert np.all(rates[-2:] == 0) and np.all(flat[-2:] == 0)
        np.testing.assert_array_equal(sweep.rel_rate, rates / rates[0])
        np.testing.assert_array_equal(sweep.rel_rate_const_ap, flat / flat[0])
        with pytest.raises(ValueError, match="first offset is zero"):
            rate_vs_position(scene, ap, offsets[::-1], cal)


def test_edge_blocking_far_from_detector():
    scene = DetectorScene()
    partial = obscured_fraction(replace(scene, lateral_um=200.0))
    assert 0.0 < partial < 1.0
    assert obscured_fraction(replace(scene, lateral_um=400.0)) == 1.0
    flush = replace(scene, recess_um=0.0, lateral_um=400.0)
    assert obscured_fraction(flush) == 0.0
    assert collection_fraction(replace(scene, lateral_um=400.0)) == 0.0


def test_saturation_fit_reference_points():
    r_inf, err = saturation_extrapolate([(1.0, 50.0), (3.0, 75.0), (9.0, 90.0)])
    assert r_inf == pytest.approx(100.0, rel=1e-12)
    assert err == pytest.approx(0.0, abs=1e-9)
    plateau, _ = saturation_extrapolate([(1e6, 80.0), (5e6, 80.0)])
    assert plateau == pytest.approx(80.0, rel=1e-5)
    with pytest.raises(ValueError):
        saturation_extrapolate([(1.0, 50.0)])
    with pytest.raises(ValueError):
        saturation_extrapolate([(-1.0, 10.0), (1.0, 20.0)])


def test_sde_calibrate_reference_and_round_trip():
    scene = DetectorScene()
    cal = CalibrationInputs()
    sde = sde_calibrate(5.42e5, scene, cal)
    assert sde == pytest.approx(0.48, abs=0.02)
    assert sde_calibrate(0.0, scene, cal) == 0.0
    for c in (0.1, 0.5, 1.0):
        rate = expected_rate(scene, APSurface.constant(c), cal)
        assert sde_calibrate(rate, scene, cal) == pytest.approx(c, abs=1e-9)


def test_no_rf_extrapolation_reference():
    rf_off = BiasCountCurve(np.array([0.0, 2.0, 5.0, 8.9]),
                            np.array([0.0, 0.0, 1300.0, 1300.0]))
    rf_on = BiasCountCurve(np.array([0.0, 2.0, 4.5, 5.3]),
                           np.array([0.0, 0.0, 960.0, 960.0]))
    sde = extrapolate_sde_no_rf(0.48, rf_off, rf_on, i_m_ua=5.3, margin_ua=0.8)
    assert sde == pytest.approx(0.65, abs=0.001)

    same = extrapolate_sde_no_rf(0.48, rf_off, rf_off, i_m_ua=8.9, margin_ua=0.0)
    assert same == pytest.approx(0.48, rel=1e-12)

    capped = extrapolate_sde_no_rf(0.48, rf_off, rf_on, i_m_ua=5.3, margin_ua=0.8,
                                   ap_normal_bound=0.60)
    assert capped == 0.60


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [
    "detector_w_um", "detector_h_um", "recess_um", "ion_height_um", "lateral_um",
    "quant_axis_deg", "nanowire_axis_deg", "grid_pitch_um", "opening_margin_um",
])
def test_scene_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        DetectorScene(**{name: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_calibration_and_sweep_reject_non_finite_values(value):
    with pytest.raises(ValueError, match="^decay_rate_s must be finite"):
        CalibrationInputs(decay_rate_s=value)
    with pytest.raises(ValueError, match="^lateral_um must be finite"):
        rate_vs_position(DetectorScene(), APSurface.constant(1.0), [0.0, value])


def test_scene_validation():
    with pytest.raises(ValueError):
        DetectorScene(ion_height_um=-10.0, recess_um=5.0)
    with pytest.raises(ValueError):
        DetectorScene(grid_pitch_um=0.0)
