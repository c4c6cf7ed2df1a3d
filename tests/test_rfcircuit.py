"""Pickup network solver, reduced two-term model, bias-curve predictions."""
import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings
from hypothesis import strategies as st

from ionreadout import (
    BiasCountCurve,
    NanowireNetwork,
    PickupModel,
    decompose_currents,
    fit_pickup,
    max_induced,
    pickup_from_solution,
    predict_counts,
    solve_network,
)
from ionreadout.rfcircuit import _N_PHASE

TWO_PI = 2.0 * np.pi


def _phase_from_inphase_deg(z: complex) -> float:
    """Angular distance of a phasor from the drive axis (0 or 180 deg)."""
    ph = np.degrees(np.angle(z))
    return abs((ph + 90.0) % 180.0 - 90.0)


def _dense_voltages(net: NanowireNetwork) -> np.ndarray:
    """Reference solve: the full nodal matrix, filled element by element."""
    k, omega = net.k_segments, net.omega_rf
    y_l = 1.0 / (1j * omega * net.l_segment)
    y = np.zeros((k + 2, k + 2), dtype=complex)
    rhs = np.zeros(k + 2, dtype=complex)
    for seg in range(k + 1):
        y[seg, seg] += y_l
        y[seg + 1, seg + 1] += y_l
        y[seg, seg + 1] -= y_l
        y[seg + 1, seg] -= y_l
    for node in range(1, k + 1):
        y[node, node] += 1j * omega * (net.c_ground + net.c_drive)
        rhs[node] += 1j * omega * net.c_drive * net.v_rf
    for node, z_term in ((0, net.z_term_left), (k + 1, net.z_term_right)):
        y[node, node] += 1j * omega * net.c_lead + 1.0 / (
            net.r_lead + 1j * omega * net.l_lead + z_term)
        rhs[node] += 1j * omega * net.c_lead * net.v_rf
    return np.linalg.solve(y, rhs)


def _resonant_lead(k_segments: int) -> NanowireNetwork:
    """A valid network whose lead node's nodal diagonal is zero, up to rounding.

    With no lead resistance and a shorted termination, c_lead cancels the
    admittances of the first wire inductor and of the lead inductor.
    """
    net = NanowireNetwork(k_segments=k_segments, r_lead=0.0, z_term_left=0.0)
    omega = net.omega_rf
    return replace(net, c_lead=(1 / (omega * net.l_segment) + 1 / (omega * net.l_lead)) / omega)


@pytest.mark.parametrize("k_segments", [4, 40, 1200])
def test_banded_solve_matches_dense_nodal_solve(k_segments):
    # the resonant lead needs row pivoting: without it the first pivot is zero or tiny
    for net in (NanowireNetwork(k_segments=k_segments),
                NanowireNetwork(k_segments=k_segments, z_term_left=50.0, r_lead=0.0),
                _resonant_lead(k_segments)):
        sol = solve_network(net)
        ref = _dense_voltages(net)
        assert np.abs(sol.node_voltages - ref).max() <= 1e-10 * np.abs(ref).max()
        assert sol.residual < 1e-9
    zero = solve_network(NanowireNetwork(k_segments=k_segments, v_rf=0.0))
    assert np.all(zero.currents == 0) and zero.residual == 0


def test_ill_posed_networks_are_rejected():
    net = NanowireNetwork()
    with pytest.raises(ValueError, match="lead branch impedance is zero"):
        solve_network(replace(net, z_term_left=-(net.r_lead + 1j * net.omega_rf * net.l_lead)))
    # no capacitance anywhere and open leads: nothing ties the wire to a potential
    floating = NanowireNetwork(k_segments=2, c_ground=0.0, c_drive=0.0, c_lead=0.0,
                               z_term_left=complex("inf"), z_term_right=complex("inf"))
    with pytest.raises(np.linalg.LinAlgError, match="singular pickup network"):
        solve_network(floating)
    # finite fields whose admittances overflow (non-finite fields fail at construction)
    for bad in (replace(net, c_ground=1e300), replace(net, c_drive=1e300)):
        with pytest.raises(ValueError, match="admittances and drive must be finite"):
            solve_network(bad)


def test_zero_drive_means_zero_current():
    sol = solve_network(NanowireNetwork(v_rf=0.0))
    assert np.all(sol.currents == 0)


def test_solver_residual_is_tiny():
    sol = solve_network(NanowireNetwork())
    assert sol.residual < 1e-10


def test_symmetric_terminations_give_antisymmetric_profile():
    net = NanowireNetwork(z_term_left=50.0, z_term_right=50.0)
    sol = solve_network(net)
    cur = sol.currents
    scale = np.abs(cur).max()
    assert np.abs(cur + cur[::-1]).max() < 1e-6 * scale
    mid = net.k_segments // 2  # odd number of segments: exact middle one
    assert abs(cur[mid]) < 1e-6 * scale


def test_drive_capacitance_off_leaves_uniform_inphase_current():
    sol = solve_network(NanowireNetwork(c_drive=0.0))
    mag = np.abs(sol.currents)
    assert (mag.max() - mag.min()) / mag.mean() < 0.15
    for z in sol.currents:
        assert _phase_from_inphase_deg(z) < 10.0


def test_linearity_in_drive_voltage():
    base = solve_network(NanowireNetwork())
    scaled = solve_network(NanowireNetwork(v_rf=8.8 * 3.7))
    ratio = scaled.currents / base.currents
    assert np.abs(ratio - 3.7).max() < 1e-12 * 3.7


def test_default_network_matches_two_term_decomposition():
    sol = solve_network(NanowireNetwork())
    dec = decompose_currents(sol)
    assert dec.r_squared > 0.999
    assert abs(abs(dec.uniform) * 1e6 - 0.9) < 0.01
    assert abs(abs(dec.linear) * 1e6 - 3.5) < 0.01
    # uniform part rides with the drive, linear part in quadrature
    assert _phase_from_inphase_deg(dec.uniform) < 5.0
    assert abs(_phase_from_inphase_deg(dec.linear) - 90.0) < 1.0

    model = pickup_from_solution(sol)
    assert model.i0_ua == pytest.approx(0.9, abs=0.01)
    assert model.i1_ua == pytest.approx(3.5, abs=0.01)


def test_network_validation():
    with pytest.raises(ValueError):
        NanowireNetwork(k_segments=5)  # odd
    with pytest.raises(ValueError):
        NanowireNetwork(c_ground=-1e-15)
    with pytest.raises(ValueError):
        NanowireNetwork(l_wire_total=0.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [
    "l_wire_total", "c_ground", "c_drive", "c_lead", "l_lead", "r_lead", "omega_rf", "v_rf",
])
def test_network_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        NanowireNetwork(**{name: value})


def test_max_induced_values_and_grid_consistency():
    assert max_induced(PickupModel(0.0, 2.7)) == pytest.approx(2.7, rel=1e-12)
    assert max_induced(PickupModel(2.7, 0.0)) == pytest.approx(2.7, rel=1e-12)
    m = PickupModel(0.9, 3.5)
    closed = max_induced(m)
    assert closed == pytest.approx(3.614, abs=0.001)
    wt = TWO_PI * np.linspace(0.0, 1.0, 1_000_001)  # one unit drive period
    numeric = max(
        np.abs(m.i0_ua * np.sin(wt) + m.i1_ua * u * np.cos(wt)).max() for u in (-1.0, 1.0)
    )
    assert numeric == pytest.approx(closed, rel=1e-9)


def test_pickup_model_validation():
    with pytest.raises(ValueError):
        PickupModel(-0.1, 1.0)
    with pytest.raises(ValueError):
        PickupModel(1.0, 1.0, k_segments=3)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["i0_ua", "i1_ua"])
def test_pickup_model_rejects_non_finite_fields(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        PickupModel(**{"i0_ua": 1.0, "i1_ua": 1.0, name: value})


def test_bias_curve_validation_and_interp():
    with pytest.raises(ValueError):
        BiasCountCurve(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        BiasCountCurve(np.array([1.0, 2.0]), np.array([0.0, -1.0]))
    curve = BiasCountCurve(np.array([2.0, 4.0]), np.array([100.0, 300.0]))
    assert curve(3.0) == pytest.approx(200.0)
    assert curve(1.0) == 0.0  # below domain: no response
    assert curve(5.0) == 0.0  # above domain: driven normal


def test_predict_counts_without_pickup_is_rf_off(plateau_curve):
    m = PickupModel(0.0, 0.0)
    for bias in (3.0, 4.5, 7.0):
        assert predict_counts(m, plateau_curve, bias) == pytest.approx(
            float(plateau_curve(bias)), rel=1e-12
        )


def test_predict_counts_step_curve_fraction():
    # counts R for |I| >= 5, bias 6, uniform amplitude 2:
    # cos >= -1/2 over two thirds of the period
    step = BiasCountCurve(
        np.array([0.0, 5.0 - 1e-9, 5.0, 10.0]), np.array([0.0, 0.0, 300.0, 300.0])
    )
    got = predict_counts(PickupModel(2.0, 0.0), step, 6.0)
    assert got == pytest.approx(2.0 / 3.0 * 300.0, rel=0.01)


def test_predict_counts_below_onset_is_zero(plateau_curve):
    m = PickupModel(0.4, 0.5)
    assert predict_counts(m, plateau_curve, 1.0) == 0.0  # 1 + 0.9 < 2


def test_predict_counts_grid_doubling(plateau_curve):
    """The fixed phase grid agrees with one twice as fine."""
    m = PickupModel(0.9, 3.5)
    for bias in (3.0, 5.0, 6.25, 8.0):
        a = predict_counts(m, plateau_curve, bias)
        b = _brute_predict(m, plateau_curve, bias, 2 * _N_PHASE)
        assert b == pytest.approx(a, rel=1e-3)


def test_predict_counts_sign_reversal_symmetry(plateau_curve):
    """Averaging |bias + I| is blind to the signs of the two amplitudes."""
    i0, i1, k, bias = 0.9, 3.5, 40, 5.5
    phases = (np.arange(_N_PHASE) + 0.5) * (TWO_PI / _N_PHASE)
    u = (np.arange(k + 1) - k / 2) / (k / 2)

    def brute(s0, s1):
        inst = s0 * i0 * np.sin(phases)[None, :] + s1 * i1 * u[:, None] * np.cos(phases)[None, :]
        return float(np.mean(plateau_curve(np.abs(bias + inst))))

    reference = predict_counts(PickupModel(i0, i1, k), plateau_curve, bias)
    for s0, s1 in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        assert brute(s0, s1) == pytest.approx(reference, rel=1e-12)


@pytest.fixture()
def ramp_curve():
    """Response with a sloped onset so both pickup terms are identifiable."""
    return BiasCountCurve(
        np.array([0.0, 2.0, 5.0, 8.9]), np.array([0.0, 0.0, 1000.0, 1000.0])
    )


def test_fit_recovers_generating_amplitudes(ramp_curve):
    true = PickupModel(0.9, 3.5)
    bias = np.linspace(0.5, 8.5, 33)
    rf_on = BiasCountCurve(
        bias, np.array([predict_counts(true, ramp_curve, b) for b in bias])
    )
    fit = fit_pickup(rf_on, ramp_curve, delta_im_ua=float(np.hypot(0.9, 3.5)))
    assert fit.model.i0_ua == pytest.approx(0.9, rel=0.05)
    assert fit.model.i1_ua == pytest.approx(3.5, rel=0.05)


def test_fit_zero_shift_returns_zero_model(ramp_curve):
    bias = np.linspace(0.5, 8.5, 9)
    rf_on = BiasCountCurve(bias, np.asarray(ramp_curve(bias)))
    fit = fit_pickup(rf_on, ramp_curve, delta_im_ua=0.0)
    assert fit.model.i0_ua == 0.0
    assert fit.model.i1_ua == 0.0
    for b in (3.0, 6.0):
        assert predict_counts(fit.model, ramp_curve, b) == pytest.approx(
            float(ramp_curve(b)), rel=1e-12
        )


def test_fit_rejects_flat_curves():
    flat = BiasCountCurve(np.array([0.0, 10.0]), np.array([5.0, 5.0]))
    with pytest.raises(ValueError):
        fit_pickup(flat, flat, delta_im_ua=1.0)


def test_rf_on_maximum_sits_below_plateau(plateau_curve):
    m = PickupModel(0.9, 3.5)
    grid = np.linspace(0.0, 8.9, 179)
    best = max(predict_counts(m, plateau_curve, b) for b in grid)
    deficit = 1.0 - best / 1000.0
    assert 0.10 <= deficit <= 0.25


def _currents(model, n_phase):
    """Instantaneous pickup current (uA) at every (segment, phase) point."""
    phases = (np.arange(n_phase) + 0.5) * (TWO_PI / n_phase)
    u = (np.arange(model.k_segments + 1) - model.k_segments / 2) / (model.k_segments / 2)
    return model.i0_ua * np.sin(phases)[None, :] + (
        model.i1_ua * u[:, None] * np.cos(phases)[None, :]
    )


def _brute_predict(model, curve, bias, n_phase):
    """Reference: interpolate every (segment, phase) point and average."""
    return float(np.mean(np.interp(np.abs(bias + _currents(model, n_phase)), curve.bias_ua,
                                   curve.counts, left=0.0, right=0.0)))


@st.composite
def _curves(draw):
    """Piecewise-linear rf-off curves, end counts often non-zero.

    Knots are at least 0.05 uA apart, so slopes stay below 20 * max(counts)
    per uA; the 1e-12 relative tolerance below is stated for such curves.
    """
    n = draw(st.integers(min_value=2, max_value=7))
    start = draw(st.floats(min_value=-3.0, max_value=4.0))
    gaps = draw(st.lists(st.floats(min_value=0.05, max_value=3.0), min_size=n - 1,
                         max_size=n - 1))
    counts = draw(st.lists(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e3)),
                           min_size=n, max_size=n))
    return BiasCountCurve(start + np.concatenate([[0.0], np.cumsum(gaps)]), np.array(counts))


_amplitude = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=6.0))


@given(
    curve=_curves(),
    i0=_amplitude,
    i1=_amplitude,
    k_segments=st.sampled_from([2, 8, 40]),
    free=st.lists(st.floats(min_value=-14.0, max_value=14.0), max_size=4),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_predict_counts_matches_pointwise_interpolation(curve, i0, i1, k_segments, free, data):
    model = PickupModel(i0, i1, k_segments)
    knots = curve.bias_ua
    on_knots = data.draw(st.lists(st.sampled_from(np.concatenate([knots, -knots]).tolist()),
                                  min_size=1, max_size=4))
    bias = np.array(on_knots + free)
    ref = np.array([_brute_predict(model, curve, b, _N_PHASE) for b in bias])
    got = predict_counts(model, curve, bias)
    one_by_one = np.array([predict_counts(model, curve, b) for b in bias])
    tol = 1e-12 * max(curve.counts.max(), 1e-300)
    assert got.shape == bias.shape
    assert np.abs(got - ref).max() <= tol
    assert np.abs(one_by_one - got).max() <= tol
    assert np.all(got[ref == 0] == 0) and np.all(one_by_one[ref == 0] == 0)


def test_predict_counts_at_the_curve_ends():
    """On the last knot a point takes its counts; just past either end, none."""
    curve = BiasCountCurve(np.array([1.0, 2.0, 4.0]), np.array([300.0, 500.0, 700.0]))
    still = PickupModel(0.0, 0.0)
    assert predict_counts(still, curve, 4.0) == pytest.approx(700.0, rel=1e-15)
    assert predict_counts(still, curve, -4.0) == pytest.approx(700.0, rel=1e-15)
    assert predict_counts(still, curve, 1.0) == pytest.approx(300.0, rel=1e-15)
    for beyond in (np.nextafter(4.0, 5.0), np.nextafter(1.0, 0.0), 0.0, -4.5):
        assert predict_counts(still, curve, beyond) == 0.0
    grid = predict_counts(PickupModel(0.7, 2.1), curve, np.array([[0.5, 2.0], [4.0, 6.0]]))
    assert grid.shape == (2, 2)
    for b, got in zip(np.array([0.5, 2.0, 4.0, 6.0]), grid.ravel()):
        assert got == pytest.approx(_brute_predict(PickupModel(0.7, 2.1), curve, b, _N_PHASE),
                                    abs=1e-12 * 700.0)
    with pytest.raises(ValueError, match="bias_ua must be finite"):
        predict_counts(still, curve, np.array([1.0, np.nan]))


def test_predict_counts_compares_the_rounded_sum_with_the_knots():
    """A point whose rounded bias + I equals an end knot takes that knot's counts.

    The knots are set to such sums where knot - bias, rounded, misses the
    point's current (above it at the first knot, below it at the last), so
    comparing the current with knot - bias would drop those points.
    """
    model, bias = PickupModel(0.9, 3.5), 1.7
    x = _currents(model, _N_PHASE).ravel()
    z = bias + x
    first = z[(z > 1.0) & (z < 2.5) & (z - bias > x)].min()
    last = z[(z > 3.0) & (z < 5.0) & (z - bias < x)].max()
    curve = BiasCountCurve(np.array([first, 2.8, last]), np.array([400.0, 900.0, 600.0]))
    assert predict_counts(model, curve, bias) == pytest.approx(
        _brute_predict(model, curve, bias, _N_PHASE), abs=1e-12 * 900.0)
