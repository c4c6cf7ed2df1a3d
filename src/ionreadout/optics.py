"""Photon collection geometry and detection-efficiency calibration.

An emitter sits above a rectangular single-photon detector that is
recessed below the surrounding electrode plane.  Emission follows the
angular pattern of a circularly rotating dipole perpendicular to the
in-plane quantization axis: intensity (3/16pi) (1 + cos^2 theta_q) per
steradian, where theta_q is measured from the quantization axis.

The detector plane is tiled into grid cells.  Each cell contributes its
solid angle, the dipole weight, an internal detection efficiency, and an
absorption probability (AP) that depends on incidence angle and
polarization.  The emitted field at each cell is split into TE (E-field
parallel to the detector plane) and TM components by intensity, and the
AP surfaces are blended with those weights.

Coordinates: x along the trap axis, y transverse in-plane, z up.  The
electrode top plane is z = 0; the detector plane sits at z = -recess.
Cells whose line of sight to the emitter crosses z = 0 outside the
recess opening are excluded (the electrode edge blocks them).

The detector grid does not depend on where the emitter sits, so a
lateral sweep builds it once and traces only the sight lines per offset,
with the function a single geometry uses.  Everything here runs on one
thread: the per-offset arrays are too small to gain from more CPUs.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .rfcircuit import BiasCountCurve

DEFAULT_DECAY_RATE_S = 1.0 / 8.850e-9  # excited-state decay rate, 1/s


class APCoverageError(ValueError):
    """An AP lookup fell outside the tabulated (theta, phi) grid."""


@dataclass(frozen=True)
class APSurface:
    """Absorption probability tables on a regular (theta, phi) grid.

    theta_deg is the incidence polar angle from the detector normal,
    phi_deg the azimuth measured from the nanowire axis.  Lookups blend
    the four grid points around each angle bilinearly.  Phi is wrapped
    to [0, 360) first and must then lie inside the table, so a periodic
    table lists both 0 and 360; an angle outside the table, NaN or
    infinite raises :class:`APCoverageError`.
    """

    theta_deg: np.ndarray
    phi_deg: np.ndarray
    ap_te: np.ndarray
    ap_tm: np.ndarray

    def __post_init__(self) -> None:
        th = np.asarray(self.theta_deg, dtype=float)
        ph = np.asarray(self.phi_deg, dtype=float)
        te = np.asarray(self.ap_te, dtype=float)
        tm = np.asarray(self.ap_tm, dtype=float)
        for name, arr in (("theta_deg", th), ("phi_deg", ph)):
            if arr.ndim != 1 or arr.size < 2 or np.any(np.diff(arr) <= 0):
                raise ValueError(f"{name} must be a strictly increasing 1-D grid")
        for name, arr in (("ap_te", te), ("ap_tm", tm)):
            if arr.shape != (th.size, ph.size):
                raise ValueError(f"{name} must have shape (n_theta, n_phi)")
            if np.any(arr < 0) or np.any(arr > 1) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} values must lie in [0, 1]")
        object.__setattr__(self, "theta_deg", th)
        object.__setattr__(self, "phi_deg", ph)
        object.__setattr__(self, "ap_te", te)
        object.__setattr__(self, "ap_tm", tm)

    @classmethod
    def constant(cls, value: float) -> "APSurface":
        """Angle- and polarization-independent AP."""
        grid_t = np.array([0.0, 90.0])
        grid_p = np.array([0.0, 360.0])
        table = np.full((2, 2), float(value))
        return cls(grid_t, grid_p, table, table.copy())

    @classmethod
    def synthetic_placeholder(cls) -> "APSurface":
        """Smooth stand-in surface normalized to 0.72 at normal incidence.

        For exercising the angle-dependent code path when no simulated
        tables are available.  Values decrease with incidence angle and
        carry a mild azimuthal ripple.
        """
        th = np.linspace(0.0, 90.0, 61)
        ph = np.linspace(0.0, 360.0, 73)
        tt, pp = np.meshgrid(np.radians(th), np.radians(ph), indexing="ij")
        te = 0.72 * np.cos(tt) ** 0.7 * (1 - 0.10 * np.sin(tt) ** 2 * np.sin(pp) ** 2)
        tm = 0.72 * np.cos(tt) ** 1.6 * (1 - 0.25 * np.sin(tt) ** 2 * np.cos(pp) ** 2)
        return cls(th, ph, te, tm)

    def lookup(self, theta_deg, phi_deg) -> tuple[np.ndarray, np.ndarray]:
        """AP values (TE, TM) at the given angles, in the angles' shape."""
        theta = np.asarray(theta_deg, dtype=float)
        phi = np.asarray(phi_deg, dtype=float)
        # NaN and inf are left as they are, for the coverage check to name
        phi = np.mod(phi, 360.0, out=phi.copy(), where=np.isfinite(phi))
        phi[phi == 360.0] = 0.0  # np.mod rounds a tiny negative phi up to 360
        i, t = _grid_cell(self.theta_deg, theta, "theta")
        j, u = _grid_cell(self.phi_deg, phi, "phi")
        # one cell and one set of corner weights serve both tables, whose
        # corners are gathered from flat indices into the raveled table
        n_phi = self.phi_deg.size
        k = i * n_phi + j
        corners = ((k, (1 - t) * (1 - u)), (k + 1, (1 - t) * u),
                   (k + n_phi, t * (1 - u)), (k + n_phi + 1, t * u))
        return tuple(sum(table.ravel()[c] * w for c, w in corners)
                     for table in (self.ap_te, self.ap_tm))


def _grid_cell(grid: np.ndarray, x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Index of the grid cell holding each x, and x's fraction of the way across it."""
    off = ~((x >= grid[0]) & (x <= grid[-1]))  # NaN fails both comparisons
    if off.any():
        raise APCoverageError(f"AP surface does not cover {name} = {x[off][0]:g} deg; "
                              f"its table spans {grid[0]:g} to {grid[-1]:g} deg")
    i = np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 2)
    return i, (x - grid[i]) / (grid[i + 1] - grid[i])


@dataclass(frozen=True)
class DetectorScene:
    """Emitter/detector geometry (lengths in um, angles in degrees).

    ``opening_margin_um`` sets how far the recess opening extends past
    the active area on each side; sight lines crossing the electrode
    plane outside that rectangle are blocked.
    """

    detector_w_um: float = 22.0
    detector_h_um: float = 20.0
    recess_um: float = 6.0
    ion_height_um: float = 29.0
    lateral_um: float = 0.0
    quant_axis_deg: float = 45.0
    nanowire_axis_deg: float = 0.0
    grid_pitch_um: float = 1.0
    opening_margin_um: float = 30.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.detector_w_um < 0 or self.detector_h_um < 0:
            raise ValueError("detector dimensions must be >= 0")
        if self.recess_um < 0:
            raise ValueError("recess_um must be >= 0")
        if self.ion_height_um + self.recess_um <= 0:
            raise ValueError("ion must sit strictly above the detector plane")
        if self.grid_pitch_um <= 0:
            raise ValueError("grid_pitch_um must be positive")
        if self.opening_margin_um < 0:
            raise ValueError("opening_margin_um must be >= 0")


@dataclass(frozen=True)
class CalibrationInputs:
    """Constants tying geometry to absolute detection rates."""

    decay_rate_s: float = DEFAULT_DECAY_RATE_S
    internal_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.decay_rate_s) or self.decay_rate_s <= 0:
            raise ValueError(f"decay_rate_s must be finite and positive, got {self.decay_rate_s}")
        if not (0 <= self.internal_efficiency <= 1):
            raise ValueError("internal_efficiency must lie in [0, 1]")


def dipole_intensity(theta_q) -> np.ndarray:
    """Angular emission density (1/sr) of the rotating dipole.

    Normalized so the integral over the full sphere is 1.
    """
    return _dipole_weight(np.cos(theta_q))


def _dipole_weight(cos_tq):
    """Emission density (1/sr) at cosine cos_tq to the quantization axis."""
    return 3.0 / (16.0 * np.pi) * (1.0 + cos_tq**2)


def _detector_grid(scene: DetectorScene) -> tuple[np.ndarray, float]:
    """Centres (N, 3) of the detector's grid cells and the area of one cell.

    The grid does not depend on where the emitter sits.
    """
    nx = int(round(scene.detector_w_um / scene.grid_pitch_um))
    ny = int(round(scene.detector_h_um / scene.grid_pitch_um))
    if nx == 0 or ny == 0:
        return np.empty((0, 3)), 0.0
    dx = scene.detector_w_um / nx
    dy = scene.detector_h_um / ny
    cx = -scene.detector_w_um / 2 + (np.arange(nx) + 0.5) * dx
    cy = -scene.detector_h_um / 2 + (np.arange(ny) + 0.5) * dy
    xx, yy = np.meshgrid(cx, cy, indexing="ij")
    cells = np.stack(
        [xx.ravel(), yy.ravel(), np.full(xx.size, -scene.recess_um)], axis=1
    )
    return cells, dx * dy


def _sight_lines(
    scene: DetectorScene, cells: np.ndarray, cell_area: float
) -> tuple[np.ndarray, np.ndarray]:
    """The grid cells the emitter at ``scene.lateral_um`` sees.

    Returns the (N, 3) unit vectors from the emitter to each visible
    cell and the fraction of all emission each one receives: its solid
    angle times the dipole density toward it.
    """
    ion = np.array([scene.lateral_um, 0.0, scene.ion_height_um])
    d = cells - ion
    r = np.linalg.norm(d, axis=1)
    n_hat = d / r[:, None]
    cos_inc = np.abs(d[:, 2]) / r
    d_omega = cell_area * cos_inc / r**2
    a = np.radians(scene.quant_axis_deg)
    dipole = _dipole_weight(n_hat @ np.array([np.cos(a), np.sin(a), 0.0]))

    weight = d_omega * dipole
    if scene.ion_height_um > 0 and scene.recess_um > 0:
        # where each sight line pierces the electrode top plane (the ion sits at y = 0)
        f = scene.ion_height_um / (scene.ion_height_um + scene.recess_um)
        cross_x = scene.lateral_um + f * (cells[:, 0] - scene.lateral_um)
        half_w = scene.detector_w_um / 2 + scene.opening_margin_um
        half_h = scene.detector_h_um / 2 + scene.opening_margin_um
        visible = (np.abs(cross_x) <= half_w) & (np.abs(f * cells[:, 1]) <= half_h)
        if not visible.all():
            return n_hat[visible], weight[visible]
    return n_hat, weight


def _visible_cells(scene: DetectorScene) -> tuple[np.ndarray, np.ndarray, int]:
    """:func:`_sight_lines` on the scene's own grid, and the grid's cell count."""
    cells, cell_area = _detector_grid(scene)
    return (*_sight_lines(scene, cells, cell_area), cells.shape[0])


def obscured_fraction(scene: DetectorScene) -> float:
    """Fraction of detector cells blocked by the electrode-plane edge."""
    _, weight, n_cells = _visible_cells(scene)
    return 1.0 - weight.size / n_cells if n_cells else 0.0


def collection_fraction(scene: DetectorScene) -> float:
    """Probability that an emitted photon lands on the visible detector."""
    return float(_visible_cells(scene)[1].sum())


def _polarization_weights(
    n_hat: np.ndarray, scene: DetectorScene
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-cell (w_te, w_tm, theta_deg, phi_deg) for the rotating dipole.

    The far field of the dipole d = (e1 + i e2) / sqrt(2) toward n is
    d - (n.d) n, projected onto the TE unit vector s (horizontal,
    perpendicular to the plane of incidence) and the TM unit vector p
    (in the plane of incidence); weights are intensity fractions and sum
    to 1.  Both s and p are perpendicular to n, so the projections are
    d.s and d.p, and with e2 = z and s_z = 0 the intensities are real:
    w_te ~ (e1.s)^2 and w_tm ~ (e1.p)^2 + p_z^2.
    """
    a = np.radians(scene.quant_axis_deg)
    e1 = np.array([-np.sin(a), np.cos(a), 0.0])

    w = np.radians(scene.nanowire_axis_deg)
    x_w = np.array([np.cos(w), np.sin(w), 0.0])
    y_w = np.array([-np.sin(w), np.cos(w), 0.0])

    s_norm = np.hypot(n_hat[:, 0], n_hat[:, 1])
    degenerate = s_norm < 1e-12
    s_hat = np.stack([n_hat[:, 1], -n_hat[:, 0], np.zeros(n_hat.shape[0])], axis=1)
    s_hat /= np.where(degenerate, 1.0, s_norm)[:, None]
    s_hat[degenerate] = y_w
    p_hat = np.cross(s_hat, n_hat)

    w_te_raw = (s_hat @ e1) ** 2
    w_tm_raw = (p_hat @ e1) ** 2 + p_hat[:, 2] ** 2
    total = w_te_raw + w_tm_raw
    w_te = w_te_raw / total
    w_tm = w_tm_raw / total

    theta_deg = np.degrees(np.arccos(np.clip(np.abs(n_hat[:, 2]), 0.0, 1.0)))
    phi_deg = np.degrees(np.arctan2(n_hat @ y_w, n_hat @ x_w))
    return w_te, w_tm, theta_deg, phi_deg


def _rates(
    n_hat: np.ndarray, weight: np.ndarray,
    scene: DetectorScene, ap: APSurface, cal: CalibrationInputs,
) -> tuple[float, float]:
    """Detection rates (1/s) with AP surface ``ap`` and with AP = 1.

    Both sum (decay_rate/2) * d_omega * dipole weight * IDE * AP over the
    visible cells ``(n_hat, weight)`` of one geometry; the first blends
    AP from its TE/TM tables by the emitted intensity fractions.
    """
    w_te, w_tm, theta_deg, phi_deg = _polarization_weights(n_hat, scene)
    ap_te, ap_tm = ap.lookup(theta_deg, phi_deg)
    scale = 0.5 * cal.decay_rate_s * cal.internal_efficiency
    return (float(scale * np.sum(weight * (w_te * ap_te + w_tm * ap_tm))),
            float(scale * weight.sum()))


def expected_rate(
    scene: DetectorScene, ap: APSurface, cal: CalibrationInputs
) -> float:
    """Saturated detection rate (1/s) implied by geometry, AP and IDE."""
    return _rates(*_visible_cells(scene)[:2], scene, ap, cal)[0]


@dataclass(frozen=True)
class PositionSweep:
    """Detection rate versus lateral emitter offset, normalized to the first point."""

    lateral_um: np.ndarray
    rel_rate: np.ndarray
    rel_rate_const_ap: np.ndarray


def rate_vs_position(
    scene: DetectorScene,
    ap: APSurface,
    lateral_offsets_um,
    cal: CalibrationInputs | None = None,
) -> PositionSweep:
    """Sweep the emitter along the trap axis.

    Returns the normalized angle-dependent-AP curve together with a
    constant-AP reference computed from the same sight lines.  The
    detector grid is built once; only the sight lines are traced per
    offset, by the same function :func:`expected_rate` uses.
    """
    offsets = np.asarray(lateral_offsets_um, dtype=float)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("need at least one lateral offset")
    cal = cal or CalibrationInputs()
    grid = _detector_grid(scene)
    scenes = [replace(scene, lateral_um=float(off)) for off in offsets]
    rates = np.array([_rates(*_sight_lines(at, *grid), at, ap, cal) for at in scenes])
    if rates[0, 0] <= 0 or rates[0, 1] <= 0:
        raise ValueError("rate at the first offset is zero; cannot normalize")
    return PositionSweep(
        lateral_um=offsets,
        rel_rate=rates[:, 0] / rates[0, 0],
        rel_rate_const_ap=rates[:, 1] / rates[0, 1],
    )


def saturation_extrapolate(points) -> tuple[float, float]:
    """Fit rate(s) = R_inf * s / (1 + s) and return (R_inf, 1-sigma error).

    ``points`` is a sequence of (saturation parameter, rate) pairs; the
    model is linear in R_inf, so the fit is closed-form least squares.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise ValueError("need at least two (s, rate) points")
    s = pts[:, 0]
    y = pts[:, 1]
    if np.any(s < 0):
        raise ValueError("saturation parameters must be >= 0")
    if np.unique(s).size < 2:
        raise ValueError("need at least two distinct saturation parameters")
    x = s / (1.0 + s)
    sxx = float(np.sum(x * x))
    if sxx == 0:
        raise ValueError("all points sit at s = 0")
    r_inf = float(np.sum(x * y) / sxx)
    resid = y - r_inf * x
    dof = max(pts.shape[0] - 1, 1)
    err = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    return r_inf, err


def sde_calibrate(
    measured_rate_s: float, scene: DetectorScene, cal: CalibrationInputs
) -> float:
    """System detection efficiency from a measured saturated count rate.

    SDE = rate / ((decay_rate/2) * collection_fraction): the fraction of
    photons headed at the detector that produce a count.
    """
    if measured_rate_s < 0:
        raise ValueError("measured rate must be >= 0")
    frac = collection_fraction(scene)
    if frac <= 0:
        raise ValueError("collection fraction is zero for this scene")
    return measured_rate_s / (0.5 * cal.decay_rate_s * frac)


def extrapolate_sde_no_rf(
    sde_rf_on: float,
    curve_rf_off: BiasCountCurve,
    curve_rf_on: BiasCountCurve,
    i_m_ua: float,
    margin_ua: float = 0.8,
    ap_normal_bound: float | None = None,
) -> float:
    """Scale an rf-on SDE to the drive-off operating point.

    Multiplies by the ratio of rf-off counts at the highest tabulated
    bias to rf-on counts at (i_m_ua - margin_ua).  If a normal-incidence
    AP bound is supplied, the result is capped there: the efficiency
    cannot exceed the absorption probability itself.
    """
    if sde_rf_on < 0:
        raise ValueError("sde_rf_on must be >= 0")
    numerator = float(curve_rf_off.counts[-1])
    denominator = float(curve_rf_on(i_m_ua - margin_ua))
    if denominator <= 0:
        raise ValueError("rf-on counts vanish at the requested bias point")
    sde = sde_rf_on * numerator / denominator
    if ap_normal_bound is not None:
        sde = min(sde, ap_normal_bound)
    return sde
