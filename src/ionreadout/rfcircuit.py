"""Radio-frequency pickup in a biased nanowire photon counter.

The nanowire is modeled as a lumped LC ladder: K+1 series inductors
L_nw joined at internal nodes that each carry a capacitance C_ground to
ground and C_drive to the rf drive electrode.  The wire ends connect to
leads (series L_lead + R_lead into a termination impedance) which also
couple capacitively to the drive through C_lead.  One lead is grounded,
the other terminated in 50 ohm, and that asymmetry is what lets the
drive push a spatially uniform current through the wire.

Solving the single-frequency nodal equations gives the complex current
in every segment.  In the regime where the coupling capacitor impedances
dwarf the wire inductance the solution collapses onto a two-term form:

    I(k, t) = I0 sin(wt) + I1 * (k - K/2)/(K/2) * cos(wt)

with the uniform term in phase with the drive and the position-linear
term in quadrature.  ``PickupModel`` captures that reduced description;
``predict_counts`` pushes it through a measured counts-versus-bias curve
to predict detector response with the drive on.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .readout import _golden_min

TWO_PI = 2.0 * np.pi
DEFAULT_OMEGA_RF = TWO_PI * 67.03e6  # rad/s


@dataclass(frozen=True)
class NanowireNetwork:
    """Lumped-element description of the biased nanowire and its leads.

    All values SI.  ``k_segments`` is K: the wire has K+1 inductors and
    K internal nodes.  ``z_term_left`` / ``z_term_right`` are complex
    termination impedances at the far side of each lead.
    """

    k_segments: int = 40
    l_wire_total: float = 2.2e-6
    c_ground: float = 10.5e-15
    c_drive: float = 4.635e-17
    c_lead: float = 3.587e-15
    l_lead: float = 5e-9
    r_lead: float = 5.0
    z_term_left: complex = 0.0
    z_term_right: complex = 50.0
    omega_rf: float = DEFAULT_OMEGA_RF
    v_rf: float = 8.8

    def __post_init__(self) -> None:
        if self.k_segments < 2 or self.k_segments % 2 != 0:
            raise ValueError("k_segments must be an even integer >= 2")
        for name in ("l_wire_total", "c_ground", "c_drive", "c_lead", "l_lead", "r_lead",
                     "omega_rf", "v_rf"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.l_wire_total <= 0:
            raise ValueError("l_wire_total must be positive")
        if self.omega_rf <= 0:
            raise ValueError("omega_rf must be positive")

    @property
    def l_segment(self) -> float:
        return self.l_wire_total / (self.k_segments + 1)


@dataclass(frozen=True)
class InducedCurrentSolution:
    """Complex segment currents at the drive frequency.

    ``currents[k]`` is the phasor current through inductor k (rightward
    positive) with the drive voltage as the real phase reference.
    ``residual`` is the relative nodal current imbalance of the solve.
    """

    network: NanowireNetwork
    node_voltages: np.ndarray
    currents: np.ndarray
    residual: float


def _solve_tridiagonal(diag: np.ndarray, off: complex, rhs: np.ndarray) -> np.ndarray:
    """Solve T v = rhs, T tridiagonal with diagonal diag and all off-diagonal entries off.

    Gaussian elimination with partial pivoting (Golub & Van Loan, Matrix Computations,
    sec. 4.3; LAPACK gtsv), so a zero diagonal entry is harmless.  O(n).
    """
    rows = []  # rows of U with their right-hand sides: (pivot, u1, u2, y)
    p, q, r = complex(diag[0]), off, complex(rhs[0])  # the row being eliminated
    for d1, b1, u in zip(diag[1:].tolist(), rhs[1:].tolist(), [off] * (len(diag) - 2) + [0j]):
        if abs(p) >= abs(off):  # keep the row; a zero p here has only zeros below it
            f = off / p if p else 0j
            rows.append((p, q, 0j, r))
            p, q, r = d1 - f * q, u, b1 - f * r
        else:  # swap in the next row, which fills U's second superdiagonal
            f = p / off
            rows.append((off, d1, u, b1))
            p, q, r = q - f * d1, -f * u, r - f * b1
    rows.append((p, 0j, 0j, r))
    if any(row[0] == 0 for row in rows):
        raise np.linalg.LinAlgError("singular pickup network: zero pivot in the nodal matrix")
    v = [0j, 0j]  # back substitution, from the last node down
    for piv, u1, u2, y in reversed(rows):
        v.append((y - u1 * v[-1] - u2 * v[-2]) / piv)
    return np.array(v[:1:-1])  # node 0 first, without the two padding zeros


def solve_network(net: NanowireNetwork) -> InducedCurrentSolution:
    """Single-frequency complex nodal analysis of the pickup network.

    The ladder couples each node only to its neighbours, so the nodal
    admittance matrix is tridiagonal: it is assembled as its three
    diagonals and solved in O(k) by a pivoting tridiagonal elimination.
    """
    k = net.k_segments
    omega = net.omega_rf
    y_l = 1.0 / (1j * omega * net.l_segment)
    y_cd = 1j * omega * net.c_drive
    y_cl = 1j * omega * net.c_lead

    diag = np.full(k + 2, y_l + y_l + 1j * omega * net.c_ground + y_cd)
    rhs = np.full(k + 2, y_cd * net.v_rf)
    for node, z_term in ((0, net.z_term_left), (k + 1, net.z_term_right)):
        z_lead = net.r_lead + 1j * omega * net.l_lead + z_term
        if z_lead == 0:
            raise ValueError("lead branch impedance is zero; network is ill-posed")
        diag[node] = y_l + y_cl + 1.0 / z_lead
        rhs[node] = y_cl * net.v_rf
    if not (np.isfinite(diag).all() and np.isfinite(rhs).all()):
        raise ValueError("network admittances and drive must be finite")
    v = _solve_tridiagonal(diag, -y_l, rhs)

    currents = (v[:-1] - v[1:]) * y_l
    imbalance = diag * v - rhs
    imbalance[:-1] -= y_l * v[1:]
    imbalance[1:] -= y_l * v[:-1]
    scale = np.abs(rhs).max()
    residual = float(np.abs(imbalance).max() / scale) if scale > 0 else float(
        np.abs(imbalance).max()
    )
    return InducedCurrentSolution(
        network=net, node_voltages=v, currents=currents, residual=residual
    )


@dataclass(frozen=True)
class PickupDecomposition:
    """Least-squares split of segment currents into uniform + linear parts."""

    uniform: complex
    linear: complex
    r_squared: float


def decompose_currents(sol: InducedCurrentSolution) -> PickupDecomposition:
    """Fit I(k) = a + b * (k - K/2)/(K/2) to the solved segment currents."""
    k = sol.network.k_segments
    u = (np.arange(k + 1) - k / 2) / (k / 2)
    a = sol.currents.mean()  # u averages to zero on the symmetric grid
    b = (sol.currents * u).sum() / (u * u).sum()
    fit = a + b * u
    ss_res = float(np.sum(np.abs(sol.currents - fit) ** 2))
    ss_tot = float(np.sum(np.abs(sol.currents - sol.currents.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return PickupDecomposition(uniform=complex(a), linear=complex(b), r_squared=r2)


@dataclass(frozen=True)
class PickupModel:
    """Reduced two-term pickup current (amplitudes in uA).

    i0_ua multiplies sin(wt) uniformly along the wire; i1_ua multiplies
    cos(wt) with a linear spatial profile (k - K/2)/(K/2).
    """

    i0_ua: float
    i1_ua: float
    k_segments: int = 40
    omega_rf: float = DEFAULT_OMEGA_RF

    def __post_init__(self) -> None:
        for name in ("i0_ua", "i1_ua", "omega_rf"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.k_segments < 2 or self.k_segments % 2 != 0:
            raise ValueError("k_segments must be an even integer >= 2")
        if self.omega_rf <= 0:
            raise ValueError("omega_rf must be positive")


def pickup_from_solution(sol: InducedCurrentSolution) -> PickupModel:
    """Build the reduced model from a full network solution."""
    dec = decompose_currents(sol)
    return PickupModel(
        i0_ua=float(np.abs(dec.uniform)) * 1e6,
        i1_ua=float(np.abs(dec.linear)) * 1e6,
        k_segments=sol.network.k_segments,
        omega_rf=sol.network.omega_rf,
    )


def reduced_current(model: PickupModel, k: int, t_s: float) -> float:
    """Pickup current (uA) in segment k at time t."""
    if not (0 <= k <= model.k_segments):
        raise ValueError(f"segment index must lie in [0, {model.k_segments}]")
    u = (k - model.k_segments / 2) / (model.k_segments / 2)
    wt = model.omega_rf * t_s
    return model.i0_ua * np.sin(wt) + model.i1_ua * u * np.cos(wt)


def max_induced(model: PickupModel) -> float:
    """Largest instantaneous pickup amplitude over segments and phase (uA).

    The two terms are in quadrature, so the per-segment amplitude is
    sqrt(i0^2 + (i1 u)^2), maximal at the wire ends where |u| = 1.
    """
    return float(np.hypot(model.i0_ua, model.i1_ua))


@dataclass(frozen=True)
class BiasCountCurve:
    """Tabulated counts versus bias current (uA).

    Evaluation interpolates linearly between samples.  Outside the
    tabulated domain the detector either does not respond (below) or is
    driven normal (above), so both sides evaluate to zero counts.
    """

    bias_ua: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        bias = np.asarray(self.bias_ua, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        object.__setattr__(self, "bias_ua", bias)
        object.__setattr__(self, "counts", counts)
        if bias.ndim != 1 or bias.size < 2 or bias.shape != counts.shape:
            raise ValueError("need matching 1-D arrays with at least two samples")
        if np.any(np.diff(bias) <= 0):
            raise ValueError("bias_ua must be strictly increasing")
        if np.any(counts < 0) or not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite and >= 0")

    def __call__(self, bias_ua) -> np.ndarray:
        return np.interp(bias_ua, self.bias_ua, self.counts, left=0.0, right=0.0)


def _cut_indices(
    x: np.ndarray, bias: np.ndarray, cuts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """First indices of sorted x where bias + x reaches each cut.

    Returns (ge, gt), both of shape (bias.size, cuts.size): ge[i, c] is
    the first k with fl(bias[i] + x[k]) >= cuts[c], gt[i, c] the first
    with > cuts[c].  Floating-point addition is monotone, so each set is
    a suffix of x.  A search on cut - bias lands within a rounding margin
    of its boundary; the points inside the margin are classified by
    evaluating bias + x itself, as a pointwise comparison would.
    """
    b = bias[:, None]
    c = cuts[None, :]
    shape = (bias.size, cuts.size)
    margin = 16 * np.finfo(float).eps * (np.abs(b) + np.abs(c) + max(-x[0], x[-1]))
    lo = np.searchsorted(x, (c - b - margin).ravel(), side="left")
    hi = np.searchsorted(x, (c - b + margin).ravel(), side="right")
    n = hi - lo
    query = np.repeat(np.arange(lo.size), n)
    k = np.arange(query.size) - np.repeat(np.cumsum(n) - n, n) + np.repeat(lo, n)
    z = np.broadcast_to(b, shape).ravel()[query] + x[k]
    cut = np.broadcast_to(c, shape).ravel()[query]
    ge = lo + np.bincount(query[z < cut], minlength=lo.size)
    gt = lo + np.bincount(query[z <= cut], minlength=lo.size)
    return ge.reshape(shape), gt.reshape(shape)


def predict_counts(
    model: PickupModel,
    rf_off_curve: BiasCountCurve,
    bias_ua,
    n_phase: int = 256,
) -> float | np.ndarray:
    """Mean counts with the drive on, at dc bias bias_ua (scalar or array).

    Averages rf_off_curve(|bias + I(k, t)|) over n_phase equally spaced
    drive phases and all K+1 segments: each patch of wire sees the dc
    bias plus its local instantaneous pickup current.  The currents are
    built and sorted once per call.  For every bias, the points on each
    side of bias + I = 0 are split at the curve's knots exactly as the
    pointwise interpolation splits them (points on a knot, including the
    last one, take that knot's counts; points outside the curve count
    0), and each knot interval adds its linear piece over the prefix sums
    of the sorted currents.  Returns a float for a scalar bias, else an
    array of the bias's shape.
    """
    if n_phase < 8:
        raise ValueError("n_phase must be >= 8")
    bias = np.asarray(bias_ua, dtype=float)
    if not np.all(np.isfinite(bias)):
        raise ValueError("bias_ua must be finite")
    phases = (np.arange(n_phase) + 0.5) * (TWO_PI / n_phase)
    u = (np.arange(model.k_segments + 1) - model.k_segments / 2) / (model.k_segments / 2)
    inst = model.i0_ua * np.sin(phases)[None, :] + (
        model.i1_ua * u[:, None] * np.cos(phases)[None, :]
    )
    x = np.sort(inst, axis=None)
    prefix = np.concatenate([[0.0], np.cumsum(x)])

    knots, counts = rf_off_curve.bias_ua, rf_off_curve.counts
    b = bias.reshape(-1, 1)
    m = knots.size
    ge, gt = _cut_indices(x, b.ravel(), np.concatenate([[0.0], knots, -knots]))
    # z = bias + I >= 0 occupies [zero, N) of the sorted points, z < 0 [0, zero).
    # On the positive side |z| >= t_j from pos_ge[:, j] on, |z| > t_j from
    # pos_gt[:, j]; on the negative side |z| > t_j before neg_gt[:, j] and
    # |z| >= t_j before neg_ge[:, j].
    zero = ge[:, :1]
    pos_ge = np.maximum(ge[:, 1 : m + 1], zero)
    pos_gt = np.maximum(gt[:, 1 : m + 1], zero)
    neg_gt = np.minimum(ge[:, m + 1 :], zero)
    neg_ge = np.minimum(gt[:, m + 1 :], zero)

    on_knot = (pos_gt - pos_ge) + (neg_ge - neg_gt)
    # strictly inside (t_j, t_j+1): the positive run [pos_gt_j, pos_ge_j+1)
    # and the negative run [neg_ge_j+1, neg_gt_j)
    n_pos = pos_ge[:, 1:] - pos_gt[:, :-1]
    n_neg = neg_gt[:, :-1] - neg_ge[:, 1:]
    sum_pos = prefix[pos_ge[:, 1:]] - prefix[pos_gt[:, :-1]]
    sum_neg = prefix[neg_gt[:, :-1]] - prefix[neg_ge[:, 1:]]
    t = knots[:-1]
    excess = n_pos * (b - t) + sum_pos + n_neg * (-b - t) - sum_neg  # sum of |z| - t_j
    slope = np.diff(counts) / np.diff(knots)
    total = on_knot @ counts + (n_pos + n_neg) @ counts[:-1] + excess @ slope
    mean = total / x.size
    return float(mean[0]) if bias.ndim == 0 else mean.reshape(bias.shape)


@dataclass(frozen=True)
class PickupFit:
    model: PickupModel
    i0_err_ua: float
    i1_err_ua: float
    residual_norm: float
    n_points: int


def fit_pickup(
    rf_on_curve: BiasCountCurve,
    rf_off_curve: BiasCountCurve,
    delta_im_ua: float,
    k_segments: int = 40,
    omega_rf: float = DEFAULT_OMEGA_RF,
) -> PickupFit:
    """Fit (I0, I1) to an rf-on bias curve, given the rf-off curve.

    The amplitudes are constrained to the circle sqrt(I0^2 + I1^2) =
    delta_im_ua (the observed shift of the response edge), leaving one
    angle psi with I0 = delta * cos(psi), I1 = delta * sin(psi).  The
    angle is located by a coarse scan and polished by golden-section
    search between the scan's neighbours of its best point, to 1e-5 rad;
    uncertainties follow from the residual curvature at the minimum.
    """
    if delta_im_ua < 0:
        raise ValueError("delta_im_ua must be >= 0")
    if delta_im_ua == 0:
        return PickupFit(
            model=PickupModel(0.0, 0.0, k_segments, omega_rf),
            i0_err_ua=0.0,
            i1_err_ua=0.0,
            residual_norm=0.0,
            n_points=rf_on_curve.bias_ua.size,
        )
    if np.ptp(rf_off_curve.counts) == 0 or np.ptp(rf_on_curve.counts) == 0:
        raise ValueError("flat count curves cannot constrain the pickup fit")

    bias = rf_on_curve.bias_ua
    target = rf_on_curve.counts

    def sse(psi: float) -> float:
        model = PickupModel(
            delta_im_ua * np.cos(psi), delta_im_ua * np.sin(psi), k_segments, omega_rf
        )
        pred = predict_counts(model, rf_off_curve, bias)
        return float(np.sum((pred - target) ** 2))

    psis = np.linspace(0.0, np.pi / 2, 65)
    costs = np.array([sse(p) for p in psis])
    i_best = int(np.argmin(costs))
    lo = psis[max(0, i_best - 1)]
    hi = psis[min(psis.size - 1, i_best + 1)]
    psi_hat, sse_min = _golden_min(sse, lo, hi, 1e-5)
    if sse_min > costs[i_best]:
        psi_hat, sse_min = float(psis[i_best]), float(costs[i_best])
    h = np.pi / 2 / 256
    p_lo = np.clip(psi_hat - h, 0.0, np.pi / 2)
    p_hi = np.clip(psi_hat + h, 0.0, np.pi / 2)
    curv = (sse(p_lo) - 2 * sse_min + sse(p_hi)) / ((p_hi - psi_hat) * (psi_hat - p_lo) + 1e-30)
    dof = max(bias.size - 1, 1)
    s2 = sse_min / dof
    psi_err = float(np.sqrt(2 * s2 / curv)) if curv > 0 else float("inf")

    model = PickupModel(
        delta_im_ua * np.cos(psi_hat),
        delta_im_ua * np.sin(psi_hat),
        k_segments,
        omega_rf,
    )
    return PickupFit(
        model=model,
        i0_err_ua=abs(delta_im_ua * np.sin(psi_hat)) * psi_err,
        i1_err_ua=abs(delta_im_ua * np.cos(psi_hat)) * psi_err,
        residual_norm=float(np.sqrt(sse_min)),
        n_points=bias.size,
    )
