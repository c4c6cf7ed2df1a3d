"""Reference computations the benchmark checks the program's outputs against.

Nothing here imports ``ionreadout``: each function recomputes a quantity
from the physics or the file format, with numpy and scipy only, so that a
fault in the program cannot hide in its own check.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from scipy.stats import poisson

_PER_MS_TO_PER_US = 1e-3


# ------------------------------------------------------- single-flip model

@dataclass(frozen=True)
class Emitter:
    """Two-state emitter: count rates and pumping rates, all in 1/ms."""

    gamma_b: float
    gamma_d: float
    gamma_dp: float
    gamma_rp: float

    def count_per_us(self, bright: bool) -> float:
        return (self.gamma_b if bright else self.gamma_d) * _PER_MS_TO_PER_US

    def exit_per_us(self, bright: bool) -> float:
        return (self.gamma_dp if bright else self.gamma_rp) * _PER_MS_TO_PER_US


def _flip_times(em: Emitter, bright: bool, window_us: float, mode: str,
                bin_width_us: float, split_us: float) -> tuple[np.ndarray, np.ndarray]:
    """Flip times (us) and their probabilities for at most one pumping event.

    The last entry is ``inf`` with the probability that no flip happens
    inside the window.  ``exact`` integrates the exponential flip density
    by Gauss-Legendre on [0, split] and [split, window], where the count
    means are linear in the flip time; ``bin-boundary`` sums the geometric
    law of flips at bin boundaries with per-boundary probability rate*t0.
    """
    k = em.exit_per_us(bright)
    if mode == "exact":
        nodes, weights = np.polynomial.legendre.leggauss(48)
        ts, ws = [], []
        for lo, hi in ((0.0, split_us), (split_us, window_us)):
            if hi > lo:
                t = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
                ts.append(t)
                ws.append(0.5 * (hi - lo) * weights * k * np.exp(-k * t))
        t = np.concatenate(ts)
        w = np.concatenate(ws)
        stay = np.exp(-k * window_us)
    elif mode == "bin-boundary":
        p = k * bin_width_us
        n_bounds = int(round(window_us / bin_width_us))
        i = np.arange(1, n_bounds)
        t = i * bin_width_us
        w = (1.0 - p) ** (i - 1) * p
        stay = (1.0 - p) ** (n_bounds - 1)
    else:
        raise ValueError(f"unknown transition mode {mode!r}")
    return np.append(t, np.inf), np.append(w, stay)


def _window_means(em: Emitter, bright: bool, flip_us: np.ndarray, lo: float,
                  hi: float) -> np.ndarray:
    """Expected counts in [lo, hi) for a trial prepared in ``bright`` that
    flips once at ``flip_us``."""
    first = np.clip(flip_us, lo, hi) - lo
    return em.count_per_us(bright) * first + em.count_per_us(not bright) * (hi - lo - first)


def herald_probs(em: Emitter, herald_us: float, bright_min: int, mode: str,
                 bin_width_us: float) -> dict[bool, dict[str, float]]:
    """P(herald outcome | prepared state) for outcomes bright, dark, discarded."""
    out = {}
    for bright in (True, False):
        t, w = _flip_times(em, bright, herald_us, mode, bin_width_us, herald_us)
        lam = _window_means(em, bright, t, 0.0, herald_us)
        p_dark = float(w @ np.exp(-lam))
        p_bright = float(w @ poisson.sf(bright_min - 1, lam))
        out[bright] = {"bright": p_bright, "dark": p_dark,
                       "discarded": 1.0 - p_bright - p_dark}
    return out


def threshold_error_model(em: Emitter, herald_us: float, bright_min: int,
                          duration_us: float, threshold: int, mode: str,
                          bin_width_us: float, trials_per_state: int
                          ) -> dict[str, float]:
    """Expected retained counts and threshold errors after the herald.

    Returns the expected number of trials retained as bright (``n_bright``)
    and as dark (``n_dark``), and the expected number of each that the
    threshold misclassifies in the ``duration_us`` following the herald
    (``err_bright``: bright-labelled with fewer than ``threshold`` counts,
    ``err_dark``: dark-labelled with at least ``threshold``).
    """
    window = herald_us + duration_us
    totals = dict(n_bright=0.0, n_dark=0.0, err_bright=0.0, err_dark=0.0)
    for bright in (True, False):
        t, w = _flip_times(em, bright, window, mode, bin_width_us, herald_us)
        lam_h = _window_means(em, bright, t, 0.0, herald_us)
        lam_r = _window_means(em, bright, t, herald_us, window)
        lab_dark = np.exp(-lam_h)
        lab_bright = poisson.sf(bright_min - 1, lam_h)
        below = poisson.cdf(threshold - 1, lam_r)
        n = float(trials_per_state)
        totals["n_bright"] += n * float(w @ lab_bright)
        totals["n_dark"] += n * float(w @ lab_dark)
        totals["err_bright"] += n * float(w @ (lab_bright * below))
        totals["err_dark"] += n * float(w @ (lab_dark * (1.0 - below)))
    return totals


def within_counts(observed: float, expected: float, n: float, n_sigma: float = 5.0
                  ) -> tuple[bool, float]:
    """Binomial test on a count: |observed - expected| <= n_sigma * sigma + 1.

    sigma is the binomial sigma of ``expected`` successes in ``n`` trials;
    the one extra count absorbs the integer step when ``expected`` is near 0.
    Returns (ok, deviation in sigma).
    """
    p = min(max(expected / n, 0.0), 1.0) if n > 0 else 0.0
    sigma = float(np.sqrt(n * p * (1.0 - p)))
    dev = abs(observed - expected)
    return dev <= n_sigma * sigma + 1.0, dev / sigma if sigma > 0 else float(dev > 0)


# ----------------------------------------------------- trajectory CSV file

def read_trajectory_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Parse the long-format trajectory CSV with numpy alone.

    Returns (bright labels, counts matrix n_trials x n_bins).  Raises
    ValueError unless every trial's rows are contiguous, its bins run
    0..n-1 in order, all trials have the same length, and each trial
    carries a single label.
    """
    with open(path, "rb") as fh:
        header = fh.readline().strip()
        body = fh.read()
    if header != b"trial_id,prepared,bin_index,counts":
        raise ValueError(f"{path}: unexpected header {header!r}")
    body = body.replace(b",bright,", b",1,").replace(b",dark,", b",0,")
    rows = np.loadtxt(io.BytesIO(body), delimiter=",", dtype=np.int64, ndmin=2)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"{path}: expected 4 integer columns")
    if rows.shape[0] == 0:
        raise ValueError(f"{path}: no rows")
    trial, label, bin_index, counts = rows.T
    starts = np.flatnonzero(np.diff(trial, prepend=-1))
    n_trials = starts.size
    if not np.array_equal(trial[starts], np.arange(n_trials)):
        raise ValueError(f"{path}: trial ids are not 0..n-1 in contiguous blocks")
    n_bins = rows.shape[0] // n_trials
    if n_bins * n_trials != rows.shape[0] or not np.array_equal(starts, np.arange(n_trials) * n_bins):
        raise ValueError(f"{path}: trials differ in length")
    if not np.array_equal(bin_index.reshape(n_trials, n_bins),
                          np.broadcast_to(np.arange(n_bins), (n_trials, n_bins))):
        raise ValueError(f"{path}: bins are not 0..n-1 in order")
    labels = label.reshape(n_trials, n_bins)
    if np.any(labels != labels[:, :1]):
        raise ValueError(f"{path}: a trial changes label")
    if np.any(counts < 0):
        raise ValueError(f"{path}: negative counts")
    return labels[:, 0].astype(bool), counts.reshape(n_trials, n_bins)


def best_threshold(bright: np.ndarray, totals: np.ndarray) -> tuple[int, float, float]:
    """Exhaustive recount: try every threshold 0..max+1 one by one.

    Returns (threshold, eps_bright, eps_dark) for the threshold with the
    lowest mean error, the smallest one on ties.
    """
    tb, td = totals[bright], totals[~bright]
    best = None
    for thr in range(int(totals.max()) + 2):
        eps_b = np.count_nonzero(tb < thr) / tb.size
        eps_d = np.count_nonzero(td >= thr) / td.size
        err = 0.5 * (eps_b + eps_d)
        if best is None or err < best[0]:
            best = (err, thr, eps_b, eps_d)
    return best[1], best[2], best[3]


# ------------------------------------------------------- LLR forward filter

def llr_filter(counts: np.ndarray, em: Emitter, bin_width_us: float, level: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """Sequential two-state filter in log-likelihood-ratio form.

    r = log P(bright)/P(dark) starts at 0.  Each bin first propagates r
    through the exact two-state transition matrix, with flip probability
    1 - exp(-gamma * t0), then adds the Poisson log-likelihood ratio of the
    bin's count.  A trial stops at the first bin where max posterior
    reaches ``level``, i.e. |r| >= logit(level); a trial still open at the
    end of the record decides on the sign of r.  Returns (decision bright,
    bins consumed).
    """
    t0 = bin_width_us * _PER_MS_TO_PER_US
    mu_b, mu_d = em.gamma_b * t0, em.gamma_d * t0
    p_dp = -np.expm1(-em.gamma_dp * t0)
    p_rp = -np.expm1(-em.gamma_rp * t0)
    log_stay_b, log_stay_d = np.log1p(-p_dp), np.log1p(-p_rp)
    with np.errstate(divide="ignore"):
        log_dp, log_rp = np.log(p_dp), np.log(p_rp)
    lut = np.arange(int(counts.max()) + 1) * np.log(mu_b / mu_d) - (mu_b - mu_d)
    stop = np.log(level) - np.log1p(-level)

    n_trials, n_bins = counts.shape
    r = np.zeros(n_trials)
    used = np.full(n_trials, n_bins)
    open_ = np.arange(n_trials)
    for i in range(n_bins):
        ro = r[open_]
        log_b = -np.logaddexp(0.0, -ro)   # log sigmoid(r)
        log_d = -np.logaddexp(0.0, ro)    # log sigmoid(-r)
        ro = (np.logaddexp(log_stay_b + log_b, log_rp + log_d)
              - np.logaddexp(log_dp + log_b, log_stay_d + log_d)
              + lut[counts[open_, i]])
        r[open_] = ro
        done = np.abs(ro) >= stop
        if np.any(done):
            used[open_[done]] = i + 1
            open_ = open_[~done]
            if open_.size == 0:
                break
    return r >= 0.0, used


# ------------------------------------------------------------------ g2

def g2_expected_pairs(n_tags_a: int, n_tags_b: int, duration_ns: int,
                      bin_width_ns: int) -> float:
    """Expected A-B pairs per delay bin for independent uniform streams:
    rate_a * rate_b * T * bin width."""
    return n_tags_a * n_tags_b * bin_width_ns / duration_ns


# --------------------------------------------------------------- optics

def _dipole_integral(lateral_um: float, x0: float, x1: float, y0: float, y1: float,
                     depth_um: float, quant_axis_deg: float, n_nodes: int = 96) -> float:
    """Integral of (3/16pi)(1 + cos^2 theta_q) dOmega over a detector rectangle
    ``depth_um`` below the emitter, by tensor Gauss-Legendre."""
    if x1 <= x0 or y1 <= y0:
        return 0.0
    g, wt = np.polynomial.legendre.leggauss(n_nodes)
    xs, wx = 0.5 * (x1 - x0) * g + 0.5 * (x1 + x0), 0.5 * (x1 - x0) * wt
    ys, wy = 0.5 * (y1 - y0) * g + 0.5 * (y1 + y0), 0.5 * (y1 - y0) * wt
    dx = xs[:, None] - lateral_um
    dy = ys[None, :]
    r = np.sqrt(dx * dx + dy * dy + depth_um * depth_um)
    q = np.radians(quant_axis_deg)
    cos_q = (dx * np.cos(q) + dy * np.sin(q)) / r
    integrand = 3.0 / (16.0 * np.pi) * (1.0 + cos_q**2) * depth_um / r**3
    return float(wx @ integrand @ wy)


@dataclass(frozen=True)
class DetectorGeometry:
    """Detector under an emitter; lengths in um, as in the paper's trap."""

    detector_w_um: float = 22.0
    detector_h_um: float = 20.0
    recess_um: float = 6.0
    ion_height_um: float = 29.0
    quant_axis_deg: float = 45.0
    opening_margin_um: float = 30.0

    def _visible_x(self, lateral_um: float) -> tuple[float, float]:
        # Sight lines cross the electrode plane at an affine image of the
        # detector point, so the unblocked part of the detector is an interval.
        f = self.ion_height_um / (self.ion_height_um + self.recess_um)
        half = self.detector_w_um / 2 + self.opening_margin_um
        return ((-half - lateral_um * (1 - f)) / f, (half - lateral_um * (1 - f)) / f)

    def _visible_y(self) -> tuple[float, float]:
        f = self.ion_height_um / (self.ion_height_um + self.recess_um)
        half = self.detector_h_um / 2 + self.opening_margin_um
        return max(-self.detector_h_um / 2, -half / f), min(self.detector_h_um / 2, half / f)

    def collection_fraction(self, lateral_um: float) -> float:
        """Share of a rotating dipole's emission that reaches the detector
        through the recess opening (electrode-edge blocking included)."""
        vx0, vx1 = self._visible_x(lateral_um)
        x0, x1 = max(-self.detector_w_um / 2, vx0), min(self.detector_w_um / 2, vx1)
        return _dipole_integral(lateral_um, x0, x1, *self._visible_y(),
                                self.recess_um + self.ion_height_um, self.quant_axis_deg)

    def edge_strip_fraction(self, lateral_um: float, pitch_um: float) -> float:
        """Emission into the detector strip within half a pitch of the blocking edge.

        A grid of ``pitch_um`` cells that keeps or drops each cell by its
        centre differs from the exact visible area only inside the cell
        column the edge cuts, on the far side of the edge from its centre,
        so this bounds the discretization error at blocked offsets.  0 when
        nothing on the detector is blocked.
        """
        half_w = self.detector_w_um / 2
        edges = [x for x in self._visible_x(lateral_um) if -half_w < x < half_w]
        return sum(
            _dipole_integral(lateral_um, max(-half_w, x - pitch_um / 2),
                             min(half_w, x + pitch_um / 2),
                             *self._visible_y(), self.recess_um + self.ion_height_um,
                             self.quant_axis_deg)
            for x in edges
        )


# ------------------------------------------------------------ rf circuit

def network_residual(node_voltages: np.ndarray, k_segments: int, l_wire_total: float,
                     c_ground: float, c_drive: float, c_lead: float, l_lead: float,
                     r_lead: float, z_term_left: complex, z_term_right: complex,
                     omega_rf: float, v_rf: float) -> float:
    """Largest Kirchhoff current imbalance at any node, relative to the drive.

    Sums, at every node, the currents leaving through the wire inductors,
    the ground and drive capacitors and the lead branches, for the given
    node voltages.  Inductors are L_total / (K + 1); internal nodes carry
    C_ground and C_drive, the end nodes C_lead to the drive and a series
    R_lead + j w L_lead + Z_term branch to ground.
    """
    v = np.asarray(node_voltages, dtype=complex)
    jw = 1j * omega_rf
    y_l = 1.0 / (jw * l_wire_total / (k_segments + 1))
    leaving = np.zeros_like(v)
    wire = (v[:-1] - v[1:]) * y_l
    leaving[:-1] += wire
    leaving[1:] -= wire
    drive = np.zeros_like(v)
    leaving[1:-1] += jw * c_ground * v[1:-1] + jw * c_drive * (v[1:-1] - v_rf)
    drive[1:-1] = jw * c_drive * v_rf
    for node, z_term in ((0, z_term_left), (-1, z_term_right)):
        leaving[node] += jw * c_lead * (v[node] - v_rf)
        leaving[node] += v[node] / (r_lead + jw * l_lead + z_term)
        drive[node] = jw * c_lead * v_rf
    return float(np.abs(leaving).max() / np.abs(drive).max())


def rf_on_counts(i0_ua: float, i1_ua: float, k_segments: int, off_bias_ua: np.ndarray,
                 off_counts: np.ndarray, bias_ua: np.ndarray, n_phase: int = 2048
                 ) -> np.ndarray:
    """Mean counts with the drive on: the drive-off curve at |bias + I(k, t)|,
    I = I0 sin wt + I1 u_k cos wt with u_k linear from -1 to 1 along the
    wire, averaged over one rf period and the K + 1 segments."""
    phase = (np.arange(n_phase) + 0.5) * (2 * np.pi / n_phase)
    u = np.linspace(-1.0, 1.0, k_segments + 1)
    inst = i0_ua * np.sin(phase)[None, :] + i1_ua * u[:, None] * np.cos(phase)[None, :]
    return np.array([
        np.interp(np.abs(b + inst), off_bias_ua, off_counts, left=0.0, right=0.0).mean()
        for b in bias_ua
    ])
