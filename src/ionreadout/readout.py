"""State classification and rate calibration for binned photon counts.

Two discriminators are provided.  The fixed-duration threshold method
sums counts over a window and compares against an integer threshold.
The adaptive method updates a two-hypothesis posterior bin by bin,
accounting for state transitions during the readout, and stops as soon
as either posterior reaches a requested confidence level, so easy trials
finish early.

All posterior arithmetic is carried out on log-probabilities: per-bin
likelihood ratios can span hundreds of orders of magnitude over a long
record, and the mixed add/multiply recursion is only stable via
logaddexp.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaln

from .photon_sim import (
    BRIGHT,
    DARK,
    Dataset,
    RateParams,
    StateLabel,
    Trajectory,
    _MS_PER_US,
    _flip_prob,
    as_dataset,
)

_NEG_INF = float("-inf")


def poisson_log_pmf(n, gamma_per_ms: float, bin_width_us: float):
    """log P(n counts) for rate gamma_per_ms over a bin of bin_width_us.

    Vectorized in n.  Stable for n up to at least 1e4.
    """
    if gamma_per_ms < 0:
        raise ValueError("rate must be >= 0")
    if bin_width_us <= 0:
        raise ValueError("bin width must be positive")
    n_arr = np.asarray(n)
    if np.any(n_arr < 0) or not np.issubdtype(n_arr.dtype, np.integer):
        raise ValueError("counts must be non-negative integers")
    mu = gamma_per_ms * bin_width_us * _MS_PER_US
    if mu == 0:
        return np.where(n_arr == 0, 0.0, _NEG_INF) if n_arr.ndim else (0.0 if n == 0 else _NEG_INF)
    out = n_arr * np.log(mu) - mu - gammaln(n_arr + 1.0)
    return out if n_arr.ndim else float(out)


def poisson_pmf(n, gamma_per_ms: float, bin_width_us: float):
    """P(n counts) in one bin; see :func:`poisson_log_pmf`."""
    return np.exp(poisson_log_pmf(n, gamma_per_ms, bin_width_us))


@dataclass(frozen=True)
class Posterior:
    """Two-hypothesis state probabilities."""

    p_bright: float
    p_dark: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.p_bright) and np.isfinite(self.p_dark)):
            raise ValueError("posterior probabilities must be finite")
        if self.p_bright < 0 or self.p_dark < 0:
            raise ValueError("posterior probabilities must be >= 0")
        if abs(self.p_bright + self.p_dark - 1.0) > 1e-9:
            raise ValueError("posterior must sum to 1")

    @classmethod
    def uniform(cls) -> "Posterior":
        return cls(0.5, 0.5)


def _transition_probs(rates: RateParams, bin_width_us: float) -> tuple[float, float]:
    """Per-bin flip probabilities 1 - exp(-gamma * t0) out of bright and dark."""
    p_dp = _flip_prob(rates.gamma_dp, bin_width_us)
    p_rp = _flip_prob(rates.gamma_rp, bin_width_us)
    if p_dp >= 1 or p_rp >= 1:
        raise ValueError("pumping rate times bin width is too large: the per-bin flip "
                         "probability rounds to 1")
    return p_dp, p_rp


def _log_bayes_update(log_pb, log_pd, log_like_b, log_like_d, p_dp: float, p_rp: float):
    """One recursion step on log-posteriors (vectorized over trials).

    Prior is first propagated through the transition matrix, then
    reweighted by the per-state count likelihoods and renormalized.
    """
    log_stay_b = np.log1p(-p_dp)
    log_stay_d = np.log1p(-p_rp)
    log_dp = np.log(p_dp) if p_dp > 0 else _NEG_INF
    log_rp = np.log(p_rp) if p_rp > 0 else _NEG_INF
    lb = np.logaddexp(log_stay_b + log_pb, log_rp + log_pd) + log_like_b
    ld = np.logaddexp(log_stay_d + log_pd, log_dp + log_pb) + log_like_d
    norm = np.logaddexp(lb, ld)
    return lb - norm, ld - norm


def bayes_step(
    prior: Posterior, n: int, rates: RateParams, bin_width_us: float
) -> Posterior:
    """Advance the posterior by one observed bin of n counts."""
    p_dp, p_rp = _transition_probs(rates, bin_width_us)
    with np.errstate(divide="ignore"):
        log_pb = np.log(prior.p_bright)
        log_pd = np.log(prior.p_dark)
    lb, ld = _log_bayes_update(
        log_pb,
        log_pd,
        poisson_log_pmf(int(n), rates.gamma_b, bin_width_us),
        poisson_log_pmf(int(n), rates.gamma_d, bin_width_us),
        p_dp,
        p_rp,
    )
    return Posterior(float(np.exp(lb)), float(np.exp(ld)))


@dataclass(frozen=True)
class ClassifierResult:
    decision: StateLabel
    duration_us: float
    confidence: float
    bins_consumed: int
    converged: bool = True


def adaptive_classify(
    traj: Trajectory,
    rates: RateParams,
    bin_width_us: float,
    confidence_level: float,
) -> ClassifierResult:
    """Classify one trajectory, stopping at the requested confidence.

    Starts from a uniform prior.  If the record is exhausted before
    either posterior reaches the level, the larger posterior decides and
    ``converged`` is False.
    """
    if not (0.5 < confidence_level < 1.0):
        raise ValueError("confidence_level must lie in (0.5, 1)")
    if traj.bins.size == 0:
        raise ValueError("empty trajectory")
    p_dp, p_rp = _transition_probs(rates, bin_width_us)
    log_level = np.log(confidence_level)
    log_pb = np.log(0.5)
    log_pd = np.log(0.5)
    counts = traj.bins.astype(np.int64)
    log_mu_b = poisson_log_pmf(counts, rates.gamma_b, bin_width_us)
    log_mu_d = poisson_log_pmf(counts, rates.gamma_d, bin_width_us)
    for i in range(counts.size):
        log_pb, log_pd = _log_bayes_update(
            log_pb, log_pd, log_mu_b[i], log_mu_d[i], p_dp, p_rp
        )
        best = max(log_pb, log_pd)
        if best >= log_level:
            return ClassifierResult(
                decision=BRIGHT if log_pb >= log_pd else DARK,
                duration_us=(i + 1) * bin_width_us,
                confidence=float(np.exp(best)),
                bins_consumed=i + 1,
            )
    best = max(log_pb, log_pd)
    return ClassifierResult(
        decision=BRIGHT if log_pb >= log_pd else DARK,
        duration_us=counts.size * bin_width_us,
        confidence=float(np.exp(best)),
        bins_consumed=counts.size,
        converged=False,
    )


@dataclass
class AdaptiveBatchResult:
    """Vectorized adaptive classification at one confidence level."""

    confidence_level: float
    decisions: np.ndarray  # bool, True = bright
    bins_consumed: np.ndarray
    confidence: np.ndarray
    converged: np.ndarray


def adaptive_classify_batch(
    trajs: Dataset | Sequence[Trajectory],
    rates: RateParams,
    bin_width_us: float,
    confidence_levels: Sequence[float],
) -> list[AdaptiveBatchResult]:
    """Classify many trajectories at several stopping levels in one pass.

    Equivalent to calling :func:`adaptive_classify` per trajectory and
    per level, but iterates bins across the whole batch at once.  A
    trial that has reached the highest level has stopped at every lower
    one too (the first bin where the posterior reaches a level never
    comes earlier for a higher level), so only trials still open at the
    highest level are stepped.
    """
    levels = [float(l) for l in confidence_levels]
    if not levels:
        raise ValueError("need at least one confidence level")
    for l in levels:
        if not (0.5 < l < 1.0):
            raise ValueError("confidence levels must lie in (0.5, 1)")
    ds = as_dataset(trajs)
    if not len(ds):
        raise ValueError("empty dataset")
    n_trials, n_bins = ds.counts.shape
    if n_bins == 0:
        raise ValueError("records have no bins to classify")
    if not np.isclose(bin_width_us, ds.bin_width_us, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"bin_width_us ({bin_width_us}) does not match the records' bin width "
            f"({ds.bin_width_us})"
        )
    p_dp, p_rp = _transition_probs(rates, bin_width_us)

    # per-bin log-likelihoods, tabulated over the observed counts
    n = np.arange(int(ds.counts.max()) + 1)
    log_fact = gammaln(n + 1.0)
    mu_b = rates.gamma_b * bin_width_us * _MS_PER_US
    mu_d = rates.gamma_d * bin_width_us * _MS_PER_US
    like_b = n * np.log(mu_b) - mu_b - log_fact if mu_b > 0 else np.where(n == 0, 0.0, _NEG_INF)
    like_d = n * np.log(mu_d) - mu_d - log_fact if mu_d > 0 else np.where(n == 0, 0.0, _NEG_INF)

    # A trial's stopped levels are always the lowest ones, so per trial
    # one count of stopped levels (in ascending order) tracks them all.
    order = np.argsort(levels, kind="stable")
    sorted_log_levels = np.log(levels)[order]
    stop_bin = np.full((n_trials, len(levels)), -1, dtype=np.int32)
    stop_bright = np.zeros((n_trials, len(levels)), dtype=bool)
    stop_conf = np.zeros((n_trials, len(levels)))

    active = np.arange(n_trials)  # trials still open at the highest level
    n_stopped = np.zeros(n_trials, dtype=np.intp)
    log_pb = np.full(n_trials, np.log(0.5))
    log_pd = np.full(n_trials, np.log(0.5))
    for i in range(n_bins):
        n_i = ds.counts[active, i]
        log_pb, log_pd = _log_bayes_update(log_pb, log_pd, like_b[n_i], like_d[n_i], p_dp, p_rp)
        best = np.maximum(log_pb, log_pd)
        reached = np.searchsorted(sorted_log_levels, best, side="right")
        reached[np.isnan(best)] = 0  # an impossible count under both rates stops nothing
        new = np.flatnonzero(reached > n_stopped)
        if not new.size:
            continue
        rows, lo, hi = active[new], n_stopped[new], reached[new]
        bright_now = log_pb[new] >= log_pd[new]
        conf_now = np.exp(best[new])
        for k in range(int(lo.min()), int(hi.max())):
            hit = (lo <= k) & (k < hi)
            j = order[k]
            stop_bin[rows[hit], j] = i + 1
            stop_bright[rows[hit], j] = bright_now[hit]
            stop_conf[rows[hit], j] = conf_now[hit]
        n_stopped[new] = hi
        still_open = n_stopped < len(levels)
        active, n_stopped = active[still_open], n_stopped[still_open]
        log_pb, log_pd = log_pb[still_open], log_pd[still_open]
        if not active.size:
            break

    results = []
    final_bright = np.zeros(n_trials, dtype=bool)
    final_conf = np.zeros(n_trials)
    final_bright[active] = log_pb >= log_pd
    final_conf[active] = np.exp(np.maximum(log_pb, log_pd))
    for j, level in enumerate(levels):
        open_ = stop_bin[:, j] < 0
        bins_used = np.where(open_, n_bins, stop_bin[:, j])
        decisions = np.where(open_, final_bright, stop_bright[:, j])
        conf = np.where(open_, final_conf, stop_conf[:, j])
        results.append(
            AdaptiveBatchResult(
                confidence_level=level,
                decisions=decisions,
                bins_consumed=bins_used.astype(np.int64),
                confidence=conf,
                converged=~open_,
            )
        )
    return results


def threshold_classify(traj: Trajectory, threshold: int, duration_us: float) -> StateLabel:
    """Bright iff the first duration_us of the record holds >= threshold counts."""
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    nb = duration_us / traj.bin_width_us
    if abs(nb - round(nb)) > 1e-9:
        raise ValueError("duration_us must be a whole number of bins")
    nb = int(round(nb))
    if nb < 1 or nb > traj.bins.size:
        raise ValueError("duration must cover between 1 bin and the whole record")
    total = int(traj.bins[:nb].sum())
    return BRIGHT if total >= threshold else DARK


def _wilson_interval(k: int, n: int, z: float = 1.0) -> tuple[float, float]:
    """Wilson score interval; z = 1 gives a 68% band."""
    if n == 0:
        return (0.0, 1.0)
    p = k / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class ErrorStats:
    """Classification error fractions with 68% Wilson intervals."""

    eps_bright: float
    eps_dark: float
    fidelity: float
    eps_bright_ci: tuple[float, float]
    eps_dark_ci: tuple[float, float]
    n_bright: int
    n_dark: int
    mean_duration_bright_us: float
    mean_duration_dark_us: float

    @property
    def mean_error(self) -> float:
        return 1.0 - self.fidelity

    @property
    def mean_duration_us(self) -> float:
        n = self.n_bright + self.n_dark
        return (
            self.n_bright * self.mean_duration_bright_us
            + self.n_dark * self.mean_duration_dark_us
        ) / n


def _stats_from_counts(
    k_b: int, n_b: int, k_d: int, n_d: int, dur_b: float, dur_d: float
) -> ErrorStats:
    """ErrorStats from k_b of n_b bright and k_d of n_d dark trials misclassified."""
    eps_b = k_b / n_b
    eps_d = k_d / n_d
    return ErrorStats(
        eps_bright=eps_b,
        eps_dark=eps_d,
        fidelity=1.0 - 0.5 * (eps_b + eps_d),
        eps_bright_ci=_wilson_interval(k_b, n_b),
        eps_dark_ci=_wilson_interval(k_d, n_d),
        n_bright=n_b,
        n_dark=n_d,
        mean_duration_bright_us=dur_b,
        mean_duration_dark_us=dur_d,
    )


def error_stats(
    truths: Sequence[StateLabel],
    decisions: Sequence[StateLabel],
    durations_us: Sequence[float] | None = None,
) -> ErrorStats:
    """Per-state error fractions; fidelity is 1 - (eps_b + eps_d)/2."""
    truths = np.asarray(truths)
    decisions = np.asarray(decisions)
    if truths.shape != decisions.shape or truths.ndim != 1:
        raise ValueError("truths and decisions must be equal-length 1-D sequences")
    if truths.size == 0:
        raise ValueError("empty inputs")
    is_bright = truths == BRIGHT
    n_b = int(is_bright.sum())
    n_d = int(truths.size - n_b)
    if n_b == 0 or n_d == 0:
        raise ValueError("need at least one trial of each state")
    wrong = truths != decisions
    k_b = int(np.count_nonzero(wrong & is_bright))
    k_d = int(np.count_nonzero(wrong & ~is_bright))
    if durations_us is None:
        dur_b = dur_d = float("nan")
    else:
        durations_us = np.asarray(durations_us, dtype=float)
        dur_b = float(durations_us[is_bright].mean())
        dur_d = float(durations_us[~is_bright].mean())
    return _stats_from_counts(k_b, n_b, k_d, n_d, dur_b, dur_d)


def optimize_threshold(
    trajs: Dataset | Sequence[Trajectory], duration_us: float
) -> tuple[int, ErrorStats]:
    """Exhaustively scan integer thresholds and return the fidelity maximizer.

    Ties are broken toward the smallest threshold.  Labels are the
    dataset's label column (each trajectory's ``prepared`` field).
    """
    ds = as_dataset(trajs)
    if not len(ds):
        raise ValueError("empty dataset")
    totals = ds.totals(duration_us)
    is_bright = ds.bright
    n_b = int(np.count_nonzero(is_bright))
    n_d = len(ds) - n_b
    if n_b == 0 or n_d == 0:
        raise ValueError("need both bright and dark trials to optimize a threshold")
    m = int(totals.max())
    hist_b = np.bincount(totals[is_bright], minlength=m + 1)
    hist_d = np.bincount(totals[~is_bright], minlength=m + 1)
    # eps_b(thr) = P(bright counts < thr), eps_d(thr) = P(dark counts >= thr)
    cum_b = np.concatenate([[0], np.cumsum(hist_b)])[: m + 1]
    cum_d_ge = n_d - np.concatenate([[0], np.cumsum(hist_d)])[: m + 1]
    fidelity = 1.0 - 0.5 * (cum_b / n_b + cum_d_ge / n_d)
    best = int(np.argmax(fidelity))  # first max = smallest threshold
    duration = float(duration_us)
    stats = _stats_from_counts(int(cum_b[best]), n_b, int(cum_d_ge[best]), n_d,
                               duration, duration)
    return best, stats


def threshold_error_vs_duration(
    trajs: Dataset | Sequence[Trajectory], durations_us: Sequence[float]
) -> list[tuple[float, int, ErrorStats]]:
    """Optimal-threshold error at each requested duration."""
    ds = as_dataset(trajs)
    return [(d, *optimize_threshold(ds, d)) for d in durations_us]


@dataclass(frozen=True)
class CalibratedRates:
    """Point estimates and one-sigma uncertainties, all in 1/ms."""

    gamma_b: float
    gamma_b_err: float
    gamma_d: float
    gamma_d_err: float
    gamma_dp: float
    gamma_dp_err: float
    gamma_rp: float
    gamma_rp_err: float

    def to_rate_params(self) -> RateParams:
        return RateParams(
            gamma_b=self.gamma_b,
            gamma_d=self.gamma_d,
            gamma_dp=max(self.gamma_dp, 0.0),
            gamma_rp=max(self.gamma_rp, 0.0),
        )


def _fit_poisson_peak(totals: np.ndarray) -> float:
    """Mean of the dominant Poisson peak of an integer sample.

    Least-squares fit of amplitude * pmf(n; mu) to the histogram over a
    window around the mode, so that pumping tails (trials that switched
    state mid-record) do not drag the estimate.
    """
    from scipy.optimize import OptimizeWarning, curve_fit
    from scipy.stats import poisson as _poisson

    m = int(totals.max())
    hist = np.bincount(totals, minlength=m + 1).astype(float)
    mode = int(np.argmax(hist))
    half = int(np.ceil(4 * np.sqrt(mode + 1)))
    lo, hi = max(0, mode - half), min(m, mode + half)
    ns = np.arange(lo, hi + 1)
    obs = hist[lo : hi + 1]

    def model(n, amp, mu):
        return amp * _poisson.pmf(n, mu)

    p0 = (float(totals.size), max(float(mode), 0.3))
    with warnings.catch_warnings():
        # only the point estimate is used; a singular covariance is fine
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, _ = curve_fit(model, ns, obs, p0=p0, maxfev=20000)
    return float(popt[1])


def _mean_rate_slope(
    mean_counts: np.ndarray, bin_width_us: float
) -> tuple[float, float, float]:
    """Linear fit of ensemble mean count rate (1/ms) vs time (ms).

    ``mean_counts`` is the mean count of each bin over the ensemble.
    Returns (intercept, slope, slope_err).  Per-bin variances are equal
    under the Poisson model, so an unweighted fit is the weighted one.
    """
    t0_ms = bin_width_us * _MS_PER_US
    t_ms = (np.arange(mean_counts.size) + 0.5) * t0_ms
    rate = mean_counts / t0_ms
    coef, cov = np.polyfit(t_ms, rate, 1, cov=True)
    return float(coef[1]), float(coef[0]), float(np.sqrt(cov[0, 0]))


def calibrate_rates(
    trajs: Dataset | Sequence[Trajectory],
    duration_fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    min_trials: int = 100,
) -> CalibratedRates:
    """Recover emitter rates from a labeled dataset.

    Count rates come from Poisson fits to the dominant histogram peak at
    several record durations; pumping rates come from the linear decay
    (growth) of the instantaneous ensemble mean rate of bright (dark)
    prepared trials over the full record.
    """
    ds = as_dataset(trajs)
    n_bright = int(np.count_nonzero(ds.bright))
    n_dark = len(ds) - n_bright
    if n_bright < min_trials or n_dark < min_trials:
        raise ValueError(
            f"calibration needs at least {min_trials} trials per state; "
            f"got {n_bright} bright / {n_dark} dark"
        )
    t0 = ds.bin_width_us
    n_bins = ds.n_bins

    def peak_rate(mask: np.ndarray) -> tuple[float, float]:
        estimates = []
        for frac in duration_fractions:
            nb = max(1, int(round(frac * n_bins)))
            mu = _fit_poisson_peak(ds.totals(nb * t0)[mask])
            estimates.append(mu / (nb * t0 * _MS_PER_US))
        est = np.asarray(estimates)
        err = est.std(ddof=1) / np.sqrt(est.size) if est.size > 1 else float("nan")
        return float(est.mean()), float(err)

    def mean_counts(mask: np.ndarray, n: int) -> np.ndarray:
        # integer sums are exact, so this equals counts[mask].mean(axis=0)
        return ds.counts.sum(axis=0, dtype=np.int64, where=mask[:, None]) / n

    dark = ~ds.bright
    gamma_b, gamma_b_err = peak_rate(ds.bright)
    gamma_d, gamma_d_err = peak_rate(dark)
    spread = gamma_b - gamma_d
    if spread <= 0:
        raise ValueError("bright rate did not exceed dark rate; cannot calibrate pumping")

    _, slope_b, slope_b_err = _mean_rate_slope(mean_counts(ds.bright, n_bright), t0)
    _, slope_d, slope_d_err = _mean_rate_slope(mean_counts(dark, n_dark), t0)
    return CalibratedRates(
        gamma_b=gamma_b,
        gamma_b_err=gamma_b_err,
        gamma_d=gamma_d,
        gamma_d_err=gamma_d_err,
        gamma_dp=-slope_b / spread,
        gamma_dp_err=slope_b_err / spread,
        gamma_rp=slope_d / spread,
        gamma_rp_err=slope_d_err / spread,
    )
