"""State classification and rate calibration for binned photon counts.

Two discriminators are provided.  The fixed-duration threshold method
sums counts over a window and compares against an integer threshold.
The adaptive method filters a two-state posterior bin by bin,
accounting for state transitions during the readout, and stops as soon
as the more likely state reaches a requested confidence level, so easy
trials finish early (Myerson et al., PRL 100, 200502 (2008)).

The filter carries one number per trial, the log posterior odds
r = log P(bright) / P(dark), starting from even odds.  Each bin first
propagates the odds through the per-bin flip probabilities p_dp (bright
to dark) and p_rp (dark to bright),

    r <- log(((1 - p_dp) e^r + p_rp) / (p_dp e^r + 1 - p_rp)),

then adds the bin's log-likelihood ratio n log(mu_b / mu_d) - (mu_b - mu_d)
for n counts and mean counts mu_b, mu_d, as in Wald's sequential test.
The posterior of the more likely state is sigma(|r|), so a level l is
reached when |r| >= log(l / (1 - l)).

Every record with no count yet holds the same odds, those of the
all-zero record, so the batch filter steps those odds once, as one extra
lane, and a record is stepped on its own only from its first count.
With no counts the odds settle at the fixed point r* of the zero-count
step, so no record without counts stops at a level at or above
sigma(|r*|); the filter warns of such a level.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .photon_sim import (
    Dataset,
    RateParams,
    Trajectory,
    _MS_PER_US,
    _counts_dtype,
    _flip_probs,
    as_dataset,
)


@dataclass
class AdaptiveBatchResult:
    """Vectorized adaptive classification at one confidence level."""

    confidence_level: float
    decisions: np.ndarray  # bool, True = bright
    bins_consumed: np.ndarray
    confidence: np.ndarray
    converged: np.ndarray


def _confidence(log_odds):
    """Posterior probability of the more likely state, sigma(|r|)."""
    return 1.0 / (1.0 + np.exp(-np.abs(log_odds)))


def _first_count_bins(prefix: np.ndarray) -> np.ndarray:
    """Each record's first bin with a count, or its length if it has none.

    A prefix row never decreases, so the bins before the first count are
    the bins where it is 0; they are counted by bisection, one probe of
    every row per halving of the record.
    """
    n_trials, n_bins = prefix.shape
    rows = np.arange(n_trials)
    first = np.zeros(n_trials, dtype=np.intp)
    step = 1 << (n_bins.bit_length() - 1)
    while step:
        ahead = first + step
        quiet = prefix[rows, np.minimum(ahead, n_bins) - 1] == 0
        first += step * ((ahead <= n_bins) & quiet)
        step >>= 1
    return first


def _zero_count_cap(p_dp: float, p_rp: float, c: float) -> float:
    """The posterior sigma(|r*|) that the odds of a record with no counts approach.

    r* is the fixed point of the zero-count step: x = e^{r*} is the root
    x >= 0 of p_dp x^2 + (1 - p_rp - e^{-c} (1 - p_dp)) x - e^{-c} p_rp = 0.
    While p_dp + p_rp < 1 the step is increasing in r, so the odds move
    from 0 toward r* without passing it and no level at or above the cap
    is reached; otherwise they may overshoot, and 1 is returned.  The cap
    is also 1 where the odds grow without bound (x = 0 or infinite).
    """
    if p_dp + p_rp >= 1:
        return 1.0
    e = np.exp(-c)
    a, b, q = p_dp, 1.0 - p_rp - e * (1.0 - p_dp), e * p_rp
    with np.errstate(over="ignore"):  # a root past the float range is no cap
        disc = np.sqrt(b * b + 4.0 * a * q)
        if b > 0:
            x = 2.0 * q / (b + disc)  # the positive root, with no cancellation
        elif a > 0:
            x = (disc - b) / (2.0 * a)
        elif q > 0:
            x = np.inf  # only the dark-to-bright flip acts: the odds grow without bound
        else:
            x = 1.0  # equal rates and no pumping: the odds stay even
    return float(max(x, 1.0) / (1.0 + x)) if np.isfinite(x) else 1.0


def adaptive_classify_batch(
    trajs: Dataset | Sequence[Trajectory],
    rates: RateParams,
    bin_width_us: float,
    confidence_levels: Sequence[float],
) -> list[AdaptiveBatchResult]:
    """Classify every record at several stopping levels in one pass.

    Each record starts from even odds and is filtered bin by bin (see the
    module docstring); at a level it stops at the first bin where the
    posterior of the more likely state reaches the level, and the state
    decides.  A record that never gets there is decided by its final
    posterior and reported with ``converged`` False.  A record that has
    reached the highest level has stopped at every lower one, so only
    records still open at the highest level are stepped.  Records that
    have had no count yet all hold the odds of the all-zero record, so
    one lane steps those odds for all of them: a record joins the stepped
    records at its first count, with the lane's odds and stopped levels;
    a record still waiting when the lane passes a level stops there with
    the lane, and one still waiting at the end of the record takes the
    lane's final odds.  The results are those of stepping every record.
    The odds of a record with no counts approach a cap below 1 (see
    :func:`_zero_count_cap`); levels at or above it draw a warning,
    since no such record stops there.  The records come as a Dataset or
    as a list of :class:`Trajectory` records, the form the benchmark's
    per-trial check passes.
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
    n_trials, n_bins = len(ds), ds.n_bins
    if n_bins == 0:
        raise ValueError("records have no bins to classify")
    if not np.isclose(bin_width_us, ds.bin_width_us, rtol=1e-9, atol=0.0):
        raise ValueError(
            f"bin_width_us ({bin_width_us}) does not match the records' bin width "
            f"({ds.bin_width_us})"
        )
    p_dp, p_rp = _flip_probs(rates, bin_width_us)
    flips = p_dp > 0 or p_rp > 0

    # a bin of k counts has log-likelihood ratio k * a - c: +inf for a count
    # only the bright state can give, nan for one neither can; a is a
    # difference of logs, since mu_b / mu_d overflows for a tiny mu_d
    mu_b = rates.gamma_b * bin_width_us * _MS_PER_US
    mu_d = rates.gamma_d * bin_width_us * _MS_PER_US
    with np.errstate(divide="ignore", invalid="ignore"):
        a, c = np.log(mu_b) - np.log(mu_d), mu_b - mu_d
    cap = _zero_count_cap(p_dp, p_rp, c)
    capped = [l for l in levels if l >= cap]
    if capped:
        warnings.warn(
            f"confidence level(s) {', '.join(f'{l:g}' for l in capped)} at or above "
            f"{cap:.6f}, the posterior a record with no counts approaches at these rates: "
            "no such record stops there", stacklevel=2)

    # A trial's stopped levels are always the lowest ones, so per trial
    # one count of stopped levels (in ascending order) tracks them all.
    # The reported confidence decides a stop, so it is >= the level; the
    # cheap first test |r| >= low[k] sits a little below the level's logit.
    order = np.argsort(levels, kind="stable")
    sorted_levels = np.asarray(levels)[order]
    q = sorted_levels - 16 * np.spacing(sorted_levels)
    low = np.log(q) - np.log1p(-q)
    low -= 1e-12 * (1.0 + np.abs(low))

    # bin, decision and confidence of each trial's stop, per sorted level;
    # every entry is written, at the stop or after the loop for open trials
    stop_bin = np.empty((len(levels), n_trials), dtype=_counts_dtype(n_bins))
    stop_bright = np.empty((len(levels), n_trials), dtype=bool)
    stop_conf = np.empty((len(levels), n_trials))

    # join_order[join_at[i]:join_at[i + 1]] are the trials whose first count
    # is in bin i; join_order[join_at[i + 1]:] have no count up to bin i
    first = _first_count_bins(ds.prefix)
    join_order = np.argsort(first, kind="stable")
    join_at = np.searchsorted(first[join_order], np.arange(n_bins + 1))

    # stepped trials, open at the highest level; while ``lane`` holds,
    # position 0 is the lane, whose trial entry is a placeholder
    active = np.zeros(1, dtype=np.intp)
    n_stopped = np.zeros(1, dtype=np.intp)
    r = np.zeros(1)  # log posterior odds, bright over dark
    before = np.zeros(1, dtype=ds.prefix.dtype)  # counts before bin i
    lane = True
    for i in range(n_bins):
        if lane:  # trials join at their first count; the lane goes once none waits
            joining = join_order[join_at[i]:join_at[i + 1]]
            lane = bool(join_at[i + 1] < n_trials)
            if joining.size or not lane:
                kept, nj = slice(0 if lane else 1, None), joining.size
                active = np.concatenate([active[kept], joining])
                n_stopped = np.concatenate([n_stopped[kept], np.full(nj, n_stopped[0])])
                r = np.concatenate([r[kept], np.full(nj, r[0])])
                before = np.concatenate([before[kept], np.zeros(nj, before.dtype)])
                if not active.size:
                    break
        if flips:  # propagate the odds through one bin of state flips
            x = np.exp(r)
            r = np.log(((1.0 - p_dp) * x + p_rp) / (p_dp * x + (1.0 - p_rp)))
        through = ds.prefix[active, i]
        k = through - before
        if lane:
            k[0] = 0
        with np.errstate(invalid="ignore"):  # 0 * inf, discarded by the where
            r += np.where(k > 0, k * a, 0.0) - c
        before = through
        mag = np.abs(r)
        new = np.flatnonzero(mag >= low[n_stopped])  # nan stops nothing
        if not new.size:
            continue
        conf = _confidence(mag[new])
        hi = np.searchsorted(sorted_levels, conf, side="right")
        lo = n_stopped[new]
        moved = hi > lo
        if not moved.any():
            continue
        new, conf, lo, hi = new[moved], conf[moved], lo[moved], hi[moved]
        n_stopped[new] = hi
        if lane and new[0] == 0:  # so does every trial with no count yet
            waiting = join_order[join_at[i + 1]:]
            stop_bin[lo[0]:hi[0], waiting] = i + 1
            stop_bright[lo[0]:hi[0], waiting] = r[0] >= 0
            stop_conf[lo[0]:hi[0], waiting] = conf[0]
            new, conf, lo, hi = new[1:], conf[1:], lo[1:], hi[1:]
        # one entry per (trial, level passed in this bin): trial e passes lo[e] .. hi[e] - 1
        passed = hi - lo
        e = np.repeat(np.arange(new.size), passed)
        k = np.arange(e.size) - (np.cumsum(passed) - passed - lo)[e]
        rows = active[new][e]
        stop_bin[k, rows] = i + 1
        stop_bright[k, rows] = (r[new] >= 0)[e]
        stop_conf[k, rows] = conf[e]
        still_open = n_stopped < len(levels)
        lane = lane and bool(still_open[0])
        active, n_stopped, r = active[still_open], n_stopped[still_open], r[still_open]
        before = before[still_open]
        if not active.size:
            break

    if lane:  # trials with no count at all hold the lane's final odds
        waiting = join_order[join_at[n_bins]:]
        active = np.concatenate([waiting, active[1:]])
        n_stopped = np.concatenate([np.full(waiting.size, n_stopped[0]), n_stopped[1:]])
        r = np.concatenate([np.full(waiting.size, r[0]), r[1:]])
    # trials open at a level keep the whole record and their final posterior;
    # they are the trials still active that stopped at fewer levels
    final_bright, final_conf = r >= 0, _confidence(r)
    results = [None] * len(levels)
    for k, j in enumerate(order):
        open_ = n_stopped <= k
        rows = active[open_]
        stop_bin[k, rows] = n_bins
        stop_bright[k, rows] = final_bright[open_]
        stop_conf[k, rows] = final_conf[open_]
        converged = np.ones(n_trials, dtype=bool)
        converged[rows] = False
        results[j] = AdaptiveBatchResult(
            confidence_level=levels[j],
            decisions=stop_bright[k],
            bins_consumed=stop_bin[k],
            confidence=stop_conf[k],
            converged=converged,
        )
    return results


@dataclass(frozen=True)
class ErrorStats:
    """Classification error fractions and mean readout durations."""

    eps_bright: float
    eps_dark: float
    fidelity: float
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
        n_bright=n_b,
        n_dark=n_d,
        mean_duration_bright_us=dur_b,
        mean_duration_dark_us=dur_d,
    )


def error_stats(
    bright: np.ndarray,
    decided_bright: np.ndarray,
    durations_us: Sequence[float],
) -> ErrorStats:
    """Per-state error fractions; fidelity is 1 - (eps_b + eps_d)/2.

    ``bright`` and ``decided_bright`` are boolean arrays, True meaning
    bright: the prepared and the decided state of each trial, which
    lasted ``durations_us``.
    """
    bright = np.asarray(bright)
    decided_bright = np.asarray(decided_bright)
    if bright.shape != decided_bright.shape or bright.ndim != 1:
        raise ValueError("bright and decided_bright must be equal-length 1-D arrays")
    if bright.size == 0:
        raise ValueError("empty inputs")
    if bright.dtype != bool or decided_bright.dtype != bool:
        raise ValueError("states must be boolean arrays (True = bright), got "
                         f"{bright.dtype} and {decided_bright.dtype}")
    n_b = int(np.count_nonzero(bright))
    n_d = int(bright.size - n_b)
    if n_b == 0 or n_d == 0:
        raise ValueError("need at least one trial of each state")
    k_b = int(np.count_nonzero(bright & ~decided_bright))
    k_d = int(np.count_nonzero(~bright & decided_bright))
    durations_us = np.asarray(durations_us, dtype=float)
    return _stats_from_counts(k_b, n_b, k_d, n_d, float(durations_us[bright].mean()),
                              float(durations_us[~bright].mean()))


def optimize_threshold(ds: Dataset, duration_us: float) -> tuple[int, ErrorStats]:
    """Exhaustively scan integer thresholds and return the fidelity maximizer.

    Ties are broken toward the smallest threshold.  Labels are the
    dataset's label column.
    """
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


def _golden_min(f, lo: float, hi: float, xatol: float) -> tuple[float, float]:
    """Minimum of f on (lo, hi) by golden-section search (Kiefer 1953).

    Shrinks the bracket by 1/phi per evaluation of f, never at lo or hi,
    until it is at most xatol wide.  Returns (x, f(x)) at the lowest point.
    """
    step = (5**0.5 - 1) / 2
    c, d = hi - step * (hi - lo), lo + step * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - step * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + step * (hi - lo)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _fit_poisson_peak(totals: np.ndarray) -> float:
    """Mean of the dominant Poisson peak of an integer sample.

    Least-squares fit of amplitude * pmf(n; mu) to the histogram over a
    window around the mode, so that pumping tails (trials that switched
    state mid-record) do not drag the estimate.  The amplitude is linear, so
    golden-section search over mu minimises the residual at the best amplitude.
    """
    m = int(totals.max())
    if m == 0:  # the exact mean; one histogram point cannot fit two parameters
        return 0.0
    hist = np.bincount(totals, minlength=m + 1).astype(float)
    mode = int(np.argmax(hist))
    half = int(np.ceil(4 * np.sqrt(mode + 1)))
    lo, hi = max(0, mode - half), min(m, mode + half)
    ns = np.arange(lo, hi + 1)
    obs = hist[lo : hi + 1]
    # log(n! / lo!); constant factors of the pmf cancel in the residual
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(ns[1:]))])

    def sse(mu: float) -> float:
        log_pmf = ns * np.log(mu) - log_fact
        pmf = np.exp(log_pmf - log_pmf.max())
        # summed from the residuals: obs.obs - (obs.pmf)^2 / pmf.pmf loses digits near the minimum
        res = obs - (obs @ pmf) / (pmf @ pmf) * pmf
        return res @ res

    return _golden_min(sse, lo, hi, 1e-9)[0]


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


# record fractions at which the count rates are fitted
_DURATION_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
MIN_CALIBRATION_TRIALS = 100
MIN_CALIBRATION_BINS = 3  # the pumping slope's error needs more bins than the line's 2 parameters
_SUM_BLOCK_BYTES = 1 << 20  # prefix rows summed at a time by calibrate_rates


def calibrate_rates(ds: Dataset) -> CalibratedRates:
    """Recover emitter rates from a labeled dataset.

    Count rates come from Poisson fits to the dominant histogram peak at
    several record durations; pumping rates come from the linear decay
    (growth) of the instantaneous ensemble mean rate of bright (dark)
    prepared trials over the full record.
    """
    n_bright = int(np.count_nonzero(ds.bright))
    n_dark = len(ds) - n_bright
    if n_bright < MIN_CALIBRATION_TRIALS or n_dark < MIN_CALIBRATION_TRIALS:
        raise ValueError(
            f"calibration needs at least {MIN_CALIBRATION_TRIALS} trials per state; "
            f"got {n_bright} bright / {n_dark} dark"
        )
    if ds.n_bins < MIN_CALIBRATION_BINS:
        raise ValueError(f"calibration needs records of at least {MIN_CALIBRATION_BINS} bins; "
                         f"got {ds.n_bins}")
    t0 = ds.bin_width_us
    n_bins = ds.n_bins
    rows_per_block = max(1, _SUM_BLOCK_BYTES // (n_bins * ds.prefix.itemsize))

    def peak_rate(mask: np.ndarray) -> tuple[float, float]:
        estimates = []
        for frac in _DURATION_FRACTIONS:
            nb = max(1, int(round(frac * n_bins)))
            mu = _fit_poisson_peak(ds.totals(nb * t0)[mask])
            estimates.append(mu / (nb * t0 * _MS_PER_US))
        est = np.asarray(estimates)
        err = est.std(ddof=1) / np.sqrt(est.size) if est.size > 1 else float("nan")
        return float(est.mean()), float(err)

    def mean_counts(mask: np.ndarray, n: int) -> np.ndarray:
        # integer sums are exact, so the differences of the prefix column sums
        # equal counts[mask].sum(axis=0), and this counts[mask].mean(axis=0);
        # the masked rows are copied a block at a time, not all at once
        through = np.zeros(n_bins, dtype=np.int64)
        for lo in range(0, len(ds), rows_per_block):
            block = slice(lo, lo + rows_per_block)
            through += ds.prefix[block][mask[block]].sum(axis=0, dtype=np.int64)
        return np.diff(through, prepend=0) / n

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
