"""State classification and rate calibration for binned photon counts.

Two discriminators are provided.  The fixed-duration threshold method
sums counts over a window and compares against an integer threshold.
The adaptive method filters a two-state posterior bin by bin,
accounting for state transitions during the readout, and stops as soon
as the more likely state reaches a requested confidence level, so easy
trials finish early (Myerson et al., PRL 100, 200502 (2008)).  The
per-bin filter, the log posterior odds r stepped through the flips and
the counts, is :mod:`ionreadout.chain`'s; a level l is reached when
|r| >= log(l / (1 - l)).

Every record with no count yet holds the same odds, those of the
all-zero record, so the batch filter steps that record once, as one
extra record, the lane, in place of all of them; a record is stepped on
its own from the start of the block that holds its first count, with
the lane's odds, which are its own, bit for bit, until that count, and
with the lane's stops so far.  A record with no count at all takes the
lane's results.  The batch filter steps a block of bins at a time and
checks for stops once per block: the running maximum of each record's
posterior along the block gives the levels it has passed and the first
bin that passed each.  No record without counts stops at a level at or
above the chain's zero-count cap; the filter warns of such a level.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .chain import _MS_PER_US, _count_llr, _flip_probs, _forward, _zero_count_cap
from .photon_sim import Dataset, RateParams, Trajectory, _counts_dtype, as_dataset


# The batch filter steps its records a block of bins at a time and checks
# for stops once per block, which saves numpy calls when few records are
# open.  A block spans at most _STEP_BINS bins and _STEP_CELLS (bin, record)
# cells: with many records open the calls cost little beside the arithmetic,
# and larger tables would raise the peak memory of the filter.
_STEP_BINS = 32
_STEP_CELLS = 1 << 14


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
    records still open at the highest level are stepped.  The all-zero
    record, the lane, is stepped as one more record, with results in an
    extra column of the tables: a record with no count yet waits on the
    lane and joins the stepped records at the start of the block that holds
    its first count, with the lane's odds and its stops at the levels the
    lane has passed; a record still waiting when the loop ends takes the
    lane's column.  The results are those of stepping every record bin by
    bin with :func:`ionreadout.chain._forward`.  Levels at or above the
    chain's zero-count cap draw a warning: no record without counts stops
    there.
    The records come as a Dataset or as a list of :class:`Trajectory`
    records, the form the benchmark's per-trial check passes.
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
    a, c = _count_llr(rates, bin_width_us)
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

    # bin, decision and confidence of each record's stop, and whether it
    # stopped, per sorted level; column n_trials is the all-zero record's, the
    # lane's.  Every entry is written: at the stop, after the loop for records
    # open at a level, and from the lane's column for records that join or wait.
    width = n_trials + 1
    stop_bin = np.empty((len(levels), width), dtype=_counts_dtype(n_bins))
    stop_bright = np.empty((len(levels), width), dtype=bool)
    stop_conf = np.empty((len(levels), width))
    converged = np.ones((len(levels), width), dtype=bool)
    tables = (stop_bright, stop_bin, stop_conf, converged)  # AdaptiveBatchResult's order

    # records with no count yet; stepped records, open at the highest level at
    # the start of a block, with the lane at position 0 while it is open
    waiting = np.arange(n_trials)
    active = np.full(1, n_trials)
    n_stopped = np.zeros(1, dtype=np.intp)
    r = np.zeros(1)  # log posterior odds, bright over dark
    before = np.zeros(1, dtype=ds.prefix.dtype)  # counts before the block
    i = 0
    while i < n_bins:
        # the block's bins: fewer than _STEP_BINS when many records are stepped
        # or wait on the open lane
        lane = active[0] == n_trials
        most = active.size + (waiting.size if lane else 0)
        end = min(i + max(1, min(_STEP_BINS, _STEP_CELLS // most)), n_bins)
        if lane and waiting.size:  # records with a count in this block join at its start
            counted = ds.prefix[waiting, end - 1] > 0
            joining, waiting = waiting[counted], waiting[~counted]
            if joining.size:  # with the lane's odds and its stops so far
                passed, nj = n_stopped[0], joining.size
                if passed:  # converged starts True and stays so at a stop
                    for table in tables[:3]:
                        table[:passed, joining] = table[:passed, -1:]
                active = np.concatenate([active, joining])
                n_stopped = np.concatenate([n_stopped, np.full(nj, passed)])
                r = np.concatenate([r, np.full(nj, r[0])])
                before = np.concatenate([before, np.zeros(nj, before.dtype)])
        # the lane's index wraps round to record 0, whose counts it then drops
        through = np.take(ds.prefix.T[i:end], active, axis=1, mode="wrap")
        k = np.diff(through, axis=0, prepend=before[None])
        if lane:
            k[:, 0] = 0
        # odds[j] is the odds after bin i + j.  A trial that has passed every
        # level in the block may overflow; its later odds are discarded.
        odds = _forward(r, k, p_dp, p_rp, a, c)
        # the highest posterior so far in the block, counted only where it
        # may reach a level not yet passed; nan passes the cheap test nowhere
        mag = np.abs(odds)
        near = mag >= low[n_stopped]
        top = np.zeros(odds.shape)
        top[near] = _confidence(mag[near])
        for j in range(1, end - i):
            np.maximum(top[j], top[j - 1], out=top[j])
        # one entry per (trial, level passed in the block): trial e passes
        # n_stopped[e] .. reached - 1, each in the first bin whose posterior
        # reaches it, where ``top`` is that posterior
        moved = np.flatnonzero(top[-1] >= sorted_levels[n_stopped])
        reached = np.searchsorted(sorted_levels, top[-1, moved], side="right")
        count = reached - n_stopped[moved]
        e = np.repeat(moved, count)
        level = np.arange(e.size) - np.repeat(np.cumsum(count) - reached, count)
        at = np.add.reduce(np.take(top, e, axis=1) < sorted_levels[level], axis=0, dtype=np.intp)
        cell = level * width + active[e]
        stop_bin.ravel()[cell] = i + 1 + at
        stop_bright.ravel()[cell] = odds[at, e] >= 0
        stop_conf.ravel()[cell] = top[at, e]

        n_stopped[moved] = reached
        r, before = odds[-1], through[-1]
        still_open = n_stopped < len(levels)
        active, n_stopped, r = active[still_open], n_stopped[still_open], r[still_open]
        before = before[still_open]
        if not active.size:
            break
        i = end

    # records open at a level keep the whole record and their final posterior;
    # they are the records still active that stopped at fewer levels.  Records
    # still waiting hold the lane's column: its stops, or its final posterior.
    open_ = np.arange(len(levels))[:, None] >= n_stopped
    for table, final in zip(tables, (r >= 0, n_bins, _confidence(r), False)):
        table[:, active] = np.where(open_, final, table[:, active])
    for table in tables:
        table[:, waiting] = table[:, -1:]
    rows = np.argsort(order)  # each level's row of the tables
    return [AdaptiveBatchResult(l, *(t[k, :n_trials] for t in tables))
            for l, k in zip(levels, rows)]


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
    durations_us = np.asarray(durations_us, dtype=float)
    valid = np.isfinite(durations_us) & (durations_us >= 0)
    if durations_us.shape != bright.shape or not valid.all():
        raise ValueError("durations_us must hold one finite, non-negative duration per trial")
    k_b = int(np.count_nonzero(bright & ~decided_bright))
    k_d = int(np.count_nonzero(~bright & decided_bright))
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


def _mean_rate_slope(mean_counts: np.ndarray, bin_width_us: float) -> tuple[float, float]:
    """Slope of a linear fit of ensemble mean count rate (1/ms) vs time (ms).

    ``mean_counts`` is the mean count of each bin over the ensemble.
    Returns (slope, slope_err).  Per-bin variances are equal under the
    Poisson model, so an unweighted fit is the weighted one.
    """
    t0_ms = bin_width_us * _MS_PER_US
    t_ms = (np.arange(mean_counts.size) + 0.5) * t0_ms
    rate = mean_counts / t0_ms
    coef, cov = np.polyfit(t_ms, rate, 1, cov=True)
    return float(coef[0]), float(np.sqrt(cov[0, 0]))


# record fractions at which the count rates are fitted; their spread is the error
_DURATION_FRACTIONS = (0.25, 0.5, 0.75, 1.0)
MIN_CALIBRATION_TRIALS = 100
MIN_CALIBRATION_BINS = 3  # the pumping slope's error needs more bins than the line's 2 parameters


def _prefix_column_sums(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Each prefix column summed over every record and over the bright ones.

    The sums are taken in int32 where no sum can pass it, else in int64,
    and the bright records are masked in place, not copied.
    """
    prefix = ds.prefix
    top = int(prefix[:, -1].max(initial=0))  # a prefix row never decreases
    acc = np.int32 if len(ds) * top <= np.iinfo(np.int32).max else np.int64
    bright = prefix.sum(axis=0, dtype=acc, where=ds.bright[:, None])
    return prefix.sum(axis=0, dtype=acc), bright


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

    def peak_rate(mask: np.ndarray) -> tuple[float, float]:
        estimates = []
        for frac in _DURATION_FRACTIONS:
            nb = max(1, int(round(frac * n_bins)))
            mu = _fit_poisson_peak(ds.totals(nb * t0)[mask])
            estimates.append(mu / (nb * t0 * _MS_PER_US))
        est = np.asarray(estimates)
        return float(est.mean()), float(est.std(ddof=1) / np.sqrt(est.size))

    dark = ~ds.bright
    gamma_b, gamma_b_err = peak_rate(ds.bright)
    gamma_d, gamma_d_err = peak_rate(dark)
    spread = gamma_b - gamma_d
    if spread <= 0:
        raise ValueError("bright rate did not exceed dark rate; cannot calibrate pumping")

    every, bright = _prefix_column_sums(ds)
    # integer sums are exact, so the differences of the prefix column sums
    # are counts[mask].sum(axis=0), and these counts[mask].mean(axis=0)
    slope_b, slope_b_err = _mean_rate_slope(np.diff(bright, prepend=0) / n_bright, t0)
    slope_d, slope_d_err = _mean_rate_slope(np.diff(every - bright, prepend=0) / n_dark, t0)
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
