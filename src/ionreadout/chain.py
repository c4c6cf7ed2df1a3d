"""The two-state chain of the readout, one bin at a time.

In a bin of width t0 the emitter gives Poisson counts of mean
mu_b = gamma_b t0 (bright) or mu_d = gamma_d t0 (dark), and flips bright
to dark with probability p_dp = 1 - exp(-gamma_dp t0) and dark to bright
with p_rp = 1 - exp(-gamma_rp t0), the one pumping rule of the simulator
and the filter (gamma t0 < 1).  The filter carries each record's log
posterior odds r = log P(bright) / P(dark), from even odds.  Each bin
first propagates them through the flips,

    r <- log(((1 - p_dp) e^r + p_rp) / (p_dp e^r + 1 - p_rp)),

then adds the bin's log-likelihood ratio k a - c for k counts, with
a = log(mu_b / mu_d) and c = mu_b - mu_d, as in Wald's sequential test.
The posterior of the more likely state is sigma(|r|); with no counts it
settles below a cap, at the fixed point r* of the zero-count step.
"""
from __future__ import annotations

import numpy as np

_MS_PER_US = 1e-3


def _flip_probs(rates, bin_width_us: float) -> tuple[float, float]:
    """Per-bin flip probabilities (p_dp, p_rp) of ``rates`` (with gamma_dp
    and gamma_rp in 1/ms); gamma * t0 must stay below 1."""
    probs = []
    for name in ("gamma_dp", "gamma_rp"):
        flips = getattr(rates, name) * bin_width_us * _MS_PER_US
        if flips >= 1:
            raise ValueError(f"{name} times the bin width is {flips:g} expected flips per "
                             "bin; binned records need fewer than 1")
        probs.append(float(-np.expm1(-flips)))
    return tuple(probs)


def _count_llr(rates, bin_width_us: float) -> tuple[float, float]:
    """(a, c) of a bin's log-likelihood ratio k a - c at ``rates`` (in 1/ms).
    k a is +inf for a count only the bright state can give and nan for one
    neither can; a is a difference of logs, as mu_b / mu_d overflows for a tiny mu_d."""
    mu_b = rates.gamma_b * bin_width_us * _MS_PER_US
    mu_d = rates.gamma_d * bin_width_us * _MS_PER_US
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(mu_b) - np.log(mu_d), mu_b - mu_d


def _forward(r: np.ndarray, k: np.ndarray, p_dp: float, p_rp: float, a: float,
             c: float) -> np.ndarray:
    """The odds after each bin of a block, bins x records: flips, then counts.

    ``r`` holds the records' odds before the block and ``k`` their counts,
    bins x records.  Odds past the float range overflow quietly.
    """
    flips = p_dp > 0 or p_rp > 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        odds = np.where(k > 0, k * a, 0.0) - c  # 0 * inf, discarded by the where
        for j in range(len(k)):
            prior = r if j == 0 else odds[j - 1]
            if flips:
                x = np.exp(prior)
                prior = np.log(((1.0 - p_dp) * x + p_rp) / (p_dp * x + (1.0 - p_rp)))
            odds[j] += prior
    return odds


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
