"""Second-order intensity correlation analysis of time-tagged photon streams.

Works on integer-nanosecond time tags from two detection channels.  The
normalized coincidence histogram g2(tau) is estimated from all pairwise
delays t_b - t_a that fall inside a +/- max_delay window.  Channel A is
walked in blocks of tags: one binary search per tag finds the first
channel-B tag of its window, and each further step moves every open
window on by one B tag, so the cost is one search per tag plus one step
per qualifying pair rather than quadratic in the number of tags.  The
working memory is one block's A tags and the B tags their windows reach,
however many pairs the block holds.

Channel A is split into one contiguous part per CPU the process may
use, and the parts are walked on that many threads into one integer
histogram each, which are then summed; integer sums are exact, so the
estimate does not depend on the number of CPUs.  numpy releases the GIL
in the searches and ufunc loops the walk spends its time in.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeTagStream:
    """One channel of detection time tags.

    :param channel: channel label, e.g. ``"A"``.
    :param t_ns: integer nanosecond timestamps, sorted ascending.
    :param duration_ns: total observation time; tags must lie in [0, duration_ns).
    """

    channel: str
    t_ns: np.ndarray
    duration_ns: int

    def __post_init__(self) -> None:
        tags = np.asarray(self.t_ns, dtype=np.int64)
        object.__setattr__(self, "t_ns", tags)
        if self.duration_ns <= 0:
            raise ValueError("duration_ns must be positive")
        if tags.ndim != 1:
            raise ValueError("t_ns must be one-dimensional")
        if tags.size and np.any(tags[1:] < tags[:-1]):
            raise ValueError(f"channel {self.channel!r}: tags must be sorted ascending")
        if tags.size and (tags[0] < 0 or tags[-1] >= self.duration_ns):
            raise ValueError(
                f"channel {self.channel!r}: tags must lie within [0, duration_ns)"
            )


@dataclass(frozen=True)
class G2Estimate:
    """Normalized delay histogram with Poisson counting errors.

    ``masked`` marks bins inside a user-supplied exclusion window (for
    instance delays corrupted by electrical crosstalk); their values are
    still reported but flagged so downstream searches can skip them.
    """

    delay_ns: np.ndarray
    g2: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    masked: np.ndarray
    n_pairs: np.ndarray
    bin_width_ns: float


@dataclass(frozen=True)
class DipResult:
    delay_ns: float
    g2_min: float


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _map_on_cpus(fn, items) -> list:
    """[fn(item) for item in items], on one thread per CPU the process may use."""
    with ThreadPoolExecutor(max_workers=_cpu_count()) as pool:
        return list(pool.map(fn, items))


def _pair_delays(a: np.ndarray, b: np.ndarray, max_delay: int, block: int = 1 << 15):
    """Yield arrays of delays t_b - t_a with |delay| <= max_delay.

    Both inputs must be sorted.  Channel A is taken ``block`` tags at a
    time, and B is cut to the tags the block's windows can reach and
    closed by a sentinel past the last window.  One binary search gives
    each A tag the index of the first B tag at or after t_a - max_delay;
    each step then yields the delay at that index for every window still
    open and moves the index on by one, dropping the windows whose delay
    has passed max_delay.  A block takes one step per B tag in its
    fullest window, and the working memory is a few arrays of at most
    ``block`` elements plus the cut of B.
    """
    for start in range(0, a.size, block):
        a_blk = a[start : start + block]
        end = a_blk[-1] + max_delay + 1  # past every window of the block
        lo, hi = np.searchsorted(b, (a_blk[0] - max_delay, end))
        b_blk = np.append(b[lo:hi], end)
        j = np.searchsorted(b_blk, a_blk - max_delay)
        while True:
            delays = b_blk[j] - a_blk
            open_ = np.flatnonzero(delays <= max_delay)
            if open_.size < delays.size:
                if open_.size == 0:
                    break
                a_blk, j, delays = a_blk[open_], j[open_], delays[open_]
            yield delays  # the caller may overwrite it
            j += 1


def g2_estimate(
    stream_a: TimeTagStream,
    stream_b: TimeTagStream,
    bin_width_ns: int = 1,
    max_delay_ns: int = 500,
    exclude_ns: tuple[float, float] | None = None,
) -> G2Estimate:
    """Estimate g2(tau) from two tag streams.

    Delays are histogrammed into bins of ``bin_width_ns`` centered on
    integer multiples of the bin width, covering +/- max_delay_ns.  Each
    bin is normalized by rate_a * rate_b * T * bin_width, the expected
    pair count for independent Poisson streams, so an uncorrelated pair
    of channels gives g2 = 1.  Counting errors are Poisson: the 68%
    interval half-width is sqrt(max(N, 1)) in pair counts.
    """
    if not float(bin_width_ns).is_integer():
        raise ValueError(f"bin_width_ns must be a whole number of ns, got {bin_width_ns}")
    if bin_width_ns < 1:
        raise ValueError("bin_width_ns must be >= 1 ns")
    w = int(bin_width_ns)
    if not np.isfinite(max_delay_ns):
        raise ValueError(f"max_delay_ns must be finite, got {max_delay_ns}")
    if max_delay_ns < bin_width_ns:
        raise ValueError("max_delay_ns must be at least one bin width")
    for stream in (stream_a, stream_b):
        if stream.t_ns.size == 0:
            raise ValueError(f"empty tag stream: channel {stream.channel!r} has no tags "
                             f"in its {stream.duration_ns} ns window")
    if stream_a.duration_ns != stream_b.duration_ns:
        raise ValueError("streams must share one observation window")
    if exclude_ns is not None:
        if not np.all(np.isfinite(exclude_ns)):
            raise ValueError(f"exclusion window bounds must be finite, got {exclude_ns}")
        if exclude_ns[0] > exclude_ns[1]:
            raise ValueError("exclusion window must satisfy lo <= hi")

    n_side = int(max_delay_ns // w)
    centers = np.arange(-n_side, n_side + 1, dtype=np.int64) * w

    # Bin i covers [(i - n_side - 1/2) w, (i - n_side + 1/2) w), and the last
    # bin also takes its upper edge, so integer delays with |d| <= m = n_side w
    # + w // 2 are counted and d falls in bin (d + m) // w, clipped to the last
    # bin 2 n_side (only an even w reaches 2 n_side + 1, at d = m).  At w = 1
    # the shifted delay d + m is the bin itself.
    m = n_side * w + w // 2

    def histogram(a_part: np.ndarray) -> np.ndarray:
        hist = np.zeros(centers.size, dtype=np.int64)
        for delays in _pair_delays(a_part, stream_b.t_ns, m):
            delays += m
            if w > 1:
                delays //= w
                np.minimum(delays, 2 * n_side, out=delays)
            hist += np.bincount(delays, minlength=centers.size)
        return hist

    hist = sum(_map_on_cpus(histogram, np.array_split(stream_a.t_ns, _cpu_count())))

    duration = stream_a.duration_ns
    expected = stream_a.t_ns.size * stream_b.t_ns.size * w / duration
    g2 = hist / expected
    sigma = np.sqrt(np.maximum(hist, 1)) / expected
    if exclude_ns is None:
        masked = np.zeros(centers.size, dtype=bool)
    else:
        masked = (centers >= exclude_ns[0]) & (centers <= exclude_ns[1])
    return G2Estimate(
        delay_ns=centers.astype(float),
        g2=g2,
        ci_low=g2 - sigma,
        ci_high=g2 + sigma,
        masked=masked,
        n_pairs=hist,
        bin_width_ns=float(w),
    )


def find_dip(estimate: G2Estimate) -> DipResult:
    """Locate the minimum unmasked g2 bin.

    Ties are broken toward the smallest |delay| (and toward the negative
    delay if both signs tie).  Raises if every bin is masked.
    """
    keep = ~estimate.masked
    if not np.any(keep):
        raise ValueError("all delay bins are masked; cannot locate a dip")
    g2 = estimate.g2[keep]
    delays = estimate.delay_ns[keep]
    g2_min = g2.min()
    at_min = np.flatnonzero(g2 == g2_min)
    order = np.lexsort((delays[at_min], np.abs(delays[at_min])))
    pick = at_min[order[0]]
    return DipResult(delay_ns=float(delays[pick]), g2_min=float(g2_min))
