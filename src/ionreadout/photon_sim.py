"""Synthetic photon-count records from a two-state blinking emitter.

The emitter is a hidden two-state Markov process.  In the bright state it
scatters photons at rate gamma_b, in the dark state at gamma_d (both in
counts per ms).  Spontaneous bright->dark decay happens at rate gamma_dp
and dark->bright at gamma_rp.  Detected counts are binned into windows of
width t0 (in us).

Two transition models are provided, named in :data:`TRANSITION_MODES`:

* ``"exact"`` (default): the hidden state follows a continuous-time Markov
  chain; each bin's count is Poisson with mean given by the time-weighted
  rate integral across the bin.
* ``"bin-boundary"``: state changes may only occur between bins, with
  per-boundary probabilities 1 - exp(-gamma_dp * t0) and
  1 - exp(-gamma_rp * t0), the pumping rule of :mod:`ionreadout.chain`.

Both are simulated at the event level: each trial is cut at its flips
into constant-rate segments, each segment's Poisson total is placed
uniformly inside it, and the placed counts are binned.  A pumping rate
of one expected flip per bin or more (gamma * t0 >= 1) is rejected.

Reproducibility contract: trials are drawn in fixed-size blocks of one
prepared state, each block from its own generator seeded by
``(master_seed, state, block)``.  Output is bitwise reproducible under
the seed, and a block's rows do not depend on how many trials follow it.
A block is drawn and placed in sub-batches of trials sized by the rates
and the record length alone, so that their flip segments stay bounded at
fast pumping; at slow pumping a sub-batch is the whole block.

Records are held as a :class:`Dataset`: one prefix-sum matrix (trials x
bins, the counts of bins 0..j of each record in column j) with a boolean
label column.  A readout total is one column, bin j's counts are the
difference of columns j and j - 1, and the counts matrix is derived only
on access.  The prefix is stored in the narrowest of int8, int16, int32
and int64 that holds its largest record total, so no sum wraps; at the
paper's rates that is int8.  :func:`simulate_dataset` decides the herald
of each chunk of rows from the bins of its placed photons and keeps only
the retained records' post-herald photon bins, so no dense counts matrix
is ever held; once every trial is drawn it allocates the prefix once, at
its exact size, bins-major, and returns the retained records alone; the
herald tally is read off their labels.  Simulated records are therefore
bins-major in memory (each column of the prefix is contiguous), while
records built from a counts matrix or read from a file are trial-major;
every consumer takes either.  Every record carries its bin width; none
is assumed.  A list of
:class:`Trajectory` input records is stacked into one by
:func:`as_dataset`, which checks the records once; only
:func:`readout.adaptive_classify_batch` still accepts such a list, for
the benchmark's per-trial check.

:func:`simulate_timetag_streams` draws every arrival process (the
emitter and each channel's background) from its own child of the seed,
as exponential gaps cumulated a fixed chunk at a time, so each
channel's tags come out in time order and are rounded straight into
its tick array; a channel with emitter and background tags merges two
sorted arrays and none is sorted.  The two backgrounds are drawn at
once, on up to two threads, one per CPU the process may use (numpy
releases the GIL while it draws).  The streams are bitwise reproducible under the seed
and depend neither on the chunk size nor on the number of CPUs.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import Literal, Sequence

import numpy as np

from .chain import _MS_PER_US, _flip_probs
from .timing import TimeTagStream, _map_on_cpus

StateLabel = Literal["bright", "dark"]
TRANSITION_MODES = ("exact", "bin-boundary")  # the first is the default

BRIGHT: StateLabel = "bright"
DARK: StateLabel = "dark"


@dataclass(frozen=True)
class RateParams:
    """Emitter rates, all in 1/ms.

    gamma_b / gamma_d are the bright / dark photon count rates; gamma_dp
    and gamma_rp are the bright->dark and dark->bright transition rates.
    """

    gamma_b: float
    gamma_d: float
    gamma_dp: float = 0.0
    gamma_rp: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gamma_b", "gamma_d", "gamma_dp", "gamma_rp"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if self.gamma_b < self.gamma_d:
            raise ValueError("gamma_b must be >= gamma_d")


@dataclass(frozen=True)
class ReadoutConfig:
    """Binning and heralding parameters (times in us)."""

    bin_width_us: float = 1.0
    n_bins: int = 500
    herald_duration_us: float = 50.0
    herald_bright_min: int = 8

    def __post_init__(self) -> None:
        if self.bin_width_us <= 0:
            raise ValueError("bin_width_us must be positive")
        _check_count("n_bins", self.n_bins)
        if self.herald_duration_us < 0:
            raise ValueError("herald_duration_us must be >= 0")
        _check_count("herald_bright_min", self.herald_bright_min)
        if self.herald_bins >= self.n_bins:
            raise ValueError(
                f"herald_duration_us ({self.herald_duration_us}) must be shorter than the "
                f"record ({self.n_bins} bins of {self.bin_width_us} us)"
            )

    @property
    def herald_bins(self) -> int:
        return _whole_bins("herald_duration_us", self.herald_duration_us, self.bin_width_us)


def _check_count(name: str, value) -> None:
    """Raise ValueError unless value is an integer (a Python or numpy one, not
    a bool) of at least 1; the error calls it ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1")


def _whole_bins(name: str, duration_us: float, bin_width_us: float) -> int:
    """duration_us in whole bins of bin_width_us; errors call the duration ``name``."""
    for what, v in (("bin_width_us", bin_width_us), (name, duration_us)):
        if not np.isfinite(v):
            raise ValueError(f"{what} must be finite, got {v}")
    nb = duration_us / bin_width_us
    if abs(nb - round(nb)) > 1e-9:
        raise ValueError(f"{name} ({duration_us:g}) must be a whole number of "
                         f"{bin_width_us:g} us bins")
    return int(round(nb))


def _readout_bins(duration_us: float, bin_width_us: float, n_bins: int) -> int:
    """The first duration_us of a record of n_bins bins of bin_width_us, in
    whole bins: at least 1 and at most the whole record."""
    nb = _whole_bins("duration_us", duration_us, bin_width_us)
    if nb < 1 or nb > n_bins:
        raise ValueError(f"duration ({duration_us:g} us) must cover between 1 bin and the "
                         f"whole record ({n_bins} bins of {bin_width_us:g} us)")
    return nb


def _counts_dtype(max_count: int):
    """The narrowest of int8, int16, int32 and int64 that holds max_count."""
    for dtype in (np.int8, np.int16, np.int32):
        if max_count <= np.iinfo(dtype).max:
            return dtype
    return np.int64


@dataclass(frozen=True)
class Trajectory:
    """Binned counts of one trial, as an input record for :func:`as_dataset`,
    which checks it.

    ``prepared`` is the label ('bright' or 'dark').
    """

    prepared: StateLabel
    bins: np.ndarray
    bin_width_us: float


@dataclass(frozen=True, eq=False, init=False)
class Dataset:
    """Labelled binned records held as one prefix-sum matrix.

    ``Dataset(counts, bright, bin_width_us)`` takes an n_trials x n_bins
    counts matrix and keeps only ``prefix``, its running sum along each
    record, in the narrowest integer type that holds the largest record
    total (see :func:`_counts_dtype`), in the counts' memory order: a
    C-ordered matrix gives a trial-major prefix, as the trajectory reader
    builds too.  :func:`simulate_dataset` returns a bins-major prefix, the
    transpose of a bins x trials matrix.  ``counts`` is derived from
    ``prefix`` on each access, in the prefix's type.  ``bright`` is the
    label column: the preparation, or after heralding the herald's
    verdict.  Trial i is ``counts[i]`` with label ``bright[i]``.  ``len``
    counts trials, and a slice, boolean mask or index array selects
    trials as a Dataset; a Dataset is not iterable and takes no integer
    index.
    """

    prefix: np.ndarray
    bright: np.ndarray
    bin_width_us: float

    def __init__(self, counts, bright, bin_width_us: float) -> None:
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValueError("counts must be a trials x bins matrix")
        if counts.size and (not np.issubdtype(counts.dtype, np.integer) or counts.min() < 0):
            raise ValueError("counts must be non-negative integers")
        top = counts.sum(axis=1, dtype=float).max(initial=0)  # exact below 2**53
        if top >= 2.0**63:
            raise ValueError("a record's total count must stay below about 9.2e18, the "
                             "range of int64")
        prefix = np.cumsum(counts, axis=1, dtype=_counts_dtype(int(top)))
        self._hold(prefix, bright, bin_width_us)

    @classmethod
    def _from_prefix(cls, prefix: np.ndarray, bright, bin_width_us: float) -> "Dataset":
        ds = object.__new__(cls)
        ds._hold(prefix, bright, bin_width_us)
        return ds

    def _hold(self, prefix, bright, bin_width_us) -> None:
        bright = np.asarray(bright)
        if bright.dtype != bool or bright.shape != prefix.shape[:1]:
            raise ValueError("bright must be a boolean array with one entry per trial")
        if not np.isfinite(bin_width_us) or bin_width_us <= 0:
            raise ValueError(f"bin_width_us must be finite and positive, got {bin_width_us}")
        for name, value in (("prefix", prefix), ("bright", bright),
                            ("bin_width_us", bin_width_us)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.prefix.shape[0]

    __iter__ = None  # iter() raises TypeError instead of falling back on __getitem__

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            raise TypeError("a Dataset takes no integer index; trial i is "
                            "counts[i] with label bright[i]")
        return Dataset._from_prefix(self.prefix[key], self.bright[key], self.bin_width_us)

    @property
    def n_bins(self) -> int:
        return self.prefix.shape[1]

    @property
    def counts(self) -> np.ndarray:
        """The n_trials x n_bins counts matrix, derived from ``prefix`` on each access."""
        return np.diff(self.prefix, axis=1, prepend=self.prefix.dtype.type(0))

    def totals(self, duration_us: float) -> np.ndarray:
        """Counts in the first duration_us of every record."""
        return self.prefix[:, _readout_bins(duration_us, self.bin_width_us, self.n_bins) - 1]


def as_dataset(trajs: Dataset | Sequence[Trajectory]) -> Dataset:
    """The records as a :class:`Dataset`; a sequence of records is stacked.

    A sequence must hold at least one record, each labelled 'bright' or
    'dark', all of equal length and bin width; the stacked counts and
    width are checked as every Dataset's are.
    """
    if isinstance(trajs, Dataset):
        return trajs
    trajs = list(trajs)
    if not trajs:
        raise ValueError("no records to stack")
    labels = [t.prepared for t in trajs]
    stray = next((label for label in labels if label not in (BRIGHT, DARK)), None)
    if stray is not None:
        raise ValueError(f"prepared must be 'bright' or 'dark', got {stray!r}")
    if len({np.shape(t.bins) for t in trajs}) > 1:
        raise ValueError("all trajectories must have equal length")
    if len({t.bin_width_us for t in trajs}) > 1:
        raise ValueError("all trajectories must share one bin width")
    return Dataset(np.stack([t.bins for t in trajs]),
                   np.array(labels) == BRIGHT, trajs[0].bin_width_us)


@dataclass(frozen=True)
class EmitterStreamConfig:
    """Renewal-process emitter feeding two detection channels (SI units).

    Each emission waits dead_time_s plus an exponential interval at
    emission_rate_s.  An emission is routed to channel A with probability
    route_prob_a, to channel B with route_prob_b, else lost.  Channel B's
    detection chain delays its tags by delay_offset_b_s.  Independent
    Poisson backgrounds are added per channel.  Tags are rounded to
    integer nanoseconds.  The defaults are one ion's source: 5.42e5
    emissions/s, 1 ns dead time, split evenly between the channels, with
    no background or offset over 1 s.
    """

    emission_rate_s: float = 5.42e5
    dead_time_s: float = 1e-9
    route_prob_a: float = 0.5
    route_prob_b: float = 0.5
    background_rate_a_s: float = 0.0
    background_rate_b_s: float = 0.0
    delay_offset_b_s: float = 0.0
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.emission_rate_s < 0 or self.dead_time_s < 0:
            raise ValueError("rates and dead time must be >= 0")
        if not (0 <= self.route_prob_a <= 1 and 0 <= self.route_prob_b <= 1):
            raise ValueError("routing probabilities must lie in [0, 1]")
        if self.route_prob_a + self.route_prob_b > 1 + 1e-12:
            raise ValueError("route_prob_a + route_prob_b must not exceed 1")
        if self.background_rate_a_s < 0 or self.background_rate_b_s < 0:
            raise ValueError("background rates must be >= 0")
        if not self.duration_s * 1e9 > 0.5:  # tags are whole ns in [0, round(duration))
            raise ValueError(f"duration_s ({self.duration_s:g} s) must round to at least "
                             "1 ns")
        if (self.duration_s + abs(self.delay_offset_b_s)) * 1e9 >= 2.0**63:
            raise ValueError("duration_s + |delay_offset_b_s| must stay below "
                             f"{2.0**63 * 1e-9:.4g} s, the range of int64 ns tags")


# Trials per block of simulate_dataset, the expected segments of the trials
# drawn at a time, and the bins plus photons of the rows binned at a time
# (one row at least): a block's working memory stays within a few MB at any
# rate and record length unless one trial alone is larger.
_BLOCK_TRIALS = 4096
_SEGMENT_BUDGET = 1 << 17
_PLACE_BUDGET = 1 << 17


def _segments(
    rng: np.random.Generator, rates: RateParams, cfg: ReadoutConfig, bright: bool,
    mode: str, n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Constant-state segments of n trials prepared bright (or dark).

    Returns (trial, start, end, flipped) per segment, sorted by trial and
    start; times are in bins, and ``flipped`` (0 or 1) is the parity of
    the flips before the segment, 0 meaning the prepared state.  Every
    open trial has flipped equally often, so one vectorised round draws
    every open trial's next flip: an exponential gap (``"exact"``) or a
    geometric number of bin boundaries (``"bin-boundary"``).
    """
    t0, n_bins = cfg.bin_width_us, cfg.n_bins
    flips = list(zip((rates.gamma_dp, rates.gamma_rp), _flip_probs(rates, t0)))
    flips = flips if bright else flips[::-1]  # (rate, per-bin probability) out of each state
    trial, start, flipped = [np.arange(n)], [np.zeros(n)], [np.zeros(n, dtype=np.intp)]
    open_, t, k = trial[0], start[0], 0  # k: flips so far of every open trial
    while open_.size:
        rate, p = flips[k % 2]
        if rate <= 0:
            break
        if mode == TRANSITION_MODES[0]:
            t = t + rng.exponential(1.0 / (rate * t0 * _MS_PER_US), open_.size)
        else:
            t = t + rng.geometric(p, open_.size)
        inside = t < n_bins
        open_, t, k = open_[inside], t[inside], k + 1
        trial.append(open_)
        start.append(t)
        flipped.append(np.full(open_.size, k % 2, dtype=np.intp))
    trial, start, flipped = (np.concatenate(a) for a in (trial, start, flipped))
    order = np.argsort(trial, kind="stable")  # rounds are in time order
    trial, start, flipped = trial[order], start[order], flipped[order]
    end = np.append(np.where(trial[1:] == trial[:-1], start[1:], n_bins), n_bins)
    return trial, start, end, flipped


def _placed_photons(
    rng: np.random.Generator, rates: RateParams, cfg: ReadoutConfig, bright: bool,
    segments: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
):
    """Yield the photons of consecutive rows, in order, for the segments' trials.

    Each segment gets one Poisson total, placed uniformly inside it and
    binned.  Binned counts of a Poisson process are independent Poisson
    variables with the time-weighted means, so this is exact.  Rows are
    placed a few at a time; each time the number of rows is yielded with
    every photon's row, counted from the first of them and in order, and
    its bin.  The draws do not depend on how the rows are cut.
    """
    t0, n_bins = cfg.bin_width_us, cfg.n_bins
    trial, start, end, flipped = segments
    photon_rates = (rates.gamma_b, rates.gamma_d) if bright else (rates.gamma_d, rates.gamma_b)
    per_bin = np.array(photon_rates) * t0 * _MS_PER_US
    totals = rng.poisson(per_bin[flipped] * (end - start))
    n = int(trial[-1]) + 1  # every trial has a first segment
    first_seg = np.searchsorted(trial, np.arange(n + 1))
    cost = np.bincount(trial, weights=totals, minlength=n) + n_bins
    before = np.cumsum(cost) - cost  # bins plus photons of the rows before each
    # positions in cells of the flattened rows; the cap keeps a position
    # rounded up to its segment's end inside the segment
    first_cell = trial * n_bins + start
    cap = trial * n_bins + np.ceil(end).astype(np.int64) - 1
    row = 0
    while row < n:
        stop = max(row + 1, int(np.searchsorted(before, before[row] + _PLACE_BUDGET)))
        lo, hi = first_seg[row], first_seg[stop]
        seg = np.repeat(np.arange(lo, hi), totals[lo:hi])
        at = rng.random(seg.size)
        at *= (end - start)[seg]
        at += first_cell[seg]
        in_trial = trial[seg]
        cell = np.minimum(at.astype(np.int64), cap[seg])
        yield stop - row, in_trial - row, cell - in_trial * n_bins
        row = stop


def _herald(window: np.ndarray, cfg: ReadoutConfig) -> tuple[np.ndarray, np.ndarray]:
    """The herald rule on each record's count in a non-empty herald window:
    the retained records' indices, in order, and their labels (True = bright)."""
    bright = window >= cfg.herald_bright_min
    keep = np.flatnonzero(bright | (window == 0))
    return keep, bright[keep]


def simulate_dataset(
    rates: RateParams,
    cfg: ReadoutConfig,
    trials_per_state: int,
    seed: int,
    mode: str = TRANSITION_MODES[0],
) -> Dataset:
    """Simulate trials_per_state bright then trials_per_state dark trials and herald them.

    Returns the retained records.  Zero counts in the herald window (the
    first cfg.herald_duration_us of each record) retain the trial as dark,
    at least cfg.herald_bright_min counts retain it as bright, and anything
    in between discards it; retained records carry the herald's label and
    only their post-herald bins.  A zero-length herald window retains every
    trial whole, labelled by its preparation.  The tally is read off the
    labels; 2 * trials_per_state - len(records) were discarded.  The pumping
    rates are checked before anything is drawn.  Each state's trials are
    drawn in blocks of ``_BLOCK_TRIALS`` trials; block b of state s (0
    bright, 1 dark) draws from the generator seeded by (seed, s, b).  The
    output is bitwise reproducible under the seed, and a block's rows do not
    change when trials_per_state grows beyond that block.  A block's trials
    are drawn and placed in sub-batches whose expected flip segments stay
    near ``_SEGMENT_BUDGET``.  Each chunk of rows is heralded from the bins
    of its placed photons, and only the retained records' post-herald
    photon bins are kept, in the narrowest unsigned type that holds a bin.
    Once every chunk is placed, the prefix matrix is allocated once, at its
    exact size and type, bins-major (one row per post-herald bin, one
    column per retained record): each chunk's counts are scattered into its
    columns and the bins are summed in order.  The records' prefix is the
    transposed view, so simulated records are bins-major in memory.
    """
    _check_count("trials_per_state", trials_per_state)
    if mode not in TRANSITION_MODES:
        raise ValueError(f"unknown transition mode {mode!r}")
    _flip_probs(rates, cfg.bin_width_us)
    p = cfg.bin_width_us * _MS_PER_US * max(rates.gamma_dp, rates.gamma_rp)
    if p > 0.01:
        warnings.warn(f"bin width times pumping rate = {p:.3g} is not small; "
                      "bin-resolution artifacts likely", stacklevel=2)
    # trials per sub-batch (a trial has one segment more than its flips); set
    # by the rates and the record alone, so a block's rows still do not
    # depend on later trials
    batch = max(1, int(_SEGMENT_BUDGET // (1 + cfg.n_bins * p)))
    hb = cfg.herald_bins
    n_post = cfg.n_bins - hb
    bin_type = np.min_scalar_type(n_post - 1)
    chunks = []  # per chunk: the retained records' post-herald totals and photon bins
    bright = np.empty(2 * trials_per_state, dtype=bool)
    kept = top = 0  # records retained; the largest retained record total
    for s, prepared in enumerate((True, False)):
        for b, lo in enumerate(range(0, trials_per_state, _BLOCK_TRIALS)):
            n = min(_BLOCK_TRIALS, trials_per_state - lo)
            rng = np.random.default_rng((seed, s, b))
            for m in range(0, n, batch):
                segments = _segments(rng, rates, cfg, prepared, mode, min(batch, n - m))
                for n_rows, row, at in _placed_photons(rng, rates, cfg, prepared, segments):
                    keep, labels = slice(None), prepared
                    if hb:
                        post = at >= hb
                        keep, labels = _herald(np.bincount(row[~post], minlength=n_rows), cfg)
                        retained = np.zeros(n_rows, dtype=bool)
                        retained[keep] = True
                        post &= retained[row]
                        row, at = row[post], at[post]
                    totals = np.bincount(row, minlength=n_rows)[keep]
                    chunks.append((totals, (at - hb).astype(bin_type)))
                    top = max(top, int(totals.max(initial=0)))
                    bright[kept:kept + totals.size] = labels
                    kept += totals.size
    # bins-major: bin j's counts of every retained record lie side by side
    sums = np.empty((n_post, kept), dtype=_counts_dtype(top))
    col = 0
    for totals, bins in chunks:
        k = totals.size
        cell = bins * np.intp(k) + np.repeat(np.arange(k), totals)  # intp: no wrap
        sums[:, col:col + k] = np.bincount(cell, minlength=n_post * k).reshape(n_post, k)
        col += k
    for j in range(1, n_post):  # exact in the matrix's type, which holds every total
        np.add(sums[j - 1], sums[j], out=sums[j])
    return Dataset._from_prefix(sums.T, bright[:kept], cfg.bin_width_us)


# Arrivals drawn per chunk by simulate_timetag_streams: a chunk's gaps,
# times and routing draws stay near 1 MB however long the window is.
_TAG_CHUNK = 1 << 16


def _arrival_chunks(rng: np.random.Generator, rate_s: float, dead_time_s: float,
                    duration_s: float):
    """Yield the arrival times (s) of a renewal process in [0, duration_s), in order.

    Each gap is dead_time_s plus an exponential interval at rate_s.  Gaps
    are drawn ``_TAG_CHUNK`` at a time, and each chunk's first gap is
    added to the previous chunk's last time before the chunk is summed in
    place, so the times are one sequential cumulative sum of one stream
    of draws, whatever the chunk size.
    """
    if rate_s <= 0:
        return
    t_last = 0.0
    while True:
        # numpy draws exponential(scale) as scale times a standard draw, so these
        # are its gaps bit for bit, from its faster unscaled fill
        t = rng.standard_exponential(_TAG_CHUNK)
        t *= 1.0 / rate_s
        t += dead_time_s
        t[0] += t_last
        np.cumsum(t, out=t)
        inside = int(np.searchsorted(t, duration_s))
        t_last = t[-1]
        yield t[:inside]  # the caller may overwrite it
        if inside < t.size:
            return


def _tag_capacity(mean: float) -> int:
    """Tick slots for a count whose variance is at most its mean: 6 sigma above it."""
    return int(mean + 6.0 * np.sqrt(mean)) + 64


def _write_ticks(ticks: np.ndarray, n: int, t_ns: np.ndarray) -> tuple[np.ndarray, int]:
    """Round the times t_ns (ns, in place) into ticks[n:]; return the array and its fill.

    A full array is replaced by one twice as large holding its filled part.
    """
    end = n + t_ns.size
    if end > ticks.size:
        grown = np.empty(max(2 * ticks.size, end), dtype=np.int64)
        grown[:n] = ticks[:n]
        ticks = grown
    ticks[n:end] = np.rint(t_ns, out=t_ns)
    return ticks, end


def simulate_timetag_streams(
    cfg: EmitterStreamConfig, seed
) -> tuple[TimeTagStream, TimeTagStream]:
    """Simulate two time-tag channels from one emitter plus backgrounds.

    Routing is exclusive, so a single emission never produces a tag in
    both channels; with no background and dead time tau_d, no A-B pair
    can have |delay - offset| < tau_d.

    The four child generators of ``np.random.SeedSequence(seed)`` draw
    the emitter's gaps, its routing uniforms (one per emission), channel
    A's background gaps and channel B's background gaps.  Each process
    is the cumulative sum of its gaps, so its tags come out in time
    order and are rounded straight into an int64 tick array allocated
    at an upper bound (pages past the fill are never touched); channel
    B's emissions are delayed by delay_offset_b_s first.  The emitter is
    drawn first, then the two backgrounds at once, on up to two threads
    (one per CPU the process may use).  A channel with emitter and
    background tags merges the two sorted arrays, and tags outside
    [0, duration) are cut off.  The streams are bitwise reproducible
    under the seed and depend neither on the chunk size nor on the
    number of CPUs.
    """
    emit_rng, route_rng, *bg_rngs = (np.random.default_rng(child)
                                     for child in np.random.SeedSequence(seed).spawn(4))
    n_emitted = cfg.emission_rate_s * cfg.duration_s / (1.0 + cfg.emission_rate_s
                                                          * cfg.dead_time_s)
    routes = (cfg.route_prob_a, cfg.route_prob_b)
    offsets = (0.0, cfg.delay_offset_b_s)
    emitted = [np.empty(_tag_capacity(p * n_emitted), dtype=np.int64) for p in routes]
    fill = [0, 0]
    for t in _arrival_chunks(emit_rng, cfg.emission_rate_s, cfg.dead_time_s, cfg.duration_s):
        u = route_rng.random(t.size)
        to_a = u < routes[0]
        for c, routed in enumerate((to_a, ~to_a & (u < routes[0] + routes[1]))):
            t_ns = np.compress(routed, t)  # a boolean index copies several times slower
            t_ns += offsets[c]
            t_ns *= 1e9
            emitted[c], fill[c] = _write_ticks(emitted[c], fill[c], t_ns)

    def background(channel) -> np.ndarray:
        rng, rate_s = channel
        bg, n_bg = np.empty(_tag_capacity(rate_s * cfg.duration_s), dtype=np.int64), 0
        for t in _arrival_chunks(rng, rate_s, 0.0, cfg.duration_s):
            t *= 1e9
            bg, n_bg = _write_ticks(bg, n_bg, t)
        return bg[:n_bg]

    # each channel's background has its own generator, so the two are drawn at once
    bgs = _map_on_cpus(background, zip(bg_rngs, (cfg.background_rate_a_s,
                                                 cfg.background_rate_b_s)))
    duration_ns = int(round(cfg.duration_s * 1e9))
    streams = []
    for c, bg in enumerate(bgs):
        ticks = emitted[c][:fill[c]]
        if bg.size:
            ticks = np.insert(ticks, np.searchsorted(ticks, bg), bg) if ticks.size else bg
            emitted[c] = None  # free the emitter ticks once merged
        lo, hi = np.searchsorted(ticks, (0, duration_ns))
        streams.append(TimeTagStream("AB"[c], ticks[lo:hi], duration_ns))
    return tuple(streams)
