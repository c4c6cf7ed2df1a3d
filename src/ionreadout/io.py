"""CSV interchange formats shared by the CLI, the scenario runner and tests.

Every table is written from its columns by :func:`write_table` under one
rule set by each column's dtype: booleans as 'true' / 'false', floats
via repr so values round-trip, anything else via str.  Plain comma
separation and '\n' line endings make the bytes deterministic.  States
are booleans (True = bright) until they become 'bright' / 'dark' here.
Every reader checks the header, then hands the open file to
``np.loadtxt``, which parses a block of 8,192 rows at a time; a missing
column, a short row, a field that does not parse or a value out of range
raises ValueError naming the file.  A quoted field may hold a newline.

The trajectory file is long format, one row per (trial, bin), and does
not record the bin width: its reader takes the width as a required
keyword and returns a :class:`Dataset`, so every trial must have the
same length.  It parses the file a block of rows at a time and scatters
each block straight into the Dataset's matrix, so beyond the returned
Dataset it holds one block and a few numbers per trial.  Its writer
builds every digit of the ids, bins and counts with integer arithmetic.
"""
from __future__ import annotations

import csv
import os
import warnings
from stat import S_ISREG
from typing import Sequence

import numpy as np

from .optics import APSurface
from .photon_sim import BRIGHT, DARK, Dataset, _counts_dtype
from .rfcircuit import BiasCountCurve
from .timing import G2Estimate, TimeTagStream


def _fields(column) -> list[str]:
    """One column's fields: booleans as true/false, floats via repr, the rest via str."""
    col = np.asarray(column)
    if col.dtype == bool:
        return np.where(col, "true", "false").tolist()
    return list(map(repr if col.dtype.kind == "f" else str, col.tolist()))


def write_table(path, header: Sequence[str], columns: Sequence) -> None:
    """Write a header row, then one row per index of the equal-length columns,
    each column formatted by its numpy dtype (see the module docstring)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_fields, columns), strict=True))


def format_value(value) -> str:
    """One value, formatted as a one-value column."""
    return _fields([value])[0]


def _labels(bright) -> np.ndarray:
    """Boolean states (True = bright) as 'bright' / 'dark'."""
    return np.where(bright, BRIGHT, DARK)


# Rows a reader parses at a time: a block of a written trajectory file is
# about 130 KB of text and 260 KB of parsed columns.  Fewer rows per block
# read slower; more read no faster.
_BLOCK_ROWS = 1 << 13


def _read_rows(path, dtype):
    """The columns named by a structured dtype, in file order: a header check,
    then one loadtxt pass over each block of ``_BLOCK_ROWS`` rows.

    The file is read as latin-1, so every byte loads; a quoted field
    reads as the csv module reads it, newlines included.  Blank lines
    are skipped and count toward no block.
    """
    dtype = np.dtype(dtype)
    with open(path, encoding="latin-1") as fh:
        header = next(csv.reader(fh), [])
        if not set(dtype.names).issubset(header):
            raise ValueError(f"{path}: expected columns {sorted(dtype.names)}")
        usecols = [header.index(c) for c in dtype.names]
        before = 0
        while True:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                try:  # loadtxt takes the file's lines one at a time and stops after the block
                    rows = np.loadtxt(fh, dtype=dtype, delimiter=",", usecols=usecols,
                                      comments=None, ndmin=1, quotechar='"',
                                      max_rows=_BLOCK_ROWS)
                except ValueError as exc:  # a short row or a field that does not parse
                    after = f"after {before} rows, " if before else ""
                    raise ValueError(f"{path}: {after}{exc}") from exc
            if not rows.size:
                return
            before += rows.size
            yield rows
            if rows.size < _BLOCK_ROWS:
                return


def _read_table(path, dtype) -> np.ndarray:
    """The columns named by a structured dtype, in file order."""
    return np.concatenate([np.empty(0, dtype), *_read_rows(path, dtype)])


# One field per column.  Labels stay bytes: the file is read as latin-1, so
# any label loads, and one longer than "bright" still reads as invalid.  Eight
# bytes compare as one uint64.
_TRAJECTORY_DTYPE = np.dtype([("trial_id", np.int64), ("prepared", "S8"),
                              ("bin_index", np.int64), ("counts", np.int64)])
_BRIGHT_KEY, _DARK_KEY = np.array([BRIGHT, DARK], dtype="S8").view(np.uint64)


def _decimal_rows(values: np.ndarray, top: int, end: bytes) -> np.ndarray:
    """Non-negative integers of at most ``top`` as decimal digit bytes, each
    followed by ``end``, along one more axis at the end.  A number shorter
    than ``top`` starts with 0 bytes in place of its leading zeros."""
    width = len(str(top))
    rows = np.empty((*values.shape, width + len(end)), dtype=np.uint8)
    rows[..., width:] = np.frombuffer(end, dtype=np.uint8)
    for k in range(width - 1, -1, -1):  # the last digit first
        digit = values % 10 + ord("0")
        rows[..., k] = digit if k == width - 1 else np.where(values > 0, digit, 0)
        values = values // 10
    return rows


def write_trajectories_csv(path, ds: Dataset) -> None:
    """Long-format dump: one row per (trial, bin).

    The rows are assembled as bytes, a block of about 2^15 at a time:
    each row is the trial's "id,label," head, the bin's "j," and the
    count's "c\n", laid side by side as byte tables padded with 0 bytes,
    and one pass drops the pad bytes.  Every digit is computed with
    integer arithmetic, one pass over a block per decimal place.
    """
    if len(ds) and not ds.n_bins:  # its header alone would read back as no trials
        raise ValueError(f"cannot write {len(ds)} trials with no bins: "
                         "the long format holds one row per bin")
    labels = np.array([DARK + ",", BRIGHT + ","], dtype="S").view(np.uint8).reshape(2, -1)
    bins = _decimal_rows(np.arange(ds.n_bins), max(ds.n_bins - 1, 0), b",")
    step = max(1, (1 << 15) // max(ds.n_bins, 1))  # trials per block
    with open(path, "wb") as fh:
        fh.write(",".join(_TRAJECTORY_DTYPE.names).encode() + b"\n")
        for lo in range(0, len(ds), step):
            hi = min(lo + step, len(ds))
            head = np.concatenate([_decimal_rows(np.arange(lo, hi), hi - 1, b","),
                                   labels[ds.bright[lo:hi].astype(np.intp)]], axis=1)
            counts = ds[lo:hi].counts
            counts = _decimal_rows(counts, int(counts.max()), b"\n")
            shape = (hi - lo, ds.n_bins)
            rows = np.concatenate([np.broadcast_to(head[:, None], (*shape, head.shape[-1])),
                                   np.broadcast_to(bins, (*shape, bins.shape[-1])),
                                   counts], axis=2)
            fh.write(rows[rows != 0].tobytes())


# A trajectory row is at least "0,dark,0,0" and a line end, so a regular
# file of s bytes holds fewer than s // 10 rows, and a valid one fills as
# many cells.
_MIN_ROW_BYTES = 10


class _Trials:
    """Per-trial state of a trajectory file read a block at a time.

    Trials take matrix rows in order of first appearance.  Per row it
    keeps the trial id and, in ``stat``, the rows read, the bright rows,
    the lowest and highest bin, and the counts read.  Lookups search the
    ids as they are while they ascend, as in a written file, and a sorted
    copy otherwise.
    """

    def __init__(self) -> None:
        self.n = 0
        self.ids = np.empty(0, dtype=np.int64)
        self.stat = np.empty((0, 5), dtype=np.int64)
        self.order = None  # the rows in id order, once the ids stop ascending
        self._sorted_ids = None

    def rows(self, uid: np.ndarray) -> np.ndarray:
        """The matrix rows of the ascending ids ``uid``; an unseen id takes a new row."""
        n = self.n
        keys = self.ids[:n] if self.order is None else self._sorted_ids
        pos = np.minimum(np.searchsorted(keys, uid), max(n - 1, 0))
        seen = keys[pos] == uid if n else np.zeros(uid.size, dtype=bool)
        rows = pos if self.order is None else self.order[pos]
        if seen.all():
            return rows
        fresh = uid[~seen]
        ascending = self.order is None and (not n or fresh[0] > self.ids[n - 1])
        self.n += fresh.size
        if self.n > self.ids.size:
            self.ids = np.resize(self.ids, 2 * self.n)
            self.stat = np.resize(self.stat, (2 * self.n, 5))
        self.ids[n:self.n] = fresh
        self.stat[n:self.n] = (0, 0, np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0)
        rows[~seen] = np.arange(n, self.n)
        if not ascending:
            self.order = np.argsort(self.ids[:self.n], kind="stable")
            self._sorted_ids = self.ids[self.order]
        return rows


def read_trajectories_csv(path, *, bin_width_us: float) -> Dataset:
    """Read a long-format dump into a Dataset; rows may come in any order.

    The file does not record the bin width, so the caller supplies it.
    Trials come in ascending trial_id order; each trial's bins must run
    0..n-1, and every trial must have the same n.

    The file is parsed a block of rows at a time, and each block is
    scattered into one trials x bins matrix of counts, -1 where no row
    has landed, in the narrowest signed type that holds the largest
    trial's running total of counts, so it holds every prefix sum.
    Between blocks only a few numbers per trial are kept (see
    :class:`_Trials`).  A trial is whole when its bins lie in [0, rows)
    and fill as many cells as it has rows.  The matrix is allocated for
    the most cells the file's size allows, so its pages past the trials
    read are never touched, never resident, and it becomes the Dataset's
    prefix in place; a file of unknown size, such as a pipe, doubles it
    as it fills.  Trials whose first rows are not in ascending id order
    cost one copy of the matrix at the end.
    """
    info = os.stat(path)
    cap = info.st_size // _MIN_ROW_BYTES if S_ISREG(info.st_mode) else None
    trials = _Trials()
    cells = np.empty(0, dtype=np.int8)  # the matrix, row-major; None once it cannot fit
    width = top = 0  # matrix width, largest trial total
    for rows in _read_rows(path, _TRAJECTORY_DTYPE):
        tid, label, b, c = (rows[name] for name in _TRAJECTORY_DTYPE.names)
        key = label.view(np.uint64)
        bright, dark = key == _BRIGHT_KEY, key == _DARK_KEY
        if not (bright | dark).all():
            first = int(np.argmax(~(bright | dark)))
            shown = label[first][:7].decode("utf-8", "replace")  # a long label, cut short
            raise ValueError(f"{path}: trial {tid[first]} has label {shown!r}; "
                             "expected 'bright' or 'dark'")
        if c.min() < 0:
            first = int(np.argmax(c < 0))
            raise ValueError(f"{path}: trial {tid[first]} has a negative count "
                             f"({c[first]}) in bin {b[first]}")
        if (tid[1:] < tid[:-1]).any():  # ids went backwards: gather each trial's rows
            order = np.argsort(tid, kind="stable")
            tid, bright, b, c = tid[order], bright[order], b[order], c[order]
        start = np.flatnonzero(np.concatenate([[True], tid[1:] != tid[:-1]]))
        was = trials.n
        slot = trials.rows(tid[start])
        length = np.concatenate([start[1:], [tid.size]]) - start
        lo, hi = np.minimum.reduceat(b, start), np.maximum.reduceat(b, start)
        stat = trials.stat[slot]
        stat[:, 0] += length
        stat[:, 1] += np.add.reduceat(bright, start, dtype=np.int64)
        np.minimum(stat[:, 2], lo, out=stat[:, 2])
        np.maximum(stat[:, 3], hi, out=stat[:, 3])
        total = stat[:, 4] + np.add.reduceat(c, start, dtype=float)  # exact below 2**53
        if total.max() >= 2.0**63:
            raise ValueError(f"{path}: trial {tid[start[np.argmax(total)]]} has counts "
                             "totalling more than about 9.2e18, the range of int64")
        stat[:, 4] = total
        trials.stat[slot] = stat

        if cells is None:
            continue
        wide = max(width, int(hi.max()) + 1)
        need = trials.n * wide
        if cap is not None and need > cap:  # more cells than the file has rows: a trial is short
            cells = None
            continue
        top = max(top, int(stat[:, 4].max()))
        dtype = _counts_dtype(top)
        if wide > width or dtype != cells.dtype or need > cells.size:
            # lay the trials read so far out again
            wider = np.empty(2 * need if cap is None else cap, dtype=dtype)
            kept = wider[:was * wide].reshape(was, wide)
            kept[:, :width] = cells[:was * width].reshape(was, width)
            kept[:, width:] = -1
            cells, width = wider, wide
        cells[was * width:trials.n * width] = -1
        cell = np.repeat(slot * width, length) + b
        if lo.min() < 0:  # a negative bin lands nowhere; its trial is not whole
            cell, c = cell[b >= 0], c[b >= 0]
        cells[cell] = c.astype(cells.dtype)

    n = trials.n
    if not n:
        return Dataset(np.zeros((0, 0), dtype=np.int8), np.zeros(0, dtype=bool), bin_width_us)
    ids, (n_rows, n_bright, lo, hi, _) = trials.ids[:n], trials.stat[:n].T
    mixed = (n_bright > 0) & (n_bright < n_rows)
    if mixed.any():
        raise ValueError(f"{path}: trial {ids[mixed].min()} has inconsistent labels")
    whole = (lo >= 0) & (hi < n_rows)
    if cells is not None:
        grid = cells[:n * width].reshape(n, width)
        chunk = 1 + (1 << 16) // width  # trials per pass, so the mask stays near 64 KB
        whole &= np.concatenate([np.count_nonzero(grid[i:i + chunk] >= 0, axis=1)
                                 for i in range(0, n, chunk)]) == n_rows
    if not whole.all():
        raise ValueError(f"{path}: trial {ids[~whole].min()} has missing or duplicate bins")
    # Past here a matrix that could not fit always fails: its trials are whole,
    # so their lengths differ, or they would fill no more cells than the file has rows.
    first = int(np.argmin(ids))
    ragged = np.flatnonzero(n_rows != n_rows[first])
    if ragged.size:
        k = ragged[np.argmin(ids[ragged])]
        raise ValueError(f"{path}: trials have different lengths (trial {ids[first]} has "
                         f"{n_rows[first]} bins, trial {ids[k]} has {n_rows[k]})")
    bright = n_bright > 0
    if trials.order is not None:
        grid, bright = grid[trials.order], bright[trials.order]
    np.cumsum(grid, axis=1, out=grid)
    return Dataset._from_prefix(grid, bright, bin_width_us)


def write_timetags_csv(path, streams: Sequence[TimeTagStream]) -> None:
    write_table(path, ["channel", "t_ns"],
                [np.repeat(np.array([s.channel for s in streams], dtype=object),
                           [s.t_ns.size for s in streams]),
                 # the empty array keeps an empty stream list to the header alone
                 np.concatenate([s.t_ns for s in streams] + [np.zeros(0, np.int64)])])


def read_timetags_csv(path, duration_ns: int | None = None) -> list[TimeTagStream]:
    """One stream per channel, in channel-name order; rows may come in any order.
    Each block's tags are grouped by channel, and each channel sorted once."""
    parts: dict[str, list[np.ndarray]] = {}
    for rows in _read_rows(path, [("channel", object), ("t_ns", np.int64)]):
        names, channel = np.unique(rows["channel"], return_inverse=True)
        for k, name in enumerate(names):
            parts.setdefault(name, []).append(rows["t_ns"][channel == k])
    ticks = {}
    for name in sorted(parts):  # sorted in place: a sorted copy would raise the peak
        ticks[name] = np.concatenate(parts.pop(name))
        ticks[name].sort()
    if not ticks:
        raise ValueError(f"{path}: no tags found")
    if duration_ns is None:
        duration_ns = max(int(t[-1]) for t in ticks.values()) + 1
    try:  # names were written as UTF-8 and read as latin-1
        return [TimeTagStream(name.encode("latin-1").decode(), t, duration_ns)
                for name, t in ticks.items()]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_results_csv(path, bright, decided_bright, durations_us, confidence=None) -> None:
    """Per-trial results from columns: the boolean states (True = bright) as
    'bright' / 'dark', one duration for every trial or one each, and the
    confidence, an empty field when None (threshold results)."""
    if np.asarray(bright).dtype != bool or np.asarray(decided_bright).dtype != bool:
        raise ValueError("states must be boolean arrays (True = bright)")
    n = len(bright)
    write_table(path, ["trial_id", "truth", "decision", "duration_us", "confidence"],
                [np.arange(n), _labels(bright), _labels(decided_bright),
                 np.broadcast_to(np.asarray(durations_us, dtype=float), n),
                 [""] * n if confidence is None else confidence])


def write_bias_curve_csv(path, curve: BiasCountCurve) -> None:
    write_table(path, ["bias_ua", "counts"], [curve.bias_ua, curve.counts])


def read_bias_curve_csv(path) -> BiasCountCurve:
    rows = _read_table(path, [("bias_ua", float), ("counts", float)])
    try:
        return BiasCountCurve(rows["bias_ua"], rows["counts"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_ap_surface_csv(path, surface: APSurface) -> None:
    """The TE table, then the TM table, each theta-major."""
    n_theta, n_phi = surface.ap_te.shape
    write_table(path, ["polarization", "theta_deg", "phi_deg", "ap"],
                [np.repeat(["TE", "TM"], n_theta * n_phi),
                 np.tile(np.repeat(surface.theta_deg, n_phi), 2),
                 np.tile(surface.phi_deg, 2 * n_theta),
                 np.concatenate([surface.ap_te.ravel(), surface.ap_tm.ravel()])])


def read_ap_surface_csv(path) -> APSurface:
    """TE and TM tables on the grid of the TE rows' distinct angles, in ascending order;
    each table takes one row per grid point."""
    rows = _read_table(path, [("polarization", object), ("theta_deg", float),
                              ("phi_deg", float), ("ap", float)])
    pol = np.char.upper(rows["polarization"].astype(str))
    bad = (pol != "TE") & (pol != "TM")
    if bad.any():
        raise ValueError(f"{path}: polarization must be TE or TM, got {str(pol[bad][0])!r}")
    if not ((pol == "TE").any() and (pol == "TM").any()):
        raise ValueError(f"{path}: need both TE and TM tables")
    thetas = np.unique(rows["theta_deg"][pol == "TE"])
    phis = np.unique(rows["phi_deg"][pol == "TE"])
    tables = []
    for name in ("TE", "TM"):
        mine = rows[pol == name]
        i = np.searchsorted(thetas, mine["theta_deg"]).clip(max=thetas.size - 1)
        j = np.searchsorted(phis, mine["phi_deg"]).clip(max=phis.size - 1)
        on = (thetas[i] == mine["theta_deg"]) & (phis[j] == mine["phi_deg"])
        if not on.all():
            stray = mine[np.argmin(on)]
            raise ValueError(f"{path}: row ({name}, theta={stray['theta_deg']}, "
                             f"phi={stray['phi_deg']}) lies off the TE grid")
        repeat = np.ones(mine.size, dtype=bool)
        repeat[np.unique(i * phis.size + j, return_index=True)[1]] = False
        if repeat.any():  # the last value would win silently
            again = mine[np.argmax(repeat)]
            raise ValueError(f"{path}: row ({name}, theta={again['theta_deg']}, "
                             f"phi={again['phi_deg']}, ap={again['ap']}) repeats a grid point")
        table = np.empty((thetas.size, phis.size))
        table[i, j] = mine["ap"]
        filled = np.zeros(table.shape, dtype=bool)
        filled[i, j] = True
        if not filled.all():
            a, b = np.unravel_index(np.argmin(filled), filled.shape)  # first in grid order
            raise ValueError(f"{path}: {name} table is not a full regular grid "
                             f"(missing theta={thetas[a]}, phi={phis[b]})")
        tables.append(table)
    try:
        return APSurface(thetas, phis, *tables)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_g2_csv(path, est: G2Estimate) -> None:
    write_table(path, ["delay_ns", "g2", "ci_low", "ci_high", "masked"],
                [est.delay_ns, est.g2, est.ci_low, est.ci_high, est.masked])


def write_position_sweep_csv(path, sweep) -> None:
    write_table(path, ["lateral_um", "rel_rate", "rel_rate_const_ap"],
                [sweep.lateral_um, sweep.rel_rate, sweep.rel_rate_const_ap])
