"""CSV interchange formats shared by the CLI, scripts and tests.

Every table is written from its columns by :func:`write_table` under one
rule set by each column's dtype: booleans as 'true' / 'false', floats
via repr so values round-trip, anything else via str.  Plain comma
separation and '\n' line endings make the bytes deterministic.  States
are booleans (True = bright) until they become 'bright' / 'dark' here.
Every reader checks the header, then reads the file in one
``np.loadtxt`` pass; a missing column, a short row or a field that does
not parse raises ValueError naming the file.

The trajectory file is long format, one row per (trial, bin), and does
not record the bin width: its reader takes the width as a required
keyword and returns a :class:`Dataset`, so every trial must have the
same length.
"""
from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .optics import APSurface
from .photon_sim import BRIGHT, DARK, Dataset
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


def _read_table(path, dtype) -> np.ndarray:
    """The columns named by a structured dtype, in file order: a header check, one loadtxt pass.

    The file is read as latin-1, so every byte loads; a quoted field
    reads as the csv module reads it.
    """
    dtype = np.dtype(dtype)
    with open(path, newline="", encoding="latin-1") as fh:
        header = next(csv.reader(fh), [])
    if not set(dtype.names).issubset(header):
        raise ValueError(f"{path}: expected columns {sorted(dtype.names)}")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1,
                              usecols=[header.index(c) for c in dtype.names], comments=None,
                              ndmin=1, encoding="latin-1", quotechar='"')
        except ValueError as exc:  # a short row or a field that does not parse
            raise ValueError(f"{path}: {exc}") from exc


# One field per column.  Labels stay bytes: the file is read as latin-1, so
# any label loads, and one longer than "bright" still reads as invalid.
_TRAJECTORY_DTYPE = np.dtype([("trial_id", np.int64), ("prepared", "S7"),
                              ("bin_index", np.int64), ("counts", np.int64)])


def _digits(values: np.ndarray, top: int) -> np.ndarray:
    """Non-negative integers of at most ``top`` as decimal byte strings."""
    return values.astype(f"S{len(str(top))}")


def _byte_rows(text: np.ndarray, end: bytes) -> np.ndarray:
    """Byte strings, each followed by ``end``, as rows of zero-padded bytes
    along one more axis at the end."""
    text = np.char.add(text, end)
    return text.view(np.uint8).reshape(*text.shape, text.itemsize)


def write_trajectories_csv(path, ds: Dataset) -> None:
    """Long-format dump: one row per (trial, bin).

    The rows are assembled as bytes, a block of about 2^15 at a time:
    each row is the trial's "id,label," head, the bin's "j," and the
    count's "c\n", laid side by side as zero-padded byte tables, and one
    pass drops the pad bytes.  A count's text is made once per distinct
    count in the block.
    """
    labels = _byte_rows(np.array([DARK, BRIGHT], dtype="S"), b",")
    bins = _byte_rows(_digits(np.arange(ds.n_bins), ds.n_bins), b",")
    step = max(1, (1 << 15) // max(ds.n_bins, 1))  # trials per block
    with open(path, "wb") as fh:
        fh.write(",".join(_TRAJECTORY_DTYPE.names).encode() + b"\n")
        for lo in range(0, len(ds) if ds.n_bins else 0, step):
            hi = min(lo + step, len(ds))
            head = np.concatenate([_byte_rows(_digits(np.arange(lo, hi), hi), b","),
                                   labels[ds.bright[lo:hi].astype(np.intp)]], axis=1)
            values, which = np.unique(ds[lo:hi].counts, return_inverse=True)
            counts = _byte_rows(_digits(values, values[-1]), b"\n")[which.ravel()]
            shape = (hi - lo, ds.n_bins)
            rows = np.concatenate([np.broadcast_to(head[:, None], (*shape, head.shape[-1])),
                                   np.broadcast_to(bins, (*shape, bins.shape[-1])),
                                   counts.reshape(*shape, -1)], axis=2)
            fh.write(rows[rows != 0].tobytes())


def read_trajectories_csv(path, *, bin_width_us: float) -> Dataset:
    """Read a long-format dump into a Dataset; rows may come in any order.

    The file does not record the bin width, so the caller supplies it.
    Trials come in ascending trial_id order; each trial's bins must run
    0..n-1, and every trial must have the same n.
    """
    rows = _read_table(path, _TRAJECTORY_DTYPE)
    if not rows.size:
        return Dataset(np.zeros((0, 0), dtype=np.int16), np.zeros(0, dtype=bool), bin_width_us)
    tid, label, bin_index = rows["trial_id"], rows["prepared"], rows["bin_index"]
    bright = label == BRIGHT.encode()
    bad = ~bright & (label != DARK.encode())
    if bad.any():
        first = int(np.argmax(bad))
        shown = label[first].decode("utf-8", "replace")
        raise ValueError(f"{path}: trial {tid[first]} has label {shown!r}; "
                         "expected 'bright' or 'dark'")

    # ids 0..T-1 in row order, as written, need no sort: every step is 0 or 1
    # (a negative step reads as a huge unsigned one)
    if tid[0] == 0 and (np.diff(tid).view(np.uint64) <= 1).all():
        trial_ids, trial = np.arange(tid[-1] + 1), tid
    else:
        trial_ids, trial = np.unique(tid, return_inverse=True)
    n_rows = np.bincount(trial)
    n_bright = np.bincount(trial[bright], minlength=trial_ids.size)
    mixed = (n_bright > 0) & (n_bright < n_rows)
    if mixed.any():
        raise ValueError(f"{path}: trial {trial_ids[np.argmax(mixed)]} has inconsistent labels")
    # a trial of n rows is whole when its bins fill its slots 0..n-1 once each
    inside = (bin_index >= 0) & (bin_index < n_rows[trial])
    slot = np.where(inside, (np.cumsum(n_rows) - n_rows)[trial] + bin_index, -1)
    hits = np.bincount(slot[inside], minlength=rows.size)
    whole = np.ones(trial_ids.size, dtype=bool)
    whole[trial[~inside | (hits[slot] != 1)]] = False
    if not whole.all():
        raise ValueError(
            f"{path}: trial {trial_ids[np.argmin(whole)]} has missing or duplicate bins")
    ragged = n_rows != n_rows[0]
    if ragged.any():
        k = int(np.argmax(ragged))
        raise ValueError(f"{path}: trials have different lengths (trial {trial_ids[0]} has "
                         f"{n_rows[0]} bins, trial {trial_ids[k]} has {n_rows[k]})")
    counts = np.empty(rows.size, dtype=np.int64)
    counts[slot] = rows["counts"]
    return Dataset(counts.reshape(trial_ids.size, n_rows[0]), n_bright > 0, bin_width_us)


def write_timetags_csv(path, streams: Sequence[TimeTagStream]) -> None:
    write_table(path, ["channel", "t_ns"],
                [np.repeat(np.array([s.channel for s in streams], dtype=object),
                           [s.t_ns.size for s in streams]),
                 # the empty array keeps an empty stream list to the header alone
                 np.concatenate([s.t_ns for s in streams] + [np.zeros(0, np.int64)])])


def read_timetags_csv(path, duration_ns: int | None = None) -> list[TimeTagStream]:
    """One stream per channel, in channel-name order; rows may come in any order."""
    rows = _read_table(path, [("channel", object), ("t_ns", np.int64)])
    if not rows.size:
        raise ValueError(f"{path}: no tags found")
    if duration_ns is None:
        duration_ns = int(rows["t_ns"].max()) + 1
    channels, channel = np.unique(rows["channel"], return_inverse=True)
    # names were written as UTF-8 and read as latin-1
    return [TimeTagStream(name.encode("latin-1").decode(), np.sort(rows["t_ns"][channel == k]),
                          duration_ns) for k, name in enumerate(channels)]


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
    return BiasCountCurve(rows["bias_ua"], rows["counts"])


def write_ap_surface_csv(path, surface: APSurface) -> None:
    """The TE table, then the TM table, each theta-major."""
    n_theta, n_phi = surface.ap_te.shape
    write_table(path, ["polarization", "theta_deg", "phi_deg", "ap"],
                [np.repeat(["TE", "TM"], n_theta * n_phi),
                 np.tile(np.repeat(surface.theta_deg, n_phi), 2),
                 np.tile(surface.phi_deg, 2 * n_theta),
                 np.concatenate([surface.ap_te.ravel(), surface.ap_tm.ravel()])])


def read_ap_surface_csv(path) -> APSurface:
    """TE and TM tables on the grid of the TE rows' distinct angles, in ascending order."""
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


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
