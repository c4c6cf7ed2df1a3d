"""CSV interchange formats shared by the CLI, scripts and tests.

The program holds a trial's prepared and decided states as booleans
(True = bright); they become 'bright' / 'dark' text only here.  All
writers emit deterministic bytes for identical inputs: plain comma
separation, '\n' line endings, floats via repr so values round-trip.
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
from .photon_sim import BRIGHT, DARK, Dataset, Trajectory, as_dataset
from .rfcircuit import BiasCountCurve
from .timing import G2Estimate, TimeTagStream


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_rows(path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


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


def write_trajectories_csv(path, trajs: Dataset | Sequence[Trajectory]) -> None:
    """Long-format dump: one row per (trial, bin)."""
    ds = as_dataset(trajs)
    template = "".join([f"%s{j},%d\n" for j in range(ds.n_bins)])  # the rows of one trial
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRAJECTORY_DTYPE.names) + "\n")
        for trial_id, (row, label) in enumerate(zip(ds.counts, ds.labels.tolist())):
            bins = row.tolist()  # a row at a time, not the whole matrix as one list
            values = [f"{trial_id},{label},"] * (2 * len(bins))
            values[1::2] = bins
            fh.write(template % tuple(values))


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
    def rows():
        for stream in streams:
            for t in stream.t_ns:
                yield stream.channel, int(t)

    _write_rows(path, ["channel", "t_ns"], rows())


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
    durations = np.broadcast_to(np.asarray(durations_us, dtype=float), n)
    _write_rows(path, ["trial_id", "truth", "decision", "duration_us", "confidence"],
                zip(range(n), np.where(bright, BRIGHT, DARK),
                    np.where(decided_bright, BRIGHT, DARK), durations,
                    [""] * n if confidence is None else confidence, strict=True))


def write_bias_curve_csv(path, curve: BiasCountCurve) -> None:
    _write_rows(path, ["bias_ua", "counts"], zip(curve.bias_ua, curve.counts))


def read_bias_curve_csv(path) -> BiasCountCurve:
    rows = _read_table(path, [("bias_ua", float), ("counts", float)])
    return BiasCountCurve(rows["bias_ua"], rows["counts"])


def write_ap_surface_csv(path, surface: APSurface) -> None:
    def rows():
        for pol, table in (("TE", surface.ap_te), ("TM", surface.ap_tm)):
            for i, th in enumerate(surface.theta_deg):
                for j, ph in enumerate(surface.phi_deg):
                    yield pol, th, ph, table[i, j]

    _write_rows(path, ["polarization", "theta_deg", "phi_deg", "ap"], rows())


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
        table = np.empty((thetas.size, phis.size))
        table[i[on], j[on]] = mine["ap"][on]
        filled = np.zeros(table.shape, dtype=bool)
        filled[i[on], j[on]] = True
        if not filled.all():
            a, b = np.unravel_index(np.argmin(filled), filled.shape)  # first in grid order
            raise ValueError(f"{path}: {name} table is not a full regular grid "
                             f"(missing theta={thetas[a]}, phi={phis[b]})")
        tables.append(table)
    return APSurface(thetas, phis, *tables)


def write_g2_csv(path, est: G2Estimate) -> None:
    _write_rows(
        path,
        ["delay_ns", "g2", "ci_low", "ci_high", "masked"],
        zip(est.delay_ns, est.g2, est.ci_low, est.ci_high, est.masked),
    )


def write_position_sweep_csv(path, sweep) -> None:
    _write_rows(
        path,
        ["lateral_um", "rel_rate", "rel_rate_const_ap"],
        zip(sweep.lateral_um, sweep.rel_rate, sweep.rel_rate_const_ap),
    )


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p
