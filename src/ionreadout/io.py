"""CSV interchange formats shared by the CLI, scripts and tests.

All writers emit deterministic bytes for identical inputs: plain comma
separation, '\n' line endings, floats via repr so values round-trip.

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


_TRAJECTORY_COLUMNS = ("trial_id", "prepared", "bin_index", "counts")
# One field per column.  Labels stay bytes: the file is read as latin-1, so
# any label loads, and one longer than "bright" still reads as invalid.
_TRAJECTORY_DTYPE = np.dtype([("trial_id", np.int64), ("prepared", "S7"),
                              ("bin_index", np.int64), ("counts", np.int64)])


def write_trajectories_csv(path, trajs: Dataset | Sequence[Trajectory]) -> None:
    """Long-format dump: one row per (trial, bin)."""
    ds = as_dataset(trajs)
    template = "".join([f"%s{j},%d\n" for j in range(ds.n_bins)])  # the rows of one trial
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRAJECTORY_COLUMNS) + "\n")
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
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    if not set(_TRAJECTORY_COLUMNS).issubset(header):
        raise ValueError(f"{path}: expected columns {sorted(_TRAJECTORY_COLUMNS)}")
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        rows = np.loadtxt(path, dtype=_TRAJECTORY_DTYPE, delimiter=",", skiprows=1,
                          usecols=[header.index(c) for c in _TRAJECTORY_COLUMNS],
                          comments=None, ndmin=1, encoding="latin-1")
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
    tags: dict[str, list[int]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"channel", "t_ns"}.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns ['channel', 't_ns']")
        for row in reader:
            tags.setdefault(row["channel"], []).append(int(row["t_ns"]))
    if not tags:
        raise ValueError(f"{path}: no tags found")
    if duration_ns is None:
        duration_ns = max(max(v) for v in tags.values() if v) + 1
    return [
        TimeTagStream(channel=ch, t_ns=np.array(sorted(v), dtype=np.int64),
                      duration_ns=duration_ns)
        for ch, v in sorted(tags.items())
    ]


def write_results_csv(path, rows) -> None:
    """Classification results: (trial_id, truth, decision, duration_us, confidence)."""
    _write_rows(path, ["trial_id", "truth", "decision", "duration_us", "confidence"], rows)


def write_bias_curve_csv(path, curve: BiasCountCurve) -> None:
    _write_rows(path, ["bias_ua", "counts"], zip(curve.bias_ua, curve.counts))


def read_bias_curve_csv(path) -> BiasCountCurve:
    bias, counts = [], []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not {"bias_ua", "counts"}.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns ['bias_ua', 'counts']")
        for row in reader:
            bias.append(float(row["bias_ua"]))
            counts.append(float(row["counts"]))
    return BiasCountCurve(np.asarray(bias), np.asarray(counts))


def write_ap_surface_csv(path, surface: APSurface) -> None:
    def rows():
        for pol, table in (("TE", surface.ap_te), ("TM", surface.ap_tm)):
            for i, th in enumerate(surface.theta_deg):
                for j, ph in enumerate(surface.phi_deg):
                    yield pol, th, ph, table[i, j]

    _write_rows(path, ["polarization", "theta_deg", "phi_deg", "ap"], rows())


def read_ap_surface_csv(path) -> APSurface:
    data: dict[str, dict[tuple[float, float], float]] = {"TE": {}, "TM": {}}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"polarization", "theta_deg", "phi_deg", "ap"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ValueError(f"{path}: expected columns {sorted(required)}")
        for row in reader:
            pol = row["polarization"].upper()
            if pol not in data:
                raise ValueError(f"{path}: polarization must be TE or TM, got {pol!r}")
            data[pol][(float(row["theta_deg"]), float(row["phi_deg"]))] = float(row["ap"])
    if not data["TE"] or not data["TM"]:
        raise ValueError(f"{path}: need both TE and TM tables")
    thetas = sorted({k[0] for k in data["TE"]})
    phis = sorted({k[1] for k in data["TE"]})
    tables = {}
    for pol in ("TE", "TM"):
        table = np.empty((len(thetas), len(phis)))
        for i, th in enumerate(thetas):
            for j, ph in enumerate(phis):
                if (th, ph) not in data[pol]:
                    raise ValueError(
                        f"{path}: {pol} table is not a full regular grid "
                        f"(missing theta={th}, phi={ph})"
                    )
                table[i, j] = data[pol][(th, ph)]
        tables[pol] = table
    return APSurface(np.asarray(thetas), np.asarray(phis), tables["TE"], tables["TM"])


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
