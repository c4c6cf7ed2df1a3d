"""CSV interchange formats shared by the CLI, scripts and tests.

All writers emit deterministic bytes for identical inputs: plain comma
separation, '\n' line endings, floats via repr so values round-trip.
"""
from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .optics import APSurface
from .photon_sim import BRIGHT, DARK, Dataset, Trajectory
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


def write_trajectories_csv(path, trajs: Dataset | Sequence[Trajectory]) -> None:
    """Long-format dump: one row per (trial, bin)."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRAJECTORY_COLUMNS) + "\n")
        for trial_id, traj in enumerate(trajs):
            head = f"{trial_id},{traj.prepared},"
            fh.write("".join([f"{head}{j},{c}\n" for j, c in enumerate(traj.bins.tolist())]))


def read_trajectories_csv(path, bin_width_us: float = 1.0) -> list[Trajectory]:
    """Read a long-format dump; rows may come in any order.

    Trials may differ in length; each trial's bins must run 0..n-1.
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), [])
    if not set(_TRAJECTORY_COLUMNS).issubset(header):
        raise ValueError(f"{path}: expected columns {sorted(_TRAJECTORY_COLUMNS)}")
    tid_col, label_col, bin_col, counts_col = (header.index(c) for c in _TRAJECTORY_COLUMNS)

    def columns(usecols, dtype) -> np.ndarray:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, dtype=dtype, delimiter=",", skiprows=1, usecols=usecols,
                              comments=None, ndmin=2)

    label = columns((label_col,), str)[:, 0]
    if not label.size:
        return []
    tid, bin_index, counts = columns((tid_col, bin_col, counts_col), np.int64).T
    bad = (label != BRIGHT) & (label != DARK)
    if bad.any():
        first = int(np.argmax(bad))
        raise ValueError(f"{path}: trial {tid[first]} has label {str(label[first])!r}; "
                         "expected 'bright' or 'dark'")

    order = np.lexsort((bin_index, tid))
    bright = (label == BRIGHT)[order]
    tid, bin_index, counts = tid[order], bin_index[order], counts[order]
    starts = np.flatnonzero(np.diff(tid, prepend=tid[0] - 1))
    trial_of_row = np.repeat(np.arange(starts.size), np.diff(starts, append=tid.size))
    mixed = bright != bright[starts][trial_of_row]
    if mixed.any():
        raise ValueError(f"{path}: trial {tid[np.argmax(mixed)]} has inconsistent labels")
    gaps = bin_index != np.arange(tid.size) - starts[trial_of_row]
    if gaps.any():
        raise ValueError(f"{path}: trial {tid[np.argmax(gaps)]} has missing or duplicate bins")
    return [
        Trajectory(prepared=BRIGHT if bright[s] else DARK, bins=b, bin_width_us=bin_width_us)
        for s, b in zip(starts, np.split(counts, starts[1:]))
    ]


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
