"""CSV interchange: round trips, deterministic bytes, format validation."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ionreadout import (
    APSurface,
    BiasCountCurve,
    Dataset,
    G2Estimate,
    PositionSweep,
    TimeTagStream,
    Trajectory,
)
from ionreadout import io as iio
from ionreadout.cli import main


def _read_lines(path):
    return path.read_text().splitlines()


def test_trajectory_round_trip(tmp_path):
    trajs = [
        Trajectory(prepared="bright", bins=np.array([3, 0, 2, 1], dtype=np.int16)),
        Trajectory(prepared="dark", bins=np.array([0, 0, 1, 0], dtype=np.int16)),
    ]
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, trajs)
    assert _read_lines(path)[:3] == ["trial_id,prepared,bin_index,counts",
                                     "0,bright,0,3", "0,bright,1,0"]
    back = iio.read_trajectories_csv(path, bin_width_us=0.5)
    assert isinstance(back, Dataset)
    assert back.bin_width_us == 0.5
    assert back.bright.tolist() == [True, False]
    assert np.array_equal(back.counts, np.stack([t.bins for t in trajs]))

    again = tmp_path / "trajs2.csv"
    iio.write_trajectories_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_trajectory_read_needs_bin_width(tmp_path):
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, [Trajectory("bright", np.array([1, 2]))])
    with pytest.raises(TypeError):
        iio.read_trajectories_csv(path)
    with pytest.raises(TypeError):
        iio.read_trajectories_csv(path, 0.5)


def test_trajectory_read_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    iio.write_trajectories_csv(path, [])
    back = iio.read_trajectories_csv(path, bin_width_us=2.0)
    assert len(back) == 0 and back.bin_width_us == 2.0


@given(
    counts=arrays(np.int64, st.tuples(st.integers(1, 5), st.integers(1, 12)),
                  elements=st.integers(0, 40) | st.integers(32_000, 70_000)),
    data=st.data(),
    bin_width_us=st.sampled_from([0.5, 1.0, 2.5]),
)
@settings(max_examples=60, deadline=None)
def test_trajectory_round_trip_property(tmp_path_factory, counts, data, bin_width_us):
    # int16 counts, and counts past 32767 that come back as int32
    bright = data.draw(arrays(bool, counts.shape[0]))
    ds = Dataset(counts, bright, bin_width_us)
    path = tmp_path_factory.mktemp("rt") / "trajs.csv"
    iio.write_trajectories_csv(path, ds)
    back = iio.read_trajectories_csv(path, bin_width_us=bin_width_us)
    assert back.counts.dtype == ds.counts.dtype
    assert np.array_equal(back.counts, ds.counts)
    assert np.array_equal(back.bright, ds.bright)
    assert back.bin_width_us == bin_width_us
    again = path.with_name("again.csv")
    iio.write_trajectories_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def _write_trajectory_rows(path, *rows):
    path.write_text("trial_id,prepared,bin_index,counts\n" + "".join(r + "\n" for r in rows),
                    encoding="utf-8")


def test_trajectory_read_validation(tmp_path):
    path = tmp_path / "bad.csv"
    _write_trajectory_rows(path, "0,bright,0,4", "0,bright,2,1")
    with pytest.raises(ValueError, match="trial 0 has missing or duplicate bins"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)

    _write_trajectory_rows(path, "0,dark,0,4", "0,dark,1,1", "3,dark,0,2", "3,dark,0,1")
    with pytest.raises(ValueError, match="trial 3 has missing or duplicate bins"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)

    _write_trajectory_rows(path, "0,bright,0,4", "0,dark,1,1")
    with pytest.raises(ValueError, match="trial 0 has inconsistent labels"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)

    path.write_text("trial,counts\n0,1\n")
    with pytest.raises(ValueError, match="expected columns"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)


def test_trajectory_read_rejects_ragged_trials(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("trial_id,prepared,bin_index,counts\n"
                    "0,bright,0,3\n0,bright,1,0\n0,bright,2,2\n"
                    "1,dark,0,0\n1,dark,1,1\n")
    with pytest.raises(ValueError, match=r"different lengths \(trial 0 has 3 bins, "
                                         r"trial 1 has 2\)"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)
    # the writer holds its records as one matrix too, so it writes no ragged file
    with pytest.raises(ValueError, match="equal length"):
        iio.write_trajectories_csv(tmp_path / "w.csv", [Trajectory("bright", np.array([3, 0, 2])),
                                                        Trajectory("dark", np.array([0, 1]))])
    assert not (tmp_path / "w.csv").exists()


def test_trajectory_read_accepts_rows_in_any_order(tmp_path):
    ds = Dataset(np.array([[3, 0, 2, 1], [0, 0, 1, 0], [5, 0, 0, 7]]),
                 np.array([True, False, False]), 1.0)
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, ds)
    header, *rows = _read_lines(path)
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    assert shuffled != rows
    path.write_text("\n".join([header, *shuffled]) + "\n")
    back = iio.read_trajectories_csv(path, bin_width_us=1.0)
    assert np.array_equal(back.counts, ds.counts)
    assert np.array_equal(back.bright, ds.bright)


def test_trajectory_read_rejects_unknown_label(tmp_path):
    path = tmp_path / "bad.csv"
    for label, shown in [("dim", "dim"), ("1", "1"), ("brightx", "brightx"), ("暗", "暗"),
                         ("bright-and-more", "bright-")]:  # a long label is cut to 7 bytes
        _write_trajectory_rows(path, "0,bright,0,4", f"1,{label},0,1")
        with pytest.raises(ValueError, match=f"trial 1 has label '{shown}'; "
                                             "expected 'bright' or 'dark'"):
            iio.read_trajectories_csv(path, bin_width_us=1.0)


def test_timetag_round_trip(tmp_path):
    streams = [
        TimeTagStream("A", np.array([3, 17, 99], dtype=np.int64), 1000),
        TimeTagStream("B", np.array([5, 40], dtype=np.int64), 1000),
    ]
    path = tmp_path / "tags.csv"
    iio.write_timetags_csv(path, streams)
    assert _read_lines(path)[0] == "channel,t_ns"
    back = iio.read_timetags_csv(path, duration_ns=1000)
    assert [s.channel for s in back] == ["A", "B"]
    for orig, rt in zip(streams, back):
        assert np.array_equal(rt.t_ns, orig.t_ns)
        assert rt.duration_ns == 1000

    inferred = iio.read_timetags_csv(path)
    assert inferred[0].duration_ns == 100  # one past the latest tag

    empty = tmp_path / "none.csv"
    empty.write_text("channel,t_ns\n")
    with pytest.raises(ValueError, match="no tags"):
        iio.read_timetags_csv(empty)


def test_results_header(tmp_path):
    bright = np.array([True, True, False, False])
    decided_bright = np.array([True, False, True, False])
    header = "trial_id,truth,decision,duration_us,confidence\n"
    # adaptive results: durations from bins consumed, one confidence per trial
    path = tmp_path / "bayes.csv"
    iio.write_results_csv(path, bright, decided_bright, np.array([12, 7, 1, 3]) * 0.5,
                          np.array([0.9991, 0.5, 1.0, 1 / 3]))
    assert path.read_bytes() == (header + "0,bright,bright,6.0,0.9991\n1,bright,dark,3.5,0.5\n"
                                 "2,dark,bright,0.5,1.0\n3,dark,dark,1.5,0.3333333333333333\n"
                                 ).encode()
    # threshold results: one duration for every trial and an empty confidence field
    path = tmp_path / "threshold.csv"
    iio.write_results_csv(path, bright, decided_bright, 125.0)
    assert path.read_bytes() == (header + "0,bright,bright,125.0,\n1,bright,dark,125.0,\n"
                                 "2,dark,bright,125.0,\n3,dark,dark,125.0,\n").encode()
    # label strings are not states: "dark" must not be written as bright
    labels = np.where(bright, "bright", "dark")
    with pytest.raises(ValueError, match="boolean arrays"):
        iio.write_results_csv(path, labels, decided_bright, 125.0)
    with pytest.raises(ValueError, match="boolean arrays"):
        iio.write_results_csv(path, bright, labels, 125.0)


def test_bias_curve_round_trip(tmp_path):
    curve = BiasCountCurve(np.array([0.0, 2.5, 5.0, 8.9]),
                           np.array([0.0, 10.0, 950.37, 1000.0]))
    path = tmp_path / "curve.csv"
    iio.write_bias_curve_csv(path, curve)
    back = iio.read_bias_curve_csv(path)
    assert np.array_equal(back.bias_ua, curve.bias_ua)
    assert np.array_equal(back.counts, curve.counts)
    again = tmp_path / "curve2.csv"
    iio.write_bias_curve_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_ap_surface_round_trip(tmp_path):
    surf = APSurface.synthetic_placeholder()
    path = tmp_path / "ap.csv"
    iio.write_ap_surface_csv(path, surf)
    back = iio.read_ap_surface_csv(path)
    assert np.array_equal(back.theta_deg, surf.theta_deg)
    assert np.array_equal(back.phi_deg, surf.phi_deg)
    assert np.array_equal(back.ap_te, surf.ap_te)
    assert np.array_equal(back.ap_tm, surf.ap_tm)


def test_ap_surface_read_validation(tmp_path):
    path = tmp_path / "ap.csv"
    header = "polarization,theta_deg,phi_deg,ap\n"
    full = [
        "TE,0.0,0.0,0.5", "TE,0.0,90.0,0.5", "TE,45.0,0.0,0.4", "TE,45.0,90.0,0.4",
        "TM,0.0,0.0,0.5", "TM,0.0,90.0,0.5", "TM,45.0,0.0,0.4", "TM,45.0,90.0,0.4",
    ]
    path.write_text(header + "\n".join(full) + "\n")
    surf = iio.read_ap_surface_csv(path)
    assert surf.ap_te.shape == (2, 2)

    path.write_text(header + "\n".join(full[:-1]) + "\n")
    with pytest.raises(ValueError, match="full regular grid"):
        iio.read_ap_surface_csv(path)

    path.write_text(header + "XX,0.0,0.0,0.5\n")
    with pytest.raises(ValueError, match="TE or TM"):
        iio.read_ap_surface_csv(path)

    path.write_text(header + "\n".join(full[:4]) + "\n")
    with pytest.raises(ValueError, match="both TE and TM"):
        iio.read_ap_surface_csv(path)


def test_g2_csv_format(tmp_path):
    est = G2Estimate(
        delay_ns=np.array([-1.0, 0.0, 1.0]),
        g2=np.array([1.0, 0.25, 0.9]),
        ci_low=np.array([0.9, 0.2, 0.8]),
        ci_high=np.array([1.1, 0.3, 1.0]),
        masked=np.array([False, True, False]),
        n_pairs=np.array([100, 25, 90]),
        bin_width_ns=1.0,
    )
    path = tmp_path / "g2.csv"
    iio.write_g2_csv(path, est)
    lines = _read_lines(path)
    assert lines[0] == "delay_ns,g2,ci_low,ci_high,masked"
    assert len(lines) == 4
    assert lines[2].endswith(",true")
    assert lines[1].endswith(",false")


def test_position_sweep_csv(tmp_path):
    sweep = PositionSweep(
        lateral_um=np.array([0.0, 8.0]),
        rel_rate=np.array([1.0, 0.93]),
        rel_rate_const_ap=np.array([1.0, 0.95]),
    )
    path = tmp_path / "sweep.csv"
    iio.write_position_sweep_csv(path, sweep)
    lines = _read_lines(path)
    assert lines[0] == "lateral_um,rel_rate,rel_rate_const_ap"
    assert lines[1] == "0.0,1.0,1.0"


def test_ensure_dir(tmp_path):
    target = tmp_path / "a" / "b"
    made = iio.ensure_dir(target)
    assert made.is_dir()
    assert iio.ensure_dir(target) == made


# ------------------------------------------------ side formats: round trips

_NAMES = st.text(st.characters(exclude_categories=("Cs", "Cc")), max_size=24)


@given(data=st.data(), names=st.lists(_NAMES, min_size=1, max_size=4, unique=True))
@settings(max_examples=60, deadline=None)
def test_timetag_round_trip_property(tmp_path_factory, data, names):
    duration_ns = 10**12
    streams = [TimeTagStream(name, np.sort(data.draw(arrays(
        np.int64, st.integers(1, 20), elements=st.integers(0, duration_ns - 1)))), duration_ns)
        for name in sorted(names)]
    path = tmp_path_factory.mktemp("rt") / "tags.csv"
    iio.write_timetags_csv(path, streams)
    header, *rows = path.read_bytes().split(b"\n")[:-1]
    shuffled = path.with_name("shuffled.csv")
    order = data.draw(st.permutations(range(len(rows))))
    shuffled.write_bytes(b"\n".join([header, *(rows[i] for i in order)]) + b"\n")
    for source in (path, shuffled):
        back = iio.read_timetags_csv(source, duration_ns=duration_ns)
        assert [s.channel for s in back] == [s.channel for s in streams]
        for orig, rt in zip(streams, back):
            assert np.array_equal(rt.t_ns, orig.t_ns) and rt.duration_ns == duration_ns
        again = path.with_name("again.csv")
        iio.write_timetags_csv(again, back)
        assert again.read_bytes() == path.read_bytes()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@given(bias=st.lists(_FLOATS, min_size=2, max_size=12, unique=True), data=st.data())
@settings(max_examples=60, deadline=None)
def test_bias_curve_round_trip_property(tmp_path_factory, bias, data):
    bias = np.sort(np.array(bias))
    counts = data.draw(arrays(float, bias.size, elements=st.floats(0, 1e300)))
    curve = BiasCountCurve(bias, counts)
    path = tmp_path_factory.mktemp("rt") / "curve.csv"
    iio.write_bias_curve_csv(path, curve)
    back = iio.read_bias_curve_csv(path)
    assert np.array_equal(back.bias_ua, curve.bias_ua)
    assert np.array_equal(back.counts, curve.counts)
    again = path.with_name("again.csv")
    iio.write_bias_curve_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


_ANGLES = st.lists(st.floats(-360, 360), min_size=2, max_size=5, unique=True).map(sorted)


@given(thetas=_ANGLES, phis=_ANGLES, data=st.data())
@settings(max_examples=60, deadline=None)
def test_ap_surface_round_trip_property(tmp_path_factory, thetas, phis, data):
    shape = (len(thetas), len(phis))
    te, tm = (data.draw(arrays(float, shape, elements=st.floats(0, 1))) for _ in range(2))
    surf = APSurface(np.array(thetas), np.array(phis), te, tm)
    path = tmp_path_factory.mktemp("rt") / "ap.csv"
    iio.write_ap_surface_csv(path, surf)
    header, *rows = path.read_text().splitlines()
    order = data.draw(st.permutations(range(len(rows))))
    lower = data.draw(st.booleans())  # the reader upper-cases the polarization
    shuffled = path.with_name("shuffled.csv")
    shuffled.write_text("\n".join([header, *(rows[i].lower() if lower else rows[i]
                                             for i in order)]) + "\n")
    for source in (path, shuffled):
        back = iio.read_ap_surface_csv(source)
        for field in ("theta_deg", "phi_deg", "ap_te", "ap_tm"):
            assert np.array_equal(getattr(back, field), getattr(surf, field)), field
        again = path.with_name("again.csv")
        iio.write_ap_surface_csv(again, back)
        assert again.read_bytes() == path.read_bytes()


# ------------------------------------------- malformed files: input errors

# reader, CLI command that reads the file, header, one good row
_READERS = {
    "trajectories": (lambda p: iio.read_trajectories_csv(p, bin_width_us=1.0),
                     ["classify", "--bin-width-us", "1", "--threshold", "--in"],
                     "trial_id,prepared,bin_index,counts", "0,bright,0,4"),
    "timetags": (iio.read_timetags_csv, ["g2", "--in"], "channel,t_ns", "A,5"),
    "bias_curve": (iio.read_bias_curve_csv, ["rfmodel", "--rf-off"], "bias_ua,counts", "1.5,10.0"),
    "ap_surface": (iio.read_ap_surface_csv, ["optics", "--ap-file"],
                   "polarization,theta_deg,phi_deg,ap", "TE,0.0,0.0,0.5"),
}


@pytest.mark.parametrize("fmt", list(_READERS))
@pytest.mark.parametrize("defect", ["short row", "non-numeric field", "missing column"])
def test_malformed_files_are_input_errors(tmp_path, capsys, fmt, defect):
    read, command, header, row = _READERS[fmt]
    *first, last = row.split(",")
    lines = {"short row": [header, row, ",".join(first)],
             "non-numeric field": [header, row, ",".join([*first, "x"])],
             "missing column": [header.rsplit(",", 1)[0], ",".join(first)]}[defect]
    path = tmp_path / f"{fmt}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        read(path)
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
