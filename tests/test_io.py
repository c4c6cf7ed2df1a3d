"""CSV interchange: round trips, deterministic bytes, format validation."""
import os
import re
import threading

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
)
from ionreadout import io as iio
from ionreadout.cli import main


def _read_lines(path):
    return path.read_text().splitlines()


def test_trajectory_round_trip(tmp_path):
    counts = np.array([[3, 0, 2, 1], [0, 0, 1, 0]], dtype=np.int16)
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, Dataset(counts, np.array([True, False]), 1.0))
    assert _read_lines(path)[:3] == ["trial_id,prepared,bin_index,counts",
                                     "0,bright,0,3", "0,bright,1,0"]
    back = iio.read_trajectories_csv(path, bin_width_us=0.5)
    assert isinstance(back, Dataset)
    assert back.bin_width_us == 0.5
    assert back.bright.tolist() == [True, False]
    assert np.array_equal(back.counts, counts)

    again = tmp_path / "trajs2.csv"
    iio.write_trajectories_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_trajectory_writer_matches_one_formatted_line_per_row(tmp_path):
    """The byte-table writer gives the bytes of one f-string per row, across
    blocks, across digit boundaries and for wide counts."""
    rng = np.random.default_rng(4)
    wide = rng.poisson(3, size=(150, 700))  # blocks of 46 trials of 700 bins
    wide[3, 5] = 10**7
    wide[140, 0] = 2**40
    # ids and bins cross 9 -> 10, 99 -> 100 and 999 -> 1000; with 1001 bins a
    # block holds 32 trials, and the second block's counts are all 0
    long = rng.poisson(2, size=(40, 1001))
    long[:, [9, 10, 99, 100, 999, 1000]] = [0, 9, 10, 2**40, 9, 10]
    long[32:] = 0
    one_bin = np.array([0, 9, 10, 2**40] * 250 + [7])[:, None]  # ids 0..1000 in one block
    for counts in (wide, long, one_bin, np.zeros((3, 5), dtype=np.int8)):
        bright = rng.random(len(counts)) < 0.5
        path = tmp_path / "trajs.csv"
        iio.write_trajectories_csv(path, Dataset(counts, bright, 1.0))
        want = "".join(f"{i},{'bright' if bright[i] else 'dark'},{j},{c}\n"
                       for i, row in enumerate(counts.tolist()) for j, c in enumerate(row))
        assert path.read_bytes() == ("trial_id,prepared,bin_index,counts\n" + want).encode()


def test_trajectory_writer_refuses_trials_without_bins(tmp_path):
    # a header alone would read back as no trials at all
    path = tmp_path / "trajs.csv"
    with pytest.raises(ValueError, match="cannot write 3 trials with no bins"):
        iio.write_trajectories_csv(path, Dataset(np.zeros((3, 0), dtype=int),
                                                 np.ones(3, dtype=bool), 1.0))
    assert not path.exists()


def test_trajectory_read_needs_bin_width(tmp_path):
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, Dataset(np.array([[1, 2]]), np.array([True]), 1.0))
    with pytest.raises(TypeError):
        iio.read_trajectories_csv(path)
    with pytest.raises(TypeError):
        iio.read_trajectories_csv(path, 0.5)


def test_trajectory_read_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    iio.write_trajectories_csv(path, Dataset(np.zeros((0, 0), dtype=int), np.zeros(0, bool), 1.0))
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
    # small records come back as int8 or int16 and counts past 32767 as int32,
    # each in the type Dataset(counts) picks from the largest record total
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

    _write_trajectory_rows(path, "0,dark,0,0", f"5,bright,0,{2**62}", f"5,bright,1,{2**62}")
    with pytest.raises(ValueError, match="trial 5 has counts totalling more than about 9.2e18"):
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


def test_trajectory_read_sorts_any_trial_ids(tmp_path):
    path = tmp_path / "trajs.csv"
    rows = ["9,bright,1,2", "5,dark,0,0", "9,bright,0,1", "5,dark,1,3"]
    for order in ([0, 1, 2, 3], [3, 0, 2, 1], [1, 3, 2, 0]):
        _write_trajectory_rows(path, *[rows[i] for i in order])
        back = iio.read_trajectories_csv(path, bin_width_us=1.0)
        assert np.array_equal(back.counts, [[0, 3], [1, 2]])  # trial 5, then trial 9
        assert back.bright.tolist() == [False, True]
    # in row order but with a gap, or with a trial's rows apart: not the writer's order
    for rows in (["0,dark,0,4", "0,dark,1,0", "2,bright,0,1", "2,bright,1,6"],
                 ["0,dark,0,4", "1,bright,0,1", "0,dark,1,0", "1,bright,1,6"]):
        _write_trajectory_rows(path, *rows)
        back = iio.read_trajectories_csv(path, bin_width_us=1.0)
        assert np.array_equal(back.counts, [[4, 0], [1, 6]])
        assert back.bright.tolist() == [False, True]


def test_trajectory_read_rejects_unknown_label(tmp_path):
    path = tmp_path / "bad.csv"
    for label, shown in [("dim", "dim"), ("1", "1"), ("brightx", "brightx"), ("暗", "暗"),
                         ("bright-and-more", "bright-")]:  # a long label is cut to 7 bytes
        _write_trajectory_rows(path, "0,bright,0,4", f"1,{label},0,1")
        with pytest.raises(ValueError, match=f"trial 1 has label '{shown}'; "
                                             "expected 'bright' or 'dark'"):
            iio.read_trajectories_csv(path, bin_width_us=1.0)


def _outcome(path):
    """What reading a trajectory file gives: the Dataset's fields, or the error."""
    try:
        ds = iio.read_trajectories_csv(path, bin_width_us=0.5)
    except ValueError as exc:
        return str(exc)
    return ds.prefix.dtype, ds.prefix.tolist(), ds.bright.tolist(), ds.bin_width_us


_WRITTEN = ["0,bright,0,3", "0,bright,1,0", "0,bright,2,2", "0,bright,3,1",
            "1,dark,0,0", "1,dark,1,0", "1,dark,2,1", "1,dark,3,0"]


@pytest.mark.parametrize("rows", [
    _WRITTEN,
    [_WRITTEN[i] for i in np.random.default_rng(0).permutation(len(_WRITTEN))],
    ["9,bright,1,2", "5,dark,0,0", "9,bright,0,1", "5,dark,1,3"],
    ["0,dark,0,4", "0,dark,1,0", "2,bright,0,1", "2,bright,1,6"],
    ["0,dark,0,4", "1,bright,0,1", "0,dark,1,0", "1,bright,1,6"],
    ["-3,dark,1,4", "7,bright,0,1", "-3,dark,0,0", "7,bright,1,70000"],
    ["0,bright,0,4", "0,bright,2,1"],
    ["0,dark,0,4", "0,dark,1,1", "3,dark,0,2", "3,dark,0,1"],
    ["0,bright,0,4", "0,dark,1,1"],
    ["0,bright,0,3", "0,bright,1,0", "0,bright,2,2", "1,dark,0,0", "1,dark,1,1"],
    ["0,bright,0,4", "1,dim,0,1"],
    ["0,bright,0,4", "1,bright-and-more,0,1"],
    ["0,bright,0,4", "0,bright,1,-2"],
    ["0,dark,0,0", f"5,bright,0,{2**62}", f"5,bright,1,{2**62}"],
])
def test_trajectory_read_in_tiny_blocks_gives_the_same_outcome(tmp_path, monkeypatch, rows):
    path = tmp_path / "trajs.csv"
    _write_trajectory_rows(path, *rows)
    whole = _outcome(path)
    for block in (1, 2, 3):  # rows per block
        monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
        assert _outcome(path) == whole


def test_trajectory_read_joins_trials_across_blocks(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    ds = Dataset(rng.poisson(3, (7, 5)), rng.random(7) < 0.5, 0.5)
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, ds)
    header, *rows = _read_lines(path)
    monkeypatch.setattr(iio, "_BLOCK_ROWS", 1)  # one row per block
    back = iio.read_trajectories_csv(path, bin_width_us=0.5)
    assert back.prefix.dtype == ds.prefix.dtype
    assert np.array_equal(back.prefix, ds.prefix) and np.array_equal(back.bright, ds.bright)

    label = {i: "bright" if ds.bright[i] else "dark" for i in range(7)}
    for last, problem in [
        (f"3,{label[3]},2,9", "trial 3 has missing or duplicate bins"),
        ("6,dim,0,1", "trial 6 has label 'dim'; expected 'bright' or 'dark'"),
        (f"6,{label[6]},4,-1", "trial 6 has a negative count (-1) in bin 4"),
        (f"6,{label[6]},4,x", f"after {len(rows)} rows, could not convert string 'x'"),
    ]:
        _write_trajectory_rows(path, *rows, last)
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(problem)):
            iio.read_trajectories_csv(path, bin_width_us=0.5)


@pytest.mark.parametrize("last, dtype", [(0, np.int8), (1, np.int16)])
def test_trajectory_read_types_the_matrix_by_the_largest_record_total(tmp_path, monkeypatch,
                                                                       last, dtype):
    # trial 1 totals 127, which int8 holds, or 128, which it does not; in small
    # blocks the total crosses 127 only after trial 1's first rows are stored
    ds = Dataset(np.array([[3, 0, 2], [120, 7, last]]), np.array([False, True]), 0.5)
    assert ds.prefix.dtype == dtype and ds.prefix[1, -1] == 127 + last
    path, backwards = tmp_path / "trajs.csv", tmp_path / "backwards.csv"
    iio.write_trajectories_csv(path, ds)
    header, *rows = _read_lines(path)
    _write_trajectory_rows(backwards, *rows[::-1])
    for block in (iio._BLOCK_ROWS, 1, 2, 3):
        monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
        for source in (path, backwards):
            back = iio.read_trajectories_csv(source, bin_width_us=0.5)
            assert back.prefix.dtype == dtype
            assert np.array_equal(back.prefix, ds.prefix)
            assert np.array_equal(back.bright, ds.bright)


def test_trajectory_read_names_what_cannot_fit(tmp_path):
    # more cells than the file has rows: the reader stops filling its matrix
    # and still names the defect
    path = tmp_path / "trajs.csv"
    _write_trajectory_rows(path, "0,dark,0,1", "0,dark,1,1",
                           *(f"1,bright,{j},2" for j in range(100)))
    with pytest.raises(ValueError, match=r"different lengths \(trial 0 has 2 bins, "
                                         r"trial 1 has 100\)"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)
    _write_trajectory_rows(path, "0,dark,0,1", f"0,dark,{10**15},2")
    with pytest.raises(ValueError, match="trial 0 has missing or duplicate bins"):
        iio.read_trajectories_csv(path, bin_width_us=1.0)


def test_trajectory_read_from_a_pipe(tmp_path, monkeypatch):
    # a pipe has no size to bound the matrix by, so the matrix grows as it fills
    rng = np.random.default_rng(9)
    ds = Dataset(rng.poisson(3, (40, 30)), rng.random(40) < 0.5, 0.5)
    path, fifo = tmp_path / "trajs.csv", tmp_path / "fifo"
    iio.write_trajectories_csv(path, ds)
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()), daemon=True)
    writer.start()
    monkeypatch.setattr(iio, "_BLOCK_ROWS", 3)  # a few rows per block
    back = iio.read_trajectories_csv(fifo, bin_width_us=0.5)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert back.prefix.dtype == ds.prefix.dtype
    assert np.array_equal(back.prefix, ds.prefix) and np.array_equal(back.bright, ds.bright)


def test_trajectory_read_keeps_a_quoted_newline_in_its_label(tmp_path, monkeypatch):
    # split into lines, the label's two halves would join into "bright"; in
    # blocks of one row, the quoted newline ends the first block or lies
    # where a block of one line would end
    path = tmp_path / "trajs.csv"
    for rows in (['0,"bri\nght",0,4', "1,dark,0,2"], ["1,dark,0,2", '0,"bri\nght",0,4']):
        _write_trajectory_rows(path, *rows)
        for block in (iio._BLOCK_ROWS, 1, 2, 3):
            monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
            with pytest.raises(ValueError, match=re.escape(
                    f"{path}: trial 0 has label 'bri\\nght'; expected 'bright' or 'dark'")):
                iio.read_trajectories_csv(path, bin_width_us=1.0)


def test_trajectory_read_of_whole_blocks(tmp_path, monkeypatch):
    # the last block ends the file exactly, so one more read finds no rows
    rng = np.random.default_rng(10)
    ds = Dataset(rng.poisson(3, (4, 3)), rng.random(4) < 0.5, 0.5)
    path = tmp_path / "trajs.csv"
    iio.write_trajectories_csv(path, ds)
    for block in (1, 2, 3, 4, 6, 12):
        monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
        back = iio.read_trajectories_csv(path, bin_width_us=0.5)
        assert np.array_equal(back.prefix, ds.prefix) and np.array_equal(back.bright, ds.bright)
    monkeypatch.undo()
    n = 2 * iio._BLOCK_ROWS // 64
    ds = Dataset(rng.poisson(3, (n, 64)), np.arange(n) % 2 == 0, 0.5)
    iio.write_trajectories_csv(path, ds)
    back = iio.read_trajectories_csv(path, bin_width_us=0.5)
    assert np.array_equal(back.prefix, ds.prefix) and np.array_equal(back.bright, ds.bright)


def test_cli_names_the_file_and_trial_of_a_negative_count(tmp_path, capsys):
    path = tmp_path / "neg.csv"
    _write_trajectory_rows(path, "0,bright,0,1", "0,bright,1,-3")
    assert main(["calibrate", "--in", str(path), "--bin-width-us", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: trial 0 has a negative count (-3) in bin 1\n"


def test_trajectory_read_holds_only_the_matrix(tmp_path, peak_rise):
    # the matrix allocated for the file's size costs what its trials fill;
    # holding the parsed rows (about 60 bytes each at 2 x 10^6 rows) would
    # break the bound
    rng = np.random.default_rng(5)
    ds = Dataset(rng.poisson(0.3, (4445, 450)), rng.random(4445) < 0.5, 1.0)
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    iio.write_trajectories_csv(big, ds)
    iio.write_trajectories_csv(small, ds[:30])
    rise, prefix_bytes, cells = peak_rise(
        "from ionreadout import io",
        f"io.read_trajectories_csv({str(small)!r}, bin_width_us=1.0)",
        f"ds = io.read_trajectories_csv({str(big)!r}, bin_width_us=1.0)",
        "ds.prefix.nbytes, ds.n_bins * len(ds)")
    assert cells == 2_000_250 and prefix_bytes == 2 * cells  # int16 prefix sums
    assert 0 < rise <= prefix_bytes + 4 * 2**20, f"rise {rise / 2**20:.1f} MiB"


def test_timetag_read_holds_only_the_ticks(tmp_path, peak_rise):
    # one Python string per row for the channel column (about 50 bytes at
    # 10^6 rows) would break the bound; blocks grouped by channel do not
    rng = np.random.default_rng(6)
    streams = [TimeTagStream(name, np.sort(rng.integers(0, 10**12, 500_000)), 10**12)
               for name in ("A", "B")]
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    iio.write_timetags_csv(big, streams)
    iio.write_timetags_csv(small, [TimeTagStream(s.channel, s.t_ns[:100], 10**12)
                                   for s in streams])
    rise, tick_bytes = peak_rise(
        "from ionreadout import io",
        f"io.read_timetags_csv({str(small)!r})",
        f"streams = io.read_timetags_csv({str(big)!r})",
        "sum(s.t_ns.nbytes for s in streams)")
    assert tick_bytes == 8 * 10**6
    assert 0 < rise <= 4 * tick_bytes, f"rise {rise / 2**20:.1f} MiB"


def test_timetag_round_trip(tmp_path):
    streams = [
        TimeTagStream("A", np.array([3, 17, 99], dtype=np.int64), 1000),
        TimeTagStream('B, "quoted" é', np.array([5, 40], dtype=np.int64), 1000),
    ]
    path = tmp_path / "tags.csv"
    iio.write_timetags_csv(path, streams)
    assert path.read_bytes() == ('channel,t_ns\nA,3\nA,17\nA,99\n'
                                 '"B, ""quoted"" é",5\n"B, ""quoted"" é",40\n').encode()
    back = iio.read_timetags_csv(path, duration_ns=1000)
    assert [s.channel for s in back] == ["A", 'B, "quoted" é']
    for orig, rt in zip(streams, back):
        assert np.array_equal(rt.t_ns, orig.t_ns)
        assert rt.duration_ns == 1000

    inferred = iio.read_timetags_csv(path)
    assert inferred[0].duration_ns == 100  # one past the latest tag

    empty = tmp_path / "none.csv"
    iio.write_timetags_csv(empty, [])
    assert empty.read_bytes() == b"channel,t_ns\n"
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
    assert path.read_bytes() == b"bias_ua,counts\n0.0,0.0\n2.5,10.0\n5.0,950.37\n8.9,1000.0\n"
    back = iio.read_bias_curve_csv(path)
    assert np.array_equal(back.bias_ua, curve.bias_ua)
    assert np.array_equal(back.counts, curve.counts)
    again = tmp_path / "curve2.csv"
    iio.write_bias_curve_csv(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_ap_surface_round_trip(tmp_path):
    path = tmp_path / "ap.csv"
    # TE then TM, each theta-major
    iio.write_ap_surface_csv(path, APSurface(np.array([0.0, 45.0]), np.array([0.0, 90.0]),
                                             np.array([[0.5, 0.25], [0.4, 0.1]]),
                                             np.array([[0.5, 0.75], [0.3, 1.0]])))
    assert path.read_bytes() == (
        b"polarization,theta_deg,phi_deg,ap\n"
        b"TE,0.0,0.0,0.5\nTE,0.0,90.0,0.25\nTE,45.0,0.0,0.4\nTE,45.0,90.0,0.1\n"
        b"TM,0.0,0.0,0.5\nTM,0.0,90.0,0.75\nTM,45.0,0.0,0.3\nTM,45.0,90.0,1.0\n")

    surf = APSurface.synthetic_placeholder()
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

    # a TM row off the TE grid is not dropped
    path.write_text(header + "\n".join([*full, "TM,80,45,0.9", "TM,0,10,0.9"]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: row (TM, theta=80.0, phi=45.0) "
                                                   "lies off the TE grid")):
        iio.read_ap_surface_csv(path)

    # a repeated grid point is not overwritten by its last value
    path.write_text(header + "\n".join([*full, "TE,0,0,0.9"]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: row (TE, theta=0.0, phi=0.0, "
                                                   "ap=0.9) repeats a grid point")):
        iio.read_ap_surface_csv(path)

    path.write_text(header + "\n".join([*full[:-1], "TM,45.0,90.0,1.5"]) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ap_tm values must lie in [0, 1]")):
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
    assert path.read_bytes() == (b"delay_ns,g2,ci_low,ci_high,masked\n-1.0,1.0,0.9,1.1,false\n"
                                 b"0.0,0.25,0.2,0.3,true\n1.0,0.9,0.8,1.0,false\n")


def test_position_sweep_csv(tmp_path):
    # an integer column stays integer next to float ones
    sweep = PositionSweep(
        lateral_um=np.array([0, 8]),
        rel_rate=np.array([1.0, 0.93]),
        rel_rate_const_ap=np.array([1.0, 1 / 3]),
    )
    path = tmp_path / "sweep.csv"
    iio.write_position_sweep_csv(path, sweep)
    assert path.read_bytes() == (b"lateral_um,rel_rate,rel_rate_const_ap\n0,1.0,1.0\n"
                                 b"8,0.93,0.3333333333333333\n")


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


def _side_outcome(read, path):
    """What reading a side-format file gives: its arrays as lists, or the error."""
    try:
        got = read(path)
    except ValueError as exc:
        return str(exc)
    if isinstance(got, list):  # time-tag streams
        return [(s.channel, s.t_ns.tolist(), s.duration_ns) for s in got]
    return {name: value.tolist() for name, value in vars(got).items()}


_AP_ROWS = ["TE,0.0,0.0,0.5", "TE,0.0,90.0,0.25", "TE,45.0,0.0,0.4", "TE,45.0,90.0,0.1",
            "TM,0.0,0.0,0.5", "TM,0.0,90.0,0.75", "TM,45.0,0.0,0.3", "TM,45.0,90.0,1.0"]


@pytest.mark.parametrize("read, header, rows", [
    (iio.read_timetags_csv, "channel,t_ns",
     ["B,40", "A,3", "B,5", "A,99", "B,1", "A,17"]),  # channels interleaved across blocks
    (iio.read_timetags_csv, "channel,t_ns", ["A,5", "B,3", "A,-1"]),
    (iio.read_bias_curve_csv, "bias_ua,counts", ["0.0,0.0", "2.5,10.0", "5.0,950.37"]),
    (iio.read_bias_curve_csv, "bias_ua,counts", ["0.0,0.0", "2.5,10.0", "5.0,-1.0"]),
    (iio.read_ap_surface_csv, "polarization,theta_deg,phi_deg,ap",
     [_AP_ROWS[i] for i in (4, 0, 6, 1, 3, 5, 2, 7)]),
    (iio.read_ap_surface_csv, "polarization,theta_deg,phi_deg,ap", _AP_ROWS[:-1]),
    (iio.read_ap_surface_csv, "polarization,theta_deg,phi_deg,ap", [*_AP_ROWS, "TM,80,0,0.9"]),
])
def test_side_formats_read_in_tiny_blocks_give_the_same_outcome(tmp_path, monkeypatch,
                                                                  read, header, rows):
    path = tmp_path / "table.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    whole = _side_outcome(read, path)
    for block in (1, 2, 3):  # rows per block
        monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
        assert _side_outcome(read, path) == whole


def test_timetag_channel_holding_a_newline_round_trips_in_tiny_blocks(tmp_path, monkeypatch):
    streams = [TimeTagStream("a\nb", np.array([1, 5, 9], dtype=np.int64), 100),
               TimeTagStream("c", np.array([2, 3], dtype=np.int64), 100)]
    path = tmp_path / "tags.csv"
    iio.write_timetags_csv(path, streams)
    for block in (1, 2, 3):  # a block may end on a row whose name spans two lines
        monkeypatch.setattr(iio, "_BLOCK_ROWS", block)
        back = iio.read_timetags_csv(path, duration_ns=100)
        assert [s.channel for s in back] == ["a\nb", "c"]
        assert [s.t_ns.tolist() for s in back] == [[1, 5, 9], [2, 3]]
        again = tmp_path / "again.csv"
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

# reader, CLI command that reads the file, header, one good row, and rows
# that parse, and with the good row make a valid table but for one value
# out of range
_READERS = {
    "trajectories": (lambda p: iio.read_trajectories_csv(p, bin_width_us=1.0),
                     ["classify", "--bin-width-us", "1", "--threshold", "--in"],
                     "trial_id,prepared,bin_index,counts", "0,bright,0,4", "0,bright,1,-4"),
    "timetags": (iio.read_timetags_csv, ["g2", "--in"], "channel,t_ns", "A,5", "A,-1"),
    "bias_curve": (iio.read_bias_curve_csv, ["rfmodel", "--rf-off"], "bias_ua,counts",
                   "1.5,10.0", "2.5,-1.0"),
    "ap_surface": (iio.read_ap_surface_csv, ["optics", "--ap-file"],
                   "polarization,theta_deg,phi_deg,ap", "TE,0.0,0.0,0.5",
                   "\n".join(f"{pol},{theta},{phi},{ap}" for pol, theta, phi, ap in [
                       ("TE", 0.0, 90.0, 0.5), ("TE", 90.0, 0.0, 0.5), ("TE", 90.0, 90.0, 0.5),
                       ("TM", 0.0, 0.0, 0.5), ("TM", 0.0, 90.0, 0.5), ("TM", 90.0, 0.0, 0.5),
                       ("TM", 90.0, 90.0, 1.5)])),
}


@pytest.mark.parametrize("fmt", list(_READERS))
@pytest.mark.parametrize("defect", ["short row", "non-numeric field", "missing column",
                                    "value out of range"])
def test_malformed_files_are_input_errors(tmp_path, capsys, fmt, defect):
    read, command, header, row, out_of_range = _READERS[fmt]
    *first, last = row.split(",")
    lines = {"short row": [header, row, ",".join(first)],
             "non-numeric field": [header, row, ",".join([*first, "x"])],
             "missing column": [header.rsplit(",", 1)[0], ",".join(first)],
             "value out of range": [header, row, out_of_range]}[defect]
    path = tmp_path / f"{fmt}.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
        read(path)
    assert main([*command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err

