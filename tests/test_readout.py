"""State discrimination: Bayesian filter, thresholding, rate recovery."""
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import poisson

from ionreadout import (
    BRIGHT,
    DARK,
    Dataset,
    RateParams,
    ReadoutConfig,
    Trajectory,
    adaptive_classify_batch,
    calibrate_rates,
    error_stats,
    optimize_threshold,
    simulate_dataset,
)
from ionreadout.chain import _count_llr, _flip_probs, _forward, _zero_count_cap
from ionreadout.photon_sim import _counts_dtype
from ionreadout.readout import _STEP_BINS, _confidence

NOPUMP = RateParams(gamma_b=162.50, gamma_d=5.095)


def _traj(counts, prepared=BRIGHT, bin_width_us=1.0):
    return Trajectory(
        prepared=prepared, bins=np.asarray(counts, dtype=np.int64),
        bin_width_us=bin_width_us,
    )


def _reference_filter(counts, rates, bin_width_us, level):
    """The forward filter on (log P(bright), log P(dark)) for one record.

    Propagates the posterior through the flip matrix with logaddexp,
    reweights it by the two Poisson likelihoods and renormalises, one bin
    at a time.  Returns (bright, bins_consumed, confidence, converged).
    """
    p_dp, p_rp = _flip_probs(rates, bin_width_us)
    counts = np.asarray(counts, dtype=np.int64)
    like_b = poisson.logpmf(counts, rates.gamma_b * bin_width_us * 1e-3)
    like_d = poisson.logpmf(counts, rates.gamma_d * bin_width_us * 1e-3)
    with np.errstate(divide="ignore", invalid="ignore"):
        stay_b, stay_d = np.log1p(-p_dp), np.log1p(-p_rp)
        dp, rp = np.log(p_dp), np.log(p_rp)
        lb = ld = np.log(0.5)
        for i in range(counts.size):
            lb, ld = (np.logaddexp(stay_b + lb, rp + ld) + like_b[i],
                      np.logaddexp(stay_d + ld, dp + lb) + like_d[i])
            norm = np.logaddexp(lb, ld)
            lb, ld = lb - norm, ld - norm
            if max(lb, ld) >= np.log(level):
                return lb >= ld, i + 1, np.exp(max(lb, ld)), True
    return lb >= ld, counts.size, np.exp(max(lb, ld)), False


def _every_record_loop(ds, rates, bin_width_us, levels):
    """The batch filter that steps every record still open at the top level,
    one bin at a time, with no lane for the records that have no count yet:
    the reference :func:`adaptive_classify_batch` must match bit for bit.
    Returns (decisions, bins_consumed, confidence, converged) per level, in
    order.
    """
    n_trials, n_bins = len(ds), ds.n_bins
    p_dp, p_rp = _flip_probs(rates, bin_width_us)
    a, c = _count_llr(rates, bin_width_us)
    order = np.argsort(levels, kind="stable")
    sorted_levels = np.asarray(levels)[order]
    q = sorted_levels - 16 * np.spacing(sorted_levels)
    low = np.log(q) - np.log1p(-q)
    low -= 1e-12 * (1.0 + np.abs(low))
    stop_bin = np.empty((len(levels), n_trials), dtype=_counts_dtype(n_bins))
    stop_bright = np.empty((len(levels), n_trials), dtype=bool)
    stop_conf = np.empty((len(levels), n_trials))
    active = np.arange(n_trials)
    n_stopped = np.zeros(n_trials, dtype=np.intp)
    r = np.zeros(n_trials)
    before = np.zeros(n_trials, dtype=ds.prefix.dtype)
    for i in range(n_bins):
        through = ds.prefix[active, i]
        r = _forward(r, (through - before)[None], p_dp, p_rp, a, c)[0]
        before = through
        mag = np.abs(r)
        new = np.flatnonzero(mag >= low[n_stopped])
        if not new.size:
            continue
        conf = _confidence(mag[new])
        hi = np.searchsorted(sorted_levels, conf, side="right")
        lo = n_stopped[new]
        moved = hi > lo
        if not moved.any():
            continue
        new, conf, lo, hi = new[moved], conf[moved], lo[moved], hi[moved]
        passed = hi - lo
        e = np.repeat(np.arange(new.size), passed)
        k = np.arange(e.size) - (np.cumsum(passed) - passed - lo)[e]
        rows = active[new][e]
        stop_bin[k, rows] = i + 1
        stop_bright[k, rows] = (r[new] >= 0)[e]
        stop_conf[k, rows] = conf[e]
        n_stopped[new] = hi
        still_open = n_stopped < len(levels)
        active, n_stopped, r = active[still_open], n_stopped[still_open], r[still_open]
        before = before[still_open]
        if not active.size:
            break
    final_bright, final_conf = r >= 0, _confidence(r)
    results = [None] * len(levels)
    for k, j in enumerate(order):
        open_ = n_stopped <= k
        rows = active[open_]
        stop_bin[k, rows] = n_bins
        stop_bright[k, rows] = final_bright[open_]
        stop_conf[k, rows] = final_conf[open_]
        converged = np.ones(n_trials, dtype=bool)
        converged[rows] = False
        results[j] = (stop_bright[k], stop_bin[k], stop_conf[k], converged)
    return results


def _assert_same_as_every_record_loop(results, ds, rates, bin_width_us):
    levels = [res.confidence_level for res in results]
    for res, ref in zip(results, _every_record_loop(ds, rates, bin_width_us, levels)):
        got = (res.decisions, res.bins_consumed, res.confidence, res.converged)
        for name, g, want in zip(("decisions", "bins_consumed", "confidence", "converged"),
                                 got, ref):
            assert g.dtype == want.dtype and g.tobytes() == want.tobytes(), \
                f"{name} differs at level {res.confidence_level}"


def _classify(counts, level, rates=NOPUMP):
    """The batch filter on a single record at a single level."""
    return adaptive_classify_batch([_traj(counts)], rates, 1.0, [level])[0]


def _assert_matches_reference(res, records, rates, bin_width_us):
    for i, counts in enumerate(records):
        bright, bins, conf, converged = _reference_filter(
            counts, rates, bin_width_us, res.confidence_level)
        assert res.bins_consumed[i] == bins
        assert bool(res.converged[i]) == converged
        assert np.isclose(res.confidence[i], conf, rtol=1e-9, atol=0.0, equal_nan=True)
        if not abs(conf - 0.5) < 1e-12:  # at even odds the reference's rounding decides
            assert bool(res.decisions[i]) == bright


@given(
    records=arrays(np.int64, st.tuples(st.integers(1, 6), st.integers(1, 4 * _STEP_BINS + 2)),
                   elements=st.integers(0, 12)),
    quiet=arrays(np.int64, 6, elements=st.integers(0, 4 * _STEP_BINS + 3)),
    gamma_d=st.sampled_from([0.0, 5.095]) | st.floats(min_value=0.0, max_value=50.0),
    spread=st.sampled_from([0.0, 157.405]) | st.floats(min_value=0.0, max_value=200.0),
    gamma_dp=st.floats(min_value=0.0, max_value=0.05),
    gamma_rp=st.floats(min_value=0.0, max_value=0.05),
    bin_width_us=st.sampled_from([0.5, 1.0, 10.0]),
    levels=st.lists(st.floats(min_value=0.51, max_value=1 - 1e-9), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore:confidence level")
def test_batch_filter_matches_log_domain_reference(
    records, quiet, gamma_d, spread, gamma_dp, gamma_rp, bin_width_us, levels
):
    # includes gamma_d = 0 (a count decides bright outright), gamma_b = gamma_d
    # (the odds only drift) and gamma_b = gamma_d = 0 (a count stops nothing);
    # record j has no count in its first quiet[j] bins, so many have none at all;
    # records reach past three of the blocks the filter steps at once
    records = np.where(np.arange(records.shape[1]) < quiet[:len(records), None], 0, records)
    rates = RateParams(gamma_d + spread, gamma_d, gamma_dp, gamma_rp)
    trajs = [_traj(c, bin_width_us=bin_width_us) for c in records]
    results = adaptive_classify_batch(trajs, rates, bin_width_us, levels)
    for res in results:
        _assert_matches_reference(res, records, rates, bin_width_us)
        conf = res.confidence[~np.isnan(res.confidence)]
        assert np.all((conf >= 0.5) & (conf <= 1.0))
    ds = Dataset(records, np.ones(len(records), dtype=bool), bin_width_us)
    _assert_same_as_every_record_loop(results, ds, rates, bin_width_us)


def test_bayes_step_zero_count_from_uniform_prior():
    res = _classify([0], 0.9)
    expected = np.exp(-0.1625) / (np.exp(-0.1625) + np.exp(-0.005095))
    assert not res.decisions[0]
    assert 1.0 - res.confidence[0] == pytest.approx(expected, rel=1e-12)
    assert 1.0 - res.confidence[0] == pytest.approx(0.46073, abs=5e-6)


@pytest.mark.filterwarnings("ignore:confidence level")  # levels above the zero-count cap
def test_bayes_step_equal_rates_leaves_prior():
    res = _classify([4, 0, 7], 0.9, RateParams(gamma_b=30.0, gamma_d=30.0))
    assert res.confidence[0] == 0.5
    assert not res.converged[0]


@pytest.mark.filterwarnings("ignore:confidence level")  # levels above the zero-count cap
def test_count_impossible_when_dark_decides_bright_with_certainty():
    res = adaptive_classify_batch([_traj([0, 0, 1, 0])], RateParams(30.0, 0.0, 0.02, 0.01),
                                  1.0, [0.9, np.nextafter(1.0, 0.0)])
    for r in res:
        assert r.decisions[0] and r.converged[0]
        assert r.bins_consumed[0] == 3
        assert r.confidence[0] == 1.0


def test_tiny_dark_rate_tabulates_without_overflow():
    # mu_b / mu_d overflows a double here; the per-count table must not
    records = np.array([[0, 0, 1, 0], [0, 0, 0, 0]])
    rates = RateParams(100.0, 1e-320, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = adaptive_classify_batch([_traj(c) for c in records], rates, 1.0, [0.9])[0]
    _assert_matches_reference(res, records, rates, 1.0)
    assert res.decisions[0] and res.bins_consumed[0] == 3 and res.confidence[0] == 1.0


@given(counts=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_merged_bins_are_sufficient_without_pumping(counts):
    # without pumping the posterior after k bins depends only on their sum
    for level in (0.9, 0.9999):
        res = _classify(counts, level)
        k = int(res.bins_consumed[0])
        merged = adaptive_classify_batch(
            [_traj([sum(counts[:k])], bin_width_us=float(k))], NOPUMP, float(k), [level])[0]
        assert merged.decisions[0] == res.decisions[0]
        assert merged.confidence[0] == pytest.approx(res.confidence[0], abs=1e-10)


@pytest.mark.filterwarnings("ignore:confidence level")  # levels above the zero-count cap
@given(
    counts=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
    idx=st.integers(min_value=0, max_value=5),
    gamma_dp=st.floats(min_value=0.0, max_value=0.05),
    gamma_rp=st.floats(min_value=0.0, max_value=0.05),
)
@settings(max_examples=100, deadline=None)
def test_more_counts_never_lower_bright_posterior(counts, idx, gamma_dp, gamma_rp):
    # one more count raises the bright posterior at every later bin, so a
    # bright decision stays bright and comes no later
    r = RateParams(162.50, 5.095, gamma_dp, gamma_rp)
    idx %= len(counts)
    bumped = list(counts)
    bumped[idx] += 1
    levels = [0.9, 0.99, 0.9999]
    base = adaptive_classify_batch([_traj(counts)], r, 1.0, levels)
    more = adaptive_classify_batch([_traj(bumped)], r, 1.0, levels)
    for a, b in zip(base, more):
        if a.decisions[0]:
            assert b.decisions[0]
            assert b.bins_consumed[0] <= a.bins_consumed[0]


def test_all_zero_record_decides_dark_after_14_bins():
    res = _classify(np.zeros(100, dtype=np.int64), 0.9)
    assert not res.decisions[0]
    assert res.bins_consumed[0] == 14
    assert res.converged[0]


def test_all_zero_record_decides_dark_after_59_bins():
    res = _classify(np.zeros(100, dtype=np.int64), 0.9999)
    assert not res.decisions[0]
    assert res.bins_consumed[0] == 59


def test_five_counts_decide_bright_in_one_bin():
    counts = np.zeros(100, dtype=np.int64)
    counts[0] = 5
    res = _classify(counts, 0.9)
    assert res.decisions[0]
    assert res.bins_consumed[0] == 1


@pytest.mark.filterwarnings("ignore:confidence level")  # levels above the zero-count cap
def test_confidence_meets_level_when_converged():
    counts = np.zeros(100, dtype=np.int64)
    counts[0] = 5
    for level in (0.9, 0.99, 0.9999):
        res = _classify(counts, level)
        assert res.converged[0]
        assert res.confidence[0] >= level
    # even odds never meet the next level above 0.5, though log(level) rounds to log(0.5)
    res = _classify(counts, np.nextafter(0.5, 1.0), RateParams(gamma_b=30.0, gamma_d=30.0))
    assert not res.converged[0]
    assert res.confidence[0] == 0.5


def test_nonconvergent_record_is_flagged():
    # two bins cannot reach 0.9999 on a single zero count each
    res = _classify([0, 0], 0.9999)
    assert not res.converged[0]
    assert res.bins_consumed[0] == 2


def test_adaptive_level_validation():
    with pytest.raises(ValueError):
        _classify([0], 0.5)
    with pytest.raises(ValueError):
        _classify([0], 1.0)


def test_adaptive_memory_follows_the_trials_not_the_counts():
    # records of about 2 x 10^6 counts, about 2 x 10^3 in each bin: each bin's
    # log-likelihood ratio is computed from its count, and no table to the
    # largest bin count or record total (16 MB of float64 entries) is built
    rng = np.random.default_rng(3)
    ds = Dataset(rng.poisson(2000, (50, 1000)), rng.random(50) < 0.5, 1.0)
    rates = RateParams(gamma_b=2.1e6, gamma_d=1.9e6)
    tracemalloc.start()
    try:
        res, = adaptive_classify_batch(ds, rates, 1.0, [0.9999])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    _assert_matches_reference(res, ds.counts[:5], rates, 1.0)


OFFLINE = RateParams(60.0, 2.0, 0.020, 0.0120)  # the offline CSV workload's emitter


@pytest.fixture(scope="module")
def offline_records():
    # the offline CSV workload's records: 0.5 us bins, flips at bin boundaries
    # and a 100 us herald of at least 3 counts
    cfg = ReadoutConfig(bin_width_us=0.5, n_bins=1000, herald_duration_us=100.0,
                        herald_bright_min=3)
    return simulate_dataset(OFFLINE, cfg, trials_per_state=300, seed=1, mode="bin-boundary")


def test_lane_matches_every_record_loop_on_the_heralded_records(heralded, rates, bayes16):
    # about 40 % of the records have no count before the all-zero record has
    # stopped at all 16 levels, so they never join the stepped records
    _assert_same_as_every_record_loop(bayes16, heralded, rates, 1.0)


@pytest.mark.parametrize("levels", [[0.9999], list(1.0 - np.geomspace(0.1, 1e-4, 16))])
def test_lane_matches_every_record_loop_on_offline_records(offline_records, levels):
    # the all-zero record never reaches 0.9999 here, so the lane runs to the
    # end of the record, and the records with no count take its final odds
    quiet = offline_records.prefix[:, -1] == 0
    assert quiet.any()
    with pytest.warns(UserWarning, match=r"0\.9999 at or above 0\.999796"):
        res = adaptive_classify_batch(offline_records, OFFLINE, 0.5, levels)
    top = res[-1]
    assert not top.converged[quiet].any()
    assert np.all(top.bins_consumed[quiet] == offline_records.n_bins)
    _assert_same_as_every_record_loop(res, offline_records, OFFLINE, 0.5)


def test_lane_matches_every_record_loop_with_and_without_all_zero_records(rates, levels16):
    rng = np.random.default_rng(8)
    counts = rng.poisson(0.05, (60, 120))
    counts[:, -1] += 1  # every record has a count, most of them late
    ds = Dataset(counts, np.arange(60) < 30, 1.0)
    _assert_same_as_every_record_loop(adaptive_classify_batch(ds, rates, 1.0, levels16), ds,
                                      rates, 1.0)
    zeros = Dataset(np.zeros((40, 120), dtype=np.int64), np.arange(40) < 20, 1.0)
    res = adaptive_classify_batch(zeros, rates, 1.0, levels16)
    _assert_same_as_every_record_loop(res, zeros, rates, 1.0)
    # the all-zero records all stop with the lane, 14 bins in at 0.9
    assert np.all(res[0].bins_consumed == 14) and res[-1].converged.all()


@pytest.mark.parametrize("bins, cells", [(1, 1 << 14), (3, 1 << 14), (32, 1), (32, 150),
                                         (7, 400)])
@pytest.mark.parametrize("pumped", [True, False])
def test_block_lengths_leave_the_results_unchanged(monkeypatch, rates, levels16, bins, cells,
                                                   pumped):
    # blocks of one bin and of three, and blocks that the number of stepped
    # and waiting records cuts short, down to one bin
    rng = np.random.default_rng(9)
    counts = rng.poisson(0.05, (60, 120))
    counts[:20, :70] = 0  # these join after the all-zero record has passed some levels
    counts[:5] = 0
    ds = Dataset(counts, np.arange(60) % 2 == 0, 1.0)
    # record j of the first 40 has its only count in bin j, so at any block
    # lengths one record's only count falls on each block's last bin and one
    # on the record's last bin; the lane, at 0.9999 from bin 59 on, runs to
    # the end for the two records with none
    single = np.vstack([np.eye(40, dtype=np.int64), np.zeros((2, 40), dtype=np.int64)])
    single = Dataset(single, np.arange(42) % 2 == 0, 1.0)
    rates = rates if pumped else NOPUMP
    monkeypatch.setattr("ionreadout.readout._STEP_BINS", bins)
    monkeypatch.setattr("ionreadout.readout._STEP_CELLS", cells)
    for records in (ds, single):
        res = adaptive_classify_batch(records, rates, 1.0, levels16)
        _assert_same_as_every_record_loop(res, records, rates, 1.0)
    assert not res[-1].converged[40:].any()


def test_a_posterior_equal_to_the_level_stops_in_its_bin(rates):
    # a level is reached where the posterior is at least the level, so a
    # level equal to a posterior the filter reaches stops the record in that
    # bin: here the all-zero record's, shared by the record still waiting,
    # and a record's own after its first count
    counts = np.zeros((3, 60), dtype=np.int64)
    counts[1, [2, 9]] = 1
    counts[2, 40] = 1
    ds = Dataset(counts, np.array([False, True, True]), 1.0)
    probe = adaptive_classify_batch(ds, rates, 1.0, [0.9])[0]
    assert probe.bins_consumed.tolist() == [14, 3, 14]
    for k in (0, 1):
        level = float(probe.confidence[k])
        res = adaptive_classify_batch(ds, rates, 1.0, [level])[0]
        assert res.bins_consumed[k] == probe.bins_consumed[k] and res.confidence[k] == level
        _assert_same_as_every_record_loop([res], ds, rates, 1.0)


def test_lane_matches_every_record_loop_on_records_shorter_than_its_last_stop(
        rates, levels16):
    # the all-zero record passes the top level at bin 67; these records end at 40
    ds = simulate_dataset(rates, ReadoutConfig(n_bins=90, herald_duration_us=50.0), 2000,
                          seed=5)
    res = adaptive_classify_batch(ds, rates, 1.0, levels16)
    quiet = ds.prefix[:, -1] == 0
    assert quiet.any() and not res[-1].converged[quiet].any()
    assert res[0].converged[quiet].all()  # the all-zero record stops at 0.9 after 14 bins
    _assert_same_as_every_record_loop(res, ds, rates, 1.0)


def _settled_confidence(p_dp, p_rp, c, n_bins=3000):
    """sigma(|r|) after n_bins zero-count steps of the filter from even odds."""
    r = _forward(np.zeros(1), np.zeros((n_bins, 1), dtype=np.int64), p_dp, p_rp, 0.0, c)
    return float(_confidence(r[-1])[0])


@pytest.mark.parametrize("p_dp, p_rp, c", [
    (2.0e-5, 1.2e-5, 0.157405),  # the paper's rates at 1 us bins
    (1.0e-5, 6.0e-6, 0.029),  # the offline rates at 0.5 us bins
    (0.0, 1.2e-5, 0.157405),  # no bright-to-dark flips
    (2.0e-5, 0.0, 0.157405),  # dark is absorbing: the odds fall without bound
    (0.0, 0.0, 0.157405),  # no pumping
    (0.0, 0.0, 0.0),  # equal rates and no pumping: the odds stay even
    (0.0, 0.01, 0.001),  # flips into bright outrun the evidence: the odds grow
    (0.3, 0.2, 0.0),  # equal rates: the odds settle at the flips' balance
])
def test_zero_count_cap_is_where_the_odds_of_a_record_without_counts_settle(p_dp, p_rp, c):
    cap = _zero_count_cap(p_dp, p_rp, c)
    settled = _settled_confidence(p_dp, p_rp, c)
    if cap < 1.0:
        assert settled <= cap + 1e-15 and settled == pytest.approx(cap, abs=1e-12)
    else:
        assert settled > 1.0 - 1e-6


def test_levels_at_or_above_the_zero_count_cap_warn_once_naming_them():
    ds = Dataset(np.array([[0, 3, 0, 0], [0, 0, 0, 0]]), np.array([True, False]), 0.5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        adaptive_classify_batch(ds, OFFLINE, 0.5, [0.99, 0.9999, 0.99985, 0.9997])
    assert [str(w.message) for w in caught] == [
        "confidence level(s) 0.9999, 0.99985 at or above 0.999796, the posterior a record "
        "with no counts approaches at these rates: no such record stops there"]
    assert caught[0].category is UserWarning and caught[0].filename == __file__
    # the paper's rates and levels: the cap, 0.999930, is above the top level 0.9999
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adaptive_classify_batch(Dataset(ds.counts, ds.bright, 1.0),
                                RateParams(162.50, 5.095, 0.020, 0.0120), 1.0,
                                1.0 - np.geomspace(0.1, 1e-4, 16))


@pytest.fixture(scope="module")
def small_dataset():
    rates = RateParams(162.50, 5.095, 0.020, 0.0120)
    cfg = ReadoutConfig(n_bins=200, herald_duration_us=0.0)
    return rates, simulate_dataset(rates, cfg, trials_per_state=250, seed=17)


def test_batch_classifier_matches_single_trial_path(small_dataset):
    rates, ds = small_dataset
    levels = [0.9, 0.99, 0.9999]
    batch = adaptive_classify_batch(ds, rates, 1.0, levels)
    for res, level in zip(batch, levels):
        assert res.confidence_level == level
        _assert_matches_reference(res, ds.counts, rates, 1.0)


def test_batch_confidence_invariant(small_dataset):
    rates, ds = small_dataset
    for res in adaptive_classify_batch(ds, rates, 1.0, [0.9, 0.999]):
        assert np.all(res.confidence[res.converged] >= res.confidence_level)


def test_stages_agree_on_dataset_and_record_list(rates, config):
    # the adaptive stage alone takes a record list, built here the way the
    # benchmark's offline check builds it
    retained = simulate_dataset(rates, config, trials_per_state=300, seed=31)
    w = retained.bin_width_us
    records = [Trajectory(prepared="bright" if b else "dark", bins=row, bin_width_us=w)
               for b, row in zip(retained.bright, retained.counts)]
    levels = [0.9, 0.999, 0.9999]
    for a, b in zip(adaptive_classify_batch(retained, rates, w, levels),
                    adaptive_classify_batch(records, rates, w, levels)):
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.bins_consumed, b.bins_consumed)
        assert np.array_equal(a.confidence, b.confidence)
        assert np.array_equal(a.converged, b.converged)


def test_batch_rejects_a_bin_width_other_than_the_records(small_dataset):
    rates, ds = small_dataset  # 1 us bins
    with pytest.raises(ValueError, match=r"\(2\.0\).*\(1\.0\)"):
        adaptive_classify_batch(ds, rates, 2.0, [0.99])


def test_transition_probability_is_exact_per_bin():
    p_dp, p_rp = _flip_probs(RateParams(1000, 1, 999, 0), 1.0)
    assert p_dp == pytest.approx(1 - np.exp(-0.999), rel=1e-12)
    assert p_rp == 0.0
    with pytest.raises(ValueError, match="gamma_dp times the bin width is 100 expected flips"):
        _flip_probs(RateParams(1e6, 1, 1e5, 0), 1.0)


def test_batch_levels_in_any_order(small_dataset):
    rates, ds = small_dataset
    shuffled = [0.99, 0.9, 0.9999, 0.9]
    ordered = adaptive_classify_batch(ds, rates, 1.0, [0.9, 0.99, 0.9999])
    by_level = {r.confidence_level: r for r in ordered}
    for res in adaptive_classify_batch(ds, rates, 1.0, shuffled):
        ref = by_level[res.confidence_level]
        assert np.array_equal(res.decisions, ref.decisions)
        assert np.array_equal(res.bins_consumed, ref.bins_consumed)
        assert np.array_equal(res.confidence, ref.confidence)


def test_threshold_duration_must_be_whole_bins():
    ds = Dataset(np.array([[1, 2, 3], [0, 0, 0]]), np.array([True, False]), 1.0)
    with pytest.raises(ValueError, match="whole number"):
        ds.totals(1.5)
    with pytest.raises(ValueError, match="whole number"):
        optimize_threshold(Dataset(np.array([[1, 2], [0, 0]]), np.array([True, False]), 1.0), 0.7)


def test_optimizer_finds_gap_and_smallest_threshold():
    totals = np.array([[20], [21], [22], [23], [24], [0], [0], [0], [0], [0]])
    thr, st_ = optimize_threshold(Dataset(totals, np.arange(10) < 5, 1.0), 1.0)
    assert st_.fidelity == 1.0
    assert thr == 1  # smallest integer separating the classes


@given(
    bright_totals=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=40),
    dark_totals=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_threshold_optimality_is_exhaustive(bright_totals, dark_totals):
    ds = Dataset(np.array(bright_totals + dark_totals)[:, None],
                 np.arange(len(bright_totals) + len(dark_totals)) < len(bright_totals), 1.0)
    thr, st_ = optimize_threshold(ds, 1.0)

    def fidelity_at(threshold):
        eps_b = np.mean([n < threshold for n in bright_totals])
        eps_d = np.mean([n >= threshold for n in dark_totals])
        return 1.0 - 0.5 * (eps_b + eps_d)

    best = st_.fidelity
    for cand in range(0, max(bright_totals + dark_totals) + 2):
        f = fidelity_at(cand)
        assert best >= f - 1e-12
        if cand < thr:
            assert f < best  # ties break toward the smallest threshold


def test_equal_rate_dataset_has_coin_flip_fidelity():
    r = RateParams(40.0, 40.0)
    cfg = ReadoutConfig(n_bins=25, herald_duration_us=0.0)
    ds = simulate_dataset(r, cfg, trials_per_state=2000, seed=23)
    _, st_ = optimize_threshold(ds, 25.0)
    assert st_.fidelity == pytest.approx(0.5, abs=0.03)


def test_error_stats_reference_points():
    bright = np.arange(200_000) < 100_000
    decided_bright = bright.copy()
    decided_bright[:61] = False  # 61 / 1e5 bright errors
    decided_bright[100_000:100_119] = True  # 119 / 1e5 dark errors
    durations = np.where(bright, 40.0, 90.0)
    st_ = error_stats(bright, decided_bright, durations)
    assert st_.eps_bright == pytest.approx(6.1e-4, rel=1e-12)
    assert st_.eps_dark == pytest.approx(11.9e-4, rel=1e-12)
    assert st_.fidelity == pytest.approx(0.9991, abs=1e-12)
    assert (st_.mean_duration_bright_us, st_.mean_duration_dark_us) == (40.0, 90.0)
    assert st_.mean_duration_us == 65.0

    perfect = error_stats(bright, bright, durations)
    assert perfect.fidelity == 1.0
    assert error_stats(bright, ~bright, durations).fidelity == 0.0


def test_error_stats_validation():
    with pytest.raises(ValueError, match="empty inputs"):
        error_stats([], [], [])
    with pytest.raises(ValueError, match="one trial of each state"):
        error_stats([True, True], [True, False], [1.0, 1.0])  # only one true state
    # labels are not states: "dark" must not read as a true (bright) entry
    for bright, decided in [([BRIGHT, DARK], [BRIGHT, DARK]), ([True, False], [BRIGHT, DARK]),
                            ([1, 0], [1, 0]), ([True, False], [1.0, 0.0])]:
        with pytest.raises(ValueError, match="boolean arrays"):
            error_stats(bright, decided, [1.0, 1.0])


def test_error_curve_minimum_sits_near_125us(heralded):
    durations = np.arange(25.0, 451.0, 25.0)
    errors = np.array([optimize_threshold(heralded, d)[1].mean_error for d in durations])
    assert durations[int(np.argmin(errors))] == pytest.approx(125.0, abs=75.0)


def test_bright_decisions_come_faster_than_dark(bayes16, heralded):
    is_bright = heralded.bright
    for res in bayes16:
        dur_b = res.bins_consumed[is_bright].mean()
        dur_d = res.bins_consumed[~is_bright].mean()
        assert dur_b < dur_d


def test_calibration_recovers_zero_depump():
    cfg = ReadoutConfig(n_bins=300, herald_duration_us=0.0)
    ds = simulate_dataset(NOPUMP, cfg, trials_per_state=5000, seed=9)
    cal = calibrate_rates(ds)
    assert abs(cal.gamma_dp) <= 3 * cal.gamma_dp_err
    assert abs(cal.gamma_rp) <= 3 * cal.gamma_rp_err
    assert cal.gamma_b == pytest.approx(162.50, rel=0.05)
    assert cal.gamma_d == pytest.approx(5.095, rel=0.05)


def test_calibration_with_no_dark_counts():
    # every dark total is 0 in every window: the peak is exactly 0, and a
    # one-point histogram must not reach the two-parameter fit
    cfg = ReadoutConfig(n_bins=50, herald_duration_us=0.0)
    ds = simulate_dataset(RateParams(162.50, 0.0), cfg, trials_per_state=150, seed=4)
    assert not ds.counts[~ds.bright].any()
    cal = calibrate_rates(ds)
    assert cal.gamma_d == 0.0 and cal.gamma_d_err == 0.0
    assert cal.gamma_b == pytest.approx(162.50, rel=0.05)


def test_calibration_needs_enough_trials():
    cfg = ReadoutConfig(n_bins=50, herald_duration_us=0.0)
    ds = simulate_dataset(NOPUMP, cfg, trials_per_state=50, seed=1)
    with pytest.raises(ValueError, match="at least"):
        calibrate_rates(ds)
    # and enough bins for the pumping slopes' errors, or it fails inside the line fit
    for n_bins in (1, 2):
        ds = simulate_dataset(NOPUMP, ReadoutConfig(n_bins=n_bins, herald_duration_us=0.0),
                              trials_per_state=150, seed=1)
        with pytest.raises(ValueError, match=f"records of at least 3 bins; got {n_bins}"):
            calibrate_rates(ds)
