"""Emitter Monte Carlo: count statistics, heralding, time-tag streams."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from ionreadout import (
    BRIGHT,
    DARK,
    Dataset,
    EmitterStreamConfig,
    RateParams,
    ReadoutConfig,
    Trajectory,
    as_dataset,
    simulate_dataset,
    simulate_timetag_streams,
)
from ionreadout import photon_sim
from ionreadout.photon_sim import _BLOCK_TRIALS, _TAG_CHUNK, _counts_dtype, _herald, _segments

NOPUMP = RateParams(gamma_b=162.50, gamma_d=5.095)
PUMPED = RateParams(gamma_b=162.50, gamma_d=5.095, gamma_dp=0.020, gamma_rp=0.0120)


@pytest.fixture(scope="module")
def pure_dataset():
    """10^5 + 10^5 pumping-free trials of 125 bins: iid Poisson counts."""
    cfg = ReadoutConfig(bin_width_us=1.0, n_bins=125, herald_duration_us=0.0)
    return simulate_dataset(NOPUMP, cfg, trials_per_state=100_000, seed=42)


def test_dark_without_emission_gives_all_zero_bins():
    r = RateParams(gamma_b=100.0, gamma_d=0.0)
    cfg = ReadoutConfig(n_bins=200, herald_duration_us=0.0)
    ds = simulate_dataset(r, cfg, trials_per_state=1, seed=1)
    assert list(ds.bright) == [True, False]
    assert not ds.counts[1].any()


def test_equal_rates_make_states_indistinguishable():
    r = RateParams(gamma_b=50.0, gamma_d=50.0)
    cfg = ReadoutConfig(n_bins=50, herald_duration_us=0.0)
    ds = simulate_dataset(r, cfg, trials_per_state=2000, seed=3)
    totals = ds.totals(50.0).astype(float)
    tb, td = totals[:2000], totals[2000:]
    se = np.sqrt(tb.var() / tb.size + td.var() / td.size)
    assert abs(tb.mean() - td.mean()) < 3 * se


def test_bright_mean_total_counts_at_125us(pure_dataset):
    # gamma_b * T = 162.50/ms * 0.125 ms
    totals = pure_dataset.totals(125.0)[:100_000].astype(float)
    expected = 162.50 * 0.125
    se = np.sqrt(expected / totals.size)
    assert totals.mean() == pytest.approx(expected, abs=3 * se)


def _poisson_gof_pvalue(samples: np.ndarray, mu: float) -> float:
    kmax = int(samples.max())
    obs = np.bincount(samples, minlength=kmax + 1).astype(float)
    exp = stats.poisson.pmf(np.arange(kmax + 1), mu) * samples.size
    while exp[-1] < 5 and exp.size > 2:  # pool sparse tail categories
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp, obs = exp[:-1], obs[:-1]
    exp *= obs.sum() / exp.sum()
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return float(stats.chi2.sf(chi2, obs.size - 1))


def test_per_bin_counts_are_poisson(pure_dataset):
    bright = pure_dataset.counts[:100_000].ravel()
    dark = pure_dataset.counts[100_000:].ravel()
    assert _poisson_gof_pvalue(bright, 0.1625) > 0.01
    assert _poisson_gof_pvalue(dark, 0.005095) > 0.01


def test_same_seed_reproduces_dataset_bitwise(rates, config):
    small = ReadoutConfig(n_bins=60, herald_duration_us=0.0)
    a = simulate_dataset(rates, small, trials_per_state=50, seed=7)
    b = simulate_dataset(rates, small, trials_per_state=50, seed=7)
    assert len(a) == len(b) == 100
    assert np.array_equal(a.bright, b.bright)
    assert np.array_equal(a.counts, b.counts) and a.counts.dtype == b.counts.dtype


def test_block_rows_do_not_depend_on_later_trials(rates):
    # the stream is keyed on (seed, state, block): reproducible under the
    # seed, and a full block's rows are the same when more trials follow it
    _assert_block_rows_do_not_depend_on_later_trials(rates)


def test_block_rows_do_not_depend_on_later_trials_in_sub_batches(rates, monkeypatch):
    # the same where a block is drawn and binned in sub-batches of 998 trials
    monkeypatch.setattr("ionreadout.photon_sim._SEGMENT_BUDGET", 1000)
    _assert_block_rows_do_not_depend_on_later_trials(rates)


def _assert_block_rows_do_not_depend_on_later_trials(rates):
    small = ReadoutConfig(n_bins=60, herald_duration_us=0.0)
    block = _BLOCK_TRIALS
    a = simulate_dataset(rates, small, trials_per_state=block + 7, seed=19)
    assert np.array_equal(a.counts, simulate_dataset(rates, small, block + 7, seed=19).counts)
    b = simulate_dataset(rates, small, trials_per_state=2 * block + 3, seed=19)
    assert np.array_equal(a.counts[:block], b.counts[:block])
    assert np.array_equal(a.counts[block + 7:2 * block + 7], b.counts[2 * block + 3:3 * block + 3])
    assert not np.array_equal(a.counts[:block], simulate_dataset(rates, small, block, 20).counts[:block])


def test_single_trial_per_state_labels(rates):
    cfg = ReadoutConfig(n_bins=10, herald_duration_us=0.0)
    ds = simulate_dataset(rates, cfg, trials_per_state=1, seed=4)
    assert ds.bright.tolist() == [True, False]
    assert ds.counts.shape == (2, 10)


def test_depump_frequency_matches_rate(rates, config):
    # P(bright trial leaves the bright manifold) ~ gamma_dp * T, read off
    # the flip segments of 10^5 trials drawn as one block
    n = 100_000
    trial, start, end, flipped = _segments(
        np.random.default_rng(42), rates, config, True, "exact", n
    )
    # dark at the start of some bin, as the state path records it
    hits = np.unique(trial[(flipped == 1) & (np.ceil(start) < end)]).size
    p = rates.gamma_dp * config.n_bins * config.bin_width_us * 1e-3
    sd = np.sqrt(p * (1 - p) / n)
    assert hits / n == pytest.approx(p, abs=2 * sd)


def _two_state_mean_counts(r: RateParams, cfg: ReadoutConfig, bright: bool, mode: str):
    """Closed-form mean count of each bin of the two-state emitter.

    P(bright at t) relaxes to pi = gamma_rp / kappa at kappa = gamma_dp +
    gamma_rp; exact flips average it over each bin, bin-boundary flips
    hold it for a bin and relax by 1 - p_dp - p_rp per bin.
    """
    t0 = cfg.bin_width_us * 1e-3
    j = np.arange(cfg.n_bins)
    kappa = r.gamma_dp + r.gamma_rp
    pi = r.gamma_rp / kappa
    if mode == "exact":
        p_bright = pi + ((1.0 if bright else 0.0) - pi) * np.exp(-kappa * t0 * j) \
            * -np.expm1(-kappa * t0) / (kappa * t0)
    else:
        p_dp, p_rp = -np.expm1(-r.gamma_dp * t0), -np.expm1(-r.gamma_rp * t0)
        pi = p_rp / (p_dp + p_rp)
        p_bright = pi + ((1.0 if bright else 0.0) - pi) * (1 - p_dp - p_rp) ** j
    return (r.gamma_d + (r.gamma_b - r.gamma_d) * p_bright) * t0


@pytest.mark.parametrize("mode", ["exact", "bin-boundary"])
def test_mean_count_profile_matches_two_state_model(mode):
    # flips every ~50 us in 10 us bins: counts across a flip are time-weighted
    r = RateParams(gamma_b=100.0, gamma_d=10.0, gamma_dp=12.0, gamma_rp=8.0)
    cfg = ReadoutConfig(bin_width_us=10.0, n_bins=20, herald_duration_us=0.0)
    n = 20_000
    with pytest.warns(UserWarning):
        ds = simulate_dataset(r, cfg, trials_per_state=n, seed=3, mode=mode)
    for rows, bright in ((slice(0, n), True), (slice(n, 2 * n), False)):
        counts = ds.counts[rows].astype(float)
        z = (counts.mean(axis=0) - _two_state_mean_counts(r, cfg, bright, mode)) \
            / (counts.std(axis=0) / np.sqrt(n))
        assert np.all(np.abs(z) < 4.5), z


@pytest.mark.parametrize("mode", ["exact", "bin-boundary"])
def test_transition_modes_match_the_analytic_mean_totals(rates, mode):
    # one sample against the closed-form mean, so the heavy tail of the
    # dark totals (rare flips) enters the standard error once, not twice
    cfg = ReadoutConfig(n_bins=500, herald_duration_us=0.0)
    n = 10_000
    ds = simulate_dataset(rates, cfg, trials_per_state=n, seed=11, mode=mode)
    for rows, bright in ((slice(0, n), True), (slice(n, 2 * n), False)):
        totals = ds.counts[rows].sum(axis=1, dtype=np.int64).astype(float)
        expected = _two_state_mean_counts(rates, cfg, bright, mode).sum()
        assert abs(totals.mean() - expected) < 3 * totals.std() / np.sqrt(n)


def test_fast_pumping_triggers_warning():
    r = RateParams(gamma_b=100.0, gamma_d=1.0, gamma_dp=0.5)
    cfg = ReadoutConfig(bin_width_us=30.0, n_bins=10, herald_duration_us=0.0)
    with pytest.warns(UserWarning):
        simulate_dataset(r, cfg, trials_per_state=1, seed=1)


def test_invalid_inputs_rejected(rates):
    with pytest.raises(ValueError):
        RateParams(gamma_b=5.0, gamma_d=10.0)  # bright below dark
    with pytest.raises(ValueError):
        RateParams(gamma_b=-1.0, gamma_d=0.0)
    with pytest.raises(ValueError):
        ReadoutConfig(bin_width_us=0.0)
    # as_dataset checks the records once, as it stacks them
    with pytest.raises(ValueError, match="prepared must be 'bright' or 'dark', got 'dim'"):
        as_dataset([Trajectory(prepared="dim", bins=np.zeros(5, dtype=np.int64), bin_width_us=1.0)])
    with pytest.raises(ValueError, match="non-negative integers"):
        as_dataset([Trajectory(prepared=BRIGHT, bins=np.array([1, -2, 0]), bin_width_us=1.0)])
    with pytest.raises(ValueError, match="non-negative integers"):
        as_dataset([Trajectory(prepared=BRIGHT, bins=np.array([0.5, 1.0]), bin_width_us=1.0)])
    with pytest.raises(ValueError, match="trials x bins matrix"):
        as_dataset([Trajectory(prepared=BRIGHT, bins=np.ones((2, 2), dtype=int), bin_width_us=1.0)])
    with pytest.raises(ValueError, match="^bin_width_us must be finite and positive"):
        as_dataset([Trajectory(prepared=BRIGHT, bins=np.ones(2, dtype=int), bin_width_us=0.0)])
    with pytest.raises(TypeError):
        Trajectory(prepared=BRIGHT, bins=np.ones(2, dtype=int))  # no width is assumed
    cfg = ReadoutConfig(n_bins=10, herald_duration_us=0.0)
    with pytest.raises(ValueError, match="transition mode"):
        simulate_dataset(rates, cfg, trials_per_state=1, seed=0, mode="jump")


def test_large_counts_widen_instead_of_wrapping():
    # 5e4 counts per bin do not fit int16; they must not wrap negative
    ds = simulate_dataset(RateParams(5e4, 1.0), ReadoutConfig(1000.0, 3, 0.0), 2, seed=1)
    assert np.all(np.abs(ds.counts[:2].astype(np.int64) - 50_000) < 5 * np.sqrt(50_000))
    assert np.all(ds.totals(3000.0)[:2] > 3 * 40_000)
    assert ds.counts[2:].max() < 100
    assert ds.counts.dtype == np.int32
    assert as_dataset([Trajectory(BRIGHT, np.array([70_000, 0]), 1.0)]).counts[0, 0] == 70_000
    assert Dataset(np.array([[70_000]]), np.array([True]), 1.0).counts[0, 0] == 70_000
    with pytest.raises(ValueError, match="total count must stay below about 9.2e18"):
        Dataset(np.array([[2**62, 2**62]]), np.array([True]), 1.0)


def test_small_counts_are_stored_as_int8(rates):
    ds = simulate_dataset(rates, ReadoutConfig(n_bins=20, herald_duration_us=0.0), 5, seed=3)
    assert ds.counts.dtype == np.int8
    wide = np.array([1, 2], dtype=np.int64)
    assert as_dataset([Trajectory(BRIGHT, wide, 1.0)]).counts.dtype == np.int8
    assert Dataset(wide[None], np.array([True]), 1.0).counts.dtype == np.int8


@pytest.mark.parametrize("seed, total, dtype", [(26, 127, np.int8), (1, 128, np.int16)])
def test_prefix_type_is_set_by_the_largest_record_total(seed, total, dtype):
    # one bright record of 100 bins at 1.275 counts each, one dark record of none
    ds = simulate_dataset(RateParams(1275.0, 0.0), ReadoutConfig(1.0, 100, 0.0), 1, seed)
    assert ds.prefix[:, -1].tolist() == [total, 0] and ds.prefix.dtype == dtype
    counts = ds.counts.astype(np.int64)
    assert np.array_equal(ds.prefix, counts.cumsum(axis=1))
    again = Dataset(counts, ds.bright, ds.bin_width_us)
    assert again.prefix.dtype == dtype and np.array_equal(again.prefix, ds.prefix)


def test_herald_window_must_be_shorter_than_record():
    with pytest.raises(ValueError, match="herald_duration_us"):
        ReadoutConfig(1.0, 50, 50.0)
    with pytest.raises(ValueError, match="herald_duration_us"):
        ReadoutConfig(0.5, 50, 40.0)
    assert ReadoutConfig(1.0, 50, 49.0).herald_bins == 49


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_whole_bins_rule_names_a_non_finite_duration_or_width(value):
    with pytest.raises(ValueError, match="^herald_duration_us must be"):
        ReadoutConfig(herald_duration_us=value)
    with pytest.raises(ValueError, match="^bin_width_us must be"):
        ReadoutConfig(bin_width_us=value)
    with pytest.raises(ValueError, match="^duration_us must be finite"):
        Dataset(np.ones((1, 4), dtype=int), np.array([True]), 1.0).totals(value)
    with pytest.raises(ValueError, match="^bin_width_us must be"):
        Dataset(np.ones((1, 4), dtype=int), np.array([True]), value)


def test_dataset_indexes_like_a_list_of_records(rates):
    # slices, masks and index arrays select trials as a Dataset; a trial is
    # one row of counts plus one entry of bright, so there is no record view
    cfg = ReadoutConfig(n_bins=30, herald_duration_us=0.0)
    ds = simulate_dataset(rates, cfg, trials_per_state=4, seed=8)
    assert len(ds) == 8
    assert ds.bright.tolist() == [True] * 4 + [False] * 4
    for key in (slice(2, 6), np.arange(8) % 4 < 2, np.array([2, 3, 4, 5])):
        part = ds[key]
        assert isinstance(part, Dataset)
        assert np.array_equal(part.counts, ds.counts[key])
        assert np.array_equal(part.bright, ds.bright[key])
        assert part.bin_width_us == ds.bin_width_us
    assert list(ds[2:6].bright) == [True, True, False, False]
    for key in (5, -1, np.int64(0), True):
        with pytest.raises(TypeError, match="integer index"):
            ds[key]
    with pytest.raises(TypeError):
        iter(ds)
    with pytest.raises(TypeError):
        list(ds)

    records = [Trajectory(BRIGHT if bright else DARK, row, ds.bin_width_us)
               for bright, row in zip(ds.bright, ds.counts)]
    again = as_dataset(records)
    assert np.array_equal(again.counts, ds.counts)
    assert np.array_equal(again.bright, ds.bright)
    assert as_dataset(ds) is ds
    with pytest.raises(ValueError, match="equal length"):
        as_dataset([records[0], Trajectory(BRIGHT, ds.counts[1, :10], ds.bin_width_us)])
    with pytest.raises(ValueError, match="one bin width"):
        as_dataset([records[0], Trajectory(BRIGHT, ds.counts[1], 2 * ds.bin_width_us)])
    with pytest.raises(ValueError, match="no records"):
        as_dataset([])  # no width to give an empty Dataset
    with pytest.raises(TypeError):
        Dataset(ds.counts, ds.bright)  # no width is assumed


def test_dataset_window_totals(rates):
    ds = Dataset(np.array([[1, 2, 3], [0, 0, 4]]), np.array([True, False]), bin_width_us=0.5)
    assert list(ds.totals(1.0)) == [3, 0]
    assert list(ds.totals(1.5)) == [6, 4]
    for bad in (0.0, 0.75, 2.0):
        with pytest.raises(ValueError):
            ds.totals(bad)
    with pytest.raises(ValueError):
        Dataset(np.array([[1, -1]]), np.array([True]), 1.0)
    with pytest.raises(ValueError):
        Dataset(np.array([[1, 1]]), np.array(["bright"]), 1.0)


# the herald rule on hand-made window counts (config: at least 8 counts is bright)
def test_herald_zero_counts_keeps_dark(config):
    keep, bright = _herald(np.array([0]), config)
    assert keep.tolist() == [0] and bright.tolist() == [False]


def test_herald_seven_counts_discards(config):
    keep, bright = _herald(np.array([7]), config)  # one shy of the bright minimum
    assert keep.size == 0 and bright.size == 0


def test_herald_relabels_by_counts(config):
    keep, bright = _herald(np.array([3, 0, 9, 8, 1, 0]), config)  # 8: the bright minimum
    assert keep.tolist() == [1, 2, 3, 5]
    assert bright.tolist() == [False, True, True, False]


def test_zero_length_herald_retains_everything(rates):
    cfg = ReadoutConfig(n_bins=40, herald_duration_us=0.0)
    ds = simulate_dataset(rates, cfg, trials_per_state=20, seed=2)
    assert len(ds) == 40 and ds.n_bins == 40  # none discarded
    assert ds.bright.tolist() == [True] * 20 + [False] * 20


def test_discard_fraction_matches_poisson_prediction():
    cfg = ReadoutConfig(n_bins=60, herald_duration_us=50.0, herald_bright_min=8)
    discarded = 2 * 20_000 - len(simulate_dataset(NOPUMP, cfg, trials_per_state=20_000, seed=5))
    mu_b, mu_d = 162.50 * 0.05, 5.095 * 0.05
    p_b = stats.poisson.cdf(7, mu_b) - stats.poisson.pmf(0, mu_b)
    p_d = stats.poisson.cdf(7, mu_d) - stats.poisson.pmf(0, mu_d)
    predicted = 20_000 * (p_b + p_d)
    sd = np.sqrt(20_000 * (p_b * (1 - p_b) + p_d * (1 - p_d)))
    assert discarded == pytest.approx(predicted, abs=4 * sd)


def _assert_one_pass_matches_simulate_then_herald(rates, cfg, n, mode, seed):
    one = simulate_dataset(rates, cfg, n, seed, mode=mode)
    raw = simulate_dataset(rates, replace(cfg, herald_duration_us=0.0), n, seed, mode=mode)
    assert len(raw) == 2 * n and raw.n_bins == cfg.n_bins
    # the herald written out on the unheralded counts
    hb, counts = cfg.herald_bins, raw.counts.astype(np.int64)
    window = counts[:, :hb].sum(axis=1)
    keep = (window == 0) | (window >= cfg.herald_bright_min) if hb else np.ones(2 * n, bool)
    bright = window[keep] >= cfg.herald_bright_min if hb else raw.bright
    post = counts[keep, hb:]
    # the tally read off the records
    n_bright = np.count_nonzero(one.bright)
    assert (n_bright, len(one) - n_bright, 2 * n - len(one)) == \
        (int(bright.sum()), int((~bright).sum()), int((~keep).sum()))
    assert np.array_equal(one.bright, bright)
    assert np.array_equal(one.counts, post) and np.array_equal(one.prefix, post.cumsum(axis=1))
    # the prefix type is the narrowest that holds the largest retained record total
    assert one.prefix.dtype == _counts_dtype(int(post.sum(axis=1).max(initial=0)))
    assert one.counts.dtype == one.prefix.dtype
    return one, raw


@pytest.mark.parametrize("mode", ["exact", "bin-boundary"])
@pytest.mark.parametrize("rates, cfg, n", [
    # more trials than one block, every herald outcome
    (PUMPED, ReadoutConfig(1.0, 60, 20.0, 3), _BLOCK_TRIALS + 37),
    (PUMPED, ReadoutConfig(1.0, 60, 0.0), 300),
    # counts above 32767 widen the counts and the prefix sums
    (RateParams(5e4, 1.0), ReadoutConfig(1000.0, 4, 1000.0, 8), 20),
], ids=["two-blocks", "no-herald", "wide-counts"])
def test_one_pass_herald_equals_simulate_then_herald(rates, cfg, n, mode):
    one, _ = _assert_one_pass_matches_simulate_then_herald(rates, cfg, n, mode, seed=12)
    if cfg.herald_bins == 0:
        assert len(one) == 2 * n and one.bright.tolist() == [True] * n + [False] * n
    else:
        assert 0 < len(one) < 2 * n


@pytest.mark.parametrize("mode", ["exact", "bin-boundary"])
def test_prefix_widening_mid_simulation_keeps_the_written_rows(mode, monkeypatch):
    monkeypatch.setattr("ionreadout.photon_sim._PLACE_BUDGET", 1)  # one row per chunk
    cfg = ReadoutConfig(1.0, 130, 10.0, 8)
    one, _ = _assert_one_pass_matches_simulate_then_herald(RateParams(1000.0, 1.0), cfg, 40,
                                                           mode, seed=6)
    # the first retained record's total fits int8, a later one's does not
    totals = one.prefix[:, -1]
    assert totals[0] <= np.iinfo(np.int8).max < totals.max()
    assert one.prefix.dtype == np.int16


def test_one_pass_simulation_holds_only_the_retained_prefix(peak_rise):
    paper = Path(__file__).resolve().parent.parent / "scenarios" / "paper.cfg"
    rise, prefix_bytes = peak_rise(
        "import ionreadout\n"
        "from ionreadout.scenario import load_scenario\n"
        f"scn = load_scenario({str(paper)!r})",
        "ionreadout.simulate_dataset(scn.rates, scn.readout, 10, seed=2)",
        "ds = ionreadout.simulate_dataset(scn.rates, scn.readout, 10_000, seed=1)",
        "ds.prefix.nbytes")
    assert prefix_bytes > 5 * 2**20  # about 13,000 retained rows of 450 int8 sums
    assert 0 < rise <= prefix_bytes + 8 * 2**20, f"rise {rise / 2**20:.1f} MiB"


def test_fast_pumping_draws_a_block_in_sub_batches(peak_rise):
    # about 500 flips per trial: one segment per flip for a whole 4,096-trial
    # block would raise the peak by about 200 MB
    rise, prefix_bytes = peak_rise(
        "import warnings\n"
        "import ionreadout\n"
        "warnings.simplefilter('ignore')\n"
        "fast = ionreadout.RateParams(1000.0, 1.0, 999.0, 999.0)\n"
        "cfg = ionreadout.ReadoutConfig(n_bins=500, herald_duration_us=0.0)",
        "ionreadout.simulate_dataset(fast, ionreadout.ReadoutConfig(n_bins=20, "
        "herald_duration_us=0.0), 5, seed=1)",
        "ds = ionreadout.simulate_dataset(fast, cfg, 4096, seed=1)",
        "ds.prefix.nbytes")
    assert prefix_bytes == 2 * 4096 * 500 * 2  # int16 sums, two blocks of 4,096 trials
    assert 0 < rise < 64 * 2**20, f"rise {rise / 2**20:.1f} MiB"


def test_stream_config_validation():
    with pytest.raises(ValueError):
        EmitterStreamConfig(emission_rate_s=1e5, dead_time_s=-1e-9,
                            route_prob_a=0.5, route_prob_b=0.5)
    with pytest.raises(ValueError):
        EmitterStreamConfig(emission_rate_s=1e5, dead_time_s=0.0,
                            route_prob_a=0.7, route_prob_b=0.7)


def test_stream_config_names_a_window_off_the_ns_tick_range():
    good = dict(emission_rate_s=1e5, dead_time_s=1e-9, route_prob_a=0.5, route_prob_b=0.5)
    for duration_s in (0.0, -1.0, 1e-10, 5e-10):
        with pytest.raises(ValueError, match=r"^duration_s \(.* s\) must round to at least 1 ns"):
            EmitterStreamConfig(**good, duration_s=duration_s)
    assert EmitterStreamConfig(**good, duration_s=6e-10).duration_s == 6e-10  # 1 ns
    # an offset past the int64 range would wrap channel B's ticks
    for offset in (1e291, -1e10):
        with pytest.raises(ValueError, match=r"^duration_s \+ \|delay_offset_b_s\| must stay"):
            EmitterStreamConfig(**good, delay_offset_b_s=offset)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", [
    "emission_rate_s", "dead_time_s", "route_prob_a", "route_prob_b",
    "background_rate_a_s", "background_rate_b_s", "delay_offset_b_s", "duration_s",
])
def test_stream_config_rejects_non_finite_fields(name, value):
    """Construction only: a stream at an infinite rate would never finish drawing."""
    good = dict(emission_rate_s=1e5, dead_time_s=1e-9, route_prob_a=0.5, route_prob_b=0.5)
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        EmitterStreamConfig(**{**good, name: value})


def test_dead_time_forbids_pairs_near_offset():
    cfg = EmitterStreamConfig(
        emission_rate_s=8e5, dead_time_s=5e-9, route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=0.2,
    )
    a, b = simulate_timetag_streams(cfg, seed=7)
    # enumerate every A-B delay within a window around the offset
    lo = np.searchsorted(b.t_ns, a.t_ns - 100)
    hi = np.searchsorted(b.t_ns, a.t_ns + 100, side="right")
    delays = np.concatenate(
        [b.t_ns[l:h] - t for t, l, h in zip(a.t_ns, lo, hi) if h > l]
    )
    assert delays.size > 1000
    assert not np.any(np.abs(delays - 28) < 5)


def _reference_streams(cfg, seed):
    """Tag ticks from one long draw per child generator: cumsum, route, rint, merge, trim."""
    emit, route, bg_a, bg_b = (np.random.default_rng(child)
                               for child in np.random.SeedSequence(seed).spawn(4))

    def arrivals(rng, rate, dead_time):
        t = np.cumsum(rng.exponential(1 / rate, int(2 * rate * cfg.duration_s) + 100)
                      + dead_time)
        assert t[-1] >= cfg.duration_s  # the draw runs past the window
        return t[t < cfg.duration_s]

    emissions = arrivals(emit, cfg.emission_rate_s, cfg.dead_time_s)
    u = route.random(emissions.size)
    to_a = u < cfg.route_prob_a
    to_b = ~to_a & (u < cfg.route_prob_a + cfg.route_prob_b)
    duration_ns = round(cfg.duration_s * 1e9)
    out = []
    for routed, offset, rng, bg_rate in (
            (to_a, 0.0, bg_a, cfg.background_rate_a_s),
            (to_b, cfg.delay_offset_b_s, bg_b, cfg.background_rate_b_s)):
        t_ns = np.concatenate([(emissions[routed] + offset) * 1e9,
                               arrivals(rng, bg_rate, 0.0) * 1e9])
        ticks = np.sort(np.rint(t_ns).astype(np.int64))
        inside = (ticks >= 0) & (ticks < duration_ns)
        out.append((ticks[inside], int(np.count_nonzero(~inside))))
    return out


# an emitter and both backgrounds; channel B's offset pushes tags below 0,
# and the 75,000 emissions span two draw chunks
MIXED = EmitterStreamConfig(
    emission_rate_s=3e5, dead_time_s=2e-9, route_prob_a=0.35, route_prob_b=0.45,
    background_rate_a_s=4e4, background_rate_b_s=7e4, delay_offset_b_s=-2e-4,
    duration_s=0.25,
)


def test_timetag_streams_match_the_reference_assembly():
    streams = simulate_timetag_streams(MIXED, seed=3)
    (ref_a, cut_a), (ref_b, cut_b) = _reference_streams(MIXED, seed=3)
    assert MIXED.emission_rate_s * MIXED.duration_s > _TAG_CHUNK
    assert cut_b > 0  # the negative channel-B offset pushes tags below 0
    for stream, ref in zip(streams, (ref_a, ref_b)):
        assert stream.t_ns.dtype == np.int64
        assert np.array_equal(stream.t_ns, ref)
        assert stream.duration_ns == 250_000_000


def test_timetag_streams_do_not_depend_on_the_chunk_size(monkeypatch):
    whole = simulate_timetag_streams(MIXED, seed=4)
    monkeypatch.setattr(photon_sim, "_TAG_CHUNK", 1000)
    for stream, ref in zip(simulate_timetag_streams(MIXED, seed=4), whole):
        assert np.array_equal(stream.t_ns, ref.t_ns)


def test_tick_arrays_grow_past_their_capacity(monkeypatch):
    whole = simulate_timetag_streams(MIXED, seed=5)
    grew = []
    write = photon_sim._write_ticks

    def spy(ticks, n, t_ns):
        out, end = write(ticks, n, t_ns)
        grew.append(out.size > ticks.size)
        return out, end

    monkeypatch.setattr(photon_sim, "_tag_capacity", lambda mean: 1)
    monkeypatch.setattr(photon_sim, "_write_ticks", spy)
    for stream, ref in zip(simulate_timetag_streams(MIXED, seed=5), whole):
        assert np.array_equal(stream.t_ns, ref.t_ns)
    assert sum(grew) >= 4  # the first write of each of the four arrays at least


def test_background_only_streams_are_poisson():
    cfg = EmitterStreamConfig(
        emission_rate_s=0.0, dead_time_s=0.0, route_prob_a=0.0, route_prob_b=0.0,
        background_rate_a_s=2e5, background_rate_b_s=2e5, duration_s=0.5,
    )
    a, b = simulate_timetag_streams(cfg, seed=21)
    for stream in (a, b):
        n = stream.t_ns.size
        assert n == pytest.approx(1e5, abs=4 * np.sqrt(1e5))
        assert np.all(np.diff(stream.t_ns) >= 0)
        assert stream.t_ns[0] >= 0 and stream.t_ns[-1] < stream.duration_ns
        # uniform in time: counts in 20 equal slices
        slices = np.bincount(stream.t_ns * 20 // stream.duration_ns, minlength=20)
        assert stats.chisquare(slices).pvalue > 1e-3
        # exponential gaps: variance = mean^2, within 5 sigma (sqrt(8 / n) relative)
        gaps = np.diff(stream.t_ns)
        assert gaps.var() / gaps.mean() ** 2 == pytest.approx(1.0, abs=5 * np.sqrt(8 / n))
    assert not np.array_equal(a.t_ns[:100], b.t_ns[:100])  # independent channels


def test_single_emitter_keeps_its_dead_time_and_routing():
    cfg = EmitterStreamConfig(
        emission_rate_s=8e5, dead_time_s=20e-9, route_prob_a=0.3, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=0.2,
    )
    a, b = simulate_timetag_streams(cfg, seed=8)
    for stream in (a, b):
        assert np.diff(stream.t_ns).min() >= 20 - 1  # rounding moves a tag by 0.5 ns
    n = a.t_ns.size + b.t_ns.size
    q = cfg.route_prob_a / (cfg.route_prob_a + cfg.route_prob_b)
    assert n > 10**5
    assert abs(a.t_ns.size - q * n) <= 5 * np.sqrt(n * q * (1 - q))


def test_timetag_draw_holds_only_the_tick_arrays(peak_rise):
    # a tick array allocated at its upper bound costs what its tags fill; a
    # full-length float copy of one channel (16 MB at 2 x 10^6 tags) would
    # break the bound
    rise, tick_bytes = peak_rise(
        "from dataclasses import replace\n"
        "import ionreadout\n"
        "cfg = ionreadout.EmitterStreamConfig(\n"
        "    emission_rate_s=0.0, dead_time_s=0.0, route_prob_a=0.0, route_prob_b=0.0,\n"
        "    background_rate_a_s=2e6, background_rate_b_s=2e6, duration_s=1.0)",
        "ionreadout.simulate_timetag_streams(replace(cfg, duration_s=1e-3), 2)",
        "a, b = ionreadout.simulate_timetag_streams(cfg, 1)",
        "a.t_ns.nbytes + b.t_ns.nbytes")
    assert tick_bytes > 30 * 2**20  # about 4 x 10^6 int64 tags
    assert 0 < rise <= tick_bytes + 8 * 2**20, f"rise {rise / 2**20:.1f} MiB"


def test_binning_rows_in_chunks_keeps_the_stream(rates, monkeypatch):
    cfg = ReadoutConfig(n_bins=80, herald_duration_us=0.0)
    whole = simulate_dataset(rates, cfg, trials_per_state=300, seed=6)
    monkeypatch.setattr("ionreadout.photon_sim._PLACE_BUDGET", 100)
    assert np.array_equal(simulate_dataset(rates, cfg, 300, seed=6).counts, whole.counts)
