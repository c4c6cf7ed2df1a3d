"""Coincidence histogram estimation on simulated tag streams."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionreadout import (
    EmitterStreamConfig,
    G2Estimate,
    TimeTagStream,
    find_dip,
    g2_estimate,
    simulate_timetag_streams,
)
from ionreadout import timing
from ionreadout.timing import _pair_delays


def _sigma(est: G2Estimate) -> np.ndarray:
    return est.ci_high - est.g2


def _thin(stream: TimeTagStream, keep: float, rng) -> TimeTagStream:
    mask = rng.random(stream.t_ns.size) < keep
    return TimeTagStream(stream.channel, stream.t_ns[mask], stream.duration_ns)


@pytest.fixture(scope="module")
def antibunched():
    cfg = EmitterStreamConfig(
        emission_rate_s=5.42e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=1.0,
    )
    a, b = simulate_timetag_streams(cfg, seed=42)
    return g2_estimate(a, b)


def test_uncorrelated_poisson_channels_give_flat_g2():
    cfg = EmitterStreamConfig(
        emission_rate_s=0.0, dead_time_s=0.0,
        route_prob_a=0.0, route_prob_b=0.0,
        background_rate_a_s=1.05e6, background_rate_b_s=1.05e6,
        duration_s=1.0,
    )
    a, b = simulate_timetag_streams(cfg, seed=42)
    assert a.t_ns.size >= 1_000_000 and b.t_ns.size >= 1_000_000
    est = g2_estimate(a, b)
    dev = np.abs(est.g2 - 1.0) / _sigma(est)
    assert dev.max() < 5.0


def test_single_emitter_dip_sits_at_channel_offset(antibunched):
    est = antibunched
    assert np.all(est.g2 >= 0.0)
    assert np.all(_sigma(est) > 0.0)
    dip = find_dip(est)
    assert dip.delay_ns == 28.0
    assert dip.g2_min == 0.0


def test_dead_time_clears_neighboring_bins():
    # routing is exclusive, so every A-B pair spans >= 1 dead time
    cfg = EmitterStreamConfig(
        emission_rate_s=8e5, dead_time_s=5e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=0.5,
    )
    a, b = simulate_timetag_streams(cfg, seed=7)
    est = g2_estimate(a, b)
    hole = (est.delay_ns >= 24.0) & (est.delay_ns <= 32.0)
    assert hole.sum() == 9
    assert est.n_pairs[hole].sum() == 0
    assert est.n_pairs[~hole].sum() > 0


def test_channel_swap_mirrors_histogram():
    cfg = EmitterStreamConfig(
        emission_rate_s=2e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=0.2,
    )
    a, b = simulate_timetag_streams(cfg, seed=5)
    fwd = g2_estimate(a, b)
    rev = g2_estimate(b, a)
    assert np.array_equal(rev.n_pairs, fwd.n_pairs[::-1])
    assert np.array_equal(rev.delay_ns, -fwd.delay_ns[::-1])


def test_background_fills_dip_partway():
    cfg = EmitterStreamConfig(
        emission_rate_s=5.42e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        background_rate_a_s=5e4, background_rate_b_s=5e4,
        delay_offset_b_s=28e-9, duration_s=1.0,
    )
    a, b = simulate_timetag_streams(cfg, seed=11)
    est = g2_estimate(a, b)
    dip = find_dip(est)
    assert dip.delay_ns == 28.0
    assert 0.0 < dip.g2_min < 1.0
    tail = np.abs(est.delay_ns) > 290.0
    assert abs(est.g2[tail].mean() - 1.0) <= 0.01


def test_random_thinning_preserves_g2():
    cfg = EmitterStreamConfig(
        emission_rate_s=5.42e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=1.0,
    )
    a, b = simulate_timetag_streams(cfg, seed=13)
    full = g2_estimate(a, b)
    rng = np.random.default_rng(99)
    thin = g2_estimate(_thin(a, 0.5, rng), _thin(b, 0.5, rng))
    diff = thin.g2 - full.g2
    sigma = np.hypot(_sigma(full), _sigma(thin))
    assert np.all(np.abs(diff) < 5.0 * sigma)
    se_mean = np.sqrt(np.sum(sigma**2)) / sigma.size
    assert abs(diff.mean()) < 3.0 * se_mean


def _manual_estimate(delays, g2):
    delays = np.asarray(delays, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    sigma = np.full(g2.size, 0.1)
    return G2Estimate(
        delay_ns=delays, g2=g2, ci_low=g2 - sigma, ci_high=g2 + sigma,
        masked=np.zeros(g2.size, dtype=bool), n_pairs=np.ones(g2.size, dtype=np.int64),
        bin_width_ns=1.0,
    )


def test_dip_tie_breaking_prefers_small_delays():
    flat = _manual_estimate(np.arange(-3, 4), np.ones(7))
    assert find_dip(flat).delay_ns == 0.0
    two = _manual_estimate(np.arange(-2, 3), [1.0, 0.0, 1.0, 0.0, 1.0])
    assert find_dip(two).delay_ns == -1.0


def test_masked_window_excluded_from_dip_search(antibunched):
    cfg = EmitterStreamConfig(
        emission_rate_s=5.42e5, dead_time_s=1e-9,
        route_prob_a=0.5, route_prob_b=0.5,
        delay_offset_b_s=28e-9, duration_s=1.0,
    )
    a, b = simulate_timetag_streams(cfg, seed=42)
    est = g2_estimate(a, b, exclude_ns=(20.0, 36.0))
    assert np.count_nonzero(est.masked) == 17
    dip = find_dip(est)
    assert not (20.0 <= dip.delay_ns <= 36.0)
    unmasked_min = est.g2[~est.masked].min()
    assert dip.g2_min == unmasked_min
    assert dip.g2_min > find_dip(antibunched).g2_min

    everything = g2_estimate(a, b, exclude_ns=(-500.0, 500.0))
    with pytest.raises(ValueError, match="masked"):
        find_dip(everything)


def test_stream_validation():
    with pytest.raises(ValueError, match="sorted"):
        TimeTagStream("A", np.array([5, 3, 9]), 100)
    with pytest.raises(ValueError, match="within"):
        TimeTagStream("A", np.array([0, 100]), 100)
    with pytest.raises(ValueError, match="within"):
        TimeTagStream("A", np.array([-1, 2]), 100)
    with pytest.raises(ValueError, match="duration"):
        TimeTagStream("A", np.array([0]), 0)


def test_estimate_validation():
    good = TimeTagStream("A", np.array([1, 5, 9]), 100)
    other = TimeTagStream("B", np.array([2, 6]), 100)
    empty = TimeTagStream("B", np.array([], dtype=np.int64), 100)
    longer = TimeTagStream("B", np.array([2, 6]), 200)
    with pytest.raises(ValueError, match="empty"):
        g2_estimate(good, empty)
    with pytest.raises(ValueError, match="observation window"):
        g2_estimate(good, longer)
    with pytest.raises(ValueError, match="bin_width"):
        g2_estimate(good, other, bin_width_ns=0)
    with pytest.raises(ValueError, match="max_delay"):
        g2_estimate(good, other, bin_width_ns=5, max_delay_ns=2)
    with pytest.raises(ValueError, match="exclusion"):
        g2_estimate(good, other, exclude_ns=(10.0, -10.0))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="max_delay_ns must be finite"):
            g2_estimate(good, other, max_delay_ns=bad)
    for window in ((float("nan"), 10.0), (-10.0, float("nan")), (-float("inf"), 10.0)):
        with pytest.raises(ValueError, match="exclusion window bounds must be finite"):
            g2_estimate(good, other, exclude_ns=window)


def test_fractional_bin_width_is_rejected():
    """A 1.5 ns bin would hold one or two integer delays in turn."""
    cfg = EmitterStreamConfig(
        emission_rate_s=0.0, dead_time_s=0.0, route_prob_a=0.0, route_prob_b=0.0,
        background_rate_a_s=1.05e6, background_rate_b_s=1.05e6, duration_s=0.01,
    )
    a, b = simulate_timetag_streams(cfg, seed=5)
    for width in (1.5, 2.25, float("nan")):
        with pytest.raises(ValueError, match="bin_width_ns"):
            g2_estimate(a, b, bin_width_ns=width, max_delay_ns=20)
    assert g2_estimate(a, b, bin_width_ns=2.0, max_delay_ns=20).bin_width_ns == 2.0


def test_blocked_pair_delays_are_every_pair_in_the_window():
    rng = np.random.default_rng(8)
    a = np.sort(rng.integers(0, 3000, 400))
    b = np.sort(rng.integers(0, 3000, 300))
    every = (b[None, :] - a[:, None]).ravel()
    for max_delay in (0, 7, 40):
        got = np.concatenate(list(_pair_delays(a, b, max_delay, block=7)))
        assert np.array_equal(np.sort(got), np.sort(every[np.abs(every) <= max_delay]))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_pair_walk_yields_exactly_the_brute_force_pairs(data):
    """Every block size yields the multiset of b - a with |b - a| <= max_delay.

    The draws cover duplicate tags in both channels, B tags at exactly
    +/- max_delay and +/- (max_delay + 1) from an A tag, A tags within
    max_delay of 0, a B tag closing the stream, empty windows (B may be
    empty) and max_delay 0.
    """
    max_delay = data.draw(st.sampled_from([0, 1, 5]) | st.integers(0, 60), label="max_delay")
    tags = st.integers(0, 400)
    a = data.draw(st.lists(tags, min_size=1, max_size=40), label="a")
    a.append(data.draw(st.integers(0, max_delay), label="a_near_zero"))
    a += a[: data.draw(st.integers(0, 3), label="a_dups")]
    a = np.sort(np.array(a, dtype=np.int64))
    b = data.draw(st.lists(tags, max_size=40), label="b")
    b += b[: data.draw(st.integers(0, 3), label="b_dups")]
    edges = st.tuples(st.integers(0, a.size - 1), st.sampled_from([-1, 1]), st.sampled_from([0, 1]))
    for i, sign, past in data.draw(st.lists(edges, max_size=8), label="edges"):
        b.append(a[i] + sign * (max_delay + past))
    if data.draw(st.booleans(), label="b_last"):
        b.append(a[-1] + data.draw(st.integers(0, max_delay + 1), label="b_last_delay"))
    b = np.sort(np.array([t for t in b if t >= 0], dtype=np.int64))

    every = (b[None, :] - a[:, None]).ravel()
    want = np.sort(every[np.abs(every) <= max_delay])
    for block in (1, 7, a.size + 1):
        parts = list(_pair_delays(a, b, max_delay, block=block))
        got = np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)
        assert got.dtype == np.int64
        assert np.array_equal(got, want), block


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
def test_integer_binning_matches_histogram_edges(width):
    """Pair counts equal np.histogram on edges (i - n_side -/+ 1/2) * width."""
    max_delay = 6 * width + width // 2 + 1  # not a multiple of the width
    n_side = max_delay // width
    edge = n_side * width + width // 2  # the outermost integer delay inside the edges
    rng = np.random.default_rng(width)
    a = np.sort(rng.integers(200, 800, 150))
    b = np.sort(np.concatenate([rng.integers(0, 1000, 150), a[:3] + edge, a[3:6] - edge,
                                a[6:9] + edge + 1, a[9:12] - edge - 1]))
    est = g2_estimate(TimeTagStream("A", a, 1000), TimeTagStream("B", b, 1000),
                      bin_width_ns=width, max_delay_ns=max_delay)
    edges = (np.arange(-n_side, n_side + 2) - 0.5) * width
    ref = np.histogram((b[None, :] - a[:, None]).ravel(), bins=edges)[0]
    assert np.array_equal(est.n_pairs, ref)
    assert est.n_pairs[0] > 0 and est.n_pairs[-1] > 0


def test_g2_and_streams_do_not_depend_on_the_cpu_count(monkeypatch):
    """One CPU and four give the same streams and the same histogram, bit for bit.

    At 4 parts each part of A's ~4 x 10^5 tags spans several of the
    walk's 2^15-tag blocks.  The background-only streams (no emitter,
    the two backgrounds drawn at once) are compared too.  The histogram
    is checked against brute force at widths 1 (the shifted delay is the
    bin), 2 (the last bin's upper edge is clipped into it) and 3.
    """
    cfg = EmitterStreamConfig(
        emission_rate_s=8e5, dead_time_s=1e-9, route_prob_a=0.5, route_prob_b=0.5,
        background_rate_a_s=2e5, background_rate_b_s=2e5,
        delay_offset_b_s=28e-9, duration_s=0.5,
    )
    background = EmitterStreamConfig(emission_rate_s=0.0, background_rate_a_s=9e5,
                                     background_rate_b_s=8e5, duration_s=0.5)
    widths = (1, 2, 3)
    runs = []
    for cpus in (1, 4):
        monkeypatch.setattr(timing.os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)),
                            raising=False)
        assert timing._cpu_count() == cpus
        streams = [simulate_timetag_streams(cfg, seed=3),
                   simulate_timetag_streams(background, seed=4)]
        runs.append((streams, [g2_estimate(*streams[0], bin_width_ns=w, max_delay_ns=40)
                               for w in widths]))
    (streams1, ests1), (streams4, ests4) = runs
    a1, b1 = streams1[0]
    assert a1.t_ns.size > 4 * 2 * (1 << 15)
    assert streams1[1][0].t_ns.size > 4 * 2 * (1 << 15)
    for (a, b), (a4, b4) in zip(streams1, streams4):
        assert np.array_equal(a.t_ns, a4.t_ns) and np.array_equal(b.t_ns, b4.t_ns)
    for est1, est4 in zip(ests1, ests4):
        for name in ("delay_ns", "g2", "ci_low", "ci_high", "masked", "n_pairs"):
            got1, got4 = getattr(est1, name), getattr(est4, name)
            assert got1.dtype == got4.dtype and got1.tobytes() == got4.tobytes(), name

    # brute force: every B tag against the A tags within reach of it
    for w, est1 in zip(widths, ests1):
        n_side = 40 // w
        lo = np.searchsorted(a1.t_ns, b1.t_ns - (n_side * w + w // 2))
        hi = np.searchsorted(a1.t_ns, b1.t_ns + (n_side * w + w // 2), side="right")
        n = hi - lo
        a_of_pair = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - lo, n)
        pairs = np.repeat(b1.t_ns, n) - a1.t_ns[a_of_pair]
        edges = (np.arange(-n_side, n_side + 2) - 0.5) * w
        assert np.array_equal(est1.n_pairs, np.histogram(pairs, bins=edges)[0]), w
        if w % 2 == 0:  # the clipped upper edge is a delay this histogram holds
            assert np.any(pairs == n_side * w + w // 2), w


def test_cpu_count_falls_back_without_affinity(monkeypatch):
    monkeypatch.delattr(timing.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(timing.os, "cpu_count", lambda: 3)
    assert timing._cpu_count() == 3
    monkeypatch.setattr(timing.os, "cpu_count", lambda: None)
    assert timing._cpu_count() == 1
