import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.signal import find_peaks, peak_prominences

from oracles import (detect_events_loop, eligible_edge_events, estimate_baseline_histogram,
                     match_events)
from peak_rss import SRC, STATUS
from spdsim import analysis, detsim
from spdsim.analysis import (detect_events, edge_times, estimate_baseline,
                             estimate_eqe, eqe_from_frequency_sweep, mean_edge_times,
                             occupation_histogram)
from spdsim.detsim import DetectorParams, EventRecord, synthesize_trace
from spdsim.source import CoherentPulseTrain


def spaced_events(n, spacing_us=150.0, dwell_us=30.0, start_us=50.0):
    caps = start_us + spacing_us * np.arange(n)
    return EventRecord(caps, caps + dwell_us)


@st.composite
def baseline_windows(draw):
    """A trace in windows of 8 samples or more, with a tail that may fold.
    Each window spans [lo, hi] at an offset up to 1e6 and holds a few of its
    own bin edges, np.linspace(lo, hi, 102), and their neighbouring floats,
    where numpy's index corrections fire; or is constant; or cycles through
    a few edges, so bins tie; or holds arbitrary values in [lo, hi]."""
    w = draw(st.integers(8, 40))
    n = w * draw(st.integers(1, 4)) + draw(st.integers(0, w - 1))
    starts = list(range(0, n, w))
    if len(starts) > 1 and n - starts[-1] < w // 2:
        starts.pop()
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]) | st.floats(-1e6, 1e6))
    windows = []
    for size in np.diff(starts, append=n).tolist():
        lo = offset + draw(st.floats(-1.0, 1.0))
        hi = lo + draw(st.sampled_from([1e-9, 1e-3, 0.37, 1.0, 3e3]) | st.floats(1e-6, 10.0))
        edges = np.linspace(lo, hi, 102)
        near = np.clip(np.concatenate([edges, np.nextafter(edges, -np.inf),
                                       np.nextafter(edges, np.inf)]), lo, hi)
        kind = draw(st.sampled_from(["edges", "constant", "ties", "floats"]))
        if kind == "edges":  # a few edges, so a misplaced sample moves the mode
            ks = draw(st.lists(st.integers(0, 101), min_size=1, max_size=3))
            picks = draw(st.lists(st.tuples(st.sampled_from(ks), st.sampled_from([0, 102, 204])),
                                  min_size=size, max_size=size))
            window = near[[k + ulp for k, ulp in picks]]
            window[draw(st.permutations(range(size)))[:2]] = lo, hi  # pin the window's range
        elif kind == "constant":
            window = np.full(size, lo)
        elif kind == "ties":
            cycle = draw(st.lists(st.integers(1, 100), min_size=1, max_size=4))
            window = np.resize(edges[[0, 101] + cycle], size)
        else:
            window = np.array(draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))
        windows.append(window)
    return detsim.TimeTrace(1e6, 0.0, np.concatenate(windows)), w / 1e6


class TestBaseline:
    def test_tracks_slow_drift(self):
        rng = np.random.default_rng(4)
        fs = 1e6
        n = 200_000
        drift = np.linspace(0.0, 0.4, n)
        trace = detsim.TimeTrace(fs, 0.0, drift + rng.normal(0, 0.02, n))
        starts, modes = estimate_baseline(trace, window_s=0.01)
        assert starts.tolist() == list(range(0, n, 10_000))
        baseline = np.repeat(modes, np.diff(starts, append=n))
        assert np.max(np.abs(baseline - drift)) < 0.05

    def test_short_tail_folds_into_last_window(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.random.default_rng(1).normal(size=24_000))
        starts, modes = estimate_baseline(trace, window_s=0.01)
        assert starts.tolist() == [0, 10_000]  # the 4000-sample tail joins the second
        assert modes.shape == starts.shape

    def test_constant_trace_rejected(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.zeros(100_000))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_baseline(trace, window_s=0.01)

    def test_constant_trace_too_large_for_101_bins_rejected(self):
        # at 1e16 the widened range (v - 0.5, v + 0.5) rounds back onto v
        trace = detsim.TimeTrace(1e6, 0.0, np.full(30_000, 1e16))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_baseline(trace, window_s=0.01)

    def test_short_trace_rejected(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.random.default_rng(0).normal(size=100))
        with pytest.raises(ValueError, match="shorter"):
            estimate_baseline(trace, window_s=0.01)

    @settings(max_examples=400, deadline=None)
    @given(baseline_windows())
    def test_matches_np_histogram(self, case):
        trace, window_s = case
        try:
            want = estimate_baseline_histogram(trace, window_s)
        except ValueError as exc:  # a constant trace, or a window too narrow for 101 bins
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                estimate_baseline(trace, window_s)
            return
        starts, modes = estimate_baseline(trace, window_s)
        assert starts.tolist() == want[0].tolist()
        assert modes.tobytes() == want[1].tobytes()


@st.composite
def threshold_traces(draw):
    """Runs of samples below the 0.5 V threshold (-1.0, -0.6), in the 0.2 V
    hysteresis band (-0.4) and above it (-0.2, 0), one to six samples long at
    1 MS/s, around a block of zeros that sets the baseline. Runs may chatter
    between any two levels; the trace may start and end below threshold."""
    runs = draw(st.lists(st.tuples(st.sampled_from([-1.0, -0.6, -0.4, -0.2, 0.0]),
                                   st.integers(1, 6)), max_size=40))
    runs.insert(draw(st.integers(0, len(runs))), (0.0, 8 + 6 * len(runs)))
    if draw(st.booleans()):
        runs.insert(0, (-1.0, draw(st.integers(1, 6))))
    if draw(st.booleans()):
        runs.append((-1.0, draw(st.integers(1, 6))))
    samples = np.concatenate([np.full(n, v) for v, n in runs])
    return detsim.TimeTrace(1e6, 0.0, samples)


class TestDetectEvents:
    @settings(max_examples=300, deadline=None)
    @given(threshold_traces(), st.sampled_from([0.0, 1.0, 2.0, 3.5]), st.data())
    def test_matches_event_by_event_loop(self, trace, min_width_us, data):
        if np.ptp(trace.samples) == 0:
            return  # a constant trace has no baseline; both raise
        # Windows from 8 samples to the whole trace, so runs straddle window
        # edges and each window subtracts its own mode.
        n = trace.n_samples
        window = data.draw(st.one_of(st.integers(8, min(16, n)), st.integers(8, n)))
        window_s = window / trace.sample_rate_hz
        found = detect_events(trace, 0.5, 0.2, min_width_us, window_s)
        expected = detect_events_loop(trace, 0.5, 0.2, min_width_us, window_s)
        assert np.array_equal(found.capture_times_us, expected.capture_times_us)
        assert np.array_equal(found.release_times_us, expected.release_times_us)

    def test_clean_pulse_exactly_one_event(self):
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0)
        record = EventRecord(np.array([5000.0]), np.array([5040.0]))
        trace = synthesize_trace(record, params, 0.012, 10e6, seed=0)
        found = detect_events(trace, threshold_v=0.5, hysteresis_v=0.2, min_width_us=1.0)
        assert found.n_captures == 1
        assert found.capture_times_us[0] == pytest.approx(5000.0, abs=5.0)

    def test_pure_noise_produces_no_events(self):
        # sigma = threshold / 6; min_width kills one-sample chatter
        rng = np.random.default_rng(12)
        fs = 5e6
        trace = detsim.TimeTrace(fs, 0.0, rng.normal(0.0, 1.0 / 6.0, int(2 * fs)))
        found = detect_events(trace, threshold_v=1.0, hysteresis_v=0.4, min_width_us=1.0)
        assert found.n_captures == 0

    def test_round_trip_recall_precision(self):
        truth = spaced_events(300)
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=1.0 / 8.0)
        duration = (truth.capture_times_us[-1] + 120.0) * 1e-6
        trace = synthesize_trace(truth, params, duration, 50e6, seed=22)
        found = detect_events(trace, 0.5, 0.25, 2.0)
        matched = match_events(truth.capture_times_us, found.capture_times_us, 3.0)
        assert matched / truth.n_captures >= 0.999
        assert matched / found.n_captures >= 0.999

    def test_parameter_ordering_enforced(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.random.default_rng(0).normal(size=20_000))
        with pytest.raises(ValueError):
            detect_events(trace, threshold_v=0.1, hysteresis_v=0.2, min_width_us=1.0)


def traced_peak(fn, *args):
    """(result, peak bytes numpy and Python allocated while `fn` ran)."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def mapped_cases(draw):
    """(record, n, block, window): a render block of 5-300 samples, a 10 MS/s
    trace of n samples, no multiple of the block, up to five events spaced
    so that their edges can be timed, and a baseline window of 8 samples up
    to the whole trace, which lines up with the blocks only by chance."""
    block = draw(st.integers(5, 300))
    n = draw(st.integers(1500, 4000).filter(lambda k: k % block))
    captures = [25.0 + 75.0 * i + draw(st.floats(0.0, 10.0))
                for i in range(draw(st.integers(0, 5)))]
    releases = [c + draw(st.floats(16.0, 40.0)) for c in captures]
    kept = [(c, r) for c, r in zip(captures, releases) if r + 15.0 < 0.1 * n]
    record = EventRecord(np.array([c for c, _ in kept]), np.array([r for _, r in kept]))
    return record, n, block, draw(st.integers(8, n))


def detection_and_edges(trace, window):
    """The events `detect_events` finds and their mean edges, or the
    ValueError of either."""
    try:
        found = detect_events(trace, 0.5, 0.2, 1.0, window / trace.sample_rate_hz)
    except ValueError as exc:
        return str(exc)
    try:
        edges = mean_edge_times(trace, found)
    except ValueError as exc:
        edges = str(exc)
    return found.capture_times_us.tolist(), found.release_times_us.tolist(), edges


class TestMappedTrace:
    """A trace read from its file, window by window, analyses as its array does."""

    @settings(max_examples=80, deadline=None)
    @given(mapped_cases(), st.integers(0, 2**32 - 1))
    def test_detection_and_edges_match_the_array(self, case, seed):
        record, n, block, window = case
        params = DetectorParams()
        with mock.patch.object(detsim, "_BLOCK_SAMPLES", block):
            array = synthesize_trace(record, params, n / 1e7, 1e7, seed)
            with tempfile.TemporaryDirectory() as tmp:
                base = Path(tmp) / "trace"
                detsim.write_trace(synthesize_trace(record, params, n / 1e7, 1e7, seed,
                                                    path=base.with_suffix(".f64")), base)
                mapped = detsim.read_trace(base)
                assert isinstance(mapped.samples, np.memmap)
                got = detection_and_edges(mapped, window)
        assert got == detection_and_edges(array, window)

    @staticmethod
    def assert_every_reader_rejects(trace, record, at):
        readers = [lambda: detect_events(trace, 0.5, 0.2, 1.0, 0.001),
                   lambda: estimate_baseline(trace, 0.001),
                   lambda: occupation_histogram(trace, 0.05)]
        if at == 2345:  # inside the second release's edge window, 2260-2419
            readers.append(lambda: mean_edge_times(trace, record))
        for read in readers:
            with pytest.raises(ValueError, match="trace contains non-finite samples"):
                read()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2345, 29_999])
    def test_non_finite_sample_in_the_file_is_rejected(self, tmp_path, bad, at):
        record = spaced_events(20, spacing_us=150.0, dwell_us=30.0)
        mapped = synthesize_trace(record, DetectorParams(), 3e-3, 1e7, seed=1,
                                  path=tmp_path / "trace.f64")
        with open(tmp_path / "trace.f64", "r+b") as f:  # the map reads the new sample
            f.seek(8 * at)
            f.write(np.array([bad]).tobytes())
        self.assert_every_reader_rejects(mapped, record, at)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2345, 29_999])
    def test_non_finite_sample_in_an_array_is_rejected(self, bad, at):
        record = spaced_events(20, spacing_us=150.0, dwell_us=30.0)
        trace = synthesize_trace(record, DetectorParams(), 3e-3, 1e7, seed=1)
        trace.samples[at] = bad  # the readers check it, not the trace
        self.assert_every_reader_rejects(trace, record, at)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 700), st.integers(0, 2**32 - 1))
    def test_edge_means_are_np_mean_of_each_offset(self, k, seed):
        # k windows of 160 samples: runs of up to 128 summed along numpy's
        # pairwise split give np.mean's float for every offset, from the
        # array and from its file
        rng = np.random.default_rng(seed)
        samples = rng.normal(0.0, 0.05, 20_000) - rng.integers(0, 2, 20_000)
        starts = np.sort(rng.integers(0, 20_000 - 160, k))
        want = [samples[starts + j].mean() for j in range(160)]
        array = detsim.TimeTrace(1e7, 0.0, samples)
        assert analysis._mean_window(array, starts, 160).tolist() == want
        with tempfile.TemporaryDirectory() as tmp:
            detsim.write_trace(array, Path(tmp) / "trace")
            mapped = detsim.read_trace(Path(tmp) / "trace")
            assert analysis._mean_window(mapped, starts, 160).tolist() == want


class TestTraceMemory:
    """The trace path keeps one float64 array as long as the trace alive."""

    n = 2_000_000  # 0.2 s at 10 MS/s

    @pytest.fixture(scope="class")
    def record(self):
        rng = np.random.default_rng(6)
        captures = np.sort(rng.uniform(0.0, 2e5, 2000))  # about the trace workload's event rate
        return EventRecord(captures, captures + rng.exponential(10.0, captures.size))

    def test_synthesize_trace_peak_is_one_sample_array(self, record):
        trace, peak = traced_peak(synthesize_trace, record, DetectorParams(), 0.2, 1e7, 3)
        assert trace.n_samples == self.n
        assert peak <= 1.25 * 8 * self.n

    def test_detect_events_scratch_is_window_sized(self, record):
        trace = synthesize_trace(record, DetectorParams(), 0.2, 1e7, 3)
        found, peak = traced_peak(detect_events, trace, 0.5, 0.2, 1.0)  # 0.01 s windows
        assert found.n_captures > 1000
        assert peak <= 0.25 * 8 * self.n  # beyond the samples, allocated before tracing


@st.composite
def peak_histograms(draw):
    """(counts, threshold): runs of one to five equal counts in 0-7, so flat
    tops are common, also at either end of the array. The threshold is some
    local maximum's exact prominence, as scipy measures it, or an integer
    0-3, which integer counts often hit exactly too, or any float in 0-8."""
    runs = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(1, 5)),
                         min_size=1, max_size=15))
    counts = np.repeat(*np.array(runs).T)
    prominences = peak_prominences(counts, find_peaks(counts)[0])[0].tolist()
    threshold = st.integers(0, 3) | st.floats(0.0, 8.0)
    if prominences:
        threshold = st.sampled_from(prominences) | threshold
    return counts, draw(threshold)


class TestProminentPeaks:
    @settings(max_examples=600, deadline=None)
    @given(peak_histograms())
    def test_matches_scipy_find_peaks(self, case):
        counts, threshold = case
        want = find_peaks(counts, prominence=threshold)[0]
        assert analysis._prominent_peaks(counts, threshold).tolist() == want.tolist()


class TestOccupationHistogram:
    def test_constant_trace_single_peak(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.full(5000, 0.7))
        hist = occupation_histogram(trace, 0.01)
        assert hist.n_peaks == 1
        assert hist.peak_levels_v[0] == pytest.approx(0.7, abs=0.01)

    def test_two_level_trace(self):
        params = DetectorParams(step_amplitude_v=0.5, noise_sigma_v=0.0)
        record = EventRecord(np.array([100.0]), np.array([400.0]))
        trace = synthesize_trace(record, params, 8e-4, 10e6, seed=0)
        hist = occupation_histogram(trace, 0.02)
        assert hist.n_peaks == 2
        assert hist.peak_spacings()[0] == pytest.approx(0.5, abs=0.04)

    def test_simulated_occupancy_three(self):
        params = DetectorParams(dark_rate_hz=30_000.0, hold_time_mean_us=40.0,
                                dead_time_us=0.0, max_occupancy=3,
                                step_amplitude_v=1.0, noise_sigma_v=0.08)
        src = CoherentPulseTrain(1550.0, 1e3, 0.0)
        record = detsim.simulate(params, src, 0.2, seed=5)
        _, occupancy = record.occupancy_series()
        assert occupancy.max() == 3
        trace = synthesize_trace(record, params, 0.2, 20e6, seed=6)
        hist = occupation_histogram(trace, bin_width_v=0.04)
        assert hist.n_peaks == 4
        spacings = hist.peak_spacings()
        assert (spacings.max() - spacings.min()) / spacings.mean() < 0.10

    def test_bin_width_validation(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.zeros(100))
        with pytest.raises(ValueError):
            occupation_histogram(trace, 0.0)

    def test_file_trace_is_read_in_windows(self, tmp_path):
        # 3 M samples (24 MB) on two levels. In a child process, so that
        # VmRSS is the call's own: a page read through the map would stay.
        if not STATUS.exists():
            pytest.skip("VmRSS needs /proc/self/status")
        rng = np.random.default_rng(3)
        samples = rng.normal(0.0, 0.05, 3_000_000) - rng.integers(0, 2, 3_000_000)
        detsim.write_trace(detsim.TimeTrace(1e7, 0.0, samples), tmp_path / "trace")
        script = textwrap.dedent("""
            import sys
            import numpy as np
            from spdsim import detsim
            from spdsim.analysis import occupation_histogram

            def rss_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmRSS:"))

            trace = detsim.read_trace(sys.argv[1])
            before = rss_kb()
            got = occupation_histogram(trace, 0.02)
            added_kb = rss_kb() - before
            array = detsim.TimeTrace(1e7, 0.0, np.fromfile(sys.argv[1] + ".f64", dtype="<f8"))
            want = occupation_histogram(array, 0.02)
            same = [np.array_equal(getattr(got, k), getattr(want, k))
                    for k in ("counts", "bin_centers", "peak_levels_v")]
            print(added_kb, all(same), got.n_peaks)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path / "trace")], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        added_kb, same, n_peaks = proc.stdout.split()
        assert (same, n_peaks) == ("True", "2")
        assert int(added_kb) < 5 * 1024


class TestEstimateEqe:
    def test_equal_counts_zero(self):
        result = estimate_eqe(5000, 5000, 0.05, 1e4, 10.0)
        assert result.eqe == 0.0
        assert not result.negative_after_subtraction

    def test_negative_flagged_not_clamped(self):
        result = estimate_eqe(4000, 5000, 0.05, 1e4, 10.0)
        assert result.eqe < 0
        assert result.negative_after_subtraction

    def test_sigma_combines_poisson_and_calibration(self):
        result = estimate_eqe(80_000, 20_000, 0.05, 1e4, 100.0)
        exposure = 0.05 * 1e4 * 100.0
        expected_eqe = 60_000 / exposure
        sigma_counting = math.sqrt(100_000) / exposure
        sigma_cal = 0.05 * expected_eqe
        assert result.eqe == pytest.approx(expected_eqe, rel=1e-12)
        assert result.eqe_sigma == pytest.approx(math.hypot(sigma_counting, sigma_cal),
                                                 rel=1e-12)

    def test_common_mode_rate_cancels(self):
        # dark-subtraction linearity: an extra rate feeding both runs drops out
        base = DetectorParams(absorptance_armchair=0.27, absorptance_zigzag=0.27,
                              iqe=0.79, dark_rate_hz=720.0, dead_time_us=0.0)
        bumped = DetectorParams(absorptance_armchair=0.27, absorptance_zigzag=0.27,
                                iqe=0.79, dark_rate_hz=720.0 + 500.0, dead_time_us=0.0)
        light = CoherentPulseTrain(1550.0, 1e4, 0.05)
        dark = CoherentPulseTrain(1550.0, 1e4, 0.0)
        duration = 120.0

        def eqe_of(params, seeds):
            n_l = detsim.simulate(params, light, duration, seeds[0]).n_detections
            n_d = detsim.simulate(params, dark, duration, seeds[1]).n_detections
            return estimate_eqe(n_l, n_d, 0.05, 1e4, duration)

        a = eqe_of(base, (100, 101))
        b = eqe_of(bumped, (102, 103))
        combined = math.hypot(a.eqe_sigma, b.eqe_sigma)
        assert abs(a.eqe - b.eqe) < 3 * combined

    def test_armchair_alignment_doubles_eqe(self):
        # aligning the polarization with the strongly absorbing axis doubles
        # the estimated efficiency relative to unpolarized light
        params = DetectorParams(absorptance_armchair=0.54, absorptance_zigzag=0.0,
                                iqe=0.79, dark_rate_hz=720.0, dead_time_us=0.0)
        duration, n_bar, f = 200.0, 0.05, 1e4

        def estimate(polarization, seeds):
            light = CoherentPulseTrain(1550.0, f, n_bar, polarization)
            dark = CoherentPulseTrain(1550.0, f, 0.0, polarization)
            n_l = detsim.simulate(params, light, duration, seeds[0]).n_detections
            n_d = detsim.simulate(params, dark, duration, seeds[1]).n_detections
            return estimate_eqe(n_l, n_d, n_bar, f, duration)

        from spdsim.source import PulsePolarization
        unpol = estimate(PulsePolarization.unpolarized(), (200, 201))
        armchair = estimate(PulsePolarization.armchair(), (202, 203))
        ratio_sigma = 2 * math.hypot(armchair.eqe_sigma / armchair.eqe,
                                     unpol.eqe_sigma / unpol.eqe)
        assert armchair.eqe / unpol.eqe == pytest.approx(2.0, abs=3 * ratio_sigma)

    def test_estimator_consistency_error_shrinks_with_duration(self):
        params = DetectorParams(absorptance_armchair=0.27, absorptance_zigzag=0.27,
                                iqe=0.79, dark_rate_hz=720.0, dead_time_us=0.0)
        light = CoherentPulseTrain(1550.0, 1e4, 0.05)
        dark = CoherentPulseTrain(1550.0, 1e4, 0.0)
        true_eqe = 1e4 * (1 - math.exp(-0.05 * 0.2133)) / (0.05 * 1e4)

        def errors(duration, seeds):
            out = []
            for s in seeds:
                n_l = detsim.simulate(params, light, duration, 2 * s).n_detections
                n_d = detsim.simulate(params, dark, duration, 2 * s + 1).n_detections
                out.append(estimate_eqe(n_l, n_d, 0.05, 1e4, duration).eqe - true_eqe)
            return np.array(out)

        short = errors(20.0, range(10))
        long = errors(320.0, range(10, 20))
        ratio = np.sqrt((short ** 2).mean() / (long ** 2).mean())
        assert 2.0 < ratio < 8.0  # expect ~4 for a 16x duration increase

    def test_zero_flux_rejected(self):
        with pytest.raises(ValueError):
            estimate_eqe(100, 50, 0.0, 1e4, 10.0)


class TestFrequencySweep:
    def test_noiseless_line_recovered_exactly(self):
        f = np.array([1e3, 2e3, 5e3, 1e4, 2e4])
        counts = 3.7 * f + 1234.5
        fit = eqe_from_frequency_sweep(list(zip(f, counts)), n_bar=0.05, duration_s=100.0)
        assert fit.slope == pytest.approx(3.7, rel=1e-12)
        assert fit.intercept == pytest.approx(1234.5, rel=1e-9)
        assert fit.slope_sigma == pytest.approx(0.0, abs=1e-9)
        assert fit.eqe_from_slope == pytest.approx(3.7 / (0.05 * 100.0), rel=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            eqe_from_frequency_sweep([(1e3, 5), (1e3, 6), (1e3, 7)], 0.05, 10.0)

    def test_too_few_frequencies_rejected(self):
        with pytest.raises(ValueError):
            eqe_from_frequency_sweep([(1e3, 5), (2e3, 6)], 0.05, 10.0)

    def test_residuals_normal_for_linear_model(self):
        rng = np.random.default_rng(33)
        f = np.array([1e3, 2e3, 5e3, 1e4, 2e4])
        standardized = []
        for _ in range(20):
            counts = 2.0 * f + 500.0 + rng.normal(0, 40.0, f.size)
            fit = eqe_from_frequency_sweep(list(zip(f, counts)), 0.05, 10.0)
            resid = counts - (fit.slope * f + fit.intercept)
            standardized.extend(resid / resid.std(ddof=2))
        assert abs(stats.skew(np.array(standardized))) < 0.5


class TestEdgeTimes:
    def test_exponential_identity(self):
        # 10-90% of a single exponential is tau ln 9
        for tau_scale in (0.8, 1.0, 1.3, 2.74):  # up to a 6.3 us fall
            params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0,
                                    fall_time_us=2.3 * tau_scale,
                                    rise_time_us=2.1 * tau_scale)
            record = spaced_events(1)
            trace = synthesize_trace(record, params, 3e-4, 50e6, seed=0)
            fall, rise = edge_times(trace, 50.0, 80.0)
            tau_f = 2.3 * tau_scale / math.log(9)
            tau_r = 2.1 * tau_scale / math.log(9)
            assert fall == pytest.approx(tau_f * math.log(9), rel=0.01)
            assert rise == pytest.approx(tau_r * math.log(9), rel=0.01)

    def test_ideal_step_bounded_by_sample_period(self):
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0,
                                fall_time_us=0.0, rise_time_us=0.0)
        record = spaced_events(1)
        trace = synthesize_trace(record, params, 3e-4, 50e6, seed=0)
        fall, rise = edge_times(trace, 50.0, 80.0)
        dt = 1e6 / 50e6
        assert fall <= dt + 1e-12
        assert rise <= dt + 1e-12

    def test_configured_edges_recovered_under_noise(self):
        record = spaced_events(400)
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=1.0 / 8.0)
        duration = (record.capture_times_us[-1] + 120.0) * 1e-6
        trace = synthesize_trace(record, params, duration, 50e6, seed=26)
        fall, rise, n_used = mean_edge_times(trace, record)
        assert n_used > 380
        assert fall == pytest.approx(2.3, rel=0.05)
        assert rise == pytest.approx(2.1, rel=0.05)

    def test_event_order_validated(self):
        trace = detsim.TimeTrace(50e6, 0.0, np.zeros(1000) + 0.0)
        with pytest.raises(ValueError):
            edge_times(trace, 10.0, 5.0)

    def test_unresolved_edge_errors(self):
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0,
                                fall_time_us=0.0, rise_time_us=0.0)
        record = EventRecord(np.array([4.0]), np.array([6.0]))
        trace = synthesize_trace(record, params, 1e-5, 10e6, seed=0)
        with pytest.raises(ValueError, match="edge not resolved"):
            edge_times(trace, 4.0, 4.4)

    @pytest.mark.parametrize("fall_us, rise_us", [(2.3, 2.1), (4.0, 4.0)])
    def test_detected_events_give_unbiased_edges(self, fall_us, rise_us):
        params = DetectorParams(fall_time_us=fall_us, rise_time_us=rise_us)
        for seed in range(1, 5):
            record = detsim.simulate(params, CoherentPulseTrain(1550.0, 200e3, 0.3), 0.3, seed)
            trace = synthesize_trace(record, params, 0.3, 10e6, seed=seed + 1000)
            fall, rise, _ = mean_edge_times(trace, detect_events(trace, 0.5, 0.2, 1.0))
            assert fall == pytest.approx(fall_us, rel=0.02)
            assert rise == pytest.approx(rise_us, rel=0.02)

    @pytest.mark.parametrize("fall_us, rise_us", [(6.3, 5.7), (8.0, 8.0)])
    def test_long_edges_read_right_or_raise(self, fall_us, rise_us):
        # A release fires with 30% of the step left, so the low level read
        # before it overlaps a rise this slow.
        params = DetectorParams(fall_time_us=fall_us, rise_time_us=rise_us)
        record = detsim.simulate(params, CoherentPulseTrain(1550.0, 200e3, 0.3), 0.3, 1)
        trace = synthesize_trace(record, params, 0.3, 10e6, seed=1001)
        found = detect_events(trace, 0.5, 0.2, 1.0)
        try:
            fall, rise, _ = mean_edge_times(trace, found)
        except ValueError as exc:
            assert "edge not resolved" in str(exc)
            return
        assert fall == pytest.approx(fall_us, rel=0.05)
        assert rise == pytest.approx(rise_us, rel=0.05)

    def test_scratch_is_one_sample_per_event(self):
        record = spaced_events(1000, spacing_us=50.0, dwell_us=20.0)
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0)
        duration = (record.release_times_us[-1] + 30.0) * 1e-6
        trace = synthesize_trace(record, params, duration, 50e6, seed=0)
        (fall, rise, n_used), peak = traced_peak(mean_edge_times, trace, record)
        assert n_used == 1000
        assert fall == pytest.approx(2.3, rel=0.01)
        assert peak < 1e6  # events x 800-sample windows in one gather: 6.4 MB


@st.composite
def edge_records(draw):
    """(trace, record): up to 12 events on a 0.5 us grid. Each capture comes
    some quiet time after the latest release so far, often at the bounds; a
    negative one makes it overlap, or tie with, the capture before. The
    first and last windows may leave a trace of zeros at 1, 2.5 or 10 MS/s."""
    half_us = st.integers(-60, 240).map(lambda k: 0.5 * k)
    quiet = st.sampled_from([-30.0, 0.0, 11.5, 12.0, 12.5, 19.5, 20.0, 20.5]) | half_us
    dwell = st.sampled_from([0.0, 14.5, 15.0, 15.5, 100.0]) | half_us.map(abs)
    caps = [draw(st.sampled_from([0.0, 3.5, 4.0, 4.5, 20.0]))]
    rels, latest = [], -math.inf
    for gap, dwell_us in draw(st.lists(st.tuples(quiet, dwell), max_size=12)):
        caps.append(max(caps[-1], latest + gap))
        rels.append(caps[-1] + dwell_us)
        latest = max(latest, rels[-1])
    rate = draw(st.sampled_from([1e6, 2.5e6, 1e7]))
    end_us = max(latest, 20.0) + draw(st.sampled_from([0.0, 11.5, 12.0, 12.5, 30.0]))
    n = max(1, round(end_us * rate / 1e6) + draw(st.integers(-2, 2)))
    return detsim.TimeTrace(rate, 0.0, np.zeros(n)), EventRecord(caps[1:], rels)


class TestEdgeEligibility:
    @settings(max_examples=400, deadline=None)
    @given(edge_records())
    def test_matches_loop_oracle(self, case):
        trace, record = case
        keep = eligible_edge_events(record, trace.n_samples, trace.sample_rate_hz)
        calls = []
        with mock.patch.object(analysis, "edge_times",
                               lambda _, caps, rels: calls.append((caps, rels)) or (1.0, 2.0)):
            if not keep.any():
                with pytest.raises(ValueError, match="no measurable events"):
                    mean_edge_times(trace, record)
                return
            assert mean_edge_times(trace, record) == (1.0, 2.0, np.count_nonzero(keep))
        [(caps, rels)] = calls
        assert caps.tolist() == record.capture_times_us[keep].tolist()
        assert rels.tolist() == record.release_times_us[keep].tolist()
