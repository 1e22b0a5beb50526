import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import detect_events_loop, match_events
from spdsim import analysis, detsim
from spdsim.analysis import (count_rate, detect_events, edge_times, estimate_baseline,
                             estimate_eqe, eqe_from_frequency_sweep, mean_edge_times,
                             occupation_histogram)
from spdsim.detsim import DetectorParams, EventRecord, synthesize_trace
from spdsim.source import CoherentPulseTrain


def spaced_events(n, spacing_us=150.0, dwell_us=30.0, start_us=50.0):
    caps = start_us + spacing_us * np.arange(n)
    return EventRecord(caps, caps + dwell_us)


class TestBaseline:
    def test_tracks_slow_drift(self):
        rng = np.random.default_rng(4)
        fs = 1e6
        n = 200_000
        drift = np.linspace(0.0, 0.4, n)
        trace = detsim.TimeTrace(fs, 0.0, drift + rng.normal(0, 0.02, n))
        baseline = estimate_baseline(trace, window_s=0.01)
        assert np.max(np.abs(baseline - drift)) < 0.05

    def test_constant_trace_rejected(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.zeros(100_000))
        with pytest.raises(ValueError, match="degenerate"):
            estimate_baseline(trace, window_s=0.01)

    def test_short_trace_rejected(self):
        trace = detsim.TimeTrace(1e6, 0.0, np.random.default_rng(0).normal(size=100))
        with pytest.raises(ValueError, match="shorter"):
            estimate_baseline(trace, window_s=0.01)


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
    @given(threshold_traces(), st.sampled_from([0.0, 1.0, 2.0, 3.5]))
    def test_matches_event_by_event_loop(self, trace, min_width_us):
        if np.ptp(trace.samples) == 0:
            return  # a constant trace has no baseline; both raise
        window_s = trace.n_samples / trace.sample_rate_hz
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


class TestCountRate:
    def test_dark_rate_example(self):
        result = count_rate(7200, 10.0)
        assert result.rate_hz == pytest.approx(720.0)
        assert result.sigma_hz == pytest.approx(math.sqrt(7200) / 10.0, rel=1e-12)

    def test_zero_events_upper_bound(self):
        result = count_rate(0, 10.0)
        assert result.rate_hz == 0.0
        assert result.upper95_hz == pytest.approx(3.0 / 10.0, rel=2e-3)

    @pytest.mark.parametrize("n", [0, 1, 10, 1000])
    def test_upper_bound_is_the_chi2_form_exactly(self, n):
        # Gamma(n + 1) quantile == half the chi2(2n + 2) quantile, bit for bit
        expected = 0.5 * stats.chi2.ppf(0.95, 2 * (n + 1)) / 10.0
        assert count_rate(n, 10.0).upper95_hz == expected

    def test_event_record_uses_detections(self):
        record = EventRecord(np.array([5.0, 5.0, 9.0]), np.array([6.0, 7.0, 11.0]))
        assert count_rate(record, 1.0).n_events == 2

    def test_window_subrates_stationary(self):
        params = DetectorParams(dark_rate_hz=5000.0, dead_time_us=0.0,
                                hold_time_mean_us=1.0, max_occupancy=10 ** 9)
        src = CoherentPulseTrain(1550.0, 1e4, 0.0)
        record = detsim.simulate(params, src, 20.0, seed=14)
        result = count_rate(record, 20.0, window_s=1.0)
        counts = result.window_rates_hz * 1.0
        expected = counts.mean()
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        pvalue = stats.chi2.sf(chi2, df=counts.size - 1)
        assert pvalue > 0.01


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
        for tau_scale in (0.8, 1.0, 1.3):
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
