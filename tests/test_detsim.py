import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import accept_loop, per_pulse_detection_probability
from spdsim import detsim
from spdsim.detsim import (DetectorParams, EventRecord, read_events_csv, read_trace, simulate,
                           synthesize_trace, write_events_csv, write_trace)
from spdsim.source import (Attenuator, CoherentPulseTrain, OpticalChain, Polarizer,
                           PulsePolarization, Splitter, chain_transmittance)


def train(n_bar, f=1e4, polarization=PulsePolarization.unpolarized()):
    return CoherentPulseTrain(1550.0, f, n_bar, polarization)


def ideal_params(**kw):
    defaults = dict(absorptance_armchair=1.0, absorptance_zigzag=1.0, iqe=1.0,
                    dark_rate_hz=0.0, dead_time_us=0.0)
    defaults.update(kw)
    return DetectorParams(**defaults)


class TestParams:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            DetectorParams(iqe=1.2)
        with pytest.raises(ValueError):
            DetectorParams(absorptance_armchair=-0.1)
        with pytest.raises(ValueError):
            DetectorParams(max_occupancy=0)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectorParams)
                                      if f.name != "max_occupancy"])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            DetectorParams(**{name: math.nan})

    def test_polarized_absorptance(self):
        p = DetectorParams(absorptance_armchair=0.5, absorptance_zigzag=0.01)
        assert p.absorptance(PulsePolarization.armchair()) == pytest.approx(0.5)
        assert p.absorptance(PulsePolarization.zigzag()) == pytest.approx(0.01)
        assert p.absorptance(PulsePolarization.unpolarized()) == pytest.approx(0.255)
        assert p.absorptance(PulsePolarization.linear(45.0)) == pytest.approx(0.255)


class TestSimulate:
    def test_no_stimulus_no_events(self):
        record = simulate(ideal_params(), train(0.0), 1.0, seed=1)
        assert record.n_captures == 0

    def test_per_pulse_detection_oracle(self):
        # absorptance 1, iqe 1, dead 0: detections ~ f D (1 - e^-nbar)
        record = simulate(ideal_params(), train(0.1), 100.0, seed=7)
        expected = 1e4 * 100.0 * (1.0 - math.exp(-0.1))
        assert abs(record.n_detections - expected) < 4 * math.sqrt(expected)

    def test_partial_efficiency_oracle(self):
        # eta = absorptance * iqe; series oracle for >= 1 capture per pulse
        params = ideal_params(absorptance_armchair=0.3, absorptance_zigzag=0.3,
                              iqe=0.7, max_occupancy=1000)
        record = simulate(params, train(0.8), 50.0, seed=13)
        p_detect = per_pulse_detection_probability(0.8, 0.21)
        expected = 1e4 * 50.0 * p_detect
        assert abs(record.n_detections - expected) < 4 * math.sqrt(expected)

    def test_dark_rate(self):
        params = DetectorParams(dark_rate_hz=720.0, dead_time_us=0.0)
        record = simulate(params, train(0.0), 10.0, seed=3)
        assert abs(record.n_captures - 7200) < 4 * math.sqrt(7200)
        assert set(record.origins) == {"dark"}

    def test_polarization_selects_absorptance(self):
        params = ideal_params(absorptance_armchair=0.8, absorptance_zigzag=0.0)
        ac = simulate(params, train(0.05, polarization=PulsePolarization.armchair()),
                      20.0, seed=5)
        zz = simulate(params, train(0.05, polarization=PulsePolarization.zigzag()),
                      20.0, seed=5)
        assert zz.n_captures == 0
        expected = 1e4 * 20.0 * (1 - math.exp(-0.05 * 0.8))
        assert abs(ac.n_detections - expected) < 4 * math.sqrt(expected)

    def test_deterministic_given_seed(self):
        params = DetectorParams(dead_time_us=0.0)
        a = simulate(params, train(0.05), 5.0, seed=42)
        b = simulate(params, train(0.05), 5.0, seed=42)
        assert np.array_equal(a.capture_times_us, b.capture_times_us)
        assert np.array_equal(a.release_times_us, b.release_times_us)
        assert np.array_equal(a.origins, b.origins)

    def test_different_seeds_differ(self):
        params = DetectorParams(dead_time_us=0.0)
        a = simulate(params, train(0.05), 5.0, seed=42)
        b = simulate(params, train(0.05), 5.0, seed=43)
        assert not np.array_equal(a.capture_times_us, b.capture_times_us)

    def test_occupancy_ledger(self):
        params = DetectorParams(dark_rate_hz=50_000.0, hold_time_mean_us=40.0,
                                dead_time_us=0.0, max_occupancy=3)
        record = simulate(params, train(0.0), 20.0, seed=11)
        assert record.n_captures > 500_000  # ledger check over a large record
        _, occupancy = record.occupancy_series()
        assert occupancy.min() >= 0
        assert occupancy.max() <= 3
        assert np.all(record.release_times_us > record.capture_times_us)

    def test_max_occupancy_one_blocks_overlap(self):
        params = ideal_params(hold_time_mean_us=1e4, max_occupancy=1)
        record = simulate(params, train(5.0, f=1e3), 0.1, seed=9)
        _, occupancy = record.occupancy_series()
        assert occupancy.max() == 1

    def test_dead_time_blocks_candidates(self):
        # Poisson dark arrivals against a 50 us non-paralyzable readout
        params = DetectorParams(dark_rate_hz=40_000.0, dead_time_us=50.0,
                                hold_time_mean_us=1.0, max_occupancy=4)
        record = simulate(params, train(0.0), 10.0, seed=21)
        expected_rate = 40_000.0 / (1.0 + 40_000.0 * 50e-6)
        assert record.n_captures / 10.0 == pytest.approx(expected_rate, rel=0.02)

    def test_dark_interarrivals_exponential(self):
        params = DetectorParams(dark_rate_hz=100_000.0, dead_time_us=0.0,
                                hold_time_mean_us=1.0, max_occupancy=10 ** 9)
        record = simulate(params, train(0.0), 1.0, seed=31)
        assert record.n_captures > 90_000
        intervals = np.diff(record.capture_times_us)
        result = stats.kstest(intervals, "expon", args=(0.0, 10.0))
        assert result.pvalue > 0.01

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            simulate(ideal_params(), train(0.1), 0.0, seed=1)

    def test_captures_per_pulse_stay_poisson_after_chain(self):
        # Thinning a Poisson photon number by a chain, the absorptance and
        # the iqe leaves a Poisson capture count with the product mean.
        chain = OpticalChain((Polarizer(30.0), Attenuator(0.5), Splitter(0.4)))
        factor, pol = chain_transmittance(chain, PulsePolarization.armchair())
        source = CoherentPulseTrain(1550.0, 1e6, 9.0 * factor, pol)
        params = DetectorParams(dark_rate_hz=0.0, dead_time_us=0.0, max_occupancy=10 ** 9)
        record = simulate(params, source, 1.0, seed=2024)
        n_pulses = 1_000_000
        per_pulse = np.bincount(np.rint(record.capture_times_us).astype(int),
                                minlength=n_pulses)
        assert per_pulse.size == n_pulses
        mu = source.mean_photons * params.absorptance(source.polarization) * params.iqe
        assert abs(per_pulse.mean() - mu) < 4 * math.sqrt(mu / n_pulses)
        assert 0.99 <= per_pulse.var() / per_pulse.mean() <= 1.01

    def test_memory_follows_candidates_not_pulses(self):
        # 6e10 pulses at 1 GHz for 60 s; a per-pulse array would need ~480 GB.
        params = DetectorParams(dead_time_us=0.0)
        start = time.perf_counter()
        record = simulate(params, train(0.0, f=1e9), 60.0, seed=4)
        assert time.perf_counter() - start < 10.0
        assert abs(record.n_captures - 43_200) < 4 * math.sqrt(43_200)
        assert set(record.origins) == {"dark"}


@st.composite
def candidate_sets(draw):
    """Sorted candidate times on a coarse grid (so ties occur) and their dwells."""
    ticks = sorted(draw(st.lists(st.integers(0, 120), max_size=60)))
    dwells = draw(st.lists(st.floats(0.0, 40.0), min_size=len(ticks),
                           max_size=len(ticks)))
    return np.array(ticks) * 0.5, np.array(dwells, dtype=float)


class TestAcceptWalk:
    @settings(max_examples=400, deadline=None)
    @given(candidate_sets(),
           st.one_of(st.just(0.0), st.integers(0, 100).map(lambda k: 0.5 * k),
                     st.floats(0.0, 50.0)),
           st.one_of(st.integers(1, 5), st.just(1000), st.just(math.inf)))
    def test_matches_per_candidate_loop(self, candidates, dead_time_us, max_occupancy):
        times, dwells = candidates
        assert (detsim._accept(times, dwells, dead_time_us, max_occupancy)
                == accept_loop(times, dwells, dead_time_us, max_occupancy))
        zeros = np.zeros(times.size)
        assert (detsim._accept(times, zeros, dead_time_us, 1)
                == accept_loop(times, zeros, dead_time_us, 1))


class TestApplyDeadTime:
    """Non-paralyzable thinning: the walk with zero dwells and one slot."""

    def test_zero_dead_time_identity(self):
        times = np.array([0.0, 1.0, 2.5])
        assert detsim._accept(times, np.zeros(3), 0.0, 1) == [0, 1, 2]

    def test_direct_rule(self):
        times = np.array([0.0, 10.0, 25.0])
        assert times[detsim._accept(times, np.zeros(3), 20.0, 1)].tolist() == [0.0, 25.0]

    def test_nonparalyzable_rate_formula(self):
        rng = np.random.default_rng(8)
        rate, duration_us, tau = 40_000.0, 10e6, 50.0
        n = rng.poisson(rate * duration_us * 1e-6)
        arrivals = np.sort(rng.uniform(0, duration_us, n))
        kept = detsim._accept(arrivals, np.zeros(n), tau, 1)
        accepted_rate = len(kept) / (duration_us * 1e-6)
        assert accepted_rate == pytest.approx(rate / (1 + rate * tau * 1e-6), rel=0.02)


class TestSynthesizeTrace:
    def test_no_events_baseline_plus_noise(self):
        params = DetectorParams(noise_sigma_v=0.05, baseline_v=1.5)
        trace = synthesize_trace(EventRecord(np.array([]), np.array([])), params,
                                 0.001, 1e7, seed=2)
        assert trace.n_samples == 10_000
        assert trace.samples.mean() == pytest.approx(1.5, abs=0.01)
        assert trace.samples.std() == pytest.approx(0.05, rel=0.1)

    def test_single_event_noise_free_edges(self):
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0,
                                fall_time_us=2.3, rise_time_us=2.1)
        record = EventRecord(np.array([100.0]), np.array([160.0]))
        trace = synthesize_trace(record, params, 4e-4, 50e6, seed=0)
        v = trace.samples
        dt_us = 1e6 / trace.sample_rate_hz
        assert v.min() == pytest.approx(-1.0, abs=1e-3)

        def span(level_from, seg, rising):
            lo = level_from - 0.1 if not rising else level_from + 0.1
            hi = level_from - 0.9 if not rising else level_from + 0.9
            if rising:
                t10 = seg[np.argmax(v[seg] >= -1 + 0.1)]
                t90 = seg[np.argmax(v[seg] >= -1 + 0.9)]
            else:
                t10 = seg[np.argmax(v[seg] <= -0.1)]
                t90 = seg[np.argmax(v[seg] <= -0.9)]
            return (t90 - t10) * dt_us

        fall_seg = np.arange(int(99 / 0.02), int(130 / 0.02))
        rise_seg = np.arange(int(159 / 0.02), int(195 / 0.02))
        assert span(0.0, fall_seg, rising=False) == pytest.approx(2.3, abs=0.05)
        assert span(-1.0, rise_seg, rising=True) == pytest.approx(2.1, abs=0.05)

    def test_overlapping_captures_stack(self):
        params = DetectorParams(step_amplitude_v=0.7, noise_sigma_v=0.0)
        record = EventRecord(np.array([50.0, 60.0]), np.array([300.0, 310.0]))
        trace = synthesize_trace(record, params, 5e-4, 10e6, seed=0)
        assert trace.samples.min() == pytest.approx(-1.4, abs=1e-3)

    def test_superposition_linearity(self):
        # noise-free traces add: disjoint event sets superpose exactly
        params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=0.0, baseline_v=0.0)
        a = EventRecord(np.array([40.0]), np.array([90.0]))
        b = EventRecord(np.array([60.0]), np.array([150.0]))
        both = EventRecord(np.array([40.0, 60.0]), np.array([90.0, 150.0]))
        kw = dict(duration_s=3e-4, sample_rate_hz=10e6, seed=0)
        trace_a = synthesize_trace(a, params, **kw)
        trace_b = synthesize_trace(b, params, **kw)
        trace_ab = synthesize_trace(both, params, **kw)
        np.testing.assert_allclose(trace_ab.samples, trace_a.samples + trace_b.samples,
                                   atol=1e-12)

    def test_trace_deterministic(self):
        params = DetectorParams(noise_sigma_v=0.1)
        record = EventRecord(np.array([10.0]), np.array([40.0]))
        a = synthesize_trace(record, params, 1e-4, 10e6, seed=5)
        b = synthesize_trace(record, params, 1e-4, 10e6, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_sample_rate_too_low(self):
        params = DetectorParams(fall_time_us=2.3)
        with pytest.raises(ValueError, match="sample rate"):
            synthesize_trace(EventRecord(np.array([]), np.array([])), params,
                             0.001, 1e6, seed=0)

    def test_impossible_size_rejected_before_allocation(self):
        # 1e15 samples ask for 8 PB per float64 buffer; nothing is allocated
        with pytest.raises(ValueError, match=r"1000000000000000 samples .* bytes"):
            synthesize_trace(EventRecord(np.array([]), np.array([])), DetectorParams(),
                             1.0, 1e15, seed=0)

    def test_length_matches_duration(self):
        params = DetectorParams()
        trace = synthesize_trace(EventRecord(np.array([]), np.array([])), params,
                                 0.0123, 10e6, seed=0)
        assert trace.n_samples == round(0.0123 * 10e6)

    def test_noise_free_levels_quantized(self):
        # noise-free multi-occupancy: settled samples sit on (max occ + 1) levels
        params = DetectorParams(dark_rate_hz=30_000.0, hold_time_mean_us=50.0,
                                dead_time_us=0.0, max_occupancy=3,
                                step_amplitude_v=1.0, noise_sigma_v=0.0,
                                fall_time_us=0.5, rise_time_us=0.5)
        record = simulate(params, train(0.0), 0.05, seed=17)
        _, occupancy = record.occupancy_series()
        assert occupancy.max() == 3
        trace = synthesize_trace(record, params, 0.05, 20e6, seed=18)
        settled = np.round(trace.samples, 6)
        levels = np.unique(settled[np.isin(settled, [0.0, -1.0, -2.0, -3.0])])
        assert levels.size == occupancy.max() + 1
        # transition samples are a small minority
        frac_settled = np.isin(settled, levels).mean()
        assert frac_settled > 0.8


class TestEventRecordChecks:
    def test_release_before_capture_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(np.array([10.0]), np.array([5.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventRecord(np.array([10.0]), np.array([15.0, 20.0]))

    def test_detection_collapse(self):
        record = EventRecord(np.array([5.0, 5.0, 9.0]), np.array([6.0, 7.0, 11.0]))
        assert record.n_captures == 3
        assert record.n_detections == 2


class TestFileFormats:
    def test_events_csv_round_trip(self, tmp_path):
        params = DetectorParams(dark_rate_hz=2000.0, dead_time_us=0.0)
        record = simulate(params, train(0.2), 1.0, seed=6)
        path = tmp_path / "events.csv"
        write_events_csv(record, path)
        back = read_events_csv(path)
        assert back.n_captures == record.n_captures
        np.testing.assert_allclose(np.sort(back.capture_times_us),
                                   np.sort(record.capture_times_us), atol=1e-4)
        np.testing.assert_allclose(np.sort(back.release_times_us),
                                   np.sort(record.release_times_us), atol=1e-4)
        assert sorted(back.origins) == sorted(record.origins)

    def test_events_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_events_csv(path)

    def test_trace_round_trip_bit_exact(self, tmp_path):
        params = DetectorParams(noise_sigma_v=0.1)
        record = EventRecord(np.array([10.0]), np.array([30.0]))
        trace = synthesize_trace(record, params, 1e-4, 10e6, seed=5)
        write_trace(trace, tmp_path / "trace")
        back = read_trace(tmp_path / "trace")
        assert np.array_equal(back.samples, trace.samples)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.baseline_v == trace.baseline_v

    @pytest.mark.parametrize("n_bytes", [72, 83])  # a sample short; a partial sample over
    def test_trace_size_checked_against_sidecar(self, tmp_path, n_bytes):
        bin_path, _ = write_trace(detsim.TimeTrace(1e6, 0.0, np.zeros(10)), tmp_path / "trace")
        with bin_path.open("r+b") as f:
            f.truncate(n_bytes)
        with pytest.raises(ValueError, match="sidecar"):
            read_trace(tmp_path / "trace")
