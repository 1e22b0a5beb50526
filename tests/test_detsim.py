import dataclasses
import errno
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import stats

from oracles import (accept_loop, occupancy_series, per_pulse_detection_probability,
                     read_events_csv_rows, synthesize_trace_loop, write_events_csv_rows)
from spdsim import detsim
from spdsim.detsim import (DetectorParams, EventRecord, read_events_csv, read_trace, simulate,
                           synthesize_trace, write_events_csv, write_trace)
from spdsim.source import (Attenuator, CoherentPulseTrain, Splitter,
                           chain_transmittance)


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def train(n_bar, f=1e4, polarization="unpolarized"):
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

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(DetectorParams)
                                      if f.name != "max_occupancy"])
    def test_infinity_rejected(self, name):
        # dead_time_us: .inf used to give 1 detection in 0.5 s, and an infinite
        # repetition or dark rate an OverflowError or a memory error
        for value in (math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
                DetectorParams(**{name: value})

    @pytest.mark.parametrize("step", [-1.0, 0.0, math.inf])
    def test_step_amplitude_is_positive_and_finite(self, step):
        # detect_events finds downward pulses only: a step up would go unseen
        with pytest.raises(ValueError,
                           match=f"^step_amplitude_v must be positive and finite, got {step}$"):
            DetectorParams(step_amplitude_v=step)

    def test_polarized_absorptance(self):
        p = DetectorParams(absorptance_armchair=0.5, absorptance_zigzag=0.01)
        assert p.absorptance("armchair") == pytest.approx(0.5)
        assert p.absorptance("zigzag") == pytest.approx(0.01)
        assert p.absorptance("unpolarized") == pytest.approx(0.255)
        assert p.absorptance(45.0) == pytest.approx(0.255)

    def test_paper_polarized_eqe(self):
        # Twice the unpolarized EQE exceeds the armchair-polarized one by
        # zigzag x iqe: the paper's 42.8% (2 x 21.4%) takes the zigzag axis
        # to absorb nothing.
        p = DetectorParams()
        assert (p.absorptance_armchair, p.absorptance_zigzag, p.iqe) == (0.537, 0.0054, 0.79)
        polarized = p.absorptance("armchair") * p.iqe
        unpolarized = p.absorptance("unpolarized") * p.iqe
        assert polarized == pytest.approx(0.42423, abs=1e-15)  # 0.537 x 0.79
        assert 2 * unpolarized - polarized == pytest.approx(0.0054 * 0.79, abs=1e-15)


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
        ac = simulate(params, train(0.05, polarization="armchair"),
                      20.0, seed=5)
        zz = simulate(params, train(0.05, polarization="zigzag"),
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
        _, occupancy = occupancy_series(record)
        assert occupancy.min() >= 0
        assert occupancy.max() <= 3
        assert np.all(record.release_times_us > record.capture_times_us)

    def test_max_occupancy_one_blocks_overlap(self):
        params = ideal_params(hold_time_mean_us=1e4, max_occupancy=1)
        record = simulate(params, train(5.0, f=1e3), 0.1, seed=9)
        _, occupancy = occupancy_series(record)
        assert occupancy.max() == 1

    def test_dead_time_blocks_candidates(self):
        # Poisson dark arrivals against a 50 us non-paralyzable readout
        params = DetectorParams(dark_rate_hz=40_000.0, dead_time_us=50.0,
                                hold_time_mean_us=1.0, max_occupancy=4)
        record = simulate(params, train(0.0), 10.0, seed=21)
        expected_rate = 40_000.0 / (1.0 + 40_000.0 * 50e-6)
        assert record.n_captures / 10.0 == pytest.approx(expected_rate, rel=0.02)

    def test_default_dead_time_saturates_at_20_khz(self):
        # DetectorParams says its defaults reproduce the ~20 kHz count-rate
        # saturation: as the flux rises, detections/s approach 1/tau and no
        # run registers more than duration/tau + 1 detections.
        params, duration_s = DetectorParams(), 0.5
        ceiling_hz = 1e6 / params.dead_time_us
        rates = []
        for n_bar in (0.02, 0.2, 2.0, 20.0):
            record = simulate(params, train(n_bar, f=1e5), duration_s, seed=17)
            assert record.n_detections <= duration_s * ceiling_hz + 1
            rates.append(record.n_detections / duration_s)
        assert all(a < b for a, b in zip(rates, rates[1:])), rates
        assert rates[-1] >= 0.99 * ceiling_hz, rates

    @pytest.mark.parametrize("seed", range(5))
    def test_dead_time_blocks_capture_not_only_the_counter(self, seed):
        # The 50 us default dead time outlasts most 10 us dwells, so the
        # island rarely holds two electrons; without it, it fills up.
        light = train(2.0)
        _, occupancy = occupancy_series(simulate(DetectorParams(), light, 10.0, seed=seed))
        assert np.count_nonzero(occupancy > 1) / occupancy.size < 1e-3
        open_readout = simulate(DetectorParams(dead_time_us=0.0), light, 10.0, seed=seed)
        assert occupancy_series(open_readout)[1].max() == DetectorParams().max_occupancy

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

    @pytest.mark.parametrize("duration_s", [math.inf, math.nan, -1.0])
    def test_duration_must_be_positive_and_finite(self, duration_s):
        # an infinite duration used to raise OverflowError
        with pytest.raises(ValueError,
                           match=f"^duration_s must be positive and finite, got {duration_s}$"):
            simulate(ideal_params(), train(0.1), duration_s, seed=1)

    def test_captures_per_pulse_stay_poisson_after_chain(self):
        # Thinning a Poisson photon number by a chain, the absorptance and
        # the iqe leaves a Poisson capture count with the product mean.
        factor = chain_transmittance((Attenuator(0.5), Splitter(0.4)))
        source = CoherentPulseTrain(1550.0, 1e6, 9.0 * factor, 30.0)
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

    def test_memory_budget_rejects_before_any_draw(self):
        # 1e13 pulses at n_bar 1 expect 2.142e12 candidates: ~190 TB of arrays
        with pytest.raises(ValueError,
                           match=r"expects 2\.142e\+12 candidate captures, which need .* bytes"):
            simulate(DetectorParams(), train(1.0, f=1e9), 1e4, seed=0)


def dwells_at(dead_time_us):
    """Dwells at the dead time, one ulp under it, one ulp over it, or up to
    twice it: a later candidate may then fall at t + dead time or between that
    and t + dwell, where only a release on the walk's heap blocks it."""
    return st.one_of(st.sampled_from([dead_time_us, math.nextafter(dead_time_us, 0.0),
                                      math.nextafter(dead_time_us, math.inf)]),
                     st.floats(dead_time_us, 2 * dead_time_us))


@st.composite
def candidate_sets(draw, dead_time_us):
    """Sorted candidate times on a coarse grid (so ties occur) and their
    dwells, some of them `dwells_at` the dead time."""
    ticks = sorted(draw(st.lists(st.integers(0, 120), max_size=60)))
    dwells = draw(st.lists(st.one_of(st.floats(0.0, 40.0), dwells_at(dead_time_us)),
                           min_size=len(ticks), max_size=len(ticks)))
    return np.array(ticks) * 0.5, np.array(dwells, dtype=float)


@st.composite
def candidate_bursts(draw):
    """Sorted candidates in bursts of differing density on the same grid, so
    one dead time may block many more candidates than the one before it
    (the walk's search runs past its window), a candidate may sit exactly
    one dead time after an acceptance, and a window may run off the end."""
    gaps = []
    for count, widest in draw(st.lists(st.tuples(st.integers(1, 40),
                                                 st.sampled_from([0, 1, 3, 30])),
                                       min_size=1, max_size=6)):
        gaps += draw(st.lists(st.integers(0, widest), min_size=count, max_size=count))
    ticks = np.cumsum(gaps)
    # One drawn seed, not a float per candidate, keeps a failure quick to shrink.
    dwells = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 40.0, ticks.size)
    return ticks * 0.5, dwells


@st.composite
def dead_time_chains(draw, dead_time_us):
    """A chain of candidates, each at t + dead time of the one before it (as
    the walk rounds the sum) or between that and t + its dwell, every dwell
    one of `dwells_at` the dead time."""
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    times, dwells = [], []
    for _ in range(draw(st.integers(1, 20))):
        times.append(t)
        dwells.append(draw(dwells_at(dead_time_us)))
        t = draw(st.one_of(st.just(t + dead_time_us),
                           st.floats(t + dead_time_us, max(t + dead_time_us, t + dwells[-1]))))
    return np.array(times), np.array(dwells)


@st.composite
def walk_cases(draw):
    """(candidate times, dwells, dead time), the dead time drawn first."""
    dead_time_us = draw(st.one_of(st.just(0.0), st.integers(0, 100).map(lambda k: 0.5 * k),
                                  st.floats(0.0, 50.0)))
    return (*draw(st.one_of(candidate_sets(dead_time_us), candidate_bursts(),
                            dead_time_chains(dead_time_us))), dead_time_us)


class TestAcceptWalk:
    @settings(max_examples=600, deadline=None)
    @given(walk_cases(), st.one_of(st.integers(1, 5), st.just(1000), st.just(math.inf)))
    def test_matches_per_candidate_loop(self, case, max_occupancy):
        times, dwells, dead_time_us = case
        assert (list(detsim._accept(times, dwells, dead_time_us, max_occupancy))
                == accept_loop(times, dwells, dead_time_us, max_occupancy))
        zeros = np.zeros(times.size)
        assert (list(detsim._accept(times, zeros, dead_time_us, 1))
                == accept_loop(times, zeros, dead_time_us, 1))


# Times whose "%.4f" the writer's digit table does not give alone: any time up
# to 1e11 us, or up to the largest float; odd multiples of 1/32, exact ties
# of the fourth decimal (0.03125 -> 0.0312); k * 1e-4 + 5e-5 and the floats
# on either side of it; and -0.0 ("-0.0000") beside 0.0.
EDGE_TIMES = st.one_of(
    st.floats(0.0, 1e11),
    st.floats(0.0, sys.float_info.max),
    st.integers(0, 2**30).map(lambda k: (2 * k + 1) / 32),
    st.integers(0, 10**9).map(lambda k: k * 1e-4 + 5e-5).flatmap(lambda t: st.sampled_from(
        [math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf)])),
    st.sampled_from([-0.0, 0.0]))


@st.composite
def event_records(draw, names=("photon", "dark")):
    """Captures on a coarse grid, or at `EDGE_TIMES`, with dwells often 0
    (also -0.0) or on the grid, so captures tie with captures and with
    releases; origins mixed from `names`, or None."""
    captures = sorted(draw(st.lists(st.one_of(st.integers(0, 40).map(lambda k: 0.5 * k),
                                              EDGE_TIMES), max_size=40)))
    dwells = draw(st.lists(st.one_of(st.integers(0, 10).map(lambda k: 0.5 * k),
                                     st.floats(0.0, 20.0), st.just(-0.0)),
                           min_size=len(captures), max_size=len(captures)))
    origins = draw(st.one_of(st.none(), st.lists(st.sampled_from(names), min_size=len(captures),
                                                 max_size=len(captures))))
    captures = np.array(captures, dtype=float)
    return EventRecord(captures, captures + np.array(dwells, dtype=float), origins)


@st.composite
def trace_cases(draw):
    """A record whose transitions fall before, across and past the end of a
    10 MS/s trace, detector edges (0 is instantaneous), and an edge block size
    from one transition per block up to the default."""
    duration_s = draw(st.sampled_from([1e-5, 1e-4, 3e-4]))
    end_us = 1.2e6 * duration_s
    times = st.one_of(st.integers(0, int(end_us / 0.05)).map(lambda k: 0.05 * k),
                      st.floats(0.0, end_us))
    captures = np.array(sorted(draw(st.lists(times, max_size=30))), dtype=float)
    dwells = np.array(draw(st.lists(st.floats(0.0, 50.0), min_size=captures.size,
                                    max_size=captures.size)), dtype=float)
    edge = st.one_of(st.just(0.0), st.floats(1.5, 5.0))
    params = DetectorParams(fall_time_us=draw(edge), rise_time_us=draw(edge),
                            noise_sigma_v=draw(st.sampled_from([0.0, 0.05])),
                            step_amplitude_v=draw(st.floats(0.1, 2.0)),
                            baseline_v=draw(st.floats(-1.0, 1.0)))
    block = draw(st.sampled_from([1, 300, detsim._BLOCK_SAMPLES]))
    return EventRecord(captures, captures + dwells), params, duration_s, block


@st.composite
def block_cases(draw):
    """(record, params, n, block): a render block of 5-300 samples, a 10 MS/s
    trace of n samples, no multiple of the block, and a record whose
    transitions often start on a block bound, or start where an edge's last
    sample lands on one. Edges of 1.5-5 us (150-650 samples) span several
    blocks; 0 is instantaneous."""
    block = draw(st.integers(5, 300))
    n = draw(st.integers(block + 1, 3000).filter(lambda k: k % block))
    edge = st.one_of(st.just(0.0), st.floats(1.5, 5.0))
    params = DetectorParams(fall_time_us=draw(edge), rise_time_us=draw(edge),
                            noise_sigma_v=draw(st.sampled_from([0.0, 0.05])))
    spans = [0] + [math.ceil(27.7 * e / detsim.LN9 / 0.1)
                   for e in (params.fall_time_us, params.rise_time_us) if e > 0]
    on_bound = st.tuples(st.integers(0, n // block + 1), st.sampled_from(spans))
    times = st.one_of(on_bound.map(lambda ks: max(0, ks[0] * block - ks[1]) * 0.1),
                      st.floats(0.0, 0.11 * n))
    pairs = sorted(sorted(pair) for pair in draw(st.lists(st.tuples(times, times), max_size=12)))
    record = EventRecord(np.array([c for c, _ in pairs], dtype=float),
                         np.array([r for _, r in pairs], dtype=float))
    return record, params, n, block


class TestStreamedTrace:
    """`synthesize_trace` with a path writes, block by block, the bytes of the array."""

    @settings(max_examples=150, deadline=None)
    @given(block_cases(), st.integers(0, 2**32 - 1))
    def test_file_holds_the_array_bytes(self, case, seed):
        record, params, n, block = case
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(detsim, "_BLOCK_SAMPLES", block):
            path = Path(tmp) / "trace.f64"
            mapped = synthesize_trace(record, params, n / 1e7, 1e7, seed, path=path)
            assert isinstance(mapped.samples, np.memmap) and mapped.n_samples == n
            write_trace(mapped, Path(tmp) / "trace")  # adds the sidecar, keeps the samples
            streamed = path.read_bytes()
            want = synthesize_trace(record, params, n / 1e7, 1e7, seed).samples.tobytes()
            del mapped
        assert streamed == want
        assert want == synthesize_trace_loop(record, params, n / 1e7, 1e7, seed).samples.tobytes()

    @pytest.mark.parametrize("second_s", [2e-3, 0.5e-3])
    def test_a_new_trace_at_the_path_leaves_a_live_trace_its_own_samples(self, second_s):
        # In a child process, so that a bus error fails the test, not pytest.
        script = textwrap.dedent(f"""
            import tempfile
            from pathlib import Path
            import numpy as np
            from spdsim.detsim import DetectorParams, EventRecord, synthesize_trace
            record, params = EventRecord([100.0], [300.0]), DetectorParams()
            want = synthesize_trace(record, params, 2e-3, 1e7, seed=1).samples
            with tempfile.TemporaryDirectory() as tmp:
                path = Path(tmp) / "trace.f64"
                first = synthesize_trace(record, params, 2e-3, 1e7, seed=1, path=path)
                synthesize_trace(record, params, {second_s!r}, 1e7, seed=2, path=path)
                mapped = np.array_equal(first.samples, want)
                starts, stops = np.array([0, 5000]), np.array([5000, 20000])
                read = np.concatenate([w.copy() for w in first.windows(starts, stops)])
                print(mapped, np.array_equal(read, want))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(detsim.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (0, "True True\n"), proc.stderr

    def test_write_trace_compares_the_file_the_trace_holds(self, tmp_path):
        record, params = EventRecord([100.0], [300.0]), DetectorParams()
        path = tmp_path / "trace.f64"
        first = synthesize_trace(record, params, 2e-3, 1e7, seed=1, path=path)
        second = synthesize_trace(record, params, 2e-3, 1e7, seed=2, path=path)
        write_trace(first, tmp_path / "trace")  # the path now names the second trace's file
        want = [synthesize_trace(record, params, 2e-3, 1e7, seed).samples for seed in (1, 2)]
        assert path.read_bytes() == want[0].tobytes()
        assert np.array_equal(second.samples, want[1])  # its file was unlinked, not truncated

    def test_a_copy_of_a_trace_keeps_its_file_open(self, tmp_path):
        trace = synthesize_trace(EventRecord([100.0], [300.0]), DetectorParams(), 2e-3, 1e7,
                                 seed=1, path=tmp_path / "trace.f64")
        want = np.array(trace.samples[:10])
        copy = dataclasses.replace(trace, sample_rate_hz=2e7)
        del trace
        gc.collect()
        assert np.array_equal(next(copy.windows(np.array([0]), np.array([10]))), want)

    def test_a_file_truncated_under_its_map_is_rejected(self, tmp_path):
        path = tmp_path / "trace.f64"
        trace = synthesize_trace(EventRecord([100.0], [300.0]), DetectorParams(), 2e-3, 1e7,
                                 seed=1, path=path)
        os.truncate(path, 8 * 100)  # the map's later pages are gone: read none of them
        with pytest.raises(ValueError, match=f"^{path}: shorter than its map$"):
            list(trace.windows(np.array([0, 50]), np.array([50, 200])))

    def test_write_trace_copies_a_file_trace_in_bounded_memory(self, tmp_path):
        # 4 M samples (32 MB). In a child process, so that VmRSS is the
        # copy's own: a page read through the map would stay.
        if not Path("/proc/self/status").exists():
            pytest.skip("VmRSS needs /proc/self/status")
        samples = np.random.default_rng(4).normal(0.0, 0.05, 1 << 22)
        write_trace(detsim.TimeTrace(1e7, samples), tmp_path / "trace")
        del samples
        script = textwrap.dedent("""
            import sys
            from spdsim import detsim

            def rss_kb():
                with open("/proc/self/status") as status:
                    return next(int(line.split()[1]) for line in status
                                if line.startswith("VmRSS:"))

            trace = detsim.read_trace(sys.argv[1] + "/trace")
            before = rss_kb()
            detsim.write_trace(trace, sys.argv[1] + "/copy")
            print(rss_kb() - before)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(detsim.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "copy.f64").read_bytes() == (tmp_path / "trace.f64").read_bytes()
        assert int(proc.stdout) < 5 * 1024

    def test_read_trace_maps_and_windows_read(self, tmp_path):
        trace = detsim.TimeTrace(1e6, np.arange(50.0))
        write_trace(trace, tmp_path / "trace")
        back = read_trace(tmp_path / "trace")
        assert isinstance(back.samples, np.memmap)
        starts, stops = np.array([3, 0, 40]), np.array([10, 1, 50])
        got = [w.tolist() for w in back.windows(starts, stops)]
        assert got == [list(range(3, 10)), [0], list(range(40, 50))]


class TestNoiseWorker:
    """`_render` draws the noise on one worker thread, which ends on every
    exit path before `synthesize_trace` returns or raises. The step that
    ends the worker runs on a daemon helper with a bounded join, so a
    worker that never ends fails the test instead of hanging the suite."""

    record = EventRecord([100.0, 9_000.0], [300.0, 12_000.0])
    duration_s = 0.03  # 300 000 samples at 10 MS/s: five blocks

    @staticmethod
    def ends(step):
        helper = threading.Thread(target=step, daemon=True)
        helper.start()
        helper.join(timeout=30)
        assert not helper.is_alive()  # it did not hang

    def test_ends_with_a_full_trace(self, tmp_path):
        before = threading.active_count()
        self.ends(lambda: synthesize_trace(self.record, DetectorParams(), self.duration_s, 1e7,
                                           seed=1))
        assert threading.active_count() == before
        self.ends(lambda: synthesize_trace(self.record, DetectorParams(), self.duration_s, 1e7,
                                           seed=1, path=tmp_path / "trace.f64"))
        assert threading.active_count() == before

    def test_ends_when_the_blocks_are_closed_early(self):
        before = threading.active_count()
        blocks = detsim._render(self.record, DetectorParams(), 300_000, 1e7, seed=1)
        next(blocks)
        assert threading.active_count() == before + 1
        self.ends(blocks.close)
        assert threading.active_count() == before

    def test_ends_when_the_blocks_are_collected(self):
        before = threading.active_count()
        held = [detsim._render(self.record, DetectorParams(), 300_000, 1e7, seed=1)]
        next(held[0])
        assert threading.active_count() == before + 1
        # The helper drops the last reference, so the generator is finalised there.
        self.ends(lambda: (held.clear(), gc.collect()))
        assert threading.active_count() == before

    def test_ends_when_the_write_fails(self):
        before = threading.active_count()
        alive, failed = [], []

        class FullDisk(io.BytesIO):
            def write(self, data):
                if self.tell():
                    alive.append(threading.active_count())
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return super().write(data)

        def write():
            try:
                synthesize_trace(self.record, DetectorParams(), self.duration_s, 1e7, seed=1,
                                 path="trace.f64")
            except OSError as exc:
                failed.append(exc)

        with mock.patch.object(detsim, "_create", lambda path: FullDisk()):
            self.ends(write)
        assert alive == [before + 2]  # the helper and the worker ran when the write failed
        assert threading.active_count() == before  # while the error, and its frames, live
        assert [exc.errno for exc in failed] == [errno.ENOSPC]

    def test_a_failed_draw_reaches_the_caller(self):
        real = np.random.default_rng

        class FailsThird:
            def __init__(self, seed):
                self.rng, self.calls = real(seed), 0

            def normal(self, *args, **kwargs):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("third draw failed")
                return self.rng.normal(*args, **kwargs)

        before = threading.active_count()
        raised = []

        def call():
            try:
                synthesize_trace(self.record, DetectorParams(), self.duration_s, 1e7, seed=1)
            except RuntimeError as exc:
                raised.append(str(exc))

        with mock.patch.object(detsim.np.random, "default_rng", FailsThird):
            self.ends(call)
        assert raised == ["third draw failed"]
        assert threading.active_count() == before

    def test_a_render_left_open_at_exit_lets_the_interpreter_exit(self):
        # The worker is no daemon: the interpreter's exit must end it.
        script = textwrap.dedent("""
            from spdsim.detsim import DetectorParams, EventRecord, _render
            blocks = _render(EventRecord([100.0], [300.0]), DetectorParams(), 300_000, 1e7, seed=1)
            next(blocks)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(detsim.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=30)
        assert (proc.returncode, proc.stderr) == (0, "")


class TestArrayFormsMatchLoops:
    """The array writer and renderer give the bytes of their per-row oracles."""

    @settings(max_examples=300, deadline=None)
    @given(event_records(), st.sampled_from([1, 2, 7, detsim._CSV_BLOCK_ROWS]))
    def test_events_csv_bytes(self, record, block):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            with mock.patch.object(detsim, "_CSV_BLOCK_ROWS", block):
                write_events_csv(record, got)
            write_events_csv_rows(record, want)
            assert got.read_bytes() == want.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(trace_cases(), st.integers(0, 2**32 - 1))
    def test_trace_samples(self, case, seed):
        record, params, duration_s, block = case
        with mock.patch.object(detsim, "_BLOCK_SAMPLES", block):
            got = synthesize_trace(record, params, duration_s, 1e7, seed)
        want = synthesize_trace_loop(record, params, duration_s, 1e7, seed)
        assert got.samples.tobytes() == want.samples.tobytes()

    def test_trace_samples_over_many_default_blocks(self):
        # ~3000 transitions against ~450 per block at the default edges
        rng = np.random.default_rng(11)
        captures = np.sort(rng.uniform(0.0, 10_000.0, 1500))
        record = EventRecord(captures, captures + rng.exponential(10.0, captures.size))
        params = DetectorParams()
        got = synthesize_trace(record, params, 0.009, 1e7, seed=12)
        want = synthesize_trace_loop(record, params, 0.009, 1e7, seed=12)
        assert got.samples.tobytes() == want.samples.tobytes()


class TestApplyDeadTime:
    """Non-paralyzable thinning: the walk with zero dwells and one slot."""

    def test_zero_dead_time_identity(self):
        times = np.array([0.0, 1.0, 2.5])
        assert list(detsim._accept(times, np.zeros(3), 0.0, 1)) == [0, 1, 2]

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
        need = r"too low to resolve a 2.3 us edge \(need >= 4.34783e\+06 Hz\)"
        with pytest.raises(ValueError, match=need):
            synthesize_trace(EventRecord(np.array([]), np.array([])), params,
                             0.001, 1e6, seed=0)

    def test_impossible_size_rejected_before_allocation(self):
        # 1e15 samples ask for 8 PB per float64 buffer; nothing is allocated
        with pytest.raises(ValueError, match=r"1000000000000000 samples .* bytes"):
            synthesize_trace(EventRecord(np.array([]), np.array([])), DetectorParams(),
                             1.0, 1e15, seed=0)

    @pytest.mark.parametrize("name, duration_s, sample_rate_hz", [
        ("duration_s", math.inf, 1e7), ("duration_s", math.nan, 1e7), ("duration_s", 0.0, 1e7),
        ("sample_rate_hz", 0.02, math.inf), ("sample_rate_hz", 0.02, -1e7)])
    def test_check_trace_names_the_parameter(self, name, duration_s, sample_rate_hz):
        # check_trace(params, inf, 1e7) used to raise OverflowError
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got "):
            detsim.check_trace(DetectorParams(), duration_s, sample_rate_hz)

    def test_check_trace_refuses_a_sample_count_beyond_a_float(self):
        # int(round(inf)) used to raise OverflowError
        with pytest.raises(ValueError, match=r"^duration_s \* sample_rate_hz must be finite, "
                                             r"got 1e\+200 s \* 1e\+200 Hz$"):
            detsim.check_trace(DetectorParams(), 1e200, 1e200)

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
        _, occupancy = occupancy_series(record)
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

    @pytest.mark.parametrize("captures, releases", [
        ([-1.0], [2.0]), ([math.nan], [1.0]), ([1.0], [math.nan]), ([1.0], [math.inf])])
    def test_negative_or_nonfinite_times_rejected(self, captures, releases):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            EventRecord(np.array(captures), np.array(releases))

    def test_unsorted_captures_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            EventRecord(np.array([9.0, 5.0]), np.array([10.0, 6.0]))

    def test_equal_time_captures_are_one_detection(self):
        captures = np.array([5.0, 5.0, 9.0, 9.0, 9.0, 12.0])
        record = EventRecord(captures, captures + 1.0)
        assert record.n_detections == 3
        assert EventRecord(np.array([]), np.array([])).n_detections == 0

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

    @pytest.mark.parametrize("origin", ["a,b", "x\ny", "\r"])
    def test_events_csv_refuses_an_origin_that_would_split_its_row(self, tmp_path, origin):
        # The reader would refuse the rows, or read "\r" back as an empty origin.
        path = tmp_path / "events.csv"
        record = EventRecord(np.array([1.0]), np.array([2.0]), np.array([origin]))
        with pytest.raises(ValueError, match=f"origin {re.escape(repr(origin))} holds a comma"):
            write_events_csv(record, path)
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(event_records(), st.one_of(st.just(0.0), st.floats(0.0, 1e8)))
    def test_events_csv_round_trip_property(self, record, offset_us):
        record = EventRecord(record.capture_times_us + offset_us,
                             record.release_times_us + offset_us, record.origins)
        n = record.n_captures
        with tempfile.TemporaryDirectory() as tmp:
            write_events_csv(record, Path(tmp) / "events.csv")
            back = read_events_csv(Path(tmp) / "events.csv")

        def origins(r):
            return list(r.origins) if r.origins is not None and r.origins.size else ["unknown"] * n

        np.testing.assert_allclose(back.capture_times_us, record.capture_times_us,
                                   rtol=0, atol=1e-4)
        assert origins(back) == origins(record)
        # FIFO pairing may swap which capture of an origin a release closes.
        for origin in set(origins(record)):
            mine = [o == origin for o in origins(record)]
            theirs = [o == origin for o in origins(back)]
            np.testing.assert_allclose(np.sort(back.release_times_us[theirs]),
                                       np.sort(record.release_times_us[mine]),
                                       rtol=0, atol=1e-4)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 64),
                      elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.floats(1e-3, 1e12))
    def test_trace_round_trip_property(self, samples, sample_rate_hz):
        trace = detsim.TimeTrace(sample_rate_hz, samples)
        with tempfile.TemporaryDirectory() as tmp:
            write_trace(trace, Path(tmp) / "trace")
            back = read_trace(Path(tmp) / "trace")
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.sample_rate_hz == sample_rate_hz

    @settings(max_examples=300, deadline=None)
    @given(event_records(names=("photon", "dark", "unknown", "", "background_light")),
           st.one_of(st.just(0.0), st.floats(0.0, 1e8)))
    def test_events_csv_reader_matches_row_loop(self, record, offset_us):
        # Every file the writer writes: empty records, origins None, all
        # "unknown" (read back as None), empty and longer than the first
        # parse's 8-character field.
        record = EventRecord(record.capture_times_us + offset_us,
                             record.release_times_us + offset_us, record.origins)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            write_events_csv(record, path)
            got, want = read_events_csv(path), read_events_csv_rows(path)
        assert got.capture_times_us.tobytes() == want.capture_times_us.tobytes()
        assert got.release_times_us.tobytes() == want.release_times_us.tobytes()
        if want.origins is None:
            assert got.origins is None
        else:
            assert got.origins.dtype == want.origins.dtype
            assert got.origins.tolist() == want.origins.tolist()

    @settings(max_examples=400, deadline=None)
    @given(event_records(names=("photon", "dark", "unknown")), st.data())
    def test_events_csv_reader_raises_where_row_loop_raises(self, record, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.csv"
            write_events_csv(record, path)
            header, *rows = path.read_text(encoding="utf-8").splitlines()
            text = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E,
                                         exclude_characters=","), max_size=12)
            kinds = ["unknown kind", "release first", "wrong field count", "bad time"]
            if rows:
                kinds.append("missing release")
            mutation = data.draw(st.sampled_from(kinds))
            if mutation == "release first":  # before any capture of its origin
                origin = data.draw(st.sampled_from(["photon", "dark", "unknown", "x"]))
                first = next((i for i, row in enumerate(rows)
                              if row.endswith(f",capture,{origin}")), len(rows))
                rows.insert(data.draw(st.integers(0, first)),
                            f"{data.draw(st.floats(0.0, 30.0)):.4f},release,{origin}")
            elif mutation == "missing release":
                releases = [i for i, row in enumerate(rows) if ",release," in row]
                del rows[data.draw(st.sampled_from(releases))]
            else:
                if not rows:
                    rows.append("0.0000,capture,photon")
                i = data.draw(st.integers(0, len(rows) - 1))
                t, kind, origin = rows[i].split(",")
                if mutation == "unknown kind":
                    kind = data.draw(st.one_of(
                        st.sampled_from(["captures", "released", "Capture", " release", ""]),
                        text).filter(lambda k: k not in ("capture", "release")))
                    rows[i] = f"{t},{kind},{origin}"
                elif mutation == "wrong field count":
                    rows[i] = data.draw(st.sampled_from(
                        [f"{t},{kind}", f"{t},{kind},{origin},", f"{t},{kind},{origin},x", t]))
                else:
                    bad = data.draw(text.filter(lambda s: not _parses_as_float(s)))
                    rows[i] = f"{bad},{kind},{origin}"
            path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            with pytest.raises(ValueError) as want:
                read_events_csv_rows(path)
            with pytest.raises(ValueError) as got:
                read_events_csv(path)
        assert str(got.value) == str(want.value)

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

    def test_sidecar_with_the_old_baseline_key_reads(self, tmp_path):
        _, meta_path = write_trace(detsim.TimeTrace(1e6, np.arange(10.0)), tmp_path / "trace")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta_path.write_text(json.dumps({**meta, "baseline": 0.0}), encoding="utf-8")
        back = read_trace(tmp_path / "trace")
        assert np.array_equal(back.samples, np.arange(10.0))
        assert back.sample_rate_hz == 1e6

    @pytest.mark.parametrize("n_bytes", [72, 83])  # a sample short; a partial sample over
    def test_trace_size_checked_against_sidecar(self, tmp_path, n_bytes):
        bin_path, _ = write_trace(detsim.TimeTrace(1e6, np.zeros(10)), tmp_path / "trace")
        with bin_path.open("r+b") as f:
            f.truncate(n_bytes)
        with pytest.raises(ValueError, match="sidecar"):
            read_trace(tmp_path / "trace")
