"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; the suite is deterministic (fixed
seeds throughout).
"""

import json
import math
import time

import numpy as np
import pytest
import yaml

from oracles import (bounce_series_rt, match_events, multi_photon_probability,
                     multi_photon_series, occupancy_series, per_pulse_detection_probability,
                     poisson_pmf)
from spdsim import analysis, cli, config, detsim, materials, tmm
from spdsim.detsim import DetectorParams, EventRecord
from spdsim.source import CoherentPulseTrain


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status} criterion {number}: {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def test_criterion_1_energy_conservation():
    rng = np.random.default_rng(42)
    start = time.time()
    worst = 0.0
    for _ in range(1000):
        n_layers = int(rng.integers(1, 7))
        layers = tuple(
            tmm.Layer(materials.MaterialDispersion.constant(
                f"m{i}", rng.uniform(1.0, 5.0), rng.uniform(0.0, 2.0)),
                rng.uniform(0.0, 500.0))
            for i in range(n_layers))
        stack = tmm.LayerStack(
            layers=layers,
            exit=materials.MaterialDispersion.constant(
                "exit", rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0)))
        resp = tmm.stack_response(stack, 1550.0)
        worst = max(worst, abs(1.0 - (resp.reflectance + resp.transmittance
                                      + resp.absorptance_total)))
    elapsed = time.time() - start
    report(1, "energy conservation over 1000 random lossy stacks",
           worst < 1e-9 and elapsed < 5.0,
           f"worst |1-(R+T+sumA)|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_fresnel_and_bounce_oracle():
    bare = tmm.LayerStack(layers=(),
                          exit=materials.MaterialDispersion.constant("n3", 3.0))
    resp = tmm.stack_response(bare, 1550.0)
    fresnel_ok = abs(resp.reflectance - 0.25) < 1e-12

    rng = np.random.default_rng(7)
    worst = 0.0
    for n_layers in (1, 2, 3):
        for _ in range(50):
            specs = [(rng.uniform(1.0, 5.0), rng.uniform(0.0, 1.5), rng.uniform(0.0, 400.0))
                     for _ in range(n_layers)]
            n_exit = complex(rng.uniform(1.0, 4.0), rng.uniform(0.0, 1.0))
            stack = tmm.LayerStack(
                layers=tuple(tmm.Layer(materials.MaterialDispersion.constant(
                    f"m{i}", n, k), d) for i, (n, k, d) in enumerate(specs)),
                exit=materials.MaterialDispersion.constant("exit", n_exit.real, n_exit.imag))
            got = tmm.stack_response(stack, 1550.0)
            ref_r, ref_t = bounce_series_rt(
                1.0, [(complex(n, k), d) for n, k, d in specs], n_exit, 1550.0)
            worst = max(worst, abs(got.reflectance - ref_r), abs(got.transmittance - ref_t))
    report(2, "Fresnel anchor and multiple-reflection-series oracle",
           fresnel_ok and worst < 1e-8,
           f"R err={abs(resp.reflectance - 0.25):.1e}, worst oracle err={worst:.2e}")


def test_criterion_3_interference_structure():
    stack = config.build_stack(config.load_config())
    wavelength = 1550.0

    # periodicity of A_BP vs bottom hBN thickness at fixed top thickness
    from scipy.signal import find_peaks
    bottoms = np.arange(0.0, 801.0, 1.0)
    sweep = tmm.absorption_map(stack, [stack.layers[0].thickness_nm], bottoms,
                               wavelength, "armchair")[0]
    peaks, _ = find_peaks(sweep)
    spacing = float(np.diff(bottoms[peaks]).mean())
    n_hbn = materials.index_at(materials.bundled("hbn"), wavelength).real
    period = wavelength / (2.0 * n_hbn)
    period_ok = abs(spacing / period - 1.0) < 0.05

    # unpolarized response is exactly the mean of the two axes
    ac = tmm.stack_response(stack, wavelength, "armchair")
    zz = tmm.stack_response(stack, wavelength, "zigzag")
    unpol = tmm.stack_response(stack, wavelength, "unpolarized")
    mean_ok = np.allclose(unpol.layer_absorptance,
                          0.5 * (ac.layer_absorptance + zz.layer_absorptance),
                          rtol=0.0, atol=1e-15)

    # optimized armchair BP absorptance lands in the documented band
    optimum = tmm.optimize_thicknesses(stack, (0.0, 400.0), (0.0, 400.0), wavelength,
                                       "armchair", coarse_step_nm=4.0)
    band_ok = 0.40 <= optimum.absorptance <= 0.65
    report(3, "Fabry-Perot period, unpolarized identity, optimized absorption band",
           period_ok and mean_ok and band_ok,
           f"spacing={spacing:.1f} nm vs {period:.1f} nm, "
           f"A_BP*={optimum.absorptance:.3f}")


def test_criterion_4_photon_statistics():
    norm = sum(poisson_pmf(0.2652, n) for n in range(51))
    norm_ok = abs(norm - 1.0) < 1e-10
    n_bar = 0.2652
    n_max = int(n_bar + 20 * math.sqrt(n_bar) + 30)
    mean = sum(n * poisson_pmf(n_bar, n) for n in range(n_max + 1))
    mean_ok = abs(mean - n_bar) < 1e-10
    series = multi_photon_series(0.2652)
    multi = multi_photon_probability(0.2652)
    multi_ok = abs(multi - series) < 1e-12
    report(4, "Poisson pmf identities and multi-photon probability",
           norm_ok and mean_ok and multi_ok,
           f"norm err={abs(norm - 1):.1e}, mean err={abs(mean - n_bar):.1e}, "
           f"P(n>1)={multi:.4e} vs series {series:.4e}")


def test_criterion_5_closed_loop_eqe():
    start = time.time()
    true_eqe = 0.27 * 0.79  # 0.2133
    params = DetectorParams(absorptance_armchair=0.27, absorptance_zigzag=0.27,
                            iqe=0.79, dark_rate_hz=720.0, dead_time_us=0.0)
    light = CoherentPulseTrain(1550.0, 1e4, 0.05)
    dark = CoherentPulseTrain(1550.0, 1e4, 0.0)
    n_light = detsim.simulate(params, light, 600.0, seed=501).n_detections
    n_dark = detsim.simulate(params, dark, 600.0, seed=502).n_detections
    result = analysis.estimate_eqe(n_light, n_dark, 0.05, 1e4, 600.0)
    elapsed = time.time() - start
    z = abs(result.eqe - true_eqe) / result.eqe_sigma
    report(5, "closed-loop EQE recovery at 21.3% truth",
           z < 3.0 and elapsed < 60.0,
           f"eqe={result.eqe:.4f}+-{result.eqe_sigma:.4f}, |z|={z:.2f}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def sweep_fit():
    """(fit, expected slope EQE, dark counts, slope-EQE sigma, intercept
    sigma) of criterion 6's five-rate sweep. The sigmas are those of the
    OLS fit under the Poisson variance of the expected counts. n_bar is 0.3
    so that a 3% slope bias is 8 sigma: at n_bar 0.05 the slope-EQE sigma
    is 1.6% of its value, too wide for a 4-sigma bound to see that bias."""
    true_eqe = 0.27 * 0.79
    duration = 120.0
    n_bar = 0.3
    dark_rate = 720.0
    params = DetectorParams(absorptance_armchair=0.27, absorptance_zigzag=0.27,
                            iqe=0.79, dark_rate_hz=dark_rate, dead_time_us=0.0)
    rates = np.array([1e3, 2e3, 5e3, 1e4, 2e4])
    points = []
    for i, f in enumerate(rates):
        record = detsim.simulate(params, CoherentPulseTrain(1550.0, f, n_bar),
                                 duration, seed=10 + i)
        points.append((f, record.n_detections))
    fit = analysis.eqe_from_frequency_sweep(points, n_bar, duration)
    p_detect = 1 - math.exp(-n_bar * true_eqe)  # a pulse's photons count once
    expected = duration * (rates * p_detect + dark_rate)
    dx = rates - rates.mean()
    sxx = np.sum(dx ** 2)
    slope_weights = dx / sxx
    intercept_weights = 1 / rates.size - rates.mean() * dx / sxx
    eqe_sigma = math.sqrt(np.sum(slope_weights ** 2 * expected)) / (n_bar * duration)
    intercept_sigma = math.sqrt(np.sum(intercept_weights ** 2 * expected))
    return fit, p_detect / n_bar, dark_rate * duration, eqe_sigma, intercept_sigma


def test_criterion_6_slope_method(sweep_fit):
    # 4-sigma bounds: over 200 seed sets, correct code failed neither
    fit, eqe, dark_counts, eqe_sigma, intercept_sigma = sweep_fit
    slope_ok = abs(fit.eqe_from_slope - eqe) < 4 * eqe_sigma
    intercept_ok = abs(fit.intercept - dark_counts) < 4 * intercept_sigma
    report(6, "frequency-sweep slope EQE and dark-dominated intercept",
           slope_ok and intercept_ok,
           f"slope eqe={fit.eqe_from_slope:.4f} vs {eqe:.4f}+-{eqe_sigma:.4f}, "
           f"intercept={fit.intercept:.0f} vs {dark_counts:.0f}+-{intercept_sigma:.0f}")


@pytest.mark.parametrize("sign", [-1, 1])
def test_criterion_6_bounds_reject_biased_fits(sweep_fit, sign):
    # a slope 3% off, or an intercept 10% of the dark counts off, fails them
    fit, eqe, dark_counts, eqe_sigma, intercept_sigma = sweep_fit
    assert abs((1 + sign * 0.03) * fit.eqe_from_slope - eqe) >= 4 * eqe_sigma
    assert abs(fit.intercept + sign * 0.10 * dark_counts - dark_counts) >= 4 * intercept_sigma


def test_criterion_7_dead_time_saturation():
    tau_us = 50.0
    # quantitative: homogeneous arrivals against r / (1 + r tau)
    worst_rel = 0.0
    for rate in (5e3, 10e3, 20e3, 40e3):
        params = DetectorParams(dark_rate_hz=rate, dead_time_us=tau_us,
                                hold_time_mean_us=1.0, max_occupancy=4)
        record = detsim.simulate(params, CoherentPulseTrain(1550.0, 1e4, 0.0),
                                 10.0, seed=55)
        accepted = record.n_detections / 10.0
        predicted = rate / (1.0 + rate * tau_us * 1e-6)
        worst_rel = max(worst_rel, abs(accepted / predicted - 1.0))
    formula_ok = worst_rel < 0.02

    # qualitative roll-off: photon flux sweep deviates > 10% beyond 20 kHz
    params = DetectorParams(absorptance_armchair=1.0, absorptance_zigzag=1.0, iqe=1.0,
                            dark_rate_hz=0.0, dead_time_us=tau_us,
                            hold_time_mean_us=1.0, max_occupancy=4)
    rep_rate = 100e3
    rates = {}
    for n_bar in (0.01, 0.2, 0.3, 0.4):
        record = detsim.simulate(params, CoherentPulseTrain(1550.0, rep_rate, n_bar),
                                 10.0, seed=77)
        rates[n_bar * rep_rate] = record.n_detections / 10.0
    sensitivity = rates[1000.0] / 1000.0
    deviations = {flux: 1.0 - rate / (sensitivity * flux)
                  for flux, rate in rates.items() if flux > 20e3 - 1}
    rolloff_ok = all(dev > 0.10 for dev in deviations.values())
    report(7, "non-paralyzable dead-time saturation",
           formula_ok and rolloff_ok,
           f"worst formula err={worst_rel:.3%}, deviation@20kHz="
           f"{deviations[20000.0]:.1%}")


def test_criterion_8_trace_round_trip():
    n_events = 1000
    captures = 50.0 + 150.0 * np.arange(n_events)
    truth = EventRecord(captures, captures + 30.0)
    params = DetectorParams(step_amplitude_v=1.0, noise_sigma_v=1.0 / 8.0,  # SNR 8
                            fall_time_us=2.3, rise_time_us=2.1)
    duration_s = (captures[-1] + 120.0) * 1e-6
    trace = detsim.synthesize_trace(truth, params, duration_s, 50e6, seed=202)

    found = analysis.detect_events(trace, threshold_v=0.5, hysteresis_v=0.25,
                                   min_width_us=2.0)
    matched = match_events(truth.capture_times_us, found.capture_times_us, 3.0)
    recall = matched / truth.n_captures
    precision = matched / max(found.n_captures, 1)

    fall, rise, n_used = analysis.mean_edge_times(trace, truth)
    fall_ok = abs(fall / 2.3 - 1.0) < 0.05
    rise_ok = abs(rise / 2.1 - 1.0) < 0.05
    report(8, "trace round trip at SNR 8 and 50 MS/s",
           recall >= 0.999 and precision >= 0.999 and fall_ok and rise_ok,
           f"recall={recall:.4f}, precision={precision:.4f}, "
           f"fall={fall:.3f} us, rise={rise:.3f} us over {n_used} events")


def test_criterion_9_histogram_structure():
    params = DetectorParams(dark_rate_hz=30_000.0, hold_time_mean_us=40.0,
                            dead_time_us=0.0, max_occupancy=3,
                            step_amplitude_v=1.0, noise_sigma_v=0.08)
    record = detsim.simulate(params, CoherentPulseTrain(1550.0, 1e3, 0.0), 0.2, seed=5)
    _, occupancy = occupancy_series(record)
    trace = detsim.synthesize_trace(record, params, 0.2, 20e6, seed=6)
    hist = analysis.occupation_histogram(trace, bin_width_v=0.04)
    spacings = -np.diff(hist.peak_levels_v)
    variation = float((spacings.max() - spacings.min()) / spacings.mean())
    report(9, "occupation histogram structure (max occupancy 3)",
           occupancy.max() == 3 and hist.peak_levels_v.size == 4 and variation < 0.10,
           f"{hist.peak_levels_v.size} peaks, spacing variation={variation:.1%}")


def test_criterion_10_cli_determinism(tmp_path):
    cfg_doc = {
        "detector": {"dead_time_us": 0.0, "noise_sigma_v": 0.1},
        "source": {"mean_photons": 0.2, "repetition_rate_hz": 5000.0},
        "run": {"duration_s": 0.5, "seed": 4242, "sample_rate_hz": 1e7,
                "trace_duration_s": 0.02, "out_dir": str(tmp_path / "unused")},
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(cfg_doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes()
        for name in ("events.csv", "trace.f64", "trace.json", "manifest.json"))

    for out in (tmp_path / "t1", tmp_path / "t2"):
        assert cli.main(["tmm", "point", "--config", str(cfg), "--out", str(out)]) == 0
    tmm_identical = ((tmp_path / "t1" / "response.json").read_bytes()
                     == (tmp_path / "t2" / "response.json").read_bytes())
    report(10, "CLI runs are byte-identical for a fixed config and seed",
           identical and tmm_identical,
           "simulate + tmm point replayed")
