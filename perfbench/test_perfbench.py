"""Tests of the benchmark itself: references, checks, spans and the runner.

Each output check must pass on the program's real output and fail once that
output is perturbed. Run with:

    python3 -m pytest perfbench -q

The workload tests run the real spdsim commands (about a minute in all).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import references as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TABLES = ref.load_tables(run.SRC / "spdsim" / "data")
SEED = 3


# ---------------------------------------------------------------------------
# References


def test_fresnel_and_quarter_wave():
    n_si = 3.48 + 0.0j
    r, t, a = ref.stack_rta(1.0, [], n_si, 1550.0)
    assert r == pytest.approx(((1 - 3.48) / (1 + 3.48)) ** 2, abs=1e-15)
    assert r + t == pytest.approx(1.0, abs=1e-15)
    n_ar = math.sqrt(3.48)
    r, _, _ = ref.stack_rta(1.0, [(n_ar, 1550.0 / (4 * n_ar))], n_si, 1550.0)
    assert float(r) == pytest.approx(0.0, abs=1e-15)


def test_lossy_stack_conserves_energy_and_spacer_is_periodic():
    rng = np.random.default_rng(0)
    layers = [(complex(rng.uniform(1, 4), rng.uniform(0, 3)), rng.uniform(5, 200))
              for _ in range(6)]
    r, t, a = ref.stack_rta(1.0, layers, 3.5 + 0.01j, 1310.0)
    assert float(r + t + a.sum()) == pytest.approx(1.0, abs=1e-12)
    assert np.all(a >= -1e-15)
    period = 1550.0 / (2 * 2.085)
    cfg = workloads.base_config({})
    tops = np.array([100.0])
    base = ref.spacer_map(cfg, TABLES, tops, np.array([30.0, 30.0 + period]), 1550.0,
                          "armchair")
    assert base[0, 0] == pytest.approx(base[0, 1], abs=1e-12)
    grid = np.arange(0.0, 400.0 + 1e-9, 2.0)
    values = ref.spacer_map(cfg, TABLES, tops, grid, 1550.0, "armchair")
    assert ref.fabry_perot_period(values, 2.0, 1.1 * period) == pytest.approx(period, rel=2e-3)


def _simulate_counter(rate_hz, p, dead_us, dark_hz, duration_s, seed):
    """Brute-force non-paralyzable counter over explicit pulse and dark times."""
    rng = np.random.default_rng(seed)
    period = 1e6 / rate_hz
    n = int(duration_s * rate_hz)
    pulses = np.nonzero(rng.random(n) < p)[0] * period
    darks = np.sort(rng.uniform(0, duration_s * 1e6, rng.poisson(dark_hz * duration_s)))
    count, ready = 0, -math.inf
    for t in np.sort(np.concatenate([pulses, darks])):
        if t >= ready:
            count += 1
            ready = t + dead_us
    return count


@pytest.mark.parametrize("dark_hz", [0.0, 720.0, 20000.0])
def test_renewal_detections_match_brute_force(dark_hz):
    mean, sigma = ref.renewal_detections(1.0, 1e6, 0.35, 50.0, dark_hz)
    got = _simulate_counter(1e6, 0.35, 50.0, dark_hz, 1.0, 1)
    assert abs(got - mean) < 5 * sigma + 1e-3 * mean


def test_mueller_and_ols():
    assert ref.mueller(20e3, 50.0) == pytest.approx(10e3)
    slope, intercept = ref.ols([1, 2, 3], [3, 5, 7])
    assert (slope, intercept) == pytest.approx((2.0, 1.0))


def test_calibrated_n_bar_closed_form():
    # 1 nW at the device, 1550 nm, 10 kHz: n_bar = 1e-9 / (h c / lambda * 1e4)
    want = 1e-9 / (6.62607015e-34 * 299792458.0 / 1550e-9 * 1e4)
    assert ref.calibrated_n_bar(1e-9, 0.5, 1.0, 1550.0, 1e4) == pytest.approx(want)


@pytest.mark.parametrize("value", [1e-06, 1e20, 0.1, 2.5e-11, 12345.678, 3, None, "bp"])
def test_to_yaml_round_trips(value):
    doc = {"a": value, "b": [value, {"c": value}]}
    assert yaml.safe_load(workloads.to_yaml(doc)) == doc


# ---------------------------------------------------------------------------
# Checks against real program output, then against perturbed copies


def _real_output(name, tmp_path_factory):
    work = tmp_path_factory.mktemp(name) / "round"
    ops = run.Ops()
    result = run.run_round(name, SEED, work, TABLES, ops)
    assert ops.failed == 0, ops.failures
    assert all(c["ok"] for c in result["checks"])
    return work


def _failing_checks(name, work):
    plan = workloads.WORKLOADS[name](SEED, work, TABLES)
    failed = []
    for check_name, check in plan.checks:
        try:
            check()
        except workloads.CheckFailed:
            failed.append(check_name)
    return failed


def _perturbed(original, tmp_path, edit):
    work = tmp_path / "round"
    shutil.copytree(original, work)
    edit(work)
    return work


def _edit_json(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def _edit_lines(path, change):
    lines = path.read_text().splitlines()
    change(lines)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def optics_output(tmp_path_factory):
    saved = dict(workloads.GRID)
    workloads.GRID["step_nm"] = 10.0  # 41 x 41 cells keeps the test short
    try:
        yield _real_output("optics", tmp_path_factory)
    finally:
        workloads.GRID.update(saved)


@pytest.fixture
def small_grid():
    saved = dict(workloads.GRID)
    workloads.GRID["step_nm"] = 10.0
    yield
    workloads.GRID.update(saved)


def _scale_cell(lines, row, factor):
    t, b, a = lines[row].split(",")
    lines[row] = f"{t},{b},{float(a) * factor:.10g}"


def _wrong_wavelength_map(work):
    cfg = workloads.base_config({})
    tops = bottoms = np.arange(0.0, 401.0, 10.0)
    grid = ref.spacer_map(cfg, TABLES, tops, bottoms, 0.85 * 1550.0, "armchair")
    lines = ["t_top_nm,t_bottom_nm,a_bp"] + [
        f"{t:.6g},{b:.6g},{grid[i, j]:.10g}" for i, t in enumerate(tops)
        for j, b in enumerate(bottoms)]
    (work / "map" / "map.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, check", [
    (lambda w: _edit_json(w / "point" / "response.json",
                          lambda d: d.update(reflectance=d["reflectance"] + 1e-6)),
     "point.conservation"),
    (lambda w: _edit_json(w / "point" / "response.json",
                          lambda d: d["layers"][1].update(absorptance=0.5)),
     "point.reference"),
    (lambda w: _edit_lines(w / "map" / "map.csv", lambda ls: _scale_cell(ls, 700, 1.0 + 1e-6)),
     "map.reference"),
    (lambda w: _edit_json(w / "map" / "map_summary.json",
                          lambda d: d["best"].update(t_top_nm=0.0)), "map.summary"),
    (lambda w: _edit_json(w / "opt" / "optimum.json",
                          lambda d: d.update(a_bp=d["a_bp"] - 0.05)), "optimize.vs_map"),
    (lambda w: _edit_json(w / "opt" / "optimum.json",
                          lambda d: d.update(t_top_nm=d["t_top_nm"] + 25.0)),
     "optimize.vs_map"),
    (lambda w: _edit_json(w / "opt" / "optimum.json",
                          lambda d: d.update(t_bottom_nm=d["t_bottom_nm"] + 0.5)),
     "optimize.reference"),
    (_wrong_wavelength_map, "map.fabry_perot"),
])
def test_optics_checks_fail_on_perturbed_output(optics_output, small_grid, tmp_path,
                                                edit, check):
    assert _failing_checks("optics", optics_output) == []
    assert check in _failing_checks("optics", _perturbed(optics_output, tmp_path, edit))


@pytest.fixture(scope="module")
def saturation_output(tmp_path_factory):
    return _real_output("saturation", tmp_path_factory)


def _insert_after_first_capture(lines, offset_us, kind="capture", copies=1):
    t, _, origin = lines[1].split(",")
    new = [f"{float(t) + offset_us:.4f},{kind},{origin}"] * copies
    lines[2:2] = new
    if kind == "capture":  # keep every capture paired
        lines.extend(f"{float(t) + 1e7:.4f},release,{origin}" for _ in new)


def _drop_captures(lines, share):
    kept, dropped = [lines[0]], {}
    step = int(1 / share)
    n_caps = 0
    for line in lines[1:]:
        _, kind, origin = line.split(",")
        if kind == "capture":
            n_caps += 1
            if n_caps % step == 0:
                dropped[origin] = dropped.get(origin, 0) + 1
                continue
        elif dropped.get(origin):
            dropped[origin] -= 1
            continue
        kept.append(line)
    lines[:] = kept


@pytest.mark.parametrize("edit, check", [
    (lambda w: _edit_lines(w / "run" / "events.csv",
                           lambda ls: _insert_after_first_capture(ls, 10.0)),
     "events.dead_time"),
    (lambda w: _edit_lines(w / "run" / "events.csv",
                           lambda ls: _insert_after_first_capture(ls, 0.0, copies=4)),
     "events.occupancy"),
    (lambda w: _edit_lines(w / "run" / "events.csv",
                           lambda ls: ls.insert(1, ls[1].split(",")[0] + ",release,"
                                                + ls[1].split(",")[2])),
     "events.release_order"),
    (lambda w: _edit_json(w / "run" / "manifest.json",
                          lambda d: d["counts"].update(captures=d["counts"]["captures"] + 1)),
     "manifest.counts"),
    (lambda w: _edit_lines(w / "run" / "events.csv", lambda ls: _drop_captures(ls, 0.01)),
     "rate.renewal"),
])
def test_saturation_checks_fail_on_perturbed_output(saturation_output, tmp_path, edit, check):
    assert _failing_checks("saturation", saturation_output) == []
    failed = _failing_checks("saturation", _perturbed(saturation_output, tmp_path, edit))
    assert check in failed


@pytest.fixture(scope="module")
def trace_output(tmp_path_factory):
    return _real_output("trace", tmp_path_factory)


def _add_detected_event(lines, t_us):
    lines[1:1] = [f"{t_us:.4f},capture,unknown", f"{t_us + 5:.4f},release,unknown"]
    lines[1:] = sorted(lines[1:], key=lambda s: (float(s.split(",")[0]), s.split(",")[1]))


def _drop_detected_events(lines, every):
    """Remove every `every`-th detected event (its capture and release rows)."""
    captures = [i for i, s in enumerate(lines) if ",capture," in s]
    releases = [i for i, s in enumerate(lines) if ",release," in s]
    doomed = set(captures[::every]) | set(releases[::every])
    lines[:] = [s for i, s in enumerate(lines) if i not in doomed]


@pytest.mark.parametrize("edit, check", [
    (lambda w: _edit_lines(w / "ana" / "detected_events.csv",
                           lambda ls: _add_detected_event(ls, 1.0)), "trace.precision"),
    (lambda w: _edit_lines(w / "ana" / "detected_events.csv",
                           lambda ls: _drop_detected_events(ls, 10)), "trace.recall"),
    (lambda w: _edit_json(w / "ana" / "trace_analysis.json",
                          lambda d: d["edges"].update(rise_10_90_us=2.1 * 1.3)),
     "trace.edges"),
    (lambda w: _edit_json(w / "ana" / "trace_analysis.json",
                          lambda d: d.update(n_events=d["n_events"] + 1)), "trace.summary"),
])
def test_trace_checks_fail_on_perturbed_output(trace_output, tmp_path, edit, check):
    assert _failing_checks("trace", trace_output) == []
    assert check in _failing_checks("trace", _perturbed(trace_output, tmp_path, edit))


@pytest.fixture(scope="module")
def campaign_output(tmp_path_factory):
    return _real_output("campaign", tmp_path_factory)


def _scale_eqe(lines, factor):
    for i in range(1, len(lines)):
        cols = lines[i].split(",")
        cols[4] = f"{float(cols[4]) * factor:.10g}"
        lines[i] = ",".join(cols)


def _bump_light_count(lines):
    cols = lines[1].split(",")
    cols[1] = str(int(cols[1]) + 1)
    lines[1] = ",".join(cols)


@pytest.mark.parametrize("edit, check", [
    (lambda w: _edit_json(w / "cal" / "calibration.json",
                          lambda d: d.update(n_bar=d["n_bar"] * 1.01)),
     "calibrate.closed_form"),
    (lambda w: _edit_lines(w / "counts" / "counting.csv", _bump_light_count),
     "counts.recompute"),
    (lambda w: _edit_lines(w / "counts" / "counting.csv", lambda ls: _scale_eqe(ls, 2.0)),
     "counts.expectation"),
    (lambda w: _edit_json(w / "fit" / "fit.json",
                          lambda d: d.update(slope_counts_per_hz=d["slope_counts_per_hz"]
                                             * 1.001)), "sweep.recompute"),
    (lambda w: _edit_json(w / "fit" / "fit.json",
                          lambda d: d.update(eqe_from_slope=d["eqe_from_slope"] * 1.5)),
     "sweep.expectation"),
])
def test_campaign_checks_fail_on_perturbed_output(campaign_output, tmp_path, edit, check):
    assert _failing_checks("campaign", campaign_output) == []
    assert check in _failing_checks("campaign", _perturbed(campaign_output, tmp_path, edit))


# ---------------------------------------------------------------------------
# Spans


def test_self_time_subtracts_child_coverage(tmp_path):
    rec = spans.Recorder()
    clock = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    spans.perf_counter, saved = (lambda: next(clock)), spans.perf_counter
    try:
        child = rec.wrap("tmm.absorption_map", lambda: np.zeros((2, 3)),
                         spans.WRAPPED["tmm"]["absorption_map"])
        parent = rec.wrap("tmm.optimize_thicknesses", lambda: (child(), child()))
        parent()
    finally:
        spans.perf_counter = saved
    rec.save(tmp_path / "s.npz", absent=[])
    acc = spans.Spans()
    acc.add_file(tmp_path / "s.npz", "optics", "tmm optimize")
    w = ("optics",)
    assert acc.total("tmm.optimize_thicknesses", w) == 10.0
    assert acc.self_total("tmm.optimize_thicknesses", w) == 10.0 - 2.0 - 1.0
    assert acc.total_outside("tmm.optimize_thicknesses", "tmm.absorption_map", w) == 7.0
    assert acc.count("tmm.absorption_map", w) == 2
    assert acc.size("tmm.absorption_map", w) == 12.0
    acc.to_file(tmp_path / "merged.npz")
    with np.load(tmp_path / "merged.npz") as merged:
        assert list(merged["parent"]) == [-1, 0, 0]


def test_absent_function_is_reported_not_fatal(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    rec = spans.Recorder()
    absent = spans.install(rec, {"tmm": {"no_such_kernel": None},
                                 "no_such_module": {"f": None}})
    assert absent == ["tmm.no_such_kernel", "no_such_module.f"]
    rec.save(tmp_path / "s.npz", absent=absent + ["tmm.stack_response"])
    acc = spans.Spans()
    acc.add_file(tmp_path / "s.npz", "optics", "tmm map")
    metrics, why = spans.per_layer(acc)
    assert "tmm.stack_response_calls" not in metrics
    assert why["tmm.stack_response_calls"].startswith("function absent")
    assert why["tmm.absorption_map_s"].startswith("not called")


# ---------------------------------------------------------------------------
# Runner


def test_run_fails_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "optics",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
