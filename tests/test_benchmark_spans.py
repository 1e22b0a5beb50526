"""The benchmark's per-layer metrics can still be read from spdsim.

`perfbench/spans.py` wraps spdsim functions by name and reads each call's
work size from its arguments or result. A metric goes absent when a wrapped
function is renamed or deleted, and reads no size when a parameter it reads
is renamed. The module is imported read-only here; the traced commands run
in their own interpreters, since tracing replaces spdsim functions in place.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_needed_function_is_callable(spans):
    needs = sorted({f for _, _, _, fns, _ in spans.PER_LAYER for f in fns})
    for name in needs:
        module, function = name.split(".")
        assert callable(getattr(importlib.import_module(f"spdsim.{module}"), function, None)), name


def traced(argv, out: Path) -> Path:
    """Run one spdsim command under the spans tracer in a fresh interpreter; its spans file."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SPANS), "--spans", str(out), "--"]
                          + [str(a) for a in argv],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return out


def test_detsim_and_analysis_spans_have_finite_sizes(spans, tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "source": {"mean_photons": 0.5, "repetition_rate_hz": 20000.0},
        "run": {"duration_s": 0.2, "seed": 5, "sample_rate_hz": 1e7, "trace_duration_s": 0.01},
        "analysis": {"baseline_window_s": 0.002},
    }), encoding="utf-8")
    run = tmp_path / "run"
    commands = [
        ["simulate", "--config", cfg, "--out", run],
        ["analyze", "trace", "--config", cfg, "--trace", run / "trace", "--out", tmp_path / "a"],
        ["analyze", "counts", "--config", cfg, "--light", run, "--dark", run,
         "--out", tmp_path / "c"],
    ]
    sized = {f"{module}.{name}": size for module in ("detsim", "analysis")
             for name, size in spans.WRAPPED[module].items()}
    seen = set()
    for k, argv in enumerate(commands):
        with np.load(traced(argv, tmp_path / f"spans{k}.npz")) as data:
            names = data["names"][data["name_id"]]
            size_a, size_b = data["size_a"], data["size_b"]
        for i, name in enumerate(names.tolist()):
            if sized.get(name) is None:
                continue
            seen.add(name)
            assert math.isfinite(size_a[i]), name
            if name == "detsim.simulate":  # pulses and captures
                assert math.isfinite(size_b[i]), name
    assert seen == {name for name, size in sized.items() if size is not None}


def test_small_workloads_give_every_per_layer_metric(spans, tmp_path):
    """Each workload's commands, on small inputs, leave no per-layer metric of
    BENCHMARK.json absent: every function a metric needs is still wrapped and
    reached through its module on the workload that reads it."""
    def cfg(name, doc):
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return path

    grid = {"top_range_nm": [300.0, 400.0], "bottom_range_nm": [40.0, 140.0], "step_nm": 10.0}
    optics = cfg("optics", {"tmm": grid})
    saturation = cfg("saturation", {
        "source": {"repetition_rate_hz": 1e5, "mean_photons": 2.0},
        "run": {"duration_s": 0.05, "trace_duration_s": 0.001}})
    trace = cfg("trace", {
        "source": {"repetition_rate_hz": 2e5, "mean_photons": 0.3},
        "run": {"duration_s": 0.05, "trace_duration_s": 0.05, "sample_rate_hz": 1e7}})
    campaign = cfg("campaign", {"calibration": {
        "power_tap_watts": 1e-9, "tap_fraction": 0.5,
        "post_tap_chain": [{"attenuator": 1e-5}, {"splitter_tap": 0.1}, {"fiber": None}]}})
    runs = tmp_path / "sweep"
    light = [cfg(f"light{i}", {"source": {"repetition_rate_hz": f, "mean_photons": 0.1},
                               "run": {"duration_s": 0.1, "trace_duration_s": 0.001}})
             for i, f in enumerate((5e3, 1e4, 2e4))]
    commands = {
        "optics": [["tmm", command, "--config", optics, "--out", tmp_path / command]
                   for command in ("point", "map", "optimize")],
        "saturation": [["simulate", "--config", saturation, "--out", tmp_path / "sat"]],
        "trace": [["simulate", "--config", trace, "--out", tmp_path / "run"],
                  ["analyze", "trace", "--config", trace, "--trace", tmp_path / "run" / "trace",
                   "--out", tmp_path / "ana"]],
        "campaign": [["source", "calibrate", "--config", campaign, "--out", tmp_path / "cal"],
                     *(["simulate", "--config", c, "--out", runs / f"f{i}"]
                       for i, c in enumerate(light)),
                     ["analyze", "counts", "--config", campaign, "--light", runs / "f0",
                      "--dark", runs / "f0", "--out", tmp_path / "counts"],
                     ["analyze", "sweep", "--config", campaign, "--runs", runs,
                      "--out", tmp_path / "fit"],
                     ["tmm", "point", "--config", campaign, "--out", tmp_path / "point"]],
    }
    merged = spans.Spans()
    for workload, argvs in commands.items():
        for k, argv in enumerate(argvs):
            out = traced(argv, tmp_path / f"{workload}{k}.npz")
            merged.add_file(out, workload, " ".join(map(str, argv[:2])))
    metrics, absent = spans.per_layer(merged)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert absent == {}
    assert sorted(metrics) == sorted(m["name"] for m in benchmark["per_layer"])
