"""The benchmark's per-layer metrics can still be read from spdsim.

`perfbench/spans.py` wraps spdsim functions by name and reads each call's
work size from its arguments or result. A metric goes absent when a wrapped
function is renamed or deleted, and reads no size when a parameter it reads
is renamed. The module is imported read-only here; the traced commands run
in their own interpreters, since tracing replaces spdsim functions in place.
"""

import importlib
import importlib.util
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
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    sized = {f"{module}.{name}": size for module in ("detsim", "analysis")
             for name, size in spans.WRAPPED[module].items()}
    seen = set()
    for k, argv in enumerate(commands):
        out = tmp_path / f"spans{k}.npz"
        proc = subprocess.run([sys.executable, str(SPANS), "--spans", str(out), "--"]
                              + [str(a) for a in argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        with np.load(out) as data:
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
