"""Golden SHA-256 digests of fixed-seed CLI outputs.

These pin the bytes of `events.csv` and `trace.f64` from one short
`spdsim simulate`, of `detected_events.csv` and `trace_analysis.json` from
`spdsim analyze trace` on that trace (its 0.01 s span five 0.002 s baseline
windows), and of `response.json` from the default `spdsim tmm point`, so
"behaviour unchanged" is checked rather than asserted. Update a digest
only for a deliberate output change, and record that change with a line in
CHANGES.md. The digests were recorded with numpy 2.4; another numpy release
may draw a different random stream or round a float differently.
"""

import hashlib

import pytest
import yaml

from spdsim import cli

SIMULATE_CONFIG = {
    "source": {"mean_photons": 0.5, "repetition_rate_hz": 20000.0},
    "run": {"duration_s": 0.2, "seed": 2718, "sample_rate_hz": 1e7,
            "trace_duration_s": 0.01},
    "analysis": {"baseline_window_s": 0.002},
}

GOLDEN = {
    "events.csv": "0fd25328f4476d56ee033ef68d915b3eec09dfec41c8d55e2b0f937e9b7a81bd",
    "trace.f64": "9c5b604c70510a6cc0704391af1478e5e060211012e6530a997f9d4727c851b4",
    "response.json": "2126622aaeb7a807194e5cb1d5e67ab5b27134fcb9f01cfdf91e67a90dffec63",
    "detected_events.csv": "5cb628248943fd4cdf8342412048463e73175fafa59fd5fe795d086cbc05a9a9",
    "trace_analysis.json": "ec1e84e37237cd9980cabeaa1f8659adac72b98a4c8dd11b6a2a12b5eb5fa2e4",
}


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    cfg = tmp / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(SIMULATE_CONFIG), encoding="utf-8")
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp / "sim")]) == 0
    assert cli.main(["analyze", "trace", "--config", str(cfg),
                     "--trace", str(tmp / "sim" / "trace"), "--out", str(tmp / "ana")]) == 0
    assert cli.main(["tmm", "point", "--out", str(tmp / "tmm")]) == 0
    return {"events.csv": tmp / "sim" / "events.csv",
            "trace.f64": tmp / "sim" / "trace.f64",
            "detected_events.csv": tmp / "ana" / "detected_events.csv",
            "trace_analysis.json": tmp / "ana" / "trace_analysis.json",
            "response.json": tmp / "tmm" / "response.json"}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest(outputs, name):
    assert digest(outputs[name]) == GOLDEN[name]
