"""Golden SHA-256 digests of fixed-seed CLI outputs, one per file kind.

These pin the bytes of every file a CLI command writes:
- `spdsim simulate`: `events.csv`, `trace.f64`, `trace.json` and
  `manifest.json` from one short run;
- `spdsim analyze trace` on that trace (its 0.01 s span five 0.002 s
  baseline windows): `detected_events.csv` and `trace_analysis.json`;
- `spdsim tmm point|map|optimize` on the default 201x201 grid:
  `response.json`, `map.csv`, `map_summary.json` and `optimum.json`;
- `spdsim source calibrate`: `calibration.json`;
- `spdsim analyze counts` on two light/dark pairs and `spdsim analyze sweep`
  on three repetition rates: `counting.csv` and `fit.json`.

`manifest.json` embeds the numpy and Python versions, so it is digested as
canonical JSON without its `versions` block. The commands run in one fresh
interpreter, as the console script does, so numpy loads as the CLI loads it
(with one BLAS thread), not as the test run loaded it. "Behaviour unchanged"
is thus checked rather than asserted. Update a digest only for a deliberate
output change, and record that change with a line in CHANGES.md. The digests
were recorded with numpy 2.4; another numpy release may draw a different
random stream or round a float differently.
"""

import hashlib
import json

import pytest
import yaml

from fresh import run_fresh

SIMULATE_CONFIG = {
    "source": {"mean_photons": 0.5, "repetition_rate_hz": 20000.0},
    "run": {"duration_s": 0.2, "seed": 2718, "sample_rate_hz": 1e7,
            "trace_duration_s": 0.01},
    "analysis": {"baseline_window_s": 0.002},
}
CALIBRATION = {"power_tap_watts": 1.28e-9, "tap_fraction": 0.5,
               "post_tap_chain": [{"attenuator": 1e-7}, {"splitter_tap": 0.1}]}
SWEEP_RATES_HZ = (10000.0, 20000.0, 40000.0)
# Runs each command of the JSON list in argv[1], in order.
PROGRAM = """
import json, sys
from spdsim.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""

GOLDEN = {
    "events.csv": "0fd25328f4476d56ee033ef68d915b3eec09dfec41c8d55e2b0f937e9b7a81bd",
    "trace.f64": "9c5b604c70510a6cc0704391af1478e5e060211012e6530a997f9d4727c851b4",
    "trace.json": "f8db257effa8a10de8faf9b94b9eb4320c13f703c88f737a39b938fcce1ef9a5",
    "manifest.json": "fd7c539a1a1578ecb8922088324e88fcfeea9d9172934706a83e877e2519a56d",
    "response.json": "2126622aaeb7a807194e5cb1d5e67ab5b27134fcb9f01cfdf91e67a90dffec63",
    "detected_events.csv": "5cb628248943fd4cdf8342412048463e73175fafa59fd5fe795d086cbc05a9a9",
    "trace_analysis.json": "b6faef7b0e9b4dc543920afe7951214200d3c54353a1f307b220e2064ee229d3",
    "map.csv": "bb369a8c5a5a1515827660efda104930ef50dd6a7721ad538b90e73e725f6d39",
    "map_summary.json": "d0a21ef91d672593b7f8ec0ed4de1ca96df3e6c6da5071202026528d3b16aa28",
    "optimum.json": "8e8157e5e53d741d320163b8d7bb36114ab357483caaf31afe1ac13e3194f04a",
    "calibration.json": "5fcd19cccb8f158dc80e9dd7d41e17b2fca45075f6e79091cb823292ffef5135",
    "counting.csv": "d6b4029736288804a67bb877934cf7580528eb9b9cd897f7596d439a21dd12a0",
    "fit.json": "01e4c303ab16944d7efef6194a4b35bcfcb691ff408fe53fd86f73c07cd7f254",
}


def digest(path):
    if path.name == "manifest.json":
        manifest = json.loads(path.read_text(encoding="utf-8"))
        del manifest["versions"]
        data = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    else:
        data = path.read_bytes()
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")

    def config(name, doc):
        path = tmp / f"{name}.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        return str(path)

    commands = []

    def run(*argv):
        commands.append([str(a) for a in argv])

    cfg = config("cfg", SIMULATE_CONFIG)
    run("simulate", "--config", cfg, "--out", tmp / "sim")
    run("analyze", "trace", "--config", cfg, "--trace", tmp / "sim" / "trace",
        "--out", tmp / "ana")
    run("tmm", "point", "--out", tmp / "tmm")
    run("tmm", "map", "--out", tmp / "tmm")
    run("tmm", "optimize", "--out", tmp / "tmm")
    cal = config("cal", {**SIMULATE_CONFIG, "calibration": CALIBRATION})
    run("source", "calibrate", "--config", cal, "--out", tmp / "cal")
    for k, rate in enumerate(SWEEP_RATES_HZ):
        rate_cfg = config(f"rate{k}", {
            **SIMULATE_CONFIG, "source": {"mean_photons": 0.5, "repetition_rate_hz": rate},
            "run": {**SIMULATE_CONFIG["run"], "seed": 100 + k, "trace_duration_s": 0.001}})
        run("simulate", "--config", rate_cfg, "--out", tmp / "sweep" / f"f{k}")
        if k < 2:
            run("simulate", "--config", rate_cfg, "--seed", 200 + k, "--shutter", "closed",
                "--out", tmp / "dark" / f"f{k}")
    run("analyze", "counts", "--config", cfg,
        "--light", tmp / "sweep" / "f0", "--dark", tmp / "dark" / "f0",
        "--light", tmp / "sweep" / "f1", "--dark", tmp / "dark" / "f1", "--out", tmp / "counts")
    run("analyze", "sweep", "--config", cfg, "--runs", tmp / "sweep", "--out", tmp / "fit")
    proc = run_fresh(PROGRAM, json.dumps(commands))
    assert proc.returncode == 0, proc.stderr
    dirs = {"events.csv": "sim", "trace.f64": "sim", "trace.json": "sim", "manifest.json": "sim",
            "detected_events.csv": "ana", "trace_analysis.json": "ana",
            "response.json": "tmm", "map.csv": "tmm", "map_summary.json": "tmm",
            "optimum.json": "tmm", "calibration.json": "cal", "counting.csv": "counts",
            "fit.json": "fit"}
    return {name: tmp / d / name for name, d in dirs.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest(outputs, name):
    assert digest(outputs[name]) == GOLDEN[name]


def test_manifest_versions(outputs):
    manifest = json.loads(outputs["manifest.json"].read_text(encoding="utf-8"))
    assert sorted(manifest["versions"]) == ["numpy", "python", "spdsim"]
