"""The README's code blocks run as written."""

import re
from pathlib import Path

from spdsim import cli
from spdsim.config import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block(language):
    (text,) = re.findall(rf"```{language}\n(.*?)```", README, re.S)
    return text


def test_config_example_loads_and_simulates(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(block("yaml"), encoding="utf-8")
    cfg = load_config(path)
    assert cfg["run"]["sample_rate_hz"] == 1.0e7
    assert cfg["calibration"]["post_tap_chain"] == [{"attenuator": 1.0e-7}]
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "manifest.json").exists()


def test_library_example_runs():
    namespace = {}
    exec(compile(block("python"), "README.md", "exec"), namespace)
    assert 0.0 < namespace["result"].eqe < 1.0
    assert namespace["found"].n_captures == 10
