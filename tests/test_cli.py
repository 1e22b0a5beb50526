import copy
import dataclasses
import errno
import inspect
import json
import math
import os
import shutil
import sys
import textwrap
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fresh import command_peak_mb, run_fresh
from spdsim import analysis, cli, config as cfgmod, detsim, tmm
from spdsim.config import (DEFAULT_CONFIG, ConfigError, build_chain, build_detector, build_source,
                           build_stack, load_config)
from spdsim.detsim import DetectorParams
from spdsim.source import Attenuator, Splitter

DEFAULT_PARAMS = DetectorParams()
# EQE of the default detector for unpolarized light: absorptance times iqe.
DEFAULT_EQE = DEFAULT_PARAMS.absorptance("unpolarized") * DEFAULT_PARAMS.iqe


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


FUZZ_BASE = {**copy.deepcopy(DEFAULT_CONFIG), "calibration": {
    "power_tap_watts": 1.28e-9, "tap_fraction": 0.5, "relative_uncertainty": 0.05,
    "post_tap_chain": [{"attenuator": 1e-7}, {"splitter_tap": 0.1}, {"fiber": None}]}}
FUZZ_BASE["detector"]["absorptance_from_stack"] = True


def key_paths(node, prefix=()):
    """Every key and index path into a config document."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


MUTABLE_PATHS = list(key_paths(FUZZ_BASE))
WRONG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.text(max_size=4),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-1.0, -1e-12, 0.0, math.nan, math.inf, -math.inf, 1e300]),
    st.lists(st.one_of(st.none(), st.integers(-2, 2), st.floats(allow_nan=True)), max_size=3),
    st.lists(st.lists(st.floats(allow_nan=True), max_size=2), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(-1, 1), max_size=2))


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config()
        assert cfg["source"]["wavelength_nm"] == 1550.0

    def test_unknown_key_reports_path(self):
        with pytest.raises(ConfigError, match="detector.iqee"):
            load_config(overrides={"detector": {"iqee": 0.9}})

    def test_bad_value_reports_path(self):
        with pytest.raises(ConfigError, match="detector.iqe"):
            load_config(overrides={"detector": {"iqe": 1.5}})

    def test_threshold_must_exceed_hysteresis(self):
        with pytest.raises(ConfigError, match="analysis.threshold_v"):
            load_config(overrides={"analysis": {"threshold_v": 0.1, "hysteresis_v": 0.2}})

    def test_file_merges_over_defaults(self, tmp_path):
        path = write_cfg(tmp_path, {"source": {"mean_photons": 0.123}})
        cfg = load_config(path)
        assert cfg["source"]["mean_photons"] == 0.123
        assert cfg["source"]["repetition_rate_hz"] == 10000.0

    def test_build_objects(self):
        cfg = load_config()
        stack = build_stack(cfg)
        assert [lay.material.name for lay in stack.layers][:2] == ["hbn", "bp"]
        source = build_source(cfg)
        assert source.mean_photons == 0.05
        closed = build_source(cfg, shutter_open=False)
        assert closed.mean_photons == 0.0
        params = build_detector(cfg)
        assert params.iqe == 0.79

    def test_absorptance_from_stack(self):
        cfg = load_config(overrides={"detector": {"absorptance_from_stack": True}})
        params = build_detector(cfg)
        # The bundled stack at the default spacers, not the paper's defaults.
        assert params.absorptance_armchair == pytest.approx(0.5252, abs=5e-5)
        assert params.absorptance_zigzag == pytest.approx(0.0067, abs=5e-5)

    def test_absorber_from_a_file_is_the_layer_tmm_sweeps(self, tmp_path):
        film = tmp_path / "bp_film.csv"
        film.write_text((resources.files("spdsim") / "data" / "bp.csv").read_text(
            encoding="utf-8"), encoding="utf-8")
        layers = copy.deepcopy(DEFAULT_CONFIG["stack"]["layers"])
        layers[1]["material"] = str(film)
        cfg = load_config(overrides={"detector": {"absorptance_from_stack": True},
                                     "stack": {"layers": layers}})
        stack = build_stack(cfg)
        assert tmm.locate_sweep_layers(stack)[2] == 1
        for axis in ("armchair", "zigzag"):
            assert getattr(build_detector(cfg), f"absorptance_{axis}") == float(
                tmm.stack_response(stack, 1550.0, axis).layer_absorptance[1])

    def test_function_defaults_are_the_config_defaults(self):
        window = inspect.signature(analysis.detect_events).parameters["baseline_window_s"]
        step = inspect.signature(tmm.optimize_thicknesses).parameters["coarse_step_nm"]
        assert window.default == DEFAULT_CONFIG["analysis"]["baseline_window_s"] == 0.01
        assert step.default == DEFAULT_CONFIG["tmm"]["step_nm"] == 2.0

    def test_detector_defaults_are_the_dataclass_and_the_paper_eqe(self):
        assert build_detector(load_config()) == DEFAULT_PARAMS
        assert DEFAULT_EQE == pytest.approx(0.2142, abs=5e-5)

    @pytest.mark.parametrize("key", ["bin_width_v", "prominence_fraction"])
    def test_unread_analysis_keys_are_gone(self, key):
        with pytest.raises(ConfigError, match=f"analysis.{key}: unknown"):
            load_config(overrides={"analysis": {key: 0.05}})

    @pytest.mark.parametrize("value", [None, "5%", -0.1])
    def test_relative_uncertainty_validated(self, value):
        with pytest.raises(ConfigError, match="calibration.relative_uncertainty"):
            load_config(overrides={"calibration": {"relative_uncertainty": value}})

    def test_stack_material_from_file_path(self, tmp_path):
        disp = tmp_path / "custom.csv"
        disp.write_text("# synthetic test material\n1000,1.9,0\n2000,1.9,0\n",
                        encoding="utf-8")
        cfg = load_config(overrides={"stack": {"layers": [
            {"material": str(disp), "thickness_nm": 100.0},
            {"material": "bp", "thickness_nm": 25.0},
        ]}})
        stack = build_stack(cfg)
        assert stack.layers[0].material.name == "custom"
        assert stack.layers[0].material.n[0, 0] == 1.9

    def test_unknown_material_reports_error(self):
        cfg = load_config(overrides={"stack": {"layers": [
            {"material": "unobtainium", "thickness_nm": 10.0}]}})
        with pytest.raises(ConfigError, match="unobtainium"):
            build_stack(cfg)

    def test_build_chain(self):
        chain = build_chain([{"attenuator": 0.1}, {"splitter_tap": 0.5}, {"fiber": None}])
        assert chain == (Attenuator(0.1), Splitter(0.5))  # a fiber adds no factor
        with pytest.raises(ConfigError, match=r"chain\[0\]"):
            build_chain([{"prism": 1.0}])

    @pytest.mark.parametrize("block, key", [
        *(("source", k) for k in ("wavelength_nm", "repetition_rate_hz", "mean_photons")),
        *(("detector", f.name) for f in dataclasses.fields(DetectorParams)
          if f.name != "max_occupancy"),
        ("calibration", "relative_uncertainty")])
    def test_nan_rejected_by_the_owning_object(self, block, key):
        with pytest.raises(ConfigError, match=rf"^{block}\.{key} must be "):
            load_config(overrides={block: {key: math.nan}})

    @pytest.mark.parametrize("text", [".nan", ".inf"])
    def test_nonfinite_polarization_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"source:\n  polarization: {text}\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r"^source\.polarization must be a finite angle"):
            load_config(path)

    def test_object_errors_carry_the_block_path(self):
        with pytest.raises(ConfigError) as exc:
            load_config(overrides={"detector": {"iqe": 1.5}})
        assert str(exc.value) == "detector.iqe must be within [0, 1], got 1.5"
        with pytest.raises(ConfigError, match=r"^calibration\.mean_power_watts must be "):
            load_config(overrides={"calibration": {"power_tap_watts": -1e-9}})
        with pytest.raises(ConfigError, match=r"post_tap_chain\[1\]\.attenuator\.transmittance"):
            load_config(overrides={"calibration": {"post_tap_chain": [{"fiber": None},
                                                                      {"attenuator": 0.0}]}})

    @pytest.mark.parametrize("overrides", [
        {"tmm": {"top_range_nm": ["a", 1]}},
        {"tmm": {"top_range_nm": [None, 1]}},
        {"tmm": {"top_range_nm": [0.0, math.inf]}},
        {"tmm": {"bottom_range_nm": [0.0, math.nan]}},
        {"source": None},
        {"analysis": {"baseline_window_s": "abc"}},
        {"analysis": {"baseline_window_s": -1}},
        {"calibration": {"post_tap_chain": 5}},
        {"calibration": {"post_tap_chain": [{"attenuator": None}]}},
        {"calibration": {"tap_fraction": "x"}},
        {"stack": {"layers": [{"material": 5, "thickness_nm": 10.0}]}},
        {"stack": {"exit": 5}},
        {"run": {"out_dir": 5}},
        {"run": {"duration_s": math.inf}},
        {"run": {"sample_rate_hz": math.inf}},
        {"detector": {"absorptance_from_stack": "yes"}},
        {"detector": {"step_amplitude_v": "1"}},
    ])
    def test_rejected_at_load(self, overrides):
        with pytest.raises(ConfigError):
            load_config(overrides=overrides)

    def test_stack_errors_from_the_optics_are_config_errors(self):
        cfg = load_config(overrides={"detector": {"absorptance_from_stack": True},
                                     "source": {"wavelength_nm": 5000.0}})
        with pytest.raises(ConfigError, match="absorptance_from_stack"):
            build_detector(cfg)

    def test_stack_the_optics_cannot_solve_is_a_config_error(self):
        layers = copy.deepcopy(DEFAULT_CONFIG["stack"]["layers"])
        layers[5]["thickness_nm"] = 10_000.0  # finite BP absorptance, infinite T
        cfg = load_config(overrides={"detector": {"absorptance_from_stack": True},
                                     "stack": {"layers": layers}})
        with np.errstate(all="ignore"), pytest.raises(
                ConfigError, match="^detector.absorptance_from_stack: .* not finite"):
            build_detector(cfg)

    @pytest.mark.parametrize("block, key, value, ok", [
        ("detector", "absorptance_from_stack", True, True),
        ("detector", "absorptance_from_stack", 1, False),
        ("detector", "max_occupancy", 2, True),
        ("detector", "max_occupancy", 2.0, False),
        ("detector", "max_occupancy", True, False),
        ("run", "seed", 7, True),
        ("run", "seed", 7.0, False),
        ("source", "wavelength_nm", 1550, True),
        ("source", "wavelength_nm", True, False),
        ("source", "wavelength_nm", "1550", False),
        ("source", "polarization", 30, True),
        ("calibration", "power_tap_watts", 1, True)])
    def test_each_default_types_its_key_without_converting(self, block, key, value, ok):
        overrides = {block: {key: value}}
        if not ok:
            with pytest.raises(ConfigError, match=rf"^{block}\.{key}: expected "):
                load_config(overrides=overrides)
            return
        loaded = load_config(overrides=overrides)[block][key]
        assert loaded == value and type(loaded) is type(value)

    def test_types_come_from_the_defaults_not_an_earlier_layer(self, tmp_path):
        # The file's int wavelength and set tap power give those keys no new type.
        path = write_cfg(tmp_path, {"source": {"wavelength_nm": 1550},
                                    "calibration": {"power_tap_watts": 1e-9}})
        cfg = load_config(path, {"source": {"wavelength_nm": 1549.5},
                                  "calibration": {"power_tap_watts": None}})
        assert cfg["source"]["wavelength_nm"] == 1549.5
        assert cfg["calibration"]["power_tap_watts"] is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(MUTABLE_PATHS), WRONG_VALUES),
                    min_size=1, max_size=3))
    def test_mutated_config_loads_or_raises_config_error(self, mutations):
        doc = copy.deepcopy(FUZZ_BASE)
        for path, value in mutations:
            node = doc
            try:
                for part in path[:-1]:
                    node = node[part]
                node[path[-1]] = value
            except (KeyError, IndexError, TypeError):
                continue  # an earlier mutation replaced a container on this path
        try:
            cfg = load_config(overrides=doc)
        except ConfigError:
            return
        for build in (build_source, build_detector, build_stack,
                      lambda c: build_chain(c["calibration"]["post_tap_chain"])):
            try:
                build(cfg)
            except ConfigError:
                pass


# Each rule that moved out of `validate_config` into the function owning its
# value (`analysis.check_detection`, `tmm.check_grid`, `check_positive` as
# `simulate` and `check_trace` apply it, `source.check_tap_fraction`), with the
# values that function refuses.
MOVED_RULE_FAULTS = [
    ("analysis", "threshold_v", math.inf), ("analysis", "threshold_v", math.nan),
    ("analysis", "threshold_v", 0.1), ("analysis", "hysteresis_v", -0.2),
    ("analysis", "hysteresis_v", math.nan), ("analysis", "min_width_us", -1.0),
    ("analysis", "min_width_us", math.nan), ("analysis", "min_width_us", math.inf),
    ("analysis", "baseline_window_s", math.inf), ("analysis", "baseline_window_s", 0.0),
    ("tmm", "step_nm", 0.0), ("tmm", "step_nm", math.inf), ("tmm", "step_nm", math.nan),
    ("tmm", "top_range_nm", [400.0, 0.0]), ("tmm", "top_range_nm", [-1.0, 400.0]),
    ("tmm", "bottom_range_nm", [0.0, math.inf]), ("tmm", "bottom_range_nm", [math.nan, 1.0]),
    ("run", "duration_s", math.inf), ("run", "duration_s", -1.0),
    ("run", "trace_duration_s", math.nan), ("run", "trace_duration_s", 0.0),
    ("run", "sample_rate_hz", math.inf), ("run", "sample_rate_hz", -1e7),
    ("calibration", "tap_fraction", 1.0), ("calibration", "tap_fraction", math.nan),
    ("calibration", "tap_fraction", math.inf)]


class TestMovedRules:
    @pytest.mark.parametrize("block, key, value", MOVED_RULE_FAULTS)
    @pytest.mark.parametrize("argv", [("tmm", "point"), ("simulate",)])
    def test_refused_at_load_naming_the_key(self, tmp_path, capsys, argv, block, key, value):
        cfg = write_cfg(tmp_path, {block: {key: value}})
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {block}.{key} must be ") and err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_sample_rate_against_the_edges_is_a_simulate_rule(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"run": {"sample_rate_hz": 1e3}})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "t") == 0
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "s") == 2
        assert capsys.readouterr().err.startswith("error: sample rate 1000 Hz too low")


def simulate_cfg(tmp_path, **run_overrides):
    run = {"duration_s": 0.5, "seed": 99, "sample_rate_hz": 1e7,
           "trace_duration_s": 0.02, "out_dir": str(tmp_path / "default_out")}
    run.update(run_overrides)
    return write_cfg(tmp_path, {
        "detector": {"dead_time_us": 0.0, "noise_sigma_v": 0.1},
        "source": {"mean_photons": 0.2, "repetition_rate_hz": 5000.0},
        "run": run,
    })


class TestCliTmm:
    def test_point_conserves_energy(self, tmp_path):
        cfg = write_cfg(tmp_path, {})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "o") == 0
        payload = json.loads((tmp_path / "o" / "response.json").read_text())
        assert payload["conservation_check"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["layers"]) == 8

    def test_map_grid_dimensions_and_optimize(self, tmp_path):
        cfg = write_cfg(tmp_path, {"tmm": {"top_range_nm": [300, 400],
                                           "bottom_range_nm": [40, 120],
                                           "step_nm": 10.0}})
        assert run_cli("tmm", "map", "--config", cfg, "--out", tmp_path / "m") == 0
        lines = (tmp_path / "m" / "map.csv").read_text().splitlines()
        assert lines[0] == "t_top_nm,t_bottom_nm,a_bp"
        assert len(lines) == 1 + 11 * 9
        summary = json.loads((tmp_path / "m" / "map_summary.json").read_text())

        assert run_cli("tmm", "optimize", "--config", cfg, "--out", tmp_path / "opt") == 0
        optimum = json.loads((tmp_path / "opt" / "optimum.json").read_text())
        assert optimum["a_bp"] >= summary["best"]["a_bp"] - 1e-12

    def test_map_reports_conservation_error(self, tmp_path):
        assert run_cli("tmm", "map", "--config", write_cfg(tmp_path, {}),
                       "--out", tmp_path / "m") == 0
        summary = json.loads((tmp_path / "m" / "map_summary.json").read_text())
        assert summary["shape"] == [201, 201]
        assert 0.0 <= summary["max_conservation_error"] < 1e-9

    @pytest.mark.parametrize("command", ["map", "optimize"])
    def test_grid_whose_steps_land_on_the_upper_bound(self, tmp_path, command):
        cfg = write_cfg(tmp_path, {"tmm": {"top_range_nm": [1, 1.3],
                                           "bottom_range_nm": [80, 84],
                                           "step_nm": 0.1}})
        assert run_cli("tmm", command, "--config", cfg, "--out", tmp_path / "o") == 0

    @pytest.mark.parametrize("au_nm", [10_000.0, 20_000.0])
    @pytest.mark.parametrize("command, output", [("point", "response.json"), ("map", "map.csv"),
                                                 ("optimize", "optimum.json")])
    def test_stack_the_optics_cannot_solve_exits_2(self, tmp_path, capsys, command, output,
                                                    au_nm):
        layers = copy.deepcopy(DEFAULT_CONFIG["stack"]["layers"])
        layers[5]["thickness_nm"] = au_nm  # the Au reflector
        cfg = write_cfg(tmp_path, {"stack": {"layers": layers}, "tmm": {"step_nm": 50.0}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
            assert run_cli("tmm", command, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "error: R, T or A not finite at 1550 nm; is a layer too thick?\n")
        assert not (tmp_path / "o").exists(), f"no {output}, and no directory for it"

    @pytest.mark.parametrize("command", ["map", "optimize"])
    def test_grid_beyond_memory_exits_2_without_output(self, tmp_path, capsys, command):
        # 0-400 nm at 1e-4 nm on both spacers: 4000001**2 cells, 290 bytes each
        cfg = write_cfg(tmp_path, {"tmm": {"step_nm": 0.0001}})
        assert run_cli("tmm", command, "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 4000001x4000001 thickness map has 16000008000001 cells, "
                              "which need 4.64e+15 bytes; this machine has ")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    def test_int_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"source": {"wavelength_nm": 10 ** 400}})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: source.wavelength_nm: expected a number, got 1000")
        assert err.count("\n") == 1 and not (tmp_path / "o").exists()

    @pytest.mark.parametrize("rows, fault", [
        ("1000,2.1,0.0\n1550,nan,0.0\n", "row 3: non-finite value"),
        ("1000,2.1,0.0\n1550,2.0,inf\n", "row 3: non-finite value"),
        ("0,2.0,0.0\n", "row 2: wavelength not positive"),
    ], ids=["nan", "inf", "zero-wavelength"])
    def test_table_fault_exits_2_naming_its_row(self, tmp_path, capsys, rows, fault):
        table = tmp_path / "bad.csv"
        table.write_text("# synthetic table with one faulty row\n" + rows, encoding="utf-8")
        layers = copy.deepcopy(DEFAULT_CONFIG["stack"]["layers"])
        layers[0]["material"] = str(table)
        cfg = write_cfg(tmp_path, {"stack": {"layers": layers}})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: stack: bad: {fault}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("material, message", [
        ("tables/missing.csv", "dispersion file tables/missing.csv does not exist"),
        ("unobtainium", "no bundled dispersion data for 'unobtainium' (available: "),
    ], ids=["missing-file", "unknown-name"])
    def test_unknown_material_exits_2_naming_it(self, tmp_path, capsys, material, message):
        layers = copy.deepcopy(DEFAULT_CONFIG["stack"]["layers"])
        layers[0]["material"] = material
        cfg = write_cfg(tmp_path, {"stack": {"layers": layers}})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: stack: {message}") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_unpolarized_axis(self, tmp_path):
        cfg = write_cfg(tmp_path, {"tmm": {"axis": "unpolarized"}})
        assert run_cli("tmm", "point", "--config", cfg, "--out", tmp_path / "u") == 0
        payload = json.loads((tmp_path / "u" / "response.json").read_text())
        assert payload["conservation_check"] == pytest.approx(1.0, abs=1e-9)


class TestCliSource:
    def test_calibrate(self, tmp_path):
        cfg = write_cfg(tmp_path, {"calibration": {
            "power_tap_watts": 1.28e-9, "tap_fraction": 0.5,
            "post_tap_chain": [{"attenuator": 1e-7}]}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 0
        payload = json.loads((tmp_path / "c" / "calibration.json").read_text())
        assert payload["n_bar"] == pytest.approx(0.1, rel=2e-3)
        assert payload["n_bar_sigma"] == pytest.approx(0.05 * payload["n_bar"], rel=1e-9)
        assert payload["power_device_watts"] == pytest.approx(1.28e-16, rel=1e-12, abs=0)

    def test_calibrate_requires_reading(self, tmp_path):
        cfg = write_cfg(tmp_path, {})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 2

    @pytest.mark.parametrize("kind", cfgmod._STAGES)
    def test_every_stage_kind_calibrates(self, tmp_path, kind):
        value = None if kind == "fiber" else 0.5
        cfg = write_cfg(tmp_path, {"calibration": {
            "power_tap_watts": 1.28e-9, "post_tap_chain": [{kind: value}]}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 0

    @pytest.mark.parametrize("value, shown", [(0.3, "0.3"), ("yes", "'yes'"), ([1, 2], "[1, 2]")])
    def test_fiber_takes_only_null(self, tmp_path, capsys, value, shown):
        cfg = write_cfg(tmp_path, {"calibration": {
            "power_tap_watts": 1.28e-9, "post_tap_chain": [{"fiber": value}]}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 2
        assert capsys.readouterr().err == (
            f"error: calibration.post_tap_chain[0].fiber: expected null, got {shown}\n")
        assert not (tmp_path / "c").exists()

    def test_a_fiber_leaves_the_calibration_unchanged(self, tmp_path):
        chain = [{"attenuator": 1e-7}, {"splitter_tap": 0.1}]
        written = []
        for i, stages in enumerate((chain, chain + [{"fiber": None}])):
            cfg = write_cfg(tmp_path, {"calibration": {
                "power_tap_watts": 1.28e-9, "post_tap_chain": stages}}, name=f"c{i}.yaml")
            out = tmp_path / f"c{i}"
            assert run_cli("source", "calibrate", "--config", cfg, "--out", out) == 0
            written.append((out / "calibration.json").read_bytes())
        assert written[0] == written[1]

    def test_infinite_tap_power_exits_2_without_output(self, tmp_path, capsys):
        # calibration.json used to get "n_bar": Infinity, which is not JSON
        cfg = write_cfg(tmp_path, {"calibration": {"power_tap_watts": math.inf}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 2
        assert capsys.readouterr().err == (
            "error: calibration.mean_power_watts must be nonnegative and finite, got inf\n")
        assert not (tmp_path / "c").exists()

    def test_n_bar_beyond_a_float_is_not_written(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"calibration": {"power_tap_watts": 1e308}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / 'c' / 'calibration.json'}: Out of range float")
        assert err.count("\n") == 1 and not (tmp_path / "c" / "calibration.json").exists()

    def test_polarizer_stage_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"calibration": {
            "power_tap_watts": 1.28e-9, "post_tap_chain": [{"polarizer": 10.0}]}})
        assert run_cli("source", "calibrate", "--config", cfg, "--out", tmp_path / "c") == 2
        assert capsys.readouterr().err == (
            "error: calibration.post_tap_chain[0].polarizer: unknown stage kind\n")
        assert not (tmp_path / "c").exists()


class TestCliSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = simulate_cfg(tmp_path, duration_s=0.001)
        out = tmp_path / "run1"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["expected"]["dark_events"] == pytest.approx(0.72)
        assert manifest["seed"] == 99
        assert (out / "events.csv").exists()
        assert (out / "trace.f64").exists()
        assert (out / "trace.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = simulate_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg, "--out", out_a) == 0
        assert run_cli("simulate", "--config", cfg, "--out", out_b) == 0
        for name in ("events.csv", "trace.f64", "trace.json", "manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_flag_changes_outputs(self, tmp_path):
        cfg = simulate_cfg(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", "--config", cfg, "--out", out_a) == 0
        assert run_cli("simulate", "--config", cfg, "--out", out_b, "--seed", 123) == 0
        assert (out_a / "events.csv").read_bytes() != (out_b / "events.csv").read_bytes()

    @pytest.mark.parametrize("argv", [["tmm", "point"], ["tmm", "map"], ["tmm", "optimize"],
                                      ["source", "calibrate"], ["analyze", "trace"],
                                      ["analyze", "counts"], ["analyze", "sweep"]],
                             ids=lambda argv: "-".join(argv))
    def test_only_simulate_takes_a_seed(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--seed", 1, "--out", tmp_path / "o")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_shutter_closed_keeps_dark_process(self, tmp_path):
        cfg = simulate_cfg(tmp_path, duration_s=2.0)
        out = tmp_path / "dark"
        assert run_cli("simulate", "--config", cfg, "--out", out, "--shutter", "closed") == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["source"]["mean_photons"] == 0.0
        events = detsim.read_events_csv(out / "events.csv")
        assert events.n_captures > 1000  # ~720 Hz for 2 s
        assert set(events.origins) == {"dark"}

    def test_manifest_config_reruns_identically(self, tmp_path):
        cfg = simulate_cfg(tmp_path)
        out_a = tmp_path / "a"
        assert run_cli("simulate", "--config", cfg, "--out", out_a) == 0
        manifest = json.loads((out_a / "manifest.json").read_text())
        replay_cfg = write_cfg(tmp_path, manifest["config"], name="replay.yaml")
        out_b = tmp_path / "b"
        assert run_cli("simulate", "--config", replay_cfg, "--out", out_b) == 0
        assert (out_a / "events.csv").read_bytes() == (out_b / "events.csv").read_bytes()
        assert (out_a / "trace.f64").read_bytes() == (out_b / "trace.f64").read_bytes()

    def test_impossible_trace_size_exits_2(self, tmp_path, capsys):
        cfg = simulate_cfg(tmp_path, duration_s=1.0, trace_duration_s=1.0,
                           sample_rate_hz=1e15)
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace of 1000000000000000 samples")
        assert "bytes" in err
        assert not out.exists() or not any(out.iterdir())  # rejected before any write

    @pytest.mark.parametrize("short", [1, 0])
    def test_trace_beyond_free_disk_exits_2_before_any_write(self, tmp_path, capsys,
                                                            monkeypatch, short):
        cfg = simulate_cfg(tmp_path)  # a 0.02 s trace at 10 MS/s
        need = 8 * 200_000
        asked = []

        def disk_usage(path):
            asked.append(Path(path))
            return shutil._ntuple_diskusage(10 * need, 9 * need + short, need - short)

        monkeypatch.setattr(shutil, "disk_usage", disk_usage)
        out = tmp_path / "new" / "run"
        code = run_cli("simulate", "--config", cfg, "--out", out)
        assert asked == [tmp_path]  # the nearest existing ancestor of --out
        err = capsys.readouterr().err
        if short:
            assert code == 2 and err.count("\n") == 1
            assert err.startswith(f"error: trace of 200000 samples, which need {need} bytes; ")
            assert not (tmp_path / "new").exists()
        else:
            assert code == 0 and (out / "trace.f64").stat().st_size == need

    def test_disk_full_while_writing_the_trace_exits_2(self, tmp_path, capsys, monkeypatch):
        def render(*args):
            yield np.zeros(4)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(detsim, "_render", render)
        cfg = simulate_cfg(tmp_path)
        assert run_cli("simulate", "--config", cfg, "--out", tmp_path / "run") == 2
        assert capsys.readouterr().err == f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n"

    def test_candidates_beyond_memory_exit_2_without_output(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"source": {"mean_photons": 1.0, "repetition_rate_hz": 1e9},
                                   "run": {"duration_s": 1e4}})
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 2
        assert "candidate captures" in capsys.readouterr().err
        assert not out.exists()


class TestStreamedTrace:
    """Neither trace command holds an array of the trace's length."""

    def test_peak_memory_does_not_grow_with_trace_length(self, tmp_path):
        peaks = []
        for n_samples in (2_000_000, 8_000_000):
            duration = n_samples / 1e7
            cfg = write_cfg(tmp_path, {  # the trace workload's event rate
                "source": {"mean_photons": 0.3, "repetition_rate_hz": 2e5},
                "run": {"duration_s": duration, "trace_duration_s": duration,
                        "sample_rate_hz": 1e7}}, name=f"cfg{n_samples}.yaml")
            run = tmp_path / f"run{n_samples}"
            peaks.append((
                command_peak_mb("simulate", "--config", cfg, "--out", run),
                command_peak_mb("analyze", "trace", "--config", cfg, "--trace", run / "trace",
                                "--out", tmp_path / f"ana{n_samples}")))
            assert (run / "trace.f64").stat().st_size == 8 * n_samples
        (simulate_2m, analyze_2m), (simulate_8m, analyze_8m) = peaks
        assert simulate_8m <= 1.1 * simulate_2m, peaks
        assert analyze_8m <= 1.1 * analyze_2m, peaks


class TestCliAnalyze:
    def test_trace_analysis(self, tmp_path):
        cfg = simulate_cfg(tmp_path, duration_s=0.05)
        out = tmp_path / "run"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        ana = tmp_path / "ana"
        assert run_cli("analyze", "trace", "--config", cfg,
                       "--trace", out / "trace", "--out", ana) == 0
        assert (ana / "detected_events.csv").exists()
        payload = json.loads((ana / "trace_analysis.json").read_text())
        assert payload["n_events"] >= 0

    def test_trace_edges_use_every_measurable_event(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "source": {"mean_photons": 0.3, "repetition_rate_hz": 200e3},
            "run": {"duration_s": 0.2, "seed": 8, "sample_rate_hz": 1e7,
                    "trace_duration_s": 0.2, "out_dir": str(tmp_path / "unused")},
        })
        out, ana = tmp_path / "run", tmp_path / "ana"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        assert run_cli("analyze", "trace", "--config", cfg,
                       "--trace", out / "trace", "--out", ana) == 0
        payload = json.loads((ana / "trace_analysis.json").read_text())
        assert "edges_unresolved" not in payload  # only a null `edges` carries a reason
        edges = payload["edges"]
        assert edges["n_measured"] > 200
        assert edges["fall_10_90_us"] == pytest.approx(DEFAULT_PARAMS.fall_time_us, rel=0.05)
        assert edges["rise_10_90_us"] == pytest.approx(DEFAULT_PARAMS.rise_time_us, rel=0.05)

    def test_counts_pipeline(self, tmp_path):
        cfg = simulate_cfg(tmp_path, duration_s=20.0)
        light, dark = tmp_path / "light", tmp_path / "dark"
        assert run_cli("simulate", "--config", cfg, "--out", light) == 0
        assert run_cli("simulate", "--config", cfg, "--out", dark,
                       "--shutter", "closed", "--seed", 100) == 0
        ana = tmp_path / "ana"
        assert run_cli("analyze", "counts", "--config", cfg,
                       "--light", light, "--dark", dark, "--out", ana) == 0
        lines = (ana / "counting.csv").read_text().splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        row = dict(zip(header, lines[1].split(",")))
        assert float(row["eqe"]) == pytest.approx(DEFAULT_EQE, abs=4 * float(row["eqe_sigma"]))

    def test_counts_use_the_configured_relative_uncertainty(self, tmp_path):
        cfg = simulate_cfg(tmp_path, duration_s=1.0)
        light, dark = tmp_path / "light", tmp_path / "dark"
        assert run_cli("simulate", "--config", cfg, "--out", light) == 0
        assert run_cli("simulate", "--config", cfg, "--out", dark,
                       "--shutter", "closed", "--seed", 100) == 0
        sigmas = []
        for rel in (0.05, 0.10):
            rel_cfg = write_cfg(tmp_path, {"calibration": {"relative_uncertainty": rel}},
                                name=f"rel{rel}.yaml")
            ana = tmp_path / f"ana{rel}"
            assert run_cli("analyze", "counts", "--config", rel_cfg,
                           "--light", light, "--dark", dark, "--out", ana) == 0
            header, line = (ana / "counting.csv").read_text().splitlines()
            row = {k: float(v) for k, v in zip(header.split(","), line.split(","))}
            exposure = row["photon_flux_hz"] * row["duration_s"]
            counting = math.sqrt(row["counts_light"] + row["counts_dark"]) / exposure
            assert row["eqe_sigma"] == pytest.approx(math.hypot(counting, rel * row["eqe"]),
                                                     rel=1e-9)
            sigmas.append(row["eqe_sigma"])
        assert sigmas[1] > sigmas[0]

    def test_sweep_pipeline(self, tmp_path):
        sweeps = tmp_path / "sweeps"
        rates, n_bar, duration = np.array([1e3, 2e3, 5e3, 1e4]), 0.2, 20.0
        for i, f in enumerate(rates):
            cfg = write_cfg(tmp_path, {
                "detector": {"dead_time_us": 0.0},
                "source": {"mean_photons": n_bar, "repetition_rate_hz": float(f)},
                "run": {"duration_s": duration, "seed": 50 + i, "sample_rate_hz": 1e7,
                        "trace_duration_s": 0.01, "out_dir": str(tmp_path / "unused")},
            }, name=f"cfg{i}.yaml")
            assert run_cli("simulate", "--config", cfg, "--out", sweeps / f"f{i}") == 0
        ana = tmp_path / "ana"
        assert run_cli("analyze", "sweep", "--config", write_cfg(tmp_path, {}, "base.yaml"),
                       "--runs", sweeps, "--out", ana) == 0
        fit = json.loads((ana / "fit.json").read_text())
        p_detect = 1 - np.exp(-n_bar * DEFAULT_EQE)
        # The fit's own residual sigma has only 2 degrees of freedom with 4
        # rates, so a 4-sigma bound on it misses for ~6% of seeds. The slope
        # sigma implied by the Poisson variance of the expected counts does not.
        expected = duration * (rates * p_detect + DEFAULT_PARAMS.dark_rate_hz)
        sxx = np.sum((rates - rates.mean()) ** 2)
        sigma = np.sqrt(np.sum((rates - rates.mean()) ** 2 * expected)) / sxx / (n_bar * duration)
        assert fit["eqe_from_slope"] == pytest.approx(p_detect / n_bar, abs=4 * sigma)

    def test_sweep_rejects_mismatched_durations(self, tmp_path, capsys):
        sweeps = tmp_path / "sweeps"
        for i, (f, duration) in enumerate(((1e3, 1.0), (2e3, 1.0), (5e3, 0.25))):
            cfg = write_cfg(tmp_path, {
                "source": {"mean_photons": 0.2, "repetition_rate_hz": f},
                "run": {"duration_s": duration, "trace_duration_s": 0.001},
            }, name=f"cfg{i}.yaml")
            assert run_cli("simulate", "--config", cfg, "--out", sweeps / f"f{i}") == 0
        capsys.readouterr()
        assert run_cli("analyze", "sweep", "--config", write_cfg(tmp_path, {}, "base.yaml"),
                       "--runs", sweeps, "--out", tmp_path / "ana") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analyze sweep: run durations differ")
        assert err.count("\n") == 1

    def test_sweep_rejects_mismatched_mean_photons(self, tmp_path, capsys):
        sweeps = tmp_path / "sweeps"
        for i, (f, n_bar) in enumerate(((1e3, 0.2), (2e3, 0.2), (5e3, 0.3))):
            cfg = write_cfg(tmp_path, {
                "source": {"mean_photons": n_bar, "repetition_rate_hz": f},
                "run": {"duration_s": 0.1, "trace_duration_s": 0.001},
            }, name=f"cfg{i}.yaml")
            assert run_cli("simulate", "--config", cfg, "--out", sweeps / f"f{i}") == 0
        capsys.readouterr()
        assert run_cli("analyze", "sweep", "--config", write_cfg(tmp_path, {}, "base.yaml"),
                       "--runs", sweeps, "--out", tmp_path / "ana") == 2
        assert capsys.readouterr().err == (
            "error: analyze sweep: runs disagree on mean_photons: [0.2, 0.3]\n")
        assert not (tmp_path / "ana").exists()

    def test_sweep_without_run_directories_exits_2(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "notes.txt").write_text("not a run\n", encoding="utf-8")
        assert run_cli("analyze", "sweep", "--config", write_cfg(tmp_path, {}),
                       "--runs", runs, "--out", tmp_path / "ana") == 2
        assert capsys.readouterr().err == (
            f"error: analyze sweep: no run directories under {runs}\n")
        assert not (tmp_path / "ana").exists()

    def test_counts_and_sweep_share_one_equal_exposure_rule(self, tmp_path):
        # 0.2 s and 0.200000000002 s differ by 1e-11, relative: equal exposure
        runs, dark = tmp_path / "runs", tmp_path / "dark"
        for i, (f, duration) in enumerate(((1e3, 0.2), (2e3, 0.200000000002), (5e3, 0.2))):
            cfg = write_cfg(tmp_path, {
                "source": {"mean_photons": 0.2, "repetition_rate_hz": f},
                "run": {"duration_s": duration, "trace_duration_s": 0.001},
            }, name=f"cfg{i}.yaml")
            assert run_cli("simulate", "--config", cfg, "--out", runs / f"f{i}") == 0
        assert run_cli("simulate", "--config", tmp_path / "cfg1.yaml", "--out", dark,
                       "--shutter", "closed") == 0
        base = write_cfg(tmp_path, {}, "base.yaml")
        assert run_cli("analyze", "counts", "--config", base, "--light", runs / "f0",
                       "--dark", dark, "--out", tmp_path / "counts") == 0
        assert run_cli("analyze", "sweep", "--config", base, "--runs", runs,
                       "--out", tmp_path / "fit") == 0

    def test_counts_requires_pairs(self, tmp_path, capsys):
        cfg = simulate_cfg(tmp_path)
        assert run_cli("analyze", "counts", "--config", cfg, "--light", tmp_path) == 2
        assert capsys.readouterr().err == (
            "error: analyze counts: need matching --light/--dark run directories\n")

    def test_counts_rejects_mismatched_durations(self, tmp_path, capsys):
        light_cfg = simulate_cfg(tmp_path, duration_s=1.0)
        light, dark = tmp_path / "light", tmp_path / "dark"
        assert run_cli("simulate", "--config", light_cfg, "--out", light) == 0
        dark_cfg = write_cfg(tmp_path, {"run": {"duration_s": 2.0}}, name="dark.yaml")
        assert run_cli("simulate", "--config", dark_cfg, "--out", dark,
                       "--shutter", "closed") == 0
        capsys.readouterr()
        assert run_cli("analyze", "counts", "--config", light_cfg,
                       "--light", light, "--dark", dark, "--out", tmp_path / "ana") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: analyze counts: light run (1.0 s) and dark run (2.0 s) "
                              "durations differ")
        assert err.count("\n") == 1
        assert not (tmp_path / "ana").exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["analyze", "trace", "--trace", "t/trace"]])
    def test_upward_step_exits_2_naming_the_key(self, tmp_path, capsys, argv):
        # detect_events finds downward pulses only: a -1 V step gave 0 events and exit 0
        cfg = write_cfg(tmp_path, {"detector": {"step_amplitude_v": -1.0}})
        assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == (
            "error: detector.step_amplitude_v must be positive and finite, got -1.0\n")
        assert not (tmp_path / "o").exists()

    def test_trace_with_no_events_reports_none(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "detector": {"dark_rate_hz": 0.0, "noise_sigma_v": 0.02},
            "source": {"mean_photons": 0.0},
            "run": {"duration_s": 0.05, "seed": 7, "sample_rate_hz": 1e7,
                    "trace_duration_s": 0.05, "out_dir": str(tmp_path / "unused")},
        })
        out = tmp_path / "quiet"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        ana = tmp_path / "ana"
        assert run_cli("analyze", "trace", "--config", cfg,
                       "--trace", out / "trace", "--out", ana) == 0
        payload = json.loads((ana / "trace_analysis.json").read_text())
        assert payload["n_events"] == 0
        assert payload["edges"] is None
        assert payload["edges_unresolved"] == "no measurable events"
        captured = capsys.readouterr()
        assert captured.err == "warning: edges not timed: no measurable events\n"
        assert captured.out.count("\n") == 2  # one line from each command

    def test_edges_too_slow_to_time_say_why(self, tmp_path, capsys):
        # A release fires with 30% of an 8 us rise left, so the low level read
        # before it overlaps the rise; the 651 events stand.
        cfg = write_cfg(tmp_path, {
            "detector": {"fall_time_us": 8.0, "rise_time_us": 8.0},
            "source": {"mean_photons": 0.3, "repetition_rate_hz": 200e3},
            "run": {"duration_s": 0.1, "seed": 5, "sample_rate_hz": 1e7,
                    "trace_duration_s": 0.1, "out_dir": str(tmp_path / "unused")},
        })
        out, ana = tmp_path / "run", tmp_path / "ana"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        capsys.readouterr()
        assert run_cli("analyze", "trace", "--config", cfg,
                       "--trace", out / "trace", "--out", ana) == 0
        payload = json.loads((ana / "trace_analysis.json").read_text())
        assert payload["n_events"] == 651 and payload["edges"] is None
        reason = "edge not resolved: it starts inside its level window"
        assert payload["edges_unresolved"] == reason
        captured = capsys.readouterr()
        assert captured.err == f"warning: edges not timed: {reason}\n"
        assert captured.out == f"wrote {ana / 'detected_events.csv'}: 651 events\n"


# A four-sample trace file beside its sidecar, which lacks `sample_rate` or
# holds a string or zero there, is empty or is not UTF-8; a 36-byte file
# whose sidecar counts 4.5 samples; a run manifest without its `source`
# block or that is not JSON; a run's `events.csv` that is not UTF-8, or
# whose rows parse but hold a NaN or negative time, captures out of order or
# a release before its capture. The last file a case writes is the one at
# fault, and the error starts with its path. In a sweep of three
# shutter-closed runs (n_bar 0, no slope to scale) no one file is at fault.
SAMPLES = {"t/trace.f64": bytes(32)}
MANIFEST = b'{"duration_s": 1.0, "source": {"repetition_rate_hz": 1e3, "mean_photons": 0.1}}'
EVENTS = "light/events.csv"
HEADER = b"timestamp_us,kind,origin\n"
CLOSED_RUNS = {f"runs/{rate}/{name}": content for rate in ("5e3", "1e4", "2e4")
               for name, content in [
                   ("manifest.json", b'{"duration_s": 1.0, "source": {"repetition_rate_hz": %s, '
                                     b'"mean_photons": 0.0}}' % rate.encode()),
                   ("events.csv", HEADER)]}


@pytest.mark.parametrize("argv, files", [
    (["analyze", "trace", "--trace", "missing/trace"], {}),
    (["analyze", "counts", "--light", "missing/light", "--dark", "missing/dark"], {}),
    (["analyze", "sweep", "--runs", "missing"], {}),
    (["source", "calibrate"], {}),  # the default config has no power reading
    (["analyze", "trace"], {}),
    (["analyze", "counts"], {}),
    (["analyze", "sweep"], {}),
    (["analyze", "trace", "--trace", "t/trace"],
     {**SAMPLES, "t/trace.json": b'{"n_samples": 4}'}),
    (["analyze", "trace", "--trace", "t/trace"],
     {**SAMPLES, "t/trace.json": b'{"n_samples": 4, "sample_rate": "fast"}'}),
    (["analyze", "trace", "--trace", "t/trace"],
     {**SAMPLES, "t/trace.json": b'{"n_samples": 4, "sample_rate": 0}'}),
    (["analyze", "trace", "--trace", "t/trace"],
     {"t/trace.f64": bytes(36),
      "t/trace.json": b'{"n_samples": 4.5, "sample_rate": 1e6}'}),
    (["analyze", "counts", "--light", "light", "--dark", "dark"],
     {"light/manifest.json": b'{"duration_s": 1.0}'}),
    (["analyze", "trace", "--trace", "t/trace"], {**SAMPLES, "t/trace.json": b""}),
    (["analyze", "trace", "--trace", "t/trace"], {**SAMPLES, "t/trace.json": b"\xff\xfe"}),
    (["analyze", "counts", "--light", "light", "--dark", "dark"],
     {"light/manifest.json": b"{"}),
    (["analyze", "sweep", "--runs", "runs"], {"runs/a/manifest.json": b"{"}),
    (["analyze", "counts", "--light", "light", "--dark", "dark"],
     {"light/manifest.json": MANIFEST, EVENTS: HEADER + b"1.0000,capture,\xff\n"}),
    *((["analyze", "counts", "--light", "light", "--dark", "dark"],
       {"light/manifest.json": MANIFEST, EVENTS: HEADER + rows}) for rows in [
        b"nan,capture,photon\n2.0000,release,photon\n",
        b"-1.0000,capture,photon\n2.0000,release,photon\n",
        b"5.0000,capture,photon\n1.0000,capture,photon\n6.0000,release,photon\n"
        b"7.0000,release,photon\n",
        b"5.0000,capture,photon\n3.0000,release,photon\n"]),
    (["analyze", "sweep", "--runs", "runs"], CLOSED_RUNS),
], ids=["analyze-trace", "analyze-counts", "analyze-sweep", "source-calibrate",
        "analyze-trace-without-trace", "analyze-counts-without-pairs",
        "analyze-sweep-without-runs", "sidecar-without-sample-rate",
        "sidecar-sample-rate-not-a-number", "sidecar-sample-rate-zero",
        "sidecar-sample-count-not-whole", "manifest-without-source", "sidecar-empty",
        "sidecar-not-utf-8", "manifest-not-json", "sweep-manifest-not-json",
        "events-not-utf-8", "events-nan-time", "events-negative-time",
        "events-captures-out-of-order", "events-release-before-capture",
        "sweep-of-shutter-closed-runs"])
def test_bad_input_exits_2_without_output(tmp_path, capsys, monkeypatch, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(content)
    cfg = write_cfg(tmp_path, {})
    assert run_cli(*argv, "--config", cfg, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if files and files is not CLOSED_RUNS:
        assert err.startswith(f"error: {list(files)[-1]}: "), err
    assert not (tmp_path / "o").exists()


# A config file that is not UTF-8, and a config whose stack names a
# dispersion file that is not UTF-8: each error names the file.
@pytest.mark.parametrize("config, named", [
    (b"run:\n  seed: 1  # \xff\n", "cfg.yaml"),
    (b"stack:\n  layers:\n  - {material: bad.csv, thickness_nm: 10.0}\n", "bad.csv"),
], ids=["config-not-utf-8", "dispersion-file-not-utf-8"])
def test_a_file_that_is_not_utf_8_is_named(tmp_path, capsys, monkeypatch, config, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.csv").write_bytes(b"# n and k \xff\n1000,1.5,0.0\n2000,1.5,0.0\n")
    (tmp_path / "cfg.yaml").write_bytes(config)
    assert run_cli("tmm", "point", "--config", "cfg.yaml", "--out", "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{named}: 'utf-8' codec can't decode byte 0xff" in err, err
    assert not (tmp_path / "o").exists()


# Makes scipy unimportable, notes which of queue, concurrent.futures and
# logging `import spdsim.cli` loaded (each would cost every command its
# import), imports every spdsim module, runs every CLI command and
# occupation_histogram in one fresh interpreter, then lists the scipy
# modules it loaded.
STARTUP_SCRIPT = textwrap.dedent("""
    import importlib
    import pkgutil
    import sys
    from pathlib import Path

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")

    sys.meta_path.insert(0, NoScipy())
    import spdsim.cli
    lazy = sorted(m for m in ("queue", "concurrent.futures", "logging") if m in sys.modules)
    import spdsim
    for module in pkgutil.iter_modules(spdsim.__path__):
        importlib.import_module(f"spdsim.{module.name}")
    from spdsim import analysis, cli, detsim

    tmp = Path(sys.argv[1])
    cfg, sweep = tmp / "cfg5000.yaml", tmp / "sweep"

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0, argv

    try:
        cli.main(["--version"])
    except SystemExit as exc:
        assert exc.code == 0
    for command in ("point", "map", "optimize"):
        run("tmm", command, "--config", cfg, "--out", tmp / "tmm")
    run("source", "calibrate", "--config", cfg, "--out", tmp / "cal")
    for rate in (2000, 5000, 8000):
        run("simulate", "--config", tmp / f"cfg{rate}.yaml", "--out", sweep / f"f{rate}")
    run("simulate", "--config", cfg, "--out", tmp / "dark", "--shutter", "closed")
    run("analyze", "trace", "--config", cfg, "--trace", sweep / "f5000" / "trace",
        "--out", tmp / "ana")
    run("analyze", "counts", "--config", cfg, "--light", sweep / "f5000",
        "--dark", tmp / "dark", "--out", tmp / "ana")
    run("analyze", "sweep", "--config", cfg, "--runs", sweep, "--out", tmp / "ana")
    trace = detsim.read_trace(sweep / "f5000" / "trace")
    assert analysis.occupation_histogram(trace, 0.05).peak_levels_v.size >= 1
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print("scipy modules:", loaded)
    print("lazy modules at import:", lazy)
""")


# A saturation-shaped simulate (1 s at 1 MHz, n_bar 2: 0.43 M candidates,
# 19 k captures, ~720 of them dark): sizes at which np.isin sorts, and its
# np.unique imports numpy.ma.
SIMULATE_SCRIPT = textwrap.dedent("""
    import sys
    from spdsim.detsim import DetectorParams, simulate
    from spdsim.source import CoherentPulseTrain

    source = CoherentPulseTrain(1550.0, 1e6, 2.0, "unpolarized")
    record = simulate(DetectorParams(), source, 1.0, seed=1)
    assert set(record.origins.tolist()) == {"dark", "photon"}
    print("numpy.ma loaded:", "numpy.ma" in sys.modules)
""")


# The CLI loads numpy with one OpenBLAS thread, whatever the caller set, and
# leaves the caller's setting as it found it.
BLAS_SCRIPT = textwrap.dedent("""
    import os
    import spdsim.cli
    print(len(os.listdir("/proc/self/task")), os.environ.get("OPENBLAS_NUM_THREADS"))
""")


class TestStartup:
    @pytest.mark.parametrize("caller", ["4", None])
    def test_numpy_loads_with_one_blas_thread(self, monkeypatch, caller):
        if not Path("/proc/self/task").is_dir():
            pytest.skip("counting threads needs /proc/self/task")
        if caller is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", caller)
        proc = run_fresh(BLAS_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", str(caller)]

    def test_simulate_does_not_import_numpy_ma(self):
        proc = run_fresh(SIMULATE_SCRIPT)
        assert proc.returncode == 0, proc.stderr
        assert "numpy.ma loaded: False" in proc.stdout, proc.stdout

    def test_no_cli_command_imports_scipy(self, tmp_path):
        for rate in (2000, 5000, 8000):
            write_cfg(tmp_path, {
                "detector": {"dead_time_us": 0.0, "noise_sigma_v": 0.1},
                "source": {"mean_photons": 0.2, "repetition_rate_hz": rate},
                "calibration": {"power_tap_watts": 1.28e-9},
                "run": {"duration_s": 0.05, "sample_rate_hz": 1e7, "trace_duration_s": 0.02},
            }, name=f"cfg{rate}.yaml")
        proc = run_fresh(STARTUP_SCRIPT, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "scipy modules: []" in proc.stdout, proc.stdout
        assert "lazy modules at import: []" in proc.stdout, proc.stdout
