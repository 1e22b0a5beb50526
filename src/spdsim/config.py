"""Experiment configuration: one YAML document drives every CLI command.

Resolution order is flag > file > default. Validation errors name the full
path of the offending key. The resolved document is embedded in run
manifests so any output can be reproduced from the manifest alone.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any

import yaml

from . import device, materials
from .detsim import DetectorParams
from .source import (Attenuator, CoherentPulseTrain, MultimodeFiber, OpticalChain,
                     Polarizer, PowerReading, PulsePolarization, Splitter)
from .tmm import Layer, LayerStack


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


DEFAULT_CONFIG: dict[str, Any] = {
    "stack": {
        "incident": "air",
        "exit": "si",
        "layers": [
            {"material": "hbn", "thickness_nm": device.DEFAULT_TOP_HBN_NM},
            {"material": "bp", "thickness_nm": device.BP_THICKNESS_NM},
            {"material": "mos2", "thickness_nm": device.MOS2_THICKNESS_NM},
            {"material": "wse2", "thickness_nm": device.WSE2_THICKNESS_NM},
            {"material": "hbn", "thickness_nm": device.DEFAULT_BOTTOM_HBN_NM},
            {"material": "au", "thickness_nm": device.AU_THICKNESS_NM},
            {"material": "ti", "thickness_nm": device.TI_THICKNESS_NM},
            {"material": "sio2", "thickness_nm": device.SIO2_THICKNESS_NM},
        ],
    },
    "source": {
        "wavelength_nm": device.DESIGN_WAVELENGTH_NM,
        "repetition_rate_hz": 10000.0,
        "mean_photons": 0.05,
        "polarization": "unpolarized",
    },
    "calibration": {
        "power_tap_watts": None,
        "tap_fraction": 0.5,
        "relative_uncertainty": 0.05,
        "post_tap_chain": [],
    },
    "detector": {"absorptance_from_stack": False, **dataclasses.asdict(DetectorParams())},
    "analysis": {
        "threshold_v": 0.5,
        "hysteresis_v": 0.2,
        "min_width_us": 1.0,
        "baseline_window_s": 0.01,
    },
    "tmm": {
        "wavelength_nm": device.DESIGN_WAVELENGTH_NM,
        "axis": "armchair",
        "top_range_nm": [0.0, 400.0],
        "bottom_range_nm": [0.0, 400.0],
        "step_nm": 2.0,
    },
    "run": {
        "duration_s": 1.0,
        "seed": 12345,
        "sample_rate_hz": 10.0e6,
        "trace_duration_s": 0.02,
        "out_dir": "runs/out",
    },
}


def _deep_merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"{here}: unknown configuration key")
        if isinstance(out[key], dict) and isinstance(value, dict):
            out[key] = _deep_merge(out[key], value, here)
        else:
            out[key] = value
    return out


def load_config(path: str | Path | None = None,
                overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Resolve the configuration document (flag > file > default)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be a mapping")
        cfg = _deep_merge(cfg, loaded)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _number(cfg: dict, path: str, minimum=None, positive=False) -> float:
    node: Any = cfg
    for part in path.split("."):
        node = node[part]
    _require(isinstance(node, (int, float)) and not isinstance(node, bool),
             path, f"expected a number, got {node!r}")
    value = float(node)
    if positive:
        _require(value > 0, path, "must be positive")
    if minimum is not None:
        _require(value >= minimum, path, f"must be >= {minimum}")
    return value


def validate_config(cfg: dict[str, Any]) -> None:
    layers = cfg["stack"]["layers"]
    _require(isinstance(layers, list) and layers, "stack.layers", "must be a non-empty list")
    for i, layer in enumerate(layers):
        _require(isinstance(layer, dict) and "material" in layer and "thickness_nm" in layer,
                 f"stack.layers[{i}]", "needs 'material' and 'thickness_nm'")
        thickness = layer["thickness_nm"]
        _require(isinstance(thickness, (int, float)) and not isinstance(thickness, bool)
                 and thickness >= 0,
                 f"stack.layers[{i}].thickness_nm", "must be a nonnegative number")

    _number(cfg, "source.wavelength_nm", positive=True)
    _number(cfg, "source.repetition_rate_hz", positive=True)
    _number(cfg, "source.mean_photons", minimum=0.0)
    pol = cfg["source"]["polarization"]
    _require(pol in ("unpolarized", "armchair", "zigzag")
             or isinstance(pol, (int, float)),
             "source.polarization",
             "must be 'unpolarized', 'armchair', 'zigzag', or an angle in degrees")

    for frac in ("absorptance_armchair", "absorptance_zigzag", "iqe"):
        value = _number(cfg, f"detector.{frac}", minimum=0.0)
        _require(value <= 1.0, f"detector.{frac}", "must be within [0, 1]")
    for nonneg in ("dark_rate_hz", "fall_time_us", "rise_time_us",
                   "hold_time_mean_us", "dead_time_us", "noise_sigma_v"):
        _number(cfg, f"detector.{nonneg}", minimum=0.0)
    max_occ = cfg["detector"]["max_occupancy"]
    _require(isinstance(max_occ, int) and not isinstance(max_occ, bool) and max_occ >= 1,
             "detector.max_occupancy", "must be an integer >= 1")

    _number(cfg, "analysis.threshold_v", positive=True)
    _number(cfg, "analysis.hysteresis_v", positive=True)
    _require(cfg["analysis"]["threshold_v"] > cfg["analysis"]["hysteresis_v"],
             "analysis.threshold_v", "must exceed analysis.hysteresis_v")
    _number(cfg, "analysis.min_width_us", minimum=0.0)

    _number(cfg, "tmm.wavelength_nm", positive=True)
    _require(cfg["tmm"]["axis"] in ("armchair", "zigzag", "unpolarized"),
             "tmm.axis", "must be armchair, zigzag, or unpolarized")
    for rng_key in ("top_range_nm", "bottom_range_nm"):
        rng = cfg["tmm"][rng_key]
        _require(isinstance(rng, (list, tuple)) and len(rng) == 2
                 and float(rng[0]) >= 0 and float(rng[1]) >= float(rng[0]),
                 f"tmm.{rng_key}", "must be [lo, hi] with 0 <= lo <= hi")
    _number(cfg, "tmm.step_nm", positive=True)

    _number(cfg, "run.duration_s", positive=True)
    _number(cfg, "run.sample_rate_hz", positive=True)
    _number(cfg, "run.trace_duration_s", positive=True)
    seed = cfg["run"]["seed"]
    _require(isinstance(seed, int) and not isinstance(seed, bool),
             "run.seed", "must be an integer")

    _number(cfg, "calibration.relative_uncertainty", minimum=0.0)
    cal = cfg["calibration"]
    if cal["power_tap_watts"] is not None:
        _number(cfg, "calibration.power_tap_watts", minimum=0.0)
        tap = _number(cfg, "calibration.tap_fraction")
        _require(0.0 < tap < 1.0, "calibration.tap_fraction", "must be in (0, 1)")


def config_hash(cfg: dict[str, Any]) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config -> domain objects


def _material(name: str) -> materials.MaterialDispersion:
    path = Path(name)
    if path.suffix and path.exists():
        return materials.load_dispersion(path)
    try:
        return materials.bundled(name)
    except KeyError as exc:
        raise ConfigError(f"stack: {exc}") from exc


def build_stack(cfg: dict[str, Any]) -> LayerStack:
    stack_cfg = cfg["stack"]
    layers = tuple(Layer(_material(item["material"]), float(item["thickness_nm"]))
                   for item in stack_cfg["layers"])
    return LayerStack(layers=layers,
                      incident=_material(stack_cfg["incident"]),
                      exit=_material(stack_cfg["exit"]))


def build_polarization(value) -> PulsePolarization:
    if value == "unpolarized":
        return PulsePolarization.unpolarized()
    if value == "armchair":
        return PulsePolarization.armchair()
    if value == "zigzag":
        return PulsePolarization.zigzag()
    return PulsePolarization.linear(float(value))


def build_source(cfg: dict[str, Any], shutter_open: bool = True) -> CoherentPulseTrain:
    src = cfg["source"]
    return CoherentPulseTrain(
        wavelength_nm=float(src["wavelength_nm"]),
        repetition_rate_hz=float(src["repetition_rate_hz"]),
        mean_photons=float(src["mean_photons"]) if shutter_open else 0.0,
        polarization=build_polarization(src["polarization"]),
    )


def build_chain(stages_cfg: list) -> OpticalChain:
    stages = []
    for i, item in enumerate(stages_cfg):
        if not isinstance(item, dict) or len(item) != 1:
            raise ConfigError(f"chain[{i}]: each stage is a single-key mapping")
        kind, value = next(iter(item.items()))
        if kind == "polarizer":
            stages.append(Polarizer(float(value)))
        elif kind == "attenuator":
            stages.append(Attenuator(float(value)))
        elif kind == "splitter_tap":
            stages.append(Splitter(float(value)))
        elif kind == "fiber":
            stages.append(MultimodeFiber())
        else:
            raise ConfigError(f"chain[{i}].{kind}: unknown stage kind")
    return OpticalChain(tuple(stages))


def build_detector(cfg: dict[str, Any]) -> DetectorParams:
    det = dict(cfg["detector"])
    if det.pop("absorptance_from_stack"):
        from .tmm import stack_response
        stack = build_stack(cfg)
        wavelength = float(cfg["source"]["wavelength_nm"])
        bp = stack.find_layer("bp")
        det["absorptance_armchair"] = float(
            stack_response(stack, wavelength, "armchair").layer_absorptance[bp])
        det["absorptance_zigzag"] = float(
            stack_response(stack, wavelength, "zigzag").layer_absorptance[bp])
    det["max_occupancy"] = int(det["max_occupancy"])
    return DetectorParams(**det)


def build_power_reading(cfg: dict[str, Any]) -> PowerReading:
    cal = cfg["calibration"]
    if cal["power_tap_watts"] is None:
        raise ConfigError("calibration.power_tap_watts: required for calibration")
    return PowerReading(float(cal["power_tap_watts"]),
                        float(cal["relative_uncertainty"]))
