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
import re
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
        "relative_uncertainty": PowerReading.relative_uncertainty,
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
        if isinstance(out[key], dict):
            _require(isinstance(value, dict), here, f"expected a mapping, got {value!r}")
            out[key] = _deep_merge(out[key], value, here)
        else:
            out[key] = value
    return out


class _Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """Safe loader that also reads YAML 1.2 exponent floats such as 1.0e7 and 1e7."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float", re.compile(r"^[-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"))


def load_config(path: str | Path | None = None,
                overrides: dict[str, Any] | None = None) -> dict[str, Any]:
    """Resolve the configuration document (flag > file > default)."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            loaded = yaml.load(Path(path).read_text(encoding="utf-8"), Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if loaded is not None:
            _require(isinstance(loaded, dict), str(path), "top level must be a mapping")
            cfg = _deep_merge(cfg, loaded)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    validate_config(cfg)
    return cfg


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(cfg: dict, path: str, minimum=None, positive=False, integer=False) -> float:
    node: Any = cfg
    for part in path.split("."):
        node = node[part]
    _require(isinstance(node, int) and not isinstance(node, bool) if integer else _is_number(node),
             path, f"expected {'an integer' if integer else 'a number'}, got {node!r}")
    value = float(node)
    if positive:
        _require(0 < value < float("inf"), path, "must be positive and finite")
    if minimum is not None:
        _require(value >= minimum, path, f"must be >= {minimum}")
    return value


def _construct(block: str, make):
    """Build a domain object; its ValueError, which names the field, becomes a ConfigError."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{block}.{exc}") from exc


def validate_config(cfg: dict[str, Any]) -> None:
    """Types, and the ranges no domain object owns; the objects check their own."""
    stack = cfg["stack"]
    for key in ("incident", "exit"):
        _require(isinstance(stack[key], str), f"stack.{key}", "must be a material name or path")
    layers = stack["layers"]
    _require(isinstance(layers, list) and layers, "stack.layers", "must be a non-empty list")
    for i, layer in enumerate(layers):
        _require(isinstance(layer, dict) and isinstance(layer.get("material"), str)
                 and "thickness_nm" in layer,
                 f"stack.layers[{i}]", "needs a 'material' name and 'thickness_nm'")
        thickness = layer["thickness_nm"]
        _require(_is_number(thickness) and 0 <= thickness < float("inf"),
                 f"stack.layers[{i}].thickness_nm", "must be a finite nonnegative number")

    for key in ("wavelength_nm", "repetition_rate_hz", "mean_photons"):
        _number(cfg, f"source.{key}")
    pol = cfg["source"]["polarization"]
    _require(pol in ("unpolarized", "armchair", "zigzag") or _is_number(pol),
             "source.polarization",
             "must be 'unpolarized', 'armchair', 'zigzag', or an angle in degrees")
    _construct("source", lambda: build_source(cfg))

    det = dict(cfg["detector"])
    _require(isinstance(det.pop("absorptance_from_stack"), bool),
             "detector.absorptance_from_stack", "must be true or false")
    for field in dataclasses.fields(DetectorParams):
        _number(cfg, f"detector.{field.name}", integer=field.name == "max_occupancy")
    _construct("detector", lambda: DetectorParams(**det))

    _number(cfg, "analysis.threshold_v", positive=True)
    _number(cfg, "analysis.hysteresis_v", positive=True)
    _require(cfg["analysis"]["threshold_v"] > cfg["analysis"]["hysteresis_v"],
             "analysis.threshold_v", "must exceed analysis.hysteresis_v")
    _number(cfg, "analysis.min_width_us", minimum=0.0)
    _number(cfg, "analysis.baseline_window_s", positive=True)

    _number(cfg, "tmm.wavelength_nm", positive=True)
    _require(cfg["tmm"]["axis"] in ("armchair", "zigzag", "unpolarized"),
             "tmm.axis", "must be armchair, zigzag, or unpolarized")
    for rng_key in ("top_range_nm", "bottom_range_nm"):
        rng = cfg["tmm"][rng_key]
        _require(isinstance(rng, list) and len(rng) == 2 and all(map(_is_number, rng))
                 and 0 <= rng[0] <= rng[1],
                 f"tmm.{rng_key}", "must be [lo, hi] with 0 <= lo <= hi")
    _number(cfg, "tmm.step_nm", positive=True)

    _number(cfg, "run.duration_s", positive=True)
    _number(cfg, "run.sample_rate_hz", positive=True)
    _number(cfg, "run.trace_duration_s", positive=True)
    _number(cfg, "run.seed", minimum=0, integer=True)
    _require(isinstance(cfg["run"]["out_dir"], str), "run.out_dir", "must be a path")

    cal = cfg["calibration"]
    if cal["power_tap_watts"] is not None:
        _number(cfg, "calibration.power_tap_watts")
    _number(cfg, "calibration.relative_uncertainty")
    _construct("calibration",
               lambda: PowerReading(cal["power_tap_watts"] or 0.0, cal["relative_uncertainty"]))
    tap = _number(cfg, "calibration.tap_fraction")
    _require(0.0 < tap < 1.0, "calibration.tap_fraction", "must be in (0, 1)")
    _require(isinstance(cal["post_tap_chain"], list), "calibration.post_tap_chain",
             "must be a list of stages")
    build_chain(cal["post_tap_chain"])


def config_hash(cfg: dict[str, Any]) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config -> domain objects


def _material(name: str) -> materials.MaterialDispersion:
    try:
        path = Path(name)
        if path.suffix and path.exists():
            return materials.load_dispersion(path)
        return materials.bundled(name)
    except (KeyError, OSError, ValueError) as exc:
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


_STAGES = {"polarizer": Polarizer, "attenuator": Attenuator, "splitter_tap": Splitter,
           "fiber": lambda _: MultimodeFiber()}


def build_chain(stages_cfg: list) -> OpticalChain:
    """The `calibration.post_tap_chain` list of single-key stage mappings."""
    stages = []
    for i, item in enumerate(stages_cfg):
        here = f"calibration.post_tap_chain[{i}]"
        _require(isinstance(item, dict) and len(item) == 1, here,
                 "each stage is a single-key mapping")
        (kind, value), = item.items()
        _require(kind in _STAGES, f"{here}.{kind}", "unknown stage kind")
        _require(kind == "fiber" or _is_number(value), f"{here}.{kind}",
                 f"expected a number, got {value!r}")
        stages.append(_construct(f"{here}.{kind}", lambda: _STAGES[kind](value)))
    return OpticalChain(tuple(stages))


def build_detector(cfg: dict[str, Any]) -> DetectorParams:
    det = dict(cfg["detector"])
    if det.pop("absorptance_from_stack"):
        from .tmm import stack_response
        stack = build_stack(cfg)
        wavelength = float(cfg["source"]["wavelength_nm"])
        try:
            bp = stack.find_layer("bp")
            for axis in ("armchair", "zigzag"):
                det[f"absorptance_{axis}"] = float(
                    stack_response(stack, wavelength, axis).layer_absorptance[bp])
            return DetectorParams(**det)  # a stack the optics cannot solve gives NaN
        except ValueError as exc:
            raise ConfigError(f"detector.absorptance_from_stack: {exc}") from exc
    return DetectorParams(**det)


def build_power_reading(cfg: dict[str, Any]) -> PowerReading:
    cal = cfg["calibration"]
    if cal["power_tap_watts"] is None:
        raise ConfigError("calibration.power_tap_watts: required for calibration")
    return PowerReading(float(cal["power_tap_watts"]),
                        float(cal["relative_uncertainty"]))
