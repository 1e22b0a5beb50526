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
import math
import re
import sys
from pathlib import Path
from typing import Any

import yaml

from . import analysis, device, materials
from .detsim import DetectorParams
from .source import Attenuator, CoherentPulseTrain, PowerReading, PulsePolarization, Splitter
from .tmm import STEP_NM, Layer, LayerStack, absorber_layer, stack_response


class ConfigError(ValueError):
    """Invalid configuration; the message carries the offending key path."""


DEFAULT_CONFIG: dict[str, Any] = {
    "stack": {
        "incident": "air",
        "exit": "si",
        "layers": [{"material": m, "thickness_nm": t} for m, t in device.DEFAULT_LAYERS],
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
        "baseline_window_s": analysis.BASELINE_WINDOW_S,
    },
    "tmm": {
        "wavelength_nm": device.DESIGN_WAVELENGTH_NM,
        "axis": "armchair",
        "top_range_nm": [0.0, 400.0],
        "bottom_range_nm": [0.0, 400.0],
        "step_nm": STEP_NM,
    },
    "run": {
        "duration_s": 1.0,
        "seed": 12345,
        "sample_rate_hz": 10.0e6,
        "trace_duration_s": 0.02,
        "out_dir": "runs/out",
    },
}


def _is_number(value) -> bool:
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


# A bool, int or float default types its key, and an int that `float()` can take
# fits a float key. No value is converted: a file's `1550` keeps its bytes in the manifest.
_TYPES = {bool: (lambda v: isinstance(v, bool), "true or false"),
          int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
          float: (_is_number, "a number")}


def _deep_merge(cfg: dict, override: dict, default: dict, path: str = "") -> None:
    """Merge `override` into `cfg` in place; the `default` block names and types its keys."""
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        _require(key in default, here, "unknown configuration key")
        if isinstance(default[key], dict):
            _require(isinstance(value, dict), here, f"expected a mapping, got {value!r}")
            _deep_merge(cfg[key], value, default[key], here)
            continue
        if type(default[key]) in _TYPES:
            fits, name = _TYPES[type(default[key])]
            _require(fits(value), here, f"expected {name}, got {value!r}")
        cfg[key] = value


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
            _deep_merge(cfg, loaded, DEFAULT_CONFIG)
    _deep_merge(cfg, overrides or {}, DEFAULT_CONFIG)
    validate_config(cfg)
    return cfg


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _construct(block: str, make):
    """Build a domain object; its ValueError, which names the field, becomes a ConfigError."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{block}.{exc}") from exc


def validate_config(cfg: dict[str, Any]) -> None:
    """Rules no default's type or domain object owns; then the objects check their own."""
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
        _require(_is_number(thickness) and 0 <= thickness < math.inf,
                 f"stack.layers[{i}].thickness_nm", "must be a finite nonnegative number")

    pol = cfg["source"]["polarization"]
    _require(pol in PulsePolarization.NAMED or _is_number(pol), "source.polarization",
             "must be 'unpolarized', 'armchair', 'zigzag', or an angle in degrees")
    _construct("source", lambda: build_source(cfg))

    det = dict(cfg["detector"])
    del det["absorptance_from_stack"]
    _construct("detector", lambda: DetectorParams(**det))

    for path in ("analysis.threshold_v", "analysis.hysteresis_v", "analysis.baseline_window_s",
                 "tmm.wavelength_nm", "tmm.step_nm",
                 "run.duration_s", "run.sample_rate_hz", "run.trace_duration_s"):
        block, key = path.split(".")
        _require(0 < cfg[block][key] < math.inf, path, "must be positive and finite")
    _require(cfg["analysis"]["threshold_v"] > cfg["analysis"]["hysteresis_v"],
             "analysis.threshold_v", "must exceed analysis.hysteresis_v")
    _require(cfg["analysis"]["min_width_us"] >= 0.0, "analysis.min_width_us", "must be >= 0.0")

    _require(cfg["tmm"]["axis"] in list(materials.Polarization), "tmm.axis",
             "must be one of " + ", ".join(materials.Polarization))
    for rng_key in ("top_range_nm", "bottom_range_nm"):
        rng = cfg["tmm"][rng_key]
        _require(isinstance(rng, list) and len(rng) == 2 and all(map(_is_number, rng))
                 and 0 <= rng[0] <= rng[1],
                 f"tmm.{rng_key}", "must be [lo, hi] with 0 <= lo <= hi")

    _require(cfg["run"]["seed"] >= 0, "run.seed", "must be >= 0")
    _require(isinstance(cfg["run"]["out_dir"], str), "run.out_dir", "must be a path")

    cal = cfg["calibration"]
    _require(cal["power_tap_watts"] is None or _is_number(cal["power_tap_watts"]),
             "calibration.power_tap_watts", f"expected a number, got {cal['power_tap_watts']!r}")
    _construct("calibration",
               lambda: PowerReading(cal["power_tap_watts"] or 0.0, cal["relative_uncertainty"]))
    _require(0.0 < cal["tap_fraction"] < 1.0, "calibration.tap_fraction", "must be in (0, 1)")
    _require(isinstance(cal["post_tap_chain"], list), "calibration.post_tap_chain",
             "must be a list of stages")
    build_chain(cal["post_tap_chain"])


def config_hash(cfg: dict[str, Any]) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Config -> domain objects


def _material(name: str) -> materials.MaterialDispersion:
    """The dispersion file `name` when it has a suffix, else a bundled table."""
    try:
        if Path(name).suffix:
            return materials.load_dispersion(Path(name))
        return materials.bundled(name)
    except FileNotFoundError:
        raise ConfigError(f"stack: dispersion file {name} does not exist") from None
    except KeyError as exc:  # its str() would quote the message
        raise ConfigError(f"stack: {exc.args[0]}") from None
    except (OSError, ValueError) as exc:
        raise ConfigError(f"stack: {exc}") from exc


def build_stack(cfg: dict[str, Any]) -> LayerStack:
    stack_cfg = cfg["stack"]
    layers = tuple(Layer(_material(item["material"]), float(item["thickness_nm"]))
                   for item in stack_cfg["layers"])
    return LayerStack(layers=layers,
                      incident=_material(stack_cfg["incident"]),
                      exit=_material(stack_cfg["exit"]))


def build_polarization(value) -> PulsePolarization:
    if value in PulsePolarization.NAMED:
        return getattr(PulsePolarization, value)()
    return PulsePolarization.linear(float(value))


def build_source(cfg: dict[str, Any], shutter_open: bool = True) -> CoherentPulseTrain:
    src = cfg["source"]
    return CoherentPulseTrain(
        wavelength_nm=float(src["wavelength_nm"]),
        repetition_rate_hz=float(src["repetition_rate_hz"]),
        mean_photons=float(src["mean_photons"]) if shutter_open else 0.0,
        polarization=build_polarization(src["polarization"]),
    )


# kind -> (what it takes, the stage its value builds); a fiber is lossless and builds none
_STAGES = {"attenuator": ("a number", Attenuator), "splitter_tap": ("a number", Splitter),
           "fiber": ("null", None)}


def build_chain(stages_cfg: list) -> tuple[Attenuator | Splitter, ...]:
    """The stages of the `calibration.post_tap_chain` list of single-key mappings."""
    stages = []
    for i, item in enumerate(stages_cfg):
        here = f"calibration.post_tap_chain[{i}]"
        _require(isinstance(item, dict) and len(item) == 1, here,
                 "each stage is a single-key mapping")
        (kind, value), = item.items()
        _require(kind in _STAGES, f"{here}.{kind}", "unknown stage kind")
        takes, make = _STAGES[kind]
        _require(_is_number(value) if make else value is None, f"{here}.{kind}",
                 f"expected {takes}, got {value!r}")
        if make:
            stages.append(_construct(f"{here}.{kind}", lambda: make(value)))
    return tuple(stages)


def build_detector(cfg: dict[str, Any]) -> DetectorParams:
    det = dict(cfg["detector"])
    if det.pop("absorptance_from_stack"):
        stack = build_stack(cfg)
        wavelength = float(cfg["source"]["wavelength_nm"])
        try:
            absorber = absorber_layer(stack)
            for axis in ("armchair", "zigzag"):
                det[f"absorptance_{axis}"] = float(
                    stack_response(stack, wavelength, axis).layer_absorptance[absorber])
            return DetectorParams(**det)  # rounding may leave a lossless layer's A below 0
        except ValueError as exc:
            raise ConfigError(f"detector.absorptance_from_stack: {exc}") from exc
    return DetectorParams(**det)


def build_power_reading(cfg: dict[str, Any]) -> PowerReading:
    cal = cfg["calibration"]
    if cal["power_tap_watts"] is None:
        raise ConfigError("calibration.power_tap_watts: required for calibration")
    return PowerReading(float(cal["power_tap_watts"]),
                        float(cal["relative_uncertainty"]))
