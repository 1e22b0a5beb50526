"""The four benchmark workloads: inputs from a seed, CLI commands, output checks.

A workload's `plan(seed, work, tables)` returns the config documents to write,
the `spdsim` argument lists to run one at a time, and the checks to apply to
their outputs afterwards. The same seed always gives the same inputs. Every
round of a workload runs the same commands and the same checks, so the count
of attempted operations per round is fixed.

Seeds vary what the program is asked (wavelength, spacer point, photon
number, repetition rates, RNG seeds) within narrow ranges, so the amount of
work per round stays nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref


class CheckFailed(Exception):
    """An output disagrees with the reference or violates a required property."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Plan:
    configs: dict[str, dict]
    commands: list[tuple[str, list[str]]]
    checks: list[tuple[str, Callable[[], None]]]


# Tolerances; the README lists them with their reasons.
TMM_TOL = 1e-9            # absolute, on R, T and each absorptance
CONSERVATION_TOL = 1e-9   # |R + T + sum(A) - 1|
FP_PERIOD_TOL = 0.05      # relative, Fabry-Perot period along the bottom spacer
RENEWAL_SIGMAS = 6.0      # renewal-count sigmas, plus RENEWAL_MODEL_TOL
RENEWAL_MODEL_TOL = 1e-3  # relative allowance for the dark/pulse phase approximation
TIME_ROUNDING_US = 2e-4   # events.csv prints times to 1e-4 us
MATCH_BEFORE_US = 0.5     # a detected capture may lead the true one by this much
MATCH_AFTER_US = 3.0      # ... or trail it by this much (threshold crossing delay)
ISOLATION_US = 20.0       # a resolvable event has no other transition this close
MIN_RESOLVABLE_DWELL_US = 5.0
EDGE_TOL = 0.20           # relative, mean 10-90% fall and rise times
CSV_REL_TOL = 1e-8        # values printed with 10 significant digits
EQE_SIGMAS = 5.0          # stated-sigma bound on EQE and slope estimates

DETECTOR = {
    "absorptance_from_stack": False,
    "absorptance_armchair": 0.537,
    "absorptance_zigzag": 0.0054,
    "iqe": 0.79,
    "dark_rate_hz": 720.0,
    "fall_time_us": 2.3,
    "rise_time_us": 2.1,
    "hold_time_mean_us": 10.0,
    "dead_time_us": 50.0,
    "max_occupancy": 4,
    "step_amplitude_v": 1.0,
    "noise_sigma_v": 0.05,
    "baseline_v": 0.0,
}
ANALYSIS = {"threshold_v": 0.5, "hysteresis_v": 0.2, "min_width_us": 1.0,
            "baseline_window_s": 0.01}
DEVICE_LAYERS = [("hbn", 348.0), ("bp", 25.0), ("mos2", 5.0), ("wse2", 5.0),
                 ("hbn", 88.0), ("au", 40.0), ("ti", 30.0), ("sio2", 285.0)]
GRID = {"top_range_nm": [0.0, 400.0], "bottom_range_nm": [0.0, 400.0], "step_nm": 2.0}


def stack_block(top_nm: float, bottom_nm: float) -> dict:
    layers = [{"material": m, "thickness_nm": t} for m, t in DEVICE_LAYERS]
    layers[0]["thickness_nm"] = top_nm
    layers[4]["thickness_nm"] = bottom_nm
    return {"incident": "air", "exit": "si", "layers": layers}


def base_config(run: dict, source: dict | None = None) -> dict:
    return {
        "stack": stack_block(348.0, 88.0),
        "source": {"wavelength_nm": 1550.0, "repetition_rate_hz": 10000.0,
                   "mean_photons": 0.05, "polarization": "unpolarized", **(source or {})},
        "detector": dict(DETECTOR),
        "analysis": dict(ANALYSIS),
        "run": {"duration_s": 1.0, "seed": 1, "sample_rate_hz": 10.0e6,
                "trace_duration_s": 0.02, **run},
    }


def to_yaml(value) -> str:
    """Flow-style YAML that PyYAML reads back exactly.

    JSON is almost YAML, but PyYAML takes '1e-06' for a string; floats are
    written with a mantissa point and a signed exponent.
    """
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {to_yaml(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(to_yaml(v) for v in value) + "]"
    if isinstance(value, float):
        text = repr(value)
        mantissa, _, exponent = text.partition("e")
        if exponent:
            if "." not in mantissa:
                mantissa += ".0"
            if exponent[0] not in "+-":
                exponent = "+" + exponent
            return f"{mantissa}e{exponent}"
        return text
    return json.dumps(value)


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _close(a: float, b: float, rel: float, what: str) -> None:
    require(abs(a - b) <= rel * max(abs(a), abs(b), 1e-300),
            f"{what}: {a!r} vs {b!r} (relative tolerance {rel:g})")


def fifo_pairs(times, is_cap, origins) -> tuple[np.ndarray, np.ndarray]:
    """(captures, releases): each release closes the oldest open capture of its origin.

    events.csv stores no pair ids. The pairing is exact for an event that
    starts on an empty island and has no other transition before its release,
    which is all the checks rely on.
    """
    caps: list[float] = []
    rels: list[float] = []
    queues: dict[str, deque] = {}
    for t, cap, origin in zip(times, is_cap, origins):
        if cap:
            queues.setdefault(origin, deque()).append(len(caps))
            caps.append(t)
            rels.append(math.nan)
        else:
            rels[queues[origin].popleft()] = t
    return np.array(caps), np.array(rels)


def _detections(path: Path) -> int:
    times, is_cap, _ = ref.read_events(path)
    return int(np.unique(times[is_cap]).size)


# ---------------------------------------------------------------------------
# Shared optics checks


def check_point(cfg: dict, out: Path, tables: dict) -> list[tuple[str, Callable[[], None]]]:
    def conservation():
        resp = _json(out / "response.json")
        total = resp["reflectance"] + resp["transmittance"] + sum(
            lay["absorptance"] for lay in resp["layers"])
        require(abs(total - 1.0) <= CONSERVATION_TOL, f"R+T+sum(A) = {total!r}")
        require(abs(resp["conservation_check"] - 1.0) <= CONSERVATION_TOL,
                f"conservation_check = {resp['conservation_check']!r}")

    def reference():
        resp = _json(out / "response.json")
        wl, axis = cfg["tmm"]["wavelength_nm"], cfg["tmm"]["axis"]
        r, t, a = ref.stack_rta(*ref.config_stack(cfg, tables, wl, axis), wl)
        got = [resp["reflectance"], resp["transmittance"]] + [
            lay["absorptance"] for lay in resp["layers"]]
        want = [float(r), float(t)] + [float(x) for x in a]
        worst = max(abs(g - w) for g, w in zip(got, want))
        require(len(got) == len(want) and worst <= TMM_TOL,
                f"tmm point differs from the reference by {worst:.3g}")

    return [("point.conservation", conservation), ("point.reference", reference)]


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    return np.append(np.arange(lo, hi, step), hi)


def read_map(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines[0] == "t_top_nm,t_bottom_nm,a_bp", "map.csv: bad header")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:] if line])
    tops = np.unique(data[:, 0])
    bottoms = np.unique(data[:, 1])
    require(data.shape[0] == tops.size * bottoms.size, "map.csv: not a full grid")
    return tops, bottoms, data[:, 2].reshape(tops.size, bottoms.size)


# ---------------------------------------------------------------------------
# Workloads


def optics(seed: int, work: Path, tables: dict) -> Plan:
    rng = random.Random(f"optics-{seed}")
    wavelength = round(rng.uniform(1530.0, 1570.0), 2)
    point = (round(rng.uniform(300.0, 400.0), 1), round(rng.uniform(40.0, 140.0), 1))
    cfg = base_config({})
    cfg["stack"] = stack_block(*point)
    cfg["tmm"] = {"wavelength_nm": wavelength, "axis": "armchair", **GRID}
    cfg_path = str(work / "optics.yaml")
    commands = [
        ("tmm point", ["tmm", "point", "--config", cfg_path, "--out", str(work / "point")]),
        ("tmm map", ["tmm", "map", "--config", cfg_path, "--out", str(work / "map")]),
        ("tmm optimize", ["tmm", "optimize", "--config", cfg_path,
                          "--out", str(work / "opt")]),
    ]
    step = GRID["step_nm"]
    cache = {}

    def the_map():
        if "map" not in cache:
            cache["map"] = read_map(work / "map" / "map.csv")
        return cache["map"]

    def map_reference():
        tops, bottoms, grid = the_map()
        require(np.array_equal(tops, _grid(0.0, 400.0, step))
                and np.array_equal(bottoms, _grid(0.0, 400.0, step)),
                "map.csv: not the configured grid")
        want = ref.spacer_map(cfg, tables, tops, bottoms, wavelength, "armchair")
        worst = float(np.max(np.abs(grid - want)))
        require(worst <= TMM_TOL, f"map cells differ from the reference by {worst:.3g}")

    def map_summary():
        tops, bottoms, grid = the_map()
        summary = _json(work / "map" / "map_summary.json")
        i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
        best = summary["best"]
        require(summary["shape"] == [tops.size, bottoms.size], "map_summary: wrong shape")
        require(best["t_top_nm"] == tops[i] and best["t_bottom_nm"] == bottoms[j]
                and abs(best["a_bp"] - grid[i, j]) <= TMM_TOL,
                "map_summary: best cell is not the map maximum")

    def optimum_vs_map():
        tops, bottoms, grid = the_map()
        opt = _json(work / "opt" / "optimum.json")
        i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
        require(opt["a_bp"] >= grid[i, j] - TMM_TOL,
                f"optimum {opt['a_bp']!r} below the best map cell {grid[i, j]!r}")
        require(abs(opt["t_top_nm"] - tops[i]) <= step
                and abs(opt["t_bottom_nm"] - bottoms[j]) <= step,
                "optimum lies more than one grid step from the best map cell")

    def optimum_reference():
        opt = _json(work / "opt" / "optimum.json")
        want = ref.spacer_map(cfg, tables, [opt["t_top_nm"]], [opt["t_bottom_nm"]],
                              wavelength, "armchair")[0, 0]
        require(abs(opt["a_bp"] - want) <= TMM_TOL,
                f"optimum a_bp {opt['a_bp']!r} vs reference {want!r}")

    def fabry_perot():
        _, _, grid = the_map()
        n_hbn = ref.index_of(tables, "hbn", wavelength, "armchair").real
        expected = wavelength / (2.0 * n_hbn)
        period = ref.fabry_perot_period(grid, step, expected)
        require(abs(period / expected - 1.0) <= FP_PERIOD_TOL,
                f"bottom-spacer period {period:.2f} nm vs lambda/2n = {expected:.2f} nm")

    return Plan({"optics": cfg}, commands,
                check_point(cfg, work / "point", tables) + [
                    ("map.reference", map_reference),
                    ("map.summary", map_summary),
                    ("optimize.vs_map", optimum_vs_map),
                    ("optimize.reference", optimum_reference),
                    ("map.fabry_perot", fabry_perot),
                ])


def _absorptance(det: dict) -> float:
    return 0.5 * (det["absorptance_armchair"] + det["absorptance_zigzag"])


def saturation(seed: int, work: Path, tables: dict) -> Plan:
    rng = random.Random(f"saturation-{seed}")
    rate, duration = 1.0e6, 4.0
    n_bar = round(2.0 * (1.0 + rng.uniform(-0.02, 0.02)), 4)
    cfg = base_config({"duration_s": duration, "seed": rng.randrange(2 ** 31)},
                      {"repetition_rate_hz": rate, "mean_photons": n_bar})
    det = cfg["detector"]
    run = work / "run"
    commands = [("simulate", ["simulate", "--config", str(work / "sat.yaml"),
                              "--out", str(run)])]
    cache = {}

    def events():
        if "ev" not in cache:
            times, is_cap, origins = ref.read_events(run / "events.csv")
            require(bool(np.all(np.diff(times) >= 0)), "events.csv is not time-ordered")
            cache["ev"] = (times, is_cap, origins)
        return cache["ev"]

    def dead_time():
        times, is_cap, _ = events()
        gaps = np.diff(np.unique(times[is_cap]))
        smallest = float(gaps.min()) if gaps.size else math.inf
        require(smallest >= det["dead_time_us"] - TIME_ROUNDING_US,
                f"detections only {smallest:.4f} us apart")

    def occupancy():
        times, is_cap, _ = events()
        level = np.cumsum(np.where(is_cap, 1, -1))  # captures sort first at equal times
        require(int(level.max(initial=0)) <= det["max_occupancy"],
                f"occupancy reached {int(level.max())}")

    def release_order():
        times, is_cap, origins = events()
        open_by_origin: dict[str, int] = {}
        for cap, origin in zip(is_cap, origins):
            n_open = open_by_origin.get(origin, 0) + (1 if cap else -1)
            require(n_open >= 0, f"a {origin} release precedes its capture")
            open_by_origin[origin] = n_open
        require(not any(open_by_origin.values()), "a capture has no release")

    def manifest_counts():
        times, is_cap, _ = events()
        manifest = _json(run / "manifest.json")
        counts = manifest["counts"]
        require(counts["captures"] == int(is_cap.sum()),
                f"manifest captures {counts['captures']} vs {int(is_cap.sum())} rows")
        require(counts["detections"] == int(np.unique(times[is_cap]).size),
                "manifest detections disagree with events.csv")
        pulses = int(math.floor(duration * rate - 1e-9)) + 1
        require(manifest["expected"]["pulses"] == pulses, "manifest pulse count is wrong")

    def renewal_rate():
        times, is_cap, _ = events()
        got = int(np.unique(times[is_cap]).size)
        p = ref.capture_probability(n_bar, _absorptance(det), det["iqe"])
        mean, sigma = ref.renewal_detections(duration, rate, p, det["dead_time_us"],
                                             det["dark_rate_hz"])
        allowed = RENEWAL_SIGMAS * sigma + RENEWAL_MODEL_TOL * mean
        require(abs(got - mean) <= allowed,
                f"{got} detections, renewal theory {mean:.1f} +- {allowed:.1f}")

    return Plan({"sat": cfg}, commands, [
        ("events.dead_time", dead_time),
        ("events.occupancy", occupancy),
        ("events.release_order", release_order),
        ("manifest.counts", manifest_counts),
        ("rate.renewal", renewal_rate),
    ])


def trace(seed: int, work: Path, tables: dict) -> Plan:
    rng = random.Random(f"trace-{seed}")
    duration = 1.5
    n_bar = round(0.3 * (1.0 + rng.uniform(-0.02, 0.02)), 4)
    cfg = base_config({"duration_s": duration, "trace_duration_s": duration,
                       "sample_rate_hz": 10.0e6, "seed": rng.randrange(2 ** 31)},
                      {"repetition_rate_hz": 200.0e3, "mean_photons": n_bar})
    det = cfg["detector"]
    run, ana = work / "run", work / "ana"
    cfg_path = str(work / "trace.yaml")
    commands = [
        ("simulate", ["simulate", "--config", cfg_path, "--out", str(run)]),
        ("analyze trace", ["analyze", "trace", "--config", cfg_path,
                           "--trace", str(run / "trace"), "--out", str(ana)]),
    ]
    window_us = duration * 1e6
    cache = {}

    def truth_and_found():
        if "events" not in cache:
            times, is_cap, origins = ref.read_events(run / "events.csv")
            found_t, found_cap, _ = ref.read_events(ana / "detected_events.csv")
            cache["events"] = (times, is_cap, origins, np.sort(found_t[found_cap]))
        return cache["events"]

    def precision():
        times, is_cap, _, found = truth_and_found()
        truth = np.sort(times[is_cap])
        # offset of each detected capture from the latest true capture that
        # is not more than MATCH_BEFORE_US after it
        k = np.searchsorted(truth, found + MATCH_BEFORE_US, side="right") - 1
        offset = np.where(k >= 0, found - truth[np.maximum(k, 0)], -np.inf)
        bad = int(np.count_nonzero((offset < -MATCH_BEFORE_US) | (offset > MATCH_AFTER_US)))
        require(bad == 0, f"{bad} of {found.size} detected events match no simulated capture")

    def recall():
        times, is_cap, origins, found = truth_and_found()
        caps, rels = fifo_pairs(times, is_cap, origins)
        all_t = np.sort(times)
        cap_t, rel_t = np.sort(times[is_cap]), np.sort(times[~is_cap])
        resolvable = missed = 0
        for c, r in zip(caps, rels):
            if r - c < MIN_RESOLVABLE_DWELL_US or c < ISOLATION_US \
                    or r > window_us - ISOLATION_US:
                continue
            lo = np.searchsorted(all_t, c - ISOLATION_US, side="left")
            hi = np.searchsorted(all_t, r + ISOLATION_US, side="right")
            already_open = np.searchsorted(cap_t, c) - np.searchsorted(rel_t, c)
            if hi - lo != 2 or already_open:
                continue  # another event overlaps or sits too close to resolve
            resolvable += 1
            k = np.searchsorted(found, c - MATCH_BEFORE_US)
            if not (k < found.size and found[k] <= c + MATCH_AFTER_US):
                missed += 1
        require(resolvable > 1000, f"only {resolvable} resolvable events")
        require(missed == 0, f"{missed} of {resolvable} resolvable events not found")

    def edges():
        result = _json(ana / "trace_analysis.json")
        got = result["edges"]
        require(got is not None, "no edges measured")
        for key, want in (("fall_10_90_us", det["fall_time_us"]),
                          ("rise_10_90_us", det["rise_time_us"])):
            require(abs(got[key] / want - 1.0) <= EDGE_TOL,
                    f"{key} = {got[key]:.3f} us, configured {want} us")

    def summary():
        result = _json(ana / "trace_analysis.json")
        found = truth_and_found()[3]
        meta = _json(run / "trace.json")
        n_samples = int(round(duration * cfg["run"]["sample_rate_hz"]))
        require(meta["n_samples"] == n_samples
                and (run / "trace.f64").stat().st_size == 8 * n_samples,
                "trace file size disagrees with the configured window")
        require(result["n_events"] == found.size
                and abs(result["duration_s"] - duration) <= 1e-12,
                "trace_analysis.json disagrees with detected_events.csv")

    return Plan({"trace": cfg}, commands, [
        ("trace.precision", precision),
        ("trace.recall", recall),
        ("trace.edges", edges),
        ("trace.summary", summary),
    ])


def campaign(seed: int, work: Path, tables: dict) -> Plan:
    rng = random.Random(f"campaign-{seed}")
    duration = 10.0
    n_bar = round(rng.uniform(0.08, 0.12), 4)
    rates = [float(round(rng.uniform(lo, hi))) for lo, hi in
             ((4e3, 6e3), (9e3, 12e3), (16e3, 20e3))]
    tap = round(rng.uniform(0.3, 0.7), 3)
    attenuation = float(f"{10 ** -rng.uniform(4.0, 5.0):.4g}")
    chain_factor = attenuation * (1.0 - 0.1)
    photon_j = ref.PLANCK_H * ref.SPEED_OF_LIGHT / 1550e-9
    power_tap = float(f"{n_bar * photon_j * rates[1] * tap / ((1 - tap) * chain_factor):.6g}")

    base = base_config({"duration_s": duration},
                       {"repetition_rate_hz": rates[1], "mean_photons": n_bar})
    base["calibration"] = {"power_tap_watts": power_tap, "tap_fraction": tap,
                           "relative_uncertainty": 0.05,
                           "post_tap_chain": [{"attenuator": attenuation},
                                              {"splitter_tap": 0.1}, {"fiber": None}]}
    base["tmm"] = {"wavelength_nm": 1550.0, "axis": "armchair", **GRID}
    configs = {"campaign": base}
    for i, f in enumerate(rates):
        for kind in ("light", "dark"):
            cfg = base_config({"duration_s": duration, "seed": rng.randrange(2 ** 31)},
                              {"repetition_rate_hz": f, "mean_photons": n_bar})
            configs[f"{kind}{i}"] = cfg
    det = base["detector"]
    base_path = str(work / "campaign.yaml")
    light = [work / "sweep" / f"f{i}" for i in range(3)]
    dark = [work / "dark" / f"f{i}" for i in range(3)]
    commands = [("source calibrate", ["source", "calibrate", "--config", base_path,
                                      "--out", str(work / "cal")])]
    for i in range(3):
        commands.append((f"simulate light {i}", [
            "simulate", "--config", str(work / f"light{i}.yaml"), "--out", str(light[i])]))
        commands.append((f"simulate dark {i}", [
            "simulate", "--config", str(work / f"dark{i}.yaml"), "--shutter", "closed",
            "--out", str(dark[i])]))
    counts_cmd = ["analyze", "counts", "--config", base_path, "--out", str(work / "counts")]
    for i in range(3):
        counts_cmd += ["--light", str(light[i]), "--dark", str(dark[i])]
    commands += [
        ("analyze counts", counts_cmd),
        ("analyze sweep", ["analyze", "sweep", "--config", base_path,
                           "--runs", str(work / "sweep"), "--out", str(work / "fit")]),
        ("tmm point", ["tmm", "point", "--config", base_path, "--out", str(work / "point")]),
    ]
    absorptance = _absorptance(det)
    dead, dark_hz = det["dead_time_us"], det["dark_rate_hz"]

    def calibrate():
        got = _json(work / "cal" / "calibration.json")
        want = ref.calibrated_n_bar(power_tap, tap, chain_factor, 1550.0, rates[1])
        _close(got["n_bar"], want, 1e-9, "n_bar")
        _close(got["n_bar_sigma"], 0.05 * want, 1e-9, "n_bar_sigma")
        _close(got["n_bar"], n_bar, 1e-5, "n_bar against the designed value")

    def counts_rows():
        lines = (work / "counts" / "counting.csv").read_text(encoding="utf-8").splitlines()
        require(lines[0] == "photon_flux_hz,counts_light,counts_dark,duration_s,eqe,"
                            "eqe_sigma,negative", "counting.csv: bad header")
        rows = [line.split(",") for line in lines[1:] if line]
        require(len(rows) == 3, f"counting.csv has {len(rows)} rows")
        return rows

    def counts_recompute():
        for i, row in enumerate(counts_rows()):
            n_light, n_dark = _detections(light[i] / "events.csv"), \
                _detections(dark[i] / "events.csv")
            require(int(row[1]) == n_light and int(row[2]) == n_dark,
                    f"row {i}: counts {row[1]}/{row[2]} vs events.csv {n_light}/{n_dark}")
            exposure = n_bar * rates[i] * duration
            eqe = (n_light - n_dark) / exposure
            sigma = math.hypot(math.sqrt(n_light + n_dark) / exposure, 0.05 * abs(eqe))
            _close(float(row[0]), n_bar * rates[i], CSV_REL_TOL, f"row {i} flux")
            _close(float(row[4]), eqe, CSV_REL_TOL, f"row {i} eqe")
            _close(float(row[5]), sigma, CSV_REL_TOL, f"row {i} eqe_sigma")

    def counts_expectation():
        for i, row in enumerate(counts_rows()):
            f = rates[i]
            light_counts = ref.expected_counts(f, n_bar, absorptance, det["iqe"],
                                               dark_hz, dead, duration)
            dark_counts = duration * ref.mueller(dark_hz, dead)
            want = (light_counts - dark_counts) / (n_bar * f * duration)
            eqe, sigma = float(row[4]), float(row[5])
            require(abs(eqe - want) <= EQE_SIGMAS * sigma,
                    f"row {i}: eqe {eqe:.4f} vs Mueller-corrected {want:.4f} "
                    f"(bound {EQE_SIGMAS:g} x {sigma:.4f})")

    def sweep_recompute():
        fit = _json(work / "fit" / "fit.json")
        counts = [_detections(d / "events.csv") for d in light]
        points = [(p["repetition_rate_hz"], p["counts"]) for p in fit["points"]]
        require(points == list(zip(rates, counts)), f"fit points {points} vs runs")
        slope, intercept = ref.ols(rates, counts)
        _close(fit["slope_counts_per_hz"], slope, 1e-9, "slope")
        require(abs(fit["intercept_counts"] - intercept) <= 1e-9 * max(counts),
                "intercept")
        _close(fit["eqe_from_slope"], slope / (n_bar * duration), 1e-9, "eqe_from_slope")

    def sweep_expectation():
        fit = _json(work / "fit" / "fit.json")
        expected = [ref.expected_counts(f, n_bar, absorptance, det["iqe"], dark_hz,
                                        dead, duration) for f in rates]
        want = ref.ols(rates, expected)[0] / (n_bar * duration)
        sigma = max(fit["eqe_from_slope_sigma"],
                    ref.ols_slope_sigma_poisson(rates, expected) / (n_bar * duration))
        require(abs(fit["eqe_from_slope"] - want) <= EQE_SIGMAS * sigma,
                f"eqe_from_slope {fit['eqe_from_slope']:.4f} vs Mueller-corrected "
                f"{want:.4f} (bound {EQE_SIGMAS:g} x {sigma:.4f})")

    return Plan(configs, commands, [
        ("calibrate.closed_form", calibrate),
        ("counts.recompute", counts_recompute),
        ("counts.expectation", counts_expectation),
        ("sweep.recompute", sweep_recompute),
        ("sweep.expectation", sweep_expectation),
    ] + check_point(base, work / "point", tables))


WORKLOADS = {"optics": optics, "saturation": saturation, "trace": trace,
             "campaign": campaign}
