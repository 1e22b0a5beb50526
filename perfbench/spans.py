"""Spans around spdsim's public functions, and the per-layer metrics they give.

Run as a script, this file is the traced form of one CLI command:

    python3 perfbench/spans.py --spans OUT.npz -- tmm map --config cfg.yaml --out DIR

It imports spdsim, replaces each function listed in WRAPPED (in every spdsim
module that holds it) with a wrapper that records a span, calls
`spdsim.cli.main` in-process, and writes the spans to OUT.npz when the
command ends. Spans are kept in memory in flat arrays: name, start, end,
parent span and up to two work sizes. Only timers are used: tracemalloc
slowed the saturation simulate about fivefold.

Imported as a module, it merges span files and computes the per-layer
metrics in PER_LAYER.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _pulses(fn, args, kwargs, result):
    duration = _arg(fn, args, kwargs, "duration_s")
    rate = _arg(fn, args, kwargs, "source").repetition_rate_hz
    return math.floor(duration * rate - 1e-9) + 1, result.n_captures


# module -> {function: size(fn, args, kwargs, result) -> number or (a, b)}
WRAPPED = {
    "cli": {"main": None},
    "config": {"load_config": None, "build_stack": None, "build_detector": None,
               "build_source": None, "build_chain": None, "build_power_reading": None,
               "config_hash": None},
    "materials": {"bundled": None, "load_dispersion": None, "index_at": None},
    "tmm": {"stack_response": None, "unpolarized_absorption": None,
            "absorption_map": lambda fn, a, k, result: result.size,
            "optimize_thicknesses": None},
    "source": {"calibrate_flux": None},
    "detsim": {
        "simulate": _pulses,
        "synthesize_trace": lambda fn, a, k, result: result.n_samples,
        "write_trace": lambda fn, a, k, result: _arg(fn, a, k, "trace").samples.nbytes / 1e6,
        "read_trace": lambda fn, a, k, result: result.samples.nbytes / 1e6,
        "write_events_csv": lambda fn, a, k, result: 2 * _arg(fn, a, k, "record").n_captures,
        "read_events_csv": lambda fn, a, k, result: 2 * result.n_captures,
    },
    "analysis": {
        "detect_events": lambda fn, a, k, result: _arg(fn, a, k, "trace").n_samples,
        "estimate_baseline": None, "mean_edge_times": None, "edge_times": None,
        "estimate_eqe": None, "eqe_from_frequency_sweep": None,
    },
}


class Recorder:
    """Spans of one process, in flat arrays; parent -1 marks a root span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size_a = array("d")
        self.size_b = array("d")
        self._open = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: float, end: float) -> None:
        for col, value in ((self.name_id, self._intern(name)), (self.parent, self._open[-1]),
                           (self.start, start), (self.end, end),
                           (self.size_a, math.nan), (self.size_b, math.nan)):
            col.append(value)

    def wrap(self, name: str, fn, size=None):
        nid = self._intern(name)
        open_spans = self._open
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        size_a, size_b = self.size_a, self.size_b
        nan = math.nan

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1])
            start.append(0.0)
            end.append(0.0)
            size_a.append(nan)
            size_b.append(nan)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if size is not None:
                try:
                    value = size(fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    value = nan  # the function's signature or result changed
                a, b = value if isinstance(value, tuple) else (value, nan)
                size_a[idx] = a
                size_b[idx] = b
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def save(self, path: Path, absent: list[str]) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 absent=np.array(absent, dtype=str),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 size_a=np.frombuffer(self.size_a), size_b=np.frombuffer(self.size_b))


def install(recorder: Recorder, wrapped: dict = WRAPPED) -> list[str]:
    """Wrap every listed function; returns the names that do not exist."""
    absent = []
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "spdsim"]
    for module_name, functions in wrapped.items():
        try:
            module = importlib.import_module(f"spdsim.{module_name}")
        except ImportError:
            absent += [f"{module_name}.{f}" for f in functions]
            continue
        for fname, size in functions.items():
            fn = getattr(module, fname, None)
            if not callable(fn):
                absent.append(f"{module_name}.{fname}")
                continue
            wrapper = recorder.wrap(f"{module_name}.{fname}", fn, size)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
    return absent


def trace_command(spans_path: Path, argv: list[str]) -> int:
    recorder = Recorder()
    t0 = perf_counter()
    import spdsim.cli  # noqa: PLC0415 - the import is itself measured
    recorder.add("cli.import", t0, perf_counter())
    absent = install(recorder)
    try:
        code = spdsim.cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        recorder.save(spans_path, absent)
    return code


# ---------------------------------------------------------------------------
# Analysis


class Spans:
    """Spans of many commands, each tagged with its workload."""

    def __init__(self):
        self.parts: list[dict] = []
        self.absent: set[str] = set()

    def add_file(self, path: Path, workload: str, command: str) -> None:
        with np.load(path) as data:
            part = {key: data[key] for key in data.files}
        names = part["names"]
        dur = part["end"] - part["start"]
        has_parent = part["parent"] >= 0
        # Children of one span never overlap in a single thread, so the part
        # of a span they cover is the sum of their durations.
        covered = np.bincount(part["parent"][has_parent], weights=dur[has_parent],
                              minlength=dur.size)
        part.update(workload=workload, command=command, dur=dur, self=dur - covered,
                    name=names[part["name_id"]] if names.size else np.array([], dtype=str))
        self.parts.append(part)
        self.absent.update(str(a) for a in part["absent"])

    def _select(self, name: str, workloads, column: str) -> np.ndarray:
        values = [p[column][p["name"] == name] for p in self.parts
                  if p["workload"] in workloads]
        return np.concatenate(values) if values else np.empty(0)

    def count(self, name, workloads) -> int:
        return int(self._select(name, workloads, "dur").size)

    def total(self, name, workloads) -> float:
        return float(self._select(name, workloads, "dur").sum())

    def self_total(self, name, workloads) -> float:
        return float(self._select(name, workloads, "self").sum())

    def total_outside(self, name, child, workloads) -> float:
        """Time in `name` spans minus the time of their direct `child` spans."""
        out = 0.0
        for p in self.parts:
            if p["workload"] not in workloads:
                continue
            is_child = (p["name"] == child) & (p["parent"] >= 0)
            nested = p["name"][p["parent"][is_child]] == name
            out += p["dur"][p["name"] == name].sum() - p["dur"][is_child][nested].sum()
        return float(out)

    def size(self, name, workloads, column="size_a") -> float:
        return float(self._select(name, workloads, column).sum())

    def to_file(self, path: Path) -> None:
        """One file for the whole run: columns over all spans, parents re-indexed."""
        names = sorted({str(n) for p in self.parts for n in p["name"]})
        offsets = np.cumsum([0] + [p["dur"].size for p in self.parts])
        cols = {key: [] for key in ("name_id", "parent", "start", "end", "size_a",
                                    "size_b", "command_id")}
        commands = []
        for k, (p, off) in enumerate(zip(self.parts, offsets)):
            commands.append(f"{p['workload']}: {p['command']}")
            cols["name_id"].append(np.searchsorted(names, p["name"]).astype(np.int32))
            cols["parent"].append(np.where(p["parent"] >= 0, p["parent"] + off, -1))
            cols["command_id"].append(np.full(p["dur"].size, k, dtype=np.int32))
            for key in ("start", "end", "size_a", "size_b"):
                cols[key].append(p[key])
        np.savez(path, names=np.array(names, dtype=str), commands=np.array(commands, dtype=str),
                 absent=np.array(sorted(self.absent), dtype=str),
                 **{key: np.concatenate(v) if v else np.empty(0) for key, v in cols.items()})


OPTICS, CAMPAIGN = ("optics",), ("campaign",)
SATURATION, TRACE = ("saturation",), ("trace",)


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else math.nan


# name, unit, workloads, functions it needs, value(spans, workloads)
PER_LAYER = [
    ("cli.cmd_self_s", "s", OPTICS + CAMPAIGN, ["cli.main"],
     lambda s, w: s.self_total("cli.main", w)),
    ("config.load_config_ms", "ms", CAMPAIGN, ["config.load_config"],
     lambda s, w: 1e3 * s.total("config.load_config", w)),
    ("config.build_detector_ms", "ms", CAMPAIGN, ["config.build_detector"],
     lambda s, w: 1e3 * s.total("config.build_detector", w)),
    ("materials.bundled_ms", "ms", OPTICS + CAMPAIGN, ["materials.bundled"],
     lambda s, w: 1e3 * s.total("materials.bundled", w)),
    ("materials.index_at_us", "us", OPTICS, ["materials.index_at"],
     lambda s, w: 1e6 * s.total("materials.index_at", w) / s.count("materials.index_at", w)),
    ("tmm.absorption_map_s", "s", OPTICS, ["tmm.absorption_map"],
     lambda s, w: s.total("tmm.absorption_map", w)),
    ("tmm.map_cells_per_s", "1/s", OPTICS, ["tmm.absorption_map"],
     lambda s, w: _rate(s.size("tmm.absorption_map", w), s.total("tmm.absorption_map", w))),
    ("tmm.optimize_refine_s", "s", OPTICS,
     ["tmm.optimize_thicknesses", "tmm.absorption_map"],
     lambda s, w: s.total_outside("tmm.optimize_thicknesses", "tmm.absorption_map", w)),
    ("tmm.stack_response_calls", "count", OPTICS, ["tmm.stack_response"],
     lambda s, w: s.count("tmm.stack_response", w)),
    ("tmm.stack_response_us", "us", OPTICS, ["tmm.stack_response"],
     lambda s, w: 1e6 * s.total("tmm.stack_response", w) / s.count("tmm.stack_response", w)),
    ("source.calibrate_flux_ms", "ms", CAMPAIGN, ["source.calibrate_flux"],
     lambda s, w: 1e3 * s.total("source.calibrate_flux", w)),
    ("detsim.simulate_s", "s", SATURATION, ["detsim.simulate"],
     lambda s, w: s.total("detsim.simulate", w)),
    ("detsim.pulses_per_s", "1/s", SATURATION, ["detsim.simulate"],
     lambda s, w: _rate(s.size("detsim.simulate", w), s.total("detsim.simulate", w))),
    ("detsim.captures_per_s", "1/s", SATURATION, ["detsim.simulate"],
     lambda s, w: _rate(s.size("detsim.simulate", w, "size_b"), s.total("detsim.simulate", w))),
    ("detsim.synthesize_trace_s", "s", TRACE, ["detsim.synthesize_trace"],
     lambda s, w: s.total("detsim.synthesize_trace", w)),
    ("detsim.trace_samples_per_s", "1/s", TRACE, ["detsim.synthesize_trace"],
     lambda s, w: _rate(s.size("detsim.synthesize_trace", w),
                        s.total("detsim.synthesize_trace", w))),
    ("detsim.trace_write_mb_per_s", "MB/s", TRACE, ["detsim.write_trace"],
     lambda s, w: _rate(s.size("detsim.write_trace", w), s.total("detsim.write_trace", w))),
    ("detsim.trace_read_mb_per_s", "MB/s", TRACE, ["detsim.read_trace"],
     lambda s, w: _rate(s.size("detsim.read_trace", w), s.total("detsim.read_trace", w))),
    ("detsim.events_csv_write_rows_per_s", "1/s", SATURATION + CAMPAIGN,
     ["detsim.write_events_csv"],
     lambda s, w: _rate(s.size("detsim.write_events_csv", w),
                        s.total("detsim.write_events_csv", w))),
    ("detsim.events_csv_read_rows_per_s", "1/s", CAMPAIGN, ["detsim.read_events_csv"],
     lambda s, w: _rate(s.size("detsim.read_events_csv", w),
                        s.total("detsim.read_events_csv", w))),
    ("analysis.detect_events_s", "s", TRACE, ["analysis.detect_events"],
     lambda s, w: s.total("analysis.detect_events", w)),
    ("analysis.estimate_baseline_s", "s", TRACE, ["analysis.estimate_baseline"],
     lambda s, w: s.total("analysis.estimate_baseline", w)),
    ("analysis.detect_samples_per_s", "1/s", TRACE, ["analysis.detect_events"],
     lambda s, w: _rate(s.size("analysis.detect_events", w),
                        s.total("analysis.detect_events", w))),
    ("analysis.mean_edge_times_s", "s", TRACE, ["analysis.mean_edge_times"],
     lambda s, w: s.total("analysis.mean_edge_times", w)),
    ("analysis.edge_times_calls", "count", TRACE, ["analysis.edge_times"],
     lambda s, w: s.count("analysis.edge_times", w)),
    ("analysis.edges_per_s", "1/s", TRACE, ["analysis.edge_times", "analysis.mean_edge_times"],
     lambda s, w: _rate(2 * s.count("analysis.edge_times", w),
                        s.total("analysis.mean_edge_times", w))),
    ("analysis.estimate_eqe_ms", "ms", CAMPAIGN, ["analysis.estimate_eqe"],
     lambda s, w: 1e3 * s.total("analysis.estimate_eqe", w)),
    ("analysis.frequency_sweep_fit_ms", "ms", CAMPAIGN, ["analysis.eqe_from_frequency_sweep"],
     lambda s, w: 1e3 * s.total("analysis.eqe_from_frequency_sweep", w)),
]


def per_layer(spans: Spans) -> tuple[dict, dict]:
    """(metrics, absent): absent maps a metric to why it has no value."""
    metrics, absent = {}, {}
    for name, unit, workloads, needs, value in PER_LAYER:
        missing = [f for f in needs if f in spans.absent]
        if missing:
            absent[name] = f"function absent: {', '.join(missing)}"
            continue
        uncalled = [f for f in needs if spans.count(f, workloads) == 0]
        if uncalled:
            absent[name] = f"not called on {'/'.join(workloads)}: {', '.join(uncalled)}"
            continue
        v = value(spans, workloads)
        if isinstance(v, float) and not math.isfinite(v):
            absent[name] = "work size not readable"
            continue
        metrics[name] = {"value": v, "unit": unit}
    return metrics, absent


if __name__ == "__main__":
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--spans" or args[2] != "--":
        sys.exit("usage: spans.py --spans OUT.npz -- SPDSIM-ARGS...")
    sys.exit(trace_command(Path(args[1]), args[3:]))
