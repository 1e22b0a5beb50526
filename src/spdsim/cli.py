"""Command-line surface: reproducible experiments from a config document.

Commands::

    spdsim tmm {point|map|optimize} --config cfg.yaml --out DIR
    spdsim source calibrate --config cfg.yaml --out DIR
    spdsim simulate --config cfg.yaml [--seed N] [--shutter open|closed] --out DIR
    spdsim analyze trace --config cfg.yaml --trace BASE --out DIR
    spdsim analyze counts --config cfg.yaml --light DIR --dark DIR [...] --out DIR
    spdsim analyze sweep --config cfg.yaml --runs DIR --out DIR

Every run with the same config and seed is byte-identical: outputs carry no
timestamps, JSON keys are sorted, and numeric formats are fixed. `simulate`
writes a manifest embedding the fully resolved config so the run can be
reproduced from its outputs alone.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# numpy loads with one OpenBLAS thread: spdsim's one BLAS call is np.polyfit's
# n x 2 fit in `analysis._ten_ninety`, and each extra worker spins 2**28 cycles
# (about 0.1 s of CPU) once numpy has loaded.
_caller_blas = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np
del os.environ["OPENBLAS_NUM_THREADS"]  # and the caller's value is put back
if _caller_blas is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = _caller_blas

from . import (__version__, analysis, config as cfgmod, detsim, finite_number, read_text, tmm,
               write_json)
from .source import calibrate_flux


def _out_path(args, cfg) -> Path:
    return Path(args.out) if args.out else Path(cfg["run"]["out_dir"])


def _out_dir(args, cfg) -> Path:
    out = _out_path(args, cfg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_free_space(out: Path, n_samples: int) -> None:
    """Raise ValueError when the file system of `out`, or of its nearest
    existing ancestor, has no room for a trace of `n_samples` float64s."""
    base = next(p for p in (out, *out.absolute().parents) if p.exists())
    need, free = 8 * n_samples, shutil.disk_usage(base).free
    if need > free:
        raise ValueError(f"trace of {n_samples} samples, which need {need} bytes; "
                         f"{base} has {free} bytes free")


def _load_cfg(args):
    seed = getattr(args, "seed", None)
    return cfgmod.load_config(args.config, None if seed is None else {"run": {"seed": seed}})


def _response_payload(stack, resp, wavelength, axis):
    return {
        "wavelength_nm": wavelength,
        "axis": axis,
        "reflectance": resp.reflectance,
        "transmittance": resp.transmittance,
        "layers": [
            {"material": lay.material.name, "thickness_nm": lay.thickness_nm,
             "absorptance": float(a)}
            for lay, a in zip(stack.layers, resp.layer_absorptance)
        ],
        "absorptance_total": resp.absorptance_total,
        "conservation_check": resp.reflectance + resp.transmittance + resp.absorptance_total,
    }


def cmd_tmm(args) -> int:
    cfg = _load_cfg(args)
    stack = cfgmod.build_stack(cfg)
    wavelength = float(cfg["tmm"]["wavelength_nm"])
    axis = cfg["tmm"]["axis"]
    # Each command solves before `_out_dir`, so a stack the optics cannot solve
    # leaves no directory behind.

    if args.tmm_command == "point":
        resp = tmm.stack_response(stack, wavelength, axis)
        out = _out_dir(args, cfg)
        write_json(out / "response.json", _response_payload(stack, resp, wavelength, axis))
        print(f"wrote {out / 'response.json'}")
        return 0

    top = tuple(float(v) for v in cfg["tmm"]["top_range_nm"])
    bottom = tuple(float(v) for v in cfg["tmm"]["bottom_range_nm"])
    step = float(cfg["tmm"]["step_nm"])

    if args.tmm_command == "map":
        tops, bottoms = tmm.thickness_grid(*top, step), tmm.thickness_grid(*bottom, step)
        tmm.check_map(tops.size, bottoms.size)  # before the error array
        error = np.empty((tops.size, bottoms.size))
        grid = tmm.absorption_map(stack, tops, bottoms, wavelength, axis, conservation_error=error)
        out = _out_dir(args, cfg)
        # Each thickness is formatted once, into a template of every row; one
        # % call then formats every cell.
        cells = [f",{t:.6g},%.10g\n" for t in bottoms.tolist()]
        rows = "".join(top + top.join(cells) for top in [f"{t:.6g}" for t in tops.tolist()])
        (out / "map.csv").write_text("t_top_nm,t_bottom_nm,a_bp\n"
                                     + rows % tuple(grid.ravel().tolist()), encoding="utf-8")
        i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
        write_json(out / "map_summary.json", {
            "wavelength_nm": wavelength, "axis": axis, "step_nm": step,
            "best": {"t_top_nm": float(tops[i]), "t_bottom_nm": float(bottoms[j]),
                     "a_bp": float(grid[i, j])},
            "shape": [int(tops.size), int(bottoms.size)],
            "max_conservation_error": float(error.max()),
        })
        print(f"wrote {out / 'map.csv'} ({tops.size}x{bottoms.size} cells)")
        return 0

    if args.tmm_command == "optimize":
        opt = tmm.optimize_thicknesses(stack, top, bottom, wavelength, axis,
                                       coarse_step_nm=step)
        out = _out_dir(args, cfg)
        write_json(out / "optimum.json", {
            "wavelength_nm": wavelength, "axis": axis,
            "t_top_nm": opt.top_nm, "t_bottom_nm": opt.bottom_nm,
            "a_bp": opt.absorptance,
        })
        print(f"wrote {out / 'optimum.json'}: A_BP={opt.absorptance:.4f} at "
              f"({opt.top_nm:.1f}, {opt.bottom_nm:.1f}) nm")
        return 0
    raise AssertionError(args.tmm_command)


def cmd_source(args) -> int:
    cfg = _load_cfg(args)
    reading = cfgmod.build_power_reading(cfg)
    chain = cfgmod.build_chain(cfg["calibration"]["post_tap_chain"])
    result = calibrate_flux(reading, float(cfg["calibration"]["tap_fraction"]), chain,
                            float(cfg["source"]["wavelength_nm"]),
                            float(cfg["source"]["repetition_rate_hz"]))
    out = _out_dir(args, cfg)
    write_json(out / "calibration.json", {
        "n_bar": result.n_bar,
        "n_bar_sigma": result.n_bar_sigma,
        "power_device_watts": result.power_device_watts,
    })
    print(f"wrote {out / 'calibration.json'}: n_bar={result.n_bar:.6g}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    shutter_open = args.shutter != "closed"
    source = cfgmod.build_source(cfg, shutter_open=shutter_open)
    params = cfgmod.build_detector(cfg)
    duration = float(cfg["run"]["duration_s"])
    seed = int(cfg["run"]["seed"])
    trace_duration = min(duration, float(cfg["run"]["trace_duration_s"]))
    sample_rate = float(cfg["run"]["sample_rate_hz"])
    n_samples = detsim.check_trace(params, trace_duration, sample_rate)
    _check_free_space(_out_path(args, cfg), n_samples)  # before any file is written

    streams = np.random.SeedSequence(seed).spawn(2)
    events = detsim.simulate(params, source, duration, streams[0])
    n_detections = events.n_detections
    out = _out_dir(args, cfg)
    detsim.write_events_csv(events, out / "events.csv")

    trace = detsim.synthesize_trace(events, params, trace_duration, sample_rate, streams[1],
                                    path=out / "trace.f64")  # written block by block
    detsim.write_trace(trace, out / "trace")

    write_json(out / "manifest.json", {
        "config": cfg,
        "config_sha256": cfgmod.config_hash(cfg),
        "seed": seed,
        "shutter": args.shutter,
        "source": {
            "mean_photons": source.mean_photons,
            "repetition_rate_hz": source.repetition_rate_hz,
            "wavelength_nm": source.wavelength_nm,
            "photon_flux_hz": source.photon_flux_hz,
        },
        "versions": {
            "spdsim": __version__,
            "numpy": np.__version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
        },
        "duration_s": duration,
        "expected": {
            "pulses": source.pulse_count(duration),
            "dark_events": params.dark_rate_hz * duration,
        },
        "counts": {"captures": events.n_captures, "detections": n_detections},
        "trace": {"duration_s": trace_duration, "sample_rate_hz": trace.sample_rate_hz},
    })
    print(f"wrote {out}: {n_detections} detections "
          f"({events.n_captures} captures) in {duration:g} s")
    return 0


def _read_run(run_dir: Path) -> tuple[float, float, float, int]:
    """(repetition rate, n_bar, duration, detections) of a `simulate` run directory."""
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"{run_dir}: missing manifest.json (not a simulate run?)")
    manifest = read_text(path, json.loads)
    return (finite_number(manifest, path, "source", "repetition_rate_hz"),
            finite_number(manifest, path, "source", "mean_photons"),
            finite_number(manifest, path, "duration_s"),
            detsim.read_events_csv(Path(run_dir) / "events.csv").n_detections)


def _equal(values) -> bool:
    """The equal-exposure rule of `analyze counts` and `sweep`: within 1e-9 of the first."""
    return all(abs(v - values[0]) <= 1e-9 * abs(values[0]) for v in values)


def cmd_analyze(args) -> int:
    cfg = _load_cfg(args)
    # Each analysis reads and computes before `_out_dir`, so bad input leaves
    # no directory behind.

    if args.analyze_command == "trace":
        if args.trace is None:
            raise ValueError("analyze trace: --trace BASE is required")
        trace = detsim.read_trace(Path(args.trace))
        events = analysis.detect_events(trace, **cfg["analysis"])
        payload = {"n_events": events.n_captures,
                   "duration_s": trace.duration_s,
                   "rate_hz": events.n_captures / trace.duration_s}
        try:
            fall, rise, n_used = analysis.mean_edge_times(trace, events)
            payload["edges"] = {"fall_10_90_us": fall, "rise_10_90_us": rise,
                                "n_measured": n_used}
        except ValueError as exc:  # the events stand; say why their edges were not timed
            payload.update(edges=None, edges_unresolved=str(exc))
            print(f"warning: edges not timed: {exc}", file=sys.stderr)
        out = _out_dir(args, cfg)
        detsim.write_events_csv(events, out / "detected_events.csv")
        write_json(out / "trace_analysis.json", payload)
        print(f"wrote {out / 'detected_events.csv'}: {events.n_captures} events")
        return 0

    if args.analyze_command == "counts":
        if not args.light or len(args.light) != len(args.dark or []):
            raise ValueError("analyze counts: need matching --light/--dark run directories")
        lines = ["photon_flux_hz,counts_light,counts_dark,duration_s,eqe,eqe_sigma,negative"]
        for light_dir, dark_dir in zip(args.light, args.dark):
            rate, n_bar, duration, counts_light = _read_run(light_dir)
            *_, dark_duration, counts_dark = _read_run(dark_dir)
            if not _equal((duration, dark_duration)):
                raise ValueError(
                    f"analyze counts: light run ({duration} s) and dark run "
                    f"({dark_duration} s) durations differ; subtraction needs equal exposure")
            result = analysis.estimate_eqe(
                counts_light, counts_dark, n_bar, rate, duration,
                flux_rel_uncertainty=float(cfg["calibration"]["relative_uncertainty"]))
            lines.append(
                f"{result.photon_flux_hz:.10g},{result.counts_light},{result.counts_dark},"
                f"{result.duration_s:.10g},{result.eqe:.10g},{result.eqe_sigma:.10g},"
                f"{int(result.negative_after_subtraction)}")
        out = _out_dir(args, cfg)
        (out / "counting.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {out / 'counting.csv'} ({len(lines) - 1} rows)")
        return 0

    if args.analyze_command == "sweep":
        if args.runs is None:
            raise ValueError("analyze sweep: --runs DIR is required")
        runs_root = Path(args.runs)
        runs = [_read_run(p) for p in sorted(runs_root.iterdir()) if p.is_dir()]
        if not runs:
            raise ValueError(f"analyze sweep: no run directories under {runs_root}")
        rates, n_bars, durations, counts = zip(*runs)
        if not _equal(n_bars):
            raise ValueError(f"analyze sweep: runs disagree on mean_photons: {sorted(set(n_bars))}")
        if not _equal(durations):
            raise ValueError(f"analyze sweep: run durations differ: {sorted(set(durations))} s; "
                             "the slope needs equal exposure")
        points = list(zip(rates, counts))
        fit = analysis.eqe_from_frequency_sweep(points, n_bars[0], durations[0])
        out = _out_dir(args, cfg)
        write_json(out / "fit.json", {
            "points": [{"repetition_rate_hz": f, "counts": c} for f, c in points],
            "slope_counts_per_hz": fit.slope,
            "intercept_counts": fit.intercept,
            "slope_sigma": fit.slope_sigma,
            "intercept_sigma": fit.intercept_sigma,
            "eqe_from_slope": fit.eqe_from_slope,
            "eqe_from_slope_sigma": fit.eqe_from_slope_sigma,
        })
        print(f"wrote {out / 'fit.json'}: eqe_from_slope={fit.eqe_from_slope:.4f}")
        return 0
    raise AssertionError(args.analyze_command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spdsim",
                                     description="1550 nm single-photon detector toolkit")
    parser.add_argument("--version", action="version", version=f"spdsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=Path, default=None, help="YAML config document")
        p.add_argument("--out", type=Path, default=None, help="output directory")

    p_tmm = sub.add_parser("tmm", help="stack optics: point response, map, optimize")
    p_tmm.add_argument("tmm_command", choices=["point", "map", "optimize"])
    common(p_tmm)
    p_tmm.set_defaults(func=cmd_tmm)

    p_src = sub.add_parser("source", help="photon source calibration")
    p_src.add_argument("source_command", choices=["calibrate"])
    common(p_src)
    p_src.set_defaults(func=cmd_source)

    p_sim = sub.add_parser("simulate", help="run the detection-cycle simulator")
    common(p_sim)
    p_sim.add_argument("--seed", type=int, default=None, help="override run.seed")
    p_sim.add_argument("--shutter", choices=["open", "closed"], default="open",
                       help="'closed' blocks the laser (dark run), keeping the dark process")
    p_sim.set_defaults(func=cmd_simulate)

    p_ana = sub.add_parser("analyze", help="event recovery and efficiency estimation")
    p_ana.add_argument("analyze_command", choices=["trace", "counts", "sweep"])
    common(p_ana)
    p_ana.add_argument("--trace", type=Path, help="trace base path (without extension)")
    p_ana.add_argument("--light", action="append", type=Path,
                       help="shutter-open run directory (repeatable)")
    p_ana.add_argument("--dark", action="append", type=Path,
                       help="shutter-closed run directory (repeatable)")
    p_ana.add_argument("--runs", type=Path, help="directory of sweep run directories")
    p_ana.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (cfgmod.ConfigError, OSError, ValueError) as exc:  # OSError: also a full disk
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
