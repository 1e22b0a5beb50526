"""Stochastic event-driven simulator of the detection cycle.

The cycle is modeled phenomenologically: a pulse delivers a Poisson number
of photons; each photon is absorbed with the polarization-appropriate
absorptance and the resulting electron is captured with probability `iqe`.
By Poisson thinning the captured count per pulse is Poisson(n_bar * A * iqe),
so `simulate` draws the run's total and places it uniformly on the pulses:
memory grows with candidate captures, not with pulses. Dark captures arrive
as an independent homogeneous Poisson process. One walk (`_accept`) accepts
a candidate when the readout is past its non-paralyzable dead time and the
island has a free slot (occupancy below `max_occupancy`). Every captured
electron holds for an exponential dwell time and is then pulled out again
(auto-reset), decrementing the occupancy.

Captured electrons from the same pulse share one timestamp; the counting
electronics register them as a single detection, so `EventRecord`
distinguishes the raw electron-capture count from the distinct-detection
count.

Times inside event records and traces are microseconds; durations and rates
at the API surface are seconds and hertz.
"""

from __future__ import annotations

import heapq
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .source import CoherentPulseTrain, PulsePolarization

LN9 = math.log(9.0)  # 10-90% span of a single exponential, in time constants

ORIGIN_PHOTON = "photon"
ORIGIN_DARK = "dark"


@dataclass
class DetectorParams:
    """Phenomenological detector parameters.

    `iqe` is the capture probability per absorbed photon. The absorptance
    defaults (0.537 armchair, 0.0054 zigzag) are the paper's values: with
    `iqe` 0.79 they give its unpolarized EQE, 0.5 * (0.537 + 0.0054) * 0.79
    = 0.2142. They are not what the tmm module gives for the bundled stack
    (0.5252 / 0.0067 at the default spacers); the config key
    `detector.absorptance_from_stack` uses those instead. `dead_time_us` and
    `hold_time_mean_us` are fitted, not measured, quantities: the defaults
    reproduce the observed ~20 kHz count-rate saturation and the
    microsecond-scale pulse widths of the output traces. These defaults are
    also the config defaults.
    """

    absorptance_armchair: float = 0.537
    absorptance_zigzag: float = 0.0054
    iqe: float = 0.79
    dark_rate_hz: float = 720.0
    fall_time_us: float = 2.3
    rise_time_us: float = 2.1
    hold_time_mean_us: float = 10.0
    dead_time_us: float = 50.0
    max_occupancy: int = 4
    step_amplitude_v: float = 1.0
    noise_sigma_v: float = 0.05
    baseline_v: float = 0.0

    def __post_init__(self):
        for name in ("absorptance_armchair", "absorptance_zigzag", "iqe"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must be within [0, 1], got {v}")
        for name in ("dark_rate_hz", "fall_time_us", "rise_time_us",
                     "hold_time_mean_us", "dead_time_us", "noise_sigma_v"):
            v = getattr(self, name)
            if not v >= 0:  # written so that NaN fails
                raise ValueError(f"{name} must be nonnegative, got {v}")
        for name in ("step_amplitude_v", "baseline_v"):
            if not math.isfinite(v := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {v}")
        if not self.max_occupancy >= 1:
            raise ValueError(f"max_occupancy must be at least 1, got {self.max_occupancy}")

    def absorptance(self, polarization: PulsePolarization) -> float:
        """Effective absorptance for the given photon polarization state."""
        if polarization.is_unpolarized:
            return 0.5 * (self.absorptance_armchair + self.absorptance_zigzag)
        theta = math.radians(polarization.angle_deg)
        return (self.absorptance_armchair * math.cos(theta) ** 2
                + self.absorptance_zigzag * math.sin(theta) ** 2)


@dataclass
class EventRecord:
    """Capture/release event pairs; release i belongs to capture i.

    `capture_times_us` is sorted; release times are not globally sorted
    because dwell times are exponential. Scheduled releases may fall past the
    simulated duration. `origins` is None for records recovered from traces,
    where the cause of each event is unknown.
    """

    capture_times_us: np.ndarray
    release_times_us: np.ndarray
    origins: np.ndarray | None = None

    def __post_init__(self):
        self.capture_times_us = np.asarray(self.capture_times_us, dtype=float)
        self.release_times_us = np.asarray(self.release_times_us, dtype=float)
        if self.capture_times_us.shape != self.release_times_us.shape:
            raise ValueError("capture and release arrays must pair up")
        if self.origins is not None:
            self.origins = np.asarray(self.origins)
            if self.origins.shape != self.capture_times_us.shape:
                raise ValueError("origins must pair with captures")
        if np.any(self.release_times_us < self.capture_times_us):
            raise ValueError("a release precedes its capture")

    @property
    def n_captures(self) -> int:
        """Number of captured electrons."""
        return int(self.capture_times_us.size)

    @property
    def n_detections(self) -> int:
        """Number of distinct capture instants (what the counter registers)."""
        return int(np.unique(self.capture_times_us).size)

    def detection_times_us(self) -> np.ndarray:
        return np.unique(self.capture_times_us)

    def occupancy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """(transition times, occupancy after each transition), time-ordered.

        Captures are applied before releases at equal timestamps, so the
        series is the worst-case instantaneous occupancy.
        """
        times = np.concatenate([self.capture_times_us, self.release_times_us])
        steps = np.concatenate([np.ones(self.n_captures, dtype=int),
                                -np.ones(self.n_captures, dtype=int)])
        order = np.lexsort((-steps, times))
        return times[order], np.cumsum(steps[order])


def _accept(times: np.ndarray, dwells: np.ndarray, dead_time_us: float,
            max_occupancy: float) -> list[int]:
    """Indices of the sorted candidate `times` that become captures.

    A candidate is accepted when it is at least `dead_time_us` after the last
    accepted one and fewer than `max_occupancy` accepted candidates still
    hold a slot; candidate i holds one until times[i] + dwells[i]. Only
    accepted candidates and those a full island blocks are visited.
    """
    after = np.searchsorted(times, times + dead_time_us)
    kept: list[int] = []
    pending: list[float] = []
    i, n = 0, times.size
    while i < n:
        t = float(times[i])
        while pending and pending[0] <= t:
            heapq.heappop(pending)
        if len(pending) < max_occupancy:
            kept.append(i)
            heapq.heappush(pending, t + float(dwells[i]))
            i = max(int(after[i]), i + 1)
        else:
            i += 1
    return kept


def simulate(params: DetectorParams, source: CoherentPulseTrain, duration_s: float,
             seed: int | np.random.SeedSequence) -> EventRecord:
    """Run one detection-cycle trial; deterministic for a given seed.

    Pulses fire at k/f for k = 0, 1, ... within the duration. Candidate
    captures (thinned photons plus dark arrivals) are processed in time
    order against the occupancy cap and the non-paralyzable readout dead
    time; accepted captures schedule an exponential-dwell release.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    duration_us = duration_s * 1e6
    f = source.repetition_rate_hz
    pulse_period_us = 1e6 / f

    n_pulses = int(math.floor(duration_s * f - 1e-9)) + 1
    mu = source.mean_photons * params.absorptance(source.polarization) * params.iqe
    pulses = np.sort(rng.integers(0, n_pulses, size=rng.poisson(mu * n_pulses)))
    photon_times = pulses * pulse_period_us

    n_dark = rng.poisson(params.dark_rate_hz * duration_s)
    dark_times = np.sort(rng.uniform(0.0, duration_us, size=n_dark))

    cand_times = np.concatenate([photon_times, dark_times])
    order = np.argsort(cand_times, kind="stable")
    cand_times = cand_times[order]
    dwells = rng.exponential(params.hold_time_mean_us, size=cand_times.size)

    kept = np.array(_accept(cand_times, dwells, params.dead_time_us, params.max_occupancy),
                    dtype=np.intp)
    captures = cand_times[kept]
    origins = np.where(order[kept] < photon_times.size, ORIGIN_PHOTON, ORIGIN_DARK)
    return EventRecord(captures, captures + dwells[kept], origins)


@dataclass
class TimeTrace:
    """Uniformly sampled output voltage; sample i sits at i / sample_rate."""

    sample_rate_hz: float
    baseline_v: float
    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("trace contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def _physical_memory_bytes() -> int | None:
    """Total physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _edge_tau_us(edge_time_us: float) -> float:
    # Single-exponential edges; tau = t_edge / ln 9 makes the 10-90% span
    # equal the configured edge time exactly.
    return edge_time_us / LN9


def check_trace(params: DetectorParams, duration_s: float, sample_rate_hz: float) -> int:
    """Sample count of a `synthesize_trace` trace; raises ValueError, before
    anything is allocated, for a nonpositive duration, two float64 buffers
    beyond physical memory, or a sample rate too slow for the edges."""
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    n = int(round(duration_s * sample_rate_hz))
    need = 2 * 8 * n
    memory = _physical_memory_bytes()
    if memory is not None and need > memory:
        raise ValueError(
            f"trace of {n} samples ({duration_s:g} s at {sample_rate_hz:g} Hz) needs "
            f"{need} bytes of float64 buffers; this machine has {memory} bytes")
    for edge in (params.fall_time_us, params.rise_time_us):
        if edge > 0 and sample_rate_hz < 10.0 / (edge * 1e-6):
            raise ValueError(
                f"sample rate {sample_rate_hz:g} Hz too low to resolve a "
                f"{edge:g} us edge (need >= {10.0 / (edge * 1e-6):g} Hz)")
    return n


def synthesize_trace(events: EventRecord, params: DetectorParams, duration_s: float,
                     sample_rate_hz: float, seed: int | np.random.SeedSequence) -> TimeTrace:
    """Render the occupancy ledger as a noisy voltage trace.

    Level = baseline - step_amplitude * occupancy, with exponential edges on
    every transition (superposed, so overlapping events stack) plus white
    Gaussian noise. At most two float64 arrays of the trace's length are
    alive at once; `check_trace` rejects a trace that cannot be rendered.
    """
    n = check_trace(params, duration_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    dt_us = 1e6 / sample_rate_hz
    step = params.step_amplitude_v

    # Piecewise-constant occupancy on the sample grid.
    jump = np.zeros(n + 1)
    for times, sign in ((events.capture_times_us, 1.0),
                        (events.release_times_us, -1.0)):
        idx = np.ceil(times / dt_us - 1e-12).astype(int)
        idx = idx[(idx >= 0) & (idx < n)]
        np.add.at(jump, idx, sign)
    level = np.cumsum(jump[:n])  # occupancy, turned into volts in place
    del jump
    level *= -step
    level += params.baseline_v

    # Exponential transients restore continuity at each transition and decay
    # toward the new level. Windows are truncated once exp < 1e-12.
    for times, sign, edge in ((events.capture_times_us, 1.0, params.fall_time_us),
                              (events.release_times_us, -1.0, params.rise_time_us)):
        if edge <= 0:
            continue  # instantaneous edge
        tau = _edge_tau_us(edge)
        span = int(math.ceil(27.7 * tau / dt_us)) + 1
        for t in times:
            start = int(math.ceil(t / dt_us - 1e-12))
            if start >= n:
                continue
            stop = min(n, start + span)
            rel_t = np.arange(start, stop) * dt_us - t
            level[start:stop] += sign * step * np.exp(-rel_t / tau)

    if params.noise_sigma_v > 0:
        level += rng.normal(0.0, params.noise_sigma_v, size=n)
    return TimeTrace(sample_rate_hz, params.baseline_v, level)


# ---------------------------------------------------------------------------
# File formats


def write_events_csv(record: EventRecord, path: str | Path) -> None:
    """CSV rows `timestamp_us,kind,origin` merged in time order."""
    n = record.n_captures
    origins = record.origins if record.origins is not None else np.full(n, "unknown")
    rows = [(record.capture_times_us[i], "capture", origins[i]) for i in range(n)]
    rows += [(record.release_times_us[i], "release", origins[i]) for i in range(n)]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["timestamp_us,kind,origin"]
    lines += [f"{t:.4f},{kind},{origin}" for t, kind, origin in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_events_csv(path: str | Path) -> EventRecord:
    """Rebuild an EventRecord from CSV.

    The 3-column format stores no pair ids, so each release is matched FIFO
    to the oldest open capture of the same origin; event times and origins
    round-trip exactly, individual dwell pairings may not.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "timestamp_us,kind,origin":
        raise ValueError(f"{path}: not an event CSV (bad header)")
    open_caps: dict[str, list[int]] = {}
    captures: list[float] = []
    releases: list[float | None] = []
    origins: list[str] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            t_str, kind, origin = line.split(",")
            t = float(t_str)
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: malformed line") from exc
        if kind == "capture":
            open_caps.setdefault(origin, []).append(len(captures))
            captures.append(t)
            releases.append(None)
            origins.append(origin)
        elif kind == "release":
            queue = open_caps.get(origin, [])
            if not queue:
                raise ValueError(f"{path}: row {lineno}: release without open capture")
            releases[queue.pop(0)] = t
        else:
            raise ValueError(f"{path}: row {lineno}: unknown kind '{kind}'")
    if any(r is None for r in releases):
        raise ValueError(f"{path}: unmatched capture (missing release row)")
    origins_arr = np.array(origins) if origins else np.empty(0, dtype="U7")
    if origins and set(origins) == {"unknown"}:
        origins_arr = None
    return EventRecord(np.array(captures, dtype=float),
                       np.array(releases, dtype=float), origins_arr)


def write_trace(trace: TimeTrace, base_path: str | Path) -> tuple[Path, Path]:
    """Binary little-endian float64 samples plus a JSON sidecar."""
    base = Path(base_path)
    bin_path = base.with_suffix(".f64")
    meta_path = base.with_suffix(".json")
    trace.samples.astype("<f8", copy=False).tofile(bin_path)
    meta = {"sample_rate": trace.sample_rate_hz, "baseline": trace.baseline_v,
            "duration": trace.duration_s, "n_samples": trace.n_samples}
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return bin_path, meta_path


def read_trace(base_path: str | Path) -> TimeTrace:
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    bin_path = base.with_suffix(".f64")
    if bin_path.stat().st_size != 8 * meta["n_samples"]:
        raise ValueError(f"{base}: sample count does not match sidecar")
    samples = np.fromfile(bin_path, dtype="<f8")
    return TimeTrace(meta["sample_rate"], meta["baseline"], samples.astype(float, copy=False))
