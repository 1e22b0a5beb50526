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

The dead time blocks capture, not just the counter: a candidate inside it
never reaches the island. At the defaults (50 us dead time, 10 us mean
dwell) the island so rarely holds two electrons (under 1e-3 of transitions
at 10 kHz, n_bar 2) that an occupation histogram needs `dead_time_us: 0`.

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
import weakref
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import (check_memory, check_nonnegative, check_positive, finite_number, read_text,
               write_json)
from .materials import Polarization
from .source import CoherentPulseTrain

LN9 = math.log(9.0)  # 10-90% span of a single exponential, in time constants
_BLOCK_SAMPLES = 1 << 16  # samples per block rendered by `_render`
# Peak bytes per candidate capture in `simulate` when every candidate is
# accepted. When all are dark, the peak is the origin lookup: candidate times
# and dwells, the dark candidates' indices, the kept indices and three
# temporaries over them; tracemalloc reads 56 bytes. With photons, or half of
# each, it is the record and its checks: 50 bytes. At 1 MHz and n_bar 2 the
# dead time blocks nearly all candidates, and it reads 17.5.
_CANDIDATE_BYTES = 60

ORIGIN_PHOTON = "photon"
ORIGIN_DARK = "dark"
_AXIS_ANGLE_DEG = {Polarization.ARMCHAIR: 0.0, Polarization.ZIGZAG: 90.0}


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
    microsecond-scale pulse widths of the output traces. `step_amplitude_v`,
    the drop of the output per occupied trap, is positive, because
    `analysis.detect_events` finds downward pulses only. These defaults are
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
        check_nonnegative(**{name: getattr(self, name) for name in (
            "dark_rate_hz", "fall_time_us", "rise_time_us", "hold_time_mean_us", "dead_time_us",
            "noise_sigma_v")})
        check_positive(step_amplitude_v=self.step_amplitude_v)
        if not math.isfinite(self.baseline_v):
            raise ValueError(f"baseline_v must be finite, got {self.baseline_v}")
        if not self.max_occupancy >= 1:
            raise ValueError(f"max_occupancy must be at least 1, got {self.max_occupancy}")

    def absorptance(self, polarization: Polarization | str | float) -> float:
        """Effective absorptance for light polarized as `CoherentPulseTrain`
        takes it: unpolarized light gets the mean of the two axes, and
        armchair and zigzag are the angles 0 and 90 degrees."""
        if polarization == Polarization.UNPOLARIZED:
            return 0.5 * (self.absorptance_armchair + self.absorptance_zigzag)
        theta = math.radians(_AXIS_ANGLE_DEG.get(polarization, polarization))
        return (self.absorptance_armchair * math.cos(theta) ** 2
                + self.absorptance_zigzag * math.sin(theta) ** 2)


@dataclass
class EventRecord:
    """Capture/release event pairs; release i belongs to capture i.

    Times are finite and nonnegative and `capture_times_us` is sorted, all
    checked here; release times are not globally sorted because dwell times
    are exponential. Scheduled releases may fall past the simulated
    duration. `origins` is None for records recovered from traces, where the
    cause of each event is unknown.
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
        if not (np.all(self.capture_times_us >= 0) and np.all(np.isfinite(self.release_times_us))):
            raise ValueError("event times must be finite and nonnegative")
        if np.any(self.release_times_us < self.capture_times_us):
            raise ValueError("a release precedes its capture")
        if np.any(np.diff(self.capture_times_us) < 0):
            raise ValueError("capture times must be sorted")

    @property
    def n_captures(self) -> int:
        """Number of captured electrons."""
        return int(self.capture_times_us.size)

    @property
    def n_detections(self) -> int:
        """Number of distinct capture instants (what the counter registers)."""
        if self.capture_times_us.size == 0:
            return 0
        return 1 + int(np.count_nonzero(np.diff(self.capture_times_us)))


def _accept(times: np.ndarray, dwells: np.ndarray, dead_time_us: float,
            max_occupancy: float) -> array:
    """Indices of the sorted float64 candidate `times` that become captures.

    A candidate is accepted when it is at least `dead_time_us` after the last
    accepted one and fewer than `max_occupancy` accepted candidates still
    hold a slot; candidate i holds one until times[i] + dwells[i]. Only
    accepted candidates and those a full island blocks are visited. An
    acceptance whose dead time blocks the next candidate jumps to the first
    candidate at or past it by `bisect_left`: first inside a window twice
    as long as the previous jump, and over the rest of the array only when
    the window ends before the dead time does. The arrays are read through
    memoryviews, so each step handles Python floats, and the indices are
    collected in an `array("q")` that `np.frombuffer` reads without a copy.
    """
    kept = array("q")
    pending: list[float] = []
    tv, dv = memoryview(times), memoryview(dwells)
    i, n, jump = 0, len(tv), 0
    while i < n:
        t = tv[i]
        while pending and pending[0] <= t:
            heapq.heappop(pending)
        if len(pending) < max_occupancy:
            kept.append(i)
            heapq.heappush(pending, t + dv[i])
            end = t + dead_time_us
            i += 1
            if i < n and tv[i] < end:  # jump past the candidates the dead time blocks
                hi = i + 2 * jump
                if hi < n and tv[hi] >= end:
                    j = bisect_left(tv, end, i, hi)
                else:
                    j = bisect_left(tv, end, i, n)
                jump, i = j - i, j
        else:
            i += 1
    return kept


def simulate(params: DetectorParams, source: CoherentPulseTrain, duration_s: float,
             seed: int | np.random.SeedSequence) -> EventRecord:
    """Run one detection-cycle trial; deterministic for a given seed.

    Candidate captures (photons thinned onto `source.pulse_count` pulses,
    plus dark arrivals) are processed in time order against the occupancy
    cap and the non-paralyzable readout dead time; accepted captures schedule
    an exponential-dwell release. Raises ValueError, before any draw, when
    the expected candidates at `_CANDIDATE_BYTES` each exceed physical memory.
    """
    check_positive(duration_s=duration_s)
    f = source.repetition_rate_hz
    n_pulses = source.pulse_count(duration_s)
    mu = source.mean_photons * params.absorptance(source.polarization) * params.iqe
    expected = mu * n_pulses + params.dark_rate_hz * duration_s
    check_memory(expected * _CANDIDATE_BYTES,
                 f"{duration_s:g} s at {f:g} Hz expects {expected:.4g} candidate captures")

    rng = np.random.default_rng(seed)
    duration_us = duration_s * 1e6
    pulse_period_us = 1e6 / f
    photon_times = np.sort(rng.integers(0, n_pulses, size=rng.poisson(mu * n_pulses)))
    photon_times = photon_times * pulse_period_us

    n_dark = rng.poisson(params.dark_rate_hz * duration_s)
    dark_times = np.sort(rng.uniform(0.0, duration_us, size=n_dark))

    # Merge the two sorted streams; at equal times photons come first.
    dark_at = np.searchsorted(photon_times, dark_times, side="right")
    cand_times = np.insert(photon_times, dark_at, dark_times)
    dark_at += np.arange(n_dark)  # each dark candidate's index in the merged stream
    del photon_times, dark_times  # freed before the walk
    dwells = rng.exponential(params.hold_time_mean_us, size=cand_times.size)

    kept = np.frombuffer(_accept(cand_times, dwells, params.dead_time_us,
                                 params.max_occupancy), dtype=np.int64)
    # Both index arrays are sorted, so each kept index finds its equal in
    # dark_at, if it has one, where searchsorted puts it; -1 pads the end.
    # (np.isin would sort both, and its np.unique imports numpy.ma.)
    is_dark = np.append(dark_at, -1)[np.searchsorted(dark_at, kept)] == kept
    captures = cand_times[kept]
    releases = captures + dwells[kept]
    del cand_times, dwells, dark_at, kept  # freed before the record is built
    return EventRecord(captures, releases, np.where(is_dark, ORIGIN_DARK, ORIGIN_PHOTON))


@dataclass
class TimeTrace:
    """Uniformly sampled output voltage; sample i sits at i / sample_rate.
    `samples` is an array, or maps the open `file`, which the trace keeps and
    closes once the samples are collected, so a copy of the trace may outlive
    it. `analysis` checks each window it reads finite."""

    sample_rate_hz: float
    samples: np.ndarray
    file: BinaryIO | None = None

    def __post_init__(self):
        check_positive(sample_rate_hz=self.sample_rate_hz)
        self.samples = np.asanyarray(self.samples, dtype=float)  # a map stays a map
        if self.file is not None:
            weakref.finalize(self.samples, self.file.close)

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def windows(self, starts: np.ndarray, stops: np.ndarray):
        """Yield samples[start:stop] for each start and stop: views of an
        array, or, since a page touched through a map stays resident, one
        positioned read each of the mapped `file` into one buffer, which the
        next window reuses."""
        if self.file is None:
            yield from (self.samples[start:stop] for start, stop in zip(starts, stops))
            return
        buf = np.empty(int(np.max(stops - starts, initial=0)), dtype="<f8")
        for start, stop in zip(starts, stops):
            window = buf[:stop - start]
            if os.preadv(self.file.fileno(), [window], 8 * int(start)) != window.nbytes:
                raise ValueError(f"{self.file.name}: shorter than its map")
            yield window


def _create(path: str | Path) -> BinaryIO:
    """A new file at `path`; an old one is unlinked, not truncated, as a trace may map it."""
    Path(path).unlink(missing_ok=True)
    return open(path, "x+b")


def _mapped(file: BinaryIO, sample_rate_hz: float) -> TimeTrace:
    """The trace whose samples fill the open `file`, which it maps and keeps."""
    size = file.seek(0, os.SEEK_END)  # flushes a write; an empty file cannot be mapped
    samples = np.memmap(file, dtype="<f8", mode="r") if size else np.empty(0)
    return TimeTrace(sample_rate_hz, samples, file)


def check_trace(params: DetectorParams, duration_s: float, sample_rate_hz: float) -> int:
    """Sample count of a `synthesize_trace` trace; raises ValueError, before
    anything is allocated, for a duration or sample rate that is not positive
    and finite, or a sample rate too slow for the edges."""
    check_positive(duration_s=duration_s, sample_rate_hz=sample_rate_hz)
    n = int(round(duration_s * sample_rate_hz))
    for edge in (params.fall_time_us, params.rise_time_us):
        need_hz = 10.0 / (edge * 1e-6) if edge > 0 else 0.0
        if sample_rate_hz < need_hz:
            raise ValueError(
                f"sample rate {sample_rate_hz:g} Hz too low to resolve a "
                f"{edge:g} us edge (need >= {need_hz:g} Hz)")
    return n


def _render(events: EventRecord, params: DetectorParams, n: int, sample_rate_hz: float,
            seed: int | np.random.SeedSequence):
    """Yield the `n` samples of `synthesize_trace`'s trace in consecutive
    blocks of `_BLOCK_SAMPLES`.

    Level = baseline - step_amplitude * occupancy, with exponential edges on
    every transition (superposed, so overlapping events stack) plus white
    Gaussian noise. The level is kept as runs, one per sample on which
    transitions start, holding the sum of their signs: exact integers, so a
    per-sample cumsum's values. A block finds its runs, and the transitions
    whose edges reach it, by `searchsorted`, so its scratch stays within a
    few MB whatever the trace length and the event count. Each sample adds
    its level, capture edges and release edges, each in event order, then
    noise.

    The noise is drawn on a one-worker `ThreadPoolExecutor`, one task per
    block and one block ahead: each block submits the next block's draw as
    it takes its own, so at most one draw (512 KB) waits. numpy releases the
    interpreter lock while it draws, so the draw can run beside the level,
    the edges and the caller's write when the worker gets a second CPU. The
    one worker runs the draws in order from the one generator, so they join
    into the stream of a single full-length draw and the samples keep their
    bytes. The executor is shut down, its worker ended, when the blocks are
    exhausted, closed or collected, and a draw that raises is raised by the
    caller.
    """
    rng = np.random.default_rng(seed)
    dt_us = 1e6 / sample_rate_hz
    step = params.step_amplitude_v

    # First sample at or after each transition; transitions past the trace
    # leave no mark on it. Exponential transients restore continuity at each
    # transition and decay toward the new level; windows are truncated once
    # exp < 1e-12. Sorted by start, the transitions that reach a block are one
    # slice.
    transitions, edges = [], []
    for times, sign, edge in ((events.capture_times_us, 1.0, params.fall_time_us),
                              (events.release_times_us, -1.0, params.rise_time_us)):
        starts = np.ceil(times / dt_us - 1e-12).astype(int)
        starts, times = starts[starts < n], times[starts < n]
        transitions.append((starts, sign))
        if edge > 0:  # else instantaneous
            tau = edge / LN9  # single-exponential edge: its 10-90% span is exactly `edge`
            span = int(math.ceil(27.7 * tau / dt_us)) + 1
            order = np.argsort(starts, kind="stable")
            edges.append((starts, times, sign * step, tau, span, order, starts[order]))

    run_starts, run_of = np.unique(np.concatenate([starts for starts, _ in transitions]),
                                   return_inverse=True)
    signs = np.concatenate([np.full(starts.size, sign) for starts, sign in transitions])
    volts = np.zeros(run_starts.size + 1)  # [0] holds the run before any transition
    np.cumsum(np.bincount(run_of, weights=signs, minlength=run_starts.size), out=volts[1:])
    volts *= -step  # occupancy, turned into volts in place
    volts += params.baseline_v

    pool = ahead = None
    if params.noise_sigma_v > 0:
        # here: a noiseless trace, and every other command, need no executor
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1, thread_name_prefix="spdsim-noise")
    try:
        if pool is not None:
            ahead = pool.submit(rng.normal, 0.0, params.noise_sigma_v, min(n, _BLOCK_SAMPLES))
        for lo in range(0, n, _BLOCK_SAMPLES):
            hi = min(n, lo + _BLOCK_SAMPLES)
            a, b = np.searchsorted(run_starts, [lo, hi - 1], side="right")
            block = np.repeat(volts[a:b + 1], np.diff(run_starts[a:b], prepend=lo, append=hi))
            for starts, times, amp, tau, span, order, by_start in edges:
                first, last = np.searchsorted(by_start, [lo - span + 1, hi])
                rows = np.sort(order[first:last])  # event order: `np.add.at` adds row by row
                per = max(1, _BLOCK_SAMPLES // span)
                for k in range(0, rows.size, per):  # each edge from its first sample in the block
                    sel = rows[k:k + per]
                    idx = np.maximum(starts[sel], lo)[:, None] + np.arange(min(span, hi - lo))
                    vals = amp * np.exp(-(idx * dt_us - times[sel, None]) / tau)
                    ok = (idx < hi) & (idx < starts[sel, None] + span)
                    np.add.at(block, idx[ok] - lo, vals[ok])
            if ahead is not None:
                noise = ahead.result()
                if hi < n:  # the next block's, drawn while this one is added and used
                    ahead = pool.submit(rng.normal, 0.0, params.noise_sigma_v,
                                        min(n - hi, _BLOCK_SAMPLES))
                block += noise
            yield block
    finally:
        if pool is not None:
            pool.shutdown()


def synthesize_trace(events: EventRecord, params: DetectorParams, duration_s: float,
                     sample_rate_hz: float, seed: int | np.random.SeedSequence,
                     path: str | Path | None = None) -> TimeTrace:
    """Render the occupancy ledger as a noisy voltage trace (`_render`): into
    one float64 array, which must fit in physical memory, or, given a `path`,
    block by block into that file, in `write_trace`'s format, mapped."""
    n = check_trace(params, duration_s, sample_rate_hz)
    blocks = _render(events, params, n, sample_rate_hz, seed)
    if path is not None:
        f = _create(path)
        try:
            for block in blocks:
                f.write(block.astype("<f8", copy=False))
        except BaseException:
            blocks.close()  # ends the noise worker before the error leaves
            f.close()
            raise
        return _mapped(f, sample_rate_hz)
    check_memory(8 * n, f"trace of {n} samples ({duration_s:g} s at {sample_rate_hz:g} Hz)")
    samples = np.empty(n)
    lo = 0
    for block in blocks:  # to the end, where `_render` ends its noise worker
        samples[lo:lo + block.size] = block
        lo += block.size
    return TimeTrace(sample_rate_hz, samples)


# ---------------------------------------------------------------------------
# File formats

_HEADER = "timestamp_us,kind,origin"
_KINDS = ("capture", "release")  # indexed by "is a release"


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, first): a stable argsort of `values` and, along it, True where
    a run of equal values starts. On a few distinct strings numpy's stable
    sort is several times faster than the default sort `np.unique` uses."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(values.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, first


def write_events_csv(record: EventRecord, path: str | Path) -> None:
    """CSV rows `timestamp_us,kind,origin` merged in time order.

    At equal times captures come before releases, and rows of one kind keep
    the record's order. Each row's `,kind,origin\\n` label is picked from a
    table of one label per (kind, origin) pair, and one % call formats
    every row. An origin with a comma or a line break, which would split its
    rows, raises before the file is created.
    """
    n = record.n_captures
    origins = record.origins if record.origins is not None else np.full(n, "unknown")
    by_origin, first = _runs(origins)
    names = origins[by_origin[first]].tolist()
    for name in names:
        if any(c in name for c in ",\n\r"):
            raise ValueError(f"{path}: origin {name!r} holds a comma or a line break")
    code = np.empty(n, dtype=np.intp)
    code[by_origin] = np.cumsum(first) - 1
    labels = np.array([f",{kind},{name}\n" for kind in _KINDS for name in names], dtype=object)
    times = np.concatenate([record.capture_times_us, record.release_times_us])
    order = np.argsort(times, kind="stable")  # captures hold the lower indices
    cells = [None] * (4 * n)
    cells[0::2] = times[order].tolist()
    cells[1::2] = labels[np.concatenate([code, code + len(names)])[order]].tolist()
    Path(path).write_text(f"{_HEADER}\n" + ("%.4f%s" * (2 * n)) % tuple(cells),
                          encoding="utf-8")


def _data_lines(body: str) -> list[tuple[int, str]]:
    """(line number, line) of each row `np.loadtxt` parses from the text after
    the header: every non-empty line."""
    return [(n, line) for n, line in enumerate(body.split("\n"), start=2) if line]


def _malformed_row(body: str) -> int | None:
    """Line number of the first row that is not a number and two more fields."""
    for n, line in _data_lines(body):
        t, *rest = line.split(",")
        try:
            float(t)
        except ValueError:
            return n
        if len(rest) != 2:
            return n
    return None


def read_events_csv(path: str | Path) -> EventRecord:
    """Rebuild an EventRecord from CSV.

    The 3-column format stores no pair ids, so each release is matched FIFO
    to the oldest open capture of the same origin: the k-th release row of an
    origin closes its k-th capture row. Event times and origins round-trip
    exactly, individual dwell pairings may not. The file is read once:
    `np.loadtxt` parses the lines after the header and skips empty ones.
    Errors name the file, and the line of the row at fault where there is one.
    """
    header, _, body = read_text(path).partition("\n")
    if header.strip() != _HEADER:
        raise ValueError(f"{path}: not an event CSV (bad header)")
    if not body.strip():
        return EventRecord(np.empty(0), np.empty(0), np.empty(0, dtype="U7"))
    width = 8  # a kind longer than 7 characters stays unequal to both kinds
    while True:
        try:
            rows = np.loadtxt(body.split("\n"), delimiter=",", comments=None, ndmin=1,
                              dtype=[("t", "f8"), ("k", "U8"), ("o", f"U{width}")])
        except ValueError as exc:
            row = _malformed_row(body)
            raise ValueError(f"{path}: " + (f"row {row}: " if row else "")
                             + "malformed line") from exc
        if np.char.str_len(rows["o"]).max() < width:
            break
        width *= 4  # an origin may have been cut to the field width: parse wider
    times, kinds, origins = rows["t"], rows["k"], rows["o"]

    is_release = kinds == "release"
    unknown = ~is_release & (kinds != "capture")
    if unknown.any():
        n, line = _data_lines(body)[int(unknown.argmax())]
        raise ValueError(f"{path}: row {n}: unknown kind '{line.split(',')[1]}'")

    # Rows grouped by origin, each group in row order. Within a group no
    # release may come before a capture is open for it.
    by_origin, first = _runs(origins)
    steps = np.where(is_release[by_origin], -1, 1)
    open_caps = np.cumsum(steps)
    starts = np.flatnonzero(first)
    open_caps -= np.repeat(open_caps[starts] - steps[starts],
                           np.diff(starts, append=steps.size))
    if (open_caps < 0).any():
        n, _ = _data_lines(body)[int(by_origin[open_caps < 0].min())]
        raise ValueError(f"{path}: row {n}: release without open capture")
    caps, rels = by_origin[steps > 0], by_origin[steps < 0]
    if caps.size != rels.size:
        raise ValueError(f"{path}: unmatched capture (missing release row)")

    release_times = np.empty(times.size)
    release_times[caps] = times[rels]  # the k-th release of each origin closes its k-th capture
    cap_rows = np.flatnonzero(~is_release)
    origins = origins[cap_rows]
    origins = None if (origins == "unknown").all() else \
        origins.astype(f"U{max(1, int(np.char.str_len(origins).max()))}")
    try:
        return EventRecord(times[cap_rows], release_times[cap_rows], origins)
    except ValueError as exc:  # rows that parse but break the record's rules
        raise ValueError(f"{path}: {exc}") from exc


def write_trace(trace: TimeTrace, base_path: str | Path) -> tuple[Path, Path]:
    """Binary little-endian float64 samples plus a JSON sidecar. The samples
    are written through `trace.windows` in blocks of `_BLOCK_SAMPLES`, so a
    mapped trace is copied in bounded memory; samples mapped from that
    binary file are there already, and are left alone."""
    base = Path(base_path)
    bin_path = base.with_suffix(".f64")
    meta_path = base.with_suffix(".json")
    if not (trace.file is not None and bin_path.exists()
            and os.path.samestat(os.fstat(trace.file.fileno()), bin_path.stat())):
        starts = np.arange(0, trace.n_samples, _BLOCK_SAMPLES)
        with _create(bin_path) as f:
            for window in trace.windows(starts, np.minimum(starts + _BLOCK_SAMPLES,
                                                           trace.n_samples)):
                f.write(np.ascontiguousarray(window, dtype="<f8"))  # a view, when it can be
    write_json(meta_path, {"sample_rate": trace.sample_rate_hz, "duration": trace.duration_s,
                           "n_samples": trace.n_samples})
    return bin_path, meta_path


def read_trace(base_path: str | Path) -> TimeTrace:
    """The trace `write_trace` wrote, its samples mapped and not yet read."""
    base = Path(base_path)
    meta_path = base.with_suffix(".json")
    meta = read_text(meta_path, json.loads)
    rate, n = (finite_number(meta, meta_path, key) for key in ("sample_rate", "n_samples"))
    if not (rate > 0 and n == int(n)):
        raise ValueError(f"{meta_path}: sample_rate must be positive and n_samples whole")
    f = open(base.with_suffix(".f64"), "rb")
    if f.seek(0, os.SEEK_END) != 8 * n:
        f.close()
        raise ValueError(f"{base}: sample count does not match sidecar")
    return _mapped(f, rate)
