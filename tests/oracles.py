"""Independent reference implementations used only by the tests.

The stack response here deliberately avoids the characteristic-matrix
formulation and the package's sign conventions: complex indices are n + ik
with exp(-iwt) time dependence, and the response is the closed-form geometric
summation of Fresnel bounce paths (Airy recursion), built from interface
reflection and transmission amplitudes only. `characteristic_matrix` is the
per-layer textbook matrix, written out without the package's kernel.
`poisson_pmf` and `multi_photon_probability` are the closed forms that the
`_series` sums check, and `occupancy_series` is an event record's occupancy
after each capture and release.
`write_events_csv_rows`, `synthesize_trace_loop` and `detect_events_loop` are
the row-by-row, transition-by-transition and event-by-event forms of the event
CSV writer, the trace renderer and the event detector; the package's array
forms must give the same bytes. `read_events_csv_rows` is the line-by-line
event CSV reader, whose arrays and errors the package's reader must match.
`estimate_baseline_histogram` takes each window's mode from `np.histogram`,
which the package bins in its own scratch. `eligible_edge_events` picks the
events whose edges can be timed one event at a time, comparing each with
every other, where the package takes a running maximum.
"""

from __future__ import annotations

import heapq
import math
from pathlib import Path

import numpy as np

from spdsim.detsim import EventRecord, TimeTrace, check_trace
from spdsim.materials import Polarization, index_at


def fresnel_r(n_from: complex, n_to: complex) -> complex:
    return (n_from - n_to) / (n_from + n_to)


def fresnel_t(n_from: complex, n_to: complex) -> complex:
    return 2 * n_from / (n_from + n_to)


def bounce_series_rt(n_incident: complex, layers: list[tuple[complex, float]],
                     n_exit: complex, wavelength_nm: float) -> tuple[float, float]:
    """(R, T) of a thin-film stack by summing multiple-reflection paths.

    `layers` holds (n + ik, thickness_nm) pairs, top to bottom. The incident
    medium must be lossless.
    """
    media = [n_incident] + [n for n, _ in layers] + [n_exit]
    phases = [np.exp(1j * 2 * np.pi * n * d / wavelength_nm) for n, d in layers]

    r_below = fresnel_r(media[-2], media[-1])
    t_below = fresnel_t(media[-2], media[-1])
    for j in range(len(layers) - 1, -1, -1):
        # Looking from medium j down through layer j+1 (media index j+1).
        r01 = fresnel_r(media[j], media[j + 1])
        t01 = fresnel_t(media[j], media[j + 1])
        phi = phases[j]
        denom = 1 + r01 * r_below * phi ** 2
        r_total = (r01 + r_below * phi ** 2) / denom
        t_total = t01 * t_below * phi / denom
        r_below, t_below = r_total, t_total

    big_r = abs(r_below) ** 2
    big_t = abs(t_below) ** 2 * np.real(n_exit) / np.real(n_incident)
    return float(big_r), float(big_t)


def characteristic_matrix(layer, wavelength_nm: float,
                          axis: Polarization | str = Polarization.ARMCHAIR) -> np.ndarray:
    """[[cos d, i sin d / N], [i N sin d, cos d]] with d = 2 pi N t / lambda and
    N = n - ik (Macleod, Thin-Film Optical Filters, ch. 2)."""
    big_n = np.conj(index_at(layer.material, wavelength_nm, axis))
    d = 2 * np.pi * big_n * layer.thickness_nm / wavelength_nm
    return np.array([[np.cos(d), 1j * np.sin(d) / big_n],
                     [1j * big_n * np.sin(d), np.cos(d)]], dtype=complex)


def poisson_pmf_series(n_bar: float, n: int) -> float:
    """Poisson pmf by explicit product, no log-space tricks."""
    p = math.exp(-n_bar)
    for i in range(1, n + 1):
        p *= n_bar / i
    return p


def poisson_pmf(n_bar: float, n: int) -> float:
    """P(n) = exp(-n_bar) n_bar^n / n!, evaluated in log space for stability."""
    if n_bar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    n = int(n)
    if n_bar == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-n_bar + n * math.log(n_bar) - math.lgamma(n + 1))


def multi_photon_probability(n_bar: float) -> float:
    """Probability of a pulse carrying more than one photon: 1 - e^-n (1 + n)."""
    if n_bar < 0:
        raise ValueError("mean photon number must be nonnegative")
    # -expm1 keeps precision for n_bar << 1 where the direct form cancels.
    return -math.expm1(-n_bar) - n_bar * math.exp(-n_bar)


def multi_photon_series(n_bar: float, n_max: int = 200) -> float:
    """P(n >= 2) by direct series summation."""
    return sum(poisson_pmf_series(n_bar, n) for n in range(2, n_max + 1))


def per_pulse_detection_probability(n_bar: float, eta: float, n_max: int = 80) -> float:
    """Sum_n P(n) (1 - (1 - eta)^n): chance a pulse yields >= 1 capture."""
    return sum(poisson_pmf_series(n_bar, n) * (1.0 - (1.0 - eta) ** n)
               for n in range(0, n_max + 1))


def match_events(true_times: np.ndarray, found_times: np.ndarray,
                 tolerance_us: float) -> int:
    """Greedy 1-1 matching of detected to true event times."""
    used = np.zeros(found_times.size, dtype=bool)
    matched = 0
    for t in np.asarray(true_times, dtype=float):
        i = np.searchsorted(found_times, t)
        for j in (i - 1, i, i + 1):
            if 0 <= j < found_times.size and not used[j] \
                    and abs(found_times[j] - t) <= tolerance_us:
                used[j] = True
                matched += 1
                break
    return matched


def accept_loop(times: np.ndarray, dwells: np.ndarray, dead_time_us: float,
                max_occupancy: float) -> list[int]:
    """Accepted candidate indices by visiting every candidate in time order.

    Non-paralyzable dead time after each accepted candidate; an accepted
    candidate holds one of `max_occupancy` slots until times[i] + dwells[i].
    """
    kept: list[int] = []
    pending: list[float] = []
    occupancy = 0
    dead_until = -math.inf
    for i in range(times.size):
        t = times[i]
        while pending and pending[0] <= t:
            heapq.heappop(pending)
            occupancy -= 1
        if t >= dead_until and occupancy < max_occupancy:
            occupancy += 1
            heapq.heappush(pending, t + dwells[i])
            kept.append(i)
            if dead_time_us > 0:
                dead_until = t + dead_time_us
    return kept


def occupancy_series(record: EventRecord) -> tuple[np.ndarray, np.ndarray]:
    """(transition times, occupancy after each transition), time-ordered.

    Captures are applied before releases at equal timestamps, so the
    series is the worst-case instantaneous occupancy.
    """
    times = np.concatenate([record.capture_times_us, record.release_times_us])
    steps = np.concatenate([np.ones(record.n_captures, dtype=int),
                            -np.ones(record.n_captures, dtype=int)])
    order = np.lexsort((-steps, times))
    return times[order], np.cumsum(steps[order])


def write_events_csv_rows(record: EventRecord, path: str | Path) -> None:
    """CSV rows `timestamp_us,kind,origin` merged in time order, one tuple per row."""
    n = record.n_captures
    origins = record.origins if record.origins is not None else np.full(n, "unknown")
    rows = [(record.capture_times_us[i], "capture", origins[i]) for i in range(n)]
    rows += [(record.release_times_us[i], "release", origins[i]) for i in range(n)]
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["timestamp_us,kind,origin"]
    lines += [f"{t:.4f},{kind},{origin}" for t, kind, origin in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_events_csv_rows(path: str | Path) -> EventRecord:
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


def synthesize_trace_loop(events: EventRecord, params, duration_s: float,
                          sample_rate_hz: float, seed) -> TimeTrace:
    """The occupancy trace with each transition's edge added by its own slice."""
    n = check_trace(params, duration_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    dt_us = 1e6 / sample_rate_hz
    step = params.step_amplitude_v

    jump = np.zeros(n + 1)
    for times, sign in ((events.capture_times_us, 1.0),
                        (events.release_times_us, -1.0)):
        idx = np.ceil(times / dt_us - 1e-12).astype(int)
        idx = idx[(idx >= 0) & (idx < n)]
        np.add.at(jump, idx, sign)
    level = np.cumsum(jump[:n])
    del jump
    level *= -step
    level += params.baseline_v

    for times, sign, edge in ((events.capture_times_us, 1.0, params.fall_time_us),
                              (events.release_times_us, -1.0, params.rise_time_us)):
        if edge <= 0:
            continue
        tau = edge / math.log(9.0)
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
    return TimeTrace(sample_rate_hz, level)


def estimate_baseline_histogram(trace: TimeTrace, window_s: float) -> tuple[np.ndarray, np.ndarray]:
    """(start index, histogram mode) of each consecutive baseline window.

    Window i runs from starts[i] to the next start, the last one to the end
    of the trace; a tail shorter than half a window is folded into the
    window before it. The mode tracks the quiescent level even when a
    sizeable fraction of the window sits at depressed occupancy levels. Slow
    drift is followed at the window granularity. Raises for constant traces
    and traces shorter than one window.
    """
    n = trace.n_samples
    w = int(round(window_s * trace.sample_rate_hz))
    if w < 8:
        raise ValueError("baseline window must span at least 8 samples")
    if n < w:
        raise ValueError(f"trace ({n} samples) shorter than baseline window ({w})")
    if np.ptp(trace.samples) == 0:
        raise ValueError("degenerate trace: constant signal")

    starts = np.arange(0, n, w)
    if starts.size > 1 and n - starts[-1] < w // 2:
        starts = starts[:-1]  # fold a short tail into the previous window
    modes = np.empty(starts.size)
    for i, (start, stop) in enumerate(zip(starts, np.append(starts[1:], n))):
        counts, edges = np.histogram(trace.samples[start:stop], bins=101)
        k = np.argmax(counts)
        modes[i] = 0.5 * (edges[k] + edges[k + 1])
    return starts, modes


def detect_events_loop(trace: TimeTrace, threshold_v: float, hysteresis_v: float,
                       min_width_us: float, baseline_window_s: float = 0.01) -> EventRecord:
    """Hysteresis thresholding of downward pulses.

    A capture fires when the trace drops below baseline - threshold; the
    matching release fires when it climbs back above
    baseline - (threshold - hysteresis). Events narrower than `min_width_us`
    are discarded, as is an event still open at the end of the trace.
    """
    if not (threshold_v > hysteresis_v > 0):
        raise ValueError("need threshold > hysteresis > 0")
    starts, modes = estimate_baseline_histogram(trace, baseline_window_s)
    rel = np.repeat(modes, np.diff(starts, append=trace.n_samples))  # per-sample baseline
    np.subtract(trace.samples, rel, out=rel)  # samples - baseline, in the baseline's buffer

    below = rel < -threshold_v
    above = rel > -(threshold_v - hysteresis_v)
    down = np.nonzero(below[1:] & ~below[:-1])[0] + 1
    up = np.nonzero(above[1:] & ~above[:-1])[0] + 1
    if below[0]:
        down = np.insert(down, 0, 0)

    dt_us = 1e6 / trace.sample_rate_hz
    captures = []
    releases = []
    pos = 0
    while True:
        j = np.searchsorted(down, pos)
        if j >= down.size:
            break
        d = down[j]
        k = np.searchsorted(up, d + 1)
        if k >= up.size:
            break  # event still open at end of trace
        u = up[k]
        if (u - d) * dt_us >= min_width_us:
            captures.append(d * dt_us)
            releases.append(u * dt_us)
        pos = u + 1
    return EventRecord(np.array(captures), np.array(releases), origins=None)


def eligible_edge_events(events: EventRecord, n_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Mask of the events `analysis.mean_edge_times` times: each dwells over
    15 us, the release of every event before it in the record precedes its
    capture by over 20 us, every later capture follows its release by over
    12 us, and its edge windows, 4 us before to 12 us after each instant on
    the sample grid, lie inside the trace's `n_samples`."""
    dt = 1e6 / sample_rate_hz
    caps, rels = events.capture_times_us.tolist(), events.release_times_us.tolist()
    keep = np.zeros(len(caps), dtype=bool)
    for i, (cap, rel) in enumerate(zip(caps, rels)):
        quiet_before = all(cap - rels[j] > 20.0 for j in range(i))
        quiet_after = all(caps[j] - rel > 12.0 for j in range(i + 1, len(caps)))
        inside = (round(cap / dt) - round(4.0 / dt) >= 0
                  and round(rel / dt) + round(12.0 / dt) <= n_samples)
        keep[i] = rel - cap > 15.0 and quiet_before and quiet_after and inside
    return keep
