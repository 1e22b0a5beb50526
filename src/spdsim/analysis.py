"""Event recovery, occupation histograms, edge timing and efficiency estimators.

Mirrors the measurement pipeline: threshold the output trace into
capture/release events, histogram the voltage into occupation levels, time
the edges of the mean event, count events against the calibrated photon
flux, and extract the external quantum efficiency either by direct dark
subtraction or from the slope of counts versus repetition frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import check_memory, check_nonnegative, check_positive
from .detsim import LN9, EventRecord, TimeTrace
from .source import PowerReading

BASELINE_WINDOW_S = 0.01  # the span of each baseline window of `detect_events`
_HISTOGRAM_WINDOW = 1 << 16  # samples per read of `occupation_histogram`
_PROMINENCE_FRACTION = 0.05  # least peak prominence of `occupation_histogram`, per tallest bin


def estimate_baseline(trace: TimeTrace, window_s: float) -> tuple[np.ndarray, np.ndarray]:
    """(start index, histogram mode) of each consecutive baseline window.

    Window i runs from starts[i] to the next start, the last one to the end
    of the trace; a tail shorter than half a window is folded into the
    window before it. The mode tracks the quiescent level even when a
    sizeable fraction of the window sits at depressed occupancy levels. Slow
    drift is followed at the window granularity. Raises for constant traces,
    traces shorter than one window, and a window not finite or under 8 samples.

    The mode is that of `np.histogram(window, bins=101)`, bin for bin, binned
    in one window-sized scratch that the call allocates once.
    """
    n = trace.n_samples
    w = window_s * trace.sample_rate_hz
    if not 7.5 <= w < math.inf:  # round(w) >= 8; written so that NaN fails
        raise ValueError(f"window_s must be finite and span at least 8 samples, got {window_s}")
    w = round(w)
    if n < w:
        raise ValueError(f"trace ({n} samples) shorter than baseline window ({w})")

    starts = np.arange(0, n, w)
    if starts.size > 1 and n - starts[-1] < w // 2:
        starts = starts[:-1]  # fold a short tail into the previous window
    stops = np.append(starts[1:], n)
    size = int(np.max(stops - starts))
    scratch = np.empty(size), np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    modes = np.empty(starts.size)
    lows, highs = np.empty(starts.size), np.empty(starts.size)
    for i, window in enumerate(trace.windows(starts, stops)):
        modes[i], lows[i], highs[i] = _mode(window, scratch)
    if lows.min() == highs.max():
        raise ValueError("degenerate trace: constant signal")
    if np.isnan(modes).any():  # np.histogram's error
        raise ValueError("Too many bins for data range. Cannot create 101 finite-sized bins.")
    return starts, modes


def _mode(window: np.ndarray, scratch) -> tuple[float, float, float]:
    """(centre of the fullest bin, min, max) of `np.histogram(window, bins=101)`;
    the centre is NaN where np.histogram raises for too narrow a range.

    numpy's equal-bin steps, in its order and its float operations, written
    into the (float, intp, bool) `scratch`, each at least the window's size.
    """
    f, idx, mask = (buf[:window.size] for buf in scratch)
    a_min, a_max = window.min(), window.max()
    if not (np.isfinite(a_min) and np.isfinite(a_max)):  # where every trace is checked
        raise ValueError("trace contains non-finite samples")
    lo, hi = (a_min - 0.5, a_max + 0.5) if a_min == a_max else (a_min, a_max)
    edges = np.linspace(lo, hi, 102)
    if np.any(edges[:-1] >= edges[1:]):
        return math.nan, a_min, a_max  # the range is too narrow for 101 bins
    upper = np.append(edges[1:-1], np.inf)  # the last bin includes its right edge
    np.subtract(window, lo, out=f)
    f /= hi - lo
    f *= 101
    np.copyto(idx, f, casting="unsafe")  # truncates, as astype(np.intp)
    np.minimum(idx, 100, out=idx)  # the maximum lands on the last bin
    # The index is good to ~1 ulp at the edges; numpy corrects it downward,
    # then upward.
    np.less(window, np.take(edges, idx, out=f, mode="clip"), out=mask)
    idx -= mask
    np.greater_equal(window, np.take(upper, idx, out=f, mode="clip"), out=mask)
    idx += mask
    k = int(np.argmax(np.bincount(idx, minlength=101)))
    return 0.5 * (edges[k] + edges[k + 1]), a_min, a_max


def detect_events(trace: TimeTrace, threshold_v: float, hysteresis_v: float,
                  min_width_us: float, baseline_window_s: float = BASELINE_WINDOW_S) -> EventRecord:
    """Hysteresis thresholding of downward pulses.

    A capture fires when the trace drops below baseline - threshold; the
    matching release fires when it climbs back above
    baseline - (threshold - hysteresis). Events narrower than `min_width_us`
    are discarded, as is an event still open at the end of the trace.
    Thresholding runs one baseline window at a time, in one relative-voltage
    buffer and one mask allocated at the largest window's size.
    """
    check_detection(threshold_v, hysteresis_v, min_width_us, baseline_window_s)
    starts, modes = estimate_baseline(trace, baseline_window_s)
    stops = np.append(starts[1:], trace.n_samples)

    # Each mask carries its last value into the next window, so a turn on a
    # window edge counts once.
    size = int(np.max(stops - starts))
    rel_buf, mask_buf = np.empty(size), np.empty(size, dtype=bool)
    downs, ups = [], []
    below = above = False
    for start, window, mode in zip(starts, trace.windows(starts, stops), modes):
        rel, mask = rel_buf[:window.size], mask_buf[:window.size]
        np.subtract(window, mode, out=rel)
        np.less(rel, -threshold_v, out=mask)
        downs.append(_turns_true(mask, below) + start)
        below = bool(mask[-1])
        np.greater(rel, -(threshold_v - hysteresis_v), out=mask)
        ups.append(_turns_true(mask, above) + start)
        above = bool(mask[-1])
    down, up = np.concatenate(downs), np.concatenate(ups)
    # A capture pairs with the first release after it. No sample is both below
    # and above, so the captures between an accepted one and its release share
    # it: keep the first per release. The rest are events open at the end.
    k = np.searchsorted(up, down, side="right")
    first = np.flatnonzero((k < up.size) & (np.diff(k, prepend=-1) != 0))
    d, u = down[first], up[k[first]]
    dt_us = 1e6 / trace.sample_rate_hz
    wide = (u - d) * dt_us >= min_width_us
    return EventRecord(d[wide] * dt_us, u[wide] * dt_us, origins=None)


def check_detection(threshold_v: float, hysteresis_v: float, min_width_us: float,
                    baseline_window_s: float) -> None:
    """The rules of `detect_events`, apart from its work: raise ValueError,
    naming the parameter, unless threshold_v > hysteresis_v > 0,
    min_width_us >= 0 and baseline_window_s > 0, each finite."""
    check_positive(hysteresis_v=hysteresis_v, baseline_window_s=baseline_window_s)
    check_nonnegative(min_width_us=min_width_us)
    if not hysteresis_v < threshold_v < math.inf:
        raise ValueError(f"threshold_v must be finite and exceed hysteresis_v, got {threshold_v}")


def _turns_true(mask: np.ndarray, before: bool) -> np.ndarray:
    """Indices where `mask` turns true; 0 among them when it starts true after
    a false `before`, the value that precedes it."""
    idx = np.flatnonzero(mask[1:] > mask[:-1]) + 1
    return np.insert(idx, 0, 0) if mask[0] and not before else idx


@dataclass
class HistogramResult:
    counts: np.ndarray
    bin_centers: np.ndarray
    peak_levels_v: np.ndarray  # descending voltage; first entry is the empty-island level


def occupation_histogram(trace: TimeTrace, bin_width_v: float) -> HistogramResult:
    """Value histogram of the trace with occupation-level peaks.

    Peaks are local maxima whose prominence is at least `_PROMINENCE_FRACTION`
    of the tallest bin. Levels are returned in descending voltage, so the first
    one corresponds to the empty island. The trace is read in windows of
    `_HISTOGRAM_WINDOW` samples, twice: for its range, then for the counts,
    which are those of `np.histogram` of the whole trace on the same edges.
    A bin width whose bins would not fit in physical memory raises ValueError
    before the bins are allocated.
    """
    check_positive(bin_width_v=bin_width_v)
    n = trace.n_samples
    if n == 0:
        raise ValueError("trace has no samples")
    starts = np.arange(0, n, _HISTOGRAM_WINDOW)
    stops = np.minimum(starts + _HISTOGRAM_WINDOW, n)
    lows, highs = np.empty(starts.size), np.empty(starts.size)
    for i, window in enumerate(trace.windows(starts, stops)):
        lows[i], highs[i] = window.min(), window.max()
    lo, hi = float(lows.min()), float(highs.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("trace contains non-finite samples")
    if hi - lo < bin_width_v:
        value = 0.5 * (lo + hi)
        return HistogramResult(np.array([n]), np.array([value]), np.array([value]))
    # The memory peak is the max and min tables of `_prominent_peaks`: 8 bytes
    # per bin in each of log2(bins) + 1 levels.
    bins = (hi - lo) / bin_width_v + 4
    check_memory(16 * bins * (math.log2(bins) + 1),
                 f"bin width {bin_width_v:g} V gives {bins:.4g} histogram bins")
    # Pad the range so occupation levels at the extremes are interior maxima.
    edges = np.arange(lo - 2 * bin_width_v, hi + 3 * bin_width_v, bin_width_v)
    counts = np.zeros(edges.size - 1, dtype=np.intp)
    for window in trace.windows(starts, stops):  # each sample finds its bin alone
        counts += np.histogram(window, bins=edges)[0]
    centers = 0.5 * (edges[:-1] + edges[1:])
    peaks = _prominent_peaks(counts, _PROMINENCE_FRACTION * counts.max())
    levels = centers[peaks]
    order = np.argsort(levels)[::-1]
    return HistogramResult(counts, centers, levels[order])


def _prominent_peaks(x: np.ndarray, prominence: float) -> np.ndarray:
    """Ascending indices of the local maxima of `x` whose prominence is
    `prominence` or more.

    A run of equal values is a maximum when both its neighbours are lower, so
    a run at either end never is; it sits at the run's middle, rounded down.
    Its prominence is its height less the higher of the two minimums between
    it and the nearest strictly higher value on each side, or the array's end.
    Every peak walks out to those values at once, by halving jumps over
    tables of the max and min of each span of 2^k values.
    """
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    starts, ends = change[:-1], change[1:] - 1  # the runs with two neighbours
    top = (x[starts - 1] < x[starts]) & (x[ends + 1] < x[ends])
    peaks = (starts[top] + ends[top]) // 2
    highs, lows = [x], [x]  # [k][j]: the max and the min of x[j:j + 2**k]
    while 2 ** len(highs) <= x.size:
        w = 2 ** (len(highs) - 1)
        highs.append(np.maximum(highs[-1][:-w], highs[-1][w:]))
        lows.append(np.minimum(lows[-1][:-w], lows[-1][w:]))
    height = x[peaks]
    lo, hi = peaks, peaks + 1  # x[lo:hi] holds no value above the peak's
    low_left = low_right = height
    for k in reversed(range(len(highs))):
        w = 2 ** k
        j = np.maximum(lo - w, 0)
        jump = (lo >= w) & (highs[k][j] <= height)
        low_left = np.where(jump, np.minimum(low_left, lows[k][j]), low_left)
        lo = np.where(jump, j, lo)
        j = np.minimum(hi, x.size - w)
        jump = (hi + w <= x.size) & (highs[k][j] <= height)
        low_right = np.where(jump, np.minimum(low_right, lows[k][j]), low_right)
        hi = np.where(jump, hi + w, hi)
    return peaks[height - np.maximum(low_left, low_right) >= prominence]


@dataclass
class CountingResult:
    counts_light: int
    counts_dark: int
    duration_s: float
    photon_flux_hz: float
    eqe: float
    eqe_sigma: float
    negative_after_subtraction: bool


def estimate_eqe(counts_light: int, counts_dark: int, n_bar: float,
                 repetition_rate_hz: float, duration_s: float,
                 flux_rel_uncertainty: float = PowerReading.relative_uncertainty
                 ) -> CountingResult:
    """Dark-subtracted external quantum efficiency.

    EQE = (N_light - N_dark) / (n_bar * f * duration). The uncertainty
    combines the Poisson error of both counts with the flux-calibration
    bound in quadrature. A negative subtraction is reported as-is, flagged
    rather than clamped.
    """
    check_positive(duration_s=duration_s, n_bar=n_bar, repetition_rate_hz=repetition_rate_hz)
    flux = n_bar * repetition_rate_hz
    exposure = flux * duration_s
    diff = counts_light - counts_dark
    eqe = diff / exposure
    sigma_counting = math.sqrt(counts_light + counts_dark) / exposure
    sigma_cal = abs(eqe) * flux_rel_uncertainty
    return CountingResult(
        counts_light=int(counts_light),
        counts_dark=int(counts_dark),
        duration_s=duration_s,
        photon_flux_hz=flux,
        eqe=eqe,
        eqe_sigma=math.hypot(sigma_counting, sigma_cal),
        negative_after_subtraction=diff < 0,
    )


@dataclass
class FitResult:
    slope: float
    intercept: float
    slope_sigma: float
    intercept_sigma: float
    eqe_from_slope: float
    eqe_from_slope_sigma: float


def eqe_from_frequency_sweep(points, n_bar: float, duration_s: float) -> FitResult:
    """OLS fit counts = slope * f + intercept over a repetition-rate sweep.

    With n_bar fixed and low, slope = EQE * n_bar * duration, so
    eqe_from_slope = slope / (n_bar * duration). Standard errors follow from
    the residual variance (n - 2 degrees of freedom).
    """
    check_positive(n_bar=n_bar, duration_s=duration_s)
    pts = [(float(f), float(c)) for f, c in points]
    if len({f for f, _ in pts}) < 3:
        raise ValueError("need at least 3 distinct repetition rates")
    x = np.array([f for f, _ in pts])
    y = np.array([c for _, c in pts])
    n = x.size
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0:
        raise ValueError("rank-deficient design: all repetition rates equal")
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    residuals = y - (slope * x + intercept)
    s2 = float(np.sum(residuals ** 2) / (n - 2))
    slope_sigma = math.sqrt(s2 / sxx)
    intercept_sigma = math.sqrt(s2 * (1.0 / n + x_mean ** 2 / sxx))
    scale = n_bar * duration_s
    return FitResult(slope, intercept, slope_sigma, intercept_sigma,
                     slope / scale, slope_sigma / scale)


# ---------------------------------------------------------------------------
# Edge timing

_EDGE_BEFORE_US = 4.0  # an edge window opens this long before its instant
_EDGE_AFTER_US = 12.0  # and closes this long after it
_MIN_DWELL_US = 15.0  # a measured event dwells longer than this,
_QUIET_BEFORE_US = 20.0  # follows every earlier release by more than this,
_QUIET_AFTER_US = 12.0  # and precedes the next capture by more than this


def _windows(trace: TimeTrace, times_us) -> tuple[np.ndarray, int]:
    """First sample of the edge window of each instant, and the window size."""
    dt = 1e6 / trace.sample_rate_hz
    before = round(_EDGE_BEFORE_US / dt)
    starts = np.rint(np.asarray(times_us) / dt).astype(np.intp) - before
    return starts, before + round(_EDGE_AFTER_US / dt)


def _ten_ninety(edge: np.ndarray, opposite: np.ndarray, dt: float) -> float:
    """10-90% time of a mean edge sampled every `dt` us, from the level that
    opens its window to the one that opens `opposite`'s: -ln 9 / slope of a
    line through log|v - v_to|, from the extreme on, over 80% to 5% of depth."""
    m = max(1, round(_EDGE_BEFORE_US / 4 / dt))  # each level: the mean of a window's first 1 us
    v_from, v_to = edge[:m].mean(), opposite[:m].mean()
    if v_from == v_to:
        raise ValueError("edge not resolved: no step between the levels")
    remaining = (edge - v_to) / (v_from - v_to)  # 1 before the edge, 0 once settled
    first = int(np.argmax(remaining))  # the extreme: the edge has not yet begun
    tail = remaining[first:]
    lo, hi = int(np.argmax(tail < 0.8)), int(np.argmax(tail < 0.05))
    if not tail[hi] < 0.05:
        raise ValueError("edge not resolved: it does not settle inside its window")
    if hi - lo < 2:
        return dt  # resolution floor: one sample period
    # The noise of log(tail) grows as 1/tail, so each sample is weighted by tail.
    slope, offset = np.polyfit((first + np.arange(lo, hi)) * dt, np.log(tail[lo:hi]), 1,
                               w=tail[lo:hi])
    if slope * m * dt + offset < 0:  # the edge began while its level was read
        raise ValueError("edge not resolved: it starts inside its level window")
    return max(-LN9 / slope, dt)


def _mean_window(trace: TimeTrace, starts: np.ndarray, size: int) -> np.ndarray:
    """Mean of the windows samples[start:start + size], offset by offset, as
    np.mean gives it for each offset's samples. numpy sums more than 128 floats
    as the sum of the first n2, the half rounded down to a multiple of 8, plus
    the sum of the rest; the windows are read once, in the runs of at most 128
    that this split leaves, so the scratch is 128 windows however many there
    are. Each run is checked finite."""
    def total(lo: int, n: int) -> np.ndarray:
        if n > 128:
            n2 = n // 2 - n // 2 % 8
            return total(lo, n2) + total(lo + n2, n - n2)
        cols = np.empty((size, n))
        for k, window in enumerate(trace.windows(starts[lo:lo + n], starts[lo:lo + n] + size)):
            cols[:, k] = window
        if not (np.isfinite(cols.min()) and np.isfinite(cols.max())):
            raise ValueError("trace contains non-finite samples")
        return np.add.reduce(cols, axis=1)
    return total(0, starts.size) / starts.size


def edge_times(trace: TimeTrace, capture_us, release_us) -> tuple[float, float]:
    """10-90% fall and rise times, in us, of the mean edge of one event
    (scalar times) or of many (equal-length arrays). Noise and finite
    bandwidth jitter each instant (Naaman & Aumentado, PRL 96, 100201
    (2006)), but past the jitter the mean edge keeps the exponential tail's
    time constant, with 1/sqrt(K) of the noise of K events."""
    caps, rels = (np.atleast_1d(np.asarray(t, dtype=float)) for t in (capture_us, release_us))
    if caps.ndim != 1 or caps.shape != rels.shape or caps.size == 0 or np.any(rels <= caps):
        raise ValueError("release must follow capture, one release per capture")
    (cap_starts, size), (rel_starts, _) = _windows(trace, caps), _windows(trace, rels)
    if cap_starts.min() < 0 or rel_starts.max() + size > trace.n_samples:
        raise ValueError("edge not resolved: a window leaves the trace")
    fall, rise = _mean_window(trace, cap_starts, size), _mean_window(trace, rel_starts, size)
    dt = 1e6 / trace.sample_rate_hz
    return _ten_ninety(fall, rise, dt), _ten_ninety(rise, fall, dt)


def mean_edge_times(trace: TimeTrace, events: EventRecord) -> tuple[float, float, int]:
    """`edge_times` of every measurable event, and their number. An event is
    measurable when it dwells over `_MIN_DWELL_US`, its capture follows every
    earlier release by over `_QUIET_BEFORE_US`, its release precedes the next
    capture by over `_QUIET_AFTER_US`, and its windows lie inside the trace."""
    caps, rels = events.capture_times_us, events.release_times_us
    earlier = np.maximum.accumulate(np.append(-np.inf, rels))[:-1]  # latest earlier release
    later = np.append(caps, np.inf)[1:]  # next capture
    (cap_starts, size), (rel_starts, _) = _windows(trace, caps), _windows(trace, rels)
    keep = ((rels - caps > _MIN_DWELL_US) & (caps - earlier > _QUIET_BEFORE_US)
            & (later - rels > _QUIET_AFTER_US) & (cap_starts >= 0)
            & (rel_starts + size <= trace.n_samples))
    if not keep.any():
        raise ValueError("no measurable events")
    fall, rise = edge_times(trace, caps[keep], rels[keep])
    return fall, rise, int(np.count_nonzero(keep))
