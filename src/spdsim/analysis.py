"""Event recovery, occupation histograms, and efficiency estimators.

Mirrors the measurement pipeline: threshold the output trace into
capture/release events, histogram the voltage into occupation levels, count
events against the calibrated photon flux, and extract the external quantum
efficiency either by direct dark subtraction or from the slope of counts
versus repetition frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detsim import EventRecord, TimeTrace
from .source import PowerReading


def estimate_baseline(trace: TimeTrace, window_s: float) -> np.ndarray:
    """Per-sample baseline: histogram mode of consecutive windows.

    The mode tracks the quiescent level even when a sizeable fraction of the
    window sits at depressed occupancy levels. Slow drift is followed at the
    window granularity. Raises for constant traces and traces shorter than
    one window.
    """
    n = trace.n_samples
    w = int(round(window_s * trace.sample_rate_hz))
    if w < 8:
        raise ValueError("baseline window must span at least 8 samples")
    if n < w:
        raise ValueError(f"trace ({n} samples) shorter than baseline window ({w})")
    if np.ptp(trace.samples) == 0:
        raise ValueError("degenerate trace: constant signal")

    baseline = np.empty(n)
    starts = list(range(0, n, w))
    if len(starts) > 1 and n - starts[-1] < w // 2:
        starts.pop()  # fold a short tail into the previous window
    for i, start in enumerate(starts):
        stop = starts[i + 1] if i + 1 < len(starts) else n
        chunk = trace.samples[start:stop]
        counts, edges = np.histogram(chunk, bins=101)
        mode = 0.5 * (edges[np.argmax(counts)] + edges[np.argmax(counts) + 1])
        baseline[start:stop] = mode
    return baseline


def detect_events(trace: TimeTrace, threshold_v: float, hysteresis_v: float,
                  min_width_us: float, baseline_window_s: float = 0.01) -> EventRecord:
    """Hysteresis thresholding of downward pulses.

    A capture fires when the trace drops below baseline - threshold; the
    matching release fires when it climbs back above
    baseline - (threshold - hysteresis). Events narrower than `min_width_us`
    are discarded, as is an event still open at the end of the trace.
    """
    if not (threshold_v > hysteresis_v > 0):
        raise ValueError("need threshold > hysteresis > 0")
    rel = estimate_baseline(trace, baseline_window_s)
    np.subtract(trace.samples, rel, out=rel)  # samples - baseline, in the baseline's buffer

    # One full-length mask at a time: the peak is `rel` plus two masks.
    down = _turns_true(rel < -threshold_v)
    up = _turns_true(rel > -(threshold_v - hysteresis_v))
    # A capture pairs with the first release after it. No sample is both below
    # and above, so the captures between an accepted one and its release share
    # it: keep the first per release. The rest are events open at the end.
    k = np.searchsorted(up, down, side="right")
    first = np.flatnonzero((k < up.size) & (np.diff(k, prepend=-1) != 0))
    d, u = down[first], up[k[first]]
    dt_us = 1e6 / trace.sample_rate_hz
    wide = (u - d) * dt_us >= min_width_us
    return EventRecord(d[wide] * dt_us, u[wide] * dt_us, origins=None)


def _turns_true(mask: np.ndarray) -> np.ndarray:
    """Indices where `mask` turns true, led by 0 when it starts true."""
    idx = np.flatnonzero(mask[1:] > mask[:-1]) + 1
    return np.insert(idx, 0, 0) if mask[0] else idx


@dataclass
class HistogramResult:
    counts: np.ndarray
    bin_centers: np.ndarray
    peak_levels_v: np.ndarray  # descending voltage; first entry is the empty-island level

    @property
    def n_peaks(self) -> int:
        return int(self.peak_levels_v.size)

    def peak_spacings(self) -> np.ndarray:
        return -np.diff(self.peak_levels_v)


def occupation_histogram(trace: TimeTrace, bin_width_v: float,
                         prominence_fraction: float = 0.05) -> HistogramResult:
    """Value histogram of the trace with occupation-level peaks.

    Peaks are local maxima whose prominence exceeds `prominence_fraction` of
    the tallest bin. Levels are returned in descending voltage, so the first
    one corresponds to the empty island.
    """
    # Imported here, not at module level: scipy.signal takes ~1 s to import.
    from scipy.signal import find_peaks

    if bin_width_v <= 0:
        raise ValueError("bin width must be positive")
    samples = trace.samples
    lo, hi = float(samples.min()), float(samples.max())
    if hi - lo < bin_width_v:
        value = 0.5 * (lo + hi)
        return HistogramResult(np.array([samples.size]), np.array([value]),
                               np.array([value]))
    # Pad the range so occupation levels at the extremes are interior maxima.
    edges = np.arange(lo - 2 * bin_width_v, hi + 3 * bin_width_v, bin_width_v)
    counts, edges = np.histogram(samples, bins=edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    peaks, _ = find_peaks(counts, prominence=prominence_fraction * counts.max())
    levels = centers[peaks]
    order = np.argsort(levels)[::-1]
    return HistogramResult(counts, centers, levels[order])


@dataclass
class RateEstimate:
    rate_hz: float
    sigma_hz: float
    n_events: int
    duration_s: float
    upper95_hz: float
    window_rates_hz: np.ndarray | None = None


def count_rate(events, duration_s: float, window_s: float | None = None) -> RateEstimate:
    """Event rate with Poisson sigma; N can be a count, times, or an EventRecord.

    The one-sided 95% upper bound is the exact Poisson limit (Gehrels, ApJ
    303, 336, 1986), the 95% quantile of Gamma(n + 1): about 3/duration for
    zero observed events. With `window_s`, per-window sub-rates are attached
    for stationarity checks.
    """
    # Imported here, not at module level: no CLI command should pay for scipy.
    from scipy.special import gammaincinv

    if duration_s <= 0:
        raise ValueError("duration must be positive")
    times = None
    if isinstance(events, TimeTrace):
        raise TypeError("run detect_events on the trace first, then count the record")
    if isinstance(events, EventRecord):
        times = events.detection_times_us()
        n = times.size
    elif np.isscalar(events):
        n = int(events)
    else:
        times = np.asarray(events, dtype=float)
        n = times.size
    rate = n / duration_s
    sigma = math.sqrt(n) / duration_s
    upper95 = gammaincinv(n + 1, 0.95) / duration_s
    window_rates = None
    if window_s is not None:
        if times is None:
            raise ValueError("window sub-rates need event times, not a bare count")
        n_windows = int(duration_s / window_s)
        if n_windows < 1:
            raise ValueError("window longer than duration")
        edges = np.arange(n_windows + 1) * window_s * 1e6
        window_rates = np.histogram(times, bins=edges)[0] / window_s
    return RateEstimate(rate, sigma, n, duration_s, upper95, window_rates)


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
    if duration_s <= 0 or n_bar <= 0 or repetition_rate_hz <= 0:
        raise ValueError("duration, n_bar and repetition rate must be positive")
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


def _smooth_slice(samples: np.ndarray, a: int, b: int, width: int) -> np.ndarray:
    """Boxcar-smoothed samples[a:b], padded with real neighbours (edge-safe)."""
    if width <= 1:
        return samples[a:b]
    pad = width // 2 + 1
    lo = max(0, a - pad)
    hi = min(samples.size, b + pad)
    kernel = np.ones(width) / width
    smoothed = np.convolve(samples[lo:hi], kernel, mode="same")
    return smoothed[a - lo:b - lo]


def _crossing_time(t_us: np.ndarray, v: np.ndarray, level: float, falling: bool,
                   noisy: bool) -> float:
    """Time at which a monotone transition crosses `level`.

    Clean traces use the first threshold crossing with linear interpolation
    between the bracketing samples. Noisy traces locate the crossing by the
    occupation count (number of samples still on the starting side), which
    stays unbiased under symmetric noise, then refine by interpolation.
    """
    passed = (v < level) if falling else (v > level)
    if not passed.any() or passed.all():
        raise ValueError("edge not resolved: level never crossed inside window")
    dt = t_us[1] - t_us[0]
    if noisy:
        idx = int(np.count_nonzero(~passed))
        idx = min(max(idx, 1), v.size - 1)
    else:
        idx = int(np.argmax(passed))
        if idx == 0:
            return float(t_us[0])
    v0, v1 = v[idx - 1], v[idx]
    if (v1 - v0) == 0 or (v0 < level) == (v1 < level):
        return float(t_us[idx])
    return float(t_us[idx - 1] + (level - v0) / (v1 - v0) * dt)


def _edge_span(trace: TimeTrace, t_start_us: float, t_settle_us: float,
               level_pre: tuple[float, float], level_post: tuple[float, float],
               falling: bool) -> float:
    """10-90% span of one transition starting near `t_start_us`."""
    dt = 1e6 / trace.sample_rate_hz
    n = trace.n_samples

    def window(lo, hi):
        a = max(0, int(math.ceil(lo / dt)))
        b = min(n, int(math.ceil(hi / dt)))
        if b - a < 3:
            raise ValueError("edge not resolved: too few samples around the event")
        return trace.samples[a:b]

    pre = window(*level_pre)
    post = window(*level_post)
    v_from = float(np.median(pre))
    v_to = float(np.median(post))
    depth = abs(v_from - v_to)
    if depth <= 0:
        raise ValueError("edge not resolved: zero depth")
    noise = 1.4826 * float(np.median(np.abs(pre - np.median(pre))))
    noisy = noise > depth / 64.0

    seg_a = max(0, int(math.ceil((t_start_us - 0.25 * (t_settle_us - t_start_us)) / dt)))
    seg_b = min(n, int(math.ceil(t_settle_us / dt)) + 1)
    seg_t = np.arange(seg_a, seg_b) * dt
    if seg_t.size < 4:
        raise ValueError("edge not resolved at current sample rate")
    if noisy:
        # Smooth to ~depth/40 effective noise, bounded so the kernel cannot
        # dominate the edge itself.
        width = int(np.clip(math.ceil((40.0 * noise / depth) ** 2), 1, seg_t.size // 8))
        seg_v = _smooth_slice(trace.samples, seg_a, seg_b, width)
    else:
        seg_v = trace.samples[seg_a:seg_b]

    sign = -1.0 if falling else 1.0
    l10 = v_from + sign * 0.1 * depth
    l90 = v_from + sign * 0.9 * depth
    t10 = _crossing_time(seg_t, seg_v, l10, falling, noisy)
    t90 = _crossing_time(seg_t, seg_v, l90, falling, noisy)
    span = t90 - t10
    if span < dt:
        span = dt  # resolution floor: one sample period
    return span


def edge_times(trace: TimeTrace, capture_us: float, release_us: float) -> tuple[float, float]:
    """10-90% fall and rise times of one capture/release event.

    The event must sit fully inside the trace with enough surrounding
    quiet time to establish the levels (depth at least ~8x the noise).
    Returns times in microseconds.
    """
    dwell = release_us - capture_us
    if dwell <= 0:
        raise ValueError("release must follow capture")
    fall = _edge_span(
        trace,
        t_start_us=capture_us,
        t_settle_us=capture_us + 0.55 * dwell,
        level_pre=(capture_us - 0.5 * dwell, capture_us - 0.02 * dwell),
        level_post=(capture_us + 0.6 * dwell, capture_us + 0.95 * dwell),
        falling=True,
    )
    rise = _edge_span(
        trace,
        t_start_us=release_us,
        t_settle_us=release_us + 0.55 * dwell,
        level_pre=(capture_us + 0.6 * dwell, capture_us + 0.98 * dwell),
        level_post=(release_us + 0.6 * dwell, release_us + 0.95 * dwell),
        falling=False,
    )
    return fall, rise


def mean_edge_times(trace: TimeTrace, events: EventRecord,
                    max_events: int | None = None) -> tuple[float, float, int]:
    """Average 10-90% fall/rise over the events that can be measured."""
    falls = []
    rises = []
    n = events.n_captures if max_events is None else min(events.n_captures, max_events)
    for i in range(n):
        try:
            f, r = edge_times(trace, events.capture_times_us[i], events.release_times_us[i])
        except ValueError:
            continue
        falls.append(f)
        rises.append(r)
    if not falls:
        raise ValueError("no measurable events")
    return float(np.mean(falls)), float(np.mean(rises)), len(falls)
