"""Independent reference implementations used only by the tests.

These deliberately avoid the characteristic-matrix formulation and the
package's sign conventions: complex indices are n + ik with exp(-iwt) time
dependence, and the stack response is the closed-form geometric summation of
Fresnel bounce paths (Airy recursion), built from interface reflection and
transmission amplitudes only.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


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


def poisson_pmf_series(n_bar: float, n: int) -> float:
    """Poisson pmf by explicit product, no log-space tricks."""
    p = math.exp(-n_bar)
    for i in range(1, n + 1):
        p *= n_bar / i
    return p


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
