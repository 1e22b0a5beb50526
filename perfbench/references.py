"""Independent reference computations for the benchmark's output checks.

Nothing here imports spdsim. The optics use the amplitude transfer-matrix
method of Byrnes ("Multilayer optical calculations", arXiv:1603.02720) in the
exp(-i w t) convention with complex index n + ik, where spdsim uses the
characteristic-matrix (E, H) formulation in the exp(+i w t) convention. The
counting references follow the renewal theory of a non-paralyzable counter
and Mueller's dead-time relation R = r / (1 + r tau) (NIM 112 (1973) 47).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

PLANCK_H = 6.62607015e-34  # J s, exact (SI 2019)
SPEED_OF_LIGHT = 299792458.0  # m / s, exact


# ---------------------------------------------------------------------------
# Dispersion tables (read as data; the interpolation is ours)


def read_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(wavelength_nm, complex index per axis) of one dispersion CSV file.

    Returns the wavelength grid and an array of shape (axes, samples) holding
    n + ik; axis 0 is armchair, axis 1 zigzag for anisotropic tables.
    """
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            rows.append([float(v) for v in line.split(",")])
    data = np.array(rows)
    nk = data[:, 1:]
    return data[:, 0], (nk[:, 0::2] + 1j * nk[:, 1::2]).T


def index_of(tables: dict, material: str, wavelength_nm: float, axis: str) -> complex:
    """Linearly interpolated n + ik; 'air' is exactly 1."""
    if material == "air":
        return 1.0 + 0.0j
    wl, nk = tables[material]
    row = nk[1] if (axis == "zigzag" and nk.shape[0] == 2) else nk[0]
    if not wl[0] <= wavelength_nm <= wl[-1]:
        raise ValueError(f"{material}: {wavelength_nm} nm outside the table")
    return complex(np.interp(wavelength_nm, wl, row.real),
                   np.interp(wavelength_nm, wl, row.imag))


def load_tables(data_dir: Path) -> dict:
    return {p.stem: read_table(p) for p in sorted(data_dir.glob("*.csv"))}


# ---------------------------------------------------------------------------
# Byrnes amplitude transfer matrices, vectorised over thickness grids


def stack_rta(n_in: complex, layers: list[tuple[complex, np.ndarray]], n_out: complex,
              wavelength_nm: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, T, A per layer) at normal incidence for broadcastable thicknesses.

    `layers` lists (n + ik, thickness_nm) top to bottom; thicknesses may be
    arrays, and every output broadcasts over their common shape. A has the
    layer axis first. The incident medium must be lossless.
    """
    ns = [complex(n_in)] + [complex(n) for n, _ in layers] + [complex(n_out)]
    shape = np.broadcast(*[np.asarray(d, dtype=float) for _, d in layers]).shape \
        if layers else ()

    def interface(a, b):
        r = (ns[a] - ns[b]) / (ns[a] + ns[b])
        t = 2 * ns[a] / (ns[a] + ns[b])
        mat = np.empty(shape + (2, 2), dtype=complex)
        mat[..., 0, 0] = mat[..., 1, 1] = 1 / t
        mat[..., 0, 1] = mat[..., 1, 0] = r / t
        return mat

    def propagation(j, d):
        delta = 2 * np.pi * ns[j] * np.broadcast_to(np.asarray(d, dtype=float), shape) \
            / wavelength_nm
        mat = np.zeros(shape + (2, 2), dtype=complex)
        mat[..., 0, 0] = np.exp(-1j * delta)
        mat[..., 1, 1] = np.exp(1j * delta)
        return mat

    # Per-layer M_j = P_j I_{j,j+1}; the total is I_{0,1} M_1 ... M_N.
    per_layer = [propagation(j, d) @ interface(j, j + 1)
                 for j, (_, d) in enumerate(layers, start=1)]
    total = interface(0, 1)
    for m in per_layer:
        total = total @ m
    t = 1 / total[..., 0, 0]
    r = total[..., 1, 0] / total[..., 0, 0]

    def poynting(n, fwd, bck):
        return (n * np.conj(fwd + bck) * (fwd - bck)).real / n_in.real

    # Amplitudes at the top of each layer, from the exit side upwards.
    v = np.zeros(shape + (2,), dtype=complex)
    v[..., 0] = t
    flux = [poynting(ns[-1], t, 0.0)]
    for j in range(len(layers), 0, -1):
        v = np.einsum("...ij,...j->...i", per_layer[j - 1], v)
        flux.append(poynting(ns[j], v[..., 0], v[..., 1]))
    flux = flux[::-1]  # flux[k] = power entering layer k+1 from above; last = T
    absorbed = np.array([flux[k] - flux[k + 1] for k in range(len(layers))])
    return np.abs(r) ** 2, flux[-1], absorbed


def config_stack(cfg: dict, tables: dict, wavelength_nm: float, axis: str):
    """(n_in, [(n, thickness)], n_out) of the stack block of a config document."""
    st = cfg["stack"]
    layers = [(index_of(tables, lay["material"], wavelength_nm, axis),
               float(lay["thickness_nm"])) for lay in st["layers"]]
    return (index_of(tables, st["incident"], wavelength_nm, axis), layers,
            index_of(tables, st["exit"], wavelength_nm, axis))


def spacer_map(cfg: dict, tables: dict, tops: np.ndarray, bottoms: np.ndarray,
               wavelength_nm: float, axis: str) -> np.ndarray:
    """Absorber absorptance over (top hBN, bottom hBN), rows follow `tops`.

    The spacers are the first and last hBN layers and the absorber is the BP
    layer, as in the device stack.
    """
    n_in, layers, n_out = config_stack(cfg, tables, wavelength_nm, axis)
    names = [lay["material"] for lay in cfg["stack"]["layers"]]
    top = names.index("hbn")
    bottom = len(names) - 1 - names[::-1].index("hbn")
    layers[top] = (layers[top][0], np.asarray(tops, dtype=float)[:, None])
    layers[bottom] = (layers[bottom][0], np.asarray(bottoms, dtype=float)[None, :])
    _, _, absorbed = stack_rta(n_in, layers, n_out, wavelength_nm)
    return absorbed[names.index("bp")]


def fabry_perot_period(values: np.ndarray, step_nm: float, guess_nm: float) -> float:
    """Shift P that best maps the grid onto itself along axis 1: v(t + P) = v(t).

    Searches P within +-25% of `guess_nm` on a 0.05 nm lattice, comparing the
    map with its linearly interpolated shifted copy over the overlap, and
    refines the minimum with a parabola.
    """
    n = values.shape[1]
    x = np.arange(n) * step_nm

    def mismatch(period):
        keep = x + period <= x[-1]
        if keep.sum() < 3:
            return np.inf
        pos = (x[keep] + period) / step_nm
        lo = np.minimum(np.floor(pos).astype(int), n - 2)
        frac = pos - lo
        shifted = values[:, lo] * (1 - frac) + values[:, lo + 1] * frac
        return float(np.sqrt(np.mean((shifted - values[:, keep]) ** 2)))

    trial = np.arange(0.75 * guess_nm, 1.25 * guess_nm, 0.05)
    errors = np.array([mismatch(p) for p in trial])
    k = int(np.argmin(errors))
    if 0 < k < trial.size - 1:
        e0, e1, e2 = errors[k - 1:k + 2]
        curvature = e0 - 2 * e1 + e2
        if np.isfinite(curvature) and curvature > 0:
            return float(trial[k] + 0.05 * 0.5 * (e0 - e2) / curvature)
    return float(trial[k])


# ---------------------------------------------------------------------------
# Source calibration


def calibrated_n_bar(power_tap_w: float, tap_fraction: float, chain_factor: float,
                     wavelength_nm: float, repetition_rate_hz: float) -> float:
    """n_bar = P_device / (h nu f), P_device = P_tap (1 - tap)/tap * chain."""
    p_device = power_tap_w * (1 - tap_fraction) / tap_fraction * chain_factor
    return p_device / (PLANCK_H * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)
                       * repetition_rate_hz)


# ---------------------------------------------------------------------------
# Counting statistics


def capture_probability(n_bar: float, absorptance: float, iqe: float) -> float:
    """Chance a Poisson(n_bar) pulse yields at least one captured electron."""
    return -math.expm1(-n_bar * absorptance * iqe)


def renewal_detections(duration_s: float, rate_hz: float, p: float, dead_us: float,
                       dark_hz: float) -> tuple[float, float]:
    """(mean, sigma) of detections of a non-paralyzable counter fed by pulses.

    Pulses arrive every T = 1/f, each detected with probability p once the
    dead time has expired; dead_us must be a whole number of periods, so the
    first eligible pulse coincides with the end of the dead time. Dark
    arrivals (rate dark_hz, Poisson) compete for the first detection after it.
    Gap = dead + min(T G, X) with G ~ Geometric(p) on {0, 1, ...} and
    X ~ Exp(dark); the count is the renewal mean D/mu with variance
    D sigma^2 / mu^3.
    """
    period = 1e6 / rate_hz
    q = 1.0 - p
    lam = dark_hz * 1e-6
    if lam > 0:
        wait = (1.0 - p / (1.0 - q * math.exp(-lam * period))) / lam
    else:
        wait = period * q / p
    mu = dead_us + wait
    var = period ** 2 * q / p ** 2  # dark arrivals only shorten the gaps
    d_us = duration_s * 1e6
    return d_us / mu, math.sqrt(d_us * var / mu ** 3)


def mueller(rate_hz: float, dead_us: float) -> float:
    """Non-paralyzable recorded rate r / (1 + r tau)."""
    return rate_hz / (1.0 + rate_hz * dead_us * 1e-6)


def expected_counts(rate_hz: float, n_bar: float, absorptance: float, iqe: float,
                    dark_hz: float, dead_us: float, duration_s: float) -> float:
    """Dead-time-corrected light-run counts, arrivals treated as Poisson."""
    p = capture_probability(n_bar, absorptance, iqe)
    return duration_s * mueller(rate_hz * p + dark_hz, dead_us)


def ols(x, y) -> tuple[float, float]:
    """(slope, intercept) of ordinary least squares."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    return slope, float(ym - slope * xm)


def ols_slope_sigma_poisson(x, expected_y) -> float:
    """Slope sigma implied by Poisson counts with the given means."""
    x = np.asarray(x, dtype=float)
    dx = x - x.mean()
    return float(math.sqrt(np.sum(dx ** 2 * np.asarray(expected_y))) / np.sum(dx ** 2))


# ---------------------------------------------------------------------------
# Event files


def read_events(path: Path) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """(times, is_capture, origins) of an events CSV, in file order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "timestamp_us,kind,origin":
        raise ValueError(f"{path.name}: bad header")
    rows = [line.split(",") for line in lines[1:] if line]
    times = np.array([float(r[0]) for r in rows])
    kinds = [r[1] for r in rows]
    if set(kinds) - {"capture", "release"}:
        raise ValueError(f"{path.name}: unknown event kind")
    return times, np.array([k == "capture" for k in kinds], dtype=bool), [r[2] for r in rows]
