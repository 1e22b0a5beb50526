"""Transfer-matrix optics of the layered detector stack at normal incidence.

Each layer contributes the standard characteristic matrix
``[[cos d, i sin d / eta], [i eta sin d, cos d]]`` with phase thickness
``d = 2 pi N t / lambda`` and admittance ``eta = N`` (normal incidence).
Internally the complex index uses the exp(+i w t) sign convention
(N = n - ik) so that k >= 0 media absorb; the public API keeps the physics
convention n + ik from `materials`.

Reflectance and transmittance come from the product of the layer matrices
applied to the exit admittance; the per-layer absorptance is the drop in
time-averaged power flux across each layer's boundaries, obtained by
propagating the (E, H) field pair down the stack. This partition conserves
energy to rounding: R + T + sum(A) = 1.

One kernel serves the point response, maps and the optimizer: it takes one
thickness per layer, scalar or array, and evaluates every 2x2 product and
flux element-wise, so a map (spacers as a column and a row) costs one pass
over the layers (Byrnes, "Multilayer optical calculations", arXiv:1603.02720).
The optimizer is two such maps: a coarse one over the bounds, then one 100x
finer around its best cell.

The in-plane anisotropy of the absorber is handled as two decoupled scalar
problems (armchair axis, zigzag axis), valid at normal incidence with the
principal axes aligned; unpolarized response is the arithmetic mean of the
two axes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import check_memory, check_positive
from .materials import AIR, MaterialDispersion, Polarization, index_at

STEP_NM = 2.0  # the spacer grid step of a thickness map, and optimize's coarse step

# Peak bytes per cell of `absorption_map` with its conservation error, measured
# with tracemalloc on the default stack: 288 unpolarized, 208 along one axis.
_CELL_BYTES = 290


@dataclass(frozen=True)
class Layer:
    """A finite-thickness film; zero thickness acts as identity."""

    material: MaterialDispersion
    thickness_nm: float

    def __post_init__(self):
        if not self.thickness_nm >= 0:  # written so that NaN fails
            raise ValueError(
                f"layer '{self.material.name}': thickness must be >= 0, got {self.thickness_nm}")


@dataclass(frozen=True)
class LayerStack:
    """Ordered films between a lossless incident medium and a semi-infinite exit medium.

    Layers are listed top (illuminated side) to bottom. The stack may be empty,
    in which case the response is the bare incident/exit Fresnel interface.
    """

    layers: tuple[Layer, ...]
    incident: MaterialDispersion = AIR
    exit: MaterialDispersion = AIR

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))

    def find_layer(self, material_name: str, last: bool = False) -> int:
        """Index of the first (or last) layer whose material has this name."""
        matches = [i for i, lay in enumerate(self.layers)
                   if lay.material.name.lower() == material_name.lower()]
        if not matches:
            raise ValueError(f"no layer with material '{material_name}' in stack")
        return matches[-1] if last else matches[0]


@dataclass(frozen=True)
class OpticalResponse:
    """Reflected/transmitted fractions and per-layer absorbed fractions."""

    reflectance: float
    transmittance: float
    layer_absorptance: np.ndarray

    @property
    def absorptance_total(self) -> float:
        return float(np.sum(self.layer_absorptance))


def _layer_terms(material: MaterialDispersion, thickness_nm, wavelength_nm: float,
                 axis: Polarization | str):
    """(cos d, i sin d / eta, i eta sin d) of one layer, shaped like `thickness_nm`."""
    eta = index_at(material, wavelength_nm, axis).conjugate()  # exp(+iwt): N = n - ik
    delta = 2.0 * np.pi * eta * np.asarray(thickness_nm, dtype=float) / wavelength_nm
    sin_d = np.sin(delta)
    return np.cos(delta), 1j * sin_d / eta, 1j * eta * sin_d


@np.errstate(over="ignore", invalid="ignore")  # an overflow ends in the finite check below
def _transfer(stack: LayerStack, wavelength_nm: float, axis: Polarization,
              thicknesses) -> tuple:
    """(R, T, [A per layer]) broadcast over one thickness (scalar or array) per
    layer; unpolarized light is the mean of both axes."""
    if axis is Polarization.UNPOLARIZED:
        ac = _transfer(stack, wavelength_nm, Polarization.ARMCHAIR, thicknesses)
        zz = _transfer(stack, wavelength_nm, Polarization.ZIGZAG, thicknesses)
        return (0.5 * (ac[0] + zz[0]), 0.5 * (ac[1] + zz[1]),
                [0.5 * (a + z) for a, z in zip(ac[2], zz[2])])

    eta_in = index_at(stack.incident, wavelength_nm, axis).conjugate()
    if abs(eta_in.imag) > 1e-12:
        raise ValueError(f"incident medium '{stack.incident.name}' must be lossless")
    eta_in = eta_in.real
    terms = [_layer_terms(lay.material, t, wavelength_nm, axis)
             for lay, t in zip(stack.layers, thicknesses)]

    # (b, c) = M_1 ... M_n (1, eta_exit), accumulated from the exit side up.
    b, c = 1.0, index_at(stack.exit, wavelength_nm, axis).conjugate()
    for cos_d, m01, m10 in reversed(terms):
        b, c = cos_d * b + m01 * c, m10 * b + cos_d * c
    r = (eta_in * b - c) / (eta_in * b + c)

    # Propagate (E, H) from just below the top interface and take the flux
    # drop across each layer. det(M) = 1, so the inverse is the adjugate.
    e, h = 1.0 + r, eta_in * (1.0 - r)
    flux_top = (e * np.conj(h)).real
    absorptance = []
    for cos_d, m01, m10 in terms:
        e, h = cos_d * e - m01 * h, cos_d * h - m10 * e
        flux_bottom = (e * np.conj(h)).real
        absorptance.append((flux_top - flux_bottom) / eta_in)
        flux_top = flux_bottom
    reflectance, transmittance = np.abs(r) ** 2, flux_top / eta_in
    if not np.isfinite(reflectance + transmittance + sum(absorptance)).all():  # inf/NaN spread
        raise ValueError(f"R, T or A not finite at {wavelength_nm:g} nm; is a layer too thick?")
    return reflectance, transmittance, absorptance


def stack_response(stack: LayerStack, wavelength_nm: float,
                   axis: Polarization | str = Polarization.ARMCHAIR) -> OpticalResponse:
    """Full optical response of the stack along `axis`: armchair, zigzag, or
    unpolarized (the component-wise mean of the two)."""
    r, t, a = _transfer(stack, wavelength_nm, Polarization(axis),
                        [lay.thickness_nm for lay in stack.layers])
    return OpticalResponse(float(r), float(t), np.array(a, dtype=float))


def thickness_grid(lo: float, hi: float, step_nm: float) -> np.ndarray:
    """lo, lo + step_nm, ... then hi itself; a step point within rounding of
    hi is dropped. Raises ValueError by `check_grid`'s rule."""
    check_grid(step_nm, range_nm=(lo, hi))
    pts = np.arange(lo, hi, step_nm)
    return np.append(pts[hi - pts > 1e-9 * step_nm], hi)


def check_grid(step_nm: float, **ranges_nm: tuple[float, float]) -> None:
    """The rule of `thickness_grid`, apart from its work: raise ValueError,
    naming the parameter, unless `step_nm` is positive and finite and each
    (lo, hi) of `ranges_nm` has 0 <= lo <= hi < inf; NaN fails."""
    check_positive(step_nm=step_nm)
    for name, (lo, hi) in ranges_nm.items():
        if not 0 <= lo <= hi < np.inf:
            raise ValueError(f"{name} must be [lo, hi] with 0 <= lo <= hi < inf, got [{lo}, {hi}]")


def check_map(n_top: int, n_bottom: int) -> None:
    """Raise ValueError, before anything of the grid's size is allocated, when
    a map of n_top x n_bottom cells at `_CELL_BYTES` each exceeds physical memory."""
    cells = n_top * n_bottom
    check_memory(cells * _CELL_BYTES, f"{n_top}x{n_bottom} thickness map has {cells} cells")


def absorber_layer(stack: LayerStack) -> int:
    """Index of the absorber: the first anisotropic layer, else the first layer
    named 'bp'."""
    absorber = next((i for i, lay in enumerate(stack.layers) if lay.material.is_anisotropic),
                    None)
    return stack.find_layer("bp") if absorber is None else absorber


def locate_sweep_layers(stack: LayerStack) -> tuple[int, int, int]:
    """(top spacer, bottom spacer, absorber) layer indices of a device-like stack.

    The spacers are the first and last hBN layers; the absorber is
    `absorber_layer`'s.
    """
    top = stack.find_layer("hbn")
    bottom = stack.find_layer("hbn", last=True)
    if top == bottom:
        raise ValueError("stack needs distinct top and bottom hBN layers to sweep")
    return top, bottom, absorber_layer(stack)


def absorption_map(stack_template: LayerStack, top_thicknesses_nm, bottom_thicknesses_nm,
                   wavelength_nm: float, axis: Polarization | str = Polarization.ARMCHAIR,
                   conservation_error: np.ndarray | None = None) -> np.ndarray:
    """Absorber absorptance over a (top hBN, bottom hBN) thickness grid of the
    layers `locate_sweep_layers` finds.

    Returns an array of shape (len(top), len(bottom)); rows follow the top
    grid, columns the bottom grid. If `conservation_error` is an array of
    that shape, it receives |1 - R - T - sum(A)| of every cell. A grid that
    `check_map` finds too large for physical memory raises ValueError.
    """
    i_top, i_bottom, i_abs = locate_sweep_layers(stack_template)
    axis = Polarization(axis)
    tops = np.asarray(top_thicknesses_nm, dtype=float)
    bottoms = np.asarray(bottom_thicknesses_nm, dtype=float)
    for grid, label in ((tops, "top"), (bottoms, "bottom")):
        if grid.size == 0:
            raise ValueError(f"empty {label} thickness grid")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError(f"{label} thickness grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError(f"{label} thickness grid: negative thickness")
    check_map(tops.size, bottoms.size)

    thicknesses = [lay.thickness_nm for lay in stack_template.layers]
    thicknesses[i_top], thicknesses[i_bottom] = tops[:, None], bottoms[None, :]
    r, t, a = _transfer(stack_template, wavelength_nm, axis, thicknesses)
    if conservation_error is not None:
        conservation_error[...] = np.abs(1.0 - (r + t + sum(a)))
    return np.broadcast_to(a[i_abs], (tops.size, bottoms.size)).copy()


@dataclass(frozen=True)
class ThicknessOptimum:
    top_nm: float
    bottom_nm: float
    absorptance: float


def optimize_thicknesses(stack_template: LayerStack,
                         top_bounds_nm: tuple[float, float],
                         bottom_bounds_nm: tuple[float, float],
                         wavelength_nm: float,
                         axis: Polarization | str = Polarization.ARMCHAIR,
                         coarse_step_nm: float = STEP_NM) -> ThicknessOptimum:
    """Maximize absorber absorptance over the two spacer thicknesses.

    A map at `coarse_step_nm` over the bounds, then a map at a hundredth of
    that step over the best coarse cell +- one coarse step, clipped to the
    bounds. The result is the finer map's best cell, never below the best
    coarse cell.
    """
    bounds = (top_bounds_nm, bottom_bounds_nm)

    def best_cell(grids) -> ThicknessOptimum:
        values = absorption_map(stack_template, *grids, wavelength_nm, axis)
        i, j = np.unravel_index(int(np.argmax(values)), values.shape)
        return ThicknessOptimum(float(grids[0][i]), float(grids[1][j]), float(values[i, j]))

    coarse = best_cell([thickness_grid(lo, hi, coarse_step_nm) for lo, hi in bounds])
    fine = best_cell([thickness_grid(max(lo, t - coarse_step_nm), min(hi, t + coarse_step_nm),
                                     coarse_step_nm / 100)
                      for (lo, hi), t in zip(bounds, (coarse.top_nm, coarse.bottom_nm))])
    return fine if fine.absorptance > coarse.absorptance else coarse
