"""Complex refractive-index tables for the device layer materials.

A material is described by one table of (wavelength, n, k) samples per optical
axis. Isotropic materials carry a single axis; black phosphorus carries two
(armchair and zigzag) sharing one wavelength grid. Queries interpolate
linearly in n and k; out-of-range wavelengths are a hard error because silent
extrapolation of optical constants corrupts absorption estimates downstream.

Dispersion files are plain text: '#' comment lines first (the provenance
header is mandatory, and at least one of its lines must say something), then
CSV rows ``wavelength_nm,n,k`` for isotropic
materials or ``wavelength_nm,n_ac,k_ac,n_zz,k_zz`` for anisotropic ones.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np


class Polarization(str, Enum):
    """Linear polarization relative to the absorber's crystal axes."""

    ARMCHAIR = "armchair"
    ZIGZAG = "zigzag"
    UNPOLARIZED = "unpolarized"


class DispersionError(ValueError):
    """Raised for malformed dispersion files or invariant violations."""


@dataclass(frozen=True)
class MaterialDispersion:
    """Tabulated complex refractive index, optionally anisotropic.

    `wavelength_nm` is strictly increasing and shared by all axes. `n` and
    `k` have shape (axes, n_samples) with axis 0 = armchair and axis 1 =
    zigzag for anisotropic materials.
    """

    name: str
    wavelength_nm: np.ndarray
    n: np.ndarray
    k: np.ndarray
    header: tuple[str, ...] = field(default=())

    def __post_init__(self):
        wl = np.asarray(self.wavelength_nm, dtype=float).copy()
        n = np.atleast_2d(np.asarray(self.n, dtype=float)).copy()
        k = np.atleast_2d(np.asarray(self.k, dtype=float)).copy()
        for attr, arr in (("wavelength_nm", wl), ("n", n), ("k", k)):
            arr.setflags(write=False)  # tables are immutable after load
            object.__setattr__(self, attr, arr)
        if wl.ndim != 1 or wl.size < 1:
            raise DispersionError(f"{self.name}: need at least one sample")
        if n.shape != k.shape or n.shape[1] != wl.size:
            raise DispersionError(f"{self.name}: n/k shape mismatch with wavelength grid")
        if n.shape[0] not in (1, 2):
            raise DispersionError(f"{self.name}: expected 1 or 2 axes, got {n.shape[0]}")
        if fault := _first_fault(wl, n, k):
            raise DispersionError(f"{self.name}: sample {fault[0]}: {fault[1]}")

    @property
    def axes(self) -> int:
        return self.n.shape[0]

    @property
    def is_anisotropic(self) -> bool:
        return self.axes == 2

    @property
    def wavelength_range(self) -> tuple[float, float]:
        return float(self.wavelength_nm[0]), float(self.wavelength_nm[-1])

    @classmethod
    def constant(cls, name: str, n: float, k: float = 0.0,
                 wavelength_range: tuple[float, float] = (200.0, 20000.0)) -> "MaterialDispersion":
        """Wavelength-independent isotropic material (e.g. air)."""
        lo, hi = wavelength_range
        return cls(name, np.array([lo, hi]), np.array([[n, n]]), np.array([[k, k]]),
                   header=(f"constant index n={n}, k={k}",))


def _first_fault(wl: np.ndarray, n: np.ndarray, k: np.ndarray) -> tuple[int, str] | None:
    """(sample index, reason) of the first sample that breaks a table rule, or
    None. Each sample is checked against the rules in the order listed here."""
    rules = [
        ("non-finite value", ~np.isfinite(np.vstack([wl, n, k])).all(axis=0)),
        ("wavelength not positive", wl <= 0),
        ("wavelengths not strictly increasing", np.append(False, wl[1:] <= wl[:-1])),
        ("negative refractive index", (n < 0).any(axis=0)),
        ("negative extinction", (k < 0).any(axis=0)),
    ]
    hits = np.argwhere(np.array([broken for _, broken in rules]).T)  # by sample, then rule
    return (int(hits[0, 0]), rules[hits[0, 1]][0]) if hits.size else None


def _axis_index(material: MaterialDispersion, axis: Polarization | str) -> int:
    axis = Polarization(axis)
    if not material.is_anisotropic or axis is Polarization.ARMCHAIR:
        return 0
    if axis is Polarization.ZIGZAG:
        return 1
    raise ValueError(
        f"{material.name}: unpolarized index query on an anisotropic material is "
        "ambiguous; query armchair and zigzag separately"
    )


def index_at(material: MaterialDispersion, wavelength_nm: float,
             axis: Polarization | str = Polarization.ARMCHAIR) -> complex:
    """Interpolated complex refractive index n + ik at `wavelength_nm`.

    Linear interpolation in both n and k between the bracketing samples,
    exact at sample points. Out-of-range wavelengths raise; an axis request
    on an isotropic material resolves to its single axis.
    """
    lo, hi = material.wavelength_range
    if not (lo <= wavelength_nm <= hi):
        raise ValueError(
            f"{material.name}: wavelength {wavelength_nm} nm outside table range "
            f"[{lo}, {hi}] nm (extrapolation is not allowed)"
        )
    i = _axis_index(material, axis)
    n = float(np.interp(wavelength_nm, material.wavelength_nm, material.n[i]))
    k = float(np.interp(wavelength_nm, material.wavelength_nm, material.k[i]))
    return complex(n, k)


def load_dispersion(source: str | Path | io.TextIOBase, name: str | None = None) -> MaterialDispersion:
    """Parse a dispersion file into a validated table.

    `source` is a path or an open text stream. The material name defaults to
    the file stem. A row that breaks a table rule (`_first_fault`) raises,
    naming its line number.
    """
    if isinstance(source, (str, Path)):
        source = Path(source)
        text = source.read_text(encoding="utf-8")
    else:
        text = source.read()
    if name is None:
        name = getattr(source, "name", "dispersion")  # a stream's name, or a path's file name
        name = Path(str(name)).stem

    header: list[str] = []
    rows: list[tuple[int, list[float]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if rows:
                raise DispersionError(f"{name}: row {lineno}: comment after the first data row")
            header.append(line.lstrip("#").strip())
            continue
        try:
            values = [float(p) for p in line.split(",")]
        except ValueError as exc:
            raise DispersionError(f"{name}: row {lineno}: cannot parse '{raw}'") from exc
        if len(values) not in (3, 5):
            raise DispersionError(
                f"{name}: row {lineno}: expected 3 columns (isotropic) or 5 "
                f"(anisotropic), got {len(values)}"
            )
        if rows and len(values) != len(rows[0][1]):
            raise DispersionError(f"{name}: row {lineno}: inconsistent column count")
        rows.append((lineno, values))

    if not any(header):
        raise DispersionError(f"{name}: missing provenance header (non-empty '#' comment lines)")
    if not rows:
        raise DispersionError(f"{name}: no data rows")

    data = np.array([values for _, values in rows])
    wl, n, k = data[:, 0], data[:, 1::2].T, data[:, 2::2].T
    if fault := _first_fault(wl, n, k):
        raise DispersionError(f"{name}: row {rows[fault[0]][0]}: {fault[1]}")
    return MaterialDispersion(name, wl, n, k, header=tuple(header))


AIR = MaterialDispersion.constant("air", 1.0, 0.0)

_BUNDLED_CACHE: dict[str, MaterialDispersion] = {}


def bundled_names() -> list[str]:
    """Names of the dispersion tables shipped with the package."""
    pkg = resources.files("spdsim") / "data"
    return sorted(p.name[: -len(".csv")] for p in pkg.iterdir() if p.name.endswith(".csv"))


def bundled(name: str) -> MaterialDispersion:
    """Load a bundled dispersion table by material name (e.g. 'hbn', 'bp')."""
    key = name.lower()
    if key == "air":
        return AIR
    if key not in _BUNDLED_CACHE:
        pkg = resources.files("spdsim") / "data" / f"{key}.csv"
        try:
            text = pkg.read_text(encoding="utf-8")
        except FileNotFoundError:
            raise KeyError(f"no bundled dispersion data for '{name}' "
                           f"(available: {', '.join(bundled_names() + ['air'])})") from None
        _BUNDLED_CACHE[key] = load_dispersion(io.StringIO(text), name=key)
    return _BUNDLED_CACHE[key]
