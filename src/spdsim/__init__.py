"""Simulation and analysis toolkit for a 1550 nm thin-film single-photon detector.

Subpackages map onto the stages of the physical experiment:

- `materials`: complex refractive-index tables, including in-plane anisotropy.
- `tmm`: transfer-matrix optics of the layered device, absorption sweeps and
  thickness optimization.
- `source`: weak coherent pulse trains, attenuator/splitter chains, and
  power-meter calibration.
- `detsim`: stochastic simulator of the capture/release detection cycle with
  dark counts, dead time, and synthetic output-voltage traces.
- `analysis`: event recovery from traces, occupation histograms, and
  quantum-efficiency estimators.
- `cli`: command-line entry points gluing the above into reproducible runs.
"""

import math
import os

__version__ = "0.1.0"


def check_memory(need_bytes: float, what: str) -> None:
    """Raise ValueError, naming `what`, when `need_bytes` exceed physical
    memory; pass where the OS does not report its memory."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need_bytes > memory:
        raise ValueError(f"{what}, which need {need_bytes:.4g} bytes; "
                         f"this machine has {memory} bytes")


def finite_number(doc: object, path: os.PathLike | str, *keys: str) -> float:
    """`doc[keys[0]][keys[1]]...` of the JSON document read from `path`, as a
    float; raise ValueError, naming the file and the key, when it is missing
    or is not a finite number."""
    value = doc
    for key in keys:
        value = value.get(key) if isinstance(value, dict) else None
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{path}: {'.'.join(keys)} is missing or not a finite number")
    return float(value)
