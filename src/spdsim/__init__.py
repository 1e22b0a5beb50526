"""Simulation and analysis toolkit for a 1550 nm thin-film single-photon detector.

Its modules follow the stages of the physical experiment, then the
configuration and the command line that run them:

- `materials`: complex refractive-index tables, including in-plane anisotropy.
- `tmm`: transfer-matrix optics of the layered device, absorption sweeps and
  thickness optimization.
- `source`: weak coherent pulse trains, attenuator/splitter chains, and
  power-meter calibration.
- `detsim`: stochastic simulator of the capture/release detection cycle with
  dark counts, dead time, and synthetic output-voltage traces.
- `analysis`: event recovery from traces, occupation histograms, and
  quantum-efficiency estimators.
- `config`: the one YAML document that drives every command, validated and
  turned into the objects above; its defaults hold the default device stack.
- `cli`: command-line entry points gluing the above into reproducible runs.
"""

import json
import math
import os
from pathlib import Path
from typing import Any, Callable

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


def check_positive(**values: float) -> None:
    """Raise ValueError, naming the first of `values` not positive and finite (as NaN is not)."""
    for name, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")


def check_nonnegative(**values: float) -> None:
    """Raise ValueError, naming the first of `values` not nonnegative and finite (as NaN is not)."""
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{name} must be nonnegative and finite, got {value}")


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


def read_text(path: os.PathLike | str, parse: Callable[[str], Any] = str) -> Any:
    """`parse` of the UTF-8 text of the file at `path`. A ValueError, from a
    file that is not UTF-8 or from `parse` (`json.loads` on a file that is not
    JSON), is raised again with the path in front of its message."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_json(path: os.PathLike | str, doc: Any) -> None:
    """Write `doc` to `path` as the one JSON output format: UTF-8, keys sorted,
    indented by 2, with a final newline; a NaN or an infinity, which JSON
    cannot hold, raises ValueError naming the file before it is written."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    Path(path).write_text(text + "\n", encoding="utf-8")
