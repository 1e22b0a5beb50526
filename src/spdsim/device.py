"""Default detector cross-section built from the bundled material tables.

`DEFAULT_LAYERS` lists the films top to bottom between air and a
semi-infinite Si substrate. The Au/Ti gate metals double as the back
reflector of the absorption-enhancing cavity; the oxide and substrate below
them are kept even though the opaque metals make their effect negligible.
"""

from __future__ import annotations

from . import materials
from .tmm import Layer, LayerStack

DESIGN_WAVELENGTH_NM = 1550.0

BP_THICKNESS_NM = 25.0

# Best cell of the default 2 nm grid of armchair BP absorptance over 0-400 nm
# spacers with the bundled tables; regenerate with `spdsim tmm map` after any
# change to the data files (tests/test_tmm.py pins it).
DEFAULT_TOP_HBN_NM = 354.0
DEFAULT_BOTTOM_HBN_NM = 82.0

# (material, thickness_nm), top to bottom; the config's default stack.layers too.
DEFAULT_LAYERS = (("hbn", DEFAULT_TOP_HBN_NM), ("bp", BP_THICKNESS_NM), ("mos2", 5.0),
                  ("wse2", 5.0), ("hbn", DEFAULT_BOTTOM_HBN_NM), ("au", 40.0), ("ti", 30.0),
                  ("sio2", 285.0))


def device_stack(top_hbn_nm: float = DEFAULT_TOP_HBN_NM,
                 bottom_hbn_nm: float = DEFAULT_BOTTOM_HBN_NM) -> LayerStack:
    """Device-default stack with configurable hBN spacer thicknesses."""
    chosen = {0: top_hbn_nm, 4: bottom_hbn_nm}  # positions in DEFAULT_LAYERS
    layers = tuple(Layer(materials.bundled(name), chosen.get(i, t))
                   for i, (name, t) in enumerate(DEFAULT_LAYERS))
    return LayerStack(layers, incident=materials.AIR, exit=materials.bundled("si"))
