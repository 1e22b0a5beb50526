"""Default detector cross-section built from the bundled material tables.

Layer order, top to bottom: air / top hBN / BP (25 nm) / MoS2 (5 nm) /
WSe2 (5 nm) / bottom hBN / Au (40 nm) / Ti (30 nm) / SiO2 (285 nm) /
Si (semi-infinite). The Au/Ti gate metals double as the back reflector of
the absorption-enhancing cavity; the oxide and substrate below them are
kept even though the opaque metals make their effect negligible.
"""

from __future__ import annotations

from . import materials
from .tmm import Layer, LayerStack

DESIGN_WAVELENGTH_NM = 1550.0

BP_THICKNESS_NM = 25.0
MOS2_THICKNESS_NM = 5.0
WSE2_THICKNESS_NM = 5.0
AU_THICKNESS_NM = 40.0
TI_THICKNESS_NM = 30.0
SIO2_THICKNESS_NM = 285.0

# Best cell of the default 2 nm grid of armchair BP absorptance over 0-400 nm
# spacers with the bundled tables; regenerate with `spdsim tmm map` after any
# change to the data files (tests/test_tmm.py pins it).
DEFAULT_TOP_HBN_NM = 354.0
DEFAULT_BOTTOM_HBN_NM = 82.0


def device_stack(top_hbn_nm: float = DEFAULT_TOP_HBN_NM,
                 bottom_hbn_nm: float = DEFAULT_BOTTOM_HBN_NM,
                 bp_nm: float = BP_THICKNESS_NM) -> LayerStack:
    """Device-default stack with configurable hBN spacer thicknesses."""
    hbn = materials.bundled("hbn")
    return LayerStack(
        layers=(
            Layer(hbn, top_hbn_nm),
            Layer(materials.bundled("bp"), bp_nm),
            Layer(materials.bundled("mos2"), MOS2_THICKNESS_NM),
            Layer(materials.bundled("wse2"), WSE2_THICKNESS_NM),
            Layer(hbn, bottom_hbn_nm),
            Layer(materials.bundled("au"), AU_THICKNESS_NM),
            Layer(materials.bundled("ti"), TI_THICKNESS_NM),
            Layer(materials.bundled("sio2"), SIO2_THICKNESS_NM),
        ),
        incident=materials.AIR,
        exit=materials.bundled("si"),
    )
