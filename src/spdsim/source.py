"""Calibrated weak-coherent-state photon source.

A pulsed laser well above threshold emits coherent states; the photon number
per pulse is Poisson with mean ``n_bar = mean_power * lambda / (h c f)``.
Attenuation preserves the Poisson character and only scales ``n_bar``, so an
optical chain of splitters and absorptive attenuators reduces to a single
transmittance factor; a fiber adds none, so the chain holds no stage for it.
The light's polarization at the device is the source's own setting, a
`materials.Polarization` or a linear angle in degrees from the armchair axis;
the chain does not change it.

Power-meter readings carry a relative uncertainty (default 5%) that
propagates multiplicatively to the inferred mean photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import check_nonnegative, check_positive
from .materials import Polarization

# CODATA: h is exact in SI since 2019; c is exact by definition.
PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s


def photon_energy_joules(wavelength_nm: float) -> float:
    """Energy h*c/lambda of a single photon."""
    check_positive(wavelength_nm=wavelength_nm)
    return PLANCK_H * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


@dataclass(frozen=True)
class CoherentPulseTrain:
    """Pulsed coherent source: Poisson photon number with mean `mean_photons`.

    `polarization` is a `materials.Polarization`, or its name, or a linear
    polarization at a finite angle in degrees from the armchair axis (90 is
    zigzag). A name is kept as its `Polarization` member.
    """

    wavelength_nm: float
    repetition_rate_hz: float
    mean_photons: float
    polarization: Polarization | float = Polarization.UNPOLARIZED

    def __post_init__(self):
        check_positive(wavelength_nm=self.wavelength_nm,
                       repetition_rate_hz=self.repetition_rate_hz)
        check_nonnegative(mean_photons=self.mean_photons)
        pol = self.polarization
        if pol in list(Polarization):
            object.__setattr__(self, "polarization", Polarization(pol))
        elif isinstance(pol, str) or not math.isfinite(pol):
            raise ValueError(f"polarization must be a finite angle in degrees, got {pol!r}")

    @property
    def photon_flux_hz(self) -> float:
        return self.mean_photons * self.repetition_rate_hz

    def pulse_count(self, duration_s: float) -> int:
        """Pulses fired at k / f, k = 0, 1, ..., before `duration_s` ends."""
        return math.floor(duration_s * self.repetition_rate_hz - 1e-9) + 1


@dataclass(frozen=True)
class PowerReading:
    """Average optical power with the meter's relative uncertainty."""

    mean_power_watts: float
    relative_uncertainty: float = 0.05

    def __post_init__(self):
        check_nonnegative(mean_power_watts=self.mean_power_watts,
                          relative_uncertainty=self.relative_uncertainty)


@dataclass(frozen=True)
class Attenuator:
    """Fixed-transmittance absorptive element (NDF, shutter, coupling loss)."""

    transmittance: float

    def __post_init__(self):
        if not (0.0 < self.transmittance <= 1.0):
            raise ValueError(f"transmittance must be in (0, 1], got {self.transmittance}")


@dataclass(frozen=True)
class Splitter:
    """Beam splitter followed along its pass arm."""

    tap_fraction: float

    def __post_init__(self):
        if not (0.0 <= self.tap_fraction < 1.0):
            raise ValueError(f"tap_fraction must be in [0, 1), got {self.tap_fraction}")

    @property
    def transmittance(self) -> float:
        return 1.0 - self.tap_fraction


def chain_transmittance(stages: tuple[Attenuator | Splitter, ...]) -> float:
    """Product of the stages' transmittances, multiplied in chain order from 1.0."""
    return math.prod((stage.transmittance for stage in stages), start=1.0)


def mean_photons_from_power(mean_power_watts: float, wavelength_nm: float,
                            repetition_rate_hz: float) -> float:
    """Invert P = n_bar h nu f: photons per pulse from average power."""
    check_positive(mean_power_watts=mean_power_watts, repetition_rate_hz=repetition_rate_hz)
    return mean_power_watts / (photon_energy_joules(wavelength_nm) * repetition_rate_hz)


def check_tap_fraction(tap_fraction: float) -> None:
    """`calibrate_flux`'s rule: the splitter sends light both ways, so its tap
    fraction is in (0, 1); written so that NaN fails."""
    if not 0.0 < tap_fraction < 1.0:
        raise ValueError(f"tap_fraction must be in (0, 1), got {tap_fraction}")


@dataclass(frozen=True)
class CalibrationResult:
    n_bar: float
    n_bar_sigma: float
    power_device_watts: float


def calibrate_flux(reading: PowerReading, tap_fraction: float,
                   post_tap_chain: tuple[Attenuator | Splitter, ...], wavelength_nm: float,
                   repetition_rate_hz: float) -> CalibrationResult:
    """Device-plane mean photon number from the tap-arm power monitor.

    The splitter sends `tap_fraction` of the power to the meter; the rest
    continues through `post_tap_chain` (shutter, NDF stack, coupling) to the
    device. The meter's relative uncertainty maps multiplicatively onto
    n_bar.
    """
    check_tap_fraction(tap_fraction)
    chain_factor = chain_transmittance(post_tap_chain)
    power_device = reading.mean_power_watts * (1.0 - tap_fraction) / tap_fraction * chain_factor
    n_bar = mean_photons_from_power(power_device, wavelength_nm, repetition_rate_hz)
    return CalibrationResult(n_bar, n_bar * reading.relative_uncertainty, power_device)
