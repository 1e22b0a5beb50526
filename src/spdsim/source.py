"""Calibrated weak-coherent-state photon source.

A pulsed laser well above threshold emits coherent states; the photon number
per pulse is Poisson with mean ``n_bar = mean_power * lambda / (h c f)``.
Attenuation preserves the Poisson character and only scales ``n_bar``, so an
optical chain of splitters and absorptive attenuators reduces to a single
transmittance factor; a fiber adds none, so the chain holds no stage for it.
The light's polarization at the device is the source's own setting, a linear
axis angle or "unpolarized"; the chain does not change it.

Power-meter readings carry a relative uncertainty (default 5%) that
propagates multiplicatively to the inferred mean photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA: h is exact in SI since 2019; c is exact by definition.
PLANCK_H = 6.62607015e-34  # J s
SPEED_OF_LIGHT = 299792458.0  # m / s


def photon_energy_joules(wavelength_nm: float) -> float:
    """Energy h*c/lambda of a single photon."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    return PLANCK_H * SPEED_OF_LIGHT / (wavelength_nm * 1e-9)


@dataclass(frozen=True)
class PulsePolarization:
    """Linear polarization at `angle_deg` in the device frame; None = unpolarized.

    Angle 0 is aligned with the absorber's armchair axis, 90 with zigzag.
    """

    angle_deg: float | None = None
    NAMED = ("unpolarized", "armchair", "zigzag")  # the classmethods that name a state

    def __post_init__(self):
        if self.angle_deg is not None and not math.isfinite(self.angle_deg):
            raise ValueError(
                f"polarization must be a finite angle in degrees, got {self.angle_deg}")

    @classmethod
    def unpolarized(cls) -> "PulsePolarization":
        return cls(None)

    @classmethod
    def linear(cls, angle_deg: float) -> "PulsePolarization":
        return cls(float(angle_deg))

    @classmethod
    def armchair(cls) -> "PulsePolarization":
        return cls.linear(0.0)

    @classmethod
    def zigzag(cls) -> "PulsePolarization":
        return cls.linear(90.0)

    @property
    def is_unpolarized(self) -> bool:
        return self.angle_deg is None


@dataclass(frozen=True)
class CoherentPulseTrain:
    """Pulsed coherent source: Poisson photon number with mean `mean_photons`."""

    wavelength_nm: float
    repetition_rate_hz: float
    mean_photons: float
    polarization: PulsePolarization = PulsePolarization.unpolarized()

    def __post_init__(self):
        for name in ("wavelength_nm", "repetition_rate_hz"):
            v = getattr(self, name)
            if not v > 0:  # written so that NaN fails
                raise ValueError(f"{name} must be positive, got {v}")
        if not self.mean_photons >= 0:
            raise ValueError(f"mean_photons must be nonnegative, got {self.mean_photons}")

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
        for name in ("mean_power_watts", "relative_uncertainty"):
            v = getattr(self, name)
            if not v >= 0:  # written so that NaN fails
                raise ValueError(f"{name} must be nonnegative, got {v}")


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


def poisson_pmf(n_bar: float, n: int) -> float:
    """P(n) = exp(-n_bar) n_bar^n / n!, evaluated in log space for stability."""
    if n_bar < 0:
        raise ValueError("mean photon number must be nonnegative")
    if n < 0 or n != int(n):
        raise ValueError("photon number must be a nonnegative integer")
    n = int(n)
    if n_bar == 0.0:
        return 1.0 if n == 0 else 0.0
    return math.exp(-n_bar + n * math.log(n_bar) - math.lgamma(n + 1))


def multi_photon_probability(n_bar: float) -> float:
    """Probability of a pulse carrying more than one photon: 1 - e^-n (1 + n)."""
    if n_bar < 0:
        raise ValueError("mean photon number must be nonnegative")
    # -expm1 keeps precision for n_bar << 1 where the direct form cancels.
    return -math.expm1(-n_bar) - n_bar * math.exp(-n_bar)


def mean_photons_from_power(mean_power_watts: float, wavelength_nm: float,
                            repetition_rate_hz: float) -> float:
    """Invert P = n_bar h nu f: photons per pulse from average power."""
    if mean_power_watts <= 0 or repetition_rate_hz <= 0:
        raise ValueError("power and repetition rate must be positive")
    return mean_power_watts / (photon_energy_joules(wavelength_nm) * repetition_rate_hz)


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
    if not (0.0 < tap_fraction < 1.0):
        raise ValueError("tap fraction must be in (0, 1)")
    chain_factor = chain_transmittance(post_tap_chain)
    power_device = reading.mean_power_watts * (1.0 - tap_fraction) / tap_fraction * chain_factor
    n_bar = mean_photons_from_power(power_device, wavelength_nm, repetition_rate_hz)
    return CalibrationResult(n_bar, n_bar * reading.relative_uncertainty, power_device)
