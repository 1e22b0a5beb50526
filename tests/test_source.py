import math
from dataclasses import replace

import pytest

from oracles import multi_photon_probability, multi_photon_series, poisson_pmf, poisson_pmf_series
from spdsim.materials import Polarization
from spdsim.source import (PLANCK_H, SPEED_OF_LIGHT, Attenuator, CoherentPulseTrain,
                           PowerReading, Splitter, calibrate_flux,
                           chain_transmittance, check_tap_fraction, mean_photons_from_power,
                           photon_energy_joules)


def through(train, chain):
    """The pulse train after the chain: only n_bar changes."""
    return replace(train, mean_photons=train.mean_photons * chain_transmittance(chain))


class TestPoissonPmf:
    def test_vacuum_state(self):
        assert poisson_pmf(0.0, 0) == 1.0
        assert poisson_pmf(0.0, 1) == 0.0
        assert poisson_pmf(0.0, 17) == 0.0

    def test_single_photon_weak_pulse(self):
        assert poisson_pmf(0.1, 1) == pytest.approx(0.090484, abs=1e-6)

    def test_matches_series_product(self):
        for n_bar in (0.0053, 0.2652, 1.7, 12.0):
            for n in (0, 1, 2, 5, 30):
                assert poisson_pmf(n_bar, n) == pytest.approx(
                    poisson_pmf_series(n_bar, n), rel=1e-12)

    def test_normalization(self):
        total = sum(poisson_pmf(0.2652, n) for n in range(51))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_mean_identity(self):
        for n_bar in (0.05, 0.2652, 3.0, 40.0):
            n_max = int(n_bar + 20 * math.sqrt(n_bar) + 30)
            mean = sum(n * poisson_pmf(n_bar, n) for n in range(n_max + 1))
            assert mean == pytest.approx(n_bar, abs=1e-10)

    def test_stable_at_large_n(self):
        value = poisson_pmf(1000.0, 1000)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(1.0 / math.sqrt(2 * math.pi * 1000), rel=1e-3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            poisson_pmf(-0.1, 0)
        with pytest.raises(ValueError):
            poisson_pmf(0.1, -1)


class TestMultiPhotonProbability:
    def test_zero(self):
        assert multi_photon_probability(0.0) == 0.0

    def test_low_occupation_endpoints(self):
        assert multi_photon_probability(0.0053) == pytest.approx(1.40e-5, rel=1e-2)
        assert multi_photon_probability(0.0053) == pytest.approx(
            multi_photon_series(0.0053), abs=1e-12)
        assert multi_photon_probability(0.2652) == pytest.approx(
            multi_photon_series(0.2652), abs=1e-12)

    def test_tiny_argument_stability(self):
        n_bar = 1e-9
        assert multi_photon_probability(n_bar) == pytest.approx(n_bar ** 2 / 2, rel=1e-6)


class TestPowerRelation:
    def test_single_photon_energy_anchor(self):
        # hc/lambda at 1550 nm is ~1.28e-19 J (order 1e-19)
        assert photon_energy_joules(1550.0) == pytest.approx(1.2816e-19, rel=1e-4, abs=0)

    def test_nbar_one_at_1khz(self):
        assert mean_photons_from_power(1.2816e-16, 1550.0, 1e3) == pytest.approx(1.0, rel=1e-4)

    def test_doubling_rate_halves_nbar(self):
        p, wl = 3.3e-18, 1550.0
        assert mean_photons_from_power(p, wl, 2e4) == pytest.approx(
            0.5 * mean_photons_from_power(p, wl, 1e4), rel=1e-14)

    def test_round_trip_exact(self):
        for n_bar in (0.0053, 0.1, 7.3):
            p = n_bar * (PLANCK_H * SPEED_OF_LIGHT / 1550e-9) * 1e4  # P = n_bar h nu f
            assert mean_photons_from_power(p, 1550.0, 1e4) == pytest.approx(n_bar, rel=1e-14)

    def test_low_flux_endpoint(self):
        assert mean_photons_from_power(6.79e-18, 1550.0, 1e4) == pytest.approx(0.0053, rel=1e-3)

    def test_nonpositive_inputs_rejected(self):
        with pytest.raises(ValueError):
            mean_photons_from_power(0.0, 1550.0, 1e4)
        with pytest.raises(ValueError):
            mean_photons_from_power(1e-18, 1550.0, 0.0)


def test_pulse_count_ends_before_the_duration():
    train = CoherentPulseTrain(1550.0, 1e4, 0.1)
    assert train.pulse_count(1.0) == 10_000  # the pulse at t = 1 s is not in a 1 s run
    assert train.pulse_count(2.5e-4) == 3
    assert train.pulse_count(1e-9) == 1


class TestChain:
    def train(self):
        return CoherentPulseTrain(1550.0, 1e4, 1e6, "armchair")

    def test_worked_chain_example(self):
        out = through(self.train(), (Attenuator(1e-6), Splitter(0.5)))
        assert out.mean_photons == pytest.approx(1e6 * 1e-6 * 0.5, rel=1e-12)
        assert out.polarization == self.train().polarization

    def test_chain_composition_associative(self):
        stages = (Attenuator(0.3), Splitter(0.25), Attenuator(0.9), Splitter(0.1))
        whole = through(self.train(), stages)
        stepwise = self.train()
        for stage in stages:
            stepwise = through(stepwise, (stage,))
        assert stepwise.mean_photons == pytest.approx(whole.mean_photons, rel=1e-12)

    def test_power_reading_through_attenuators(self):
        factor = chain_transmittance((Attenuator(0.1), Splitter(0.5)))
        out = replace(PowerReading(2e-9), mean_power_watts=2e-9 * factor)
        assert out.mean_power_watts == pytest.approx(1e-10, rel=1e-12, abs=0)
        assert out.relative_uncertainty == 0.05

    def test_stage_validation(self):
        with pytest.raises(ValueError):
            Attenuator(0.0)
        with pytest.raises(ValueError):
            Attenuator(1.2)
        with pytest.raises(ValueError):
            Splitter(1.0)

    def test_chain_transmittance_without_polarization(self):
        factor = chain_transmittance((Attenuator(0.5), Splitter(0.2)))
        assert factor == pytest.approx(0.4, rel=1e-12)
        assert type(chain_transmittance(())) is float


class TestRangeRules:
    @pytest.mark.parametrize("field", ["wavelength_nm", "repetition_rate_hz", "mean_photons"])
    def test_pulse_train_rejects_nan(self, field):
        values = {"wavelength_nm": 1550.0, "repetition_rate_hz": 1e4, "mean_photons": 0.1}
        with pytest.raises(ValueError, match=f"^{field} must be "):
            CoherentPulseTrain(**{**values, field: math.nan})

    @pytest.mark.parametrize("field", ["wavelength_nm", "repetition_rate_hz", "mean_photons"])
    def test_pulse_train_rejects_infinity(self, field):
        # an infinite repetition rate used to reach simulate and raise OverflowError
        values = {"wavelength_nm": 1550.0, "repetition_rate_hz": 1e4, "mean_photons": 0.1}
        with pytest.raises(ValueError, match=f"^{field} must be .* and finite, got inf$"):
            CoherentPulseTrain(**{**values, field: math.inf})

    def test_pulse_train_takes_a_polarization_name_or_a_finite_angle(self):
        for bad in ("circular", math.inf):
            with pytest.raises(ValueError, match="^polarization must be a finite angle"):
                CoherentPulseTrain(1550.0, 1e4, 0.1, bad)
        assert CoherentPulseTrain(1550.0, 1e4, 0.1, "zigzag").polarization is \
            Polarization.ZIGZAG
        assert CoherentPulseTrain(1550.0, 1e4, 0.1).polarization is Polarization.UNPOLARIZED
        assert CoherentPulseTrain(1550.0, 1e4, 0.1, 30).polarization == 30

    @pytest.mark.parametrize("field", ["mean_power_watts", "relative_uncertainty"])
    def test_power_reading_rejects_nan(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative"):
            PowerReading(**{"mean_power_watts": 1e-9, field: math.nan})

    @pytest.mark.parametrize("field", ["mean_power_watts", "relative_uncertainty"])
    def test_power_reading_rejects_infinity(self, field):
        # an infinite power used to write "n_bar": Infinity to calibration.json
        with pytest.raises(ValueError, match=f"^{field} must be nonnegative and finite, got inf$"):
            PowerReading(**{"mean_power_watts": 1e-9, field: math.inf})


class TestCalibration:
    def test_symmetric_tap_lossless_chain(self):
        reading = PowerReading(1.2816e-16)
        result = calibrate_flux(reading, 0.5, (), 1550.0, 1e3)
        assert result.power_device_watts == pytest.approx(1.2816e-16, rel=1e-12, abs=0)
        assert result.n_bar == pytest.approx(1.0, rel=1e-4)

    def test_uncertainty_propagates_linearly(self):
        result = calibrate_flux(PowerReading(1e-12, relative_uncertainty=0.05), 0.5, (),
                                1550.0, 1e4)
        assert result.n_bar_sigma == pytest.approx(0.05 * result.n_bar, rel=1e-12)

    def test_worked_example(self):
        # tap 0.5, post-tap attenuation 1e-7, 1.28e-9 W at the meter, 10 kHz
        result = calibrate_flux(PowerReading(1.28e-9), 0.5, (Attenuator(1e-7),), 1550.0, 1e4)
        assert result.n_bar == pytest.approx(0.1, rel=2e-3)

    def test_degenerate_tap_rejected(self):
        with pytest.raises(ValueError):
            calibrate_flux(PowerReading(1e-9), 0.0, (), 1550.0, 1e4)
        with pytest.raises(ValueError):
            calibrate_flux(PowerReading(1e-9), 1.0, (), 1550.0, 1e4)

    @pytest.mark.parametrize("tap", [0.0, 1.0, -0.5, 1.5, math.inf, math.nan])
    def test_tap_fraction_rule_names_the_parameter(self, tap):
        for check in (lambda: check_tap_fraction(tap),
                      lambda: calibrate_flux(PowerReading(1e-9), tap, (), 1550.0, 1e4)):
            with pytest.raises(ValueError,
                               match=rf"^tap_fraction must be in \(0, 1\), got {tap}$"):
                check()
