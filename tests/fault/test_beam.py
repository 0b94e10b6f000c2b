"""The heavy-ion beam model: Weibull curves, scheduling, MBU."""

import pytest

from repro import LeonConfig, LeonSystem
from repro.fault.beam import (
    DIE_AREA_CM2,
    RAM_AREA_CM2,
    SENSITIVE_FRACTION,
    BeamParameters,
    HeavyIonBeam,
    WeibullCrossSection,
)
from repro.fault.injector import FaultInjector


@pytest.fixture
def beam():
    system = LeonSystem(LeonConfig.leon_express())
    return HeavyIonBeam(FaultInjector(system))


class TestWeibull:
    def test_zero_below_onset(self):
        curve = WeibullCrossSection(sat=1e-7, onset=4.0)
        assert curve.at(3.0) == 0.0
        assert curve.at(4.0) == 0.0

    def test_monotone_increasing(self):
        curve = WeibullCrossSection(sat=1e-7)
        values = [curve.at(let) for let in (5, 10, 20, 40, 80, 110)]
        assert values == sorted(values)
        assert values[0] > 0

    def test_saturates(self):
        curve = WeibullCrossSection(sat=1e-7, width=20.0)
        assert curve.at(500.0) == pytest.approx(1e-7, rel=1e-3)


class TestBeamGeometry:
    def test_device_threshold_below_6_mev(self, beam):
        """'The device SEU threshold was measured to be below 6 MeV.'"""
        assert beam.device_cross_section(5.9) > 0
        assert beam.device_cross_section(3.0) == 0.0

    def test_device_saturation_near_paper_value(self, beam):
        """Saturated sigma ~ 10% of the 0.1 cm2 RAM area (section 6)."""
        sigma = beam.device_cross_section(1000.0)
        target = RAM_AREA_CM2 * SENSITIVE_FRACTION
        assert sigma == pytest.approx(target, rel=0.15)

    def test_external_memory_not_under_beam(self):
        system = LeonSystem(LeonConfig.leon_express())
        injector = FaultInjector(system, include_external_memory=True)
        beam = HeavyIonBeam(injector)
        assert beam.target_cross_section("ext-sram", 110.0) == 0.0

    def test_beam_parameters_derived_quantities(self):
        params = BeamParameters(let=110, flux=400, fluence=1e5)
        assert params.particles == int(1e5 * DIE_AREA_CM2)
        assert params.duration_s == pytest.approx(250.0)

    def test_particles_rounds_to_nearest(self):
        """A fluence dialled for 39999.6 particles must not drop one."""
        params = BeamParameters(let=110, flux=400, fluence=99_999.0)
        assert params.particles == round(99_999.0 * DIE_AREA_CM2)
        assert params.particles == 40_000  # int() would truncate to 39999

    def test_zero_flux_is_a_configuration_error(self):
        from repro.errors import ConfigurationError

        for flux in (0.0, -1.0):
            params = BeamParameters(let=110, flux=flux, fluence=1e5)
            with pytest.raises(ConfigurationError, match="flux"):
                params.duration_s


class TestScheduling:
    def test_schedule_is_reproducible(self, beam):
        params = BeamParameters(let=110, flux=400, fluence=1e3, seed=9)
        first = beam.schedule(params)
        second = beam.schedule(params)
        assert [(s.time_s, s.target, s.flat_bit) for s in first] == \
            [(s.time_s, s.target, s.flat_bit) for s in second]

    def test_upset_count_tracks_expectation(self, beam):
        params = BeamParameters(let=110, flux=400, fluence=2e4, seed=1)
        strikes = beam.schedule(params)
        expected = beam.expected_upsets(params)
        assert expected == pytest.approx(len(strikes), rel=0.25)

    def test_strikes_within_duration_and_sorted(self, beam):
        params = BeamParameters(let=60, flux=1000, fluence=5e3, seed=2)
        strikes = beam.schedule(params)
        times = [strike.time_s for strike in strikes]
        assert times == sorted(times)
        assert all(0 <= t < params.duration_s for t in times)

    def test_no_strikes_below_threshold(self, beam):
        params = BeamParameters(let=2.0, flux=5000, fluence=1e6, seed=3)
        assert beam.schedule(params) == []

    def test_mbu_fraction_grows_with_let(self, beam):
        assert beam.mbu_fraction(10) == 0.0
        assert 0 < beam.mbu_fraction(60) < beam.mbu_fraction(110)

    def test_apply_lands_in_target(self, beam):
        params = BeamParameters(let=110, flux=400, fluence=5e3, seed=4)
        strikes = beam.schedule(params)
        assert strikes
        strike = strikes[0]
        target = beam.injector.targets[strike.target]
        before = target.peek_flat(strike.flat_bit)
        beam.apply(strike)
        assert target.peek_flat(strike.flat_bit) == 1 - before

    def test_higher_let_means_more_upsets(self, beam):
        low = beam.schedule(BeamParameters(let=10, flux=400, fluence=2e4, seed=5))
        high = beam.schedule(BeamParameters(let=110, flux=400, fluence=2e4, seed=5))
        assert len(high) > 2 * len(low)
