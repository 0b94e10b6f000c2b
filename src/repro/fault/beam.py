"""The heavy-ion beam model: Weibull cross-sections and Poisson arrivals.

Calibration (documented in EXPERIMENTS.md) follows the paper's prose:

* the device SEU threshold "was measured to be below 6 MeV" -- the Weibull
  onset is placed at 4 MeV;
* the RAM cell area is ~10 mm2 (0.1 cm2) of the ~40 mm2 die, and about 10 %
  of the RAM cell area is SEU sensitive at saturation, so the summed
  saturation cross-section over all RAM bits is ~0.01 cm2;
* TMR flip-flops upset physically but correct silently ("the cross-section
  for the flip-flops could not be measured since no SEU monitoring
  capability is implemented in the TMR cells") -- they stay in the strike
  population but produce no counter increments;
* dense RAM blocks can take multiple-bit upsets in adjacent cells
  (section 4.3 [10]); the MBU fraction grows with LET.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.fault.injector import FaultInjector

#: Die area of the LEON-Express device, cm^2 ("roughly 40 mm2", section 5.3).
DIE_AREA_CM2 = 0.40

#: RAM cell area, cm^2 ("the ram size of 10 mm2", section 6).
RAM_AREA_CM2 = 0.10

#: Fraction of the RAM cell area that is SEU-sensitive at saturation
#: ("10% of the ram cell area is sensitive to SEU hits", section 6).
SENSITIVE_FRACTION = 0.10


@dataclass(frozen=True)
class WeibullCrossSection:
    """sigma(LET) = sat * (1 - exp(-((LET - onset) / width)^shape)).

    The standard four-parameter Weibull used for SEU rate prediction
    [Koga et al., ref 5 of the paper].
    """

    sat: float  # saturation cross-section, cm^2 (per bit)
    onset: float = 4.0  # threshold LET, MeV.cm^2/mg
    width: float = 40.0
    shape: float = 1.4

    def at(self, let: float) -> float:
        if let <= self.onset:
            return 0.0
        return self.sat * (1.0 - math.exp(-(((let - self.onset) / self.width) ** self.shape)))


@dataclass(frozen=True)
class BeamParameters:
    """One beam setting, as dialled at the cyclotron."""

    let: float  # effective LET, MeV.cm^2/mg
    flux: float  # ions / s / cm^2
    fluence: float  # total ions / cm^2 for the run
    seed: int = 1

    @property
    def particles(self) -> int:
        """Ions through the die area (the paper's 'particles injected').

        Rounded to nearest, not truncated: a fluence dialled to deliver
        39999.6 ions must not silently drop one.
        """
        return round(self.fluence * DIE_AREA_CM2)

    @property
    def duration_s(self) -> float:
        if self.flux <= 0.0:
            raise ConfigurationError(
                f"beam flux must be positive to give the run a duration "
                f"(flux={self.flux!r} ions/s/cm^2)")
        return self.fluence / self.flux


@dataclass
class Strike:
    """One scheduled upset: beam time, target, flat bit, MBU flag."""

    time_s: float
    target: str
    flat_bit: int
    mbu: bool


class HeavyIonBeam:
    """Monte-Carlo beam: schedules strikes over a run and applies them.

    The per-bit saturation cross-section is derived from the paper's RAM
    geometry: ``RAM_AREA * SENSITIVE_FRACTION / total RAM bits``, so the
    summed device cross-section saturates near 0.01 cm2 as measured.
    Flip-flops get a smaller per-bit sigma (large cells, higher critical
    charge); the single clock pad is given a vanishing cross-section
    (section 4.5).
    """

    #: Targets dense enough for adjacent-cell multiple-bit upsets
    #: (section 4.3 worries about MBU only "in dense ram blocks"; the
    #: large multi-port register-file cells and TMR flip-flops are not).
    MBU_ELIGIBLE = frozenset({"icache-tag", "icache-data",
                              "dcache-tag", "dcache-data"})

    #: Per-bit sigma scale factors relative to the RAM baseline.
    RELATIVE_SIGMA = {
        "regfile": 1.2,  # multi-port cells are larger
        "fpregs": 1.2,
        "flipflops": 0.5,
        "ext-prom": 0.0,  # external memory is not under the beam
        "ext-sram": 0.0,
        "ext-io": 0.0,
    }

    def __init__(self, injector: FaultInjector, *,
                 mbu_onset_let: float = 20.0,
                 mbu_max_fraction: float = 0.12) -> None:
        self.injector = injector
        self.mbu_onset_let = mbu_onset_let
        self.mbu_max_fraction = mbu_max_fraction
        ram_bits = sum(
            target.bits for name, target in injector.targets.items()
            if self.RELATIVE_SIGMA.get(name, 1.0) > 0
        )
        if ram_bits == 0:
            raise ConfigurationError("no strikable storage in this system")
        self._sigma_bit_sat = RAM_AREA_CM2 * SENSITIVE_FRACTION / ram_bits  # state: config -- die geometry constant derived from target sizes

    # -- cross-section queries ------------------------------------------------------

    def bit_cross_section(self, target_name: str) -> WeibullCrossSection:
        scale = self.RELATIVE_SIGMA.get(target_name, 1.0)
        return WeibullCrossSection(sat=self._sigma_bit_sat * scale)

    def target_cross_section(self, target_name: str, let: float) -> float:
        """sigma(LET) summed over all bits of one target, cm^2."""
        target = self.injector.targets[target_name]
        return self.bit_cross_section(target_name).at(let) * target.bits

    def device_cross_section(self, let: float) -> float:
        """Physical (upset) cross-section of the whole die, cm^2.

        The *measured* cross-section of the paper is smaller: it only counts
        upsets that a program detects; the campaign computes that one.
        """
        return sum(
            self.target_cross_section(name, let) for name in self.injector.targets
        )

    def mbu_fraction(self, let: float) -> float:
        """Probability that an upset is a double (adjacent-cell) upset."""
        if let <= self.mbu_onset_let:
            return 0.0
        span = 110.0 - self.mbu_onset_let
        return self.mbu_max_fraction * min(1.0, (let - self.mbu_onset_let) / span)

    # -- strike scheduling --------------------------------------------------------------

    def expected_upsets(self, params: BeamParameters) -> float:
        return params.fluence * self.device_cross_section(params.let)

    def schedule(self, params: BeamParameters) -> List[Strike]:
        """Draw the full strike schedule for one beam run.

        Upset arrivals are Poisson with rate flux * sigma_device(LET); each
        strike picks a target weighted by its sigma-scaled bit count and a
        uniform bit within it.  The draw order per strike (arrival, target,
        bit, MBU) is part of the recorded-results contract: changing it
        changes every seeded run.
        """
        rate = params.flux * self.device_cross_section(params.let)
        if rate <= 0:
            return []
        rng = random.Random(params.seed)
        names = list(self.injector.targets)
        weights = [
            self.injector.targets[name].bits * self.bit_cross_section(name).at(params.let)
            for name in names
        ]
        mbu_p = self.mbu_fraction(params.let)
        duration_s = params.duration_s
        strikes: List[Strike] = []
        time_s = 0.0
        while True:
            time_s += rng.expovariate(rate)
            if time_s >= duration_s:
                return strikes
            name = rng.choices(names, weights=weights, k=1)[0]
            flat_bit = rng.randrange(self.injector.targets[name].bits)
            mbu = name in self.MBU_ELIGIBLE and rng.random() < mbu_p
            strikes.append(Strike(time_s, name, flat_bit, mbu))

    def apply(self, strike: Strike) -> None:
        """Land one strike (and its MBU companion, if any) on the device."""
        self.injector.inject(strike.target, strike.flat_bit)
        if strike.mbu and self.injector.targets[strike.target].bits_per_word:
            self.injector.inject_adjacent(strike.target, strike.flat_bit)
