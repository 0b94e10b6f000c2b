"""Mission availability: combining upset rates, coverage and recovery.

The paper's design goals (section 2) are "performance, availability and
low cost".  This module closes the loop quantitatively: given an orbital
upset rate (from :mod:`repro.fault.rates`) and an FT scheme's coverage and
recovery latency (from :mod:`repro.alternatives.schemes`), it estimates

* the **unavailability due to recovery time** (corrected upsets x recovery
  cycles -- negligible for LEON's 4-cycle restarts, visible for the IBM
  scheme's thousands);
* the **system failure rate** (uncovered upsets), and the availability
  assuming each failure costs a watchdog-reset-and-reboot outage.

The absolute numbers inherit the rate model's calibration; the comparison
*between schemes on the same environment* is the meaningful output.

Measured mode
-------------
The analytic estimate assumes a constant :data:`DEFAULT_REBOOT_SECONDS`
outage per failure.  Beam campaigns run with a recovery policy
(``campaign --recovery``) *measure* the outage distribution instead:
:func:`measure_availability` folds a set of
:class:`~repro.fault.campaign.CampaignResult` records into in-beam
availability, per-level downtime and MTTR, and
:func:`estimate_with_measured_outage` re-runs the orbital estimate with the
measured mean outage replacing the 30 s constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional

from repro.alternatives.schemes import (
    DEFAULT_UPSET_MIX,
    FtScheme,
    UpsetClass,
    all_schemes,
)
from repro.fault.rates import RatePredictor

#: Device clock for converting recovery cycles to seconds.
DEFAULT_CLOCK_HZ = 100e6

#: Outage per uncovered failure: watchdog timeout + reboot + state reload
#: (a typical on-board computer recovery budget).
DEFAULT_REBOOT_SECONDS = 30.0


@dataclass
class AvailabilityEstimate:
    """Availability of one scheme in one environment."""

    scheme: str
    environment: str
    upsets_per_day: float
    covered_fraction: float
    failures_per_day: float
    recovery_seconds_per_day: float
    outage_seconds_per_day: float

    @property
    def availability(self) -> float:
        day = 86_400.0
        down = self.recovery_seconds_per_day + self.outage_seconds_per_day
        return max(0.0, (day - down) / day)

    @property
    def mean_days_between_failures(self) -> float:
        if self.failures_per_day == 0:
            return float("inf")
        return 1.0 / self.failures_per_day


def estimate_availability(
    scheme: FtScheme,
    environment: str = "GEO",
    *,
    predictor: Optional[RatePredictor] = None,
    mix: Optional[Dict[UpsetClass, float]] = None,
    clock_hz: float = DEFAULT_CLOCK_HZ,
    reboot_seconds: float = DEFAULT_REBOOT_SECONDS,
) -> AvailabilityEstimate:
    """Fold the environment's upset rate through one scheme's outcomes."""
    predictor = predictor or RatePredictor()
    mix = mix or DEFAULT_UPSET_MIX
    rates = predictor.predict(environment)
    upsets_per_day = rates.upsets_per_day

    covered = failures = recovery_cycles = 0.0
    for upset_class, weight in mix.items():
        outcome = scheme.handle(upset_class)
        share = upsets_per_day * weight
        if outcome.corrected:
            covered += share
            recovery_cycles += share * outcome.recovery_cycles
        else:
            failures += share

    # The scheme's clock penalty stretches every recovery (and is already a
    # throughput cost, not unavailability, so it only scales the cycles).
    effective_clock = clock_hz / (1.0 + scheme.timing_penalty)
    recovery_seconds = recovery_cycles / effective_clock
    return AvailabilityEstimate(
        scheme=scheme.name,
        environment=environment,
        upsets_per_day=upsets_per_day,
        covered_fraction=covered / upsets_per_day if upsets_per_day else 1.0,
        failures_per_day=failures,
        recovery_seconds_per_day=recovery_seconds,
        outage_seconds_per_day=failures * reboot_seconds,
    )


def unprotected_estimate(environment: str = "GEO", *,
                         predictor: Optional[RatePredictor] = None,
                         reboot_seconds: float = DEFAULT_REBOOT_SECONDS
                         ) -> AvailabilityEstimate:
    """The no-FT baseline: every upset in live state is a failure."""
    predictor = predictor or RatePredictor()
    rates = predictor.predict(environment)
    return AvailabilityEstimate(
        scheme="unprotected",
        environment=environment,
        upsets_per_day=rates.upsets_per_day,
        covered_fraction=0.0,
        failures_per_day=rates.upsets_per_day,
        recovery_seconds_per_day=0.0,
        outage_seconds_per_day=rates.upsets_per_day * reboot_seconds,
    )


def compare_schemes(environment: str = "GEO") -> Dict[str, AvailabilityEstimate]:
    """All three section 7 schemes plus the unprotected baseline."""
    predictor = RatePredictor()
    estimates = {
        scheme.name: estimate_availability(scheme, environment,
                                           predictor=predictor)
        for scheme in all_schemes()
    }
    estimates["unprotected"] = unprotected_estimate(environment,
                                                    predictor=predictor)
    return estimates


# -- measured mode -----------------------------------------------------------


@dataclass
class MeasuredAvailability:
    """Availability measured from recovery-enabled campaign runs.

    All times are device time at ``clock_hz``: uptime is the cycles the
    runs spent executing, downtime the cycles their recoveries charged.
    """

    runs: int
    clock_hz: float
    uptime_seconds: float
    downtime_seconds: float
    #: Recovery actions by ladder level, summed over all runs.
    recoveries: Dict[str, int] = field(default_factory=dict)
    #: Downtime by ladder level, seconds.
    downtime_by_level: Dict[str, float] = field(default_factory=dict)
    #: Recovered error-mode halts (the events the watchdog caught).
    halts: int = 0
    #: Runs whose recovery policy gave up (still ended failed).
    unrecovered_runs: int = 0

    @property
    def recovery_events(self) -> int:
        return sum(self.recoveries.values())

    @property
    def availability(self) -> float:
        total = self.uptime_seconds + self.downtime_seconds
        if total <= 0.0:
            return 1.0
        return self.uptime_seconds / total

    @property
    def mttr_seconds(self) -> float:
        """Mean downtime per recovery action."""
        events = self.recovery_events
        return self.downtime_seconds / events if events else 0.0

    @property
    def mean_outage_seconds(self) -> float:
        """Mean outage per *reset-level* incident -- the measured
        replacement for :data:`DEFAULT_REBOOT_SECONDS`.

        Pipeline restarts and cache flushes are recovery time, not
        outages; the resets (warm/cold) are what a mission notices."""
        resets = sum(count for level, count in self.recoveries.items()
                     if level in ("warm-reset", "cold-reboot"))
        if not resets:
            return self.mttr_seconds
        outage = sum(seconds for level, seconds in
                     self.downtime_by_level.items()
                     if level in ("warm-reset", "cold-reboot"))
        return outage / resets


def measure_availability(results: Iterable, *,
                         clock_hz: float = DEFAULT_CLOCK_HZ
                         ) -> MeasuredAvailability:
    """Fold recovery-enabled campaign results into measured availability.

    ``results`` are :class:`~repro.fault.campaign.CampaignResult` records
    (typically loaded from a ``campaign --results`` JSONL store).
    Raises :class:`ValueError` unless *clock_hz* is finite and positive.
    """
    if not (math.isfinite(clock_hz) and clock_hz > 0):
        raise ValueError(
            f"clock_hz must be finite and positive, got {clock_hz!r}")
    runs = 0
    up_cycles = 0
    down_cycles = 0
    recoveries: Dict[str, int] = {}
    downtime_by_level: Dict[str, int] = {}
    halts = 0
    unrecovered = 0
    for result in results:
        runs += 1
        down = result.downtime_cycles
        down_cycles += down
        up_cycles += max(result.cycles - down, 0)
        halts += result.halts
        unrecovered += int(result.unrecovered)
        for level, count in result.recoveries.items():
            recoveries[level] = recoveries.get(level, 0) + count
        for level, cycles in result.recovery_downtime.items():
            downtime_by_level[level] = downtime_by_level.get(level, 0) + cycles
    return MeasuredAvailability(
        runs=runs,
        clock_hz=clock_hz,
        uptime_seconds=up_cycles / clock_hz,
        downtime_seconds=down_cycles / clock_hz,
        recoveries=recoveries,
        downtime_by_level={level: cycles / clock_hz
                           for level, cycles in downtime_by_level.items()},
        halts=halts,
        unrecovered_runs=unrecovered,
    )


def estimate_with_measured_outage(
    scheme: FtScheme,
    measured: MeasuredAvailability,
    environment: str = "GEO",
    *,
    predictor: Optional[RatePredictor] = None,
    mix: Optional[Dict[UpsetClass, float]] = None,
) -> AvailabilityEstimate:
    """The orbital estimate with the *measured* mean outage per failure.

    Replaces the analytic :data:`DEFAULT_REBOOT_SECONDS` assumption with
    what the recovery ladder actually cost under beam."""
    return estimate_availability(
        scheme, environment,
        predictor=predictor,
        mix=mix,
        clock_hz=measured.clock_hz,
        reboot_seconds=measured.mean_outage_seconds,
    )
