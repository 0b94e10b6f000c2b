"""Detection-latency analysis: how long errors stay latent (section 4.8).

"The data in caches and register file is only checked for errors when
accessed, and the probability of undetected multiple errors will increase
if stored data is not regularly used."

This module measures that quantitatively: inject single upsets one at a
time while a test program runs, and record how many instructions pass
before the FT machinery detects each one (or give up after a window --
the *latent* population).  The latency distribution per target is the
direct input to the multiple-error build-up risk: the longer a bit stays
latent, the larger the window for a second upset to pair with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import resolve_builder
from repro.fault.injector import FaultInjector
from repro.programs import ProgramHarness


@dataclass
class LatencySample:
    """One injected upset and its fate."""

    target: str
    flat_bit: int
    detected: bool
    latency_instructions: int  # instructions until detection (if detected)


@dataclass
class LatencyReport:
    """Detection-latency statistics for one program."""

    program: str
    window_instructions: int
    samples: List[LatencySample] = field(default_factory=list)

    def for_target(self, target: str) -> List[LatencySample]:
        return [sample for sample in self.samples if sample.target == target]

    def detection_fraction(self, target: Optional[str] = None) -> float:
        samples = self.for_target(target) if target else self.samples
        if not samples:
            return 0.0
        return sum(sample.detected for sample in samples) / len(samples)

    def mean_latency(self, target: Optional[str] = None) -> float:
        samples = [sample for sample in
                   (self.for_target(target) if target else self.samples)
                   if sample.detected]
        if not samples:
            return float("inf")
        return sum(sample.latency_instructions for sample in samples) / len(samples)

    def summary_rows(self) -> List[Dict[str, object]]:
        targets = sorted({sample.target for sample in self.samples})
        rows = []
        for target in targets:
            rows.append({
                "target": target,
                "samples": len(self.for_target(target)),
                "detected": f"{self.detection_fraction(target) * 100:.0f}%",
                "mean latency":
                    ("-" if self.mean_latency(target) == float("inf")
                     else f"{self.mean_latency(target):.0f} instr"),
            })
        return rows


def measure_detection_latency(
    program: str = "iutest",
    *,
    strikes: int = 40,
    window_instructions: int = 60_000,
    seed: int = 1,
    leon: Optional[LeonConfig] = None,
    targets: Optional[List[str]] = None,
    program_kwargs: Optional[dict] = None,
    warmup_range: tuple = (30_000, 90_000),
) -> LatencyReport:
    """Measure per-upset detection latency under ``program``.

    Each trial uses a fresh system: one upset is injected at a random
    (area-weighted) location after a random warm-up, then the program runs
    up to ``window_instructions`` while the error counters are watched.
    ``warmup_range`` defaults past the program's initialization epoch so
    strikes land in steady state (a strike into a region the program is
    *still writing* is silently erased -- real, but not the latency being
    measured).
    """
    builder = resolve_builder(program)
    leon = leon or LeonConfig.leon_express()
    rng = random.Random(seed)
    report = LatencyReport(program, window_instructions)

    for _trial in range(strikes):
        system = LeonSystem(leon)
        built, _expected = builder(leon, iterations=1_000_000,
                                   **(program_kwargs or {}))
        harness = ProgramHarness(system, built)
        injector = FaultInjector(system)
        pool = targets or [name for name in injector.targets
                           if name != "flipflops"]
        warmup = rng.randrange(*warmup_range)
        system.run(warmup)

        name = rng.choices(pool,
                           weights=[injector.targets[t].bits for t in pool],
                           k=1)[0]
        flat_bit = rng.randrange(injector.targets[name].bits)
        injector.inject(name, flat_bit)

        before = system.errors.total + system.errors.register_error_traps \
            + system.errors.memory_error_traps
        executed = 0
        detected = False
        chunk = 2_000
        while executed < window_instructions:
            run = system.run(min(chunk, window_instructions - executed))
            executed += run.instructions
            now = system.errors.total + system.errors.register_error_traps \
                + system.errors.memory_error_traps
            if now > before:
                detected = True
                break
            if run.stop_reason == "halted":
                detected = True  # it certainly made itself known
                break
        report.samples.append(LatencySample(name, flat_bit, detected,
                                            executed if detected else -1))
        _ = harness  # keeps the harness alive for the run
    return report
