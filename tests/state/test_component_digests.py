"""Per-component grading digests: the fail-fast convergence check.

Early-exit grading compares a struck run with a golden checkpoint one
component at a time (:meth:`LeonSystem.matches_digests`).  The contract:
the fail-fast answer is the whole-state answer -- a match exactly when
:meth:`LeonSystem.state_digest` equals the golden one -- and a mismatch
stops before the components behind it are hashed.
"""

import random

import pytest

from repro.core.system import DIGEST_ORDER
from repro.fault.campaign import Campaign, CampaignConfig
from repro.fault.injector import FaultInjector
from repro.mem.memctrl import MemoryController
from repro.state.snapshot import OBSERVATION_COMPONENTS

#: Instructions both copies run past the boundary before the second
#: comparison: enough for TMR scrubbing to repair flip-flop strikes (a
#: match) while strikes in the RAMs stay resident (a mismatch).
FORWARD = 1_500

#: Every injectable storage class: register file, f-registers, both
#: caches' tag and data RAMs, external memory, flip-flop bank.
TARGETS = ("regfile", "fpregs", "icache-tag", "icache-data", "dcache-tag",
           "dcache-data", "ext-sram", "ext-prom", "flipflops")

#: Seeded strikes per target.
STRIKES = 4

#: The snapshot components DIGEST_ORDER's ``"peripherals"`` digest covers.
PERIPHERALS = ("timers", "uart1", "uart2", "ioport", "dma", "sysregs")


class Golden:
    """A warmed-up system, its boundary snapshot, and the golden digests
    at the boundary and :data:`FORWARD` instructions past it."""

    def __init__(self):
        campaign = Campaign(CampaignConfig(program="iutest"))
        self.system, self.spin, _base, _program = campaign._build_program()
        self.system.run(3_000, stop_pc=self.spin)
        self.snapshot = self.system.snapshot()
        self.injector = FaultInjector(self.system,
                                      include_external_memory=True)
        #: (steps past the boundary, component digests, state digest).
        self.references = []
        for steps in (0, FORWARD):
            self.rewind(steps)
            self.references.append((steps, self.system.component_digests(),
                                    self.system.state_digest()))

    def rewind(self, steps=0, strike=None):
        """Back to the boundary, optionally strike, then run *steps*."""
        self.system.restore(self.snapshot)
        if strike is not None:
            self.injector.inject(*strike)
        if steps:
            self.system.run(steps, stop_pc=self.spin)


@pytest.fixture(scope="module")
def golden():
    return Golden()


def test_digest_order_covers_the_architectural_snapshot(golden):
    system = golden.system
    assert len(system.component_digests()) == len(DIGEST_ORDER)
    assert DIGEST_ORDER[-1] == "memory"
    covered = set(DIGEST_ORDER) - {"peripherals"} | set(PERIPHERALS)
    assert covered == set(system.snapshot().components) \
        - set(OBSERVATION_COMPONENTS)


def test_fail_fast_match_agrees_with_state_digest(golden):
    outcomes = set()
    for target in TARGETS:
        rng = random.Random(f"strike:{target}")
        bits = golden.injector.targets[target].bits
        for _ in range(STRIKES):
            strike = (target, rng.randrange(bits))
            for steps, digests, state in golden.references:
                golden.rewind(steps, strike)
                match = golden.system.matches_digests(digests)
                assert match == (golden.system.state_digest() == state), \
                    (strike, steps)
                outcomes.add((target, steps, match))
    # Every fresh strike differs; scrubbed flip-flops reconverge.
    assert not any(match for _target, steps, match in outcomes
                   if steps == 0)
    assert ("flipflops", FORWARD, True) in outcomes


def _voter(system):
    system.ffbank.get("timer1.reload").voter.disagreements += 3


def _buffered_stores(system):
    system.dcache.buffered_stores += 5


def _write_protect(system):
    unit = system.memctrl.write_protector.units[0]
    unit.violations += 1
    unit.last_violation = 0x40000100


def _timer_underflows(system):
    system.timers.timer1.underflows += 2


def _counters(system):
    system.errors.ite += 7
    system.perf.pipeline_restarts += 1
    system.bus.transfers += 11
    system.dma.words_moved += 4


DIAG = [("voter", _voter), ("buffered_stores", _buffered_stores),
        ("write_protect", _write_protect),
        ("timer_underflows", _timer_underflows), ("counters", _counters)]


@pytest.mark.parametrize("mutate", [case[1] for case in DIAG],
                         ids=[case[0] for case in DIAG])
def test_diag_only_changes_still_match(golden, mutate):
    _steps, digests, state = golden.references[0]
    golden.rewind()
    mutate(golden.system)
    assert golden.system.snapshot() != golden.snapshot  # captured, as diag
    assert golden.system.matches_digests(digests)
    assert golden.system.state_digest() == state


def test_register_file_mismatch_never_hashes_memory(golden, monkeypatch):
    _steps, digests, _state = golden.references[0]
    hashed = []
    planes = MemoryController.planes
    monkeypatch.setattr(MemoryController, "planes",
                        lambda self: hashed.append(self) or planes(self))
    golden.rewind(strike=("regfile", 7))
    assert not golden.system.matches_digests(digests)
    assert hashed == []
    golden.rewind()
    assert golden.system.matches_digests(digests)
    assert len(hashed) == 1  # a match needs every component, memory too
