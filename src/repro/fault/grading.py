"""Fast fault grading: golden digest timelines and early exits.

Lopez-Ongil et al. ("Techniques for Fast Transient Fault Grading Based on
Autonomous Emulation", PAPERS.md) observe that almost every injected fault
is boring: the faulted run either reconverges to the golden (strike-free)
run shortly after its last upset is corrected or overwritten, or diverges
for good.  Executing every run to program end therefore spends nearly all
campaign wall-clock on tails whose outcome is already decided.

This module holds the data model of the grading layer:

* :class:`GoldenTimeline` -- periodic architectural-digest checkpoints of
  the golden run, computed once per campaign configuration by
  :func:`repro.fault.campaign.prepare_warm_start` and shipped to every
  run inside the :class:`~repro.fault.campaign.WarmStart`.  A faulted run
  that reaches a checkpoint boundary with a matching digest has provably
  reconverged: its remaining execution -- every instruction, counter
  freeze, and result-area write -- is the golden run's, so it terminates
  there and reports the golden end-of-run readouts, byte-identical to
  full execution.
* :class:`DivergenceFix` / :func:`divergence_exit` -- the permanent-
  divergence early exit.  A faulted run whose architectural digest (and
  cache-flush phase) is *identical at two consecutive boundaries* is in
  a fixed point: execution from the earlier boundary is periodic with
  period equal to the boundary spacing, so the run's end state is
  computed exactly by advancing ``(end - boundary) % period``
  instructions and adding ``(end - boundary) // period`` times the
  per-period cycle/counter deltas (``exit_reason="diverged"``).  Latent
  runs -- strikes parked in state the program never reads again -- stop
  costing their whole tail.

Digests are architectural (:meth:`repro.state.snapshot.Snapshot.digest`):
diag/counter state is excluded, because the error monitor remembers that
a strike happened long after the architectural state has reconverged --
and grading must classify exactly those runs early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: Checkpoints per golden timeline (the schedule may emit fewer when the
#: window is too short for the spacing floor).
DEFAULT_CHECKPOINTS = 16

#: Floor on checkpoint spacing, in instructions.  An architectural digest
#: costs roughly a thousand simulated instructions of host time, so denser
#: boundaries would cost diverged runs more than the skipped tail saves.
MIN_CHECKPOINT_INTERVAL = 2_000


@dataclass(frozen=True)
class GoldenRun:
    """End-state of the strike-free run: what the host would log at the
    end of the full run, reported verbatim by effaced runs."""

    sw_errors: int
    error_traps: int
    iterations: int
    halted: bool
    executed: int
    #: Golden end-of-run error-monitor counters
    #: (:meth:`~repro.core.system.LeonSystem` ``errors.as_dict()``).  A
    #: statically-masked run reports these verbatim: a provably-dead strike
    #: never reaches an operand check, so the monitor counts exactly what
    #: the strike-free run counts.
    counts: Dict[str, int]


@dataclass(frozen=True)
class GoldenCheckpoint:
    """One golden boundary: where it is, what the state hashes to, and
    what reaching it cost the golden run."""

    #: Absolute executed-instruction count of the boundary.
    instruction: int
    #: Architectural digest of the golden state at the boundary.
    digest: str
    #: Golden device cycles consumed up to the boundary.
    cycles: int


@dataclass(frozen=True)
class GoldenTimeline:
    """The golden run, reduced to periodic digests plus its end readouts."""

    #: Instruction count at which the beam window closes.
    window_close: int
    #: Instruction count at which the golden run ended (window close plus
    #: tail, or earlier if the golden run parked in the tail).
    end: int
    #: Golden device cycles at ``end``.
    end_cycles: int
    #: Digest boundaries, ascending; always includes the window close.
    checkpoints: Tuple[GoldenCheckpoint, ...]
    #: Golden end-of-run readouts, reported verbatim by reconverged runs.
    final: GoldenRun

    def tail_cycles_from(self, checkpoint: GoldenCheckpoint) -> int:
        """Device cycles the golden run spends from *checkpoint* to end."""
        return self.end_cycles - checkpoint.cycles


@dataclass(frozen=True)
class DivergenceFix:
    """A permanently-diverged run caught at a fixed point.

    Two consecutive golden boundaries where the *faulted* digest (and
    periodic-flush phase) repeated while mismatching the golden digest:
    the machine is deterministic, so its execution from the second
    boundary on is periodic with period ``period`` -- it will never
    reconverge, and every future state is one the detector has already
    seen.  The remaining tail can therefore be extrapolated instead of
    executed (:func:`divergence_exit`), byte-identical to the full
    oracle.
    """

    #: Executed-instruction count of the second (confirming) boundary.
    boundary: int
    #: Instructions per fixed-point period (the boundary gap).
    period: int
    #: Device cycles one period costs.
    cycles_per_period: int
    #: Error-counter increments one period accrues (corrections repeat
    #: with the state, so the monitor keeps counting while parked).
    counts_per_period: Dict[str, int] = field(default_factory=dict)


def divergence_exit(fix: DivergenceFix, end: int) -> Tuple[int, int]:
    """``(periods_skipped, advance)`` landing a fixed-point run on *end*.

    State at ``boundary + advance`` equals state at *end* because full
    periods are architectural no-ops; the skipped periods' cycle and
    counter costs are added back arithmetically
    (``periods_skipped * fix.cycles_per_period`` / ``counts_per_period``).
    """
    remaining = end - fix.boundary
    if remaining <= 0 or fix.period <= 0:
        return 0, max(remaining, 0)
    periods, advance = divmod(remaining, fix.period)
    return periods, advance


def checkpoint_schedule(prefix: int, window: int, tail: int, *,
                        count: int = DEFAULT_CHECKPOINTS,
                        min_interval: int = MIN_CHECKPOINT_INTERVAL,
                        ) -> Tuple[int, ...]:
    """Absolute instruction boundaries of a golden timeline, ascending.

    A pure function of the campaign phase shape -- and therefore identical
    across ``--jobs``, warm/cold start, and resume: evenly spaced
    boundaries over ``(prefix, end]``, at most *count* of them and never
    closer than *min_interval*, always including the window close and the
    run end.
    """
    window_close = prefix + window
    end = window_close + tail
    span = end - prefix
    if span <= 0:
        return ()
    interval = max(span // max(count, 1), min_interval, 1)
    bounds = set(range(prefix + interval, end + 1, interval))
    bounds.add(window_close)
    bounds.add(end)
    ordered = sorted(bounds)
    return tuple(b for b in ordered if prefix < b <= end)
