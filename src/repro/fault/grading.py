"""Fast fault grading: golden digest timelines and early exits.

Lopez-Ongil et al. ("Techniques for Fast Transient Fault Grading Based on
Autonomous Emulation", PAPERS.md) observe that almost every injected fault
is boring: the faulted run either reconverges to the golden (strike-free)
run shortly after its last upset is corrected or overwritten, or diverges
for good.  Executing every run to program end therefore spends nearly all
campaign wall-clock on tails whose outcome is already decided.

This module holds the data model of the grading layer, the
:class:`GoldenTimeline`: periodic architectural-digest checkpoints of the
golden run, computed once per campaign configuration by
:func:`repro.fault.campaign.prepare_warm_start` and shipped to every run
inside the :class:`~repro.fault.campaign.WarmStart`.  A faulted run that
reaches a checkpoint boundary with matching digests has provably
reconverged: its remaining execution -- every instruction, counter
freeze, and result-area write -- is the golden run's, so it terminates
there and reports the golden end-of-run readouts, byte-identical to full
execution.  A run that matches no boundary executes to the end.

A checkpoint holds one digest per component
(:meth:`repro.core.system.LeonSystem.component_digests`), and a run is
compared with it one component at a time, cheapest first, stopping at
the first that differs
(:meth:`~repro.core.system.LeonSystem.matches_digests`).
Lopez-Ongil et al. classify a fault as soon as a difference is certain;
here almost every mismatch shows in the register file or a cache, so a
mismatch rarely pays for hashing the ~7.9 MB of external memory, which
comes last.  A match still needs every component equal, so the decision
is exactly the one a whole-state digest would give.

Digests are architectural (:func:`repro.state.snapshot.component_digest`
strips diag subtrees like :meth:`~repro.state.snapshot.Snapshot.digest`,
and the counter components have no digest): the error monitor remembers
that a strike happened long after the architectural state has
reconverged -- and grading must classify exactly those runs early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Checkpoints per golden timeline (the schedule may emit fewer when the
#: window is too short for the spacing floor).
DEFAULT_CHECKPOINTS = 16

#: Floor on checkpoint spacing, in instructions.  Chosen when every check
#: hashed the whole architectural state, at a cost of roughly a thousand
#: simulated instructions of host time, so denser boundaries cost runs
#: that never reconverge more than an earlier match saved.  With the
#: fail-fast compare that holds only for a match, which still hashes
#: everything: 7.5 ms against 14.8 ms for a whole digest (express device,
#: shared 2-vCPU host), 6.5 ms of it external memory.  A mismatch in the
#: register file costs 0.04 ms and one in a cache about 0.6 ms.  Re-tuning
#: moves the boundary runs exit at (``fault.skipped_fraction``), so it
#: needs a workload where the exit point matters.
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
    #: Per-component architectural digests of the golden state at the
    #: boundary (:meth:`~repro.core.system.LeonSystem.component_digests`).
    digests: Tuple[bytes, ...]
    #: Golden device cycles consumed up to the boundary.
    cycles: int


@dataclass(frozen=True)
class GoldenTimeline:
    """The golden run, reduced to periodic digests plus its end readouts."""

    #: Golden device cycles at the end of the golden run (window close
    #: plus tail, or earlier if the golden run parked in the tail).
    end_cycles: int
    #: Digest boundaries, ascending; always includes the window close.
    checkpoints: Tuple[GoldenCheckpoint, ...]
    #: Golden end-of-run readouts, reported verbatim by reconverged runs.
    final: GoldenRun

    def tail_cycles_from(self, checkpoint: GoldenCheckpoint) -> int:
        """Device cycles the golden run spends from *checkpoint* to end."""
        return self.end_cycles - checkpoint.cycles


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
