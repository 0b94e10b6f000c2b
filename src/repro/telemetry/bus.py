"""The telemetry event bus: SEU lifecycle tracing for the fault path.

Every event is a plain dict with an ``"ev"`` discriminator, designed to
serialise straight to JSONL.  The taxonomy (see DESIGN.md):

``strike``
    A particle hit: upset id, beam time, target, flat bit, LET, MBU flag,
    instruction count.  Emitted by the campaign as it applies the beam.
``detect``
    A protection layer noticed a corrupted word: site (target name),
    word index, mechanism (parity/dual-parity/bch/edac/tmr-vote/
    lockstep-compare), kind (correctable/detected), which Table-2 style
    counter incremented, instruction count.
``resolve``
    The corruption was repaired or converted to a trap: site, word,
    action (refetch/invalidate/pipeline-restart/trap/tmr-scrub/...).
``close``
    End-of-run classification for upsets never detected: state
    ``latent`` (still resident in a suspect word) or ``masked``
    (overwritten before any access).
``recovery`` / ``watchdog-reset`` / ``compare`` / ``resync`` /
``fail-over``
    Recovery-ladder rungs, watchdog fires and lock-step activity.
``run-start`` / ``span`` / ``run-end``
    Per-run campaign framing: the configuration, phase-tagged wall
    timers (setup/golden-prefix/beam/drain), and the final readouts.
``early-exit``
    Fast-grading framing: the run terminated at a golden-timeline
    checkpoint (reason, boundary instruction, instructions skipped).
    The ``close`` events that follow carry the golden end-of-run
    instruction count, so lifecycles are byte-identical to the
    full-execution trace.

Correlation: the bus keeps a table of *open* upsets keyed by
``(target, word)``.  A ``detect``/``resolve`` at a site attaches to the
most recent open upset there (or any open upset of the target when the
word is unknown, e.g. FPU register corrections).  ``close_open``
guarantees every strike reaches a terminal event.

Hot-path contract: instrumented code must guard emission with
``if telemetry.enabled:`` and only on already-rare paths (error
handling, recovery, end of run).  The fault-free fast paths
(``lookup_word``, ``read_fast``, ``run_fast``) are untouched, and the
module-level :data:`NULL_TELEMETRY` singleton -- disabled, null-sinked
-- is what every component holds by default, so the disabled layer
costs one attribute read on paths that were already off the fast path.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.telemetry.sinks import NullSink

#: Terminal lifecycle states an upset can reach via ``close``.
CLOSE_STATES = ("latent", "masked")


class Telemetry:
    """Structured event emitter with SEU open-upset correlation."""

    __slots__ = ("enabled", "sink", "_next_upset", "_open")

    def __init__(self, sink=None, *, enabled: bool = True) -> None:
        self.enabled = enabled
        self.sink = sink if sink is not None else NullSink()
        self._next_upset = 0
        #: (target, word) -> open upset ids at that site, oldest first.
        self._open: Dict[Tuple[str, Optional[int]], List[int]] = {}

    # ------------------------------------------------------------------
    # Emission primitives
    # ------------------------------------------------------------------

    def emit(self, event: Dict[str, object]) -> None:
        self.sink.write(event)

    def note(self, ev: str, **fields) -> None:
        """Emit a free-form event of type *ev*."""
        event: Dict[str, object] = {"ev": ev}
        event.update(fields)
        self.emit(event)

    # ------------------------------------------------------------------
    # SEU lifecycle
    # ------------------------------------------------------------------

    def strike(self, target: str, bit: int, *, word: Optional[int],
               time_s: float, let: float, mbu: bool, instr: int,
               kind: Optional[str] = None) -> int:
        """Record an injected fault; returns the new upset id.

        ``kind`` names the fault model for non-default injections
        (stuck-at, SEFI, attacks); ``None`` -- the transient-SEU default
        -- is omitted from the event so existing traces stay
        byte-identical.
        """
        upset = self._next_upset
        self._next_upset += 1
        self._open.setdefault((target, word), []).append(upset)
        event: Dict[str, object] = {
            "ev": "strike", "upset": upset, "target": target,
            "word": word, "bit": bit, "t_s": round(time_s, 6),
            "let": let, "mbu": bool(mbu), "instr": instr}
        if kind is not None:
            event["kind"] = kind
        self.emit(event)
        return upset

    def _match(self, site: str, word: Optional[int]) -> Optional[int]:
        """Most recent open upset at the site, without closing it."""
        ids = self._open.get((site, word))
        if ids:
            return ids[-1]
        if word is not None:
            return None
        # Word unknown: any open upset of this target (newest site wins).
        best = None
        for (target, _), open_ids in self._open.items():
            if target == site and open_ids:
                last = open_ids[-1]
                if best is None or last > best:
                    best = last
        return best

    def detect(self, site: str, word: Optional[int], *, mech: str,
               kind: str, counter: Optional[str], instr: int,
               count: int = 1) -> None:
        """A protection layer flagged the word (counter incremented)."""
        event: Dict[str, object] = {
            "ev": "detect", "upset": self._match(site, word), "site": site,
            "word": word, "mech": mech, "kind": kind, "counter": counter,
            "instr": instr,
        }
        if count != 1:
            event["count"] = count
        self.emit(event)

    def resolve(self, site: str, word: Optional[int], *, action: str,
                instr: int) -> None:
        """The corruption at the site was repaired / trapped.

        Closes every open upset at the site (an MBU pair in one word
        resolves together).  With ``word=None`` closes every open upset
        of the target.
        """
        closed = self._pop(site, word)
        if not closed:
            # Resolution with no matching strike (e.g. a bus error trap,
            # an EDAC fix of wear outside the trace) -- still an event.
            closed = [None]
        for upset in closed:
            self.emit({"ev": "resolve", "upset": upset, "site": site,
                       "word": word, "action": action, "instr": instr})

    def _pop(self, site: str, word: Optional[int]) -> List[int]:
        if word is not None:
            return self._open.pop((site, word), [])
        popped: List[int] = []
        for key in [k for k in self._open if k[0] == site]:
            popped.extend(self._open.pop(key))
        return sorted(popped)

    def tmr_scrub(self, *, instr: int) -> None:
        """The TMR bank voted out every pending flip-flop upset."""
        for upset in self._pop("flipflops", None):
            self.emit({"ev": "detect", "upset": upset, "site": "flipflops",
                       "word": None, "mech": "tmr-vote",
                       "kind": "correctable", "counter": None,
                       "instr": instr})
            self.emit({"ev": "resolve", "upset": upset, "site": "flipflops",
                       "word": None, "action": "tmr-scrub", "instr": instr})

    def close_open(self, classify: Callable[[str, Optional[int]], str], *,
                   instr: int) -> None:
        """Close every still-open upset with a terminal state.

        *classify* maps ``(target, word)`` to one of
        :data:`CLOSE_STATES` -- ``latent`` if the corruption is still
        resident, ``masked`` if it was overwritten unobserved.
        """
        pending = []
        for (target, word), ids in self._open.items():
            for upset in ids:
                pending.append((upset, target, word))
        self._open.clear()
        for upset, target, word in sorted(pending):
            self.emit({"ev": "close", "upset": upset, "target": target,
                       "word": word, "state": classify(target, word),
                       "instr": instr})

    @property
    def open_upsets(self) -> int:
        return sum(len(ids) for ids in self._open.values())


#: Shared disabled bus: the default for every instrumented component.
NULL_TELEMETRY = Telemetry(NullSink(), enabled=False)
