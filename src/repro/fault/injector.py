"""The SEU target registry and deterministic fault injector.

Every sequential-cell group of the device (the three groups of section 4.2
plus the FPU register file) is an injectable target with a known bit count.
Each target is the storage array itself: the array alone knows how its
words are addressed, checked and struck (``inject_flat``, ``peek_flat``,
``word_of``, ``is_latent``), so the injector is a table from target name to
array.  The beam chooses *where* a strike lands weighted by bit count
(uniform area density); tests use the deterministic per-target API directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.core.system import LeonSystem
from repro.errors import InjectionError


@dataclass(frozen=True)
class SeuTarget:
    """One injectable storage group: the methods of the array that stores
    it, plus its geometry."""

    name: str
    bits: int
    inject_flat: Callable[[int], object]
    #: Physical RAM geometry: consecutive flat bits within one word are
    #: adjacent cells (for the MBU model); flip-flops have no row geometry.
    bits_per_word: int
    #: Read the stored bit ``inject_flat`` would flip (stuck-at support).
    peek_flat: Callable[[int], int]
    #: The word index a flat bit lands in, as the array's check reports
    #: it on detection; None for flip-flops.
    word_of: Callable[[int], Optional[int]]
    #: Is an undetected upset in this word still resident (latent) rather
    #: than overwritten unobserved (masked)?
    is_latent: Callable[[Optional[int]], bool]

    @classmethod
    def of(cls, name: str, array) -> "SeuTarget":
        """The target over a storage array."""
        return cls(name, array.total_bits, array.inject_flat,
                   array.bits_per_word, array.peek_flat, array.word_of,
                   array.is_latent)


@dataclass(frozen=True)
class PersistentFault:
    """One stuck-at cell: a flat bit pinned to ``value`` until reset."""

    name: str
    flat_bit: int
    value: int


def _flipflop_target(system: LeonSystem) -> SeuTarget:
    """The flip-flop bank's adapter: a strike must also mark the system's
    bank dirty, because the pending TMR scrub is system state."""
    ffbank = system.ffbank

    def inject(flat_bit: int) -> str:
        name = ffbank.inject_flat(flat_bit, lane=0)
        system.mark_ffbank_dirty()
        return name

    def peek(flat_bit: int) -> int:
        # Lane 0 -- the lane inject flips.  With TMR the voter out-votes a
        # single stuck lane, which is the correct physics.
        reg, bit = ffbank.locate_bit(flat_bit)
        return (reg.lane_value(0) >> bit) & 1

    def is_latent(word: Optional[int]) -> bool:
        # With TMR a pending scrub still holds the corruption; without
        # TMR the flipped lane is never repaired at all.
        return not ffbank.tmr or system._ffbank_dirty

    return SeuTarget("flipflops", ffbank.total_bits, inject, 0, peek,
                     lambda flat_bit: None, is_latent)


class FaultInjector:
    """Enumerates and strikes the SEU-sensitive storage of one system."""

    def __init__(self, system: LeonSystem, *,
                 include_external_memory: bool = False) -> None:
        self.system = system
        #: Target name -> target, in the order the beam draws from.
        self.targets: Dict[str, SeuTarget] = {}
        self._build_targets(include_external_memory)
        #: Registered stuck-at cells, re-asserted by the campaign at every
        #: execution-chunk boundary (:meth:`reassert_persistent`).
        self._persistent: List[PersistentFault] = []

    def _build_targets(self, include_external_memory: bool) -> None:
        system = self.system
        icache, dcache, memctrl = system.icache, system.dcache, system.memctrl
        arrays = [("icache-tag", icache.tag_ram),
                  ("icache-data", icache.data_ram),
                  ("dcache-tag", dcache.tag_ram),
                  ("dcache-data", dcache.data_ram),
                  ("regfile", system.regfile)]
        if system.fpu is not None:
            arrays.append(("fpregs", system.fpu))
        targets = [SeuTarget.of(name, array) for name, array in arrays]
        targets.append(_flipflop_target(system))
        if include_external_memory:
            targets += [SeuTarget.of(f"ext-{memory.name}", memory)
                        for memory in (memctrl.prom_memory,
                                       memctrl.sram_memory,
                                       memctrl.io_memory)]
        self.targets = {target.name: target for target in targets}

    # -- queries ---------------------------------------------------------------

    @property
    def total_bits(self) -> int:
        return sum(target.bits for target in self.targets.values())

    def target(self, name: str) -> SeuTarget:
        try:
            return self.targets[name]
        except KeyError:
            known = ", ".join(sorted(self.targets))
            raise InjectionError(f"unknown target {name!r} (known: {known})") from None

    def locate(self, name: str, flat_bit: int) -> Optional[int]:
        """Physical word index a flat bit lands in, for telemetry
        correlation: the same index the protection layer reports when it
        detects the error.  ``None`` for targets without word geometry
        (flip-flops)."""
        return self.target(name).word_of(flat_bit)

    def is_latent(self, name: str, word: Optional[int]) -> bool:
        """Is an undetected upset at this site still resident at end of
        run (latent), as opposed to overwritten unobserved (masked)?"""
        # A stuck-at cell is latent by definition until repaired: rewriting
        # the golden value does not remove the defect, so a persistent
        # fault at this site must never downgrade to "masked" even after
        # the suspect marking was cleared by a rewrite.
        for entry in self._persistent:
            if entry.name != name:
                continue
            if word is None or self.locate(name, entry.flat_bit) == word:
                return True
        return self.target(name).is_latent(word)

    # -- injection ----------------------------------------------------------------

    def inject(self, name: str, flat_bit: int) -> None:
        """Deterministic strike: flip one specific stored bit."""
        target = self.target(name)
        if not 0 <= flat_bit < target.bits:
            raise InjectionError(
                f"flat bit {flat_bit} outside target {name!r} ({target.bits} bits)")
        target.inject_flat(flat_bit)

    # -- persistent (stuck-at) faults --------------------------------------------

    @property
    def persistent_faults(self) -> tuple:
        """Registered stuck-at cells, in registration order."""
        return tuple(self._persistent)

    def add_persistent(self, name: str, flat_bit: int, value: int) -> PersistentFault:
        """Pin one stored bit to *value* until the injector is reset.

        The cell is forced immediately and re-forced by every
        :meth:`reassert_persistent` call; the campaign invokes that at
        each execution-chunk boundary, so a rewrite (scrub, software
        store, recovery restore) holds the golden value only until the
        next boundary -- the model-layer approximation of a cell that is
        stuck on every access.
        """
        target = self.target(name)
        if not 0 <= flat_bit < target.bits:
            raise InjectionError(
                f"flat bit {flat_bit} outside target {name!r} ({target.bits} bits)")
        entry = PersistentFault(name, flat_bit, 1 if value else 0)
        self._persistent.append(entry)
        self._force(entry)
        return entry

    def _force(self, entry: PersistentFault) -> bool:
        target = self.targets[entry.name]
        if target.peek_flat(entry.flat_bit) != entry.value:
            # Flip through the target's own inject path so suspect/dirty
            # marking happens exactly as for a beam strike.
            target.inject_flat(entry.flat_bit)
            return True
        return False

    def reassert_persistent(self) -> int:
        """Re-force every stuck cell; returns how many had been rewritten."""
        forced = 0
        for entry in self._persistent:
            if self._force(entry):
                forced += 1
        return forced

    def inject_adjacent(self, name: str, flat_bit: int) -> int:
        """MBU companion strike: flip the cell adjacent to ``flat_bit``.

        Adjacent means the next bit in the same physical RAM row; at a row
        boundary the previous bit is used instead.  Flip-flop targets have
        no row geometry; the companion is the next flip-flop bit.
        """
        target = self.target(name)
        row = target.bits_per_word or target.bits
        neighbour = flat_bit + 1
        if neighbour % row == 0 or neighbour >= target.bits:
            neighbour = flat_bit - 1
        if neighbour < 0:
            raise InjectionError("target too small for an adjacent strike")
        target.inject_flat(neighbour)
        return neighbour
