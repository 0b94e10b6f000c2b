"""The burst driver: hot-PC counting, block cache and entry guards.

``JitEngine.try_burst`` is called by ``LeonSystem.run_fast`` before
each interpreted step.  It either runs a compiled burst (returning the
instruction/step counts the driver folds into its loop totals) or
returns ``None``, in which case the driver interprets exactly one step
as before.

The entry guard set proves, before any compiled code runs, that the
interpreter would take its fault-free fast path for the whole burst.
Each group has a ``refused_*`` counter in :attr:`JitEngine.stats`:

* ``refused_budget`` -- enough instruction budget for one worst-case
  iteration and no stop_pc inside the block;
* ``refused_pipeline`` -- running, not powered down (nor requested to),
  ``npc == pc + 4``, no pending annul;
* ``refused_tmr`` -- no flip-flop upset waiting for its scrub and every
  guard-listed TMR register clean (ET, PIL and the pending/mask
  registers are read lane-0 only after their dirty flags are checked,
  so TMR voting stays with the interpreter);
* ``refused_peripherals`` -- no interrupt deliverable right now;
  watchdog never started, timers disabled, UART shifters empty, DMA
  idle, which makes the per-step APB tick a proven no-op for any number
  of burst cycles, so it is skipped; caches enabled and the write
  protector disabled;
* ``refused_suspect`` -- no register-file suspect word in the block's
  footprint.

Upsets in storage are handled where they act, not globally:

* register file -- the footprint is the set of physical words of every
  register the block reads or writes, mapped through the entry CWP (a
  block never changes CWP).  Compiled code touches no other word, and
  the interpreter checks exactly the words an instruction reads, so a
  suspect word outside the footprint is invisible to the burst; one
  inside it refuses the burst (reading it must correct or trap, and
  writing it clears the suspect mark, which compiled write-back does
  not);
* i-cache -- every block word is re-verified at entry with the
  side-effect-free ``peek_word``, whose clean-hit predicate fails on a
  suspect tag or data word, so a struck (or evicted, or reloaded) word
  drops the block for recompilation and the interpreter's fetch detects
  the upset;
* d-cache loads -- the compiled load probe is ``peek_word`` too; a
  suspect tag or data word deopts the load before any of its effects,
  and the interpreter re-executes it through the parity-checking path;
* d-cache stores -- compiled stores call the real ``DataCache.write``,
  which parity-checks the tag, counts and traces a detected error and
  invalidates the line exactly as interpreted execution does (the
  instruction count is committed first so telemetry stamps match).

Anything that changes these facts mid-campaign (fault injection,
snapshot restore, a trap) makes the next guard pass, entry verification
or load probe fail, so execution falls back to the interpreter at a
step boundary with bit-identical state.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple, Union

from repro.iu.pipeline import HaltReason
from repro.jit.blocks import CompiledBlock, build_block
from repro.mem.writeprotect import WpMode
from repro.peripherals.dma import _STATUS_BUSY
from repro.peripherals.irqctrl import _LEVEL_MASK
from repro.peripherals.timer import _CTRL_ENABLE
from repro.peripherals.uart import _STATUS_TX_SHIFT_EMPTY

#: Executions of a PC before it is considered hot and compiled.
HOT_THRESHOLD = 16
#: Bound on the hot-counter table; cleared wholesale when exceeded.
MAX_COUNTERS = 8192


def jit_default_enabled() -> bool:
    """Trace compilation is on unless ``REPRO_JIT=0``."""
    return os.environ.get("REPRO_JIT", "1") != "0"


class JitEngine:
    """Per-system trace-compilation state.  Never snapshotted: blocks
    bind live component objects, so a restored system re-detects and
    recompiles its hot loops (the counters are part of the snapshot's
    *performance*, never its architecture)."""

    def __init__(self, system) -> None:
        self.system = system
        iu = system.iu
        self.iu = iu
        #: pc -> CompiledBlock, or False for PCs proven uncompilable.
        self.blocks: Dict[int, Union[CompiledBlock, bool]] = {}
        self.counts: Dict[int, int] = {}
        regs = iu.r
        self._pc_reg = regs._pc
        self._npc_reg = regs._npc
        self._psr_reg = regs.psr._reg
        self._y_reg = regs._y
        self._annul_reg = iu._annul
        irq = system.irqctrl
        self._irq_pending = irq._pending
        self._irq_mask = irq._mask
        timers = system.timers
        self._timers = timers
        self._watchdog = timers.watchdog
        self._t1_control = timers.timer1.control
        self._t2_control = timers.timer2.control
        self._uart1_status = system.uart1._status
        self._uart2_status = system.uart2._status
        self._dma_status = system.dma._status
        #: Registers whose lane-0 values the guards (or compiled code)
        #: read directly; any dirty flag defers to the interpreter so
        #: TMR voting, scrubbing and disagreement counting stay exact.
        self._guard_regs = (
            self._npc_reg, self._psr_reg, self._y_reg, self._annul_reg,
            self._irq_pending, self._irq_mask, self._watchdog,
            self._t1_control, self._t2_control,
            self._uart1_status, self._uart2_status, self._dma_status,
        )
        self._regfile = iu.regfile
        self._icache = system.icache
        self._dcache = system.dcache
        self._protector = system.memctrl.write_protector
        self._sysregs = system.sysregs
        #: Flat integer counters (callers diff them); ``refused_*`` count
        #: compiled blocks turned away by each entry-guard group.
        self.stats = {
            "bursts": 0, "burst_instructions": 0, "burst_steps": 0,
            "deopts": 0, "compiles": 0, "compile_failures": 0,
            "verify_drops": 0, "refused_budget": 0, "refused_pipeline": 0,
            "refused_tmr": 0, "refused_peripherals": 0,
            "refused_suspect": 0,
        }

    def invalidate(self) -> None:
        """Drop every compiled block and hot counter.  Called on
        snapshot restore, reset and program (re)load: compiled closures
        bind component internals that those events may rebind."""
        self.blocks.clear()
        self.counts.clear()

    def try_burst(self, budget: int,
                  stop_pc: Optional[int]) -> Optional[Tuple[int, int]]:
        """Run one compiled burst if every guard passes.

        Returns ``(instructions, steps)`` actually retired (both > 0),
        or ``None`` when the driver must interpret a step instead.
        """
        pc_reg = self._pc_reg
        if pc_reg._dirty:
            return None
        pc = pc_reg._lanes[0]
        block = self.blocks.get(pc)
        if block is None:
            counts = self.counts
            seen = counts.get(pc, 0) + 1
            if seen < HOT_THRESHOLD:
                if len(counts) >= MAX_COUNTERS:
                    counts.clear()
                counts[pc] = seen
                return None
            counts.pop(pc, None)
            built = build_block(self.system, pc)
            if built is None:
                self.stats["compile_failures"] += 1
                self.blocks[pc] = False
                return None
            self.stats["compiles"] += 1
            self.blocks[pc] = built
            block = built
        elif block is False:
            return None

        refused = self._refusal(block, pc, budget, stop_pc)
        if refused is not None:
            self.stats[refused] += 1
            return None
        ipeek = self._icache.peek_word
        for addr, word in block.verify:
            if ipeek(addr) != word:
                self.stats["verify_drops"] += 1
                del self.blocks[pc]
                return None

        _xpc, n_i, n_s, deopt = block.fn(budget)
        if deopt:
            self.stats["deopts"] += 1
        if n_s == 0:
            # Deopt at the first covered instruction: nothing retired,
            # nothing written; interpret it (no livelock, the
            # interpreter always makes progress).
            return None
        self.stats["bursts"] += 1
        self.stats["burst_instructions"] += n_i
        self.stats["burst_steps"] += n_s
        return n_i, n_s

    def _refusal(self, block: CompiledBlock, pc: int, budget: int,
                 stop_pc: Optional[int]) -> Optional[str]:
        """The ``stats`` key of the first entry-guard group that refuses
        ``block`` at ``pc``, or None when every guard passes."""
        if budget < block.max_path_instructions:
            return "refused_budget"
        if stop_pc is not None and stop_pc in block.addresses:
            return "refused_budget"
        iu = self.iu
        if (iu.halted is not HaltReason.RUNNING or iu.power_down
                or self._sysregs.power_down_requested):
            return "refused_pipeline"
        if self.system._ffbank_dirty:
            return "refused_tmr"
        for reg in self._guard_regs:
            if reg._dirty:
                return "refused_tmr"
        if self._npc_reg._lanes[0] != (pc + 4) & 0xFFFFFFFF:
            return "refused_pipeline"
        if self._annul_reg._lanes[0]:
            return "refused_pipeline"
        psr_raw = self._psr_reg._lanes[0]
        if psr_raw & 0x20:  # ET set: a deliverable interrupt must trap
            active = (self._irq_pending._lanes[0]
                      & self._irq_mask._lanes[0] & _LEVEL_MASK)
            if active and active.bit_length() - 1 > (psr_raw >> 8) & 0xF:
                return "refused_peripherals"
        timers = self._timers
        if timers.watchdog_expired or self._watchdog._lanes[0]:
            return "refused_peripherals"
        if (self._t1_control._lanes[0]
                | self._t2_control._lanes[0]) & _CTRL_ENABLE:
            return "refused_peripherals"
        if not self._uart1_status._lanes[0] & _STATUS_TX_SHIFT_EMPTY:
            return "refused_peripherals"
        if not self._uart2_status._lanes[0] & _STATUS_TX_SHIFT_EMPTY:
            return "refused_peripherals"
        if self._dma_status._lanes[0] & _STATUS_BUSY:
            return "refused_peripherals"
        if not (self._icache.enabled and self._dcache.enabled):
            return "refused_peripherals"
        for unit in self._protector.units:
            if unit.mode is not WpMode.DISABLED:
                return "refused_peripherals"
        # Re-resolved through the owner: restore() rebinds the set.
        suspect = self._regfile._suspect
        if suspect:
            cwp = psr_raw & 31
            footprint = block.footprints.get(cwp)
            if footprint is None:
                physical = self._regfile.physical_index
                footprint = block.footprints[cwp] = frozenset(
                    physical(cwp, reg) for reg in block.regs)
            if not suspect.isdisjoint(footprint):
                return "refused_suspect"
        return None
