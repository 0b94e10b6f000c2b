"""Trace-block discovery and Python code generation.

A *block* is a straight-line run of instructions starting at a hot PC,
optionally ended by one delayed control transfer (Bicc / CALL / JMPL)
plus its delay slot.  Both the entry and every exit satisfy the
invariant ``npc == pc + 4`` and ``annul == 0``, so a block whose ender
targets its own first address iterates inside the compiled closure
without returning to the driver.

The generated closure replays the interpreter's fault-free fast path
exactly: per-instruction cycle constants from :mod:`repro.iu.timing`,
the same icc algebra, the same sub-word extraction as
``DataCache.read_fast``, and stores through the *real*
``DataCache.write`` so write-through side effects (cache update, write
buffer count, EDAC encode in SRAM) are shared code, not a copy.
Architectural state lives in Python locals for the duration of a burst
and is written back (registers with freshly encoded check bits, fused
icc into the PSR, pc/npc, perf counters) at every exit, including
deopts, before the interpreter resumes.

Anything the closure cannot replay bit-exactly *deopts*: the exit
records pc/npc of the offending instruction with zero of its effects
applied, so the interpreter re-executes it from fetch.  Deopt sites are
load/store address misalignment (trap path), d-cache probe misses
(refill, parity, uncached timing), stores outside SRAM (protector,
read-only PROM, APB side effects) and misaligned JMPL targets.
Everything else -- interrupts, traps, suspect register-file words the
block touches, TMR upsets, peripheral activity -- is excluded by the
burst entry guards in :mod:`repro.jit.engine` and cannot arise
mid-burst (memory-mapped peripherals are only reachable through
stores, which deopt first).  Suspect cache words need no guard: the
i-cache words are re-verified at entry and d-cache loads probe with
the same clean-hit predicate, so both fall back to the interpreter.

``BLOCK_OBSERVABLES`` names the per-step FT observables every exit
must fold back into ``PerfCounters``; the FT601 lint rule checks the
epilogue covers each one.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.amba.ahb import TransferSize
from repro.iu import timing
from repro.sparc.decode import Instr, decode
from repro.sparc.isa import Op, Op2, Op3, Op3Mem, to_u32

#: Perf counters a compiled block accumulates in locals and must commit
#: on *every* exit path (normal and deopt).  Checked by lint rule FT601.
BLOCK_OBSERVABLES = ("cycles", "instructions", "icache_hits",
                     "dcache_hits", "loads", "stores")

#: Longest straight-line run compiled into one block (ender + delay
#: slot included).  Bounds both codegen size and the per-entry word
#: verification cost.
MAX_BLOCK_INSTRUCTIONS = 64

#: A fallthrough-only block (no control-transfer ender) must amortize
#: entry guards over at least this many instructions to be worth it.
MIN_FALLTHROUGH_INSTRUCTIONS = 4

# Straight-line ALU work the closure replays inline.
_ADDSUB = {
    Op3.ADD: ("+", False, False), Op3.ADDCC: ("+", True, False),
    Op3.ADDX: ("+", False, True), Op3.ADDXCC: ("+", True, True),
    Op3.SUB: ("-", False, False), Op3.SUBCC: ("-", True, False),
    Op3.SUBX: ("-", False, True), Op3.SUBXCC: ("-", True, True),
}
# op3 -> (expression template, needs 32-bit mask)
_LOGIC = {
    Op3.AND: ("{a} & {b}", False), Op3.ANDCC: ("{a} & {b}", False),
    Op3.ANDN: ("{a} & ~{b}", True), Op3.ANDNCC: ("{a} & ~{b}", True),
    Op3.OR: ("{a} | {b}", False), Op3.ORCC: ("{a} | {b}", False),
    Op3.ORN: ("{a} | ~{b}", True), Op3.ORNCC: ("{a} | ~{b}", True),
    Op3.XOR: ("{a} ^ {b}", False), Op3.XORCC: ("{a} ^ {b}", False),
    Op3.XNOR: ("~({a} ^ {b})", True), Op3.XNORCC: ("~({a} ^ {b})", True),
}
_LOGIC_CC = {Op3.ANDCC, Op3.ANDNCC, Op3.ORCC, Op3.ORNCC,
             Op3.XORCC, Op3.XNORCC}
_SHIFTS = {Op3.SLL, Op3.SRL, Op3.SRA}
_MULS = {Op3.UMUL, Op3.UMULCC, Op3.SMUL, Op3.SMULCC}
_LOADS = {Op3Mem.LD, Op3Mem.LDUB, Op3Mem.LDUH, Op3Mem.LDSB,
          Op3Mem.LDSH, Op3Mem.LDD}
#: Word-sized stores only: STB/STH read-modify-write the cached word
#: and can surface a data parity error (telemetry + invalidate) that a
#: burst must not replay, so they end the block instead.
_STORES = {Op3Mem.ST, Op3Mem.STD}

_LOAD_CYCLES = {
    Op3Mem.LD: timing.CYCLES_LOAD, Op3Mem.LDUB: timing.CYCLES_LOAD,
    Op3Mem.LDUH: timing.CYCLES_LOAD, Op3Mem.LDSB: timing.CYCLES_LOAD,
    Op3Mem.LDSH: timing.CYCLES_LOAD, Op3Mem.LDD: timing.CYCLES_LDD,
}
_ALIGN_MASK = {Op3Mem.LD: 3, Op3Mem.LDUB: 0, Op3Mem.LDUH: 1,
               Op3Mem.LDSB: 0, Op3Mem.LDSH: 1, Op3Mem.LDD: 7,
               Op3Mem.ST: 3, Op3Mem.STD: 7}


class CompiledBlock:
    """One compiled trace block and the facts the engine needs to run it."""

    __slots__ = ("pc", "end_pc", "verify", "addresses", "regs",
                 "footprints", "fn", "max_path_instructions", "source")

    def __init__(self, pc: int, end_pc: int,
                 verify: Tuple[Tuple[int, int], ...],
                 addresses: Set[int], regs: Tuple[int, ...], fn,
                 max_path_instructions: int, source: str) -> None:
        self.pc = pc
        self.end_pc = end_pc
        #: (address, word) pairs re-checked against the i-cache at every
        #: burst entry; a mismatch (evicted line, injected parity
        #: suspect, reloaded program) drops the block.
        self.verify = verify
        #: Every pc the interpreter would visit inside a burst iteration;
        #: a stop_pc in this set forbids compiled execution.
        self.addresses = addresses
        #: Architectural registers (never %g0) the block reads or writes:
        #: the ``r<n>`` locals of its source, in ascending order.
        self.regs = regs
        #: entry CWP -> physical register-file words of ``regs``; filled
        #: lazily by the engine's suspect guard.
        self.footprints: Dict[int, FrozenSet[int]] = {}
        self.fn = fn
        #: Most instructions one loop iteration can retire; the budget
        #: guard exits while at least this many remain.
        self.max_path_instructions = max_path_instructions
        self.source = source


def _classify(instr: Instr) -> Optional[str]:
    """'simple' (straight-line), 'ender' (delayed transfer) or None."""
    if not instr.valid:
        return None
    op = instr.op
    if op == Op.CALL:
        return "ender"
    if op == Op.FORMAT2:
        if instr.op2 == Op2.SETHI:
            return "simple"
        if instr.op2 == Op2.BICC:
            return "ender"
        return None
    if op == Op.ARITH:
        op3 = instr.op3
        if (op3 in _ADDSUB or op3 in _LOGIC or op3 in _SHIFTS
                or op3 in _MULS or op3 == Op3.MULSCC
                or op3 == Op3.RDASR or op3 == Op3.WRASR):
            return "simple"
        if op3 == Op3.JMPL:
            return "ender"
        return None
    op3 = instr.op3
    if op3 in _LOADS or op3 in _STORES:
        if op3 in (Op3Mem.LDD, Op3Mem.STD) and instr.rd & 1:
            return None  # odd rd traps illegal_instruction
        return "simple"
    return None


def _always_annuls(instr: Instr) -> bool:
    """Bicc whose delay slot is annulled on every path (BA,a / BN,a)."""
    return (instr.op == Op.FORMAT2 and instr.op2 == Op2.BICC
            and instr.annul and (instr.cond & 7) == 0)


def _cond_expr(cond: int) -> str:
    """The interpreter's ``_icc_condition`` over an ``icc`` local."""
    base = cond & 7
    exprs = {
        0: "0",
        1: "icc & 4",
        2: "((icc >> 2) | ((icc >> 3) ^ (icc >> 1))) & 1",
        3: "((icc >> 3) ^ (icc >> 1)) & 1",
        4: "(icc | (icc >> 2)) & 1",
        5: "icc & 1",
        6: "icc & 8",
        7: "icc & 2",
    }
    expr = exprs[base]
    return f"not ({expr})" if cond >= 8 else expr


class _Codegen:
    """Emits the closure source for one discovered block."""

    def __init__(self, system, pc: int) -> None:
        self.system = system
        regfile = system.iu.regfile
        self.nw16 = regfile.nwindows * 16
        self.copies = regfile._copies
        self.pc = pc
        self.lines: List[str] = []
        self.reads: Set[int] = set()
        self.written: Set[int] = set()
        self.uses_icc = False
        self.writes_icc = False
        self.uses_y = False
        self.writes_y = False
        self.any_store = False
        self.prev_was_store = False
        self.has_loads = False
        # Pending compile-time counter constants, flushed to locals
        # before any deopt guard so a deopt commits exactly the
        # completed instructions and nothing of the failing one.
        self.pend = {"n_c": 0, "n_i": 0, "n_s": 0,
                     "n_ld": 0, "n_st": 0, "n_dh": 0}
        memcfg = system.config.memory
        self.sram_lo = memcfg.sram_base
        self.sram_hi = memcfg.sram_base + memcfg.sram_bytes
        self.std_cycles = timing.CYCLES_STD + (
            1 if system.dcache.double_store_delay else 0)

    # ------------------------------------------------------------- helpers

    @property
    def regs(self) -> Tuple[int, ...]:
        """Every register the block reads or writes, ascending."""
        return tuple(sorted(self.reads | self.written))

    def emit(self, line: str, ind: int) -> None:
        self.lines.append("    " * ind + line)

    def flush(self, ind: int) -> None:
        for name, value in self.pend.items():
            if value:
                self.emit(f"{name} += {value}", ind)
                self.pend[name] = 0

    def tally(self, c: int = 0, i: int = 0, s: int = 0,
              ld: int = 0, st: int = 0, dh: int = 0) -> None:
        p = self.pend
        p["n_c"] += c
        p["n_i"] += i
        p["n_s"] += s
        p["n_ld"] += ld
        p["n_st"] += st
        p["n_dh"] += dh

    def use(self, reg: int) -> str:
        if reg == 0:
            return "0"
        if reg not in self.written:
            self.reads.add(reg)
        return f"r{reg}"

    def setreg(self, reg: int) -> Optional[str]:
        if reg == 0:
            return None
        self.written.add(reg)
        return f"r{reg}"

    def operand2(self, instr: Instr) -> str:
        if instr.imm is not None:
            return f"{to_u32(instr.imm):#x}"
        return self.use(instr.rs2)

    def deopt(self, cond: str, addr: int, xnpc: str, ind: int) -> None:
        self.flush(ind)
        self.emit(f"if {cond}:", ind)
        self.emit(f"xpc = {addr:#x}", ind + 1)
        self.emit(f"xnpc = {xnpc}", ind + 1)
        self.emit("deopt = True", ind + 1)
        self.emit("break", ind + 1)

    # -------------------------------------------------------- instructions

    def emit_instr(self, instr: Instr, addr: int, ind: int,
                   deopt_npc: Optional[str] = None) -> None:
        """One supported straight-line instruction at ``addr``."""
        if deopt_npc is None:
            deopt_npc = f"{(addr + 4) & 0xFFFFFFFF:#x}"
        if self.prev_was_store:
            # The step after a store starts with the interpreter's
            # _writes reset; keep the list content identical.
            self.emit("IU._writes = []", ind)
        self.prev_was_store = False

        op = instr.op
        if op == Op.FORMAT2:  # SETHI / NOP
            dst = self.setreg(instr.rd)
            if dst is not None:
                self.emit(f"{dst} = {instr.imm22:#x}", ind)
            self.tally(c=1, i=1, s=1)
            return
        if op == Op.ARITH:
            self.emit_arith(instr, ind)
            return
        self.emit_mem(instr, addr, ind, deopt_npc)

    def emit_arith(self, instr: Instr, ind: int) -> None:
        op3 = instr.op3
        a = self.use(instr.rs1)
        b = self.operand2(instr)
        emit = self.emit

        if op3 in _ADDSUB:
            sign, cc, carry = _ADDSUB[op3]
            if carry:
                self.uses_icc = True
            carry_term = f" {sign} (icc & 1)" if carry else ""
            if not cc:
                dst = self.setreg(instr.rd)
                if dst is not None:
                    emit(f"{dst} = ({a} {sign} {b}{carry_term})"
                         " & 0xFFFFFFFF", ind)
            else:
                self.writes_icc = True
                emit(f"_s = {a} {sign} {b}{carry_term}", ind)
                emit("_r = _s & 0xFFFFFFFF", ind)
                if sign == "+":
                    v = f"(((~({a} ^ {b})) & ({a} ^ _r)) >> 31) & 1"
                    c = "(_s > 0xFFFFFFFF)"
                else:
                    v = f"((({a} ^ {b}) & ({a} ^ _r)) >> 31) & 1"
                    c = "(_s < 0)"
                emit("icc = ((_r >> 31) << 3) | ((_r == 0) << 2) | "
                     f"(({v}) << 1) | {c}", ind)
                dst = self.setreg(instr.rd)
                if dst is not None:
                    emit(f"{dst} = _r", ind)
            self.tally(c=1, i=1, s=1)
            return

        if op3 in _LOGIC:
            template, needs_mask = _LOGIC[op3]
            expr = template.format(a=a, b=b)
            if needs_mask:
                expr = f"({expr}) & 0xFFFFFFFF"
            if op3 in _LOGIC_CC:
                self.writes_icc = True
                emit(f"_r = {expr}", ind)
                emit("icc = ((_r >> 31) << 3) | ((_r == 0) << 2)", ind)
                dst = self.setreg(instr.rd)
                if dst is not None:
                    emit(f"{dst} = _r", ind)
            else:
                dst = self.setreg(instr.rd)
                if dst is not None:
                    emit(f"{dst} = {expr}", ind)
            self.tally(c=1, i=1, s=1)
            return

        if op3 in _SHIFTS:
            if instr.imm is not None:
                shift = f"{to_u32(instr.imm) & 31}"
            else:
                shift = f"({b} & 31)"
            if op3 == Op3.SLL:
                expr = f"({a} << {shift}) & 0xFFFFFFFF"
            elif op3 == Op3.SRL:
                expr = f"{a} >> {shift}"
            else:  # SRA: arithmetic shift of the sign-adjusted value
                expr = (f"(({a} - (({a} & 0x80000000) << 1))"
                        f" >> {shift}) & 0xFFFFFFFF")
            dst = self.setreg(instr.rd)
            if dst is not None:
                emit(f"{dst} = {expr}", ind)
            self.tally(c=1, i=1, s=1)
            return

        if op3 in _MULS:
            self.writes_y = True
            signed = op3 in (Op3.SMUL, Op3.SMULCC)
            cc = op3 in (Op3.UMULCC, Op3.SMULCC)
            if signed:
                emit(f"_p = ({a} - (({a} & 0x80000000) << 1)) * "
                     f"({b} - (({b} & 0x80000000) << 1))", ind)
                emit("y = (_p >> 32) & 0xFFFFFFFF", ind)
            else:
                emit(f"_p = {a} * {b}", ind)
                emit("y = _p >> 32", ind)
            emit("_r = _p & 0xFFFFFFFF", ind)
            if cc:
                self.writes_icc = True
                emit("icc = ((_r >> 31) << 3) | ((_r == 0) << 2)", ind)
            dst = self.setreg(instr.rd)
            if dst is not None:
                emit(f"{dst} = _r", ind)
            self.tally(c=timing.CYCLES_MUL, i=1, s=1)
            return

        if op3 == Op3.MULSCC:
            self.uses_icc = True
            self.writes_icc = True
            self.uses_y = True
            self.writes_y = True
            emit(f"_o1 = ((((icc >> 3) ^ (icc >> 1)) & 1) << 31) | "
                 f"({a} >> 1)", ind)
            emit(f"_o2 = {b} if y & 1 else 0", ind)
            emit("_s = _o1 + _o2", ind)
            emit("_r = _s & 0xFFFFFFFF", ind)
            emit("icc = ((_r >> 31) << 3) | ((_r == 0) << 2) | "
                 "((((~(_o1 ^ _o2)) & (_o1 ^ _r)) >> 31 & 1) << 1) | "
                 "(_s > 0xFFFFFFFF)", ind)
            emit(f"y = (({a} & 1) << 31) | (y >> 1)", ind)
            dst = self.setreg(instr.rd)
            if dst is not None:
                emit(f"{dst} = _r", ind)
            self.tally(c=1, i=1, s=1)
            return

        if op3 == Op3.RDASR:
            self.uses_y = True
            dst = self.setreg(instr.rd)
            if dst is not None:
                emit(f"{dst} = y", ind)
            self.tally(c=1, i=1, s=1)
            return

        # WRASR (any rd: the model implements only %y)
        self.writes_y = True
        emit(f"y = ({a} ^ {b}) & 0xFFFFFFFF", ind)
        self.tally(c=1, i=1, s=1)

    def emit_mem(self, instr: Instr, addr: int, ind: int,
                 deopt_npc: str) -> None:
        op3 = instr.op3
        a = self.use(instr.rs1)
        b = self.operand2(instr)
        emit = self.emit
        emit(f"_ad = ({a} + {b}) & 0xFFFFFFFF", ind)
        align = _ALIGN_MASK[op3]
        if align:
            self.deopt(f"_ad & {align}", addr, deopt_npc, ind)

        if op3 in _LOADS:
            self.has_loads = True
            if op3 in (Op3Mem.LD, Op3Mem.LDD):
                emit("_d = DPEEK(_ad)", ind)
            else:
                emit("_d = DPEEK(_ad & 0xFFFFFFFC)", ind)
            self.deopt("_d is None", addr, deopt_npc, ind)
            if op3 == Op3Mem.LDD:
                emit("_e = DPEEK(_ad + 4)", ind)
                self.deopt("_e is None", addr, deopt_npc, ind)
                dst = self.setreg(instr.rd)
                if dst is not None:
                    emit(f"{dst} = _d", ind)
                dst2 = self.setreg(instr.rd | 1)
                emit(f"{dst2} = _e", ind)
                self.tally(c=_LOAD_CYCLES[op3], i=1, s=1, ld=1, dh=2)
                return
            if op3 == Op3Mem.LDUB:
                extract = "(_d >> ((3 - (_ad & 3)) << 3)) & 0xFF"
            elif op3 == Op3Mem.LDUH:
                extract = "(_d >> ((2 - (_ad & 3)) << 3)) & 0xFFFF"
            elif op3 == Op3Mem.LDSB:
                emit("_v = (_d >> ((3 - (_ad & 3)) << 3)) & 0xFF", ind)
                extract = "_v | 0xFFFFFF00 if _v & 0x80 else _v"
            elif op3 == Op3Mem.LDSH:
                emit("_v = (_d >> ((2 - (_ad & 3)) << 3)) & 0xFFFF", ind)
                extract = "_v | 0xFFFF0000 if _v & 0x8000 else _v"
            else:  # LD
                extract = "_d"
            dst = self.setreg(instr.rd)
            if dst is not None:
                emit(f"{dst} = {extract}", ind)
            self.tally(c=_LOAD_CYCLES[op3], i=1, s=1, ld=1, dh=1)
            return

        # ST / STD: only to SRAM, where a word-sized write-through store
        # cannot raise a store error (PROM is read-only, the write
        # protector is guarded disabled, APB/IO stores have peripheral
        # side effects) -- anything else re-executes interpreted.
        self.any_store = True
        span = 8 if op3 == Op3Mem.STD else 4
        self.deopt(f"not {self.sram_lo:#x} <= _ad <= "
                   f"{self.sram_hi - span:#x}", addr, deopt_npc, ind)
        self.flush(ind)
        # dcache.write can emit telemetry stamped with the current
        # instruction count; commit the burst's retired instructions
        # first so the stamp matches interpreted execution.
        emit("PERF.instructions += n_i", ind)
        emit("f_i += n_i", ind)
        emit("n_i = 0", ind)
        emit(f"_v = {self.use(instr.rd)}", ind)
        if op3 == Op3Mem.ST:
            emit("DCW(_ad, _v, W)", ind)
            emit("IU._writes = [(_ad, _v)]", ind)
            self.tally(c=timing.CYCLES_STORE, i=1, s=1, st=1)
        else:
            emit(f"_u = {self.use(instr.rd | 1)}", ind)
            emit("DCW(_ad, _v, W)", ind)
            emit("DCW(_ad + 4, _u, W, double=True)", ind)
            emit("IU._writes = [(_ad, _v), (_ad + 4, _u)]", ind)
            self.tally(c=self.std_cycles, i=1, s=1, st=1)
        self.prev_was_store = True

    # --------------------------------------------------------------- ender

    def emit_ender(self, instr: Instr, addr: int,
                   delay: Tuple[int, Instr], ind: int) -> None:
        """The delayed control transfer closing the block, its delay
        slot, and the loop-back/exit decision."""
        daddr, dinstr = delay
        fallthrough = (addr + 8) & 0xFFFFFFFF
        if self.prev_was_store:
            self.emit("IU._writes = []", ind)
            self.prev_was_store = False

        if instr.op == Op.CALL:
            dst = self.setreg(15)
            self.emit(f"{dst} = {addr:#x}", ind)
            self.tally(c=1, i=1, s=1)
            target = to_u32(addr + instr.disp)
            self._finish_taken(f"{target:#x}", target, delay, ind)
            return
        if instr.op == Op.ARITH:  # JMPL
            a = self.use(instr.rs1)
            b = self.operand2(instr)
            self.emit(f"_t = ({a} + {b}) & 0xFFFFFFFF", ind)
            self.deopt("_t & 3", addr, f"{(addr + 4) & 0xFFFFFFFF:#x}", ind)
            dst = self.setreg(instr.rd)
            if dst is not None:
                self.emit(f"{dst} = {addr:#x}", ind)
            self.tally(c=timing.CYCLES_JMPL, i=1, s=1)
            self._finish_taken("_t", None, delay, ind)
            return

        # Bicc
        cond = instr.cond
        target = to_u32(addr + instr.disp)
        self.tally(c=1, i=1, s=1)
        if cond == 8:  # BA
            if instr.annul:
                self.tally(c=1, s=1)  # annulled slot: fetch only
                self._finish_exit(f"{target:#x}", target, ind)
            else:
                self._finish_taken(f"{target:#x}", target, delay, ind)
            return
        if cond == 0:  # BN
            if instr.annul:
                self.tally(c=1, s=1)
                self._finish_exit(f"{fallthrough:#x}", fallthrough, ind)
            else:
                self._finish_taken(f"{fallthrough:#x}", fallthrough,
                                   delay, ind)
            return

        self.uses_icc = True
        self.flush(ind)
        if not instr.annul:
            self.emit(f"if {_cond_expr(cond)}:", ind)
            self.emit(f"_dnpc = {target:#x}", ind + 1)
            self.emit("else:", ind)
            self.emit(f"_dnpc = {fallthrough:#x}", ind + 1)
            self.emit_instr(dinstr, daddr, ind, deopt_npc="_dnpc")
            self._finish_exit("_dnpc", None, ind)
        else:
            # Annulling conditional: the slot executes only when taken.
            self.emit(f"if {_cond_expr(cond)}:", ind)
            self.emit_instr(dinstr, daddr, ind + 1,
                            deopt_npc=f"{target:#x}")
            self.flush(ind + 1)
            self.emit(f"_dnpc = {target:#x}", ind + 1)
            self.prev_was_store = False
            self.emit("else:", ind)
            self.tally(c=1, s=1)
            self.flush(ind + 1)
            self.emit(f"_dnpc = {fallthrough:#x}", ind + 1)
            self._finish_exit("_dnpc", None, ind)

    def _finish_taken(self, next_expr: str, next_const: Optional[int],
                      delay: Tuple[int, Instr], ind: int) -> None:
        """Unconditional transfer: execute the delay slot, then exit or
        loop."""
        daddr, dinstr = delay
        if next_const is None:
            self.emit(f"_dnpc = {next_expr}", ind)
            self.emit_instr(dinstr, daddr, ind, deopt_npc="_dnpc")
            self._finish_exit("_dnpc", None, ind)
        else:
            self.emit_instr(dinstr, daddr, ind,
                            deopt_npc=f"{next_const:#x}")
            self._finish_exit(next_expr, next_const, ind)

    def _finish_exit(self, next_expr: str, next_const: Optional[int],
                     ind: int) -> None:
        """Exit the burst at ``next_expr``, or fall through to the loop
        top when it equals the block entry."""
        entry = self.pc
        self.flush(ind)
        if next_const is not None and next_const == entry:
            return  # static self-loop: iterate
        if next_const is not None:
            self.emit(f"xpc = {next_const:#x}", ind)
            self.emit(f"xnpc = {(next_const + 4) & 0xFFFFFFFF:#x}", ind)
            self.emit("break", ind)
            return
        self.emit(f"if {next_expr} != {entry:#x}:", ind)
        self.emit(f"xpc = {next_expr}", ind + 1)
        self.emit(f"xnpc = ({next_expr} + 4) & 0xFFFFFFFF", ind + 1)
        self.emit("break", ind + 1)

    # ------------------------------------------------------------ assembly

    def assemble(self, max_path_instructions: int) -> str:
        entry = self.pc
        pro: List[str] = [f"def _block_{entry:x}(budget):"]

        def p(line: str, ind: int = 1) -> None:
            pro.append("    " * ind + line)

        p("d0 = RF._data[0]")
        p("c0 = RF._check[0]")
        if self.copies == 2:
            p("d1 = RF._data[1]")
            p("c1 = RF._check[1]")
        regs = self.regs
        if any(reg >= 8 for reg in regs):
            p("_cw = (PSR_R._lanes[0] & 31) << 4")
        for reg in regs:
            if reg >= 8:
                p(f"p{reg} = 8 + (_cw + {reg - 8}) % {self.nw16}")
        for reg in regs:
            idx = str(reg) if reg < 8 else f"p{reg}"
            p(f"r{reg} = d0[{idx}]")
        if self.uses_icc or self.writes_icc:
            p("icc = (PSR_R._lanes[0] >> 20) & 15")
        if self.writes_icc:
            p("psr_base = PSR_R._lanes[0] & 0xFF0FFFFF")
        if self.uses_y or self.writes_y:
            p("y = Y_R._lanes[0]")
        p("if IU._writes:")
        p("IU._writes = []", 2)
        counters = ["n_c", "n_i", "n_s"]
        if self.has_loads:
            counters += ["n_ld", "n_dh"]
        if self.any_store:
            # f_i: instructions already flushed into PERF before a store
            # (so dcache.write telemetry stamps match); the burst's true
            # retired count is f_i + n_i.
            counters += ["n_st", "f_i"]
        p(" = ".join(counters) + " = 0")
        p("deopt = False")
        p(f"xpc = {entry:#x}")
        p(f"xnpc = {(entry + 4) & 0xFFFFFFFF:#x}")
        p("while True:")
        retired = "f_i + n_i" if self.any_store else "n_i"
        p(f"if {retired} + {max_path_instructions} > budget:", 2)
        p("break", 3)
        if self.any_store:
            p("IU._writes = []", 2)

        epi: List[str] = []

        def e(line: str) -> None:
            epi.append("    " + line)

        e("PC_R.load(xpc)")
        e("NPC_R.load(xnpc)")
        if self.writes_icc:
            e("PSR_R.load(psr_base | (icc << 20))")
        if self.writes_y:
            e("Y_R.load(y)")
        for reg in sorted(self.written):
            idx = str(reg) if reg < 8 else f"p{reg}"
            e(f"_k = ENC(r{reg})")
            e(f"d0[{idx}] = r{reg}")
            e(f"c0[{idx}] = _k")
            if self.copies == 2:
                e(f"d1[{idx}] = r{reg}")
                e(f"c1[{idx}] = _k")
        # Every BLOCK_OBSERVABLES counter commits here (lint: FT601).
        e("PERF.cycles += n_c")
        e("PERF.instructions += n_i")
        e("PERF.icache_hits += n_s")
        if self.has_loads:
            e("PERF.loads += n_ld")
            e("PERF.dcache_hits += n_dh")
        if self.any_store:
            e("PERF.stores += n_st")
        e(f"return (xpc, {retired}, n_s, deopt)")

        return "\n".join(pro + self.lines + epi) + "\n"


def build_block(system, pc: int) -> Optional[CompiledBlock]:
    """Discover and compile the block at ``pc``; None if nothing there
    is worth compiling (not cached, unsupported head, too short)."""
    if pc & 3 or pc >= 0xFFFFFF00:
        return None
    icache = system.icache
    peek = icache.peek_word
    straight: List[Tuple[int, int, Instr]] = []
    ender: Optional[Tuple[int, int, Instr]] = None
    delay: Optional[Tuple[int, int, Instr]] = None
    addr = pc
    while len(straight) < MAX_BLOCK_INSTRUCTIONS - 2:
        word = peek(addr)
        if word is None:
            break
        instr = decode(word)
        kind = _classify(instr)
        if kind == "simple":
            straight.append((addr, word, instr))
            addr = (addr + 4) & 0xFFFFFFFF
            continue
        if kind == "ender":
            dword = peek((addr + 4) & 0xFFFFFFFF)
            if dword is not None:
                dinstr = decode(dword)
                executes = not _always_annuls(instr)
                if not executes or _classify(dinstr) == "simple":
                    ender = (addr, word, instr)
                    delay = ((addr + 4) & 0xFFFFFFFF, dword, dinstr)
        break

    if ender is None and len(straight) < MIN_FALLTHROUGH_INSTRUCTIONS:
        return None

    gen = _Codegen(system, pc)
    for iaddr, _word, instr in straight:
        gen.emit_instr(instr, iaddr, 2)
    if ender is not None:
        eaddr, _eword, einstr = ender
        daddr, _dword, dinstr = delay
        gen.emit_ender(einstr, eaddr, (daddr, dinstr), 2)
        end_pc = (eaddr + 8) & 0xFFFFFFFF
        max_path = len(straight) + 1 + (0 if _always_annuls(einstr) else 1)
    else:
        last = straight[-1][0]
        end_pc = (last + 4) & 0xFFFFFFFF
        gen.flush(2)
        gen.emit(f"xpc = {end_pc:#x}", 2)
        gen.emit(f"xnpc = {(end_pc + 4) & 0xFFFFFFFF:#x}", 2)
        gen.emit("break", 2)
        max_path = len(straight)

    source = gen.assemble(max_path)

    iu = system.iu
    regs = iu.r
    namespace = {
        "IU": iu,
        "RF": iu.regfile,
        "PERF": system.perf,
        "PSR_R": regs.psr._reg,
        "PC_R": regs._pc,
        "NPC_R": regs._npc,
        "Y_R": regs._y,
        "ENC": iu.regfile.codec.encode,
        "DPEEK": system.dcache.peek_word,
        "DCW": system.dcache.write,
        "W": TransferSize.WORD,
    }
    code = compile(source, f"<jit-block {pc:#x}>", "exec")
    exec(code, namespace)
    fn = namespace[f"_block_{pc:x}"]

    verify = tuple((iaddr, word) for iaddr, word, _instr in straight)
    addresses = {iaddr for iaddr, _w, _i in straight}
    if ender is not None:
        verify += ((ender[0], ender[1]), (delay[0], delay[1]))
        addresses.add(ender[0])
        addresses.add(delay[0])
    return CompiledBlock(pc, end_pc, verify, addresses, gen.regs, fn,
                         max_path, source)

