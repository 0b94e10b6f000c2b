"""Static analysis of assembled SPARC V8 programs: CFG, liveness, ACE map.

The beam campaigns discover architectural masking by brute force: every
strike is executed to the end of the run (or to a golden-timeline
reconvergence boundary, PR 6) before it can be graded ``masked``.  Most
register-file strikes are boring in a way that is *provable before the
run*: they land in a physical register word the program never reads again,
so the faulted trajectory is instruction-for-instruction identical to the
golden one.  This module proves that.

It recovers the control-flow graph from the disassembler (basic blocks,
delay slots and annul bits, dominators, natural loops), runs backward
register liveness and forward reaching-definitions per instruction, and
distils the result into a small picklable :class:`AceMap` that the fault
layer consults per strike:

* ``latent``  -- the struck physical word is never read *or written* by any
  reachable instruction: the flip stays resident, every readout and counter
  is golden, and the end-of-run classification is exactly what
  ``FaultInjector.is_latent`` would report (the word stays suspect).
* ``ambiguous`` -- the word is written but never read ("write-only"): all
  readouts and counters are golden, but whether the flip is still resident
  at run end depends on strike-vs-write ordering, so the campaign only
  skips such runs when lifecycle tracing is off.
* ``None``    -- the word is (or may be) read: no claim, execute the run.

Soundness rests on three pillars, checked dynamically by the campaign
before it ships an :class:`AceMap` to workers (see DESIGN.md "Static
program analysis"):

1. **Golden trap freedom.**  The claims only describe execution along
   *architectural* control flow (branches, calls, jumpl).  Traps and
   interrupts enter the trap table through a path the CFG does not model.
   ``prepare_warm_start`` therefore only attaches the map when the golden
   run completed with ``perf.traps == 0``; a dead strike cannot *create*
   a trap (the faulted trajectory equals the golden one), so trap freedom
   of the golden run extends to every statically-masked run.
2. **Over-approximate reachability.**  The explored state graph starts
   from the live (pc, npc, cwp) of the warm-start snapshot and includes
   every statically reachable successor; the set of words *touched* is a
   superset of the words the real run touches, so "never touched" is an
   under-approximation -- claims only shrink.
3. **Graceful degradation.**  Any construct that defeats window tracking
   (unresolvable indirect jumps, DCTI couples, ``wr %psr``/``wr %wim``/
   ``rett`` in reachable code, a non-``call`` writer of %o7/%i7, live
   ``wim != 0``) abandons *window* claims entirely and falls back to an
   image-wide global-register analysis: only %g registers that no
   instruction anywhere in the image touches are claimed (plus physical
   word 0, architecturally never stored: %g0 reads return zero and writes
   are discarded without touching the RAM).

What is *not* proven (and therefore never claimed): anything about cache
RAMs, pipeline flip-flops, or external memory -- those strikes always
execute.  See :meth:`AceMap.classify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.sparc.asm import AssemblerError, Program
from repro.sparc.decode import decode
from repro.sparc.isa import Cond, Op, Op2, Op3, Op3Mem

#: Exploration budget: product of pc x pending x cwp x call-stack states.
#: Far above anything the paper programs or randgen produce (a few
#: thousand); hitting it means pathological code, and we degrade.
MAX_STATES = 200_000
#: Virtual call-stack depth bound (recursion guard).
MAX_CALL_DEPTH = 64

#: Arithmetic op3 values that defeat static window/claim tracking when
#: reachable: they rewrite CWP/WIM (or return from a trap we said cannot
#: happen on the analyzed paths).
_BARRIER_OP3 = {Op3.WRPSR, Op3.WRWIM, Op3.RETT}

#: Memory op3 values touching the FP register file.
_FP_MEM_OP3 = {Op3Mem.LDF, Op3Mem.LDFSR, Op3Mem.LDDF,
               Op3Mem.STF, Op3Mem.STFSR, Op3Mem.STDFQ, Op3Mem.STDF}


def _physical_index(cwp: int, reg: int, nwindows: int) -> int:
    """Mirror of ``RegisterFile.physical_index`` (globals then the window
    ring); reg 0 has no physical backing store and must not be mapped."""
    if reg < 8:
        return reg
    return 8 + ((cwp * 16) + (reg - 8)) % (nwindows * 16)


@dataclass(frozen=True)
class EntryContext:
    """The live machine state the analysis starts from.

    Captured from a running :class:`~repro.core.system.LeonSystem` at the
    warm-start snapshot point; the claims are only valid for executions
    that resume from exactly this state.
    """

    pc: int
    npc: int
    cwp: int
    wim: int
    nwindows: int
    regfile_words: int
    has_fpu: bool
    #: Live %i7 / %o7 values of the entry window, used to resolve a
    #: ``ret``/``retl`` whose matching ``call`` happened before the
    #: snapshot (the virtual call stack is empty at entry).
    i7: int = 0
    o7: int = 0


def entry_context(system) -> EntryContext:
    """Read an :class:`EntryContext` off a live system (cheap)."""
    special = system.special
    cwp = special.psr.cwp
    config = system.config
    return EntryContext(
        pc=special.pc,
        npc=special.npc,
        cwp=cwp,
        wim=special.wim,
        nwindows=config.nwindows,
        regfile_words=config.regfile_words,
        has_fpu=system.fpu is not None,
        i7=system.regfile.read_raw(cwp, 31)[0],
        o7=system.regfile.read_raw(cwp, 15)[0],
    )


@dataclass(frozen=True)
class AceMap:
    """The distilled, picklable claim set the fault layer consults.

    ``never_words`` / ``writeonly_words`` are *physical* register-file word
    indices (copy-agnostic: the injector's ``locate`` folds duplicated-RAM
    copies onto the same physical word, and both copies of an untouched
    word stay untouched).  Claims assume the golden run was trap-free;
    :func:`repro.fault.campaign.prepare_warm_start` enforces that before
    shipping the map.
    """

    entry_pc: int
    nwindows: int
    regfile_words: int
    #: Physical words neither read nor written by any reachable instruction.
    never_words: FrozenSet[int]
    #: Physical words written but never read.
    writeonly_words: FrozenSet[int]
    #: True when no reachable instruction touches the FP register file.
    fpregs_dead: bool
    #: False when the analysis degraded to image-wide global-only claims.
    window_claims: bool
    #: Why window claims were abandoned ("" when they were not).
    degraded_reason: str
    #: Natural-loop header pcs (back-edge targets).
    loop_heads: Tuple[int, ...]
    #: Summary statistics for reports (JSON-safe).
    stats: Dict[str, int] = field(default_factory=dict, compare=False)

    def classify(self, target: str, word: Optional[int]) -> Optional[str]:
        """Classify a strike at (target, physical word).

        Returns ``"latent"`` when the strike is provably dead and resident,
        ``"ambiguous"`` when readouts are provably golden but end-of-run
        residency is not determined, ``None`` when no claim is made.  Only
        register-file strikes (and whole-file-dead FP strikes) are ever
        claimed; caches, flip-flops and external memory always return
        ``None`` -- the analysis proves nothing about them.
        """
        if target == "regfile" and word is not None:
            if word in self.never_words:
                return "latent"
            if word in self.writeonly_words:
                return "ambiguous"
            return None
        if target == "fpregs" and self.fpregs_dead:
            return "latent"
        return None

    @property
    def claimable_words(self) -> int:
        return len(self.never_words) + len(self.writeonly_words)

    def ace_fraction(self) -> float:
        """Fraction of register-file words that are ACE (a strike there can
        affect the run): 1 - claimable/total."""
        if not self.regfile_words:
            return 1.0
        return 1.0 - self.claimable_words / self.regfile_words

    def as_dict(self) -> Dict[str, object]:
        return {
            "entry_pc": self.entry_pc,
            "nwindows": self.nwindows,
            "regfile_words": self.regfile_words,
            "never_words": sorted(self.never_words),
            "writeonly_words": sorted(self.writeonly_words),
            "fpregs_dead": self.fpregs_dead,
            "window_claims": self.window_claims,
            "degraded_reason": self.degraded_reason,
            "loop_heads": list(self.loop_heads),
            "ace_fraction": self.ace_fraction(),
            "stats": dict(self.stats),
        }


@dataclass
class BasicBlock:
    """A maximal straight-line run of the pc-level CFG."""

    start: int
    end: int  # inclusive address of the last instruction
    successors: Tuple[int, ...] = ()

    @property
    def size(self) -> int:
        return (self.end - self.start) // 4 + 1


@dataclass
class Loop:
    """One natural loop (back edge whose target dominates its source)."""

    head: int
    back_edges: Tuple[int, ...]
    body: FrozenSet[int]


@dataclass
class SiteLiveness:
    """Per-instruction dataflow facts at one explored state."""

    pc: int
    cwp: int
    uses: FrozenSet[int]   # physical words read by this instruction
    defs: FrozenSet[int]   # physical words written by this instruction
    live_in: FrozenSet[int]  # physical words live immediately before it


@dataclass
class ProgramAnalysis:
    """Full analysis result (report-sized; only ``ace`` ships to workers)."""

    program_name: str
    entry: EntryContext
    ace: AceMap
    blocks: List[BasicBlock]
    loops: List[Loop]
    #: pc -> (uses, defs) at *architectural* register granularity, for the
    #: randgen differential cross-check and the CLI report.
    arch_defuse: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]]
    #: Explored per-state liveness (empty when window claims degraded).
    sites: List[SiteLiveness]
    #: Reaching definitions: number of (def site -> use site) pairs and the
    #: def sites no use can reach (dead stores).
    defuse_pairs: int = 0
    dead_def_sites: int = 0
    #: Memory words (addresses) provably written-never-read among stores
    #: whose effective address resolved statically; report only.
    writeonly_memory_words: Tuple[int, ...] = ()
    memory_resolved: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program_name,
            "entry": {
                "pc": self.entry.pc, "npc": self.entry.npc,
                "cwp": self.entry.cwp, "wim": self.entry.wim,
                "nwindows": self.entry.nwindows,
            },
            "cfg": {
                "blocks": len(self.blocks),
                "edges": sum(len(block.successors) for block in self.blocks),
                "instructions": sum(block.size for block in self.blocks),
                "loops": [
                    {"head": loop.head, "body_blocks": len(loop.body)}
                    for loop in self.loops
                ],
            },
            "liveness": {
                "sites": len(self.sites),
                "defuse_pairs": self.defuse_pairs,
                "dead_def_sites": self.dead_def_sites,
            },
            "memory": {
                "resolved": self.memory_resolved,
                "writeonly_words": len(self.writeonly_memory_words),
            },
            "ace": self.ace.as_dict(),
        }


class _Degrade(Exception):
    """Internal: abandon window claims, noting why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: One explored machine state: about to execute the instruction at ``pc``
#: in window ``cwp``; after it, control goes to ``pending`` if set (we are
#: in a delay slot) else ``pc + 4``; ``stack`` is the virtual call stack of
#: return addresses.
_State = Tuple[int, Optional[int], int, Tuple[int, ...]]


def _check_return_register_writers(program: Program) -> None:
    """Degrade when anything but ``call`` defines %o7/%i7 anywhere in the
    image: the virtual call stack then no longer models return targets."""
    for offset, word in enumerate(program.words):
        instr = decode(word)
        if not instr.valid or instr.op == Op.CALL:
            continue
        if 15 in instr.defs or 31 in instr.defs:
            raise _Degrade(
                f"instruction at {program.base + offset * 4:#x} writes a "
                "return-address register")


def _explore(program: Program, entry: EntryContext):
    """Walk the state graph from the entry context.

    Returns ``(order, succs, uses, defs, arch_defuse, fp_touched)`` where
    ``order`` lists states in discovery order, ``succs`` maps each state to
    its successor states, and ``uses``/``defs`` map each state to frozensets
    of physical register words.  Raises :class:`_Degrade` when a construct
    defeats window tracking.
    """
    if entry.wim != 0:
        raise _Degrade("live wim != 0 (window traps possible)")
    _check_return_register_writers(program)

    nwindows = entry.nwindows

    def fetch(pc: int):
        try:
            return decode(program.word_at(pc))
        except AssemblerError:
            raise _Degrade(f"control flow leaves the image at {pc:#x}")

    entry_pending = entry.npc if entry.npc != entry.pc + 4 else None
    start: _State = (entry.pc, entry_pending, entry.cwp % nwindows, ())

    order: List[_State] = []
    succs: Dict[_State, List[_State]] = {}
    uses: Dict[_State, FrozenSet[int]] = {}
    defs: Dict[_State, FrozenSet[int]] = {}
    arch_defuse: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
    fp_touched = False

    worklist: List[_State] = [start]
    seen: Set[_State] = {start}
    while worklist:
        state = worklist.pop()
        if len(order) >= MAX_STATES:
            raise _Degrade("state budget exhausted")
        order.append(state)
        pc, pending, cwp, stack = state
        instr = fetch(pc)

        next_pc = pending if pending is not None else pc + 4
        out: List[_State] = []
        def_cwp = cwp

        if not instr.valid or instr.mnemonic in ("unimp", "cpop"):
            # Would trap if executed; the golden-trap-freedom witness says
            # these never execute on the analyzed trajectories.  Terminal.
            out = []
        elif instr.mnemonic == "ticc":
            # A taken trap cannot happen (witness); a never/conditional
            # ticc falls through.  ``ta`` is terminal.
            out = [] if instr.cond == Cond.A else [(next_pc, None, cwp, stack)]
        elif instr.is_branch:
            if pending is not None:
                raise _Degrade(f"DCTI couple at {pc:#x}")
            target = (pc + instr.disp) & 0xFFFFFFFF
            if instr.cond == Cond.A:
                if instr.annul:  # ba,a: delay slot never executes
                    out = [(target, None, cwp, stack)]
                else:
                    out = [(pc + 4, target, cwp, stack)]
            elif instr.cond == Cond.N:
                if instr.annul:  # bn,a: delay slot annulled, fall through
                    out = [(pc + 8, None, cwp, stack)]
                else:
                    out = [(pc + 4, None, cwp, stack)]
            else:
                taken: _State = (pc + 4, target, cwp, stack)
                if instr.annul:  # untaken conditional annuls the delay slot
                    untaken: _State = (pc + 8, None, cwp, stack)
                else:
                    untaken = (pc + 4, None, cwp, stack)
                out = [taken, untaken]
        elif instr.op == Op.CALL:
            if pending is not None:
                raise _Degrade(f"DCTI couple at {pc:#x}")
            if len(stack) >= MAX_CALL_DEPTH:
                raise _Degrade(f"call depth limit at {pc:#x}")
            target = (pc + instr.disp) & 0xFFFFFFFF
            out = [(pc + 4, target, cwp, stack + (pc + 8,))]
        elif instr.op == Op.ARITH and instr.op3 == Op3.JMPL:
            if pending is not None:
                raise _Degrade(f"DCTI couple at {pc:#x}")
            if instr.rd != 0 or instr.imm != 8 or instr.rs1 not in (15, 31):
                raise _Degrade(f"unresolvable indirect jump at {pc:#x}")
            if stack:
                target, stack = stack[-1], stack[:-1]
            else:
                # Returning past the snapshot frame: resolve through the
                # live return-address value captured at entry.  Only valid
                # in the entry window (depth changes are matched by the
                # virtual stack for frames the exploration itself entered).
                if cwp != entry.cwp % nwindows:
                    raise _Degrade(f"return without call frame at {pc:#x}")
                value = entry.i7 if instr.rs1 == 31 else entry.o7
                target = (value + 8) & 0xFFFFFFFF
            out = [(pc + 4, target, cwp, stack)]
        elif instr.op == Op.ARITH and instr.op3 in _BARRIER_OP3:
            raise _Degrade(f"{instr.mnemonic} reachable at {pc:#x}")
        elif instr.op == Op.ARITH and instr.op3 == Op3.SAVE:
            def_cwp = (cwp - 1) % nwindows
            out = [(next_pc, None, def_cwp, stack)]
        elif instr.op == Op.ARITH and instr.op3 == Op3.RESTORE:
            def_cwp = (cwp + 1) % nwindows
            out = [(next_pc, None, def_cwp, stack)]
        else:
            out = [(next_pc, None, cwp, stack)]

        if instr.is_fpop or (instr.op == Op.MEM and instr.op3 in _FP_MEM_OP3) \
                or (instr.op == Op.FORMAT2 and instr.op2 == Op2.FBFCC):
            fp_touched = True

        uses[state] = frozenset(
            _physical_index(cwp, reg, nwindows)
            for reg in instr.sources if reg)
        defs[state] = frozenset(
            _physical_index(def_cwp, reg, nwindows)
            for reg in instr.defs if reg)
        arch = arch_defuse.setdefault(pc, ((), ()))
        arch_defuse[pc] = (
            tuple(sorted(set(arch[0]) | {reg for reg in instr.sources if reg})),
            tuple(sorted(set(arch[1]) | set(instr.defs))),
        )
        succs[state] = out
        for nxt in out:
            if nxt not in seen:
                seen.add(nxt)
                worklist.append(nxt)
    return order, succs, uses, defs, arch_defuse, fp_touched


def _liveness(order, succs, uses, defs) -> Dict[_State, int]:
    """Backward may-liveness over the state graph, physical words as
    bit positions in Python-int bitsets.  Returns live-in per state."""
    use_bits = {state: _bits(words) for state, words in uses.items()}
    def_bits = {state: _bits(words) for state, words in defs.items()}
    live_in: Dict[_State, int] = {state: 0 for state in order}
    changed = True
    # Reverse discovery order approximates reverse topological order well
    # enough; iterate to fixpoint.
    sweep = list(reversed(order))
    while changed:
        changed = False
        for state in sweep:
            live_out = 0
            for nxt in succs[state]:
                live_out |= live_in[nxt]
            new = use_bits[state] | (live_out & ~def_bits[state])
            if new != live_in[state]:
                live_in[state] = new
                changed = True
    return live_in


def _reaching_definitions(order, succs, uses, defs):
    """Forward reaching definitions over the state graph.

    Definition sites are numbered per (state, word); returns the number of
    realized def->use pairs and the count of def sites that reach no use
    (dead stores).
    """
    site_ids: Dict[Tuple[_State, int], int] = {}
    for state in order:
        for word in sorted(defs[state]):
            site_ids[(state, word)] = len(site_ids)
    if not site_ids:
        return 0, 0
    gen = {}
    kill_words = {}
    for state in order:
        gen[state] = _bits(site_ids[(state, word)] for word in defs[state])
        kill_words[state] = defs[state]
    by_word: Dict[int, int] = {}
    for (state, word), ident in site_ids.items():
        by_word[word] = by_word.get(word, 0) | (1 << ident)

    reach_in: Dict[_State, int] = {state: 0 for state in order}
    preds: Dict[_State, List[_State]] = {state: [] for state in order}
    for state in order:
        for nxt in succs[state]:
            preds[nxt].append(state)
    changed = True
    while changed:
        changed = False
        for state in order:
            incoming = 0
            for pred in preds[state]:
                out = reach_in[pred]
                for word in kill_words[pred]:
                    out &= ~by_word[word]
                out |= gen[pred]
                incoming |= out
            if incoming != reach_in[state]:
                reach_in[state] = incoming
                changed = True

    used_sites = 0
    pairs = 0
    for state in order:
        if not uses[state]:
            continue
        mask = 0
        for word in uses[state]:
            mask |= by_word.get(word, 0)
        reaching = reach_in[state] & mask
        used_sites |= reaching
        pairs += reaching.bit_count()
    dead = len(site_ids) - used_sites.bit_count()
    return pairs, dead


def _bits(values: Iterable[int]) -> int:
    mask = 0
    for value in values:
        mask |= 1 << value
    return mask


def _pc_graph(order, succs) -> Dict[int, Set[int]]:
    graph: Dict[int, Set[int]] = {}
    for state in order:
        graph.setdefault(state[0], set())
        for nxt in succs[state]:
            graph[state[0]].add(nxt[0])
    return graph


def _basic_blocks(graph: Dict[int, Set[int]], entry_pc: int) -> List[BasicBlock]:
    preds: Dict[int, Set[int]] = {pc: set() for pc in graph}
    for pc, outs in graph.items():
        for nxt in outs:
            preds.setdefault(nxt, set()).add(pc)
    leaders = {entry_pc}
    for pc, outs in graph.items():
        if len(outs) > 1:
            leaders.update(outs)
        for nxt in outs:
            if len(preds.get(nxt, ())) > 1 or nxt != pc + 4:
                leaders.add(nxt)
    blocks: List[BasicBlock] = []
    for leader in sorted(leaders):
        if leader not in graph:
            continue
        pc = leader
        while True:
            outs = graph.get(pc, set())
            if len(outs) != 1:
                break
            (nxt,) = outs
            if nxt != pc + 4 or nxt in leaders:
                break
            pc = nxt
        blocks.append(BasicBlock(leader, pc,
                                 tuple(sorted(graph.get(pc, ())))))
    # Successor pcs -> successor block leaders.
    leader_of: Dict[int, int] = {}
    for block in blocks:
        for pc in range(block.start, block.end + 4, 4):
            leader_of[pc] = block.start
    for block in blocks:
        block.successors = tuple(sorted(
            {leader_of[nxt] for nxt in block.successors if nxt in leader_of}))
    return blocks


def _dominators(blocks: List[BasicBlock], entry_pc: int) -> Dict[int, Set[int]]:
    leader_of_entry = None
    for block in blocks:
        if block.start <= entry_pc <= block.end:
            leader_of_entry = block.start
            break
    if leader_of_entry is None and blocks:
        leader_of_entry = blocks[0].start
    nodes = [block.start for block in blocks]
    preds: Dict[int, Set[int]] = {node: set() for node in nodes}
    for block in blocks:
        for nxt in block.successors:
            preds.setdefault(nxt, set()).add(block.start)
    dom: Dict[int, Set[int]] = {node: set(nodes) for node in nodes}
    if leader_of_entry is not None:
        dom[leader_of_entry] = {leader_of_entry}
    changed = True
    while changed:
        changed = False
        for node in nodes:
            if node == leader_of_entry:
                continue
            incoming = None
            for pred in preds[node]:
                incoming = set(dom[pred]) if incoming is None \
                    else incoming & dom[pred]
            new = {node} | (incoming or set())
            if new != dom[node]:
                dom[node] = new
                changed = True
    return dom


def _natural_loops(blocks: List[BasicBlock],
                   dom: Dict[int, Set[int]]) -> List[Loop]:
    preds: Dict[int, Set[int]] = {}
    for block in blocks:
        for nxt in block.successors:
            preds.setdefault(nxt, set()).add(block.start)
    loops: Dict[int, Tuple[Set[int], Set[int]]] = {}
    for block in blocks:
        for nxt in block.successors:
            if nxt in dom.get(block.start, ()):  # back edge: target dominates
                body, tails = loops.setdefault(nxt, (set(), set()))
                tails.add(block.start)
                # Collect the loop body: nodes reaching the tail without
                # passing through the head.
                stack = [block.start]
                body.add(nxt)
                while stack:
                    node = stack.pop()
                    if node in body:
                        continue
                    body.add(node)
                    stack.extend(preds.get(node, ()))
    return [Loop(head, tuple(sorted(tails)), frozenset(body))
            for head, (body, tails) in sorted(loops.items())]


def _image_global_analysis(program: Program, entry: EntryContext,
                           reason: str) -> AceMap:
    """Degraded mode: claim only %g words untouched anywhere in the image
    (sound for any control flow whatsoever, windowed or trapping)."""
    read: Set[int] = set()
    written: Set[int] = set()
    fp_touched = False
    valid_instructions = 0
    for word in program.words:
        instr = decode(word)
        if not instr.valid:
            continue
        valid_instructions += 1
        read.update(reg for reg in instr.sources if 0 < reg < 8)
        written.update(reg for reg in instr.defs if 0 < reg < 8)
        if instr.is_fpop or (instr.op == Op.MEM and instr.op3 in _FP_MEM_OP3) \
                or (instr.op == Op.FORMAT2 and instr.op2 == Op2.FBFCC):
            fp_touched = True
    globals_ = set(range(1, 8))
    never = {0} | (globals_ - read - written)
    writeonly = (globals_ & written) - read
    return AceMap(
        entry_pc=entry.pc,
        nwindows=entry.nwindows,
        regfile_words=entry.regfile_words,
        never_words=frozenset(never),
        writeonly_words=frozenset(writeonly),
        fpregs_dead=entry.has_fpu and not fp_touched,
        window_claims=False,
        degraded_reason=reason,
        loop_heads=(),
        stats={"reachable_states": 0, "image_instructions": valid_instructions},
    )


def _analyze_memory(program: Program,
                    blocks: List[BasicBlock]) -> Tuple[Tuple[int, ...], bool]:
    """Best-effort memory-word write-only detection (report only).

    Resolves effective addresses of reachable loads/stores through the
    ``sethi``/``or`` (``set``) constant idiom tracked linearly within each
    basic block (single-entry straight line, so the tracking is sound; the
    constant map resets at every block leader).  Any reachable load or
    store whose address does not resolve makes all memory claims vacuous
    (``resolved=False``).
    """
    pcs: List[int] = []
    consts: Dict[Tuple[int, int], int] = {}  # (pc, reg) -> known constant
    for block in blocks:
        known: Dict[int, int] = {}
        for pc in range(block.start, block.end + 4, 4):
            pcs.append(pc)
            instr = decode(program.word_at(pc))
            if instr.op == Op.FORMAT2 and instr.op2 == Op2.SETHI and instr.rd:
                known[instr.rd] = instr.imm22
            elif (instr.op == Op.ARITH and instr.op3 == Op3.OR
                  and instr.imm is not None and instr.rs1 == instr.rd
                  and instr.rd in known):
                known[instr.rd] = (known[instr.rd] | (instr.imm & 0x3FF)) \
                    & 0xFFFFFFFF
            else:
                for reg in instr.defs:
                    known.pop(reg, None)
            for reg, value in known.items():
                consts[(pc, reg)] = value

    reads: Set[int] = set()
    writes: Set[int] = set()
    resolved = True
    for pc in pcs:
        instr = decode(program.word_at(pc))
        if instr.op != Op.MEM or instr.op3 in _FP_MEM_OP3:
            if instr.op == Op.MEM:
                resolved = False
            continue
        base = consts.get((pc, instr.rs1))
        offset = instr.imm if instr.imm is not None else None
        if base is None or offset is None:
            resolved = False
            continue
        address = (base + offset) & 0xFFFFFFFC
        if instr.op3 in {Op3Mem.ST, Op3Mem.STB, Op3Mem.STH, Op3Mem.STD}:
            writes.add(address)
            if instr.op3 == Op3Mem.STD:
                writes.add(address + 4)
        else:
            reads.add(address)
            if instr.op3 == Op3Mem.LDD:
                reads.add(address + 4)
    if not resolved:
        return (), False
    return tuple(sorted(writes - reads)), True


def analyze_program(program: Program, entry: EntryContext,
                    *, name: Optional[str] = None) -> ProgramAnalysis:
    """Run the full static analysis from ``entry`` over ``program``.

    Never raises for analyzable-but-hostile code: constructs that defeat
    window tracking degrade the :class:`AceMap` to image-wide global-only
    claims (``window_claims=False``) instead.
    """
    program_name = name or program.name
    try:
        order, succs, uses, defs, arch_defuse, fp_touched = \
            _explore(program, entry)
    except _Degrade as degrade:
        ace = _image_global_analysis(program, entry, degrade.reason)
        return ProgramAnalysis(
            program_name=program_name, entry=entry, ace=ace,
            blocks=[], loops=[], arch_defuse={}, sites=[])

    live_in = _liveness(order, succs, uses, defs)
    pairs, dead_defs = _reaching_definitions(order, succs, uses, defs)

    graph = _pc_graph(order, succs)
    blocks = _basic_blocks(graph, entry.pc)
    dom = _dominators(blocks, entry.pc)
    loops = _natural_loops(blocks, dom)

    touched_read: Set[int] = set()
    touched_write: Set[int] = set()
    for state in order:
        touched_read.update(uses[state])
        touched_write.update(defs[state])

    all_words = set(range(entry.regfile_words))
    never = (all_words - touched_read - touched_write) | {0}
    writeonly = touched_write - touched_read

    sites = [
        SiteLiveness(
            pc=state[0], cwp=state[2], uses=uses[state], defs=defs[state],
            live_in=frozenset(_iter_bits(live_in[state])),
        )
        for state in order
    ]

    memory_writeonly, memory_resolved = _analyze_memory(program, blocks)

    ace = AceMap(
        entry_pc=entry.pc,
        nwindows=entry.nwindows,
        regfile_words=entry.regfile_words,
        never_words=frozenset(never),
        writeonly_words=frozenset(writeonly),
        fpregs_dead=entry.has_fpu and not fp_touched,
        window_claims=True,
        degraded_reason="",
        loop_heads=tuple(loop.head for loop in loops),
        stats={
            "reachable_states": len(order),
            "reachable_pcs": len(graph),
            "touched_read": len(touched_read),
            "touched_write": len(touched_write),
        },
    )
    return ProgramAnalysis(
        program_name=program_name, entry=entry, ace=ace,
        blocks=blocks, loops=loops, arch_defuse=arch_defuse, sites=sites,
        defuse_pairs=pairs, dead_def_sites=dead_defs,
        writeonly_memory_words=memory_writeonly,
        memory_resolved=memory_resolved,
    )


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def analyze_system(system, program: Program,
                   *, name: Optional[str] = None) -> ProgramAnalysis:
    """Analyze ``program`` from the live state of ``system``."""
    return analyze_program(program, entry_context(system), name=name)


def render_report(analysis: ProgramAnalysis) -> str:
    """Human-readable CLI report (``repro analyze``)."""
    ace = analysis.ace
    lines = [
        f"Static analysis: {analysis.program_name}",
        f"  entry pc {analysis.entry.pc:#010x}  cwp {analysis.entry.cwp}"
        f"  wim {analysis.entry.wim:#x}  windows {analysis.entry.nwindows}",
        f"  CFG: {len(analysis.blocks)} blocks, "
        f"{sum(len(b.successors) for b in analysis.blocks)} edges, "
        f"{sum(b.size for b in analysis.blocks)} instructions, "
        f"{len(analysis.loops)} natural loops",
    ]
    for loop in analysis.loops[:12]:
        lines.append(f"    loop head {loop.head:#010x}  "
                     f"body {len(loop.body)} blocks  "
                     f"back edges {len(loop.back_edges)}")
    lines.append(
        f"  liveness: {len(analysis.sites)} explored states, "
        f"{analysis.defuse_pairs} def-use pairs, "
        f"{analysis.dead_def_sites} dead def sites")
    mode = "window-accurate" if ace.window_claims else \
        f"degraded to globals ({ace.degraded_reason})"
    lines.append(f"  ACE map ({mode}):")
    lines.append(
        f"    register file: {ace.regfile_words} physical words, "
        f"{len(ace.never_words)} never-touched, "
        f"{len(ace.writeonly_words)} write-only, "
        f"ACE fraction {ace.ace_fraction():.3f}")
    lines.append(f"    fpregs provably dead: {ace.fpregs_dead}")
    if analysis.memory_resolved:
        lines.append(f"    memory: all reachable accesses resolved, "
                     f"{len(analysis.writeonly_memory_words)} "
                     f"write-only words")
    else:
        lines.append("    memory: unresolved accesses, no claims")
    lines.append("  not proven (always executed): cache RAMs, pipeline "
                 "flip-flops, external memory, trapping or interrupted runs")
    return "\n".join(lines)
