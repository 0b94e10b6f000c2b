"""Differential fuzz: compiled execution is byte-identical to interpreted.

Every test runs the same program on two identically-configured systems --
trace JIT enabled and disabled -- and asserts the *complete* observable
surface matches: architectural ``state_digest``, every performance and
error counter, and the telemetry event stream.  The corpus covers the
three paper programs, seeded random programs, mid-run fault strikes into
cells covered by compiled blocks, stuck-at reasserts, and the
snapshot/restore and stop-pc edges of ``run_fast``.
"""

import dataclasses
import re
from collections import Counter

import pytest

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import CampaignConfig
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.fault.injector import FaultInjector
from repro.jit.blocks import _LOADS, _STORES
from repro.programs import build_cncf, build_iutest, build_paranoia
from repro.programs.builder import ProgramHarness
from repro.programs.randgen import build_random
from repro.sparc.decode import decode
from repro.sparc.isa import Op
from repro.telemetry import MemorySink, Telemetry

#: Campaign settings small enough for the test budget, large enough to
#: schedule strikes inside the beam window.
FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=20_000.0)


def _boot(builder, config, jit):
    sink = MemorySink()
    system = LeonSystem(config, telemetry=Telemetry(sink), jit=jit)
    built = builder(config)
    program = built[0] if isinstance(built, tuple) else built
    ProgramHarness(system, program)
    return system, sink


def _observables(system, sink):
    return (system.state_digest(), system.perf.capture(),
            system.errors.capture(), sink.events)


def _assert_pair_equal(interp, jit_sys):
    (d0, p0, e0, t0), (d1, p1, e1, t1) = interp, jit_sys
    assert d1 == d0
    assert p1 == p0
    assert e1 == e0
    assert t1 == t0


def _run_differential(builder, config, *, chunks=(60_000, 60_000, 60_000)):
    """Run both systems chunk by chunk, comparing after every chunk so a
    divergence is caught near where it happens, not at the end."""
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    for chunk in chunks:
        r0 = interp.run_fast(chunk)
        r1 = compiled.run_fast(chunk)
        assert (r1.instructions, r1.cycles, r1.stop_reason, r1.pc) == \
            (r0.instructions, r0.cycles, r0.stop_reason, r0.pc)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))
    assert compiled.jit.stats["bursts"] > 0, \
        "differential run never exercised a compiled burst"
    return compiled


def test_iutest_equivalence():
    config = LeonConfig.fault_tolerant()
    compiled = _run_differential(
        lambda c: build_iutest(c, iterations=1_000_000), config)
    assert compiled.jit.stats["compiles"] > 0


def test_cncf_equivalence():
    config = LeonConfig.leon_express()
    _run_differential(lambda c: build_cncf(c, iterations=1_000_000), config,
                      chunks=(80_000, 80_000))


def test_paranoia_equivalence():
    config = LeonConfig.leon_express()
    _run_differential(lambda c: build_paranoia(c, iterations=1_000_000),
                      config, chunks=(80_000, 80_000))


@pytest.mark.parametrize("seed", [7, 99, 123, 20260808])
def test_random_program_equivalence(seed):
    config = LeonConfig.fault_tolerant()
    _run_differential(
        lambda c: build_random(c, seed=seed, iterations=1_000_000),
        config, chunks=(50_000, 50_000))


def _locals(source):
    """The ``r<n>`` register locals a compiled block's source names."""
    return {int(n) for n in re.findall(r"\br(\d+)\b", source)}


@pytest.mark.parametrize("program,config", [
    (lambda c: build_iutest(c, iterations=1_000_000),
     LeonConfig.fault_tolerant()),
    (lambda c: build_cncf(c, iterations=1_000_000), LeonConfig.leon_express()),
    (lambda c: build_paranoia(c, iterations=1_000_000),
     LeonConfig.leon_express()),
    (lambda c: build_random(c, seed=7, iterations=1_000_000),
     LeonConfig.fault_tolerant()),
], ids=["iutest", "cncf", "paranoia", "random:7"])
def test_footprint_covers_emitted_code(program, config):
    """The suspect guard's footprint is exact: every register local the
    codegen emits is a footprint register and vice versa."""
    system, _sink = _boot(program, config, True)
    seen = {}
    for _ in range(4):
        system.run_fast(40_000)
        seen.update((id(block), block) for block in system.jit.blocks.values()
                    if block is not False)
    assert seen, "no hot block compiled"
    for block in seen.values():
        assert _locals(block.source) == set(block.regs), hex(block.pc)
        assert 0 not in block.regs


# -- mid-run strikes -----------------------------------------------------------


def _strike_sites(injector):
    """A deterministic spread of strikes across every on-chip target,
    including cells the hot blocks cover (i-cache words, register file,
    d-cache, flip-flops)."""
    sites = []
    for name in ("icache-data", "icache-tag", "dcache-data", "dcache-tag",
                 "regfile", "flipflops"):
        bits = injector.target(name).bits
        sites.extend((name, (bits * k) // 7) for k in (1, 3, 5))
    return sites


def test_strikes_into_covered_cells_equivalent():
    """SEUs landing mid-campaign -- after blocks are hot and compiled --
    must produce identical detection, correction, and digests.  A
    register-file strike inside a block's footprint, or a flip-flop
    strike, fails the burst entry guard; an i-cache strike on a block
    word fails word verification (dropping the block); a d-cache strike
    deopts the load that probes it or is detected by the real store
    path; a strike anywhere else is storage the burst never touches."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_iutest(c, iterations=1_000_000)
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    pair = ((interp, interp_sink), (compiled, compiled_sink))
    injectors = [FaultInjector(system) for system, _sink in pair]
    for system, _sink in pair:
        system.run_fast(40_000)  # get the patrol loop hot and compiled
    assert compiled.jit.stats["bursts"] > 0
    for name, flat_bit in _strike_sites(injectors[0]):
        for injector in injectors:
            injector.inject(name, flat_bit)
        r0 = interp.run_fast(8_000)
        r1 = compiled.run_fast(8_000)
        assert (r1.instructions, r1.cycles, r1.pc) == \
            (r0.instructions, r0.cycles, r0.pc), (name, flat_bit)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))


# -- strikes inside and outside a block's footprint ----------------------------

#: Instructions both twins run after a footprint strike.
STRIKE_CHUNK = 8_000
#: A data bit: one flip is BCH-correctable in the register file and a
#: parity error in either cache RAM.
STRIKE_BIT = 3
#: The error counter that records a detected upset in each target.
DETECT_COUNTER = {"regfile": "rfe", "icache-data": "ide",
                   "dcache-data": "dde", "dcache-tag": "dte"}


def _hot_twins():
    """Interpreted and compiled iutest twins with the patrol loop hot."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_iutest(c, iterations=1_000_000)
    pair = [_boot(builder, config, jit) for jit in (False, True)]
    for system, _sink in pair:
        system.run_fast(40_000)
    return config, pair


def _scout(config, system):
    """What an interpreted copy of *system* does over the next
    STRIKE_CHUNK steps: (pc, cwp, instr, effective address or None)."""
    scout = LeonSystem(config, jit=False)
    scout.restore(system.snapshot())
    trace = []
    for _ in range(STRIKE_CHUNK):
        pc, cwp = scout.special.pc, scout.iu.r.psr.cwp
        view = scout.regfile.window_view(cwp)
        instr = scout.step().instr
        address = None
        if instr is not None and instr.op == Op.MEM:
            offset = instr.imm if instr.imm is not None else view[instr.rs2]
            address = (view[instr.rs1] + offset) & 0xFFFFFFFF
        trace.append((pc, cwp, instr, address))
    return trace


def _first_read(block):
    """The first register the block reads before writing it."""
    written = set()
    for _addr, word in block.verify:
        instr = decode(word)
        for reg in instr.sources:
            if reg and reg not in written:
                return reg
        written.update(instr.defs)
    raise AssertionError("block reads no register")


def _first_compiled_access(trace, covered, dcache, target):
    """On the upcoming path, the address of the first compiled load of a
    clean d-cache word (dcache-data), or of the first compiled store to
    a line nothing touched before it (dcache-tag)."""
    seen = set()
    for pc, _cwp, instr, addr in trace:
        if addr is None:
            continue
        line = dcache._index(addr)
        if pc in covered:
            if (target == "dcache-data" and instr.op3 in _LOADS
                    and dcache.peek_word(addr & ~3) is not None):
                return addr
            if (target == "dcache-tag" and instr.op3 in _STORES
                    and line not in seen):
                return addr
        seen.add(line)
    raise AssertionError(f"no compiled {target} access on the upcoming path")


def _footprint_word(target, inside, config, compiled):
    """A word of *target* inside a hot compiled block's footprint, or
    (``inside=False``) one that no block and none of the next
    STRIKE_CHUNK interpreted steps touch."""
    trace = _scout(config, compiled)
    blocks = [b for b in compiled.jit.blocks.values() if b is not False]
    covered = {addr for block in blocks for addr in block.addresses}
    visits = Counter(pc for pc, _cwp, _instr, _addr in trace)
    hottest = max(blocks, key=lambda block: visits[block.pc])
    if target == "regfile":
        regfile = compiled.regfile
        if inside:
            cwp = next(c for pc, c, _i, _a in trace if pc == hottest.pc)
            return regfile.physical_index(cwp, _first_read(hottest))
        cwps = {cwp for _pc, cwp, _instr, _addr in trace}
        touched = {regfile.physical_index(cwp, reg)
                   for _pc, cwp, instr, _addr in trace if instr is not None
                   for reg in instr.sources + instr.defs}
        touched |= {regfile.physical_index(cwp, reg)
                    for block in blocks for cwp in cwps
                    for reg in block.regs}
        return max(set(range(1, regfile.words)) - touched)
    if target == "icache-data":
        cache = compiled.icache
        used = {pc for pc, _cwp, _instr, _addr in trace} | covered
    else:
        cache = compiled.dcache
        used = {addr for _pc, _cwp, _instr, addr in trace if addr is not None}
    if inside:
        address = hottest.pc if target == "icache-data" else \
            _first_compiled_access(trace, covered, cache, target)
        line, offset = cache._index(address), cache._word(address)
    else:
        line = min(set(range(cache.lines))
                   - {cache._index(addr) for addr in used})
        offset = 0
    return line if target == "dcache-tag" else \
        line * cache.words_per_line + offset


@pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
@pytest.mark.parametrize("target", sorted(DETECT_COUNTER))
def test_strike_inside_and_outside_block_footprint(target, inside):
    """Only an upset a compiled block would act on keeps it out.

    Inside: a register-file word the hottest block reads is refused at
    entry (``refused_suspect``) and corrected by the interpreter; a block
    word in the i-cache fails entry verification; a d-cache word a block
    loads deopts the load to the interpreter's parity check; a d-cache
    tag a block stores through is detected and invalidated by the real
    store path *inside* the burst.  Outside: bursts keep retiring while
    the struck word is still suspect.  Every case matches the
    interpreted twin exactly."""
    config, pair = _hot_twins()
    (interp, interp_sink), (compiled, compiled_sink) = pair
    word = _footprint_word(target, inside, config, compiled)
    injectors = [FaultInjector(system) for system, _sink in pair]
    flat_bit = word * injectors[0].target(target).bits_per_word + STRIKE_BIT
    for injector in injectors:
        injector.inject(target, flat_bit)
    assert injectors[1].locate(target, flat_bit) == word
    assert injectors[1].is_latent(target, word)

    counter = DETECT_COUNTER[target]
    detected_before = getattr(compiled.errors, counter)
    stats_before = dict(compiled.jit.stats)
    interpreted_detects = []
    step = compiled.step

    def spy_step():
        before = getattr(compiled.errors, counter)
        result = step()
        if getattr(compiled.errors, counter) != before:
            interpreted_detects.append(result.pc)
        return result

    compiled.step = spy_step
    r0 = interp.run_fast(STRIKE_CHUNK)
    r1 = compiled.run_fast(STRIKE_CHUNK)
    assert (r1.instructions, r1.cycles, r1.stop_reason, r1.pc) == \
        (r0.instructions, r0.cycles, r0.stop_reason, r0.pc)
    _assert_pair_equal(_observables(interp, interp_sink),
                       _observables(compiled, compiled_sink))
    assert all(type(value) is int for value in compiled.jit.stats.values())
    delta = {key: value - stats_before[key]
             for key, value in compiled.jit.stats.items()}
    detected = getattr(compiled.errors, counter) - detected_before
    assert delta["bursts"] > 0
    if not inside:
        assert injectors[1].is_latent(target, word)
        assert delta["burst_instructions"] > 0
        assert detected == 0
        assert delta["refused_suspect"] == 0
        return
    assert not injectors[1].is_latent(target, word)
    assert detected == 1
    if target == "regfile":
        assert delta["refused_suspect"] > 0
    else:
        assert delta["refused_suspect"] == 0
    if target == "icache-data":
        assert delta["verify_drops"] > 0
    if target == "dcache-tag":
        assert interpreted_detects == []  # the burst's store found it
        assert any(event.get("action") == "invalidate"
                   for event in compiled_sink.events)
    else:
        assert interpreted_detects


def test_stuck_at_reassert_equivalent():
    """A stuck cell re-asserted at chunk boundaries keeps deopting or
    guard-failing the compiled path; the readout must not change."""
    config = LeonConfig.fault_tolerant()
    builder = lambda c: build_iutest(c, iterations=1_000_000)
    interp, interp_sink = _boot(builder, config, False)
    compiled, compiled_sink = _boot(builder, config, True)
    pair = ((interp, interp_sink), (compiled, compiled_sink))
    injectors = [FaultInjector(system) for system, _sink in pair]
    for system, _sink in pair:
        system.run_fast(40_000)
    for injector in injectors:
        injector.add_persistent("regfile", 40 * 32 + 3, 1)
        injector.add_persistent("dcache-data", 129, 0)
    for _ in range(4):  # chunk boundaries: reassert, then run
        for injector in injectors:
            injector.reassert_persistent()
        r0 = interp.run_fast(6_000)
        r1 = compiled.run_fast(6_000)
        assert (r1.instructions, r1.cycles, r1.pc) == \
            (r0.instructions, r0.cycles, r0.pc)
        _assert_pair_equal(_observables(interp, interp_sink),
                           _observables(compiled, compiled_sink))


# -- campaign-level identity ---------------------------------------------------


def _comparable(results):
    out = []
    for result in results:
        fields = dataclasses.asdict(result)
        fields.pop("wall_seconds")
        out.append(fields)
    return out


@pytest.mark.parametrize("model", ["seu", "stuck-at-1", "sefi"])
def test_campaign_results_jit_invariant(model, monkeypatch):
    """Full campaigns -- scheduled beam strikes, golden grading, early
    exits -- report byte-identical results with the JIT on and off."""
    configs = expand_runs(CampaignConfig(program="iutest", seed=5,
                                         fault_model=model, **FAST), runs=2)
    monkeypatch.setenv("REPRO_JIT", "0")
    off = CampaignExecutor(1).run_many(configs)
    monkeypatch.setenv("REPRO_JIT", "1")
    on = CampaignExecutor(1).run_many(configs)
    assert _comparable(on) == _comparable(off)


# -- run_fast edges ------------------------------------------------------------


def _warm_system(jit):
    config = LeonConfig.fault_tolerant()
    system = LeonSystem(config, jit=jit)
    program, _ = build_iutest(config, iterations=1_000_000)
    ProgramHarness(system, program)
    system.run_fast(40_000)
    return system


@pytest.mark.parametrize("jit", [False, True])
def test_run_fast_entry_pc_equals_stop_pc_is_zero_progress(jit):
    """A run whose entry PC already equals ``stop_pc`` (a grading walk
    landing exactly on a boundary) must terminate immediately with
    zero-progress semantics -- no wedge, no miscount, no state change."""
    system = _warm_system(jit)
    before = system.state_digest()
    perf = system.perf.capture()
    result = system.run_fast(1_000, stop_pc=system.special.pc)
    assert result.stop_reason == "stop-pc"
    assert result.instructions == 0
    assert result.steps == 0
    assert result.pc == system.special.pc
    assert system.state_digest() == before
    assert system.perf.capture() == perf
    # The budget check precedes the stop compare: a zero budget reports
    # "budget", still with zero progress.
    zero = system.run_fast(0, stop_pc=system.special.pc)
    assert zero.stop_reason == "budget"
    assert zero.instructions == 0


def test_run_fast_stop_pc_inside_compiled_block():
    """A stop_pc covered by a hot compiled block must stop exactly there:
    the engine refuses bursts whose footprint contains it."""
    scout = _warm_system(False)
    visited = set()
    for _ in range(4_000):  # where the patrol loop goes next
        scout.step()
        visited.add(scout.special.pc)
    compiled = _warm_system(True)
    inner = {addr
             for block in compiled.jit.blocks.values() if block is not False
             for addr in block.addresses - {block.pc}} & visited
    assert inner, "no compiled block interior on the upcoming path"
    inner = min(inner)
    interp = _warm_system(False)
    r0 = interp.run_fast(30_000, stop_pc=inner)
    r1 = compiled.run_fast(30_000, stop_pc=inner)
    assert (r1.instructions, r1.cycles, r1.stop_reason, r1.pc) == \
        (r0.instructions, r0.cycles, r0.stop_reason, r0.pc)
    assert r1.stop_reason == "stop-pc" and r1.pc == inner
    assert compiled.state_digest() == interp.state_digest()


def test_snapshot_restore_invalidates_compiled_blocks():
    """Restore rebinds component internals; stale closures must never
    run.  After a restore the system re-detects its hot loops and still
    matches interpreted execution."""
    compiled = _warm_system(True)
    assert compiled.jit.blocks
    snap = compiled.snapshot()
    compiled.run_fast(10_000)
    compiled.restore(snap)
    assert compiled.jit.blocks == {} and compiled.jit.counts == {}
    interp = _warm_system(False)
    r0 = interp.run_fast(30_000)
    r1 = compiled.run_fast(30_000)
    assert (r1.instructions, r1.cycles) == (r0.instructions, r0.cycles)
    assert compiled.state_digest() == interp.state_digest()


def test_repro_jit_env_disables(monkeypatch):
    monkeypatch.setenv("REPRO_JIT", "0")
    assert LeonSystem(LeonConfig.fault_tolerant()).jit is None
    monkeypatch.delenv("REPRO_JIT")
    assert LeonSystem(LeonConfig.fault_tolerant()).jit is not None
