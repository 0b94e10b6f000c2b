"""The assembled LEON system: wiring, program loading, run control."""

import pytest

from repro import LeonConfig, LeonSystem, assemble
from repro.errors import BusError, SimulationError

SRAM = 0x40000000


def test_default_configuration_is_ft():
    system = LeonSystem()
    assert system.config.ft.tmr_flipflops


def test_memory_map_has_all_slaves():
    system = LeonSystem()
    names = {slave.name for slave in system.bus.slaves()}
    assert names == {"prom", "sram", "io", "apb-bridge"}
    apb_names = {slave.name for slave in system.apb.slaves()}
    assert apb_names == {"sysregs", "timers", "uart1", "uart2",
                         "irqctrl", "ioport", "errmon", "dma"}


def test_load_program_and_read_back():
    system = LeonSystem()
    program = assemble("nop\nnop", base=SRAM)
    system.load_program(program)
    assert system.read_word(SRAM) == program.words[0]
    assert system.special.pc == SRAM


def test_load_program_into_prom():
    system = LeonSystem()
    program = assemble("nop", base=0)
    system.load_program(program)
    assert system.special.pc == 0


def test_image_must_fit_one_bank():
    system = LeonSystem()
    with pytest.raises(SimulationError):
        system.write_image(0x30000000, b"\x00" * 8)  # unmapped
    size = system.config.memory.sram_bytes
    with pytest.raises(SimulationError):
        system.write_image(SRAM + size - 4, b"\x00" * 8)  # straddles the end


def test_read_write_word_helpers():
    system = LeonSystem()
    system.write_word(SRAM + 4, 123)
    assert system.read_word(SRAM + 4) == 123
    with pytest.raises(BusError):
        system.read_word(0x70000000)


def test_run_stop_conditions():
    system = LeonSystem()
    program = assemble("""
    start:
        add %g1, 1, %g1
    stopper:
        ba start
        nop
    """, base=SRAM)
    system.load_program(program)
    result = system.run(10_000, stop_pc=program.address_of("stopper"))
    assert result.stop_reason == "stop-pc"
    result = system.run(5)
    assert result.stop_reason == "budget"
    assert result.instructions == 5


def test_run_stop_when_predicate():
    system = LeonSystem()
    program = assemble("nop\nnop\nnop\nend:\n ba end\n nop", base=SRAM)
    system.load_program(program)
    result = system.run(100, stop_when=lambda r: r.pc == SRAM + 8)
    assert result.stop_reason == "predicate"


def test_power_down_idles_until_interrupt():
    """A write to the power-down register stops execution; a timer
    interrupt wakes the processor (if it were enabled)."""
    system = LeonSystem()
    program = assemble(f"""
        set 0x80000018, %g1
        st %g0, [%g1]           ! power down
        nop
    """, base=SRAM)
    system.load_program(program)
    result = system.run(100, max_idle_steps=10)
    assert result.stop_reason == "idle"


def test_error_counters_surface_on_apb():
    system = LeonSystem()
    system.errors.rfe = 7
    assert system.read_word(0x800000B0 + 0x10) == 7


def test_uart_output_capture():
    system = LeonSystem()
    program = assemble("""
        set 0x80000078, %g1     ! uart1 control
        mov 3, %g2              ! rx+tx enable
        st %g2, [%g1]
        set 0x80000070, %g1     ! uart1 data
        mov 65, %g2
        st %g2, [%g1]
    end:
        ba end
        nop
    """, base=SRAM)
    system.load_program(program)
    system.run(100, stop_pc=program.address_of("end"))
    system.apb.tick(1000)
    assert system.uart_output() == b"A"


def test_perf_counters_accumulate():
    system = LeonSystem()
    program = assemble("nop\nnop\nend:\n ba end\n nop", base=SRAM)
    system.load_program(program)
    system.run(10, stop_pc=program.address_of("end"))
    assert system.perf.instructions == 2
    assert system.perf.cycles >= 2
    assert 0 < system.perf.ipc <= 1


def _telemetry_holders(system, telemetry):
    from repro.analysis.audit import _walk_objects

    return sorted(type(obj).__name__ for obj in _walk_objects(system)
                  if getattr(obj, "telemetry", None) is telemetry)


def test_bind_telemetry_reaches_every_holder_construction_binds():
    """A device reused across campaign runs gets each run's telemetry
    through ``bind_telemetry``: it must reach every object that
    construction hands the telemetry to, or part of a traced run's
    events would land in an earlier run's trace."""
    from repro.telemetry import MemorySink, Telemetry

    config = LeonConfig.leon_express()
    telemetry = Telemetry(MemorySink())
    built = _telemetry_holders(LeonSystem(config, telemetry=telemetry),
                               telemetry)
    system = LeonSystem(config)
    system.bind_telemetry(telemetry)
    assert _telemetry_holders(system, telemetry) == built
    assert built == sorted(["LeonSystem", "InstructionCache", "DataCache",
                            "IntegerUnit"])
    system.bind_telemetry(None)
    assert _telemetry_holders(system, telemetry) == []
