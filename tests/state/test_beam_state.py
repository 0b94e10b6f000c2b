"""Injector state capture: the strike log round-trips."""

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.injector import FaultInjector


def test_injector_log_round_trip():
    system = LeonSystem(LeonConfig.leon_express())
    injector = FaultInjector(system)
    injector.inject("regfile", 3)
    state = injector.capture()
    injector.inject("icache-tag", 1)
    injector.restore(state)
    assert injector.injections == ["regfile"]
