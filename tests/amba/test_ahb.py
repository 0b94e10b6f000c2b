"""AHB bus: decoding, transfers, bursts, arbitration bookkeeping."""

import pytest

from repro.amba.ahb import AhbBus, AhbSlave, BusResult, TransferSize
from repro.errors import ConfigurationError


class RamSlave(AhbSlave):
    """A trivial word-addressed RAM slave for bus tests."""

    def __init__(self, name, base, size, waitstates=0):
        super().__init__(name, base, size)
        self.words = {}
        self.waitstates = waitstates
        self.burst_calls = 0

    def ahb_read(self, address, size):
        data = self.words.get((address - self.base) & ~3, 0)
        return BusResult(data=data, cycles=1 + self.waitstates)

    def ahb_write(self, address, value, size):
        self.words[(address - self.base) & ~3] = value
        return BusResult(cycles=1 + self.waitstates)

    def ahb_read_burst(self, address, nwords):
        self.burst_calls += 1
        return super().ahb_read_burst(address, nwords)


@pytest.fixture
def bus():
    bus = AhbBus()
    bus.attach(RamSlave("ram0", 0x40000000, 0x1000))
    bus.attach(RamSlave("ram1", 0x50000000, 0x1000, waitstates=3))
    return bus


def test_decode_routes_by_address(bus):
    assert bus.decode(0x40000010).name == "ram0"
    assert bus.decode(0x50000FFC).name == "ram1"
    assert bus.decode(0x60000000) is None


def test_read_write_roundtrip(bus):
    bus.write(0x40000020, 0xCAFE, TransferSize.WORD)
    assert bus.read(0x40000020).data == 0xCAFE


def test_unmapped_address_error_response(bus):
    assert bus.read(0x00000000).error
    assert bus.write(0x99999999, 0).error


def test_waitstates_reflected_in_cycles(bus):
    assert bus.read(0x40000000).cycles == 1
    assert bus.read(0x50000000).cycles == 4


def test_burst_dispatches_to_slave(bus):
    slave = bus.decode(0x40000000)
    results = bus.read_burst(0x40000000, 4)
    assert len(results) == 4
    assert slave.burst_calls == 1


def test_burst_to_unmapped_is_all_errors(bus):
    results = bus.read_burst(0x70000000, 4)
    assert all(result.error for result in results)


def test_overlapping_slaves_rejected(bus):
    with pytest.raises(ConfigurationError):
        bus.attach(RamSlave("clash", 0x40000800, 0x1000))


def test_master_accounting(bus):
    master = bus.add_master("cpu", priority=1)
    bus.read(0x50000000, TransferSize.WORD, master)
    assert master.granted_cycles == 4
    assert bus.transfers == 1
    assert bus.busy_cycles == 4


def test_slave_covers():
    slave = RamSlave("r", 0x1000, 0x100)
    assert slave.covers(0x1000)
    assert slave.covers(0x10FF)
    assert not slave.covers(0x1100)


def test_zero_size_slave_rejected():
    with pytest.raises(ConfigurationError):
        RamSlave("bad", 0, 0)
