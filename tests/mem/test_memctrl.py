"""External memory storage and the EDAC memory controller."""

import pytest

from repro.amba.ahb import TransferSize
from repro.core.config import MemoryConfig
from repro.errors import InjectionError
from repro.ft.bch import bch_encode
from repro.mem.memctrl import MemoryController
from repro.mem.storage import ExternalMemory


class TestExternalMemory:
    def test_word_roundtrip_with_edac(self):
        memory = ExternalMemory("m", 1024, edac=True)
        memory.write_word(0x10, 0xA5A5A5A5)
        data, check = memory.read_raw(0x10)
        assert data == 0xA5A5A5A5
        assert check != 0

    def test_image_loading_big_endian(self):
        memory = ExternalMemory("m", 64)
        memory.load_image(0, bytes([0x11, 0x22, 0x33, 0x44, 0xAA]))
        assert memory.read_raw(0)[0] == 0x11223344
        assert memory.read_raw(4)[0] == 0xAA000000  # padded

    def test_injection_data_and_check_bits(self):
        memory = ExternalMemory("m", 64, edac=True)
        memory.write_word(0, 0)
        memory.inject(0, 5)
        assert memory.read_raw(0)[0] == 1 << 5
        memory.inject(0, 34)  # check bit 2
        assert memory.read_raw(0)[1] & (1 << 2)

    def test_injection_bounds(self):
        memory = ExternalMemory("m", 64, edac=True)
        with pytest.raises(InjectionError):
            memory.inject(0, 39)
        with pytest.raises(InjectionError):
            memory.inject(2, 0)  # misaligned
        with pytest.raises(InjectionError):
            memory.inject(64, 0)  # out of range

    def test_total_bits_counts_check_plane(self):
        plain = ExternalMemory("m", 64, edac=False)
        protected = ExternalMemory("m", 64, edac=True)
        assert plain.total_bits == 16 * 32
        assert protected.total_bits == 16 * 39


@pytest.fixture
def controller():
    return MemoryController(MemoryConfig(edac=True, prom_bytes=4096,
                                         sram_bytes=4096, io_bytes=4096))


class TestMemoryBank:
    def test_word_access(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000010, 0x12345678, TransferSize.WORD)
        assert sram.ahb_read(0x40000010, TransferSize.WORD).data == 0x12345678

    def test_subword_reads(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000000, 0x11223344, TransferSize.WORD)
        assert sram.ahb_read(0x40000000, TransferSize.BYTE).data == 0x11
        assert sram.ahb_read(0x40000003, TransferSize.BYTE).data == 0x44
        assert sram.ahb_read(0x40000002, TransferSize.HALFWORD).data == 0x3344

    def test_subword_write_rmw_keeps_edac_consistent(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000000, 0x11223344, TransferSize.WORD)
        sram.ahb_write(0x40000001, 0xAB, TransferSize.BYTE)
        result = sram.ahb_read(0x40000000, TransferSize.WORD)
        assert result.data == 0x11AB3344
        assert not result.error
        # EDAC check bits were regenerated: no false error.
        data, check = controller.sram_memory.read_raw(0)
        assert check == bch_encode(data)

    def test_single_error_corrected_and_scrubbed(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000000, 0xFEEDF00D, TransferSize.WORD)
        controller.sram_memory.inject(0, 7)
        first = sram.ahb_read(0x40000000, TransferSize.WORD)
        assert first.data == 0xFEEDF00D
        assert first.corrected == 1
        # Scrubbed on read: a second read is clean.
        second = sram.ahb_read(0x40000000, TransferSize.WORD)
        assert second.corrected == 0

    def test_double_error_returns_bus_error(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000000, 1, TransferSize.WORD)
        controller.sram_memory.inject(0, 0)
        controller.sram_memory.inject(0, 9)
        assert sram.ahb_read(0x40000000, TransferSize.WORD).error

    def test_subword_write_to_poisoned_word_errors(self, controller):
        sram = controller.sram
        sram.ahb_write(0x40000000, 1, TransferSize.WORD)
        controller.sram_memory.inject(0, 0)
        controller.sram_memory.inject(0, 9)
        assert sram.ahb_write(0x40000000, 0xFF, TransferSize.BYTE).error

    def test_burst_streams_waitstates(self, controller):
        sram = controller.sram
        results = sram.ahb_read_burst(0x40000000, 4)
        assert results[0].cycles == 1 + sram.waitstates
        assert all(result.cycles == 1 for result in results[1:])

    def test_cacheable_ranges(self, controller):
        assert controller.is_cacheable(controller.config.prom_base)
        assert controller.is_cacheable(controller.config.sram_base)
        assert not controller.is_cacheable(controller.config.io_base)
        assert not controller.is_cacheable(0x80000000)

    def test_no_edac_when_disabled(self):
        controller = MemoryController(MemoryConfig(edac=False, prom_bytes=4096,
                                                   sram_bytes=4096, io_bytes=4096))
        sram = controller.sram
        sram.ahb_write(0x40000000, 0, TransferSize.WORD)
        controller.sram_memory.inject(0, 3)
        result = sram.ahb_read(0x40000000, TransferSize.WORD)
        assert result.data == 8  # corruption delivered, undetected
        assert not result.error
