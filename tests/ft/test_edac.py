"""The EDAC over external memory words (section 4.6): a memory bank
checking each word it reads with the shared (32,7) BCH codec."""

from hypothesis import given
from hypothesis import strategies as st

from repro.amba.ahb import TransferSize
from repro.ft.bch import bch_encode
from repro.mem.memctrl import MemoryBank
from repro.mem.storage import ExternalMemory

WORDS = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _read(data, check):
    """One word read through an EDAC bank holding the raw (data, check)
    pair, and the pair the bank leaves stored."""
    memory = ExternalMemory("sram", 16, edac=True)
    memory.write_raw(0, data, check)
    bank = MemoryBank("sram", 0x40000000, memory, waitstates=0)
    return bank.ahb_read(0x40000000, TransferSize.WORD), memory.read_raw(0)


@given(WORDS)
def test_clean_read(word):
    result, _stored = _read(word, bch_encode(word))
    assert not result.error
    assert result.data == word
    assert result.corrected == 0


@given(WORDS, st.integers(min_value=0, max_value=31))
def test_single_data_error_corrected(word, bit):
    result, stored = _read(word ^ (1 << bit), bch_encode(word))
    assert result.data == word
    assert result.corrected == 1
    assert stored == (word, bch_encode(word))  # scrubbed back


@given(WORDS, st.integers(min_value=0, max_value=6))
def test_single_check_bit_error_corrected(word, bit):
    result, stored = _read(word, bch_encode(word) ^ (1 << bit))
    assert result.data == word
    assert result.corrected == 1
    assert stored == (word, bch_encode(word))


@given(WORDS, st.integers(min_value=0, max_value=31),
       st.integers(min_value=0, max_value=31))
def test_double_error_uncorrectable(word, bit_a, bit_b):
    if bit_a == bit_b:
        return
    corrupted = word ^ (1 << bit_a) ^ (1 << bit_b)
    result, stored = _read(corrupted, bch_encode(word))
    assert result.error
    assert result.corrected == 0
    assert stored == (corrupted, bch_encode(word))  # never mis-corrected
