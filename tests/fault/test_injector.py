"""The SEU target registry and deterministic injector."""

import random

import pytest

from repro import LeonConfig, LeonSystem
from repro.amba.ahb import TransferSize
from repro.core.config import FtConfig
from repro.errors import InjectionError, UncorrectableError
from repro.fault.injector import FaultInjector
from repro.ft.protection import ErrorKind, ProtectionScheme


@pytest.fixture
def injector():
    return FaultInjector(LeonSystem(LeonConfig.leon_express()))


def test_targets_cover_section_4_2_groups(injector):
    names = set(injector.targets)
    assert {"icache-tag", "icache-data", "dcache-tag", "dcache-data",
            "regfile", "flipflops", "fpregs"} <= names


def test_bit_populations_match_structures(injector):
    system = injector.system
    assert injector.targets["icache-data"].bits == \
        system.icache.data_ram.total_bits
    assert injector.targets["regfile"].bits == system.regfile.total_bits
    assert injector.targets["flipflops"].bits == system.ffbank.total_bits
    assert injector.targets["fpregs"].bits == 32 * system.fpu.bits_per_word
    assert injector.total_bits == sum(t.bits for t in injector.targets.values())


def test_ram_dominates_bit_population(injector):
    """The paper's geometry: ~10 mm2 of RAM vs ~2500 flip-flops."""
    ram_bits = sum(injector.targets[name].bits
                   for name in ("icache-tag", "icache-data",
                                "dcache-tag", "dcache-data", "regfile"))
    assert ram_bits > 20 * injector.targets["flipflops"].bits


def test_deterministic_injection_lands(injector):
    system = injector.system
    system.regfile.write(0, 1, 0)
    bits_per_word = system.regfile.bits_per_word  # 39 with BCH
    injector.inject("regfile", bits_per_word + 3)  # physical word 1, bit 3
    data, _check, _physical = system.regfile.read_raw(0, 1)
    assert data == 8


def test_injection_bounds(injector):
    with pytest.raises(InjectionError):
        injector.inject("regfile", 10**9)
    with pytest.raises(InjectionError):
        injector.inject("nonexistent", 0)


def test_adjacent_injection_same_word(injector):
    system = injector.system
    ram = system.icache.data_ram
    injector.inject("icache-data", 100)
    injector.inject_adjacent("icache-data", 100)
    index = 100 // ram.bits_per_word
    word = ram.read_raw(index)[0] | (ram.read_raw(index)[1] << 32)
    assert bin(word).count("1") == 2  # both bits in the same word


def test_adjacent_injection_at_row_boundary(injector):
    ram = injector.system.icache.data_ram
    last_bit_of_word0 = ram.bits_per_word - 1
    neighbour = injector.inject_adjacent("icache-data", last_bit_of_word0)
    assert neighbour == last_bit_of_word0 - 1  # stays in the row


def test_external_memory_targets_optional():
    system = LeonSystem(LeonConfig.leon_express())
    without = FaultInjector(system)
    with_mem = FaultInjector(system, include_external_memory=True)
    assert "ext-sram" not in without.targets
    assert "ext-sram" in with_mem.targets


# -- the fault-surface contract ------------------------------------------------

#: Devices whose every target the contract covers: the flight part, the FT
#: and standard Table-1 devices, and a duplicated (two-copy) register file.
DEVICES = {
    "express": LeonConfig.leon_express(),
    "ft": LeonConfig.fault_tolerant(),
    "standard": LeonConfig.standard(),
    "duplicated-regfile": LeonConfig.fault_tolerant(ft=FtConfig(
        tmr_flipflops=True, regfile_protection=ProtectionScheme.DUAL_PARITY,
        regfile_duplicated=True)),
}


def _cache_ram(system, name):
    cache = system.icache if name.startswith("icache") else system.dcache
    return cache.tag_ram if name.endswith("-tag") else cache.data_ram


def _flagged_words(system, name, word):
    """The words the struck array's own check flags, or None for an array
    without a check.  Cache RAMs, the register file and the f-registers
    are scanned whole; external memory, too large to scan, is read
    through its EDAC bank at the located word and its two neighbours."""
    if name.startswith(("icache", "dcache")):
        ram = _cache_ram(system, name)
        if ram.scheme is ProtectionScheme.NONE:
            return None
        return {index for index in range(ram.words)
                if ram.read(index)[1] is not ErrorKind.NONE}
    if name == "regfile":
        regfile = system.regfile
        if regfile.protection is ProtectionScheme.NONE:
            return None
        return {check.physical
                for cwp in range(regfile.nwindows) for reg in range(1, 32)
                for check in [regfile.check_operand(cwp, reg)]
                if check.kind is not ErrorKind.NONE}
    if name == "fpregs":
        fpu = system.fpu
        if fpu.protection is ProtectionScheme.NONE:
            return None
        flagged = set()
        for index in range(32):
            try:
                fpu.read_reg(index)  # corrects in place, charging a restart
            except UncorrectableError:
                flagged.add(index)
            if fpu.take_restart_cycles():
                flagged.add(index)
        return flagged
    if name.startswith("ext-"):
        bank = getattr(system.memctrl, name[len("ext-"):])
        if not bank.memory.edac:
            return None
        flagged = set()
        for index in (word - 1, word, word + 1):
            if 0 <= index < bank.memory.words:
                read = bank.ahb_read(bank.base + 4 * index, TransferSize.WORD)
                if read.corrected or read.error:
                    flagged.add(index)
        return flagged
    return None  # flip-flops: the voter names no word


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_every_target_strikes_peeks_and_locates_alike(device):
    """For sampled flat bits of every target: ``inject_flat`` flips exactly
    the bit ``peek_flat`` reads (its neighbours in the row and the column
    keep their values), and ``locate`` names the word the array's own
    check flags."""
    system = LeonSystem(DEVICES[device])
    injector = FaultInjector(system, include_external_memory=True)
    rng = random.Random(device)
    for name, target in injector.targets.items():
        row = target.bits_per_word or target.bits
        sample = {0, row - 1, target.bits - 1,
                  *(rng.randrange(target.bits) for _ in range(6))}
        for flat_bit in sorted(sample):
            others = [bit for bit in (flat_bit - 1, flat_bit + 1,
                                      flat_bit - row, flat_bit + row)
                      if 0 <= bit < target.bits]
            before = target.peek_flat(flat_bit)
            around = [target.peek_flat(bit) for bit in others]
            injector.inject(name, flat_bit)
            assert target.peek_flat(flat_bit) == 1 - before, (name, flat_bit)
            assert [target.peek_flat(bit) for bit in others] == around, \
                (name, flat_bit)
            word = injector.locate(name, flat_bit)
            flagged = _flagged_words(system, name, word)
            # %g0 reads as zero and is never checked on the read path.
            if flagged is not None and not (name == "regfile" and word == 0):
                assert flagged == {word}, (name, flat_bit)
            if target.peek_flat(flat_bit) != before:  # not corrected
                target.inject_flat(flat_bit)


def _rewrite(system, name, word):
    """Store a fresh value into *word* of the named array, as software
    does."""
    if name == "regfile":
        # Physical word -> (window, register): word 8 + 16w + k is
        # register 8 + k of window w (word 0 is %g0, never written).
        cwp, offset = divmod(word - 8, 16)
        system.regfile.write(cwp, 8 + offset, 0x1234)
    elif name == "fpregs":
        system.fpu.write_reg(word, 0x1234)
    else:
        _cache_ram(system, name).write(word, 0x1234)


@pytest.mark.parametrize("device", sorted(DEVICES))
def test_a_strike_is_latent_until_its_word_is_rewritten(device):
    system = LeonSystem(DEVICES[device])
    injector = FaultInjector(system)
    rng = random.Random(device)
    for name in ("icache-tag", "icache-data", "dcache-tag", "dcache-data",
                 "regfile", "fpregs"):
        if name not in injector.targets:
            continue  # no FPU on this device
        per_word = injector.targets[name].bits_per_word
        # A bit of word 9 (a window register in the register file), and
        # for a duplicated register file the same bit of its second copy.
        flats = [9 * per_word + rng.randrange(per_word)]
        if name == "regfile" and system.regfile.duplicated:
            flats.append(flats[0] + system.regfile.words * per_word)
        for flat in flats:
            word = injector.locate(name, flat)
            assert word == 9
            assert not injector.is_latent(name, word), (name, flat)
            injector.inject(name, flat)
            assert injector.is_latent(name, word), (name, flat)
            _rewrite(system, name, word)
            assert not injector.is_latent(name, word), (name, flat)
