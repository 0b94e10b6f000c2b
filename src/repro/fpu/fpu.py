"""The floating-point unit: 32 f-registers and the SPARC V8 FP operations.

Arithmetic is delegated to the host's IEEE-754 hardware through ``struct``
packing, with explicit rounding of single-precision results through a
float32 round-trip.  Exception *flags* (divide-by-zero, invalid, overflow)
are detected and accrued in the FSR; traps stay disabled (TEM = 0) unless a
test enables them.

The f-register file is physically part of the processor register file RAM
(Table 1 counts "136x32" for the FPU-less device; with an FPU the same
protection scheme extends over the f-registers), so the f-registers here
carry the same check-bit machinery via the integer register file's codec
when fault injection targets them.
"""

from __future__ import annotations

import math
import struct
from typing import List, Tuple

from repro.errors import InjectionError, StateError, UncorrectableError
from repro.fpu.fsr import (
    EXC_DIVZERO,
    EXC_INVALID,
    EXC_OVERFLOW,
    EXC_UNDERFLOW,
    Fcc,
    Fsr,
)
from repro.ft.protection import Codec, ErrorKind, ProtectionScheme, make_codec
from repro.ft.tmr import FlipFlopBank
from repro.sparc.isa import Opf

#: Cycles charged when an f-register operand is corrected (the same
#: pipeline-restart mechanism as integer operands, section 4.4).
FP_RESTART_CYCLES = 4

#: Execution cycles per operation (model parameters; LEON's Meiko-style FPU).
FPU_TIMING = {
    Opf.FMOVS: 1, Opf.FNEGS: 1, Opf.FABSS: 1,
    Opf.FADDS: 4, Opf.FADDD: 4, Opf.FSUBS: 4, Opf.FSUBD: 4,
    Opf.FMULS: 5, Opf.FMULD: 7, Opf.FDIVS: 20, Opf.FDIVD: 35,
    Opf.FSQRTS: 25, Opf.FSQRTD: 45,
    Opf.FITOS: 4, Opf.FITOD: 4, Opf.FSTOI: 4, Opf.FDTOI: 4,
    Opf.FSTOD: 2, Opf.FDTOS: 4,
    Opf.FCMPS: 2, Opf.FCMPD: 2, Opf.FCMPES: 2, Opf.FCMPED: 2,
}

def _bits_to_f32(bits: int) -> float:
    return struct.unpack(">f", struct.pack(">I", bits & 0xFFFFFFFF))[0]


def _f32_to_bits(value: float) -> Tuple[int, int]:
    """Round to single precision; returns (bits, exception flags)."""
    flags = 0
    try:
        packed = struct.pack(">f", value)
    except (OverflowError, ValueError):
        packed = struct.pack(">f", math.copysign(math.inf, value))
        flags |= EXC_OVERFLOW
    result = struct.unpack(">I", packed)[0]
    unpacked = struct.unpack(">f", packed)[0]
    if math.isinf(unpacked) and math.isfinite(value):
        flags |= EXC_OVERFLOW
    if unpacked == 0.0 and value != 0.0 and math.isfinite(value):
        flags |= EXC_UNDERFLOW
    return result, flags


def _bits_to_f64(high: int, low: int) -> float:
    raw = ((high & 0xFFFFFFFF) << 32) | (low & 0xFFFFFFFF)
    return struct.unpack(">d", raw.to_bytes(8, "big"))[0]


def _f64_to_bits(value: float) -> Tuple[int, int, int]:
    raw = struct.unpack(">Q", struct.pack(">d", value))[0]
    return (raw >> 32) & 0xFFFFFFFF, raw & 0xFFFFFFFF, 0


class Fpu:
    """The FPU: f-registers, FSR, and the FPop executor.

    The 32 f-registers are physically part of the processor register file
    RAM ("136 32-bit integer registers and 32 32-bit floating-point
    registers", section 4.4), so they carry the same protection scheme:
    check bits are generated on write and verified on every read.  A
    correctable error is repaired in place (counted through
    ``on_corrected``, the RFE counter) and charged the 4-cycle restart; an
    uncorrectable error raises :class:`UncorrectableError`, which the
    integer unit converts into the register-error trap.
    """

    def __init__(self, ffbank: FlipFlopBank,
                 protection: ProtectionScheme = ProtectionScheme.NONE,
                 on_corrected=None) -> None:
        self.fsr = Fsr(ffbank)  # state: wiring -- FSR bits live in the ffbank
        self.protection = protection
        self.codec: Codec = make_codec(protection)  # state: wiring -- stateless coder, derived from protection
        self.on_corrected = on_corrected or (lambda: None)
        self._regs: List[int] = [0] * 32
        self._checks: List[int] = [0] * 32
        #: Restart cycles accrued by corrections during the current op.
        self._restart_cycles = 0
        self._protected = protection is not ProtectionScheme.NONE

    # -- register access (word granularity, used by LDF/STF and injection) --------

    def read_reg(self, index: int) -> int:
        """Checked read: corrects single errors, raises on double errors."""
        index &= 0x1F
        data = self._regs[index]
        if not self._protected:
            return data
        if self.codec.encode(data) == self._checks[index]:
            return data
        result = self.codec.check(data, self._checks[index])
        if result.kind is ErrorKind.CORRECTABLE:
            self._regs[index] = result.data
            self._checks[index] = self.codec.encode(result.data)
            self._restart_cycles += FP_RESTART_CYCLES
            self.on_corrected()
            return result.data
        raise UncorrectableError(f"uncorrectable error in %f{index}")

    def write_reg(self, index: int, value: int) -> None:
        index &= 0x1F
        value &= 0xFFFFFFFF
        self._regs[index] = value
        self._checks[index] = self.codec.encode(value)

    def take_restart_cycles(self) -> int:
        """Restart cycles accrued since the last call (read by the IU)."""
        cycles, self._restart_cycles = self._restart_cycles, 0
        return cycles

    # -- state capture ----------------------------------------------------------

    def capture(self) -> dict:
        """Bit-exact f-register state (the FSR lives in the flip-flop bank)."""
        return {
            "regs": tuple(self._regs),
            "checks": tuple(self._checks),
            "restart_cycles": self._restart_cycles,
        }

    def restore(self, state: dict) -> None:
        regs, checks = state["regs"], state["checks"]
        if len(regs) != 32 or len(checks) != 32:
            raise StateError("FPU snapshot must hold 32 f-registers")
        self._regs = list(regs)
        self._checks = list(checks)
        self._restart_cycles = int(state["restart_cycles"])

    @property
    def bits_per_word(self) -> int:
        return 32 + self.protection.check_bits

    @property
    def total_bits(self) -> int:
        return 32 * self.bits_per_word

    def inject(self, index: int, bit: int) -> None:
        """Flip one stored bit of an f-register (0..31 data, then check)."""
        if 0 <= bit < 32:
            self._regs[index & 0x1F] ^= 1 << bit
        elif 32 <= bit < self.bits_per_word:
            self._checks[index & 0x1F] ^= 1 << (bit - 32)
        else:
            raise InjectionError(f"bit {bit} out of range for f-register")

    def inject_flat(self, flat_bit: int) -> Tuple[int, int]:
        """Flip the ``flat_bit``-th stored bit; returns (index, bit)."""
        if not 0 <= flat_bit < self.total_bits:
            raise InjectionError("flat bit outside the f-registers")
        index, bit = divmod(flat_bit, self.bits_per_word)
        self.inject(index, bit)
        return index, bit

    def peek_flat(self, flat_bit: int) -> int:
        """The stored bit :meth:`inject_flat` would flip."""
        index, bit = divmod(flat_bit, self.bits_per_word)
        return ((self._checks[index] << 32 | self._regs[index]) >> bit) & 1

    def word_of(self, flat_bit: int) -> int:
        """The f-register a flat bit lands in."""
        return flat_bit // self.bits_per_word

    def is_latent(self, word: int) -> bool:
        """Is an undetected upset in f-register *word* still resident?
        The f-registers keep no suspect set: the stored check bits are
        compared with the data's."""
        return self.codec.encode(self._regs[word]) != self._checks[word]

    # -- typed views ------------------------------------------------------------------

    def _read_single(self, index: int) -> float:
        return _bits_to_f32(self.read_reg(index))

    def _write_single(self, index: int, value: float) -> int:
        bits, flags = _f32_to_bits(value)
        self.write_reg(index, bits)
        return flags

    def _read_double(self, index: int) -> float:
        index &= 0x1E  # doubles live in even/odd pairs
        return _bits_to_f64(self.read_reg(index), self.read_reg(index + 1))

    def _write_double(self, index: int, value: float) -> int:
        index &= 0x1E
        high, low, flags = _f64_to_bits(value)
        self.write_reg(index, high)
        self.write_reg(index + 1, low)
        return flags

    # -- the FPop executor --------------------------------------------------------------

    def execute(self, opf: int, rs1: int, rs2: int, rd: int) -> int:
        """Execute one FPop; returns the cycle count (including any
        restart cycles spent correcting f-register operands).

        Exception flags are accrued in the FSR (TEM = 0 model: no traps).
        Raises :class:`UncorrectableError` on a double-bit operand error.
        """
        opf = Opf(opf)
        handler = _HANDLERS[opf]
        flags = handler(self, rs1, rs2, rd)
        if flags:
            self.fsr.accrue(flags)
        return FPU_TIMING[opf] + self.take_restart_cycles()


def _binary_single(op):
    def handler(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
        a, b = fpu._read_single(rs1), fpu._read_single(rs2)
        value, flags = _apply(op, a, b)
        return flags | fpu._write_single(rd, value)

    return handler


def _binary_double(op):
    def handler(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
        a, b = fpu._read_double(rs1), fpu._read_double(rs2)
        value, flags = _apply(op, a, b)
        return flags | fpu._write_double(rd, value)

    return handler


def _apply(op, a: float, b: float) -> Tuple[float, int]:
    flags = 0
    try:
        value = op(a, b)
    except ZeroDivisionError:
        if a == 0.0 or math.isnan(a):
            return math.nan, EXC_INVALID
        return math.copysign(math.inf, a) * math.copysign(1.0, b), EXC_DIVZERO
    except (OverflowError, ValueError):
        return math.inf, EXC_OVERFLOW
    if math.isnan(value) and not (math.isnan(a) or math.isnan(b)):
        flags |= EXC_INVALID
    return value, flags


def _mov(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    fpu.write_reg(rd, fpu.read_reg(rs2))
    return 0


def _neg(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    fpu.write_reg(rd, fpu.read_reg(rs2) ^ 0x80000000)
    return 0


def _abs(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    fpu.write_reg(rd, fpu.read_reg(rs2) & 0x7FFFFFFF)
    return 0


def _sqrt_single(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    a = fpu._read_single(rs2)
    if a < 0:
        return EXC_INVALID | fpu._write_single(rd, math.nan)
    return fpu._write_single(rd, math.sqrt(a))


def _sqrt_double(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    a = fpu._read_double(rs2)
    if a < 0:
        return EXC_INVALID | fpu._write_double(rd, math.nan)
    return fpu._write_double(rd, math.sqrt(a))


def _itos(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    raw = fpu.read_reg(rs2)
    if raw & 0x80000000:
        raw -= 1 << 32
    return fpu._write_single(rd, float(raw))


def _itod(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    raw = fpu.read_reg(rs2)
    if raw & 0x80000000:
        raw -= 1 << 32
    return fpu._write_double(rd, float(raw))


def _to_int(value: float) -> Tuple[int, int]:
    if math.isnan(value):
        return 0, EXC_INVALID
    if value >= 2**31:
        return 0x7FFFFFFF, EXC_INVALID
    if value <= -(2**31) - 1:
        return 0x80000000, EXC_INVALID
    return int(value) & 0xFFFFFFFF, 0


def _stoi(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    bits, flags = _to_int(fpu._read_single(rs2))
    fpu.write_reg(rd, bits)
    return flags


def _dtoi(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    bits, flags = _to_int(fpu._read_double(rs2))
    fpu.write_reg(rd, bits)
    return flags


def _stod(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return fpu._write_double(rd, fpu._read_single(rs2))


def _dtos(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return fpu._write_single(rd, fpu._read_double(rs2))


def _compare(fpu: Fpu, a: float, b: float, signal_unordered: bool) -> int:
    if math.isnan(a) or math.isnan(b):
        fpu.fsr.fcc = Fcc.UNORDERED
        return EXC_INVALID if signal_unordered else 0
    if a == b:
        fpu.fsr.fcc = Fcc.EQUAL
    elif a < b:
        fpu.fsr.fcc = Fcc.LESS
    else:
        fpu.fsr.fcc = Fcc.GREATER
    return 0


def _cmps(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return _compare(fpu, fpu._read_single(rs1), fpu._read_single(rs2), False)


def _cmpd(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return _compare(fpu, fpu._read_double(rs1), fpu._read_double(rs2), False)


def _cmpes(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return _compare(fpu, fpu._read_single(rs1), fpu._read_single(rs2), True)


def _cmped(fpu: Fpu, rs1: int, rs2: int, rd: int) -> int:
    return _compare(fpu, fpu._read_double(rs1), fpu._read_double(rs2), True)


_HANDLERS = {
    Opf.FMOVS: _mov,
    Opf.FNEGS: _neg,
    Opf.FABSS: _abs,
    Opf.FSQRTS: _sqrt_single,
    Opf.FSQRTD: _sqrt_double,
    Opf.FADDS: _binary_single(lambda a, b: a + b),
    Opf.FADDD: _binary_double(lambda a, b: a + b),
    Opf.FSUBS: _binary_single(lambda a, b: a - b),
    Opf.FSUBD: _binary_double(lambda a, b: a - b),
    Opf.FMULS: _binary_single(lambda a, b: a * b),
    Opf.FMULD: _binary_double(lambda a, b: a * b),
    Opf.FDIVS: _binary_single(lambda a, b: a / b),
    Opf.FDIVD: _binary_double(lambda a, b: a / b),
    Opf.FITOS: _itos,
    Opf.FITOD: _itod,
    Opf.FSTOI: _stoi,
    Opf.FDTOI: _dtoi,
    Opf.FSTOD: _stod,
    Opf.FDTOS: _dtos,
    Opf.FCMPS: _cmps,
    Opf.FCMPD: _cmpd,
    Opf.FCMPES: _cmpes,
    Opf.FCMPED: _cmped,
}
