"""The windowed, SEU-protected register file (paper section 4.4).

The SPARC architecture uses windows of 32 registers (16 overlapping); with 8
windows that is 8 x 16 + 8 globals = 136 words of 32 bits, the "136x32" of
Table 1.  Each word can be protected with one parity bit, two parity bits or
a (32,7) BCH checksum.  Check bits are generated in the write stage and
stored with the data; reads return the *raw* stored word, and the check is
performed in the execute stage so it costs nothing in the decode stage.

Two physical implementations are modelled:

* a true three-port RAM (``duplicated=False``): BCH corrects errors itself;
  parity can only detect, so with parity every detected error is
  uncorrectable (register error trap);
* two parallel two-port RAMs with write ports tied together
  (``duplicated=True``): the cheap parity code becomes *correcting*, because
  a word that fails parity in one RAM is repaired by copying from the other
  -- if the second copy also fails, the error is uncorrectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import ConfigurationError, InjectionError, StateError
from repro.ft.protection import Codec, ErrorKind, ProtectionScheme, make_codec


@dataclass(frozen=True)
class RegfileCheck:
    """Outcome of the execute-stage check of one operand read."""

    kind: ErrorKind  # NONE / CORRECTABLE / DETECTED(=uncorrectable)
    physical: int  # physical register index (for the correction pass)
    data: int  # corrected data when CORRECTABLE, raw data otherwise


class RegisterFile:
    """The windowed integer register file with configurable protection."""

    def __init__(self, nwindows: int = 8,
                 protection: ProtectionScheme = ProtectionScheme.NONE,
                 *, duplicated: bool = False) -> None:
        if duplicated and protection not in (ProtectionScheme.PARITY,
                                             ProtectionScheme.DUAL_PARITY):
            raise ConfigurationError("duplicated register file requires parity")
        self.nwindows = nwindows
        self.protection = protection
        self.duplicated = duplicated
        self.codec: Codec = make_codec(protection)  # state: wiring -- stateless coder, derived from protection
        self.words = nwindows * 16 + 8
        self._copies = 2 if duplicated else 1
        self._data: List[List[int]] = [[0] * self.words for _ in range(self._copies)]
        self._check: List[List[int]] = [[0] * self.words for _ in range(self._copies)]
        #: Physical words whose stored check bits may disagree with the
        #: data (in any copy).  Writes always generate matching check bits,
        #: so only fault injection can create a mismatch; the per-operand
        #: execute-stage check skips the re-encode for clean words.
        self._suspect: set = set()

    # -- window mapping -----------------------------------------------------------

    def physical_index(self, cwp: int, reg: int) -> int:
        """Map (window, architectural register 0..31) to a physical word.

        Globals are physical 0..7.  Window registers overlap: the outs of
        window ``w`` are the ins of window ``w - 1``.
        """
        if not 0 <= reg <= 31:
            raise InjectionError(f"register {reg} out of range")
        if reg < 8:
            return reg
        return 8 + ((cwp * 16) + (reg - 8)) % (self.nwindows * 16)

    # -- architectural access ---------------------------------------------------------

    def read_raw(self, cwp: int, reg: int) -> Tuple[int, int, int]:
        """Decode-stage read: raw (data, check, physical index), no checking.

        ``%g0`` reads as zero and is never checked (it is not a real RAM
        word on the read path).
        """
        if reg == 0:
            return 0, 0, 0
        physical = self.physical_index(cwp, reg)
        return self._data[0][physical], self._check[0][physical], physical

    def operand_ok(self, cwp: int, reg: int) -> bool:
        """Fast execute-stage check: True when the stored check bits match.

        The pipeline calls this on every source operand of every
        instruction; the full :meth:`check_operand` classification only runs
        when this returns False.
        """
        if reg == 0:
            return True
        if reg < 8:
            physical = reg
        else:
            physical = 8 + ((cwp * 16) + (reg - 8)) % (self.nwindows * 16)
        if physical not in self._suspect:
            return True
        data = self._data[0]
        check = self._check[0]
        if self.codec.encode(data[physical]) != check[physical]:
            return False
        if self.duplicated:
            return self.codec.encode(self._data[1][physical]) == self._check[1][physical]
        return True

    def check_operand(self, cwp: int, reg: int) -> RegfileCheck:
        """Execute-stage check of one source operand.

        Classification follows section 4.4:

        * BCH: single error CORRECTABLE, double DETECTED;
        * parity + duplicated RAMs: any detected error is CORRECTABLE (the
          copy repairs it) -- unless the copy is also bad, then DETECTED;
        * parity + three-port RAM: any detected error is DETECTED
          (uncorrectable, register error trap).
        """
        if reg == 0:
            return RegfileCheck(ErrorKind.NONE, 0, 0)
        physical = self.physical_index(cwp, reg)
        data = self._data[0][physical]
        result = self.codec.check(data, self._check[0][physical])
        if result.kind is ErrorKind.NONE:
            if self.duplicated:
                # Both RAMs are read (and checked) in parallel; an error in
                # the second copy is corrected by copying from the first.
                copy = self.codec.check(self._data[1][physical],
                                        self._check[1][physical])
                if copy.kind is not ErrorKind.NONE:
                    return RegfileCheck(ErrorKind.CORRECTABLE, physical, data)
            return RegfileCheck(ErrorKind.NONE, physical, data)
        if result.kind is ErrorKind.CORRECTABLE:  # BCH located the bit
            return RegfileCheck(ErrorKind.CORRECTABLE, physical, result.data)
        if self.duplicated:
            copy = self.codec.check(self._data[1][physical], self._check[1][physical])
            if copy.kind is ErrorKind.NONE:
                return RegfileCheck(ErrorKind.CORRECTABLE, physical,
                                    self._data[1][physical])
            return RegfileCheck(ErrorKind.DETECTED, physical, data)
        return RegfileCheck(ErrorKind.DETECTED, physical, data)

    def correct(self, check: RegfileCheck) -> None:
        """Write the corrected value back (the pipeline-restart repair).

        "The erroneous operand data is corrected and written back to the
        register file (instead of the erroneous instruction result)."
        """
        if check.kind is not ErrorKind.CORRECTABLE:
            raise InjectionError("correct() called without a correctable error")
        self._store(check.physical, check.data)

    def write(self, cwp: int, reg: int, value: int) -> None:
        """Write-back-stage write; check bits generated simultaneously."""
        if reg == 0:
            return  # writes to %g0 are discarded
        self._store(self.physical_index(cwp, reg), value & 0xFFFFFFFF)

    def _store(self, physical: int, value: int) -> None:
        check = self.codec.encode(value)
        for copy in range(self._copies):
            self._data[copy][physical] = value
            self._check[copy][physical] = check
        if self._suspect:
            self._suspect.discard(physical)

    # -- state capture -------------------------------------------------------------------

    def capture(self) -> dict:
        """Bit-exact stored state across all physical copies."""
        return {
            "data": tuple(tuple(copy) for copy in self._data),
            "check": tuple(tuple(copy) for copy in self._check),
            "suspect": tuple(sorted(self._suspect)),
        }

    def restore(self, state: dict) -> None:
        data, check = state["data"], state["check"]
        if len(data) != self._copies or any(len(c) != self.words for c in data):
            raise StateError("register-file snapshot geometry mismatch")
        self._data = [list(copy) for copy in data]
        self._check = [list(copy) for copy in check]
        self._suspect = set(state["suspect"])

    # -- fault injection -----------------------------------------------------------------

    @property
    def bits_per_word(self) -> int:
        return 32 + self.protection.check_bits

    @property
    def total_bits(self) -> int:
        """Stored bits across all copies (the beam sees the physical RAM)."""
        return self.words * self.bits_per_word * self._copies

    def inject(self, physical: int, bit: int, copy: int = 0) -> None:
        """Flip one stored bit of one physical word (data 0..31, then check)."""
        if not 0 <= physical < self.words:
            raise InjectionError(f"physical register {physical} out of range")
        if not 0 <= copy < self._copies:
            raise InjectionError(f"register file copy {copy} out of range")
        if 0 <= bit < 32:
            self._data[copy][physical] ^= 1 << bit
        elif 32 <= bit < self.bits_per_word:
            self._check[copy][physical] ^= 1 << (bit - 32)
        else:
            raise InjectionError(f"bit {bit} out of range")
        self._suspect.add(physical)

    def inject_flat(self, flat_bit: int) -> Tuple[int, int, int]:
        """Flip the ``flat_bit``-th stored bit; returns (copy, physical, bit)."""
        if not 0 <= flat_bit < self.total_bits:
            raise InjectionError("flat bit outside register file")
        per_copy = self.words * self.bits_per_word
        copy, rest = divmod(flat_bit, per_copy)
        physical, bit = divmod(rest, self.bits_per_word)
        self.inject(physical, bit, copy)
        return copy, physical, bit

    def peek_flat(self, flat_bit: int) -> int:
        """The stored bit :meth:`inject_flat` would flip."""
        copy, rest = divmod(flat_bit, self.words * self.bits_per_word)
        physical, bit = divmod(rest, self.bits_per_word)
        stored = self._check[copy][physical] << 32 | self._data[copy][physical]
        return (stored >> bit) & 1

    def word_of(self, flat_bit: int) -> int:
        """The physical word a flat bit lands in: the index the execute
        stage's check names, the same for both copies of a duplicated
        file."""
        per_copy = self.words * self.bits_per_word
        return (flat_bit % per_copy) // self.bits_per_word

    def is_latent(self, word: int) -> bool:
        """Is an undetected upset in physical *word* still resident?"""
        return word in self._suspect

    # -- diagnostics ------------------------------------------------------------------------

    def scrub_all(self) -> Tuple[int, int]:
        """Check-and-correct every word (models the task-switch stack writes
        of section 4.8 that flush latent errors).  Returns (corrected,
        uncorrectable) counts."""
        corrected = uncorrectable = 0
        for physical in range(self.words):
            data = self._data[0][physical]
            result = self.codec.check(data, self._check[0][physical])
            if result.kind is ErrorKind.NONE:
                if self.duplicated:
                    copy = self.codec.check(self._data[1][physical],
                                            self._check[1][physical])
                    if copy.kind is not ErrorKind.NONE:
                        self._store(physical, data)
                        corrected += 1
                continue
            if result.kind is ErrorKind.CORRECTABLE:
                self._store(physical, result.data)
                corrected += 1
            elif self.duplicated:
                copy = self.codec.check(self._data[1][physical],
                                        self._check[1][physical])
                if copy.kind is ErrorKind.NONE:
                    self._store(physical, self._data[1][physical])
                    corrected += 1
                else:
                    uncorrectable += 1
            else:
                uncorrectable += 1
        return corrected, uncorrectable

    def window_view(self, cwp: int) -> List[int]:
        """The 32 architectural registers visible in window ``cwp``."""
        view = []
        for reg in range(32):
            data, _check, _physical = self.read_raw(cwp, reg)
            view.append(data)
        return view
