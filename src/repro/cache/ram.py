"""Cache RAM arrays: bit-level word storage with parity check bits.

These model the technology-specific single-port RAM mega-cells of section
4.3.  Each entry stores the raw data word *and* its parity bits exactly as
written; fault injection flips stored bits and the parity check discovers
them on the next access.  The check is performed in parallel with tag
comparison in hardware, so it costs no cycles in the timing model.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from repro.errors import ConfigurationError, InjectionError, StateError
from repro.ft.protection import Codec, ErrorKind, ProtectionScheme, make_codec


class CacheRam:
    """One RAM block (a tag array or a data array) of 32-bit words."""

    def __init__(self, name: str, words: int,
                 scheme: ProtectionScheme = ProtectionScheme.NONE) -> None:
        if words <= 0:
            raise ConfigurationError(f"cache RAM {name!r} needs at least one word")
        if scheme is ProtectionScheme.BCH:
            raise ConfigurationError("cache RAMs use parity, not BCH")
        self.name = name
        self.words = words
        self.scheme = scheme
        self.codec: Codec = make_codec(scheme)  # state: wiring -- stateless coder, derived from scheme
        self._data: List[int] = [0] * words
        self._check: List[int] = [0] * words
        #: Indices whose stored check bits may disagree with the data.
        #: Writes generate matching parity, so only fault injection can
        #: create a mismatch; reads of non-suspect words skip the
        #: re-encode-and-compare entirely (the hot fetch path).
        self._suspect: Set[int] = set()

    @property
    def bits_per_word(self) -> int:
        return 32 + self.scheme.check_bits

    @property
    def total_bits(self) -> int:
        return self.words * self.bits_per_word

    def write(self, index: int, value: int) -> None:
        """Store a word, generating its parity bits (simultaneously, as in
        hardware -- the parity always matches the written data)."""
        value &= 0xFFFFFFFF
        self._data[index] = value
        self._check[index] = self.codec.encode(value)
        if self._suspect:
            self._suspect.discard(index)

    def read(self, index: int) -> Tuple[int, ErrorKind]:
        """Read a word, checking parity.  Returns the stored data and the
        error classification; parity cannot correct, so callers treat any
        non-NONE kind as 'force a miss'."""
        data = self._data[index]
        if index not in self._suspect:
            return data, ErrorKind.NONE
        # Parity checking is re-encode-and-compare; no allocation needed.
        if self.codec.encode(data) == self._check[index]:
            return data, ErrorKind.NONE
        return data, ErrorKind.DETECTED

    def read_raw(self, index: int) -> Tuple[int, int]:
        return self._data[index], self._check[index]

    # -- state capture ----------------------------------------------------------

    def capture(self) -> dict:
        """Bit-exact stored state (data, check bits, suspect indices)."""
        return {
            "data": tuple(self._data),
            "check": tuple(self._check),
            "suspect": tuple(sorted(self._suspect)),
        }

    def restore(self, state: dict) -> None:
        data, check = state["data"], state["check"]
        if len(data) != self.words or len(check) != self.words:
            raise StateError(
                f"{self.name}: snapshot has {len(data)} words, RAM has {self.words}")
        self._data = list(data)
        self._check = list(check)
        self._suspect = set(state["suspect"])

    # -- fault injection --------------------------------------------------------

    def inject(self, index: int, bit: int) -> None:
        """Flip one stored bit: 0..31 data, 32.. check bits."""
        if not 0 <= index < self.words:
            raise InjectionError(f"index {index} outside {self.name}")
        if 0 <= bit < 32:
            self._data[index] ^= 1 << bit
        elif 32 <= bit < self.bits_per_word:
            self._check[index] ^= 1 << (bit - 32)
        else:
            raise InjectionError(f"bit {bit} out of range for {self.name}")
        self._suspect.add(index)

    def inject_flat(self, flat_bit: int) -> Tuple[int, int]:
        """Flip the ``flat_bit``-th stored bit; returns (index, bit).

        The physical RAM is treated as a matrix with one word per row, so
        consecutive flat bits are *adjacent cells in the same word* -- the
        geometry that makes multiple-bit upsets dangerous (section 4.3).
        """
        if not 0 <= flat_bit < self.total_bits:
            raise InjectionError(f"flat bit {flat_bit} outside {self.name}")
        index, bit = divmod(flat_bit, self.bits_per_word)
        self.inject(index, bit)
        return index, bit

    def peek_flat(self, flat_bit: int) -> int:
        """The stored bit :meth:`inject_flat` would flip."""
        index, bit = divmod(flat_bit, self.bits_per_word)
        return ((self._check[index] << 32 | self._data[index]) >> bit) & 1

    def word_of(self, flat_bit: int) -> int:
        """The word a flat bit lands in: the index a parity error names."""
        return flat_bit // self.bits_per_word

    def is_latent(self, word: int) -> bool:
        """Is an undetected upset in *word* still resident (suspect)?"""
        return word in self._suspect
