"""Raw external-memory storage: data words plus EDAC check bits.

The storage keeps the *stored* bits, not the logical value: fault injection
flips bits here and the EDAC discovers them on the next read, exactly like
SEUs in a physical SRAM.  Check bits are only maintained when EDAC is
enabled; without EDAC the check plane is unused.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, InjectionError, StateError
from repro.ft.bch import bch_encode


class ExternalMemory:
    """One external memory array (a PROM or SRAM bank).

    Words are stored big-endian with respect to byte addressing, i.e. byte 0
    of a word is its most significant byte (SPARC is big-endian).
    """

    def __init__(self, name: str, size_bytes: int, *, edac: bool = False) -> None:
        if size_bytes <= 0 or size_bytes % 4:
            raise ConfigurationError(f"memory {name!r} size must be a positive word multiple")
        self.name = name
        self.size_bytes = size_bytes
        self.edac = edac
        self._words = np.zeros(size_bytes // 4, dtype=np.uint32)
        self._check = np.zeros(size_bytes // 4, dtype=np.uint8)

    @property
    def words(self) -> int:
        return len(self._words)

    @property
    def bits_per_word(self) -> int:
        """Stored bits per word: the check plane counts only with EDAC."""
        return 39 if self.edac else 32

    @property
    def total_bits(self) -> int:
        return self.words * self.bits_per_word

    def _index(self, address: int) -> int:
        if address % 4:
            raise InjectionError(f"word address {address:#x} not aligned")
        index = address // 4
        if not 0 <= index < self.words:
            raise InjectionError(f"address {address:#x} outside {self.name}")
        return index

    # -- functional access (the memory controller's view) --------------------

    def read_raw(self, address: int) -> tuple:
        """The stored (data, check) pair at a word-aligned offset."""
        index = self._index(address)
        return int(self._words[index]), int(self._check[index])

    def write_word(self, address: int, value: int) -> None:
        """Store a word, regenerating its check bits."""
        index = self._index(address)
        value &= 0xFFFFFFFF
        self._words[index] = value
        if self.edac:
            self._check[index] = bch_encode(value)

    def write_raw(self, address: int, data: int, check: int) -> None:
        """Store raw data + check bits (EDAC bypass, used by diagnostics)."""
        index = self._index(address)
        self._words[index] = data & 0xFFFFFFFF
        self._check[index] = check & 0x7F

    def load_image(self, address: int, image: bytes) -> None:
        """Load a big-endian byte image (a :class:`~repro.sparc.asm.Program`)."""
        if len(image) % 4:
            image = image + b"\x00" * (4 - len(image) % 4)
        for offset in range(0, len(image), 4):
            word = int.from_bytes(image[offset:offset + 4], "big")
            self.write_word(address + offset, word)

    # -- state capture --------------------------------------------------------

    def capture(self) -> dict:
        """Raw stored planes as bytes (one memcpy each, compact to pickle)."""
        return {
            "words": self._words.tobytes(),
            "check": self._check.tobytes(),
        }

    def planes(self) -> tuple:
        """The live stored planes (data words, check bits), not copies:
        for hashing in place, never for mutation."""
        return self._words, self._check

    def restore(self, state: dict) -> None:
        words = np.frombuffer(state["words"], dtype=np.uint32)
        check = np.frombuffer(state["check"], dtype=np.uint8)
        if len(words) != self.words or len(check) != self.words:
            raise StateError(
                f"memory {self.name!r}: snapshot has {len(words)} words, "
                f"expected {self.words}")
        self._words = words.copy()
        self._check = check.copy()

    # -- fault injection ------------------------------------------------------

    def inject(self, address: int, bit: int) -> None:
        """Flip one stored bit.  Bits 0..31 are data, 32..38 are check bits."""
        index = self._index(address)
        if 0 <= bit < 32:
            self._words[index] = int(self._words[index]) ^ (1 << bit)
        elif 32 <= bit < 39:
            self._check[index] = int(self._check[index]) ^ (1 << (bit - 32))
        else:
            raise InjectionError(f"bit {bit} out of range for a 39-bit codeword")

    def inject_flat(self, flat_bit: int) -> tuple:
        """Flip the ``flat_bit``-th stored bit; returns (address, bit)."""
        if not 0 <= flat_bit < self.total_bits:
            raise InjectionError("flat bit index outside memory")
        index, bit = divmod(flat_bit, self.bits_per_word)
        self.inject(index * 4, bit)
        return index * 4, bit

    def peek_flat(self, flat_bit: int) -> int:
        """The stored bit :meth:`inject_flat` would flip."""
        index, bit = divmod(flat_bit, self.bits_per_word)
        stored = int(self._check[index]) << 32 | int(self._words[index])
        return (stored >> bit) & 1

    def word_of(self, flat_bit: int) -> int:
        """The word index a flat bit lands in (its byte offset over 4)."""
        return flat_bit // self.bits_per_word

    def is_latent(self, word: int) -> bool:
        """External memory keeps no suspect set, so an undetected upset
        counts as still resident."""
        return True
