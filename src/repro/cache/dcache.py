"""The data cache: write-through with a write buffer.

Section 4.3: "The data cache uses write-through policy, and a second copy of
the data is thus always available" -- which is what makes forced-miss the
complete correction story for D-cache parity errors.

Section 4.4: with register-file protection enabled, the write buffer delays
the memory store request by one clock so the *second* word of a double-store
has been checked (and possibly corrected) before the bus cycle starts;
double-store instructions therefore cost one extra cycle in the FT
configuration.  That is the paper's only FT performance impact.
"""

from __future__ import annotations

from repro.amba.ahb import TransferSize
from repro.cache.base import CacheAccess, CacheBase
from repro.ft.protection import ErrorKind


class DataCache(CacheBase):
    """Direct-mapped, write-through, no-allocate-on-write data cache."""

    kind = "d"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: One extra cycle per double-store, set by the system when the
        #: register file is protected (the write-buffer delay of section 4.4).
        self.double_store_delay = False  # state: config -- set once at system build, constant per device
        #: Write-buffer occupancy statistics.
        self.buffered_stores = 0

    def capture(self) -> dict:
        state = super().capture()
        state["diag"] = {"buffered_stores": self.buffered_stores}
        return state

    def restore(self, state: dict) -> None:
        super().restore(state)
        diag = state.get("diag") or {}
        self.buffered_stores = int(diag.get("buffered_stores", 0))

    def read_fast(self, address: int, size: TransferSize) -> "int | None":
        """Zero-extra-cycle load probe: the sub-word-extracting twin of
        :meth:`CacheBase.lookup_word`.  Returns the loaded value on a clean
        hit, ``None`` when the full :meth:`read` path must run.  The caller
        is responsible for the enabled/cacheable check.
        """
        data = self.lookup_word(address & ~3)
        if data is None or size is TransferSize.WORD:
            return data
        byte_offset = address & 3
        if size is TransferSize.HALFWORD:
            return (data >> ((2 - byte_offset) * 8)) & 0xFFFF
        return (data >> ((3 - byte_offset) * 8)) & 0xFF

    def read(self, address: int, size: TransferSize, *, cacheable: bool = True) -> CacheAccess:
        """Load through the cache (sub-word loads extract from the cached
        word, as the hardware does)."""
        if not self.enabled or not cacheable:
            return self.uncached_read(address, size)
        access = self.lookup(address & ~3)
        if access.mem_error or size is TransferSize.WORD:
            return access
        byte_offset = address & 3
        if size is TransferSize.HALFWORD:
            shift = (2 - byte_offset) * 8
            access.data = (access.data >> shift) & 0xFFFF
        else:
            shift = (3 - byte_offset) * 8
            access.data = (access.data >> shift) & 0xFF
        return access

    def write(self, address: int, value: int, size: TransferSize, *,
              cacheable: bool = True, double: bool = False) -> CacheAccess:
        """Store through the cache.

        Write-through: memory is always written.  The cached copy is updated
        only on a hit (no write-allocate).  ``double`` marks the second word
        of an STD; with FT enabled it costs the write-buffer delay cycle.
        """
        access = CacheAccess(hit=False)
        if self.enabled and cacheable:
            self._update_on_hit(address, value, size, access)
        result = self.bus.write(address, value, size, self.master)
        self.buffered_stores += 1
        # The write buffer hides the memory latency from the pipeline (the
        # base store timing in repro.iu.timing covers the buffer hand-off);
        # only the FT double-store delay adds a visible cycle.
        access.corrected += result.corrected
        if result.error:
            access.mem_error = True
        if double and self.double_store_delay:
            access.cycles += 1
        return access

    def _update_on_hit(self, address: int, value: int, size: TransferSize,
                       access: CacheAccess) -> None:
        index = self._index(address)
        entry, tag_kind = self.tag_ram.read(index)
        if tag_kind is not ErrorKind.NONE:
            # Tag parity error discovered by a store: correct by refetch --
            # here simply by invalidating the line; memory holds the truth.
            self._count_tag_error(index)
            access.tag_parity_error = True
            self.tag_ram.write(index, 0)
            if self.telemetry.enabled:
                self.telemetry.resolve(self._site_tag, index,
                                       action="invalidate",
                                       instr=self.perf.instructions)
            return
        tag, valid = self._split_tag_entry(entry)
        word = self._word(address)
        if tag != self._tag(address) or not (valid >> word) & 1:
            return  # write miss: no allocate
        access.hit = True
        slot = index * self.words_per_line + word
        if size is TransferSize.WORD:
            self.data_ram.write(slot, value)
            return
        current, data_kind = self.data_ram.read(slot)
        if data_kind is not ErrorKind.NONE:
            # Sub-word store must read-modify-write the cached word; if that
            # word has a parity error, invalidate it instead (memory gets
            # the store anyway) and count the corrected error.
            self._count_data_error(slot)
            access.data_parity_error = True
            self.invalidate_word(address)
            if self.telemetry.enabled:
                self.telemetry.resolve(self._site_data, slot,
                                       action="invalidate",
                                       instr=self.perf.instructions)
            return
        byte_offset = address & 3
        if size is TransferSize.HALFWORD:
            shift = (2 - byte_offset) * 8
            mask = 0xFFFF << shift
            merged = (current & ~mask) | ((value & 0xFFFF) << shift)
        else:
            shift = (3 - byte_offset) * 8
            mask = 0xFF << shift
            merged = (current & ~mask) | ((value & 0xFF) << shift)
        self.data_ram.write(slot, merged)
