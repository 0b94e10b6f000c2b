"""Fault-tolerance primitives used throughout the LEON-FT design.

The paper (section 4.2) divides the sequential cells of the processor into
three groups and protects each with a scheme matched to its structure:

* cache RAMs           -- one or two parity bits per tag/data word
                          (:mod:`repro.ft.parity`), checked on access with a
                          forced cache miss on error;
* the register file    -- one/two parity bits or a (32,7) BCH checksum
                          (:mod:`repro.ft.bch`), checked in the execute stage
                          with a pipeline restart on a correctable error;
* flip-flops           -- triple modular redundancy with a voter and three
                          separate clock trees (:mod:`repro.ft.tmr`);
* external memory      -- the on-chip EDAC: the memory controller's banks
                          (:mod:`repro.mem.memctrl`) check every word with
                          the same (32,7) BCH codec.

Each storage array applies its scheme itself and classifies a word with
:class:`ErrorKind`; this package holds the codecs, the TMR cells and the
SET pulse-filter model.
"""

from repro.ft.bch import BCH_CHECK_BITS, BchCodec
from repro.ft.parity import (
    DualParityCodec,
    SingleParityCodec,
    parity32,
    parity_even_bits,
    parity_odd_bits,
)
from repro.ft.protection import CheckResult, Codec, ErrorKind, ProtectionScheme, make_codec
from repro.ft.pulsefilter import (
    PulseFilterResult,
    SetCampaignResult,
    SkewedClockTmr,
    TransientPulse,
    evaluate_skew,
)
from repro.ft.tmr import ClockTree, FlipFlopBank, TmrRegister, Voter

__all__ = [
    "BCH_CHECK_BITS",
    "BchCodec",
    "CheckResult",
    "ClockTree",
    "Codec",
    "DualParityCodec",
    "ErrorKind",
    "FlipFlopBank",
    "ProtectionScheme",
    "PulseFilterResult",
    "SetCampaignResult",
    "SingleParityCodec",
    "SkewedClockTmr",
    "TmrRegister",
    "TransientPulse",
    "Voter",
    "evaluate_skew",
    "make_codec",
    "parity32",
    "parity_even_bits",
    "parity_odd_bits",
]
