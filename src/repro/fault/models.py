"""Pluggable fault models: SEU/MBU, stuck-at, SEFI, and targeted attacks.

The beam experiments of the paper exercise exactly one fault model --
Poisson-arrival transient bit flips (:mod:`repro.fault.beam`).  The FT
fabric claims coverage over a much richer fault space, and InjectV-style
security work (PAPERS.md) shows *targeted* faults (instruction skip,
opcode corruption) behave nothing like random upsets.  This module makes
the fault model a campaign parameter:

``seu``
    The existing heavy-ion behavior, delegating scheduling and
    application to :class:`~repro.fault.beam.HeavyIonBeam` so the default
    campaign stays byte-identical to the pre-model-layer code (RNG draw
    order, MBU companions).
``stuck-at-0`` / ``stuck-at-1``
    Persistent cell defects.  Arrival sites reuse the beam's Poisson
    schedule (a stuck cell is "where the particle would have struck"),
    but the fault is registered with
    :meth:`~repro.fault.injector.FaultInjector.add_persistent` and
    re-asserted at every execution-chunk boundary until the end of the
    run -- scrubbing or rewriting the cell cannot repair it.  Persistent
    faults invalidate the golden-digest early-exit argument
    (``transient = False``), so grading degrades to full execution.
``sefi``
    Single-event functional interrupt: control-register corruption.  The
    fault lands in a TMR'd control flip-flop *through the voter*
    (:meth:`~repro.ft.tmr.TmrRegister.load` latches all three lanes), so
    the TMR fabric cannot out-vote it -- only a software rewrite heals
    the register.  One pseudo-cell, ``errmon-clear``, models a SEFI in
    the error-monitor readout path (the monitor's counts are wiped).
``instruction-skip`` / ``opcode``
    Targeted attacks at a chosen PC (or PC window).  A skip replaces the
    instruction word with a coherent NOP -- check bits regenerated, so
    the FT fabric *cannot* see it and the interesting readout is
    silent-vs-masked.  Opcode corruption flips a stored bit with stale
    check bits, which EDAC flags on fetch when enabled -- the
    detected-vs-silent axis.

Every model declares its target cells (``TARGETS``) and enumerates its
fault space; lint rule FT103 and the ``fault-model-coverage`` runtime
audit check hold the two consistent.

:func:`classify_outcome` gives the security readout: each completed run
is **detected** (the FT fabric flagged the fault), **silently executed**
(architectural results corrupted with no detection), or **masked**.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.core.config import LeonConfig
from repro.errors import ConfigurationError
from repro.fault.beam import HeavyIonBeam, Strike
from repro.fault.injector import FaultInjector

#: SPARC NOP encoding (``sethi 0, %g0``).
NOP_WORD = 0x01000000

#: Per-bit SEFI cross-section, cm^2/bit.  Control flip-flops upset far
#: less often than the cache/regfile arrays (they are few, and latching
#: through the voter needs a coincident multi-lane hit); a flat Weibull
#: plateau keeps the schedule a pure function of ``(seed, flux, fluence)``.
SEFI_BIT_CROSS_SECTION_CM2 = 4e-7

#: Pseudo-cell: a SEFI in the error-monitor readout path (counts wiped).
ERRMON_CLEAR = "errmon-clear"


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled fault: when, where, and under which model.

    ``kind`` is ``None`` for default-model (seu) faults so the recorded
    strike-event format -- and therefore every existing trace -- stays
    byte-identical; non-default models stamp their kind into the event.
    """

    time_s: float
    target: str
    flat_bit: int
    mbu: bool = False
    kind: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)


class FaultModel:
    """One way for state to go wrong.

    Subclasses declare ``kind`` (the registry key), ``transient``
    (whether the golden-digest early exit stays sound -- only one-shot
    corruptions qualify), and ``TARGETS`` (every cell group the model
    may fault, checked by FT103 and the runtime audit), and implement
    :meth:`fault_space`, :meth:`schedule`, and :meth:`apply`.
    """

    kind: str = ""
    #: One-shot corruption?  Persistent faults (re-asserted during the
    #: run) must set this False so grading never takes the golden-digest
    #: early exit -- the timeline argument only holds for transients.
    transient: bool = True
    #: Cell groups this model may fault (FT103 / audit contract).
    TARGETS: Tuple[str, ...] = ()
    #: Whether every declared target present on the device must appear in
    #: the fault space (cell-array models); targeted attacks narrow their
    #: space to the configured site and set this False.
    EXHAUSTIVE: bool = True

    def __init__(self, config) -> None:
        self.config = config

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        """Faultable bits per target under this model."""
        raise NotImplementedError

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        """The run's fault arrivals, a pure function of the config."""
        raise NotImplementedError

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        """Inject *fault* into the system behind *injector*."""
        raise NotImplementedError

    def locate(self, fault: PlannedFault,
               injector: FaultInjector) -> Optional[int]:
        """Word index of *fault* for trace correlation (None if unmapped)."""
        if fault.target in injector.targets:
            return injector.locate(fault.target, fault.flat_bit)
        return None


#: Registry of fault models by ``kind``.
MODELS: Dict[str, Type[FaultModel]] = {}


def register_model(cls: Type[FaultModel]) -> Type[FaultModel]:
    """Class decorator adding a :class:`FaultModel` to the registry."""
    if not cls.kind:
        raise ConfigurationError(f"fault model {cls.__name__} has no kind")
    if cls.kind in MODELS:
        raise ConfigurationError(f"duplicate fault model {cls.kind!r}")
    MODELS[cls.kind] = cls
    return cls


def model_names() -> Tuple[str, ...]:
    """Registered fault-model kinds, sorted (CLI choices, docs)."""
    return tuple(sorted(MODELS))


def build_model(kind: str, config) -> FaultModel:
    """Instantiate the registered model *kind* bound to *config*."""
    try:
        cls = MODELS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault model {kind!r} (choose from {', '.join(model_names())})"
        ) from None
    return cls(config)


# -- the default model: heavy-ion SEU/MBU -----------------------------------

#: All injector cell groups (ext-* only exist on injectors built with
#: ``include_external_memory``; fpregs only when the device has an FPU).
_CELL_ARRAYS = (
    "icache-tag", "icache-data", "dcache-tag", "dcache-data",
    "regfile", "fpregs", "flipflops", "ext-prom", "ext-sram", "ext-io",
)


@register_model
class SingleEventUpset(FaultModel):
    """Transient bit flips: the paper's heavy-ion beam, unchanged.

    Scheduling and application delegate to
    :class:`~repro.fault.beam.HeavyIonBeam`, so RNG draw order and MBU
    companion strikes are byte-identical to the pre-model-layer campaign.
    """

    kind = "seu"
    transient = True
    TARGETS = _CELL_ARRAYS

    def __init__(self, config) -> None:
        super().__init__(config)
        self._beam: Optional[HeavyIonBeam] = None

    def _beam_for(self, injector: FaultInjector) -> HeavyIonBeam:
        if self._beam is None or self._beam.injector is not injector:
            self._beam = HeavyIonBeam(injector)
        return self._beam

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        return {name: target.bits for name, target in injector.targets.items()}

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        beam = self._beam_for(injector)
        return [
            PlannedFault(time_s=strike.time_s, target=strike.target,
                         flat_bit=strike.flat_bit, mbu=strike.mbu)
            for strike in beam.schedule(self.config.beam_parameters())
        ]

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        self._beam_for(injector).apply(Strike(
            time_s=fault.time_s, target=fault.target,
            flat_bit=fault.flat_bit, mbu=fault.mbu))


# -- persistent stuck-at cells ----------------------------------------------

def _beam_sites(config, injector: FaultInjector,
                kind: str) -> List[PlannedFault]:
    """Beam-scheduled arrival sites re-labelled for a non-seu model.

    Reuses the heavy-ion Poisson/Weibull machinery (same seed, same draw
    order) so stuck-at campaigns sweep the same cell population the beam
    would have hit.  MBU companions do not apply -- a stuck cell is a
    single defect -- so the drawn flag is dropped.
    """
    beam = HeavyIonBeam(injector)
    return [
        PlannedFault(time_s=strike.time_s, target=strike.target,
                     flat_bit=strike.flat_bit, mbu=False, kind=kind)
        for strike in beam.schedule(config.beam_parameters())
    ]


class _StuckAt:
    """Shared behavior of the two stuck-at polarities."""

    transient = False  # re-asserted faults invalidate the golden timeline
    value = 0

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        return {name: target.bits for name, target in injector.targets.items()}

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        return _beam_sites(self.config, injector, self.kind)

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        injector.add_persistent(fault.target, fault.flat_bit, self.value)


@register_model
class StuckAtZero(_StuckAt, FaultModel):
    """Persistent stuck-at-0 cell faults at beam-scheduled sites."""

    kind = "stuck-at-0"
    value = 0
    TARGETS = _CELL_ARRAYS


@register_model
class StuckAtOne(_StuckAt, FaultModel):
    """Persistent stuck-at-1 cell faults at beam-scheduled sites."""

    kind = "stuck-at-1"
    value = 1
    TARGETS = _CELL_ARRAYS


# -- SEFI: control-register corruption --------------------------------------

#: Control flip-flops a functional interrupt can latch into.  Only the
#: cells present on the configured device are enumerated at run time.
SEFI_CELLS = (
    "sysregs.ccr",
    "iu.wim", "iu.tbr",
    "irqctrl.mask", "irqctrl.pending",
    "watchdog.counter", "prescaler.reload",
    "ioport.direction", "ioport.irqcfg",
    "dma.status",
)


@register_model
class FunctionalInterrupt(FaultModel):
    """SEFI: corruption latched into control state through the TMR voter.

    The upset is modeled as a coincident multi-lane hit: the corrupted
    value is *loaded* into the TMR register, so all three lanes agree on
    the wrong value and scrubbing cannot repair it -- only software
    rewriting the register does.  The ``errmon-clear`` pseudo-cell wipes
    the error monitor instead (a SEFI in the diagnostic path), which is
    exactly the failure the monitor itself cannot report.
    """

    kind = "sefi"
    transient = True  # one-shot latch corruption; digests stay sound
    TARGETS = SEFI_CELLS + (ERRMON_CLEAR,)

    def _cells(self, injector: FaultInjector) -> List[Tuple[str, int]]:
        bank = injector.system.ffbank
        present = set(bank.names())
        cells = [(name, bank.get(name).width)
                 for name in SEFI_CELLS if name in present]
        cells.append((ERRMON_CLEAR, 1))
        return cells

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        return dict(self._cells(injector))

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        params = self.config.beam_parameters()
        cells = self._cells(injector)
        total_bits = sum(width for _name, width in cells)
        rate = params.flux * SEFI_BIT_CROSS_SECTION_CM2 * total_bits
        duration = params.duration_s
        rng = random.Random(params.seed)
        faults: List[PlannedFault] = []
        elapsed = 0.0
        while rate > 0.0:
            elapsed += rng.expovariate(rate)
            if elapsed >= duration:
                break
            flat = rng.randrange(total_bits)
            for name, width in cells:
                if flat < width:
                    faults.append(PlannedFault(
                        time_s=elapsed, target=name, flat_bit=flat,
                        kind=self.kind))
                    break
                flat -= width
        return faults

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        system = injector.system
        if fault.target == ERRMON_CLEAR:
            system.errors.clear_monitor()
            return
        reg = system.ffbank.get(fault.target)
        reg.load(reg.value ^ (1 << fault.flat_bit))

    def locate(self, fault: PlannedFault,
               injector: FaultInjector) -> Optional[int]:
        return None  # control cells are registers, not word arrays


# -- targeted attacks: instruction skip and opcode corruption ---------------

def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def validate_attack_params(params: Dict[str, Any]) -> None:
    """Check the attack models' ``fault_params`` before any run uses them.

    ``pc`` must be an integer address, ``window`` an integer of at least
    one word, ``time_s`` a finite beam time of at least 0 s, and ``bit``
    an integer data-word bit in 0..31.  Absent keys keep their defaults.
    Raises ConfigurationError naming the first bad parameter; ``repro
    attack`` and ``POST /api/jobs`` call it on their input, and the
    attack models call it before scheduling.  Whether the parameters
    name a valid site is :func:`validate_attack_site`'s question.
    """
    pc = params.get("pc")
    if pc is not None and not _is_int(pc):
        raise ConfigurationError(
            f"pc must be an integer address, got {pc!r}")
    window = params.get("window", 1)
    if not _is_int(window) or window < 1:
        raise ConfigurationError(
            f"window must be an integer of at least 1 word, got {window!r}")
    time_s = params.get("time_s", 0.0)
    if (isinstance(time_s, bool) or not isinstance(time_s, (int, float))
            or not math.isfinite(time_s) or time_s < 0):
        raise ConfigurationError(
            f"time_s must be a finite number of seconds >= 0, "
            f"got {time_s!r}")
    bit = params.get("bit")
    if bit is not None and not (_is_int(bit) and 0 <= bit < 32):
        raise ConfigurationError(
            f"bit must be an integer in 0..31 (a data-word bit), "
            f"got {bit!r}")


def _attack_window(config) -> Tuple[int, int]:
    """``(pc, window)`` of an attack config whose site is valid.

    An attack needs an integer, word-aligned ``pc``, and its whole window
    ``[pc, pc + 4 * window)`` must lie in the SRAM bank of the campaign's
    device (``config.leon``, LEON-express by default): campaign programs
    load there.  Raises ConfigurationError naming the problem.
    """
    params = config.fault_params
    validate_attack_params(params)
    pc = params.get("pc")
    if pc is None:
        raise ConfigurationError(
            "attack models need fault_params['pc'] (the target instruction)")
    if pc % 4:
        raise ConfigurationError(f"attack pc {pc:#x} is not word-aligned")
    window = params.get("window", 1)
    memory = (config.leon or LeonConfig.leon_express()).memory
    base, end = memory.sram_base, memory.sram_base + memory.sram_bytes
    if pc < base or pc + 4 * window > end:
        raise ConfigurationError(
            f"attack window [{pc:#x}, {pc + 4 * window:#x}) is not inside "
            f"the SRAM bank [{base:#x}, {end:#x}), where programs load")
    return pc, window


def validate_attack_site(config) -> None:
    """Refuse an attack config that names no valid site, before any run.

    ``repro attack`` and ``POST /api/jobs`` call it on the config they
    build, and every attack run applies the same check when it
    schedules.  Configs of the other fault models pass.
    """
    model = MODELS.get(config.fault_model)
    if model is not None and issubclass(model, _Attack):
        _attack_window(config)


def _attack_site(config, injector: FaultInjector) -> Tuple[int, int]:
    """``(absolute address, local sram offset)`` of the attacked word.

    ``fault_params['pc']`` anchors the attack; a ``window`` of N words
    picks one word in ``[pc, pc + 4N)`` with the run's seed, so a sweep
    over seeds covers the window.
    """
    pc, window = _attack_window(config)
    if window > 1:
        rng = random.Random(config.seed)
        pc += 4 * rng.randrange(window)
    return pc, pc - injector.system.memctrl.sram.base


class _Attack:
    """Shared scheduling of the two PC-targeted attack models."""

    EXHAUSTIVE = False  # the space narrows to the configured site

    def fault_space(self, injector: FaultInjector) -> Dict[str, int]:
        validate_attack_params(self.config.fault_params)
        return {"ext-sram": self.config.fault_params.get("window", 1) * 32}

    def _plan(self, injector: FaultInjector, *, bit: int,
              info: Dict[str, Any]) -> List[PlannedFault]:
        address, local = _attack_site(self.config, injector)
        per_word = injector.system.memctrl.sram_memory.bits_per_word
        time_s = float(self.config.fault_params.get("time_s", 0.0))
        flat_bit = (local // 4) * per_word + bit
        payload = {"address": address, **info}
        return [PlannedFault(time_s=time_s, target="ext-sram",
                             flat_bit=flat_bit, kind=self.kind, info=payload)]

    def locate(self, fault: PlannedFault,
               injector: FaultInjector) -> Optional[int]:
        address = fault.info.get("address")
        if address is None:
            return None
        return (address - injector.system.memctrl.sram.base) // 4


@register_model
class InstructionSkip(_Attack, FaultModel):
    """Replace the attacked instruction with a coherent NOP.

    The write regenerates check bits, so parity/EDAC *cannot* flag it:
    the run lands on the silent-vs-masked axis by construction --
    exactly the blind spot a security readout must surface.
    """

    kind = "instruction-skip"
    transient = True
    TARGETS = ("ext-sram",)

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        return self._plan(injector, bit=0, info={"skip": True})

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        system = injector.system
        address = fault.info["address"]
        system.write_word(address, NOP_WORD)
        system.icache.flush()  # force a refetch of the patched word


@register_model
class OpcodeCorruption(_Attack, FaultModel):
    """Flip one stored bit of the attacked instruction word.

    The flip leaves check bits stale, so EDAC-protected memory detects
    (and corrects) the corruption on fetch -- the detected axis.  On an
    unprotected device the corrupted opcode executes.
    """

    kind = "opcode"
    transient = True
    TARGETS = ("ext-sram",)

    def schedule(self, injector: FaultInjector) -> List[PlannedFault]:
        bit = self.config.fault_params.get("bit")
        if bit is None:
            bit = random.Random(self.config.seed).randrange(32)
        return self._plan(injector, bit=bit, info={"bit": bit})

    def apply(self, fault: PlannedFault, injector: FaultInjector) -> None:
        system = injector.system
        address = fault.info["address"]
        local = address - system.memctrl.sram.base
        system.memctrl.sram_memory.inject(local, fault.info["bit"])
        system.icache.flush()  # refetch sees the corrupted (stale-check) word


# -- security readout --------------------------------------------------------

#: Classification labels, in display order.
OUTCOMES = ("detected", "silent", "masked")


def classify_outcome(result) -> str:
    """Detected / silently-executed / masked readout of one finished run.

    ``detected``
        The FT fabric flagged the fault: any error counter incremented,
        an error trap fired, the watchdog saw a halt, or recovery ran.
    ``silent``
        No detection, but the program's own self-checks failed
        (``sw_errors``) -- architectural results were corrupted and the
        fabric never noticed.  The security-critical bucket.
    ``masked``
        No detection and correct results: the fault had no effect.
    """
    counts = getattr(result, "counts", None) or {}
    fabric = any(counts.get(name, 0) for name in counts)
    if (fabric or result.error_traps or result.halts or result.halted
            or getattr(result, "recoveries", 0)
            or getattr(result, "unrecovered", 0)):
        return "detected"
    if result.sw_errors:
        return "silent"
    return "masked"


def security_fold(results) -> Dict[str, Dict[str, int]]:
    """Per-fault-model detected/silent/masked counts over *results*."""
    fold: Dict[str, Dict[str, int]] = {}
    for result in results:
        model = getattr(result.config, "fault_model", "seu")
        bucket = fold.setdefault(
            model, {outcome: 0 for outcome in OUTCOMES})
        bucket[classify_outcome(result)] += 1
    return fold


# Registered last: the importance-sampling model lives in its own module
# (it pulls in the static-analysis layer) but must be in MODELS whenever
# the registry is imported.
from repro.fault import sampling as _sampling  # noqa: E402,F401
