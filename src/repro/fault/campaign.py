"""The SEU campaign runner: the simulator's Louvain test procedure.

Reproduces the measurement loop of section 6: run a self-checking test
program, let the beam strike the device, read the on-chip error-monitor
counters (ITE / IDE / DTE / DDE / RFE), verify the program's checksum, and
classify failures (error traps or software-detected corruption).

Time scaling
------------
Real beam runs inject ~1 upset per hundreds of milliseconds while the
device executes tens of millions of instructions per second.  Simulating
that literally is infeasible, so the campaign maps beam time to simulated
instructions through ``instructions_per_second`` -- the *virtual device
speed*.  Error counts and cross-sections are unbiased under this scaling
(every upset is still detected or missed by exactly the same program
logic); what accelerates is the ratio of upset arrivals to storage
*residency* time, which only matters for the multiple-error build-up
experiment (E6) where the flux axis is scaled accordingly (EXPERIMENTS.md).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.analysis.program import AceMap, analyze_program, entry_context
from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.errors import ConfigurationError
from repro.fault.beam import BeamParameters
from repro.fault.grading import (
    DEFAULT_CHECKPOINTS,
    GoldenCheckpoint,
    GoldenRun,
    GoldenTimeline,
    checkpoint_schedule,
)
from repro.fault.injector import FaultInjector
from repro.fault.models import build_model
from repro.iu.pipeline import HaltReason
from repro.jit import jit_default_enabled
from repro.programs import (
    ProgramHarness,
    build_cncf,
    build_iutest,
    build_paranoia,
    build_random,
)
from repro.recovery import RecoveryController, RecoveryLevel, resolve_policy
from repro.state.snapshot import Snapshot
from repro.telemetry.bus import NULL_TELEMETRY, Telemetry

_BUILDERS = {
    "iutest": build_iutest,
    "paranoia": build_paranoia,
    "cncf": build_cncf,
}


def resolve_builder(program: str):
    """Builder for a ``--program`` spec: a named program or ``random:<seed>``.

    ``random:<seed>`` builds a seeded self-checking straight-line program
    (:func:`repro.programs.build_random`), so campaigns can sweep workload
    diversity without hand-written tests.  Raises ConfigurationError for
    anything else.
    """
    if program in _BUILDERS:
        return _BUILDERS[program]
    if program.startswith("random:"):
        spec = program.split(":", 1)[1]
        try:
            seed = int(spec, 0)
        except ValueError:
            raise ConfigurationError(
                f"bad random program spec {program!r} "
                "(expected random:<seed>)") from None

        def build(config, **kwargs):
            return build_random(config, seed=seed, **kwargs)
        return build
    raise ConfigurationError(
        f"unknown test program {program!r} "
        f"(choose from {sorted(_BUILDERS)} or random:<seed>)")


#: Exits that report the golden final state instead of reading the live
#: system: the rest of the run's trajectory is provably the golden run's.
EFFACED_EXITS = frozenset({"reconverged", "static_masked"})


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign run: a program under one beam setting."""

    program: str = "iutest"
    let: float = 110.0
    flux: float = 400.0  # ions / s / cm^2
    fluence: float = 1.0e4  # ions / cm^2 (the paper's runs: 1e5)
    seed: int = 1
    #: Virtual device speed: simulated instructions per beam second.
    instructions_per_second: float = 50_000.0
    #: Hard cap on simulated instructions (safety valve).
    max_instructions: int = 20_000_000
    #: Periodic cache flush, in instructions (0 = never).  Section 4.8:
    #: "In small programs, a cache flush could therefore periodically be
    #: performed to force a refresh of all cache contents" -- flushing
    #: discards latent cache errors before they can pair up.
    flush_period_instructions: int = 0
    leon: Optional[LeonConfig] = None
    program_kwargs: Dict = field(default_factory=dict)
    #: Fault-free warm-up before the beam opens, in beam seconds.  The run
    #: executes ``beam_delay_s * instructions_per_second`` instructions with
    #: the shutter closed -- the stretch warm-start campaigns snapshot past.
    beam_delay_s: float = 0.0
    #: Strike-free observation stretch after the beam closes, in beam
    #: seconds.  Gives latent errors time to surface (and effaced runs time
    #: to be worth skipping).
    beam_tail_s: float = 0.0
    #: Recovery policy name (:data:`repro.recovery.POLICIES`): "none"
    #: terminates the run at the first halt/park as before; any other
    #: policy lets the supervision logic recover and the run continue
    #: *through* failures, recording per-level counts and downtime.
    recovery: str = "none"
    #: Golden-timeline early-exit grading (``--no-early-exit`` clears it).
    #: An execution-strategy knob only -- measured results are
    #: byte-identical either way -- so it is excluded from
    #: :func:`warm_start_key`, the result-store key, and
    #: :meth:`CampaignResult.comparable`.
    early_exit: bool = True
    #: Static ACE-map pre-classification (``--no-static`` clears it): a
    #: transient strike landing in a register word the static analyzer
    #: proved dead is graded ``masked`` with the golden readouts *without
    #: executing the run at all* (``exit_reason="static_masked"``).
    #: Requires ``early_exit`` (one oracle switch disables every
    #: shortcut).  Like ``early_exit``, an execution-strategy knob:
    #: byte-identical results, excluded from the warm-start key, the
    #: result-store key, and :meth:`CampaignResult.comparable`.
    static_grading: bool = True
    #: Fault model (:data:`repro.fault.models.MODELS`): ``"seu"`` is the
    #: paper's transient bit-flip beam, byte-identical to the
    #: pre-model-layer campaign; see the module docs for ``stuck-at-0/1``,
    #: ``sefi``, ``instruction-skip`` and ``opcode``.
    fault_model: str = "seu"
    #: Model-specific parameters (attack models: ``pc``, ``window``,
    #: ``bit``, ``time_s``).  Serialized to the result-store key only when
    #: non-empty, so default-model keys are unchanged.
    fault_params: Dict = field(default_factory=dict)

    def beam_parameters(self) -> BeamParameters:
        return BeamParameters(let=self.let, flux=self.flux,
                              fluence=self.fluence, seed=self.seed)

    def phase_instructions(self) -> "tuple[int, int, int]":
        """(prefix, window, tail) instruction counts for this run.

        The window formula is unchanged from the pre-warm-start campaign
        runner, so configs with zero delay/tail reproduce recorded results
        exactly.
        """
        ips = self.instructions_per_second
        prefix = int(self.beam_delay_s * ips)
        window = min(int(self.beam_parameters().duration_s * ips),
                     self.max_instructions)
        tail = int(self.beam_tail_s * ips)
        return prefix, window, tail


@dataclass
class CampaignResult:
    """What the host computer logged for one run."""

    config: CampaignConfig
    counts: Dict[str, int]  # ITE IDE DTE DDE RFE Total
    upsets: int  # physical strikes applied
    upsets_by_target: Dict[str, int]
    sw_errors: int  # checksum mismatches the program caught
    error_traps: int  # unexpected traps (incl. register/memory error traps)
    halted: bool  # processor reached error mode
    iterations: int  # completed program self-check iterations
    instructions: int
    #: Host wall-clock time of the run, seconds (0.0 in pre-existing logs).
    wall_seconds: float = 0.0
    #: Device cycles the run consumed, including recovery downtime
    #: (0 in pre-existing logs).
    cycles: int = 0
    #: Recovery actions applied, by ladder level (empty without a policy).
    recoveries: Dict[str, int] = field(default_factory=dict)
    #: Downtime charged by each ladder level, device cycles.
    recovery_downtime: Dict[str, int] = field(default_factory=dict)
    #: Error-mode halts the run recovered from (an *unrecovered* final
    #: halt reports through ``halted`` as before).
    halts: int = 0
    #: True when a recovery policy was active but gave up (attempt budget
    #: exhausted or no applicable rung) and the run ended failed.
    unrecovered: bool = False
    #: How classification concluded: ``"full"`` (the complete measurement
    #: loop executed), ``"reconverged"`` (the architectural digest hit a
    #: golden-timeline checkpoint) or ``"static_masked"`` (every strike
    #: was provably dead, nothing executed).  ``""`` in pre-grading logs;
    #: ``"diverged"`` (a fixed point extrapolated to the run end) appears
    #: only in logs of older builds.
    #: Execution annotation: every *measured* field is identical to the
    #: full run's.
    exit_reason: str = ""
    #: Instruction count at which grading concluded an early exit
    #: (None for full runs and pre-grading logs).
    graded_at_instruction: Optional[int] = None
    #: Telemetry events of the run (traced executor runs only; never
    #: serialized to the ResultStore -- traces have their own sink).
    trace: Optional[list] = None

    @property
    def effaced(self) -> bool:
        """Was the run graded early with the golden readouts?  Cold runs
        never are: they have no golden timeline to compare against."""
        return self.exit_reason in EFFACED_EXITS

    @property
    def instructions_per_second(self) -> float:
        """Host throughput of the run (simulated instructions / wall second)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.instructions / self.wall_seconds

    @property
    def failures(self) -> int:
        """Paper terminology: "error traps or software failures".

        Recovered halts count exactly like the terminal halt of a
        no-recovery run, so failure totals stay comparable across
        policies."""
        return (self.sw_errors + self.error_traps + self.halts
                + (1 if self.halted else 0))

    @property
    def recovery_events(self) -> int:
        """Total recovery actions applied."""
        return sum(self.recoveries.values())

    @property
    def downtime_cycles(self) -> int:
        """Total downtime charged by recoveries, device cycles."""
        return sum(self.recovery_downtime.values())

    @property
    def mttr_cycles(self) -> float:
        """Mean time to repair: downtime per recovery action, cycles."""
        events = self.recovery_events
        return self.downtime_cycles / events if events else 0.0

    @property
    def availability(self) -> float:
        """In-beam availability: fraction of device time doing useful work."""
        if self.cycles <= 0:
            return 1.0
        return 1.0 - self.downtime_cycles / self.cycles

    def cross_section(self, kind: str = "Total") -> float:
        """Measured cross-section, cm^2: corrected errors per unit fluence."""
        return self.counts[kind] / self.config.fluence

    def cross_sections(self) -> Dict[str, float]:
        return {kind: count / self.config.fluence
                for kind, count in self.counts.items()}

    def row(self) -> Dict[str, object]:
        """One Table 2 row."""
        out: Dict[str, object] = {
            "TEST": self.config.program.upper()[:4],
            "LET": self.config.let,
        }
        out.update(self.counts)
        out["X-sect"] = self.cross_section("Total")
        return out

    def comparable(self) -> Dict[str, object]:
        """The deterministic measurement fields, for byte-identity checks.

        Excludes ``wall_seconds`` (host timing), ``exit_reason`` and
        ``graded_at_instruction`` (execution annotations that depend on
        whether a golden timeline was available, not on what was
        measured), ``trace`` (observation, with host wall times inside),
        and the config's ``early_exit`` strategy switch.
        """
        out = dataclasses.asdict(self)
        out.pop("wall_seconds", None)
        out.pop("exit_reason", None)
        out.pop("graded_at_instruction", None)
        out.pop("trace", None)
        out["config"].pop("early_exit", None)
        out["config"].pop("static_grading", None)
        return out


def warm_start_key(config: CampaignConfig) -> tuple:
    """Everything a warm-start snapshot depends on.

    The beam-window *timeline* and the fault-free prefix are functions of
    these fields; LET and seed are deliberately absent -- they only shape
    the strike schedule, so one warm start serves a whole LET sweep and
    every derived-seed replica.
    """
    return (
        config.program,
        tuple(sorted(config.program_kwargs.items())),
        config.instructions_per_second,
        config.max_instructions,
        config.flush_period_instructions,
        config.flux,
        config.fluence,
        config.beam_delay_s,
        config.beam_tail_s,
        config.leon,
    )


@dataclass(frozen=True)
class WarmStart:
    """A shared campaign prefix: snapshot bytes plus golden-run data.

    Produced once by :func:`prepare_warm_start` in the parent process and
    shipped (pickled) to every worker; workers restore the snapshot instead
    of re-executing the prefix.
    """

    key: tuple
    snapshot: bytes
    executed: int
    since_flush: int
    failed: bool
    spin_pc: int
    result_base: int
    #: Golden digest timeline for early-exit grading, ending in the golden
    #: readouts (None when the golden run failed before the window
    #: closed).
    timeline: Optional[GoldenTimeline] = None
    #: Static ACE map of the program from the snapshot state
    #: (:mod:`repro.analysis.program`), for strike pre-classification.
    #: Only attached when the golden run completed trap-free -- the
    #: soundness witness the static claims require.
    ace: Optional[AceMap] = None


#: Software tallies a run banks across reset recoveries
#: (:meth:`Campaign._make_recovery`); all zero until a reset discards
#: execution state.
_NO_HARVEST = {"sw_errors": 0, "error_traps": 0, "iterations": 0,
               "base_sw_errors": 0, "base_iterations": 0}


def _read_results(system: LeonSystem, result_base: int,
                  harvested: Dict[str, int]) -> Dict[str, Any]:
    """Read out the result area the way the host computer would; the
    *harvested* tallies carry what earlier reset recoveries banked."""
    read = system.read_word
    return dict(
        sw_errors=harvested["sw_errors"]
        + read(result_base + 0x14) - harvested["base_sw_errors"],
        error_traps=harvested["error_traps"]
        + int(read(result_base + 0x08) == 1),
        halted=system.iu.halted is not HaltReason.RUNNING,
        iterations=harvested["iterations"]
        + read(result_base + 0x10) - harvested["base_iterations"],
    )


class _DeviceSlot(threading.local):
    """One thread's device and the start states its runs restore.

    Every :meth:`Campaign.run` on a thread shares one :class:`LeonSystem`
    and restores its start state into it: the decoded warm-start
    snapshot, or the cold boot image.  Snapshots cover all execution
    state (lint rules FT101/FT102 and the audit's ``snapshot-roundtrip``
    check hold them to it), so restoring into a used device equals
    restoring into a fresh one.  No ``restore()`` aliases a snapshot's
    payloads, so the shared snapshots stay intact however often they
    are restored.  A forked pool worker may inherit its parent's slot;
    restoring before use makes that harmless.
    """

    def __init__(self) -> None:
        #: ``(LeonConfig, JIT enabled)`` the device was built for.
        self.device_key: Optional[Tuple[LeonConfig, bool]] = None
        self.system: Optional[LeonSystem] = None
        #: The warm-start bytes :attr:`warm` was decoded from.
        self.warm_bytes: Optional[bytes] = None
        self.warm: Optional[Snapshot] = None
        #: ``(program, program_kwargs, LeonConfig)`` of :attr:`boot`.
        self.boot_key: Optional[tuple] = None
        #: The program-loaded snapshot, its spin PC and result base.
        self.boot: Optional[Tuple[Snapshot, int, int]] = None

    def device(self, leon: LeonConfig) -> LeonSystem:
        """The thread's device for *leon*, built on first use.

        ``REPRO_JIT`` is read again on every call, so a device never
        outlives a change of the JIT switch.
        """
        key = (leon, jit_default_enabled())
        if self.system is None or self.device_key != key:
            self.system = LeonSystem(leon)
            self.device_key = key
        return self.system

    def warm_snapshot(self, data: bytes) -> Snapshot:
        """*data* decoded, once per warm start rather than once per run."""
        if self.warm is None or self.warm_bytes != data:
            self.warm = Snapshot.from_bytes(data)
            self.warm_bytes = data
        return self.warm

    def boot_image(self, campaign: "Campaign") -> Tuple[Snapshot, int, int]:
        """The campaign program's load-time snapshot, spin PC and result
        base, assembled once per program and device."""
        config = campaign.config
        key = (config.program, tuple(sorted(config.program_kwargs.items())),
               campaign.leon_config)
        if self.boot is None or self.boot_key != key:
            system, spin, result_base, _program = campaign._build_program()
            self.boot = (system.snapshot(), spin, result_base)
            self.boot_key = key
        return self.boot


_SLOT = _DeviceSlot()


class Campaign:
    """Executes runs of one campaign config on the thread's device."""

    def __init__(self, config: CampaignConfig, *,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._builder = resolve_builder(config.program)
        self.config = config
        self.leon_config = config.leon or LeonConfig.leon_express()
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        # Validates the policy and fault-model names early (both raise
        # ConfigurationError on unknown names).
        self.recovery_policy = resolve_policy(config.recovery)
        build_model(config.fault_model, config)
        #: Persistent-fault re-assert hook, installed per run for
        #: non-transient models and invoked at every execution-chunk
        #: boundary of :meth:`_run_until`.
        self._reassert = None

    def _build_program(self):
        """Fresh system with the test program loaded; returns
        (system, spin pc, result-area base, program image)."""
        config = self.config
        system = LeonSystem(self.leon_config)
        builder = self._builder
        # Effectively-endless by default; a finite override makes the
        # program park at ``_exit`` when done (still alive, still hit by
        # the beam, so a late strike stays latent to the run end).
        kwargs = {"iterations": 1_000_000, **config.program_kwargs}
        program, _expected = builder(self.leon_config, **kwargs)
        harness = ProgramHarness(system, program)
        return (system, program.symbols["_trap_spin"],
                harness.layout.result, program)

    def _run_until(self, system: LeonSystem, spin: int, state: Dict,
                   target_instructions: int) -> None:
        """Advance execution, honouring the periodic cache flush.

        A failed run parks the program at ``_trap_spin``, so the stop
        condition is a plain PC compare -- ``stop_pc`` keeps the system
        on its tight :meth:`LeonSystem.run_fast` loop instead of paying
        a Python predicate call per step.
        """
        period = self.config.flush_period_instructions
        while state["executed"] < target_instructions and not state["failed"]:
            chunk = target_instructions - state["executed"]
            if period:
                chunk = min(chunk, period - state["since_flush"])
            run = system.run(chunk, stop_pc=spin)
            state["executed"] += run.instructions
            state["since_flush"] += run.instructions
            if run.stop_reason in ("halted", "stop-pc", "predicate"):
                state["failed"] = True
                return
            if period and state["since_flush"] >= period:
                system.icache.flush()
                system.dcache.flush()
                state["since_flush"] = 0
            if self._reassert is not None:
                # Stuck-at cells re-asserted at every chunk boundary: a
                # rewrite (scrub, store, flush) holds the golden value
                # only until here.  Chunk boundaries are a deterministic
                # function of the phase shape and flush period, so the
                # re-assert schedule is identical across jobs/warm/cold.
                self._reassert()

    def _make_recovery(self, system: LeonSystem, result_base: int,
                       warm: Optional[WarmStart],
                       harvested: Dict[str, int]) -> Optional[RecoveryController]:
        """Build the run's :class:`RecoveryController` (None without a policy).

        Called with the system at the beam-window entry (prefix executed):
        that state is the warm-reset checkpoint, which a warm run already
        holds decoded.  The cold-reboot image is the thread's boot image
        (:meth:`_DeviceSlot.boot_image`) -- identical for cold and warm
        runs, so recovery trajectories are too.
        """
        policy = self.recovery_policy
        if policy is None:
            return None
        checkpoint = boot = None
        if RecoveryLevel.WARM_RESET in policy.ladder:
            if warm is not None:
                checkpoint = _SLOT.warm_snapshot(warm.snapshot)
            else:
                checkpoint = system.snapshot()
        if RecoveryLevel.COLD_REBOOT in policy.ladder:
            boot, _spin, _base = _SLOT.boot_image(self)

        def harvest(sys_: LeonSystem) -> None:
            # Before a reset discards execution state, bank the program's
            # software-visible tallies accumulated since the last reset.
            read = sys_.read_word
            harvested["sw_errors"] += \
                read(result_base + 0x14) - harvested["base_sw_errors"]
            harvested["iterations"] += \
                read(result_base + 0x10) - harvested["base_iterations"]
            harvested["error_traps"] += int(read(result_base + 0x08) == 1)

        return RecoveryController(system, policy, checkpoint=checkpoint,
                                  boot_snapshot=boot, on_state_loss=harvest)

    def _advance(self, system: LeonSystem, spin: int, state: Dict,
                 target_instructions: int,
                 recovery: Optional[RecoveryController],
                 harvested: Dict[str, int], result_base: int) -> bool:
        """Advance to ``target_instructions``, recovering through failures.

        Returns False when the run is dead: no policy configured, or the
        policy gave up -- the caller ends the run with the failure standing.
        """
        while True:
            self._run_until(system, spin, state, target_instructions)
            if not state["failed"]:
                return True
            if recovery is None:
                return False
            halted = system.iu.halted is not HaltReason.RUNNING
            kind = "halt" if halted else "error-trap"
            event = recovery.recover(kind, executed=state["executed"])
            if event is None:
                return False
            state["failed"] = False
            if event.state_loss:
                # The restored image's result-area values are the new
                # baseline the next harvest subtracts.
                read = system.read_word
                harvested["base_sw_errors"] = read(result_base + 0x14)
                harvested["base_iterations"] = read(result_base + 0x10)
                state["since_flush"] = 0

    def run(self, warm: Optional[WarmStart] = None) -> CampaignResult:
        """Execute one run in four steps: plan, advance, classify, finish.

        *Plan* takes the thread's device (:class:`_DeviceSlot`; no system
        is built per run), binds the run's telemetry to it and schedules
        the strikes on it; a warm run whose every strike the ACE map
        proves dead is graded there (``static_masked``) and never
        restored or executed.  Every other run restores its start state
        into the device: the decoded warm-start snapshot, or the cold
        boot image.
        *Advance* applies the strikes in arrival order.  *Classify* picks
        the exit -- ``reconverged`` from the golden timeline, else
        ``full`` after draining the tail -- and :meth:`_finish` reports
        it.  The effaced exits (:data:`EFFACED_EXITS`) read out the
        golden final state; ``full`` reads the live system.
        """
        started = time.perf_counter()
        config = self.config
        self._reassert = None  # installed once the prefix has executed
        telemetry = self.telemetry
        traced = telemetry.enabled
        prefix, window, tail = config.phase_instructions()
        window_close = prefix + window
        total_instructions = window_close + tail

        if traced:
            telemetry.note("run-start", program=config.program,
                           let=config.let, flux=config.flux,
                           fluence=config.fluence, seed=config.seed,
                           recovery=config.recovery,
                           warm=warm is not None)

        # -- plan ------------------------------------------------------------
        model = build_model(config.fault_model, config)
        state = {"executed": 0, "since_flush": 0, "failed": False}
        if warm is not None:
            if warm.key != warm_start_key(config):
                raise ConfigurationError(
                    "warm start was prepared for an incompatible campaign "
                    "configuration")
            spin, result_base = warm.spin_pc, warm.result_base
            state.update(executed=warm.executed,
                         since_flush=warm.since_flush, failed=warm.failed)
        else:
            boot, spin, result_base = _SLOT.boot_image(self)
        system = _SLOT.device(self.leon_config)
        system.bind_telemetry(telemetry)
        # Schedules are a pure function of the beam parameters and the
        # device geometry, and restore() works in place, so the injector
        # stays valid across the restore below.
        injector = FaultInjector(system)
        strikes = model.schedule(injector)
        static = self._statically_masked(warm, model, injector, strikes)
        if not static:
            system.restore(boot if warm is None
                           else _SLOT.warm_snapshot(warm.snapshot))
        if traced:
            telemetry.note("span", phase="setup",
                           wall_s=time.perf_counter() - started,
                           instr=state["executed"])
            if warm is not None:
                self._note_ace(warm)
        if warm is None:
            prefix_started = time.perf_counter()
            self._run_until(system, spin, state, prefix)
            if traced:
                telemetry.note("span", phase="golden-prefix",
                               wall_s=time.perf_counter() - prefix_started,
                               instr=state["executed"])

        # The golden-digest argument ("state match => identical future")
        # only holds for one-shot corruption: a persistent fault keeps
        # re-asserting past any matching boundary, so grading degrades to
        # full execution for non-transient models.
        timeline = warm.timeline \
            if (warm is not None and config.early_exit
                and model.transient) else None
        harvested = dict(_NO_HARVEST)
        recovery = self._make_recovery(system, result_base, warm, harvested)
        self._reassert = None if model.transient \
            else injector.reassert_persistent

        def advance(target: int) -> bool:
            return self._advance(system, spin, state, target, recovery,
                                 harvested, result_base)

        def recovered() -> bool:
            # Runs that recovered are never graded early: their readouts
            # include harvested tallies the golden run does not carry.
            return recovery is not None and bool(recovery.events)

        # -- advance ---------------------------------------------------------
        beam_started = time.perf_counter()
        upsets_by_target: Dict[str, int] = {}
        alive = True
        for strike in strikes:
            strike_at = prefix + min(
                int(strike.time_s * config.instructions_per_second), window)
            if not static:
                alive = advance(strike_at)
                if not alive:
                    break
            if traced:
                telemetry.strike(
                    strike.target, strike.flat_bit,
                    word=model.locate(strike, injector),
                    time_s=strike.time_s, let=config.let, mbu=strike.mbu,
                    instr=strike_at, kind=strike.kind)
            if not static:
                model.apply(strike, injector)
            upsets_by_target[strike.target] = \
                upsets_by_target.get(strike.target, 0) + 1
            if strike.mbu:
                upsets_by_target[strike.target + "+mbu"] = \
                    upsets_by_target.get(strike.target + "+mbu", 0) + 1

        # -- classify --------------------------------------------------------
        # Early-exit grading: once every scheduled strike has been applied
        # the run is strike-free, so an architectural-digest match at any
        # golden checkpoint boundary proves the remaining execution --
        # every instruction, counter freeze, and result-area write -- is
        # exactly the golden run's, and the run can stop there reporting
        # the golden end-of-run readouts.  Counter deltas cannot occur
        # past a match: digest equality implies the suspect sets are
        # empty, and only suspect storage triggers corrections.
        graded: Optional[GoldenCheckpoint] = None
        if not static:
            if (alive and timeline is not None and timeline.checkpoints
                    and not recovered()):
                graded = self._grade(system, state, timeline, advance,
                                     recovered)
                alive = not state["failed"]
            elif alive:
                alive = advance(window_close)
            if traced:
                telemetry.note("span", phase="beam",
                               wall_s=time.perf_counter() - beam_started,
                               instr=state["executed"])
            if graded is None:
                drain_started = time.perf_counter()
                if alive:
                    advance(total_instructions)
                if traced:
                    telemetry.note("span", phase="drain",
                                   wall_s=time.perf_counter() - drain_started,
                                   instr=state["executed"])

        if static or graded is not None:
            # The effaced exits: the rest of the run is the golden run's,
            # so its readouts are the golden final state.
            assert timeline is not None  # both exits came from it
            final = timeline.final
            outcome = dict(sw_errors=final.sw_errors,
                           error_traps=final.error_traps,
                           halted=final.halted, iterations=final.iterations,
                           instructions=final.executed)
            if graded is None:
                outcome.update(exit_reason="static_masked",
                               graded_at_instruction=state["executed"],
                               counts=dict(final.counts),
                               cycles=timeline.end_cycles)
            else:
                outcome.update(exit_reason="reconverged",
                               graded_at_instruction=graded.instruction,
                               counts=self._final_counts(system),
                               cycles=system.perf.cycles
                               + timeline.tail_cycles_from(graded))
        else:
            outcome = dict(_read_results(system, result_base, harvested),
                           exit_reason="full",
                           counts=self._final_counts(system),
                           instructions=state["executed"],
                           cycles=system.perf.cycles)
        return self._finish(outcome, started=started, injector=injector,
                            recovery=recovery,
                            upsets_by_target=upsets_by_target,
                            executed=state["executed"])

    def _statically_masked(self, warm: Optional[WarmStart], model,
                           injector: FaultInjector, strikes) -> bool:
        """Can the run be graded ``static_masked`` without executing it?

        Yes when every scheduled strike lands in a register word the ACE
        map proved dead: the faulted trajectory *is* the golden one,
        instruction for instruction.  Never for a persistent model -- a
        stuck-at/SEFI fault keeps re-asserting, so a word dead at strike
        time is not dead for the rest of the run (lint rule FT701) -- nor
        under a recovery policy.  With lifecycle tracing on, write-only
        ("ambiguous") sites fall back to execution so the traced close
        states stay byte-identical to the oracle's.  Called before the
        restore: locating a strike reads only the device geometry, so the
        device may still hold an earlier run's state.
        """
        config = self.config
        if not (warm is not None and warm.ace is not None
                and warm.timeline is not None
                and model.transient and config.early_exit
                and config.static_grading and self.recovery_policy is None):
            return False
        traced = self.telemetry.enabled
        for strike in strikes:
            claim = warm.ace.classify(strike.target,
                                      model.locate(strike, injector))
            if claim is None or (traced and claim != "latent"):
                return False
        return True

    def _final_counts(self, system: LeonSystem) -> Dict[str, int]:
        """The error-monitor counters the host reads at the end of a run.

        EDAC corrections on external memory are monitor-visible but sit
        outside the Table-2 counters.  Model campaigns fold them in (key
        "EDAC") so the security readout counts an EDAC-caught attack as
        *detected*; default-seu counts stay byte-identical to every
        stored row.
        """
        counts = dict(system.errors.as_dict())
        if self.config.fault_model != "seu" and system.errors.edac_corrected:
            counts["EDAC"] = system.errors.edac_corrected
        return counts

    def _note_ace(self, warm: WarmStart) -> None:
        """Record the warm start's ACE-map summary in the trace.

        Emitted on every traced warm run that carries a map -- whether or
        not static grading consumed it -- so static and oracle traces
        describe the analysis identically and ``repro stats`` can report
        the program's ACE fraction.  A summary of the *analysis*, not a
        grading decision, so FT701's transient gate does not apply.
        """
        telemetry = self.telemetry
        ace = warm.ace  # lint: ok=ace-transient-gate -- reporting only; no grading decision
        if ace is None:
            return
        if not telemetry.enabled:
            return
        telemetry.note(
            "ace", fraction=round(ace.ace_fraction(), 6),
            claimable_words=ace.claimable_words,
            regfile_words=ace.regfile_words,
            fpregs_dead=ace.fpregs_dead,
            window_claims=ace.window_claims)

    def _grade(self, system: LeonSystem, state: Dict,
               timeline: GoldenTimeline,
               advance: Callable[[int], bool],
               recovered: Callable[[], bool],
               ) -> Optional[GoldenCheckpoint]:
        """Walk the golden checkpoint boundaries grading the run.

        Called once every scheduled strike has been applied.  Returns the
        first boundary whose architectural digests the faulted run matches
        (reconverged), or None when the run mismatches through the last
        boundary, fails, or recovers mid-walk (recovered runs carry
        harvested tallies the golden readouts do not).  Each check stops
        at the first component that differs, so a mismatch rarely hashes
        external memory.
        """
        for checkpoint in timeline.checkpoints:
            if checkpoint.instruction < state["executed"]:
                continue
            if not advance(checkpoint.instruction) or recovered():
                return None
            if system.matches_digests(checkpoint.digests):
                return checkpoint
        return None

    def _finish(self, outcome: Dict, *, started: float,
                injector: FaultInjector,
                recovery: Optional[RecoveryController],
                upsets_by_target: Dict[str, int],
                executed: int) -> CampaignResult:
        """Build the run's one result and close its trace.

        *outcome* carries the exit reason and the readouts classification
        chose; *executed* is where execution actually stopped.  The close
        events give each undetected strike its terminal state (latent if
        the corruption is still resident, masked if it was overwritten
        unobserved) -- together with the resolve events this guarantees
        every strike's lifecycle terminates.  A statically-masked run
        closes every upset as latent: a provably-dead word is never
        rewritten either, so the struck word stays resident (suspect),
        exactly the close state the full run would log.
        """
        result = CampaignResult(
            config=self.config,
            upsets=sum(count for name, count in upsets_by_target.items()
                       if not name.endswith("+mbu")),
            upsets_by_target=upsets_by_target,
            wall_seconds=time.perf_counter() - started,
            recoveries=recovery.counts_by_level if recovery else {},
            recovery_downtime=recovery.downtime_by_level if recovery
            else {},
            halts=sum(1 for e in recovery.events
                      if e.kind in ("halt", "watchdog"))
            if recovery else 0,
            unrecovered=recovery.gave_up if recovery else False,
            **outcome,
        )
        telemetry = self.telemetry
        if not telemetry.enabled:
            return result
        static = result.exit_reason == "static_masked"
        if result.exit_reason != "full":
            telemetry.note("early-exit",
                           reason=result.exit_reason.replace("_", "-"),
                           at=result.graded_at_instruction,
                           skipped=result.instructions - executed)
        telemetry.close_open(
            lambda target, word:
            # Model-specific sites outside the SEU registry (SEFI control
            # cells, attack words) stay resident until software or a reset
            # repairs them -- close as latent.
            "latent" if (static or target not in injector.targets
                         or injector.is_latent(target, word)) else "masked",
            instr=result.instructions)
        telemetry.note("run-end", counts=dict(result.counts),
                       upsets=result.upsets, sw_errors=result.sw_errors,
                       error_traps=result.error_traps,
                       halted=result.halted, iterations=result.iterations,
                       instructions=result.instructions,
                       effaced=result.effaced,
                       wall_s=round(result.wall_seconds, 6))
        return result


def prepare_warm_start(config: CampaignConfig, *,
                       checkpoints: int = DEFAULT_CHECKPOINTS) -> WarmStart:
    """Execute the golden prefix once and package it for sharing.

    Runs the fault-free prefix (``beam_delay_s``), snapshots the device,
    then continues the *golden* (strike-free) run through the beam window
    and tail, recording the per-component architectural digests at every
    :func:`~repro.fault.grading.checkpoint_schedule` boundary and the
    final host readouts.  The result is picklable and serves every run
    whose config shares :func:`warm_start_key` -- a whole LET sweep,
    every seed.
    """
    campaign = Campaign(config)
    prefix, window, tail = config.phase_instructions()
    window_close = prefix + window

    system, spin, result_base, program = campaign._build_program()
    state = {"executed": 0, "since_flush": 0, "failed": False}
    campaign._run_until(system, spin, state, prefix)
    snapshot = system.snapshot().to_bytes()
    # The analyzer's entry state is the snapshot state: every warm run
    # restores these bytes, so the static CFG walk starts exactly where
    # execution will.
    entry = entry_context(system)
    executed, since_flush = state["executed"], state["since_flush"]
    failed = state["failed"]

    timeline: Optional[GoldenTimeline] = None
    marks = []
    for boundary in checkpoint_schedule(prefix, window, tail,
                                        count=checkpoints):
        campaign._run_until(system, spin, state, boundary)
        if state["failed"] or state["executed"] != boundary:
            # Parked mid-stretch: the timeline ends here.  Before the
            # window close that kills the golden run (no window-close
            # digest to compare against); in the tail the timeline simply
            # ends early -- a run matching any recorded boundary has the
            # identical (parked) future.
            break
        marks.append(GoldenCheckpoint(instruction=boundary,
                                      digests=system.component_digests(),
                                      cycles=system.perf.cycles))
    if any(mark.instruction == window_close for mark in marks):
        timeline = GoldenTimeline(
            end_cycles=system.perf.cycles,
            checkpoints=tuple(marks),
            final=GoldenRun(executed=state["executed"],
                            counts=dict(system.errors.as_dict()),
                            **_read_results(system, result_base,
                                            _NO_HARVEST)),
        )

    # Static ACE map, computed once per warm start and shipped to every
    # run.  Attached only when the golden run completed *trap-free*
    # (``perf.traps == 0``): the CFG walk treats trap-raising paths as
    # terminal on the strength of that witness -- the golden run proves
    # the program never takes them, and a strike in a dead register
    # cannot steer control onto one (dead means no instruction ever
    # reads the word).  A parked golden run necessarily trapped, so the
    # witness also implies the timeline is complete.
    ace: Optional[AceMap] = None
    if timeline is not None and system.perf.traps == 0:
        ace = analyze_program(program, entry).ace  # lint: ok=ace-transient-gate -- producer; consumers gate per FT701

    return WarmStart(
        key=warm_start_key(config),
        snapshot=snapshot,
        executed=executed,
        since_flush=since_flush,
        failed=failed,
        spin_pc=spin,
        result_base=result_base,
        timeline=timeline,
        ace=ace,
    )
