"""Command-line interface: ``python -m repro <command>``.

Subcommands:

    run          assemble and run a SPARC V8 source file on a LEON system
    campaign     heavy-ion campaign runs (Table 2 style rows)
    sweep        cross-section vs LET sweep (Figure 6/7 style curves);
                 ``--importance`` oversamples statically-live sites with
                 Horvitz-Thompson reweighting and per-point CIs
    analyze      static analysis of a test program: CFG with delay
                 slots, liveness, the ACE map campaigns pre-classify
                 against
    trace        pretty-print a campaign telemetry trace (per-upset
                 lifecycle view)
    stats        fold a telemetry trace into Table-2 counters, per-site
                 detection/correction tallies and latency histograms
    state        save or inspect a device snapshot
    table1       print the synthesis-area comparison (Table 1)
    figure2      print the pipeline diagrams (Figure 2)
    rates        on-orbit SEU rate prediction
    availability scheme availability estimates, optionally from measured
                 recovery downtime
    info         describe the simulated device configuration
    serve        campaign service: job queue, HTTP API and dashboard
    ingest       import JSONL result logs / traces into the campaign
                 database the service answers from

``campaign`` and ``sweep`` accept ``--jobs N`` to fan independent runs
across N worker processes; results are identical to ``--jobs 1``.  With
``--warm-start`` (and a ``--beam-delay`` prefix) the fault-free warm-up is
executed once and every run restores from the shared snapshot -- results
are still bit-for-bit identical.  ``campaign --results FILE`` appends each
completed run to a crash-safe JSONL log; ``campaign --resume FILE`` reloads
it and re-runs only what is missing.

``campaign --recovery <policy>`` arms a system-level recovery ladder
(pipeline restart, cache flush, watchdog-triggered warm reset, cold
reboot) so runs survive error-mode halts; ``availability --measured FILE``
folds the recorded downtime back into the orbital availability estimate.

``campaign --trace FILE`` records every run's SEU lifecycle events
(strike -> detection -> resolution) plus phase timers to a crash-safe
JSONL trace; ``trace FILE`` pretty-prints it and ``stats FILE`` folds it
back into the paper's counter readouts.  Measured results are
byte-identical with tracing on or off.

``serve`` runs the campaign service: POST a campaign spec to
``/api/jobs``, poll the job id, read Table-2 folds / cross-section
curves / availability / diffs back over HTTP -- numbers byte-identical
to the CLI's, because both sit on the same :mod:`repro.store` query
layer.  ``ingest`` imports existing JSONL logs into the service's
database idempotently.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.alternatives.availability import (
    DEFAULT_CLOCK_HZ,
    compare_schemes,
    estimate_with_measured_outage,
    measure_availability,
)
from repro.alternatives.schemes import all_schemes
from repro.errors import ConfigurationError
from repro.area.model import TimingModel, table1
from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    prepare_warm_start,
    resolve_builder,
)
from repro.fault.crosssection import DEFAULT_LETS, measure_curve, render_curve
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    run_campaign,
    run_campaign_traced,
)
from repro.fault.report import (
    render_recovery_summary,
    render_table,
    render_table2,
)
from repro.fault.models import classify_outcome, model_names, security_fold
from repro.fault.rates import ENVIRONMENTS, RatePredictor
from repro.fault.results import ResultStore, config_key
from repro.iu.pipetrace import PipelineTracer
from repro.recovery import POLICIES
from repro.sparc.asm import assemble
from repro.state.snapshot import Snapshot
from repro.store import load_results, split_pending
from repro.telemetry import (
    JsonlTraceSink,
    fold_stats,
    lifecycles,
    read_trace,
    render_lifecycle,
    render_stats,
)

_CONFIGS = {
    "standard": LeonConfig.standard,
    "ft": LeonConfig.fault_tolerant,
    "express": LeonConfig.leon_express,
}


def _let_list(text: str):
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}")


def _add_config_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", choices=sorted(_CONFIGS), default="ft",
                        help="device configuration (default: ft)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LEON-FT: fault-tolerant SPARC V8 processor simulator",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="assemble and run a source file")
    run.add_argument("source", help="SPARC V8 assembly file")
    run.add_argument("--base", type=lambda v: int(v, 0), default=0x40000000)
    run.add_argument("--max-instructions", type=int, default=1_000_000)
    run.add_argument("--entry", default=None,
                     help="start label (default: image base)")
    run.add_argument("--stop", default=None, help="stop label")
    _add_config_argument(run)

    campaign = subparsers.add_parser("campaign", help="beam campaign runs")
    campaign.add_argument("--program", default="iutest",
                          help="test program: iutest, paranoia, cncf or "
                               "random:<seed> (default: iutest)")
    campaign.add_argument("--fault-model", choices=model_names(),
                          default="seu",
                          help="fault model injected by the campaign "
                               "(default: seu, the transient bit-flip "
                               "beam)")
    campaign.add_argument("--let", type=float, default=110.0)
    campaign.add_argument("--flux", type=float, default=400.0)
    campaign.add_argument("--fluence", type=float, default=2.0e3)
    campaign.add_argument("--seed", type=int, default=1)
    campaign.add_argument("--ips", type=float, default=50_000.0,
                          help="virtual device instructions per beam second")
    campaign.add_argument("--runs", type=int, default=1,
                          help="independent replicas (derived seeds)")
    campaign.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default: serial)")
    campaign.add_argument("--beam-delay", type=float, default=0.0,
                          help="fault-free warm-up before the beam opens "
                               "(beam seconds)")
    campaign.add_argument("--beam-tail", type=float, default=0.0,
                          help="strike-free stretch after the beam closes "
                               "(beam seconds)")
    campaign.add_argument("--warm-start", action="store_true",
                          help="execute the warm-up once, fork every run "
                               "from the snapshot (results unchanged)")
    campaign.add_argument("--flush-period", type=int, default=0,
                          help="periodic cache flush, in instructions "
                               "(section 4.8; 0 = never)")
    campaign.add_argument("--no-early-exit", action="store_true",
                          help="disable golden-timeline early-exit grading: "
                               "run every campaign to program end (the slow "
                               "oracle path; results are identical)")
    campaign.add_argument("--no-static", action="store_true",
                          help="disable static pre-classification of "
                               "provably-dead transient strikes (the "
                               "executed oracle path; results are "
                               "identical)")
    campaign.add_argument("--results", metavar="FILE", default=None,
                          help="append completed runs to a JSONL result log")
    campaign.add_argument("--resume", metavar="FILE", default=None,
                          help="reload a JSONL result log, run only the "
                               "missing seeds, append them to it")
    campaign.add_argument("--recovery", choices=sorted(POLICIES),
                          default="none",
                          help="system-level recovery policy: keep running "
                               "through error-mode halts and uncorrectable "
                               "traps (default: none)")
    campaign.add_argument("--device", choices=sorted(_CONFIGS),
                          default="express",
                          help="device configuration (default: express; "
                               "--results/--resume require express)")
    campaign.add_argument("--trace", metavar="FILE", default=None,
                          help="record per-upset lifecycle events and "
                               "phase timers to a JSONL telemetry trace "
                               "(results unchanged)")

    attack = subparsers.add_parser(
        "attack", help="targeted fault attack: detected / silent / "
                       "masked security readout")
    attack.add_argument("--program", default="iutest",
                        help="test program: iutest, paranoia, cncf or "
                             "random:<seed> (default: iutest)")
    attack.add_argument("--skip-at", metavar="PC", default=None,
                        help="instruction-skip attack: overwrite the word "
                             "at PC (hex address or program symbol) with "
                             "a NOP")
    attack.add_argument("--opcode-at", metavar="PC", default=None,
                        help="opcode-corruption attack: flip one bit of "
                             "the word at PC (hex address or program "
                             "symbol)")
    attack.add_argument("--window", type=int, default=1,
                        help="attack window in words starting at PC; each "
                             "run's seed picks one word (default: 1)")
    attack.add_argument("--bit", type=int, default=None,
                        help="opcode bit to flip (default: seed-chosen)")
    attack.add_argument("--at", type=float, default=0.5,
                        help="attack time into the beam window, seconds "
                             "(default: 0.5)")
    attack.add_argument("--runs", type=int, default=8,
                        help="independent replicas (derived seeds sweep "
                             "the window; default: 8)")
    attack.add_argument("--seed", type=int, default=1)
    attack.add_argument("--fluence", type=float, default=2.0e3)
    attack.add_argument("--flux", type=float, default=400.0)
    attack.add_argument("--ips", type=float, default=50_000.0,
                        help="virtual device instructions per beam second")
    attack.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: serial)")
    attack.add_argument("--recovery", choices=sorted(POLICIES),
                        default="none")
    attack.add_argument("--results", metavar="FILE", default=None,
                        help="append completed runs to a JSONL result log")

    trace = subparsers.add_parser(
        "trace", help="pretty-print a campaign telemetry trace")
    trace.add_argument("file", help="JSONL trace written by campaign --trace")
    trace.add_argument("--run", type=int, default=None,
                       help="only this run index")
    trace.add_argument("--target", default=None,
                       help="only upsets striking this target")
    trace.add_argument("--state", default=None,
                       help="only upsets with this terminal state "
                            "(e.g. refetch, pipeline-restart, trap, "
                            "latent, masked)")
    trace.add_argument("--events", action="store_true",
                       help="dump the raw event lines instead of the "
                            "lifecycle view")

    stats = subparsers.add_parser(
        "stats", help="fold a telemetry trace into counter readouts")
    stats.add_argument("file", help="JSONL trace written by campaign --trace")

    sweep = subparsers.add_parser("sweep", help="cross-section vs LET sweep")
    sweep.add_argument("--program", default="iutest",
                       help="test program: iutest, paranoia, cncf or "
                            "random:<seed> (default: iutest)")
    sweep.add_argument("--lets", type=_let_list, default=None,
                       help="comma-separated LET points "
                            "(default: the paper's 6..110 ladder)")
    sweep.add_argument("--flux", type=float, default=400.0)
    sweep.add_argument("--fluence", type=float, default=2.0e3)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument("--ips", type=float, default=50_000.0,
                       help="virtual device instructions per beam second")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: serial)")
    sweep.add_argument("--beam-delay", type=float, default=0.0,
                       help="fault-free warm-up before the beam opens "
                            "(beam seconds)")
    sweep.add_argument("--beam-tail", type=float, default=0.0,
                       help="strike-free stretch after the beam closes "
                            "(beam seconds)")
    sweep.add_argument("--warm-start", action="store_true",
                       help="execute the warm-up once, fork every LET point "
                            "from the snapshot (curve unchanged)")
    sweep.add_argument("--no-early-exit", action="store_true",
                       help="disable golden-timeline early-exit grading "
                            "(the slow oracle path; curve unchanged)")
    sweep.add_argument("--importance", action="store_true",
                       help="importance-sample the sweep: strikes land "
                            "only on statically-live sites (the seu-live "
                            "model), counts are Horvitz-Thompson "
                            "reweighted, points carry 95%% CIs")

    analyze = subparsers.add_parser(
        "analyze", help="static analysis of an assembled test program: "
                        "CFG, liveness, ACE map")
    analyze.add_argument("program", nargs="?", default="iutest",
                         help="test program: iutest, paranoia, cncf or "
                              "random:<seed> (default: iutest)")
    analyze.add_argument("--device", choices=sorted(_CONFIGS),
                         default="express",
                         help="device configuration analyzed against "
                              "(default: express, the campaign default)")
    analyze.add_argument("--boot", type=int, default=2000, metavar="N",
                         help="execute N instructions before reading the "
                              "entry state (default: 2000, past the "
                              "trap-table/window setup -- the state a "
                              "warmed campaign analyzes; 0 analyzes the "
                              "load-time entry, which degrades on the "
                              "boot code's wrwim)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the full analysis as JSON instead of "
                              "the text report")
    analyze.add_argument("--report", metavar="FILE", default=None,
                         help="also write the JSON analysis to FILE")

    state = subparsers.add_parser(
        "state", help="save or inspect a device snapshot")
    state.add_argument("action", choices=["save", "info"])
    state.add_argument("file", help="snapshot file path")
    state.add_argument("--program", default="iutest",
                       choices=["iutest", "paranoia", "cncf"],
                       help="test program to run before saving")
    state.add_argument("--instructions", type=int, default=10_000,
                       help="instructions to execute before saving")
    _add_config_argument(state)

    subparsers.add_parser("table1", help="print the Table 1 area comparison")
    subparsers.add_parser("figure2", help="print the Figure 2 diagrams")

    rates = subparsers.add_parser("rates", help="on-orbit SEU rate prediction")
    rates.add_argument("--environment", choices=sorted(ENVIRONMENTS),
                       default=None, help="default: all environments")

    avail = subparsers.add_parser(
        "availability", help="scheme availability estimates")
    avail.add_argument("--environment", choices=sorted(ENVIRONMENTS),
                       default="GEO", help="orbital environment "
                                           "(default: GEO)")
    avail.add_argument("--measured", metavar="FILE", default=None,
                       help="JSONL result log of a campaign run with "
                            "--recovery; replaces the analytic outage "
                            "constant with the measured mean outage")
    avail.add_argument("--clock-hz", type=float, default=DEFAULT_CLOCK_HZ,
                       help="device clock for cycle-to-seconds conversion "
                            f"(default: {DEFAULT_CLOCK_HZ:.0f})")

    info = subparsers.add_parser("info", help="describe the device")
    _add_config_argument(info)

    serve = subparsers.add_parser(
        "serve", help="campaign service: job queue, HTTP API + dashboard")
    serve.add_argument("--db", default="campaigns.db", metavar="FILE",
                       help="campaign database (default: campaigns.db)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port (default: 8321)")
    serve.add_argument("--jobs", type=int, default=1,
                       help="worker processes per campaign job "
                            "(default: serial)")

    ingest = subparsers.add_parser(
        "ingest", help="import JSONL result logs / telemetry traces "
                       "into the campaign database")
    ingest.add_argument("files", nargs="+",
                        help="JSONL files written by campaign "
                             "--results / --trace")
    ingest.add_argument("--db", default="campaigns.db", metavar="FILE",
                        help="campaign database (default: campaigns.db)")
    ingest.add_argument("--name", default=None,
                        help="campaign name (default: each file's stem); "
                             "with several files, merges them into one "
                             "campaign")
    ingest.add_argument("--trace", action="store_true",
                        help="the files are telemetry traces, not result "
                             "logs")

    lint = subparsers.add_parser(
        "lint", help="FT-invariant static analysis (and runtime audit)")
    lint.add_argument("paths", nargs="*", default=None,
                      help="files or directories to lint "
                           "(default: the installed repro package)")
    lint.add_argument("--audit", action="store_true",
                      help="also instantiate a live system and cross-check "
                           "snapshot round-trips, fault-space coverage and "
                           "the RESET_SKIP contract")
    lint.add_argument("--report", metavar="FILE", default=None,
                      help="write the findings as a JSON report")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      help="stdout format (default: text)")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="include suppressed findings in the text output")
    lint.add_argument("--list-rules", action="store_true",
                      help="describe every rule and exit")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    with open(args.source) as handle:
        source = handle.read()
    program = assemble(source, base=args.base)
    system = LeonSystem(_CONFIGS[args.config]())
    system.load_program(program)
    if args.entry:
        entry = program.address_of(args.entry)
        system.special.pc, system.special.npc = entry, entry + 4
    stop_pc = program.address_of(args.stop) if args.stop else None
    result = system.run(args.max_instructions, stop_pc=stop_pc)
    print(f"stopped: {result.stop_reason} at pc={result.pc:#010x} "
          f"({result.instructions} instructions, {result.cycles} cycles, "
          f"IPC {system.perf.ipc:.2f})")
    if system.errors.total:
        print(f"corrected SEU errors: {system.errors.as_dict()}")
    output = system.uart_output()
    if output:
        print(f"uart: {output!r}")
    return 0 if result.stop_reason != "halted" else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    store_path = args.resume or args.results
    if args.device != "express" and store_path:
        print("error: --results/--resume store only the default (express) "
              "device; drop --device or the store option", file=sys.stderr)
        return 2
    # "express" maps to leon=None (the campaign default) so result-store
    # keys stay identical to pre---device logs.
    leon = None if args.device == "express" else _CONFIGS[args.device]()
    config = CampaignConfig(
        program=args.program, let=args.let, flux=args.flux,
        fluence=args.fluence, seed=args.seed,
        instructions_per_second=args.ips,
        flush_period_instructions=args.flush_period,
        beam_delay_s=args.beam_delay, beam_tail_s=args.beam_tail,
        recovery=args.recovery, leon=leon,
        early_exit=not args.no_early_exit,
        static_grading=not args.no_static,
        fault_model=args.fault_model,
    )
    configs = expand_runs(config, args.runs)

    store = done = None
    pending = configs
    if store_path:
        store = ResultStore(store_path)
    if args.resume:
        done, pending = split_pending(args.resume, configs)
        if done:
            print(f"resume: {len(done)} of {len(configs)} run(s) already "
                  f"in {args.resume}")

    trace_sink = JsonlTraceSink(args.trace) if args.trace else None
    runner = run_campaign_traced if trace_sink is not None else run_campaign
    # A run's trace index is its place in the config list, so a resumed
    # campaign's trace continues the interrupted one's numbering.
    run_indices = iter([index for index, cfg in enumerate(configs)
                        if not done or config_key(cfg) not in done])

    def on_results(batch):
        # The executor delivers batches in config order (both paths), so
        # run indices -- and the trace file -- are jobs-invariant.
        if store is not None:
            store.append(batch)
        if trace_sink is not None:
            for result in batch:
                trace_sink.write_run(result.trace or [], run=next(run_indices))

    started = time.perf_counter()
    warm = None
    if args.warm_start and pending:
        warm = prepare_warm_start(config)
    try:
        fresh = (CampaignExecutor(args.jobs, runner=runner).run_many(
            pending, warm=warm, on_results=on_results) if pending else [])
    finally:
        if store is not None:
            store.close()
        if trace_sink is not None:
            trace_sink.close()
    elapsed = time.perf_counter() - started

    if done:
        # Explicit None check: a stored result is a hit even if falsy.
        fresh_iter = iter(fresh)
        results = []
        for cfg in configs:
            stored = done.get(config_key(cfg))
            results.append(stored if stored is not None
                           else next(fresh_iter))
    else:
        results = fresh
    print(render_table2(results))
    if args.recovery != "none":
        print()
        print(render_recovery_summary(results))
    if args.fault_model != "seu":
        print()
        print(_render_security(results))
    upsets = sum(result.upsets for result in results)
    failures = sum(result.failures for result in results)
    iterations = sum(result.iterations for result in results)
    # True aggregate throughput: fresh instructions over the elapsed wall
    # of the whole batch (parallel runs overlap, so summing per-run wall
    # times would understate it by ~--jobs x).  The per-run times are
    # still reported, as the aggregate CPU figure.
    instructions = sum(result.instructions for result in fresh)
    run_cpu = sum(result.wall_seconds for result in fresh)
    ips = instructions / elapsed if elapsed > 0 and fresh else 0.0
    print(f"\nupsets: {upsets}  failures: {failures}  "
          f"iterations: {iterations}  host-throughput: {ips:,.0f} instr/s "
          f"({elapsed:.2f}s wall, {run_cpu:.2f}s run CPU, "
          f"--jobs {args.jobs})")
    if warm is not None:
        reconverged = sum(1 for result in fresh
                          if result.exit_reason == "reconverged")
        skipped = sum(result.instructions - result.graded_at_instruction
                      for result in fresh
                      if result.graded_at_instruction is not None)
        print(f"early-exit: {reconverged}/{len(fresh)} run(s) reconverged "
              f"to the golden timeline, {skipped:,} instruction(s) skipped")
        static = sum(1 for result in fresh
                     if result.exit_reason == "static_masked")
        if warm.ace is not None:
            print(f"static: ACE fraction "
                  f"{warm.ace.ace_fraction():.3f} "
                  f"({warm.ace.claimable_words}/{warm.ace.regfile_words} "
                  f"words claimed dead); {static}/{len(fresh)} run(s) "
                  f"graded without execution")
    return 0 if failures == 0 else 1


def _render_security(results) -> str:
    """The detected / silent / masked fold, one line per fault model."""
    lines = ["security readout (detected / silent / masked):"]
    for model, fold in sorted(security_fold(results).items()):
        lines.append(f"  {model:<17} detected {fold['detected']:<4} "
                     f"silent {fold['silent']:<4} masked {fold['masked']}")
    return "\n".join(lines)


def _resolve_pc(spec: str, program: str) -> int:
    """An attack PC: a numeric address or a symbol of the test program."""
    try:
        return int(spec, 0)
    except ValueError:
        pass
    built, _expected = resolve_builder(program)(None)
    if spec not in built.symbols:
        raise ConfigurationError(
            f"{spec!r} is neither an address nor a symbol of {program} "
            f"(known: {', '.join(sorted(built.symbols))})")
    return built.symbols[spec]


def _cmd_attack(args: argparse.Namespace) -> int:
    if bool(args.skip_at) == bool(args.opcode_at):
        print("error: choose exactly one of --skip-at / --opcode-at",
              file=sys.stderr)
        return 2
    spec = args.skip_at or args.opcode_at
    model = "instruction-skip" if args.skip_at else "opcode"
    pc = _resolve_pc(spec, args.program)
    fault_params = {"pc": pc, "window": args.window, "time_s": args.at}
    if args.bit is not None:
        fault_params["bit"] = args.bit
    config = CampaignConfig(
        program=args.program, flux=args.flux, fluence=args.fluence,
        seed=args.seed, instructions_per_second=args.ips,
        recovery=args.recovery, fault_model=model,
        fault_params=fault_params,
    )
    configs = expand_runs(config, args.runs)
    store = ResultStore(args.results) if args.results else None
    try:
        results = CampaignExecutor(args.jobs).run_many(
            configs, on_results=(store.append if store else None))
    finally:
        if store is not None:
            store.close()
    print(f"{model} attack on {args.program} at {pc:#010x}"
          + (f" (window {args.window} words)" if args.window > 1 else ""))
    print()
    rows = []
    for index, result in enumerate(results):
        rows.append({
            "run": index,
            "outcome": classify_outcome(result),
            "errors": result.counts.get("Total", 0),
            "traps": result.error_traps,
            "sw_errors": result.sw_errors,
            "iterations": result.iterations,
            "exit": result.exit_reason or "full",
        })
    print(render_table(rows, ["run", "outcome", "errors", "traps",
                              "sw_errors", "iterations", "exit"]))
    print()
    print(_render_security(results))
    fold = security_fold(results).get(model, {})
    # Silent architectural corruption is the security failure mode.
    return 1 if fold.get("silent") else 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    lets = args.lets or DEFAULT_LETS
    started = time.perf_counter()
    curve = measure_curve(
        args.program, lets=lets, flux=args.flux, fluence=args.fluence,
        seed=args.seed, instructions_per_second=args.ips, jobs=args.jobs,
        warm_start=args.warm_start, beam_delay_s=args.beam_delay,
        beam_tail_s=args.beam_tail, early_exit=not args.no_early_exit,
        importance=args.importance,
    )
    wall = time.perf_counter() - started
    print(render_curve(curve))
    if args.importance:
        print("\nimportance sampling (seu-live; device totals, per bit):")
        for point in curve.points["Total"]:
            print(f"  LET {point.let:6.1f}  rho {point.weight:.3f}  "
                  f"sigma {point.sigma_per_bit:.2e}  95% CI "
                  f"[{point.ci_low:.2e}, {point.ci_high:.2e}]  "
                  f"({point.count} event(s))")
    print(f"\n{len(lets)} LET points in {wall:.1f}s wall "
          f"(--jobs {args.jobs})")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.program import analyze_system, render_report

    leon = None if args.device == "express" else _CONFIGS[args.device]()
    campaign = Campaign(CampaignConfig(program=args.program, leon=leon))
    system, spin, _base, program = campaign._build_program()
    if args.boot:
        system.run(args.boot, stop_pc=spin)
    analysis = analyze_system(system, program, name=args.program)
    report = json.dumps(analysis.as_dict(), indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report + "\n")
    if args.json:
        print(report)
    else:
        print(render_report(analysis))
    return 0


def _cmd_state(args: argparse.Namespace) -> int:
    if args.action == "info":
        with open(args.file, "rb") as handle:
            snap = Snapshot.from_bytes(handle.read())
        print(f"format version: {snap.version}")
        print(f"components: {', '.join(snap.components)}")
        print(f"architectural digest: {snap.digest()}")
        print(f"full digest:          {snap.digest(architectural=False)}")  # lint: ok=det-digest-diag -- display-only, never compared
        return 0
    campaign = Campaign(CampaignConfig(program=args.program,
                                       leon=_CONFIGS[args.config]()))
    system, spin, _base, _program = campaign._build_program()
    run = system.run(args.instructions, stop_pc=spin)
    data = system.snapshot().to_bytes()
    with open(args.file, "wb") as handle:
        handle.write(data)
    print(f"wrote {len(data)} bytes: {args.program} after "
          f"{run.instructions} instructions, "
          f"digest {system.state_digest()[:16]}...")
    return 0


def _cmd_table1(_args: argparse.Namespace) -> int:
    breakdown = table1()
    rows = breakdown.as_rows()
    print(render_table(rows, ["Module", "Area (mm2)", "Area incl. FT",
                              "Increase"]))
    timing = TimingModel()
    print(f"\nlogic-only: +{breakdown.logic_only().increase_percent:.0f}%  "
          f"voter penalty: {timing.penalty_fraction * 100:.0f}%")
    return 0


def _cmd_figure2(_args: argparse.Namespace) -> int:
    print(PipelineTracer().render_all())
    return 0


def _cmd_rates(args: argparse.Namespace) -> int:
    predictor = RatePredictor()
    names = [args.environment] if args.environment else sorted(ENVIRONMENTS)
    rows = []
    for name in names:
        rates = predictor.predict(name)
        rows.append({
            "environment": name,
            "upsets/day": f"{rates.upsets_per_day:.3f}",
            "interval (h)": f"{rates.seconds_between_upsets / 3600:.1f}",
            "unprotected MTTF (d)":
                f"{predictor.unprotected_failure_interval_days(name):.1f}",
        })
    print(render_table(rows, ["environment", "upsets/day", "interval (h)",
                              "unprotected MTTF (d)"]))
    return 0


def _cmd_availability(args: argparse.Namespace) -> int:
    estimates = compare_schemes(args.environment)
    rows = []
    for name in sorted(estimates):
        est = estimates[name]
        rows.append({
            "scheme": name,
            "coverage": f"{est.covered_fraction * 100:.1f}%",
            "failures/day": f"{est.failures_per_day:.4f}",
            "outage s/day": f"{est.outage_seconds_per_day:.3f}",
            "availability": f"{est.availability:.6f}",
        })
    print(f"environment: {args.environment}  (analytic outage model)")
    print(render_table(rows, ["scheme", "coverage", "failures/day",
                              "outage s/day", "availability"]))

    if not args.measured:
        return 0

    results = load_results(args.measured)
    if not results:
        print(f"\nno results in {args.measured}", file=sys.stderr)
        return 1
    try:
        measured = measure_availability(results, clock_hz=args.clock_hz)
    except ValueError as exc:
        print(f"error: argument --clock-hz: {exc}", file=sys.stderr)
        return 2
    print(f"\nmeasured from {args.measured} "
          f"({measured.runs} run(s) at {args.clock_hz:.0f} Hz)")
    for level in ("pipeline-restart", "cache-flush", "warm-reset",
                  "cold-reboot"):
        if level not in measured.recoveries:
            continue
        print(f"  {level:<17} x{measured.recoveries[level]:<5} "
              f"{measured.downtime_by_level.get(level, 0.0):.6f} s")
    print(f"  in-beam availability  {measured.availability:.6f}")
    print(f"  MTTR                  {measured.mttr_seconds:.6f} s")
    print(f"  mean outage           {measured.mean_outage_seconds:.6f} s")
    leon_ft = next(s for s in all_schemes() if s.name == "LEON-FT")
    remeasured = estimate_with_measured_outage(
        leon_ft, measured, args.environment)
    print(f"\nLEON-FT with the measured outage replacing the analytic "
          f"constant:")
    print(f"  outage s/day          {remeasured.outage_seconds_per_day:.6f}")
    print(f"  availability          {remeasured.availability:.6f}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    config = _CONFIGS[args.config]()
    system = LeonSystem(config)
    print(f"configuration: {config.name}")
    print(f"  register windows: {config.nwindows} "
          f"({config.regfile_words} x 32 registers)")
    print(f"  icache: {config.icache.size_bytes // 1024} KiB, "
          f"{config.icache.line_bytes}-byte lines, "
          f"parity: {config.icache.parity.value}")
    print(f"  dcache: {config.dcache.size_bytes // 1024} KiB, "
          f"{config.dcache.line_bytes}-byte lines, "
          f"parity: {config.dcache.parity.value}")
    print(f"  regfile protection: {config.ft.regfile_protection.value}"
          f"{' (duplicated 2-port RAMs)' if config.ft.regfile_duplicated else ''}")
    print(f"  TMR flip-flops: {config.ft.tmr_flipflops} "
          f"({system.ffbank.total_bits} architectural bits)")
    print(f"  EDAC external memory: {config.memory.edac}")
    print(f"  FPU: {config.has_fpu}")
    print("  AHB slaves: " + ", ".join(
        f"{slave.name}@{slave.base:#010x}" for slave in system.bus.slaves()))
    print("  APB peripherals: " + ", ".join(
        slave.name for slave in system.apb.slaves()))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    events = read_trace(args.file)
    if args.events:
        import json

        for event in events:
            print(json.dumps(event, sort_keys=True))
        return 0
    lives = lifecycles(events)
    if args.run is not None:
        lives = [life for life in lives if life.run == args.run]
    if args.target:
        lives = [life for life in lives if life.target == args.target]
    if args.state:
        lives = [life for life in lives if life.state == args.state]
    for life in lives:
        print(render_lifecycle(life))
        print()
    open_lives = [life for life in lives if not life.terminal]
    print(f"{len(lives)} upset(s)" +
          (f", {len(open_lives)} without a terminal event"
           if open_lives else ""))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = fold_stats(read_trace(args.file))
    print(render_stats(stats))
    return 0 if stats.consistent else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import serve

    serve(args.db, host=args.host, port=args.port, jobs=args.jobs)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.store import CampaignDatabase

    import os

    status = 0
    with CampaignDatabase(args.db) as db:
        for path in args.files:
            try:
                # The JSONL readers tolerate a missing file (a resume
                # convenience); an ingest of one is a typo, not a
                # campaign.
                if not os.path.isfile(path):
                    raise OSError("no such file")
                if args.trace:
                    campaign, count = db.ingest_trace(path, name=args.name)
                    unit = "event(s)"
                else:
                    campaign, count = db.ingest_results(path, name=args.name)
                    unit = "run(s)"
            except (OSError, ConfigurationError) as exc:
                print(f"error: {path}: {exc}", file=sys.stderr)
                status = 1
                continue
            name = next(row["name"] for row in db.campaigns()
                        if row["id"] == campaign)
            print(f"{path}: {count} {unit} -> campaign "
                  f"'{name}' (#{campaign}) in {args.db}")
    return status


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.analysis import all_rules, analyze_paths, render_json, \
        render_text
    from repro.analysis.audit import render_audit_text, run_audit
    from repro.analysis.core import iter_python_files

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code} {rule.name}: {rule.protects}")
        return 0

    paths = ([Path(path) for path in args.paths] if args.paths
             else [Path(repro.__file__).parent])
    findings = analyze_paths(paths)
    files = sum(1 for _ in iter_python_files(paths))

    audit_result = None
    if args.audit:
        audit_result = run_audit()

    report = render_json(findings, files=files, audit=audit_result)
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report + "\n")

    if args.format == "json":
        print(report)
    else:
        print(render_text(findings, show_suppressed=args.show_suppressed))
        if audit_result is not None:
            print(render_audit_text(audit_result))

    active = sum(1 for finding in findings if not finding.suppressed)
    audit_ok = audit_result is None or audit_result["ok"]
    return 0 if active == 0 and audit_ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "attack": _cmd_attack,
    "trace": _cmd_trace,
    "stats": _cmd_stats,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "state": _cmd_state,
    "table1": _cmd_table1,
    "figure2": _cmd_figure2,
    "rates": _cmd_rates,
    "availability": _cmd_availability,
    "info": _cmd_info,
    "serve": _cmd_serve,
    "ingest": _cmd_ingest,
    "lint": _cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
