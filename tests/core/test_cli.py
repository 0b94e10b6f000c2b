"""The command-line interface."""

import os
import re
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.cli import main


def test_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Register file" in out
    assert "+100%" in out


def test_figure2(capsys):
    assert main(["figure2"]) == 0
    out = capsys.readouterr().out
    assert "CHECK" in out and "TRAP" in out


def test_rates_single_environment(capsys):
    assert main(["rates", "--environment", "GEO"]) == 0
    out = capsys.readouterr().out
    assert "GEO" in out and "upsets/day" in out
    assert "LEO-polar" not in out


def test_info(capsys):
    assert main(["info", "--config", "express"]) == 0
    out = capsys.readouterr().out
    assert "leon-express" in out
    assert "TMR flip-flops: True" in out
    assert "apb-bridge" in out or "APB peripherals" in out


def test_run_source_file(tmp_path, capsys):
    source = tmp_path / "prog.s"
    source.write_text("""
        set 0x40100000, %g1
        set 7, %g2
        st %g2, [%g1]
    done:
        ba done
        nop
    """)
    assert main(["run", str(source), "--stop", "done"]) == 0
    out = capsys.readouterr().out
    assert "stopped: stop-pc" in out


def test_run_halting_program_exit_code(tmp_path, capsys):
    source = tmp_path / "crash.s"
    source.write_text("    ta 0\n    nop\n")
    assert main(["run", str(source)]) == 1


def test_campaign(capsys):
    code = main(["campaign", "--program", "cncf", "--let", "60",
                 "--fluence", "300", "--ips", "30000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "X-sect" in out
    assert "failures: 0" in out


def test_campaign_recovery_prints_summary(capsys):
    """The pinned halting scenario: the standard device at LET 110, seed
    16, completes under --recovery ladder and reports the recovery block."""
    code = main(["campaign", "--device", "standard", "--recovery", "ladder",
                 "--let", "110", "--flux", "5000", "--fluence", "10000",
                 "--ips", "30000", "--seed", "16"])
    out = capsys.readouterr().out
    assert code == 1  # the recovered halt still counts as a failure
    assert "recovery summary" in out
    assert "warm-reset" in out or "cold-reboot" in out
    assert "MTTR" in out and "availability" in out


def test_campaign_device_conflicts_with_result_store(tmp_path, capsys):
    code = main(["campaign", "--device", "standard",
                 "--results", str(tmp_path / "runs.jsonl")])
    assert code == 2
    assert "express" in capsys.readouterr().err


def test_availability_analytic_table(capsys):
    assert main(["availability", "--environment", "GEO"]) == 0
    out = capsys.readouterr().out
    assert "LEON-FT" in out and "unprotected" in out
    assert "availability" in out


def test_availability_measured(tmp_path, capsys):
    from repro.fault.campaign import Campaign, CampaignConfig
    from repro.fault.results import ResultStore

    result = Campaign(CampaignConfig(
        program="iutest", seed=3, recovery="ladder", fluence=300.0,
        instructions_per_second=20_000.0)).run()
    result.cycles = 1_000_000
    result.recoveries = {"pipeline-restart": 2, "warm-reset": 1}
    result.recovery_downtime = {"pipeline-restart": 8, "warm-reset": 45_000}
    result.halts = 1
    with ResultStore(str(tmp_path / "meas.jsonl")) as store:
        store.append([result])
    code = main(["availability", "--measured", str(tmp_path / "meas.jsonl")])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured from" in out
    assert "warm-reset" in out
    assert "mean outage" in out
    assert "measured outage" in out


def test_availability_measured_empty_store(tmp_path, capsys):
    assert main(["availability", "--measured",
                 str(tmp_path / "missing.jsonl")]) == 1
    assert "no results" in capsys.readouterr().err


def test_availability_rejects_bad_clock(tmp_path, capsys):
    from repro.fault.campaign import CampaignConfig, CampaignResult
    from repro.fault.results import ResultStore

    log = str(tmp_path / "meas.jsonl")
    with ResultStore(log) as store:
        store.append([CampaignResult(
            config=CampaignConfig(program="iutest", seed=3),
            counts={"Total": 0}, upsets=0, upsets_by_target={},
            sw_errors=0, error_traps=0, halted=False, iterations=1,
            instructions=1_000, wall_seconds=0.0)])
    assert main(["availability", "--measured", log,
                 "--clock-hz", "0"]) == 2
    assert "--clock-hz" in capsys.readouterr().err


def test_campaign_reports_elapsed_wall_throughput(capsys):
    """The throughput line must use batch-elapsed wall time (parallel
    runs overlap; summing per-run times understates by ~--jobs x), and
    report the per-run CPU alongside."""
    code = main(["campaign", "--program", "iutest", "--let", "60",
                 "--fluence", "300", "--ips", "20000",
                 "--runs", "2", "--jobs", "2"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if "host-throughput" in l)
    assert "s wall" in line and "s run CPU" in line
    assert "--jobs 2" in line


def test_campaign_trace_and_trace_stats_subcommands(tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    assert main(["campaign", "--program", "iutest", "--let", "110",
                 "--flux", "400", "--fluence", "600", "--ips", "20000",
                 "--runs", "2", "--jobs", "2", "--trace", trace]) == 0
    capsys.readouterr()

    assert main(["trace", trace]) == 0
    out = capsys.readouterr().out
    assert "upset 0" in out
    assert "without a terminal event" not in out

    assert main(["trace", trace, "--run", "1", "--target",
                 "icache-tag"]) == 0
    out = capsys.readouterr().out
    assert "run 0" not in out

    assert main(["trace", trace, "--events"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(l.startswith("{") for l in lines if l)

    # stats folds the trace alone and must agree with the run readouts.
    assert main(["stats", trace]) == 0
    out = capsys.readouterr().out
    assert "events vs run-end readouts: match" in out
    assert "phase timers" in out


def test_campaign_resume_reuses_zero_upset_run(tmp_path, capsys):
    """A stored run with zero upsets (below-threshold LET) must count as
    done on resume -- the lookup checks for None, not falsiness."""
    log = str(tmp_path / "runs.jsonl")
    base = ["campaign", "--program", "iutest", "--let", "3",
            "--fluence", "200", "--ips", "20000"]
    assert main(base + ["--results", log]) == 0
    out = capsys.readouterr().out
    assert "upsets: 0" in out
    assert len(open(log).readlines()) == 1
    assert main(base + ["--resume", log]) == 0
    out = capsys.readouterr().out
    assert "resume: 1 of 1" in out
    assert "upsets: 0" in out
    assert len(open(log).readlines()) == 1  # nothing re-ran


def test_resumed_trace_continues_run_indices(tmp_path, capsys):
    """Each run's trace index is its place in the config list, so a
    resumed campaign's trace does not restart at run 0."""
    from repro.telemetry import read_trace

    log, trace = str(tmp_path / "runs.jsonl"), str(tmp_path / "trace.jsonl")
    base = ["campaign", "--program", "iutest", "--let", "110",
            "--fluence", "600", "--ips", "20000", "--trace", trace]
    main(base + ["--runs", "2", "--results", log])
    main(base + ["--runs", "4", "--resume", log])
    assert "resume: 2 of 4" in capsys.readouterr().out
    starts = [event["run"] for event in read_trace(trace)
              if event["ev"] == "run-start"]
    assert starts == [0, 1, 2, 3]


def _table2(out: str) -> list:
    """The Table-2 block of a ``campaign`` printout."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("TEST"))
    return lines[start:lines.index("", start)]


def test_killed_campaign_resumes(tmp_path, capsys):
    """SIGKILL ``campaign --results`` mid-run, then ``--resume`` it: the log
    holds every run once and Table 2 matches an uninterrupted campaign."""
    from repro.fault.results import config_key
    from repro.store import load_results

    log = tmp_path / "runs.jsonl"
    # About 0.3 s per run, so the kill lands with runs still to go.
    base = ["campaign", "--program", "iutest", "--let", "110",
            "--fluence", "2500", "--ips", "20000", "--runs", "6"]
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", *base, "--results", str(log)],
        env=env, stdout=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not log.exists() or log.read_text().count("\n") < 2:
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signal.SIGKILL)
    finally:
        child.kill()
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL

    assert main(base + ["--resume", str(log)]) == 0
    resumed = capsys.readouterr().out
    stored = int(re.search(r"resume: (\d+) of 6", resumed).group(1))
    assert 2 <= stored < 6
    assert len({config_key(r.config) for r in load_results(str(log))}) == 6
    assert main(base) == 0
    assert _table2(resumed) == _table2(capsys.readouterr().out)


def test_campaign_warm_start_results_and_resume(tmp_path, capsys):
    log = str(tmp_path / "runs.jsonl")
    base = ["campaign", "--program", "iutest", "--let", "60",
            "--fluence", "150", "--ips", "20000", "--beam-delay", "0.5",
            "--warm-start"]
    assert main(base + ["--runs", "2", "--results", log]) == 0
    capsys.readouterr()
    assert len(open(log).readlines()) == 2
    # Resuming with more replicas reuses the stored two, runs three more.
    assert main(base + ["--runs", "5", "--resume", log]) == 0
    out = capsys.readouterr().out
    assert "resume: 2 of 5" in out
    assert len(open(log).readlines()) == 5


def test_sweep_warm_start(capsys):
    assert main(["sweep", "--program", "iutest", "--lets", "25,60",
                 "--fluence", "150", "--ips", "20000",
                 "--beam-delay", "0.5", "--warm-start"]) == 0
    out = capsys.readouterr().out
    assert "2 LET points" in out


def test_state_save_and_info(tmp_path, capsys):
    path = str(tmp_path / "snap.bin")
    assert main(["state", "save", path, "--program", "iutest",
                 "--instructions", "2000"]) == 0
    assert main(["state", "info", path]) == 0
    out = capsys.readouterr().out
    assert "format version: 1" in out
    assert "regfile" in out
    assert "architectural digest" in out


def test_ingest_results_into_database(tmp_path, capsys):
    log = str(tmp_path / "runs.jsonl")
    db = str(tmp_path / "campaigns.db")
    assert main(["campaign", "--program", "iutest", "--let", "60",
                 "--fluence", "150", "--ips", "20000", "--runs", "2",
                 "--results", log]) == 0
    capsys.readouterr()
    assert main(["ingest", log, "--db", db]) == 0
    out = capsys.readouterr().out
    assert "2 run(s) -> campaign 'runs' (#1)" in out  # stem names it
    # Re-ingest is idempotent: the upsert keeps the same campaign.
    assert main(["ingest", log, "--db", db, "--name", "named"]) == 0

    from repro.store import CampaignDatabase

    with CampaignDatabase(db) as database:
        assert len(database.results(database.campaign_id("runs"))) == 2
        assert len(database.results(database.campaign_id("named"))) == 2


def test_ingest_missing_file_fails(tmp_path, capsys):
    db = str(tmp_path / "campaigns.db")
    assert main(["ingest", str(tmp_path / "absent.jsonl"),
                 "--db", db]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
