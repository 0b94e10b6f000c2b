"""Perf -- fast fault grading: early-exit classification vs full execution.

The paper's beam runs use a fluence of 1e5 ions/cm2, which at realistic
flux means most of a run is *observation*: a long strike-free stretch in
which the device either has reconverged to the golden trajectory or has
diverged for good.  Golden-timeline grading terminates each run at the
first checkpoint whose architectural digest matches the golden run's and
reports the golden end-of-run readouts, so the tail is never re-executed.

This bench measures that at paper-scale fluence: a near-threshold LET
pair (a handful of strikes per run, all early) with an observation tail
~15x the beam window.  Records ``BENCH_grading.json`` (repo root) for CI
regression tracking.

Two assertions:

  * correctness is unconditional: graded results must be byte-identical
    to the full-execution oracle, run for run, at ``jobs=1`` and
    ``jobs=4``;
  * throughput: early-exit grading must be at least 5x faster than the
    warm-start baseline (full execution from the same warm start).
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import write_artifact
from repro.fault.campaign import CampaignConfig, prepare_warm_start
from repro.fault.executor import CampaignExecutor, expand_runs

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_grading.json"

#: Paper-scale fluence near the SEU threshold: few strikes, all inside a
#: beam window dwarfed by the observation tail -- the shape early-exit
#: grading is built for.  The periodic cache flush (section 4.8) is what
#: lets struck runs reconverge instead of carrying latent cache errors.
CONFIG = CampaignConfig(
    program="iutest",
    let=6.0,
    flux=400.0,
    fluence=1.0e5,  # the paper's fluence: 250 beam-s window
    seed=1101,
    instructions_per_second=100.0,
    beam_delay_s=40.0,  # 4k-instruction fault-free prefix
    beam_tail_s=6_000.0,  # 600k-instruction observation tail
    flush_period_instructions=4_000,
)

LETS = (5.0, 6.0)
REPLICAS = 3
CHECKPOINTS = 64


def _configs():
    configs = []
    for let in LETS:
        configs.extend(expand_runs(replace(CONFIG, let=let), REPLICAS))
    return configs


@pytest.fixture(scope="module")
def measurements():
    configs = _configs()

    started = time.perf_counter()
    warm = prepare_warm_start(CONFIG, checkpoints=CHECKPOINTS)
    prepare_wall = time.perf_counter() - started

    # The warm-start baseline: full execution of every run from the same
    # shared snapshot, no grading.  Also the identity oracle.
    oracle_configs = [replace(config, early_exit=False)
                      for config in configs]
    started = time.perf_counter()
    oracle = CampaignExecutor(1).run_many(oracle_configs, warm=warm)
    oracle_wall = time.perf_counter() - started

    started = time.perf_counter()
    fast1 = CampaignExecutor(1).run_many(configs, warm=warm)
    fast1_wall = time.perf_counter() - started

    started = time.perf_counter()
    fast4 = CampaignExecutor(4, chunksize=1).run_many(configs, warm=warm)
    fast4_wall = time.perf_counter() - started

    return (warm, prepare_wall, oracle, oracle_wall,
            fast1, fast1_wall, fast4, fast4_wall)


def test_grading_speedup(benchmark, measurements):
    (warm, prepare_wall, oracle, oracle_wall,
     fast1, fast1_wall, fast4, fast4_wall) = measurements
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    expected = [result.comparable() for result in oracle]
    identical_jobs1 = [r.comparable() for r in fast1] == expected
    identical_jobs4 = [r.comparable() for r in fast4] == expected
    speedup = oracle_wall / fast1_wall if fast1_wall > 0 else 0.0
    reconverged = sum(1 for r in fast1 if r.exit_reason == "reconverged")
    skipped = sum(r.instructions - r.graded_at_instruction
                  for r in fast1 if r.graded_at_instruction is not None)
    benchmark.extra_info["grading_speedup"] = speedup

    prefix, window, tail = CONFIG.phase_instructions()
    record = {
        "runs": len(fast1),
        "lets": list(LETS),
        "fluence": CONFIG.fluence,
        "prefix_instructions": prefix,
        "window_instructions": window,
        "tail_instructions": tail,
        "timeline_checkpoints": len(warm.timeline.checkpoints),
        "prepare_wall_s": round(prepare_wall, 3),
        "full_wall_s": round(oracle_wall, 3),
        "fast_jobs1_wall_s": round(fast1_wall, 3),
        "fast_jobs4_wall_s": round(fast4_wall, 3),
        "speedup": round(speedup, 3),
        "reconverged_runs": reconverged,
        "skipped_instructions": skipped,
        "results_identical": identical_jobs1 and identical_jobs4,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")

    text = (
        "Fast fault grading throughput\n\n"
        f"shape:            {prefix:,}-instr prefix, {window:,}-instr "
        f"window, {tail:,}-instr tail, {len(fast1)} runs\n"
        f"timeline:         {record['timeline_checkpoints']} checkpoints, "
        f"prepared in {prepare_wall:.2f} s\n"
        f"full execution:   {oracle_wall:.2f} s\n"
        f"early-exit:       {fast1_wall:.2f} s (jobs=1), "
        f"{fast4_wall:.2f} s (jobs=4)\n"
        f"speedup:          {speedup:.2f}x   reconverged: "
        f"{reconverged}/{len(fast1)}   skipped: {skipped:,} instr\n"
        f"identical:        jobs=1 {identical_jobs1}, "
        f"jobs=4 {identical_jobs4}\n"
        f"[record: {BENCH_PATH.name}]"
    )
    write_artifact("perf_grading.txt", text)

    assert identical_jobs1, "early-exit diverged from the oracle at jobs=1"
    assert identical_jobs4, "early-exit diverged from the oracle at jobs=4"
    assert reconverged > 0
    assert speedup >= 5.0
