#!/usr/bin/env python
"""CI attack smoke: a tiny instruction-skip campaign with a stable fold.

Resolves the ``iutest_iteration`` symbol of the pinned test program,
runs a short ``instruction-skip`` attack campaign over a 16-instruction
window (8 seeded replicas) serially and fanned across worker processes,
and checks that

  * the two executions are byte-identical, field for field;
  * every run classifies as detected / silent / masked (nothing halts
    unrecovered) and the fold matches the pinned expectation -- the
    attack either lands (silent data corruption the security readout
    must surface) or falls in a dead slot (masked);
  * at least one run is *silent*: the whole point of the readout is
    that instruction-skip at a checksum site evades the FT fabric;
  * ``build_job_request`` refuses an attack job that names no valid
    site (no ``pc``, a ``pc`` outside SRAM, a window crossing the end of
    SRAM) before any run.

Exit code 1 on any violation.  This is the fast always-on guard for the
fault-model layer and the ``repro attack`` code path.

Usage: PYTHONPATH=src python scripts/attack_smoke.py
"""

import sys

from repro.core.config import LeonConfig
from repro.fault.campaign import CampaignConfig, resolve_builder
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.fault.models import security_fold
from repro.service.api import build_job_request

JOB_COUNTS = (1, 2)
RUNS = 8
#: Pinned fold for the parameters below.  Stability across --jobs and
#: across commits is the contract; update deliberately, with the diff
#: explained, if the program image or derivation chain changes.
EXPECTED_FOLD = {"instruction-skip": {"detected": 0, "silent": 8,
                                      "masked": 0}}


def main() -> int:
    built, _expected = resolve_builder("iutest")(None)
    pc = built.symbols["iutest_iteration"]
    base = CampaignConfig(
        program="iutest",
        fluence=2_000.0,
        flux=400.0,
        seed=2026,
        instructions_per_second=50_000.0,
        fault_model="instruction-skip",
        fault_params={"pc": pc, "window": 16, "time_s": 0.5},
    )
    configs = expand_runs(base, RUNS)

    runs = {jobs: CampaignExecutor(jobs, chunksize=1).run_many(configs)
            for jobs in JOB_COUNTS}
    baseline = runs[JOB_COUNTS[0]]

    failed = False
    comparable = [r.comparable() for r in baseline]
    for jobs in JOB_COUNTS[1:]:
        if [r.comparable() for r in runs[jobs]] != comparable:
            print(f"FAIL: --jobs {jobs} results differ from "
                  f"--jobs {JOB_COUNTS[0]}")
            failed = True
        else:
            print(f"--jobs {jobs} identical to --jobs {JOB_COUNTS[0]}: OK")

    for result in baseline:
        print(f"seed {result.config.seed}: sw_errors {result.sw_errors}, "
              f"errors {sum(result.counts.values())}, "
              f"halted={result.halted}, unrecovered={result.unrecovered}")
        if result.halted or result.unrecovered:
            print(f"  FAIL: seed {result.config.seed} did not complete")
            failed = True

    fold = {model: dict(outcomes)
            for model, outcomes in security_fold(baseline).items()}
    print(f"security fold: {fold}")
    if fold != EXPECTED_FOLD:
        print(f"FAIL: fold drifted from pinned expectation "
              f"{EXPECTED_FOLD}")
        failed = True
    if not fold.get("instruction-skip", {}).get("silent"):
        print("FAIL: no silent run -- the attack never evaded detection, "
              "the readout has nothing to surface")
        failed = True

    memory = LeonConfig.leon_express().memory
    sram_end = memory.sram_base + memory.sram_bytes
    for label, params in (("no pc", {}),
                          ("a pc outside SRAM", {"pc": 0x10}),
                          ("a window crossing the end of SRAM",
                           {"pc": sram_end - 8, "window": 8})):
        try:
            build_job_request({"program": "iutest",
                               "fault_model": "instruction-skip",
                               "fault_params": params})
        except ValueError as exc:
            print(f"job with {label} refused: OK ({exc})")
        else:
            print(f"FAIL: build_job_request accepted an attack job with "
                  f"{label}")
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
