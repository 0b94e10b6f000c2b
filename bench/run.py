"""The campaign benchmark: whole-campaign walls plus a traced breakdown.

Usage (from the repository root)::

    python3 bench/run.py                          # all four workloads
    python3 bench/run.py --workload reconverge --seed 3
    python3 bench/run.py --workload tiny-cache --trace 1
    python3 bench/run.py --repeat 5               # seeds S..S+4, spreads
    python3 bench/run.py --smoke                  # shrunken, under 60 s

A run builds one campaign from ``--seed`` and measures it in
``--seconds // 5`` passes (at least 3).  Each pass is a fresh
``python -m bench.campaign`` process running the whole campaign at
jobs 1 (one closed-loop client), from set-up through read-back.  Walls
report the fastest pass, set-up time and peak RSS the median.

Every metric is printed by name with its unit; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is non-zero when any run failed or its result differs from the
reference.  ``--write-expected`` regenerates the committed seed-0
digests under ``bench/expected/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"
WORKLOADS = ("reconverge", "tiny-cache", "upset-dense", "service-sweep")
#: Nominal host seconds of one pass; ``--seconds`` buys this many.
PASS_SECONDS = 5
MIN_PASSES = 3
#: Runs re-run as the plain reference when no digests are committed
#: for the seed.
REFERENCE_RUNS = 2
#: A pass that has not finished after this long is killed.
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"campaign_s": "s", "setup_s": "s", "exec_s": "s",
                    "query_s": "s", "peak_rss_mb": "MB"}
#: End-to-end metrics reported as the median over passes; the walls
#: report the fastest pass.
MEDIANS = ("setup_s", "peak_rss_mb")


def host_speed() -> float:
    """Iterations/s of the pure-Python loop ``test_ips_floor`` calibrates
    with (``benchmarks/test_perf_throughput.py``), best of three."""
    best = 0.0
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc + i * 17) & 0xFFFFFFFF
        best = max(best, 200_000 / (time.perf_counter() - started))
    return best


def host_fingerprint() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(),
            "host_speed": round(host_speed(), 1)}


def run_child(args: List[str], workdir: Path,
              timeout: Optional[float] = CHILD_TIMEOUT_S) -> Dict:
    """Run ``bench.campaign`` in a fresh interpreter; return its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # SQLite and friends keep their temporary files inside the checkout.
    env["TMPDIR"] = str(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bench.campaign", *args,
             "--workdir", str(workdir)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=timeout)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"bench.campaign {' '.join(args)} exited "
                           f"{done.returncode}")
    return json.loads(lines[-1])


def expected_path(workload: str, smoke: bool) -> Path:
    return EXPECTED / f"{'smoke-' if smoke else ''}{workload}.json"


def write_expected(workload: str, smoke: bool, workdir: Path) -> Path:
    """Commit the plain reference's digests of every run for seed 0."""
    digests = run_child(["--workload", workload, "--reference", "0"]
                        + (["--smoke"] if smoke else []),
                        workdir, timeout=None)["digests"]
    path = expected_path(workload, smoke)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "workload": workload, "seed": 0, "smoke": smoke,
        "digest": "sha256(json(CampaignResult.comparable()))[:16]",
        "reference": "cold start, REPRO_JIT=0, early_exit=False, "
                     "static_grading=False, batch=False",
        "runs": digests}, indent=1) + "\n")
    return path.relative_to(ROOT)


def mismatches(got: List[str], reference: List[str]) -> int:
    """Reference runs missing from, or differing in, *got*."""
    return sum(1 for a, b in zip(got, reference) if a != b) \
        + max(0, len(reference) - len(got))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def pass_count(seconds: int, smoke: bool) -> int:
    return 1 if smoke else max(MIN_PASSES, seconds // PASS_SECONDS)


def layer_metrics(layers: List[Dict], traced_s: float,
                  exact: Dict[str, float]) -> Dict[str, float]:
    """The ``per_layer`` metrics of BENCHMARK.json.

    *layers* holds one ``bench.campaign.breakdown`` per traced pass.
    Shares are self time over the traced passes' summed campaign walls;
    counts are per campaign (every pass repeats the same work).
    """
    passes = len(layers)
    totals: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {},
                                           "info": {}}
    for layer in layers:
        for part, sums in totals.items():
            for key, value in layer[part].items():
                sums[key] = sums.get(key, 0) + value

    def phases(phase: Optional[str]):
        return (phase,) if phase else ("setup", "exec")

    def seconds(name: str, phase: Optional[str] = None) -> float:
        return sum(totals["self_s"].get(f"{name}.{p}", 0.0)
                   for p in phases(phase))

    def share(name: str, phase: Optional[str] = None) -> float:
        return _ratio(seconds(name, phase), traced_s)

    def count(name: str, phase: Optional[str] = None) -> float:
        return sum(totals["calls"].get(f"{name}.{p}", 0)
                   for p in phases(phase)) / passes

    def info(name: str, phase: str, field: str) -> float:
        return totals["info"].get(f"{name}.{phase}.{field}", 0) / passes

    metrics: Dict[str, float] = {}
    for phase in ("setup", "exec"):
        instructions = info("core.run_fast", phase, "instructions")
        metrics[f"core.run_fast_share.{phase}"] = share("core.run_fast", phase)
        metrics[f"core.instructions.{phase}"] = instructions
        metrics[f"core.ips.{phase}"] = _ratio(
            instructions, seconds("core.run_fast", phase) / passes)
        metrics[f"jit.burst_fraction.{phase}"] = _ratio(
            info("core.run_fast", phase, "jit.burst_instructions"),
            instructions)
        metrics[f"state.digest_share.{phase}"] = share("state.digest", phase)
        metrics[f"state.digests.{phase}"] = count("state.digest", phase)
        metrics[f"state.snapshot_share.{phase}"] = share("state.snapshot",
                                                         phase)
    for stat in ("compiles", "compile_failures", "deopts", "verify_drops"):
        metrics[f"jit.{stat}.exec"] = info("core.run_fast", "exec",
                                           "jit." + stat)
    metrics["state.restore_share.exec"] = share("state.restore", "exec")
    metrics["state.restores.exec"] = count("state.restore", "exec")
    metrics["state.decode_share.exec"] = share("state.decode", "exec")
    metrics["analysis.analyze_share.setup"] = share("analysis.analyze",
                                                    "setup")
    metrics["fault.schedule_share.exec"] = share("fault.schedule", "exec")
    metrics["fault.apply_share.exec"] = share("fault.apply", "exec")
    metrics["core.system_build_share.exec"] = share("core.system_build",
                                                    "exec")
    metrics["core.system_builds.exec"] = count("core.system_build", "exec")
    metrics["campaign.run_self_share"] = share("campaign.run")
    metrics["executor.self_share"] = share("executor.run_many")
    for name in ("append", "db_write"):
        metrics[f"store.{name}_share"] = share(f"store.{name}")
        metrics[f"store.{name}s"] = count(f"store.{name}")
    metrics["store.read_share"] = share("store.read")
    metrics["store.fold_share"] = share("store.fold")
    metrics["service.request_share"] = share("service.request")
    metrics["service.requests"] = count("service.request")
    metrics["service.queue_wait_share"] = _ratio(
        sum(layer["queue_wait_s"] for layer in layers), traced_s)
    metrics["telemetry.events"] = sum(
        layer["events"] for layer in layers) / passes
    metrics.update(exact)
    metrics["trace.coverage"] = _ratio(
        sum(layer["named_s"] for layer in layers), traced_s)
    return metrics


def layer_unit(name: str) -> str:
    if name.startswith("core.ips."):
        return "1/s"
    if "share" in name or "fraction" in name or name.startswith("trace."):
        return "ratio"
    return "count"


def measure(workload: str, seed: int, seconds: int, trace: bool,
            smoke: bool, workdir: Path) -> Dict[str, object]:
    """Every pass of one workload at one seed, checked and summarized."""
    common = ["--workload", workload, "--seed", str(seed)] \
        + (["--smoke"] if smoke else [])
    expected: List[str] = []
    if seed == 0 and expected_path(workload, smoke).exists():
        expected = json.loads(
            expected_path(workload, smoke).read_text())["runs"]
    plain: List[Dict] = []
    traced: List[Dict] = []
    for _ in range(pass_count(seconds, smoke)):
        plain.append(run_child([*common, "--trace", "0"], workdir))
        if trace:
            traced.append(run_child([*common, "--trace", "1"], workdir))
    # Every pass -- traced ones included -- must reproduce the committed
    # digests, or else the first pass's.
    reference = expected or plain[0]["digests"]
    attempted = failed = 0
    for record in plain + traced:
        attempted += len(record["digests"]) + record["failed"]
        failed += record["failed"] + mismatches(record["digests"], reference)
    if not expected:
        oracle = run_child([*common, "--reference", str(REFERENCE_RUNS)],
                           workdir)["digests"]
        attempted += len(oracle)
        failed += mismatches(plain[0]["digests"], oracle)

    summary: Dict[str, object] = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "smoke": smoke, "passes": len(plain),
        "runs": len(plain[0]["digests"]), "host": host_fingerprint(),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "walls": [{key: record[key] for key in END_TO_END_UNITS}
                  for record in plain],
        "exact": plain[0]["exact"],
    }
    if trace:
        traced_s = [record["campaign_s"] for record in traced]
        values = layer_metrics([record["layers"] for record in traced],
                               sum(traced_s), plain[0]["exact"])
        values["trace.overhead"] = min(traced_s) / min(
            record["campaign_s"] for record in plain) - 1.0
        summary["traced_walls"] = traced_s
        summary["layers_s"] = [record["layers"]["self_s"]
                               for record in traced]
        units = {name: layer_unit(name) for name in values}
    else:
        # Walls: the fastest pass.  Set-up and memory: the median.
        values = {name: (statistics.median if name in MEDIANS else min)(
            record[name] for record in plain) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS
    summary["metrics"] = {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}
    return summary


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Campaign benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20,
                        help="measuring time per run; buys one pass over "
                             "the campaign per 5 s, at least 3")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: traced pass reporting per-layer metrics")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+N-1")
    parser.add_argument("--smoke", action="store_true",
                        help="same paths, shrunken sizes (under 60 s)")
    parser.add_argument("--records", metavar="FILE",
                        help="append every run's full record (per-pass "
                             "walls, host fingerprint, layer seconds) as "
                             "JSON lines")
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate bench/expected/ for seed 0")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"error: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = args.workload or list(WORKLOADS)
    workdir = ROOT / ".bench_work" / str(os.getpid())
    records: Dict[str, List[Dict]] = {}
    try:
        for workload in workloads:
            if args.write_expected:
                print(f"wrote {write_expected(workload, args.smoke, workdir)}")
                continue
            for offset in range(max(1, args.repeat)):
                record = measure(workload, args.seed + offset, args.seconds,
                                 bool(args.trace), args.smoke, workdir)
                records.setdefault(workload, []).append(record)
                if args.records:
                    with open(args.records, "a", encoding="utf-8") as out:
                        out.write(json.dumps(record) + "\n")
                print(f"# {workload} seed {record['seed']}: "
                      f"{record['passes']} pass(es) x {record['runs']} "
                      f"run(s), host {json.dumps(record['host'])}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            workdir.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if args.write_expected:
        return 0

    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    for workload, runs in records.items():
        prefix = "" if len(records) == 1 else workload + "."
        attempted += sum(int(r["attempted"]) for r in runs)
        failed += sum(int(r["failed"]) for r in runs)
        print(f"{workload}: runs_attempted "
              f"{sum(int(r['attempted']) for r in runs)}  failed_runs "
              f"{sum(int(r['failed']) for r in runs)}")
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            value = statistics.median(values)
            unit = entry["unit"]
            note = (f"  (spread {spread(values):.1%} over {len(values)} "
                    f"seeds)" if len(values) > 1 else "")
            print(f"  {name:<32} {value:>14.6g} {unit}{note}")
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
