"""The parallel campaign executor: determinism, fallback and failure modes."""

import dataclasses
import multiprocessing

import pytest

from repro.fault.campaign import Campaign, CampaignConfig, CampaignResult
from repro.fault.crosssection import measure_curve
from repro.fault.executor import (
    CampaignExecutionError,
    CampaignExecutor,
    derive_seed,
    expand_runs,
    run_campaign,
)

#: Small, fast campaign settings (fluence scaled down from the paper's 1e5).
FAST = dict(flux=400.0, fluence=1.0e3, instructions_per_second=40_000.0)


def _config(let=110.0, seed=1, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _comparable(result: CampaignResult) -> dict:
    """Everything about a result except host wall-clock timing."""
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")
    return fields


# -- determinism ---------------------------------------------------------------


def test_parallel_matches_serial_bit_for_bit():
    """The tentpole guarantee: an 8-point sweep fanned across 4 workers
    produces byte-identical counts to the serial loop."""
    configs = [_config(let=let, seed=40 + index)
               for index, let in enumerate((6.0, 10.0, 15.0, 25.0,
                                            40.0, 60.0, 80.0, 110.0))]
    serial = CampaignExecutor(1).run_many(configs)
    parallel = CampaignExecutor(4).run_many(configs)
    assert [_comparable(r) for r in parallel] == \
           [_comparable(r) for r in serial]


def test_jobs1_matches_legacy_serial_path():
    config = _config(seed=11)
    legacy = Campaign(config).run()
    via_executor, = CampaignExecutor(1).run_many([config])
    assert _comparable(via_executor) == _comparable(legacy)


def test_measure_curve_jobs_invariant():
    kwargs = dict(lets=(40.0, 110.0), fluence=500.0, seed=9,
                  instructions_per_second=30_000.0)
    serial = measure_curve("iutest", jobs=1, **kwargs)
    parallel = measure_curve("iutest", jobs=2, **kwargs)
    for kind in serial.kinds():
        assert serial.series(kind) == parallel.series(kind)
        assert [p.count for p in serial.points[kind]] == \
               [p.count for p in parallel.points[kind]]


def test_results_come_back_in_config_order():
    configs = [_config(let=let, seed=index)
               for index, let in enumerate((110.0, 6.0, 40.0))]
    results = CampaignExecutor(2, chunksize=1).run_many(configs)
    assert [r.config.let for r in results] == [110.0, 6.0, 40.0]
    assert [r.config.seed for r in results] == [0, 1, 2]


# -- seed derivation -----------------------------------------------------------


def test_derive_seed_is_stable():
    # Pinned values: recorded experiment results depend on this mapping.
    assert derive_seed(1, 1) == 16834447057089888969
    assert derive_seed(1, 2) == 17911839290282890590
    assert derive_seed(2, 1) == 13819372491320860226


def test_derive_seed_spreads():
    seeds = {derive_seed(base, index)
             for base in range(8) for index in range(64)}
    assert len(seeds) == 8 * 64


def test_expand_runs_keeps_original_seed_first():
    config = _config(seed=123)
    assert expand_runs(config, 1) == [config]
    replicas = expand_runs(config, 3)
    assert replicas[0] is config
    assert [r.seed for r in replicas[1:]] == \
        [derive_seed(123, 1), derive_seed(123, 2)]
    assert all(r.let == config.let for r in replicas)


# -- failure modes -------------------------------------------------------------


def _flaky_runner(config: CampaignConfig, warm) -> CampaignResult:
    """Fails inside a pool worker, succeeds on the parent's serial retry."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("simulated worker crash")
    return run_campaign(config)


def _broken_runner(config: CampaignConfig, warm) -> CampaignResult:
    raise ValueError(f"always broken (seed {config.seed})")


def test_worker_crash_is_retried_serially():
    configs = [_config(seed=21), _config(seed=22)]
    executor = CampaignExecutor(2, chunksize=1, runner=_flaky_runner)
    results = executor.run_many(configs)
    expected = CampaignExecutor(1).run_many(configs)
    assert [_comparable(r) for r in results] == \
           [_comparable(r) for r in expected]


def test_persistent_failure_is_reported():
    configs = [_config(seed=31), _config(seed=32)]
    executor = CampaignExecutor(2, chunksize=1, runner=_broken_runner)
    with pytest.raises(CampaignExecutionError) as excinfo:
        executor.run_many(configs)
    failures = excinfo.value.failures
    assert len(failures) == 2
    assert {f.config.seed for f in failures} == {31, 32}
    assert all("always broken" in f.error for f in failures)


def test_serial_failure_is_reported_too():
    executor = CampaignExecutor(1, runner=_broken_runner)
    with pytest.raises(CampaignExecutionError):
        executor.run_many([_config(seed=41)])


def _selective_runner(config: CampaignConfig, warm) -> CampaignResult:
    if config.seed == 32:
        raise ValueError("seed 32 is cursed")
    return run_campaign(config)


def test_partial_results_attached_to_the_error():
    """A crashed campaign must not discard the runs that finished: the
    exception carries them in config order, None marking the failures."""
    configs = [_config(seed=31), _config(seed=32), _config(seed=33)]
    executor = CampaignExecutor(1, retries=0, runner=_selective_runner)
    with pytest.raises(CampaignExecutionError) as excinfo:
        executor.run_many(configs)
    error = excinfo.value
    assert len(error.results) == 3
    assert error.results[1] is None
    assert [r.config.seed for r in error.completed] == [31, 33]
    expected = CampaignExecutor(1).run_many([configs[0], configs[2]])
    assert [_comparable(r) for r in error.completed] == \
           [_comparable(r) for r in expected]


def test_parallel_partial_results_attached_too():
    configs = [_config(seed=31), _config(seed=32), _config(seed=33)]
    executor = CampaignExecutor(2, chunksize=1, retries=0,
                                runner=_selective_runner)
    with pytest.raises(CampaignExecutionError) as excinfo:
        executor.run_many(configs)
    error = excinfo.value
    assert [r.config.seed if r else None for r in error.results] == \
        [31, None, 33]


def test_failure_carries_the_full_traceback():
    executor = CampaignExecutor(1, retries=0, runner=_broken_runner)
    with pytest.raises(CampaignExecutionError) as excinfo:
        executor.run_many([_config(seed=41)])
    failure, = excinfo.value.failures
    assert "Traceback (most recent call last)" in failure.error
    assert "_broken_runner" in failure.error
    assert failure.error_summary == "ValueError: always broken (seed 41)"
    # The exception message uses the summary, not the whole traceback.
    assert "always broken (seed 41)" in str(excinfo.value)
    assert "Traceback" not in str(excinfo.value)


def test_parallel_failure_carries_a_traceback():
    executor = CampaignExecutor(2, chunksize=1, retries=0,
                                runner=_broken_runner)
    with pytest.raises(CampaignExecutionError) as excinfo:
        executor.run_many([_config(seed=31), _config(seed=32)])
    assert all("Traceback (most recent call last)" in f.error
               for f in excinfo.value.failures)


def test_no_retries_reports_without_second_attempt():
    calls = []

    def counting_runner(config, warm):
        calls.append(config.seed)
        raise RuntimeError("boom")

    executor = CampaignExecutor(1, retries=0, runner=counting_runner)
    with pytest.raises(CampaignExecutionError):
        executor.run_many([_config(seed=51)])
    assert calls == [51]


# -- throughput metadata -------------------------------------------------------


def test_campaign_result_reports_throughput():
    result, = CampaignExecutor(1).run_many([_config(seed=61)])
    assert result.wall_seconds > 0
    assert result.instructions_per_second == \
        result.instructions / result.wall_seconds


def test_empty_input():
    assert CampaignExecutor(4).run_many([]) == []
