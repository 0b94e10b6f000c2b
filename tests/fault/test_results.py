"""The crash-safe JSONL result store and campaign resume."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.core.config import LeonConfig
from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.executor import CampaignExecutor
from repro.fault.results import (
    ResultStore,
    config_key,
    result_from_dict,
    result_to_dict,
)
from repro.store import fold_results

FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=30_000.0)


def _config(seed=1, let=110.0, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _result(seed=1, **overrides) -> CampaignResult:
    return CampaignResult(
        config=_config(seed=seed, **overrides),
        counts={"ITE": 1, "IDE": 0, "DTE": 0, "DDE": 0, "RFE": 2, "Total": 3},
        upsets=4,
        upsets_by_target={"regfile": 2, "icache-tag": 2},
        sw_errors=0,
        error_traps=0,
        halted=False,
        iterations=12,
        instructions=25_000,
        wall_seconds=0.5,
    )


# -- serialization -------------------------------------------------------------


def test_result_dict_round_trip():
    result = _result(seed=5)
    again = result_from_dict(result_to_dict(result))
    assert again.comparable() == result.comparable()
    assert config_key(again.config) == config_key(result.config)


def test_config_key_distinguishes_runs():
    assert config_key(_config(seed=1)) != config_key(_config(seed=2))
    assert config_key(_config(let=60.0)) != config_key(_config(let=110.0))
    assert config_key(_config()) == config_key(_config())


def test_config_key_rejects_custom_device():
    with pytest.raises(ConfigurationError):
        config_key(_config(leon=LeonConfig.standard()))


# -- the store -----------------------------------------------------------------


def test_append_load_round_trip(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    results = [_result(seed=seed) for seed in (1, 2, 3)]
    with ResultStore(path) as store:
        store.append(results[:2])
        store.append(results[2:])
    loaded = ResultStore(path).load()
    assert len(loaded) == 3
    for result in results:
        assert loaded[config_key(result.config)].comparable() == \
            result.comparable()


def test_later_lines_supersede(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    first = _result(seed=1)
    second = _result(seed=1)
    second.iterations = 99
    with ResultStore(path) as store:
        store.append([first])
        store.append([second])
    loaded = ResultStore(path).load()
    assert len(loaded) == 1
    assert loaded[config_key(first.config)].iterations == 99


def test_truncated_tail_is_tolerated(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    with ResultStore(path) as store:
        store.append([_result(seed=1)])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"config": {"program": "iu')  # crash mid-append
    loaded = ResultStore(path).load()
    assert len(loaded) == 1


def test_append_after_crash_repairs_partial_tail(tmp_path):
    """Resuming *into* a store whose last append was cut mid-line must
    trim the fragment first -- otherwise the next append glues its row
    onto the fragment and poisons the whole line."""
    path = str(tmp_path / "runs.jsonl")
    with ResultStore(path) as store:
        store.append([_result(seed=1)])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"config": {"program": "iu')  # crash mid-append
    with ResultStore(path) as store:
        store.append([_result(seed=2)])
    loaded = ResultStore(path).load()
    assert {config.seed for config in
            (r.config for r in loaded.values())} == {1, 2}
    # Every surviving line is intact JSON (the fragment is gone).
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            json.loads(line)


def test_append_trims_newline_free_fragment(tmp_path):
    """A store holding only a partial first line is repaired to empty."""
    path = str(tmp_path / "runs.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('{"config"')
    with ResultStore(path) as store:
        store.append([_result(seed=7)])
    assert len(ResultStore(path).load()) == 1


def test_mid_file_garbage_raises(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    line = json.dumps(result_to_dict(_result(seed=1)))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("not json at all\n" + line + "\n")
    with pytest.raises(ConfigurationError):
        ResultStore(path).load()


def test_missing_file_loads_empty(tmp_path):
    store = ResultStore(str(tmp_path / "absent.jsonl"))
    assert store.load() == {}


def test_split_pending_partitions(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    configs = [_config(seed=seed) for seed in (1, 2, 3)]
    with ResultStore(path) as store:
        store.append([_result(seed=2)])
    done, pending = ResultStore(path).split_pending(configs)
    assert set(done) == {config_key(configs[1])}
    assert [config.seed for config in pending] == [1, 3]


def test_pre_grading_rows_load_with_defaults(tmp_path):
    """Stores written before fast grading lack the exit fields; loading
    them defaults to the legacy markers so mixed-version resumes work."""
    path = str(tmp_path / "runs.jsonl")
    row = result_to_dict(_result(seed=1))
    row.pop("exit_reason", None)
    row.pop("graded_at_instruction", None)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    loaded = ResultStore(path).load()
    result = loaded[config_key(_config(seed=1))]
    assert result.exit_reason == ""
    assert result.graded_at_instruction is None
    assert not result.effaced
    # A resumed campaign appends new-format rows to the same store.
    with ResultStore(path) as store:
        store.append([_result(seed=2)])
    assert len(ResultStore(path).load()) == 2
    # Before the grading ladder, "effaced" meant a window-close digest
    # match: such a row reads back as a reconverged run.
    row = result_to_dict(_result(seed=3))
    row.pop("exit_reason")
    row["effaced"] = True
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    legacy = ResultStore(path).load()[config_key(_config(seed=3))]
    assert legacy.exit_reason == "reconverged"
    assert legacy.effaced
    assert result_to_dict(legacy)["effaced"] is True
    # Older builds extrapolated runs parked in a fixed point to the end
    # (``diverged``); such rows still load and fold like any other run.
    row = result_to_dict(_result(seed=4))
    row.update(exit_reason="diverged", graded_at_instruction=20_000)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    rows = ResultStore(path).load()
    diverged = rows[config_key(_config(seed=4))]
    assert diverged.exit_reason == "diverged"
    assert diverged.graded_at_instruction == 20_000
    assert not diverged.effaced
    fold = fold_results(list(rows.values()))
    assert fold["runs"] == 4
    assert fold["totals"]["instructions"] == \
        sum(r.instructions for r in rows.values())


# -- resume through the executor -----------------------------------------------


def test_resumed_campaign_recomputes_only_the_missing_runs(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    configs = [_config(seed=seed) for seed in (21, 22, 23)]
    executor = CampaignExecutor(1)

    # First attempt: the store sees every completed run...
    with ResultStore(path) as store:
        full = executor.run_many(configs, on_results=store.append)
    # ...then lose one line, as if the host died before the last append.
    lines = open(path, encoding="utf-8").readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])

    done, pending = ResultStore(path).split_pending(configs)
    assert len(done) == 2 and len(pending) == 1
    with ResultStore(path) as store:
        rerun = executor.run_many(pending, on_results=store.append)
    assert rerun[0].comparable() == full[-1].comparable()
    assert len(ResultStore(path).load()) == 3


def test_on_results_preserves_config_order_parallel(tmp_path):
    path = str(tmp_path / "runs.jsonl")
    configs = [_config(seed=seed) for seed in (31, 32, 33, 34)]
    with ResultStore(path) as store:
        CampaignExecutor(2, chunksize=1).run_many(
            configs, on_results=store.append)
    lines = open(path, encoding="utf-8").readlines()
    seeds = [json.loads(line)["config"]["seed"] for line in lines]
    assert seeds == [31, 32, 33, 34]
