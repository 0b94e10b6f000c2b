"""Query-layer equivalence: JSONL-backed and SQLite-backed campaigns
must fold, render, and curve byte-identically."""

import pytest

from repro.fault.campaign import CampaignConfig, prepare_warm_start
from repro.fault.crosssection import measure_curve
from repro.fault.executor import CampaignExecutor, expand_runs, run_campaign_traced
from repro.fault.report import render_table2
from repro.fault.results import ResultStore
from repro.store import (
    CampaignDatabase,
    availability_readout,
    curve_from_results,
    diff_results,
    fold_results,
    load_results,
    trace_stats,
)
from repro.telemetry import JsonlTraceSink, fold_stats, read_trace

#: Tiny settings (2.25k instructions end to end): real campaign output
#: at unit-test cost.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)


def _tiny(let=60.0, seed=11, **overrides):
    settings = dict(TINY)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture(scope="module")
def campaign_results():
    config = _tiny()
    warm = prepare_warm_start(config)
    return CampaignExecutor(1).run_many(expand_runs(config, 6), warm=warm)


@pytest.fixture()
def stores(tmp_path, campaign_results):
    """The same campaign read back from a JSONL log and from a database
    campaign."""
    path = str(tmp_path / "runs.jsonl")
    with ResultStore(path) as store:
        store.append(campaign_results)
    db = CampaignDatabase(":memory:")
    campaign, _ = db.ingest_results(path, name="tiny")
    yield load_results(path), db.results(campaign)
    db.close()


def test_table2_identical_across_backends(stores):
    jsonl, database = stores
    assert render_table2(jsonl) == render_table2(database)
    assert fold_results(jsonl) == fold_results(database)


def test_fold_totals_match_results(campaign_results):
    fold = fold_results(campaign_results)
    assert fold["runs"] == len(campaign_results)
    assert fold["totals"]["counts"]["Total"] == \
        sum(r.counts["Total"] for r in campaign_results)
    assert fold["totals"]["upsets"] == \
        sum(r.upsets for r in campaign_results)
    assert fold["rendered"] == render_table2(campaign_results)


def test_curve_identical_across_backends(stores):
    jsonl, database = stores
    assert curve_from_results(jsonl).as_dict() == \
        curve_from_results(database).as_dict()


def test_curve_matches_live_sweep():
    """Rebuilding the curve from stored runs reproduces measure_curve
    byte for byte -- the HTTP service's equivalence guarantee."""
    lets = (25.0, 110.0)
    live = measure_curve("iutest", lets=lets, flux=TINY["flux"],
                         fluence=TINY["fluence"], seed=11,
                         instructions_per_second=TINY[
                             "instructions_per_second"],
                         beam_delay_s=TINY["beam_delay_s"],
                         beam_tail_s=TINY["beam_tail_s"])
    configs = [_tiny(let=let, seed=11 + index)
               for index, let in enumerate(lets)]
    results = CampaignExecutor(1).run_many(configs)
    rebuilt = curve_from_results(results)
    assert rebuilt.as_dict() == live.as_dict()


def test_availability_identical_across_backends(stores):
    jsonl, database = stores
    assert availability_readout(jsonl) == availability_readout(database)


def test_diff_of_identical_campaigns_is_clean(campaign_results):
    diff = diff_results(campaign_results, campaign_results)
    assert diff["matched"] == len(campaign_results)
    assert diff["changed"] == []
    assert diff["counter_delta"] == {}


def test_diff_flags_changed_runs(campaign_results):
    import copy

    mutated = [copy.deepcopy(result) for result in campaign_results]
    mutated[0].iterations += 7
    diff = diff_results(campaign_results, mutated)
    assert diff["matched"] == len(campaign_results) - 1
    assert len(diff["changed"]) == 1
    assert "iterations" in diff["changed"][0]["fields"]


def test_trace_stats_identical_across_backends(tmp_path):
    config = _tiny()
    warm = prepare_warm_start(config)
    path = str(tmp_path / "trace.jsonl")
    sink = JsonlTraceSink(path)
    results = CampaignExecutor(1, runner=run_campaign_traced).run_many(
        expand_runs(config, 3), warm=warm)
    for run, result in enumerate(results):
        sink.write_run(result.trace or [], run=run)
    sink.close()
    with CampaignDatabase(":memory:") as db:
        campaign, events = db.ingest_trace(path, name="trace")
        assert events == len(read_trace(path))
        stats_file = fold_stats(read_trace(path))
        assert trace_stats(db.events(campaign)) == {
            "runs": stats_file.runs,
            "strikes": stats_file.strikes,
            "strikes_by_target": dict(stats_file.strikes_by_target),
            "strikes_by_kind": dict(stats_file.strikes_by_kind),
            "counters": dict(stats_file.counters),
            "reported": dict(stats_file.reported),
            "consistent": stats_file.consistent,
            "states": dict(stats_file.states),
            "recoveries": dict(stats_file.recoveries),
            "early_exits": dict(stats_file.early_exits),
            "ace": (dict(stats_file.ace)
                    if stats_file.ace is not None else None),
        }
