"""Golden-timeline grading: early exit, byte-identity."""

import dataclasses
import pickle

import pytest

from repro.core.system import LeonSystem
from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    prepare_warm_start,
)
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    run_campaign_traced,
)
from repro.fault.grading import checkpoint_schedule
from repro.fault.results import ResultStore

#: Mid-size settings (10k prefix, 25k window close, 27k end): enough span
#: for a ten-boundary timeline, and a periodic flush so struck runs
#: actually reconverge (section 4.8).
MID = dict(flux=400.0, fluence=300.0, instructions_per_second=20_000.0,
           beam_delay_s=0.5, beam_tail_s=0.1,
           flush_period_instructions=4_000)

#: Tiny settings (2.25k instructions end to end) for the wide campaigns.
TINY = dict(flux=400.0, fluence=150.0, instructions_per_second=2_000.0,
            beam_delay_s=0.25, beam_tail_s=0.5,
            flush_period_instructions=400)


def _mid(let=60.0, seed=7, **overrides):
    settings = dict(MID)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


def _tiny(let=60.0, seed=11, **overrides):
    settings = dict(TINY)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture(scope="module")
def warm_mid():
    return prepare_warm_start(_mid())


@pytest.fixture(scope="module")
def warm_tiny():
    return prepare_warm_start(_tiny())


# -- the checkpoint schedule ---------------------------------------------------


def test_checkpoint_schedule_shape():
    bounds = checkpoint_schedule(10_000, 15_000, 2_000)
    assert list(bounds) == sorted(set(bounds))
    assert bounds[0] > 10_000
    assert 25_000 in bounds  # the window close is always a boundary
    assert bounds[-1] == 27_000  # ... and so is the run end
    # A pure function of the phase shape: recomputing is byte-identical.
    assert checkpoint_schedule(10_000, 15_000, 2_000) == bounds


def test_checkpoint_schedule_respects_spacing_floor():
    assert checkpoint_schedule(0, 8_000, 0, count=16, min_interval=2_000) \
        == (2_000, 4_000, 6_000, 8_000)


def test_checkpoint_schedule_empty_window():
    assert checkpoint_schedule(5_000, 0, 0) == ()


# -- the golden timeline -------------------------------------------------------


def test_timeline_matches_schedule_and_anchors(warm_mid):
    timeline = warm_mid.timeline
    assert timeline is not None
    prefix, window, tail = _mid().phase_instructions()
    assert [cp.instruction for cp in timeline.checkpoints] == \
        list(checkpoint_schedule(prefix, window, tail))


def test_timeline_byte_identical_across_preparations(warm_mid):
    again = prepare_warm_start(_mid())
    assert pickle.dumps(again.timeline) == pickle.dumps(warm_mid.timeline)
    assert pickle.dumps(again) == pickle.dumps(warm_mid)


# -- early-exit vs full-execution equivalence ----------------------------------


def test_early_exit_matches_full_oracle_wide_campaign(warm_tiny):
    """200 seeded replicas: fast grading vs the full-execution oracle."""
    configs = expand_runs(_tiny(), 200)
    oracle_configs = [dataclasses.replace(config, early_exit=False)
                      for config in configs]
    oracle = CampaignExecutor(1).run_many(oracle_configs, warm=warm_tiny)
    fast = CampaignExecutor(1).run_many(configs, warm=warm_tiny)
    assert [r.comparable() for r in fast] == \
        [r.comparable() for r in oracle]
    assert all(r.exit_reason == "full" for r in oracle)
    assert any(r.exit_reason == "reconverged" for r in fast)
    assert any(r.upsets > 0 for r in fast)


def test_fail_fast_compare_agrees_with_whole_state_digest(monkeypatch):
    """At every boundary a real campaign's grading walk checks, the
    per-component compare answers exactly what comparing whole-state
    digests with the golden run's would."""
    whole = {}
    component_digests = LeonSystem.component_digests

    def recording(self):
        digests = component_digests(self)
        whole[digests] = self.state_digest()
        return digests

    monkeypatch.setattr(LeonSystem, "component_digests", recording)
    warm = prepare_warm_start(_mid())
    assert len(whole) == len(warm.timeline.checkpoints)

    outcomes = []
    matches = LeonSystem.matches_digests

    def checked(self, golden):
        match = matches(self, golden)
        assert match == (self.state_digest() == whole[golden])
        outcomes.append(match)
        return match

    monkeypatch.setattr(LeonSystem, "matches_digests", checked)
    configs = [dataclasses.replace(config, static_grading=False)
               for config in expand_runs(_mid(), 8)]
    CampaignExecutor(1).run_many(configs, warm=warm)
    assert True in outcomes and False in outcomes


def test_jobs_invariant_with_early_exit(warm_mid):
    configs = expand_runs(_mid(), 6)
    serial = CampaignExecutor(1).run_many(configs, warm=warm_mid)
    parallel = CampaignExecutor(4, chunksize=1).run_many(
        configs, warm=warm_mid)
    assert [r.comparable() for r in parallel] == \
        [r.comparable() for r in serial]


def test_resume_reproduces_early_exit_results(tmp_path, warm_tiny):
    path = str(tmp_path / "runs.jsonl")
    configs = expand_runs(_tiny(), 6)
    with ResultStore(path) as store:
        full = CampaignExecutor(1).run_many(
            configs, warm=warm_tiny, on_results=store.append)
    # Lose the last line, as if the host died before the final append.
    lines = open(path, encoding="utf-8").readlines()
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
    done, pending = ResultStore(path).split_pending(configs)
    assert len(pending) == 1
    # A resumed campaign re-prepares its warm start; the timeline it gets
    # is byte-identical, so grading decisions are too.
    resumed = prepare_warm_start(_tiny())
    assert pickle.dumps(resumed.timeline) == pickle.dumps(warm_tiny.timeline)
    with ResultStore(path) as store:
        rerun = CampaignExecutor(1).run_many(
            pending, warm=resumed, on_results=store.append)
    assert rerun[0].comparable() == full[-1].comparable()
    assert len(ResultStore(path).load()) == 6


def test_early_exit_off_runs_full(warm_mid):
    config = _mid(let=3.0, early_exit=False)
    result = Campaign(config).run(warm=warm_mid)
    assert result.exit_reason == "full"
    assert not result.effaced
    # Static grading would claim this run first (its strikes are all
    # provably dead); hold it off so the early-exit path stays observable.
    on = Campaign(_mid(let=3.0, static_grading=False)).run(warm=warm_mid)
    assert on.exit_reason == "reconverged"
    assert result.comparable() == on.comparable()


def test_exit_fields_excluded_from_comparable(warm_mid):
    result = Campaign(_mid(let=3.0, static_grading=False)).run(warm=warm_mid)
    assert result.exit_reason == "reconverged"
    assert result.graded_at_instruction is not None
    comparable = result.comparable()
    assert "exit_reason" not in comparable
    assert "graded_at_instruction" not in comparable
    assert "early_exit" not in comparable["config"]


# -- runs that never reconverge ----------------------------------------------

#: Parked settings: the program finishes its single iteration mid-window
#: and parks alive at ``_exit``, so strikes landing afterwards stay
#: latent forever -- the faulted digest never matches a golden boundary
#: again and the run must execute to the end.
PARKED = dict(flux=400.0, fluence=600.0, instructions_per_second=20_000.0,
              beam_delay_s=0.1, beam_tail_s=0.5,
              program_kwargs={"iterations": 1})


def _parked(let=60.0, seed=11, **overrides):
    settings = dict(PARKED)
    settings.update(overrides)
    return CampaignConfig(program="iutest", let=let, seed=seed, **settings)


@pytest.fixture(scope="module")
def warm_parked():
    return prepare_warm_start(_parked())


def test_parked_campaign_matches_full_oracle(warm_parked):
    """Latent parked runs: graded runs vs the full-execution oracle."""
    configs = expand_runs(_parked(), 24)
    oracle_configs = [dataclasses.replace(config, early_exit=False)
                      for config in configs]
    oracle = CampaignExecutor(1).run_many(oracle_configs, warm=warm_parked)
    fast = CampaignExecutor(1).run_many(configs, warm=warm_parked)
    assert [r.comparable() for r in fast] == \
        [r.comparable() for r in oracle]
    assert {r.exit_reason for r in fast} <= {"full", "reconverged"}
    drained = [r for r in fast if r.exit_reason == "full"]
    assert drained  # some struck runs never reconverge
    total = sum(_parked().phase_instructions())
    for result in drained:
        # A run that never reconverges executes to the end.
        assert result.graded_at_instruction is None
        assert result.instructions == total
        assert not result.effaced


# -- telemetry parity ----------------------------------------------------------


def test_traced_lifecycle_matches_full_execution(warm_mid):
    """Strike/detect/resolve/close streams are byte-identical: the close
    events of a graded run carry the golden end-of-run instruction."""
    config = None
    for seed in range(1, 12):
        candidate = _mid(seed=seed)
        probe = Campaign(candidate).run(warm=warm_mid)
        if probe.exit_reason == "reconverged" and probe.upsets > 0:
            config = candidate
            break
    assert config is not None, "no struck seed reconverged"
    fast = run_campaign_traced(config, warm_mid)
    oracle = run_campaign_traced(
        dataclasses.replace(config, early_exit=False), warm_mid)
    kinds = ("strike", "detect", "resolve", "close")
    assert [e for e in fast.trace if e["ev"] in kinds] == \
        [e for e in oracle.trace if e["ev"] in kinds]
    assert any(e["ev"] == "early-exit" for e in fast.trace)
    assert all(e["ev"] != "early-exit" for e in oracle.trace)
    assert fast.comparable() == oracle.comparable()
