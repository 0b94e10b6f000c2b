"""The pluggable fault-model layer: registry, persistence, determinism.

The contracts under test:

* the default ``seu`` model is byte-identical to the pre-model-layer
  campaign -- result fields, store keys, and trace strike events (which
  must not even carry a ``kind`` key);
* stuck-at faults persist: rewriting the cell holds only until the next
  chunk boundary, ``is_latent`` never downgrades a stuck site to masked;
* every registered model is deterministic across ``--jobs``, warm vs
  cold start, and a resume from a crash-truncated result store;
* grading never takes the golden-digest early exit for persistent-fault
  runs (``exit_reason == "full"``), and the full execution it degrades
  to is oracle-equivalent to an early-exit-disabled run;
* the security readout classifies detected / silent / masked correctly.
"""

import dataclasses
import json

import pytest

from repro.core.config import LeonConfig
from repro.core.system import LeonSystem
from repro.errors import ConfigurationError
from repro.fault.campaign import Campaign, CampaignConfig, prepare_warm_start
from repro.fault.executor import CampaignExecutor, expand_runs
from repro.fault.injector import FaultInjector
from repro.fault.models import (
    MODELS,
    FaultModel,
    build_model,
    classify_outcome,
    model_names,
    register_model,
    security_fold,
)
from repro.fault.results import ResultStore, config_key
from repro.telemetry import MemorySink, Telemetry

#: Small, fast campaign settings shared by the determinism matrix.
FAST = dict(flux=400.0, fluence=500.0, instructions_per_second=20_000.0)

#: The attack site of the pinned test program (resolved lazily once).
_SITE = {}


def _attack_params():
    if not _SITE:
        from repro.fault.campaign import resolve_builder
        program, _expected = resolve_builder("iutest")(None)
        _SITE["pc"] = program.symbols["iutest_iteration"]
    return {"pc": _SITE["pc"], "window": 8, "time_s": 0.5}


def _config(model="seu", seed=5, **overrides):
    settings = dict(FAST)
    settings.update(overrides)
    params = _attack_params() if model in ("instruction-skip", "opcode") \
        else {}
    return CampaignConfig(program="iutest", seed=seed, fault_model=model,
                          fault_params=params, **settings)


def _comparable(result):
    fields = dataclasses.asdict(result)
    fields.pop("wall_seconds")
    return fields


# -- registry ------------------------------------------------------------------


def test_registry_names_every_model():
    assert model_names() == ("instruction-skip", "opcode", "sefi",
                             "seu", "seu-live", "stuck-at-0", "stuck-at-1")
    assert set(model_names()) == set(MODELS)


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ConfigurationError):
        build_model("rowhammer", CampaignConfig())


def test_campaign_config_validates_model_early():
    with pytest.raises(ConfigurationError):
        Campaign(CampaignConfig(fault_model="rowhammer"))


def test_register_model_rejects_duplicates_and_blank_kinds():
    class Duplicate(FaultModel):
        kind = "seu"

    with pytest.raises(ConfigurationError):
        register_model(Duplicate)

    class Nameless(FaultModel):
        pass

    with pytest.raises(ConfigurationError):
        register_model(Nameless)


def test_every_model_enumerates_a_declared_fault_space():
    system = LeonSystem(LeonConfig.fault_tolerant())
    injector = FaultInjector(system, include_external_memory=True)
    config = CampaignConfig(fault_params=_attack_params())
    for kind in model_names():
        model = build_model(kind, config)
        space = model.fault_space(injector)
        assert space, kind
        for cell, bits in space.items():
            assert bits > 0, (kind, cell)
            assert cell in model.TARGETS, (kind, cell)


# -- default-model byte identity -----------------------------------------------


def test_default_config_key_has_no_model_fields():
    """Store keys written before the model layer existed must still match."""
    key = json.loads(config_key(CampaignConfig()))
    assert "fault_model" not in key
    assert "fault_params" not in key
    explicit = config_key(CampaignConfig(fault_model="seu"))
    assert explicit == config_key(CampaignConfig())


def test_non_default_model_is_in_the_key():
    key = json.loads(config_key(CampaignConfig(fault_model="stuck-at-1")))
    assert key["fault_model"] == "stuck-at-1"


def test_seu_trace_strikes_carry_no_kind():
    """Default-model strike events must stay byte-identical to recorded
    traces: the ``kind`` key only appears for non-default models."""
    sink = MemorySink()
    config = _config(let=110.0, fluence=600.0, seed=1)
    Campaign(config, telemetry=Telemetry(sink)).run()
    strikes = [e for e in sink.events if e.get("ev") == "strike"]
    assert strikes
    assert all("kind" not in event for event in strikes)


def test_stuck_at_trace_strikes_carry_their_kind():
    sink = MemorySink()
    config = _config("stuck-at-1", let=110.0, fluence=600.0, seed=1)
    Campaign(config, telemetry=Telemetry(sink)).run()
    strikes = [e for e in sink.events if e.get("ev") == "strike"]
    assert strikes
    assert all(event["kind"] == "stuck-at-1" for event in strikes)


# -- stuck-at persistence ------------------------------------------------------


def test_persistent_fault_survives_rewrite_until_reasserted():
    system = LeonSystem(LeonConfig.fault_tolerant())
    injector = FaultInjector(system, include_external_memory=True)
    target = injector.targets["ext-sram"]
    entry = injector.add_persistent("ext-sram", 3, 1)
    assert target.peek_flat(3) == 1
    # A rewrite (scrub / software store) holds the golden value...
    system.memctrl.sram_memory.write_word(0, 0)
    assert target.peek_flat(3) == 0
    # ...only until the next chunk boundary re-forces the defect.
    assert injector.reassert_persistent() == 1
    assert target.peek_flat(3) == 1
    assert injector.persistent_faults == (entry,)
    # A cell already at the stuck value is not re-forced.
    assert injector.reassert_persistent() == 0


def test_is_latent_true_for_persistent_sites():
    system = LeonSystem(LeonConfig.fault_tolerant())
    injector = FaultInjector(system)
    injector.add_persistent("regfile", 40, 1)
    word = injector.locate("regfile", 40)
    # Even after the suspect marking would have been cleared by a
    # rewrite, a stuck cell must classify latent, never masked.
    system.regfile._suspect.clear()
    assert injector.is_latent("regfile", word)
    assert not injector.is_latent("regfile", word + 1)


# -- determinism matrix --------------------------------------------------------


@pytest.mark.parametrize("kind", model_names())
def test_model_is_jobs_invariant(kind):
    configs = expand_runs(_config(kind), 3)
    serial = CampaignExecutor(1).run_many(configs)
    parallel = CampaignExecutor(4, chunksize=1).run_many(configs)
    assert [_comparable(r) for r in parallel] == \
           [_comparable(r) for r in serial]


@pytest.mark.parametrize("kind", model_names())
def test_model_warm_matches_cold(kind):
    config = _config(kind, beam_delay_s=0.25)
    cold = Campaign(config).run()
    warm = Campaign(config).run(warm=prepare_warm_start(config))
    assert warm.comparable() == cold.comparable()


@pytest.mark.parametrize("kind", ("seu", "stuck-at-1", "instruction-skip"))
def test_model_resumes_from_truncated_store(kind, tmp_path):
    """A crash mid-append loses at most the partial line: the resumed
    campaign re-runs only the missing configs and the merged corpus is
    byte-identical to an uninterrupted run."""
    path = str(tmp_path / "results.jsonl")
    configs = expand_runs(_config(kind), 3)
    full = CampaignExecutor(1).run_many(configs)
    with ResultStore(path) as store:
        store.append(full[:2])
    # Simulate the crash: chop the final line mid-JSON.
    with open(path, "rb+") as handle:
        handle.truncate(handle.seek(0, 2) - 40)
    store = ResultStore(path)
    done, pending = store.split_pending(configs)
    assert [config_key(c) for c in pending] == \
        [config_key(c) for c in configs[1:]]
    with store:
        store.append(CampaignExecutor(1).run_many(pending))
    merged = store.load()
    assert [merged[config_key(c)].comparable() for c in configs] == \
        [r.comparable() for r in full]


# -- persistent faults never take the early exit -------------------------------


def test_stuck_at_run_is_never_graded_early():
    """The golden-digest timeline argument only holds for transients: a
    re-asserted fault invalidates it, so grading must degrade to full
    execution -- and that full execution must be oracle-equivalent to a
    run with early exit disabled."""
    config = _config("stuck-at-1", let=110.0, beam_delay_s=0.25)
    warm = prepare_warm_start(config)
    assert warm.timeline is not None  # the early exit *would* be armed
    graded = Campaign(config).run(warm=warm)
    assert graded.exit_reason == "full"
    assert not graded.effaced
    oracle = Campaign(
        dataclasses.replace(config, early_exit=False)).run(warm=warm)
    assert oracle.exit_reason == "full"
    assert graded.comparable() == oracle.comparable()


def test_transient_models_still_grade_early():
    config = _config("seu", let=3.0, beam_delay_s=0.25)
    warm = prepare_warm_start(config)
    result = Campaign(config).run(warm=warm)
    assert result.effaced  # below threshold: strike-free, golden readouts


# -- security readout ----------------------------------------------------------


def _result(model="instruction-skip", **overrides):
    fields = dict(
        config=CampaignConfig(fault_model=model),
        counts={"ITE": 0, "IDE": 0, "DTE": 0, "DDE": 0, "RFE": 0,
                "Total": 0},
        upsets=1, upsets_by_target={}, sw_errors=0, error_traps=0,
        halted=False, iterations=10, instructions=1000)
    fields.update(overrides)
    from repro.fault.campaign import CampaignResult
    return CampaignResult(**fields)


def test_classify_outcome_axes():
    assert classify_outcome(_result()) == "masked"
    assert classify_outcome(_result(sw_errors=2)) == "silent"
    assert classify_outcome(_result(counts={"Total": 1})) == "detected"
    assert classify_outcome(_result(counts={"EDAC": 3})) == "detected"
    assert classify_outcome(_result(error_traps=1)) == "detected"
    assert classify_outcome(_result(halted=True)) == "detected"
    assert classify_outcome(
        _result(sw_errors=5, counts={"Total": 1})) == "detected"


def test_security_fold_groups_by_model():
    results = [_result(), _result(sw_errors=1),
               _result(model="opcode", counts={"Total": 2})]
    fold = security_fold(results)
    assert fold == {
        "instruction-skip": {"detected": 0, "silent": 1, "masked": 1},
        "opcode": {"detected": 1, "silent": 0, "masked": 0},
    }


def test_attack_campaign_end_to_end_security_readout():
    """An instruction-skip burst at the iteration entry: every run lands
    on the silent/masked axis (a coherent NOP is invisible to the FT
    fabric) and at least one corrupts results silently."""
    configs = expand_runs(_config("instruction-skip", seed=2026,
                                  fluence=2_000.0,
                                  instructions_per_second=50_000.0), 4)
    results = CampaignExecutor(1).run_many(configs)
    fold = security_fold(results)["instruction-skip"]
    assert fold["detected"] == 0
    assert fold["silent"] >= 1
    assert sum(fold.values()) == 4


def test_opcode_attack_is_detected_by_edac():
    """Opcode corruption leaves stale check bits: EDAC flags it on
    refetch, so the run classifies detected."""
    config = _config("opcode", seed=1, fluence=2_000.0,
                     instructions_per_second=50_000.0)
    result = Campaign(config).run()
    assert classify_outcome(result) == "detected"
