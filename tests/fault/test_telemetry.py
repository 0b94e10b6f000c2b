"""The telemetry subsystem: event bus, sinks, trace folding, campaigns.

The contract under test, in rough order of importance:

* telemetry never changes a measurement -- traced and untraced runs are
  byte-identical on every comparable field;
* every injected strike reaches a terminal lifecycle event (resolve or
  close), so the ``trace`` view is complete;
* the Table-2 counters rebuilt from ``detect`` events alone agree with
  the readouts each run reported (``TraceStats.consistent``);
* the JSONL sink round-trips, tolerates a crash-truncated tail, and
  unknown keys ride along untouched.
"""

import json

import pytest

from repro import LeonConfig, LeonSystem
from repro.errors import ConfigurationError
from repro.fault.campaign import Campaign, CampaignConfig
from repro.fault.executor import (
    CampaignExecutor,
    expand_runs,
    run_campaign,
    run_campaign_traced,
)
from repro.fault.injector import FaultInjector
from repro.telemetry import (
    CLOSE_STATES,
    NULL_TELEMETRY,
    Histogram,
    JsonlTraceSink,
    MemorySink,
    Telemetry,
    fold_stats,
    lifecycles,
    read_trace,
    render_lifecycle,
    render_stats,
)

#: A LET-110 IUTEST burst: ~10 strikes, a mix of detected and latent.
TRACED = dict(program="iutest", let=110.0, flux=400.0, fluence=600.0,
              instructions_per_second=20_000.0, seed=1)


def traced_run(**overrides):
    settings = dict(TRACED)
    settings.update(overrides)
    sink = MemorySink()
    result = Campaign(CampaignConfig(**settings),
                      telemetry=Telemetry(sink)).run()
    return result, sink.events


# ----------------------------------------------------------------------
# Bus unit tests
# ----------------------------------------------------------------------

class TestBus:
    def test_strike_detect_resolve_correlate_by_site_word(self):
        sink = MemorySink()
        bus = Telemetry(sink)
        upset = bus.strike("regfile", 37, word=4, time_s=0.5, let=60.0,
                           mbu=False, instr=100)
        bus.detect("regfile", 4, mech="bch", kind="correctable",
                   counter="RFE", instr=150)
        bus.resolve("regfile", 4, action="pipeline-restart", instr=150)
        kinds = [event["ev"] for event in sink.events]
        assert kinds == ["strike", "detect", "resolve"]
        assert all(event["upset"] == upset for event in sink.events)
        assert bus.open_upsets == 0

    def test_word_none_matches_any_open_upset_of_target(self):
        bus = Telemetry(MemorySink())
        upset = bus.strike("fpregs", 3, word=7, time_s=0.1, let=60.0,
                           mbu=False, instr=10)
        bus.resolve("fpregs", None, action="correct-writeback", instr=20)
        assert bus.sink.events[-1]["upset"] == upset
        assert bus.open_upsets == 0

    def test_mbu_pair_in_one_word_resolves_together(self):
        bus = Telemetry(MemorySink())
        first = bus.strike("dcache-data", 64, word=2, time_s=0.1,
                           let=110.0, mbu=True, instr=10)
        second = bus.strike("dcache-data", 65, word=2, time_s=0.1,
                            let=110.0, mbu=True, instr=10)
        bus.resolve("dcache-data", 2, action="invalidate", instr=40)
        resolved = [event["upset"] for event in bus.sink.events
                    if event["ev"] == "resolve"]
        assert sorted(resolved) == sorted([first, second])

    def test_unmatched_resolve_still_emits_with_null_upset(self):
        bus = Telemetry(MemorySink())
        bus.resolve("ext-mem", None, action="trap", instr=5)
        assert bus.sink.events == [
            {"ev": "resolve", "upset": None, "site": "ext-mem",
             "word": None, "action": "trap", "instr": 5}]

    def test_tmr_scrub_closes_all_flipflop_upsets(self):
        bus = Telemetry(MemorySink())
        upsets = [bus.strike("flipflops", bit, word=None, time_s=0.1,
                             let=60.0, mbu=False, instr=1)
                  for bit in (3, 9)]
        bus.tmr_scrub(instr=2)
        events = bus.sink.events[2:]
        assert [e["ev"] for e in events] == ["detect", "resolve"] * 2
        assert {e["upset"] for e in events} == set(upsets)
        assert all(e["mech"] == "tmr-vote" for e in events
                   if e["ev"] == "detect")

    def test_close_open_classifies_every_remaining_upset(self):
        bus = Telemetry(MemorySink())
        bus.strike("icache-tag", 5, word=0, time_s=0.1, let=60.0,
                   mbu=False, instr=1)
        bus.strike("regfile", 9, word=3, time_s=0.2, let=60.0,
                   mbu=False, instr=2)
        bus.close_open(lambda target, word:
                       "latent" if target == "regfile" else "masked",
                       instr=99)
        closes = [e for e in bus.sink.events if e["ev"] == "close"]
        assert {e["state"] for e in closes} <= set(CLOSE_STATES)
        assert len(closes) == 2
        assert bus.open_upsets == 0

    def test_null_telemetry_is_disabled(self):
        assert NULL_TELEMETRY.enabled is False


class TestMetrics:
    def test_histogram_log2_buckets(self):
        histogram = Histogram()
        for value in (0, 1, 2, 3, 4, 7, 8, 1000):
            histogram.observe(value)
        assert histogram.count == 8
        assert histogram.min == 0 and histogram.max == 1000
        assert histogram.buckets[0] == 1       # the zero
        assert histogram.buckets[1] == 1       # 1
        assert histogram.buckets[2] == 2       # 2..3
        assert histogram.buckets[3] == 2       # 4..7
        assert histogram.mean == pytest.approx(sum((0, 1, 2, 3, 4, 7, 8,
                                                    1000)) / 8)
        labels = dict(histogram.bucket_rows())
        assert labels["4-7"] == 2


# ----------------------------------------------------------------------
# Sinks and trace files
# ----------------------------------------------------------------------

class TestJsonlSink:
    def test_write_run_tags_and_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTraceSink(path) as sink:
            sink.write_run([{"ev": "strike", "upset": 0}], run=0)
            sink.write_run([{"ev": "run-end", "upsets": 1}], run=1)
        events = read_trace(path)
        assert [event["run"] for event in events] == [0, 1]
        assert events[0]["ev"] == "strike"

    def test_truncated_tail_is_dropped(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        path_obj = tmp_path / "trace.jsonl"
        path_obj.write_text('{"ev": "strike", "upset": 0}\n'
                            '{"ev": "run-e')
        events = read_trace(path)
        assert len(events) == 1

    def test_mid_file_garbage_rejected(self, tmp_path):
        path_obj = tmp_path / "trace.jsonl"
        path_obj.write_text('not json\n{"ev": "strike"}\n')
        with pytest.raises(ConfigurationError):
            read_trace(str(path_obj))

    def test_unknown_keys_ride_along(self, tmp_path):
        path_obj = tmp_path / "trace.jsonl"
        path_obj.write_text(json.dumps(
            {"ev": "strike", "run": 0, "upset": 0, "target": "regfile",
             "word": 1, "instr": 5, "future_field": "kept"}) + "\n")
        events = read_trace(str(path_obj))
        assert events[0]["future_field"] == "kept"
        # Folding ignores what it does not know.
        stats = fold_stats(events)
        assert stats.strikes == 1

    def test_missing_ev_key_rejected(self, tmp_path):
        path_obj = tmp_path / "trace.jsonl"
        path_obj.write_text('{"upset": 0}\n{"ev": "x"}\n')
        with pytest.raises(ConfigurationError):
            read_trace(str(path_obj))


# ----------------------------------------------------------------------
# Injector telemetry helpers
# ----------------------------------------------------------------------

class TestLocate:
    @pytest.fixture
    def injector(self):
        return FaultInjector(LeonSystem(LeonConfig.leon_express()))

    def test_cache_words(self, injector):
        bits = injector.targets["icache-data"].bits_per_word
        assert injector.locate("icache-data", 0) == 0
        assert injector.locate("icache-data", bits) == 1

    def test_regfile_copies_map_to_same_word(self, injector):
        """The duplicated register file stores copy-major: a bit in copy
        1 must locate to the same physical word the protection layer
        reports."""
        regfile = injector.system.regfile
        per_copy = regfile.words * regfile.bits_per_word
        bit = 5 * regfile.bits_per_word + 3  # word 5, either copy
        assert injector.locate("regfile", bit) == 5
        if injector.targets["regfile"].bits > per_copy:
            assert injector.locate("regfile", per_copy + bit) == 5

    def test_flipflops_have_no_word(self, injector):
        assert injector.locate("flipflops", 10) is None


# ----------------------------------------------------------------------
# Traced campaigns (the integration contract)
# ----------------------------------------------------------------------

class TestTracedCampaign:
    @pytest.fixture(scope="class")
    def traced(self):
        return traced_run()

    def test_results_identical_with_and_without_telemetry(self, traced):
        result, _ = traced
        untraced = Campaign(CampaignConfig(**TRACED)).run()
        assert result.comparable() == untraced.comparable()

    def test_every_strike_reaches_a_terminal_event(self, traced):
        result, events = traced
        lives = lifecycles(events)
        strikes = [life for life in lives if life.strike is not None]
        assert len(strikes) == result.upsets
        assert all(life.terminal for life in lives)

    def test_fold_stats_reproduces_table2_counters(self, traced):
        result, events = traced
        stats = fold_stats(events)
        assert stats.consistent
        for name, value in result.counts.items():
            assert stats.counters[name] == value

    def test_spans_cover_all_phases(self, traced):
        _, events = traced
        phases = {event["phase"] for event in events
                  if event["ev"] == "span"}
        assert phases == {"setup", "golden-prefix", "beam", "drain"}

    def test_run_end_matches_result(self, traced):
        result, events = traced
        run_end = [e for e in events if e["ev"] == "run-end"]
        assert len(run_end) == 1
        assert run_end[0]["upsets"] == result.upsets
        assert run_end[0]["counts"] == dict(result.counts)

    def test_renderers_accept_real_traces(self, traced):
        _, events = traced
        stats_text = render_stats(fold_stats(events))
        assert "match" in stats_text
        life_text = render_lifecycle(lifecycles(events)[0])
        assert "upset 0" in life_text

    def test_fold_keeps_early_exits_of_older_builds(self):
        """Older builds noted a ``diverged`` exit; their traces still fold."""
        events = [{"ev": "early-exit", "reason": "diverged", "at": 34_500,
                   "skipped": 7_500, "run": 0}]
        stats = fold_stats(events)
        assert stats.early_exits == {"diverged": 1}
        assert "early exits: diverged 1" in render_stats(stats)

    def test_traced_runner_matches_default_runner(self):
        config = CampaignConfig(**TRACED)
        plain = run_campaign(config)
        traced = run_campaign_traced(config)
        assert traced.trace, "traced runner must attach events"
        assert traced.comparable() == plain.comparable()

    def test_trace_survives_process_pool(self):
        """Traces must pickle back from workers, identically to serial."""
        configs = expand_runs(CampaignConfig(**TRACED), 2)
        serial = CampaignExecutor(1, runner=run_campaign_traced) \
            .run_many(configs)
        parallel = CampaignExecutor(2, runner=run_campaign_traced) \
            .run_many(configs)
        def stable(trace):
            # Host wall timings legitimately differ between attempts.
            return [{k: v for k, v in event.items() if k != "wall_s"}
                    for event in trace]

        for left, right in zip(serial, parallel):
            assert left.trace and stable(left.trace) == stable(right.trace)
            assert left.comparable() == right.comparable()

    def test_recovery_runs_emit_recovery_events(self):
        """The pinned halting scenario (standard device, LET 110, seed
        16) must show its recovery rungs in the trace."""
        result, events = traced_run(
            leon=LeonConfig.standard(), seed=16, flux=5000.0,
            fluence=10_000.0, instructions_per_second=30_000.0,
            recovery="ladder")
        assert result.recoveries
        by_level = {}
        for event in events:
            if event["ev"] == "recovery":
                by_level[event["level"]] = by_level.get(event["level"], 0) + 1
        assert by_level == dict(result.recoveries)

    def test_zero_upset_run_closes_cleanly(self):
        result, events = traced_run(let=3.0)
        assert result.upsets == 0
        assert not [e for e in events if e["ev"] == "strike"]
        assert [e for e in events if e["ev"] == "run-end"]
