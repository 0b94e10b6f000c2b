"""Tests of the benchmark's tracer: ``PYTHONPATH=src python -m pytest bench/``."""

from __future__ import annotations

import inspect
import sys
import threading
import time
from pathlib import Path

import pytest

from bench import campaign
from bench.trace import Tracer, phase_of, self_times


class Layered:
    def outer(self):
        time.sleep(0.002)
        self.inner()
        self.inner()
        return "done"

    def inner(self):
        time.sleep(0.003)

    def spawn(self):
        thread = threading.Thread(target=self.inner, name="other")
        thread.start()
        thread.join(5)
        return thread

    @classmethod
    def build(cls):
        return cls()

    @staticmethod
    def helper(value):
        return value + 1


def test_nested_self_times_sum_to_parent_wall():
    tracer = Tracer()
    tracer.wrap(Layered, "outer", "outer")
    tracer.wrap(Layered, "inner", "inner")
    try:
        assert Layered().outer() == "done"
    finally:
        tracer.unwrap()
    spans = tracer.spans
    assert [span.name for span in spans] == ["outer", "inner", "inner"]
    assert spans[0].parent is None
    assert spans[1].parent == spans[2].parent == 0
    own = self_times(spans, range(len(spans)))
    assert sum(own.values()) == pytest.approx(spans[0].duration, abs=1e-9)
    assert own[0] == pytest.approx(
        spans[0].duration - spans[1].duration - spans[2].duration)
    assert all(value > 0 for value in own.values())


def test_each_thread_keeps_its_own_stack():
    tracer = Tracer()
    tracer.wrap(Layered, "spawn", "spawn")
    tracer.wrap(Layered, "inner", "inner")
    try:
        thread = Layered().spawn()
    finally:
        tracer.unwrap()
    assert not thread.is_alive()
    spawn, inner = tracer.spans
    assert (spawn.name, inner.name) == ("spawn", "inner")
    assert inner.thread == "other" and spawn.thread != "other"
    # The other thread's call is a root, not a child of the open span.
    assert inner.parent is None


def test_class_and_static_methods_keep_their_binding():
    tracer = Tracer()
    tracer.wrap(Layered, "build", "build")
    tracer.wrap(Layered, "helper", "helper")
    try:
        assert isinstance(Layered.build(), Layered)
        assert Layered.helper(1) == 2
        assert Layered().helper(2) == 3
    finally:
        tracer.unwrap()
    assert [span.name for span in tracer.spans] == \
        ["build", "helper", "helper"]
    assert isinstance(inspect.getattr_static(Layered, "build"), classmethod)
    assert isinstance(inspect.getattr_static(Layered, "helper"),
                      staticmethod)


def _namespaces():
    """Every repro module and every class defined in one, by identity."""
    spaces = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        spaces[id(module)] = (module, dict(vars(module)))
        for value in list(vars(module).values()):
            if isinstance(value, type) and \
                    getattr(value, "__module__", "").startswith("repro"):
                spaces[id(value)] = (value, dict(vars(value)))
    return spaces


def test_unwrap_restores_every_original_callable():
    before = _namespaces()
    tracer = Tracer()
    campaign.instrument(tracer)
    assert campaign.LeonSystem.run_fast is not \
        before[id(campaign.LeonSystem)][1]["run_fast"]
    tracer.unwrap()
    after = _namespaces()
    assert before.keys() == after.keys()
    for key, (owner, names) in before.items():
        now = after[key][1]
        assert now.keys() == names.keys(), owner
        for attr, value in names.items():
            assert now[attr] is value, f"{owner}.{attr} not restored"


def test_traced_pass_matches_untraced_digests(tmp_path: Path):
    workload = campaign.SMOKE["reconverge"]
    seed = campaign.campaign_seed(workload, 0)
    plain = campaign.run_workload(workload, seed, tmp_path)
    tracer = Tracer()
    campaign.instrument(tracer)
    try:
        traced = campaign.run_workload(workload, seed, tmp_path)
    finally:
        tracer.unwrap()
    assert plain.failed == traced.failed == 0
    assert traced.digests == plain.digests

    layers = campaign.breakdown(tracer, traced.window)
    names = {span.name for span in tracer.spans}
    assert {"campaign.prepare_warm_start", "core.run_fast",
            "state.restore", "executor.run_many", "store.append"} <= names
    assert layers["named_s"] / traced.campaign_s >= 0.9
    assert layers["info"]["core.run_fast.setup.instructions"] > 0
    spans = tracer.spans
    digests = [i for i, span in enumerate(spans)
               if span.name == "state.digest"]
    assert {phase_of(spans, i, campaign.SETUP_ROOT) for i in digests} == \
        {"setup", "exec"}
