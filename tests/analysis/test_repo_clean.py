"""End-to-end: the shipped source tree lints clean and audits clean.

These are the CI-gating assertions: a change that adds unregistered
state, an unguarded telemetry emit, ambient nondeterminism, or a
counter-rewinding reset path fails here (and in the ``lint`` CI job)
before it can corrupt campaign results.
"""

from pathlib import Path

import pytest

import repro
from repro.analysis import analyze_paths
from repro.analysis.audit import check_injector_coverage, run_audit
from repro.cli import main

PACKAGE = Path(repro.__file__).parent


def test_source_tree_has_no_active_findings():
    findings = analyze_paths([PACKAGE])
    active = [f for f in findings if not f.suppressed]
    assert active == [], "\n".join(
        f"{f.location()}: {f.code} {f.message}" for f in active)


def test_cli_lint_exits_zero_on_repo(capsys):
    assert main(["lint"]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_lint_exits_nonzero_on_violating_file(tmp_path, capsys):
    bad = tmp_path / "repro" / "fixture.py"
    bad.parent.mkdir()
    bad.write_text("import random\nx = random.random()\n")
    assert main(["lint", str(bad)]) == 1
    assert "FT201" in capsys.readouterr().out


def test_cli_lint_writes_json_report(tmp_path):
    report = tmp_path / "report.json"
    assert main(["lint", "--report", str(report)]) == 0
    text = report.read_text()
    assert '"version": 1' in text
    assert '"findings": []' in text


@pytest.mark.slow
def test_runtime_audit_passes():
    result = run_audit()
    assert result["ok"], result


def test_audit_catches_a_missing_injector_target(monkeypatch):
    """Regression: io_memory was absent from the injector's target map
    (storage outside the fault space); the audit must catch any relapse."""
    from repro.fault.injector import FaultInjector

    original = FaultInjector._build_targets

    def drop_io(self, include_external_memory):
        original(self, include_external_memory)
        self.targets.pop("ext-io", None)

    monkeypatch.setattr(FaultInjector, "_build_targets", drop_io)
    failures = check_injector_coverage(None)
    assert any("ExternalMemory" in failure for failure in failures)


def test_audit_catches_a_grading_digest_reading_uncaptured_state(
        monkeypatch):
    """The memory grading digest hashes the live planes, not capture():
    state it reads beyond what a snapshot carries must fail the audit."""
    import numpy as np

    from repro.analysis.audit import check_snapshot_roundtrip
    from repro.mem.memctrl import MemoryController

    planes = MemoryController.planes
    monkeypatch.setattr(
        MemoryController, "planes",
        lambda self: (*planes(self), np.array([id(self)], dtype=np.uint64)))
    failures = check_snapshot_roundtrip(None)
    assert any("'memory' grading digest" in failure for failure in failures)


def test_audit_catches_a_restore_that_skips_a_field(monkeypatch):
    """A ``restore()`` that leaves one field alone passes on a fresh
    system, whose value happens to be the snapshot's; the used system,
    struck in every injector target, keeps its own value and fails."""
    from repro.analysis.audit import check_snapshot_roundtrip
    from repro.iu.regfile import RegisterFile

    original = RegisterFile.restore

    def restore_all_but_suspects(self, state):
        suspect = self._suspect
        original(self, state)
        self._suspect = suspect

    monkeypatch.setattr(RegisterFile, "restore", restore_all_but_suspects)
    failures = check_snapshot_roundtrip(None)
    assert failures
    assert all("used system" in failure for failure in failures)
