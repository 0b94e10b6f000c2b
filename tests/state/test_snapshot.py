"""The Snapshot container: serialization and digests."""

import pytest

from repro.errors import StateError
from repro.state.snapshot import (
    FORMAT_VERSION,
    Snapshot,
    strip_diag,
)


def _snapshot(**components) -> Snapshot:
    parts = {"regfile": {"data": (1, 2, 3)}, "errors": {"ite": 5}}
    parts.update(components)
    return Snapshot("config-A", parts)


# -- serialization -------------------------------------------------------------


def test_bytes_round_trip():
    snap = _snapshot()
    again = Snapshot.from_bytes(snap.to_bytes())
    assert again == snap
    assert again.config_key == "config-A"
    assert again.version == FORMAT_VERSION


def test_garbage_bytes_rejected():
    with pytest.raises(StateError):
        Snapshot.from_bytes(b"not a snapshot")


def test_version_mismatch_rejected():
    snap = _snapshot()
    snap.version = FORMAT_VERSION + 1
    with pytest.raises(StateError):
        Snapshot.from_bytes(snap.to_bytes())


def test_equality_covers_config_key():
    assert _snapshot() != Snapshot("config-B", _snapshot().components)
    assert _snapshot() != object()


# -- digests -------------------------------------------------------------------


def test_architectural_digest_ignores_observation_components():
    plain = _snapshot()
    noisy = _snapshot(errors={"ite": 999}, perf={"cycles": 123})
    assert plain.digest() == noisy.digest()
    assert plain.digest(architectural=False) != \
        noisy.digest(architectural=False)


def test_architectural_digest_ignores_diag_subtrees():
    plain = _snapshot(dcache={"enabled": True, "diag": {"stores": 0}})
    noisy = _snapshot(dcache={"enabled": True, "diag": {"stores": 42}})
    assert plain.digest() == noisy.digest()


def test_architectural_digest_sees_architectural_changes():
    assert _snapshot().digest() != \
        _snapshot(regfile={"data": (1, 2, 4)}).digest()


def test_strip_diag_recurses_containers():
    value = {"a": {"diag": 1, "keep": [{"diag": 2, "x": 3}]}, "diag": 4}
    assert strip_diag(value) == {"a": {"keep": [{"x": 3}]}}
