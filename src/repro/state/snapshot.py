"""Bit-exact device snapshots: the ``repro.state`` subsystem.

A :class:`Snapshot` is an ordered mapping of *component payloads*: plain
Python values (ints, strs, bools, bytes, tuples, lists, dicts) produced by
each component's ``capture()`` method and consumed by its ``restore()``.
:meth:`LeonSystem.snapshot` composes them; :meth:`LeonSystem.restore`
dispatches them back.  The payloads are canonical -- sets are stored as
sorted tuples, numpy arrays as raw bytes -- so two snapshots of identical
device state are *equal objects* and serialize to identical bytes.

Two uses drive the design (Lopez-Ongil et al., "Techniques for Fast
Transient Fault Grading Based on Autonomous Emulation"):

* **warm-start**: a campaign executes the fault-free prefix once, snapshots
  at the beam-window start, and every injection run restores from the shared
  snapshot instead of recomputing the prefix;
* **early classification**: a run whose architectural state re-converges to
  the golden (strike-free) run is *effaced* -- its future is exactly the
  golden future, so it can stop at the window close.

Diagnostic state and convergence
--------------------------------
Pure observation state (error counters, performance counters, voter
disagreement counts, write-protect violation tallies...) never feeds back
into execution, but it does *remember* that a strike happened -- an effaced
run has the same architectural future as golden while its counters differ.
The digests used for convergence checks therefore exclude the counter
components and every ``"diag"``-keyed subtree; ``capture()`` methods file
observation-only values under a ``"diag"`` key for exactly this reason.
:meth:`Snapshot.digest` hashes a whole snapshot; :func:`component_digest`
hashes one component, so a check can stop at the first component that
differs.
"""

from __future__ import annotations

import hashlib
import pickle
import zlib
from typing import Any, Dict, Sequence

from repro.errors import StateError

#: Bump when the payload layout changes incompatibly.
FORMAT_VERSION = 1

#: Reserved payload key for observation-only state (excluded from digests).
DIAG_KEY = "diag"

#: Components that are pure observation (excluded from digests).
OBSERVATION_COMPONENTS = ("errors", "perf")

_PICKLE_PROTOCOL = 4  # stable across supported interpreters

#: Leaf types that hold no dict, so a sequence of only these has nothing
#: to strip (the cache RAMs' and register file's word tuples).
_SCALAR_TYPES = frozenset((int, bool, float, str, bytes, type(None)))


def strip_diag(value: Any) -> Any:
    """Recursively drop every ``"diag"`` key from nested dicts.

    Every dict, list and tuple comes back as a fresh plain one, so the
    result pickles the same whatever containers the payload shared.  A
    sequence of scalars holds no dict: it is copied at C speed instead of
    being walked element by element.
    """
    if isinstance(value, dict):
        return {key: strip_diag(item) for key, item in value.items()
                if key != DIAG_KEY}
    if isinstance(value, (list, tuple)):
        if _SCALAR_TYPES.issuperset(map(type, value)):
            items = list(value)
        else:
            items = [strip_diag(item) for item in value]
        return items if isinstance(value, list) else tuple(items)
    return value


def component_digest(payload: Any, buffers: Sequence[Any] = ()) -> bytes:
    """SHA-256 of one component's architectural state, as raw bytes.

    *payload* is a ``capture()`` value; its ``"diag"`` subtrees are
    stripped as in :meth:`Snapshot.digest`.  *buffers* are contiguous
    arrays hashed in place after it: the external-memory planes, which
    ``capture()`` would copy with ``tobytes()`` and pickle would copy
    again.  Convergence checks compare these one component at a time
    (:meth:`repro.core.system.LeonSystem.matches_digests`).
    """
    hasher = hashlib.sha256(
        pickle.dumps(strip_diag(payload), _PICKLE_PROTOCOL))
    for buffer in buffers:
        hasher.update(buffer)
    return hasher.digest()


class Snapshot:
    """One captured device state, addressable by component name."""

    __slots__ = ("config_key", "components", "version")

    def __init__(self, config_key: str,
                 components: Dict[str, Any],
                 version: int = FORMAT_VERSION) -> None:
        self.config_key = config_key
        self.components = components
        self.version = version

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (self.version == other.version
                and self.config_key == other.config_key
                and self.components == other.components)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Snapshot(config_key={self.config_key!r}, "
                f"components={sorted(self.components)})")

    # -- serialization -------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Compact serialized form (pickle + zlib); round-trips exactly."""
        payload = {
            "version": self.version,
            "config_key": self.config_key,
            "components": self.components,
        }
        return zlib.compress(pickle.dumps(payload, _PICKLE_PROTOCOL))

    @classmethod
    def from_bytes(cls, data: bytes) -> "Snapshot":
        try:
            payload = pickle.loads(zlib.decompress(data))
            version = payload["version"]
            config_key = payload["config_key"]
            components = payload["components"]
        except Exception as exc:
            raise StateError(f"undecodable snapshot: {exc}") from None
        if version != FORMAT_VERSION:
            raise StateError(
                f"snapshot format v{version} != supported v{FORMAT_VERSION}")
        return cls(config_key, components, version)

    # -- digests -------------------------------------------------------------

    def digest(self, *, architectural: bool = True) -> str:
        """SHA-256 over the canonical payload, as a hex string.

        With ``architectural=True`` (the default) the observation-only
        components and every ``"diag"`` subtree are excluded, so two states
        with identical *execution futures* -- and possibly different error
        counters -- hash equal.  That is the comparison warm-start campaigns
        use to classify a run as effaced.
        """
        components = self.components
        if architectural:
            components = {
                name: strip_diag(payload)
                for name, payload in components.items()
                if name not in OBSERVATION_COMPONENTS
            }
        blob = pickle.dumps((self.config_key, components), _PICKLE_PROTOCOL)
        return hashlib.sha256(blob).hexdigest()
