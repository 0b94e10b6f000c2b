"""In-memory span tracer for the campaign benchmark.

The traced pass wraps public library callables from outside the
library: :meth:`Tracer.wrap` swaps a class or module attribute for a
recording wrapper and :meth:`Tracer.unwrap` puts every original back.
Nothing under ``src/`` knows it is being traced.

Each call of a wrapped callable becomes one :class:`Span` with a name,
a start, an end and the index of its parent span.  Parents come from a
per-thread stack, so the service's HTTP handler threads and its job
thread each build their own trees.  A span's *self time* is its
duration minus the durations of its direct children (children of one
span never overlap: they ran on the same thread).
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

#: Called with the wrapped call's arguments before the call; returns a
#: function that maps the call's return value to the span's ``info``.
Observer = Callable[..., Callable[[object], Dict[str, float]]]


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    thread: str
    end: float = 0.0
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *,
             observe: Optional[Observer] = None) -> None:
        """Record a span named *name* around every call of ``owner.attr``.

        *owner* is a class or a module.  Class-, static- and plain
        methods keep their binding behaviour.
        """
        raw = vars(owner).get(attr)
        if raw is None:  # inherited: patch it onto *owner* itself
            raw = getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._recorder(raw.__func__, name, observe))
        else:
            wrapped = self._recorder(raw, name, observe)
        self._patch(owner, attr, wrapped)

    def wrap_function(self, func: Callable, name: str) -> None:
        """Wrap a module-level function wherever ``repro`` binds it.

        ``from x import f`` copies the reference into the importing
        module, so the function is patched in every loaded ``repro``
        module that holds it.
        """
        wrapped = self._recorder(func, name, None)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, wrapped)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        original = vars(owner)[attr]
        counts = self.counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        self._patch(owner, attr, counted)

    def unwrap(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr: str, wrapped) -> None:
        owned = attr in vars(owner)
        original = vars(owner)[attr] if owned else None
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapped)

    def _recorder(self, func: Callable, name: str,
                  observe: Optional[Observer]) -> Callable:
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(func)
        def recorded(*args, **kwargs):
            stack = stack_of()
            finish = observe(*args, **kwargs) if observe is not None \
                else None
            span = Span(name, 0.0, stack[-1] if stack else None,
                        threading.current_thread().name)
            spans.append(span)
            stack.append(len(spans) - 1)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if finish is not None:
                span.info = finish(result)
            return result

        return recorded

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- analysis ------------------------------------------------------------

    def window(self, start: float, end: float) -> List[int]:
        """Indices of the spans that ran entirely inside [start, end]."""
        return [index for index, span in enumerate(self.spans)
                if span.start >= start and span.end <= end]


def self_times(spans: Sequence[Span],
               indices: Iterable[int]) -> Dict[int, float]:
    """Self time of each selected span: duration minus its children's."""
    chosen = list(indices)
    own = {index: spans[index].duration for index in chosen}
    for index in chosen:
        parent = spans[index].parent
        if parent in own:
            own[parent] -= spans[index].duration
    return own


def phase_of(spans: Sequence[Span], index: int, setup_root: str) -> str:
    """``"setup"`` when a span named *setup_root* encloses the span."""
    current: Optional[int] = index
    while current is not None:
        if spans[current].name == setup_root:
            return "setup"
        current = spans[current].parent
    return "exec"


def jit_delta(system, *_args, **_kwargs) -> Callable[[object], Dict[str, float]]:
    """Observer for ``LeonSystem.run_fast``: instructions retired plus the
    change in the system's JIT counters over the call."""
    jit = system.jit
    before = dict(jit.stats) if jit is not None else {}

    def finish(result) -> Dict[str, float]:
        info = {"instructions": result.instructions}
        if jit is not None:
            for key, value in jit.stats.items():
                info["jit." + key] = value - before.get(key, 0)
        return info

    return finish
