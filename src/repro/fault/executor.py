"""Parallel campaign execution: fan independent runs across worker processes.

A beam campaign is embarrassingly parallel -- every run (one seed at one LET
for one program) owns its whole simulated device and never talks to another
run.  ``CampaignExecutor`` exploits that: it ships :class:`CampaignConfig`
records to a :class:`~concurrent.futures.ProcessPoolExecutor` in chunks and
reassembles the results in submission order.

Determinism
-----------
Every config embeds its own seed, so a run's outcome is a pure function of
its config -- it cannot depend on which worker executed it, on scheduling
order, or on how many jobs ran.  ``run_many`` therefore returns results
bit-for-bit identical to a serial loop over the same configs, and ``jobs=1``
*is* that serial loop (no process pool is created at all).

Batched strike scheduling
-------------------------
Warm campaigns carrying a golden timeline are additionally grouped by
:func:`plan_batches`: a run executes the golden trajectory until its first
upset, so every run whose first strike lands after golden checkpoint B can
restore B's snapshot instead of replaying the strike-free stretch from the
warm-start snapshot.  The groups only relocate where each run's
deterministic replay begins -- results, their order, and the ``on_results``
stream are byte-identical to the unbatched execution.

Fault tolerance (of the host, not the device)
---------------------------------------------
A chunk whose worker crashes, raises, or exceeds ``timeout_s`` is retried
serially in the parent process -- the retry is deterministic because the
config is.  Runs that still fail after ``retries`` extra attempts are
reported together in a :class:`CampaignExecutionError`.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    WarmStart,
)
from repro.fault.grading import GoldenCheckpoint, first_strike_instructions

_MASK64 = (1 << 64) - 1

#: A per-config run function: ``runner(config, warm, start)``.
Runner = Callable[[CampaignConfig, Optional[WarmStart],
                   Optional[GoldenCheckpoint]], CampaignResult]


def derive_seed(base: int, index: int) -> int:
    """Derive the seed for replica ``index`` of a campaign seeded ``base``.

    A splitmix64 mix of (base, index): well-spread, collision-free in
    practice, and -- critically -- *stable*.  Recorded experiment results
    depend on this mapping; never change the constants.
    """
    z = (base ^ (index * 0x9E3779B97F4A7C15)) & _MASK64
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def expand_runs(config: CampaignConfig, runs: int) -> List[CampaignConfig]:
    """``runs`` statistically-independent replicas of one campaign.

    Replica 0 keeps the original seed (so ``runs=1`` is exactly the legacy
    single run); replicas 1.. get :func:`derive_seed` seeds.
    """
    if runs <= 1:
        return [config]
    return [config] + [replace(config, seed=derive_seed(config.seed, index))
                       for index in range(1, runs)]


def run_campaign(config: CampaignConfig,
                 warm: Optional[WarmStart] = None,
                 start: Optional[GoldenCheckpoint] = None) -> CampaignResult:
    """The default runner: build and run one campaign (picklable)."""
    return Campaign(config).run(warm=warm, start=start)


def run_campaign_traced(config: CampaignConfig,
                        warm: Optional[WarmStart] = None,
                        start: Optional[GoldenCheckpoint] = None,
                        ) -> CampaignResult:
    """Traced runner: like :func:`run_campaign`, but with telemetry on.

    The run's events buffer in a :class:`~repro.telemetry.MemorySink` and
    ride back to the parent on ``result.trace`` (events are plain dicts,
    so the result stays picklable); the parent's trace sink tags them
    with the run index and persists them in config order, making trace
    files jobs-invariant.  The measurement fields are byte-identical to
    an untraced run -- telemetry only observes.
    """
    from repro.telemetry import MemorySink, Telemetry

    sink = MemorySink()
    result = Campaign(config, telemetry=Telemetry(sink)).run(warm=warm,
                                                             start=start)
    result.trace = sink.events
    return result


#: Warm starts shared with worker processes by inheritance.  The parent
#: registers the :class:`WarmStart` under a token before creating the
#: pool; ``fork`` children inherit the registry as-is (the snapshot bytes
#: are never pickled, and the OS shares the pages copy-on-write), while
#: ``spawn`` children get it installed once per *worker* via the pool
#: initializer -- one pickle per worker instead of one per submitted
#: chunk.
_SHARED_WARM: Dict[int, WarmStart] = {}
_WARM_TOKENS = itertools.count(1)


def _install_shared_warm(token: int, warm: WarmStart) -> None:
    """Pool initializer (``spawn`` fallback): register the shared warm
    start in this worker's copy of the registry."""
    _SHARED_WARM[token] = warm


def _resolve_warm(ref) -> Optional[WarmStart]:
    """A warm reference is None, a WarmStart, or a shared-registry token."""
    if ref is None or isinstance(ref, WarmStart):
        return ref
    return _SHARED_WARM[ref]


def _resolve_start(ref, warm: Optional[WarmStart]
                   ) -> Optional[GoldenCheckpoint]:
    """A start reference is None, a checkpoint, or ``("anchor", index)``
    into the shared warm start's golden timeline (so batched starts ride
    the shared object instead of re-pickling their snapshots)."""
    if isinstance(ref, tuple) and len(ref) == 2 and ref[0] == "anchor":
        return warm.timeline.anchors()[ref[1]]
    return ref


def _run_chunk(runner: Runner,
               configs: Sequence[CampaignConfig],
               warm=None,
               start=None,
               ) -> List[CampaignResult]:
    """Worker entry point: run one chunk of configs back to back.

    ``warm``/``start`` accept the reference forms of :func:`_resolve_warm`
    and :func:`_resolve_start`, so a shared warm start crosses the process
    boundary once (fork inheritance or the spawn initializer), not once
    per chunk.
    """
    warm = _resolve_warm(warm)
    start = _resolve_start(start, warm)
    return [runner(config, warm, start) for config in configs]


@dataclass(frozen=True)
class StrikeBatch:
    """One shared-checkpoint group of a batched campaign.

    ``start`` is the golden checkpoint every member restores from (None:
    run from the warm snapshot as usual); ``indices`` are the members'
    positions in the submitted config list, ascending.
    """

    start: Optional[GoldenCheckpoint]
    indices: Tuple[int, ...]


def plan_batches(configs: Sequence[CampaignConfig],
                 warm: Optional[WarmStart],
                 ) -> Optional[List[StrikeBatch]]:
    """Group runs by the latest golden checkpoint before their first upset.

    Every run's execution up to its first strike is the golden run's, so
    a group sharing an anchor checkpoint restores the golden state there
    instead of replaying the strike-free stretch per run -- the batched
    analogue of the warm-start prefix sharing.  Strike-free runs anchor
    at the last in-window checkpoint (grading classifies them on the
    spot).  Returns None when there is nothing to batch: no timeline, no
    anchors, or no run whose first upset lies past the first anchor.
    """
    if warm is None or warm.timeline is None:
        return None
    # Anchored starts assume the pre-strike stretch is the golden run's
    # and the schedule is the beam's: both only hold for the default
    # transient model (attacks fire at the window open; persistent models
    # re-assert), so model campaigns run unbatched -- same results,
    # jobs-invariant, just without the shared-checkpoint shortcut.
    if any(config.fault_model != "seu" for config in configs):
        return None
    anchors = warm.timeline.anchors()
    if not anchors:
        return None
    groups: Dict[int, List[int]] = {}
    for index, first in enumerate(first_strike_instructions(configs)):
        at = -1
        for position, anchor in enumerate(anchors):
            if first is not None and anchor.instruction > first:
                break
            at = position
        groups.setdefault(at, []).append(index)
    if set(groups) == {-1}:
        return None
    return [StrikeBatch(anchors[at] if at >= 0 else None, tuple(members))
            for at, members in sorted(groups.items())]


def _format_error(exc: BaseException) -> str:
    """The full traceback text of a failure, not just ``type: message`` --
    a campaign that dies overnight should leave enough to debug."""
    return "".join(traceback.format_exception(
        type(exc), exc, exc.__traceback__)).rstrip()


@dataclass(frozen=True)
class ExecutorFailure:
    """One run that failed even after its serial retries.

    ``error`` holds the full traceback text of the last attempt (workers
    ship tracebacks back to the parent through the pool's exception
    plumbing, so parallel failures carry them too)."""

    config: CampaignConfig
    error: str

    @property
    def error_summary(self) -> str:
        """The last (``Type: message``) line of the traceback."""
        lines = [line for line in self.error.splitlines() if line.strip()]
        return lines[-1].strip() if lines else self.error


class CampaignExecutionError(RuntimeError):
    """Raised when runs remain failed after all retries.

    Successful results are not lost: :attr:`results` holds one entry per
    submitted config in config order -- the completed
    :class:`~repro.fault.campaign.CampaignResult` or None for the runs
    listed in :attr:`failures`.
    """

    def __init__(self, failures: Sequence[ExecutorFailure],
                 results: Optional[Sequence[Optional[CampaignResult]]] = None,
                 ) -> None:
        self.failures = list(failures)
        self.results: List[Optional[CampaignResult]] = \
            list(results) if results is not None else []
        summary = "; ".join(
            f"{f.config.program}@LET{f.config.let:g}/seed{f.config.seed}: "
            f"{f.error_summary}"
            for f in self.failures[:3])
        if len(self.failures) > 3:
            summary += f"; ... ({len(self.failures)} total)"
        super().__init__(f"{len(self.failures)} campaign run(s) failed: {summary}")

    @property
    def completed(self) -> List[CampaignResult]:
        """The successful results only (order preserved)."""
        return [result for result in self.results if result is not None]


class CampaignExecutor:
    """Runs many campaign configs, optionally across worker processes.

    Parameters
    ----------
    jobs:
        Worker process count.  ``jobs <= 1`` runs everything serially in
        this process -- the executor then adds no overhead and no
        multiprocessing machinery at all.
    chunksize:
        Configs per work unit.  Default: enough chunks for ~4 rounds per
        worker, which balances load without drowning in IPC.
    timeout_s:
        Per-chunk wall-clock budget when waiting on a worker.  A chunk
        that exceeds it is abandoned and retried serially in the parent.
        ``None`` waits forever.  (Serial mode has no timeouts: there is
        no second process to watch the clock.)
    retries:
        Extra serial attempts per run after its first failure.
    runner:
        The per-config run function, called as ``runner(config, warm,
        start)`` and returning a ``CampaignResult``; ``warm`` is the
        shared warm start (None for cold campaigns) and ``start`` the
        batch's golden checkpoint (None outside batched warm campaigns).
        Must be picklable (a module-level function) when ``jobs > 1``.
        Injectable for tests and for alternative measurement loops.
    mp_context:
        Multiprocessing context; default prefers ``fork`` (cheap worker
        start, no re-import) falling back to the platform default.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        chunksize: Optional[int] = None,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        runner: Runner = run_campaign,
        mp_context: Optional[multiprocessing.context.BaseContext] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.chunksize = chunksize
        self.timeout_s = timeout_s
        self.retries = max(0, int(retries))
        self.runner = runner
        self.mp_context = mp_context

    # -- public API ---------------------------------------------------------------

    def run_many(
        self,
        configs: Sequence[CampaignConfig],
        *,
        warm: Optional[WarmStart] = None,
        batch: bool = True,
        on_results: Optional[Callable[[List[CampaignResult]], None]] = None,
    ) -> List[CampaignResult]:
        """Run every config; results come back in config order.

        ``warm`` is a shared :class:`~repro.fault.campaign.WarmStart` passed
        to every run (the runner receives it as a second argument).  With
        ``batch`` (the default), warm campaigns with a golden timeline are
        grouped by :func:`plan_batches` so runs sharing a strike-window
        start restore one shared golden checkpoint (the runner receives it
        as a third argument); ``batch=False`` is the ``--no-early-exit``
        escape hatch.  Batching never changes results or their order --
        it only relocates where each run's deterministic replay begins.
        ``on_results`` is called with each batch of completed results *in
        config order* as the executor collects them -- the hook crash-safe
        result stores append through.  Raises
        :class:`CampaignExecutionError` if any run is still failing after
        retries.
        """
        configs = list(configs)
        if not configs:
            return []
        batches = None
        if batch and warm is not None:
            batches = plan_batches(configs, warm)
        if batches is None:
            batches = [StrikeBatch(None, tuple(range(len(configs))))]
        return self._run_batches(configs, batches, warm=warm,
                                 on_results=on_results)

    # -- dispatch engine ----------------------------------------------------------

    def _run_batches(
        self,
        configs: List[CampaignConfig],
        batches: List[StrikeBatch],
        *,
        warm: Optional[WarmStart],
        on_results: Optional[Callable[[List[CampaignResult]], None]],
    ) -> List[CampaignResult]:
        """Run the batches' chunks, releasing results in config order.

        Batched chunks complete out of config order (a group is contiguous
        in *its own* indices, not globally), so completed results buffer
        until every earlier config has finished -- the ``on_results``
        stream and the returned list are identical to the unbatched run's.
        """
        results: List[Optional[CampaignResult]] = [None] * len(configs)
        filled = [False] * len(configs)
        failures: List[ExecutorFailure] = []
        cursor = 0

        def release() -> None:
            nonlocal cursor
            ready: List[CampaignResult] = []
            while cursor < len(configs) and filled[cursor]:
                if results[cursor] is not None:
                    ready.append(results[cursor])
                cursor += 1
            if ready and on_results is not None:
                on_results(ready)

        size = self._chunk_size(len(configs))
        chunks: List[Tuple[Tuple[int, ...], List[CampaignConfig],
                           Optional[GoldenCheckpoint]]] = []
        for group in batches:
            for offset in range(0, len(group.indices), size):
                indices = group.indices[offset:offset + size]
                chunks.append((indices, [configs[i] for i in indices],
                               group.start))

        if self.jobs <= 1 or len(configs) == 1:
            for indices, chunk_configs, start in chunks:
                for index, config in zip(indices, chunk_configs):
                    results[index] = self._attempt(
                        config, failures, attempts=1 + self.retries,
                        warm=warm, start=start)
                    filled[index] = True
                    release()
        else:
            workers = min(self.jobs, len(chunks))
            context = self._context()
            # Share the warm start with the pool by inheritance: register
            # it under a token before the workers exist.  Fork children
            # see the registry directly; spawn children get it from the
            # pool initializer, once per worker.
            warm_ref = token = None
            initializer = initargs = None
            anchor_pos: Dict[int, int] = {}
            if warm is not None:
                token = next(_WARM_TOKENS)
                _SHARED_WARM[token] = warm
                warm_ref = token
                if context.get_start_method() != "fork":
                    initializer = _install_shared_warm
                    initargs = (token, warm)
                if warm.timeline is not None:
                    anchor_pos = {id(anchor): position for position, anchor
                                  in enumerate(warm.timeline.anchors())}

            def start_ref(start):
                if start is not None and id(start) in anchor_pos:
                    return ("anchor", anchor_pos[id(start)])
                return start

            try:
                with ProcessPoolExecutor(max_workers=workers,
                                         mp_context=context,
                                         initializer=initializer,
                                         initargs=initargs or ()) as pool:
                    futures = [
                        (indices, chunk_configs, start,
                         pool.submit(_run_chunk, self.runner, chunk_configs,
                                     warm_ref, start_ref(start)))
                        for indices, chunk_configs, start in chunks]
                    for indices, chunk_configs, start, future in futures:
                        try:
                            chunk_results: List[Optional[CampaignResult]] = \
                                list(future.result(self.timeout_s))
                        except Exception as exc:
                            # Worker raised, died, or overran the budget; a
                            # broken pool also lands here for every remaining
                            # chunk.  The configs are self-contained, so
                            # retrying serially in the parent reproduces
                            # exactly what the worker would have computed.
                            future.cancel()
                            if self.retries:
                                chunk_results = [
                                    self._attempt(config, failures,
                                                  attempts=self.retries,
                                                  warm=warm, start=start)
                                    for config in chunk_configs]
                            else:
                                error = _format_error(exc)
                                failures.extend(
                                    ExecutorFailure(config=config, error=error)
                                    for config in chunk_configs)
                                chunk_results = [None] * len(chunk_configs)
                        for index, result in zip(indices, chunk_results):
                            results[index] = result
                            filled[index] = True
                        release()
            finally:
                if token is not None:
                    _SHARED_WARM.pop(token, None)
        if failures:
            raise CampaignExecutionError(failures, results)
        return results  # type: ignore[return-value]  # no failures -> no Nones

    def _attempt(self, config: CampaignConfig,
                 failures: List[ExecutorFailure],
                 *, attempts: int,
                 warm: Optional[WarmStart] = None,
                 start: Optional[GoldenCheckpoint] = None,
                 ) -> Optional[CampaignResult]:
        error = "no attempts made"
        for _ in range(max(1, attempts)):
            try:
                return self.runner(config, warm, start)
            except Exception as exc:
                error = _format_error(exc)
        failures.append(ExecutorFailure(config=config, error=error))
        return None

    def _context(self) -> multiprocessing.context.BaseContext:
        if self.mp_context is not None:
            return self.mp_context
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _chunk_size(self, total: int) -> int:
        if self.chunksize is not None:
            return max(1, self.chunksize)
        return max(1, math.ceil(total / (self.jobs * 4)))
