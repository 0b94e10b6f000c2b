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

A warm campaign hands every run the same
:class:`~repro.fault.campaign.WarmStart`, and every run that executes
restores its one snapshot.

Fault tolerance (of the host, not the device)
---------------------------------------------
A chunk whose worker crashes or raises is retried serially in the parent
process -- the retry is deterministic because the config is.  Runs that
still fail after ``retries`` extra attempts are reported together in a
:class:`CampaignExecutionError`.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.fault.campaign import (
    Campaign,
    CampaignConfig,
    CampaignResult,
    WarmStart,
)

_MASK64 = (1 << 64) - 1

#: A per-config run function: ``runner(config, warm)``.
Runner = Callable[[CampaignConfig, Optional[WarmStart]], CampaignResult]


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
                 warm: Optional[WarmStart] = None) -> CampaignResult:
    """The default runner: build and run one campaign (picklable)."""
    return Campaign(config).run(warm=warm)


def run_campaign_traced(config: CampaignConfig,
                        warm: Optional[WarmStart] = None) -> CampaignResult:
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
    result = Campaign(config, telemetry=Telemetry(sink)).run(warm=warm)
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


def _run_chunk(runner: Runner,
               configs: Sequence[CampaignConfig],
               warm=None,
               ) -> List[CampaignResult]:
    """Worker entry point: run one chunk of configs back to back.

    ``warm`` accepts the reference forms of :func:`_resolve_warm`, so a
    shared warm start crosses the process boundary once (fork
    inheritance or the spawn initializer), not once per chunk.
    """
    warm = _resolve_warm(warm)
    return [runner(config, warm) for config in configs]


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
    retries:
        Extra serial attempts per run after its first failure.
    runner:
        The per-config run function, called as ``runner(config, warm)``
        and returning a ``CampaignResult``; ``warm`` is the shared warm
        start (None for cold campaigns).  Must be picklable (a
        module-level function) when ``jobs > 1``.  Injectable for tests
        and for alternative measurement loops.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        chunksize: Optional[int] = None,
        retries: int = 1,
        runner: Runner = run_campaign,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.chunksize = chunksize
        self.retries = max(0, int(retries))
        self.runner = runner

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
        to every run (the runner receives it as a second argument).
        ``on_results`` is called with each batch of completed results *in
        config order* as the executor collects them -- the hook crash-safe
        result stores append through.  Raises
        :class:`CampaignExecutionError` if any run is still failing after
        retries.
        """
        del batch  # ignored; bench/campaign.py still passes batch=False
        configs = list(configs)
        if not configs:
            return []
        results: List[Optional[CampaignResult]] = []
        failures: List[ExecutorFailure] = []

        def collect(chunk_results: List[Optional[CampaignResult]]) -> None:
            results.extend(chunk_results)
            ready = [result for result in chunk_results if result is not None]
            if ready and on_results is not None:
                on_results(ready)

        if self.jobs <= 1 or len(configs) == 1:
            for config in configs:
                collect([self._attempt(config, failures,
                                       attempts=1 + self.retries, warm=warm)])
        else:
            self._run_pool(configs, warm, failures, collect)
        if failures:
            raise CampaignExecutionError(failures, results)
        return results  # type: ignore[return-value]  # no failures -> no Nones

    # -- dispatch engine ----------------------------------------------------------

    def _run_pool(
        self,
        configs: List[CampaignConfig],
        warm: Optional[WarmStart],
        failures: List[ExecutorFailure],
        collect: Callable[[List[Optional[CampaignResult]]], None],
    ) -> None:
        """Run the configs' chunks on a process pool, collecting each
        chunk's results in config order."""
        size = self._chunk_size(len(configs))
        chunks = [configs[offset:offset + size]
                  for offset in range(0, len(configs), size)]
        context = self._context()
        # Share the warm start with the pool by inheritance: register it
        # under a token before the workers exist.  Fork children see the
        # registry directly; spawn children get it from the pool
        # initializer, once per worker.
        warm_ref = token = None
        initializer = initargs = None
        if warm is not None:
            token = next(_WARM_TOKENS)
            _SHARED_WARM[token] = warm
            warm_ref = token
            if context.get_start_method() != "fork":
                initializer = _install_shared_warm
                initargs = (token, warm)
        try:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(chunks)),
                                     mp_context=context,
                                     initializer=initializer,
                                     initargs=initargs or ()) as pool:
                futures = [pool.submit(_run_chunk, self.runner, chunk,
                                       warm_ref)
                           for chunk in chunks]
                for chunk, future in zip(chunks, futures):
                    try:
                        chunk_results: List[Optional[CampaignResult]] = \
                            list(future.result())
                    except Exception as exc:
                        # Worker raised or died; a broken pool also lands
                        # here for every remaining chunk.  The configs are
                        # self-contained, so retrying serially in the
                        # parent reproduces exactly what the worker would
                        # have computed.
                        if self.retries:
                            chunk_results = [
                                self._attempt(config, failures,
                                              attempts=self.retries,
                                              warm=warm)
                                for config in chunk]
                        else:
                            error = _format_error(exc)
                            failures.extend(
                                ExecutorFailure(config=config, error=error)
                                for config in chunk)
                            chunk_results = [None] * len(chunk)
                    collect(chunk_results)
        finally:
            if token is not None:
                _SHARED_WARM.pop(token, None)

    def _attempt(self, config: CampaignConfig,
                 failures: List[ExecutorFailure],
                 *, attempts: int,
                 warm: Optional[WarmStart] = None,
                 ) -> Optional[CampaignResult]:
        error = "no attempts made"
        for _ in range(max(1, attempts)):
            try:
                return self.runner(config, warm)
            except Exception as exc:
                error = _format_error(exc)
        failures.append(ExecutorFailure(config=config, error=error))
        return None

    def _context(self) -> multiprocessing.context.BaseContext:
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()

    def _chunk_size(self, total: int) -> int:
        if self.chunksize is not None:
            return max(1, self.chunksize)
        return max(1, math.ceil(total / (self.jobs * 4)))
