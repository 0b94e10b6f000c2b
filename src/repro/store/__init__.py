"""The storage + query layer: one corpus of runs, many readers.

In the mold of the DAVOS Datamanager/Reportbuilder, campaign results
are a shared, queryable corpus rather than throwaway per-invocation
JSONL.  This package is the single path to that corpus:

``repro.store.db``
    :class:`CampaignDatabase` -- the SQLite schema (campaigns, runs,
    events, jobs) with idempotent ingest from the JSONL
    :class:`~repro.fault.results.ResultStore` format.

``repro.store.sources``
    The raw JSONL reads (:func:`load_results`, :func:`split_pending`)
    the CLI used to perform on ``ResultStore`` directly: lint rule FT501
    keeps those reads inside this package.  :func:`load_results` yields
    the same ordered ``List[CampaignResult]`` view as
    :meth:`CampaignDatabase.results`, so every query below is
    backend-agnostic.

``repro.store.query``
    The query functions the CLI and the campaign service both sit on:
    Table-2 folds, cross-section curves, availability readouts,
    campaign diffs and lifecycle traces.
"""

from repro.store.db import CampaignDatabase
from repro.store.query import (
    availability_readout,
    curve_from_results,
    diff_results,
    fold_results,
    lifecycle_rows,
    trace_stats,
)
from repro.store.sources import load_results, split_pending

__all__ = [
    "CampaignDatabase",
    "availability_readout",
    "curve_from_results",
    "diff_results",
    "fold_results",
    "lifecycle_rows",
    "load_results",
    "split_pending",
    "trace_stats",
]
