"""Result sources: the sanctioned JSONL readers.

A crash-safe JSONL log and a database campaign both yield a campaign's
results as an ordered ``List[CampaignResult]`` -- the shape every query
in :mod:`repro.store.query` consumes -- through :func:`load_results` and
:meth:`~repro.store.db.CampaignDatabase.results`.  The two views of the
same campaign are byte-identical, which is what makes the HTTP service's
numbers provably equal to the CLI's.

This module is the sanctioned home of raw JSONL *reads*: lint rule
FT501 (``store-query-path``) flags ``ResultStore.load`` /
``split_pending`` calls anywhere else in the package, so every consumer
-- CLI subcommands included -- goes through :func:`load_results` /
:func:`split_pending` here and automatically keeps working when the
backing store changes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.fault.campaign import CampaignConfig, CampaignResult
from repro.fault.results import ResultStore


def load_results(path: str) -> List[CampaignResult]:
    """Every result in a JSONL log, in first-appearance order.

    Later duplicate lines supersede earlier ones (a re-run wins) without
    changing the run's position; a crash-truncated tail line is skipped.
    """
    return list(ResultStore(path).load().values())


def split_pending(
    path: str, configs: Sequence[CampaignConfig]
) -> "tuple[Dict[str, CampaignResult], List[CampaignConfig]]":
    """Partition configs against a JSONL log: (stored results, to-run)."""
    return ResultStore(path).split_pending(configs)
