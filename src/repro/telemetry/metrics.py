"""Log-2 bucketed histograms for trace folds.

:func:`~repro.telemetry.trace.fold_stats` -- what ``repro stats`` runs
over a JSONL trace -- keeps one per protection site for detection
latencies.  Histograms use power-of-two buckets because the quantities
they hold (detection latencies in instructions) span four orders of
magnitude.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class Histogram:
    """Log-2 bucketed histogram of non-negative integer observations.

    Bucket ``i`` counts observations in ``[2**(i-1), 2**i)``; bucket 0
    counts exact zeros.  Tracks count/total/min/max exactly.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min = None  # type: ignore[assignment]
        self.max = None  # type: ignore[assignment]
        self.buckets: Dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length()  # 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def bucket_rows(self) -> List[Tuple[str, int]]:
        """``(label, count)`` rows for the non-empty buckets, ascending."""
        rows = []
        for bucket in sorted(self.buckets):
            if bucket == 0:
                label = "0"
            elif bucket == 1:
                label = "1"
            else:
                label = f"{2 ** (bucket - 1)}-{2 ** bucket - 1}"
            rows.append((label, self.buckets[bucket]))
        return rows
