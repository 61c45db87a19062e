"""Measurement utilities: latency distributions, rates, result tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

__all__ = ["LatencyRecorder", "ResultTable", "fmt_us", "fmt_iops", "fmt_gbps"]


class LatencyRecorder:
    """Collects per-operation latencies (seconds) and summarises them.

    Percentile queries sort once and cache the sorted array; ``add``
    invalidates the cache, so interleaved record/query workloads stay
    correct while query-heavy consumers (every experiment's summary row
    asks for several percentiles) sort only once.
    """

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._sorted: Optional[np.ndarray] = None

    def add(self, seconds: float) -> None:
        self._samples.append(seconds)
        self._sorted = None

    def __len__(self) -> int:
        return len(self._samples)

    def _arr(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = np.sort(np.asarray(self._samples, dtype=np.float64))
        return self._sorted

    @property
    def mean(self) -> float:
        return float(self._arr().mean()) if self._samples else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self._arr(), q)) if self._samples else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def p999(self) -> float:
        return self.percentile(99.9)

    @property
    def max(self) -> float:
        return float(self._arr()[-1]) if self._samples else 0.0

    def summary(self) -> dict:
        """The standard digest (seconds) every experiment reports from."""
        return {
            "count": len(self._samples),
            "mean": self.mean,
            "p50": self.p50,
            "p99": self.p99,
            "p999": self.p999,
            "max": self.max,
        }


def fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:.1f}us"


def fmt_iops(iops: float) -> str:
    if iops >= 1e6:
        return f"{iops / 1e6:.2f}M"
    if iops >= 1e3:
        return f"{iops / 1e3:.1f}K"
    return f"{iops:.0f}"


def fmt_gbps(bytes_per_sec: float) -> str:
    return f"{bytes_per_sec / 1e9:.2f}GB/s"


@dataclass
class ResultTable:
    """A printable table of experiment results (one per figure/table)."""

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @staticmethod
    def _normalize(v):
        """Coerce numpy scalars to builtins so ``render``'s isinstance
        float-formatting check sees them (np.float64 is not ``float``)."""
        if isinstance(v, np.integer):
            return int(v)
        if isinstance(v, np.floating):
            return float(v)
        return v

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append([self._normalize(v) for v in values])

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> list:
        i = self.columns.index(name)
        return [row[i] for row in self.rows]

    def render(self) -> str:
        cells = [[str(c) for c in self.columns]] + [
            [c if isinstance(c, str) else f"{c:.4g}" if isinstance(c, float) else str(c) for c in row]
            for row in self.rows
        ]
        widths = [max(len(r[i]) for r in cells) for i in range(len(self.columns))]
        lines = [f"== {self.title} =="]
        header = " | ".join(c.ljust(w) for c, w in zip(cells[0], widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
