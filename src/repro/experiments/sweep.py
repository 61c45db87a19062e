"""Declared sweeps: one runner, one table, one envelope writer, one CLI.

An experiment beyond the paper's figures is a :class:`Sweep`: a point
function, the argument sets to call it with, and **one** column list that
says for every value where it sits in the point dict, how the table heads
it and how ``BENCH_<name>.json`` rounds it.  A point function returns a
dict carrying a ``"label"``; a written column lands in the artifact as
``<label>/<key>``.  Everything else (running, rendering, writing,
argument parsing) lives here once::

    PYTHONPATH=src python -m repro.experiments <name> [--reduced] [--no-json]
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..metrics.stats import ResultTable
from .bench import write_envelope

__all__ = ["Column", "Sweep", "run", "table", "metrics", "write", "main"]


@dataclass(frozen=True)
class Column:
    """One value of a point dict.

    A dict-valued point entry (``{sub: value}``, e.g. one value per device)
    is written as ``<label>/<sub>/<key>`` and cannot be shown.
    """

    key: str
    #: table header; ``None`` keeps the value out of the table
    header: Optional[str] = None
    #: ``round()`` digits in the JSON artifact; ``None`` writes the value as is
    ndigits: Optional[int] = None
    #: ``False`` keeps the value out of the JSON artifact
    written: bool = True


@dataclass(frozen=True)
class Sweep:
    #: CLI name and ``BENCH_<name>.json``; sweeps sharing a name share the file
    name: str
    title: str
    point: Callable[..., dict]
    #: keyword arguments of ``point``, one dict per sweep point
    points: Sequence[dict]
    columns: Sequence[Column]
    #: the CI-sized point list; ``None`` means the full one is already small
    reduced: Optional[Sequence[dict]] = None
    #: cross-point values as ``{metric name: value}``: written, and noted
    #: under the table
    derived: Callable[[list], dict] = lambda points: {}
    notes: Sequence[str] = ()


def run(sweep: Sweep, reduced: bool = False) -> list[dict]:
    """Call the point function once per declared point."""
    todo = sweep.reduced if reduced and sweep.reduced is not None else sweep.points
    return [sweep.point(**kwargs) for kwargs in todo]


def table(sweep: Sweep, points: list[dict]) -> ResultTable:
    shown = [c for c in sweep.columns if c.header is not None]
    t = ResultTable(sweep.title, [c.header for c in shown])
    for p in points:
        t.add_row(*(p[c.key] for c in shown))
    for name, value in sweep.derived(points).items():
        t.note(f"{name} = {value}")
    for note in sweep.notes:
        t.note(note)
    return t


def metrics(sweep: Sweep, points: list[dict]) -> dict:
    """The flat ``{"<label>/<key>": value}`` dict the artifact carries."""

    def rounded(c: Column, v):
        return v if c.ndigits is None else round(v, c.ndigits)

    out: dict = {}
    for p in points:
        for c in sweep.columns:
            if not c.written:
                continue
            v = p[c.key]
            if isinstance(v, dict):
                for sub, x in v.items():
                    out[f"{p['label']}/{sub}/{c.key}"] = rounded(c, x)
            else:
                out[f"{p['label']}/{c.key}"] = rounded(c, v)
    out.update(sweep.derived(points))
    return out


def write(results: Sequence[tuple[Sweep, list[dict]]], path: Optional[Path] = None) -> Path:
    """Write ``BENCH_<name>.json`` from the ``(sweep, points)`` pairs of one
    name: the union of their metrics in one envelope."""
    merged: dict = {}
    for sweep, points in results:
        merged.update(metrics(sweep, points))
    return write_envelope(results[0][0].name, merged, path=path)


def main(sweeps: Sequence[Sweep], argv: Optional[Sequence[str]] = None) -> int:
    by_name: dict[str, list[Sweep]] = {}
    for s in sweeps:
        by_name.setdefault(s.name, []).append(s)
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one declared sweep and write results/BENCH_<name>.json.",
    )
    ap.add_argument("name", help="one of: " + ", ".join(by_name))
    ap.add_argument("--reduced", action="store_true", help="the CI-sized point list")
    ap.add_argument("--no-json", action="store_true", help="print the table only")
    args = ap.parse_args(argv)
    if args.name not in by_name:
        ap.error(f"unknown sweep {args.name!r}; registered: {', '.join(by_name)}")
    results = [(s, run(s, args.reduced)) for s in by_name[args.name]]
    for s, points in results:
        print(table(s, points).render())
        print()
    if not args.no_json:
        print(f"wrote {write(results)}")
    return 0
