"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's tables/figures on the
simulated testbed and asserts the *shape* claims (who wins, by what rough
factor, where crossovers/saturation sit).  Absolute wall-clock time of the
benchmark measures how fast the simulator reproduces the experiment; the
simulated metrics are printed as tables.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

import json

import pytest

from repro.experiments.bench import RESULTS_DIR, write_envelope


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once(benchmark):
    def _run(fn, *args, **kwargs):
        return run_once(benchmark, fn, *args, **kwargs)

    return _run


class BenchRecorder:
    """Collects ``metric -> value`` pairs per group and writes them to
    ``results/BENCH_<group>.json`` (merged over existing content, so several
    benchmark files/selections can contribute to one group).

    Written through :func:`repro.experiments.bench.write_envelope` like
    every other ``BENCH_*.json``, so a results directory is self-describing
    about which commit and simulation seed produced it.
    """

    def __init__(self) -> None:
        self._groups: dict[str, dict] = {}

    def record(self, group: str, metric: str, value) -> None:
        self._groups.setdefault(group, {})[metric] = value

    def flush(self) -> None:
        for group, metrics in self._groups.items():
            path = RESULTS_DIR / f"BENCH_{group}.json"
            merged = {}
            if path.exists():
                try:
                    merged = dict(json.loads(path.read_text())["metrics"])
                except (ValueError, KeyError, TypeError):
                    merged = {}
            merged.update(metrics)
            write_envelope(group, merged)


@pytest.fixture(scope="session")
def bench_json():
    """Session-wide recorder: ``bench_json(group, metric, value)``."""
    # Create results/ up front: benchmarks that write BENCH_*.json directly
    # (bypassing the recorder) must not fail on a fresh clone, where the
    # directory does not exist yet.
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rec = BenchRecorder()
    yield rec.record
    rec.flush()
