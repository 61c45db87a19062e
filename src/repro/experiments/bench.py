"""Shared BENCH_*.json envelope writer.

Every benchmark artifact in ``results/`` uses one envelope shape::

    {"schema": 2, "seed": ..., "git_sha": ...,
     "wall_clock_s": ..., "events_per_sec": ..., "metrics": {...}}

Schema 2 adds the two wall-clock fields: how long the producing process
spent inside ``Environment.run`` and how many simulation events per
wall-second it sustained (from :data:`repro.sim.core.LOOP_STATS`).  They
describe the *simulator*, not the simulated system — a regression there
is a DES performance regression, which ``bench/run.py`` measures properly
(``host_ops_per_s``, ``sim.core.host_ns_per_event``).
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Optional

from ..sim.core import LOOP_STATS

__all__ = ["SCHEMA_VERSION", "RESULTS_DIR", "git_sha", "envelope", "write_envelope"]

#: bump when the BENCH_*.json envelope shape changes
SCHEMA_VERSION = 2

RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except Exception:
        return "unknown"


def envelope(metrics: dict, seed: Optional[int] = None) -> dict:
    """Wrap ``metrics`` in the schema-2 envelope, stamping loop-speed data."""
    if seed is None:
        from ..params import default_params

        seed = default_params().seed
    return {
        "schema": SCHEMA_VERSION,
        "seed": seed,
        "git_sha": git_sha(),
        "wall_clock_s": round(LOOP_STATS.wall_s, 4),
        "events_per_sec": round(LOOP_STATS.events_per_sec(), 1),
        "metrics": metrics,
    }


def write_envelope(
    name: str, metrics: dict, path: Optional[Path] = None, seed: Optional[int] = None
) -> Path:
    """Write ``results/BENCH_<name>.json``; returns the path written."""
    if path is None:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(envelope(metrics, seed), indent=2, sort_keys=True) + "\n")
    return path
