"""Figure 8: contribution of the hybrid cache to random/sequential IOPS.

Two panels, per the paper's §4.2 discussion:

* **random writes** (8 KiB): direct vs buffered for both local Ext4 (its
  page cache) and KVFS (the hybrid cache, control plane on the DPU);
* **sequential reads**: KVFS with the DPU-driven prefetcher on vs off —
  the paper reports ~100x single-thread and ~3x 32-thread read-IOPS boosts.

Declared as two :class:`~repro.experiments.sweep.Sweep` s sharing one
name, hence one ``results/BENCH_fig8.json``::

    python -m repro.experiments fig8
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system, build_ext4_system
from ..host.adapters import O_DIRECT
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from .common import measure_threads, prefill_file
from .sweep import Column, Sweep

__all__ = ["random_write_point", "seq_read_point", "WRITES", "PREFETCH"]

BLOCK = 8192
FILE_SIZE = 8 * 1024 * 1024
#: per-thread stream length of the sequential-read panel
STREAM = 2 * 1024 * 1024


def _prep(sys, path: str, flags: int, size: int = FILE_SIZE):
    def prep():
        yield from prefill_file(sys.vfs, path, size, b"\x33")
        return (yield from sys.vfs.open(path, flags))

    return sys.run_until(prep())


def _rand_off(tid: int, j: int, span: int) -> int:
    h = (tid * 0x9E3779B1 + j * 0x85EBCA77) & 0xFFFFFFFF
    return (h % (span // BLOCK)) * BLOCK


def random_write_point(
    fs: str,
    mode: str,
    nthreads: int = 32,
    ops_per_thread: int = 25,
    params: Optional[SystemParams] = None,
) -> dict:
    """Random 8K writes on ``fs``, ``direct`` or ``buffered``."""
    if fs == "ext4":
        sys = build_ext4_system(params)
        path = "/mnt/f"
    else:
        sys = build_dpc_system(params)
        path = "/kvfs/f"
    handle = _prep(sys, path, O_DIRECT if mode == "direct" else 0)
    block = b"\x5a" * BLOCK

    def op(tid, j):
        yield from sys.vfs.write(handle, _rand_off(tid, j, FILE_SIZE), block)

    res = measure_threads(
        sys.env, nthreads, ops_per_thread, op, tracer=sys.tracer or NULL_TRACER
    )
    snap = sys.registry.snapshot()
    return {
        "label": f"write/{fs}/{mode}",
        "iops": res.iops,
        "evict_waits": snap.get("cache.evict_waits", 0),
        "atomics_per_hit": snap.get("cache.atomics_per_hit", 0.0),
    }


def seq_read_point(
    mode: str,
    nthreads: int,
    ops_per_thread: int = 120,
    params: Optional[SystemParams] = None,
) -> dict:
    """KVFS sequential 8K reads, ``direct`` or through the ``prefetch``er."""
    sys = build_dpc_system(params, prefetch=(mode == "prefetch"))
    flags = O_DIRECT if mode == "direct" else 0
    # Per-thread files so each thread owns a clean stream.
    handles = {t: _prep(sys, f"/kvfs/s{t}", flags, size=STREAM) for t in range(nthreads)}

    def op(tid, j):
        yield from sys.vfs.read(handles[tid], (j * BLOCK) % STREAM, BLOCK)

    res = measure_threads(
        sys.env, nthreads, ops_per_thread, op, tracer=sys.tracer or NULL_TRACER
    )
    return {
        "label": f"read/t{nthreads}/{mode}",
        "nthreads": nthreads,
        "iops": res.iops,
        "hit_rate": sys.registry.get("cache.hit_rate"),
    }


def _boosts(points: list[dict]) -> dict:
    """Prefetch over direct read IOPS, per thread count."""
    iops = {p["label"]: p["iops"] for p in points}
    return {
        f"read/t{n}/boost": iops[f"read/t{n}/prefetch"] / iops[f"read/t{n}/direct"]
        for n in dict.fromkeys(p["nthreads"] for p in points)
    }


WRITES = Sweep(
    name="fig8",
    title="Figure 8 (writes): random 8K write IOPS, direct vs buffered",
    point=random_write_point,
    points=tuple(
        {"fs": fs, "mode": mode}
        for fs in ("ext4", "kvfs")
        for mode in ("direct", "buffered")
    ),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("evict_waits", "evict_waits"),
        Column("atomics_per_hit", "atomics_per_hit", 4),
    ),
    notes=("buffered absorbs into host memory; flushers write back behind",),
)

PREFETCH = Sweep(
    name="fig8",
    title="Figure 8 (reads): KVFS sequential 8K read IOPS, prefetch on/off",
    point=seq_read_point,
    points=tuple(
        {"mode": mode, "nthreads": n} for n in (1, 32) for mode in ("direct", "prefetch")
    ),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("hit_rate", "hit_rate", 4),
    ),
    derived=_boosts,
    notes=("paper: ~100x boost at 1 thread, ~3x at 32 threads",),
)
