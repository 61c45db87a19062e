"""Table 2: sequential bandwidth — local Ext4 vs KVFS.

1 MiB sequential read/write under 1 and 32 threads, direct I/O, each thread
streaming its own region of a preallocated file.

Paper's Table 2 (GB/s):

===============  =====  =====
workload          Ext4   KVFS
===============  =====  =====
1 thr seq read    1.8    5.0
1 thr seq write   1.6    3.1
32 thr seq read   3.0    7.6
32 thr seq write  2.0    5.0
===============  =====  =====

Our shapes to hold: KVFS > Ext4 in every cell; Ext4 capped by the single
SSD (~3.2 GB/s); KVFS capped by the disaggregated store's aggregate
read/write bandwidth.

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments table2
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system, build_ext4_system
from ..params import SystemParams
from .common import measure_threads, prefill_file
from .sweep import Column, Sweep

__all__ = ["run_one", "SWEEP"]

CHUNK = 1 << 20
REGION = 4 * 1024 * 1024  # per-thread streaming region
THREADS = (1, 32)
RWS = ("read", "write")


def run_one(
    fs: str,
    rw: str,
    nthreads: int,
    ops_per_thread: int = 6,
    params: Optional[SystemParams] = None,
) -> dict:
    """``nthreads`` threads streaming 1 MiB ops over their own regions."""
    if fs == "ext4":
        sys = build_ext4_system(params, capacity_blocks=1 << 22)
        path = "/mnt/stream"
    else:
        sys = build_dpc_system(params)
        path = "/kvfs/stream"
    handle = sys.run_until(prefill_file(sys.vfs, path, REGION * nthreads, b"\x7e", CHUNK))
    blob = b"\x5a" * CHUNK

    def op(tid, j):
        off = tid * REGION + (j * CHUNK) % REGION
        if rw == "read":
            yield from sys.vfs.read(handle, off, CHUNK)
        else:
            yield from sys.vfs.write(handle, off, blob)

    res = measure_threads(sys.env, nthreads, ops_per_thread, op)
    bandwidth = res.iops * CHUNK
    return {
        "label": f"{fs}/{rw}/t{nthreads}",
        "bandwidth": bandwidth,
        "GBs": bandwidth / 1e9,
    }


def _kvfs_over_ext4(points: list[dict]) -> dict:
    bw = {p["label"]: p["bandwidth"] for p in points}
    return {
        f"{rw}/t{n}/kvfs_over_ext4": bw[f"kvfs/{rw}/t{n}"] / bw[f"ext4/{rw}/t{n}"]
        for n in THREADS
        for rw in RWS
    }


SWEEP = Sweep(
    name="table2",
    title="Table 2: sequential 1MB bandwidth (GB/s)",
    point=run_one,
    points=tuple(
        {"fs": fs, "rw": rw, "nthreads": n}
        for n in THREADS
        for rw in RWS
        for fs in ("ext4", "kvfs")
    ),
    columns=(
        Column("label", "point", written=False),
        Column("GBs", "GB/s", 3),
    ),
    derived=_kvfs_over_ext4,
    notes=("paper: Ext4 1.8/1.6 -> 3.0/2.0; KVFS 5.0/3.1 -> 7.6/5.0",),
)
