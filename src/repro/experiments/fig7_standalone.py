"""Figure 7: standalone file service — local Ext4 vs KVFS (DPC).

8 KiB random read/write with direct I/O on big files, swept over thread
counts, reporting mean latency, IOPS, and **host** CPU usage (the paper's
panels a, b, c).

Paper claims checked by the bench:
* KVFS loses to Ext4 at low/medium concurrency (<= 32 threads);
* KVFS wins both latency and IOPS beyond 64 threads (Ext4 hits the single
  NVMe SSD's limit and queues: 779/1009 us at 256 threads);
* KVFS host CPU stays below ~20 % while Ext4 exceeds 90 % at 256 threads;
* KVFS IOPS stops scaling around 128 threads (the DPU CPU saturates).

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments fig7
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system, build_ext4_system
from ..params import SystemParams
from .common import measure_threads, prefill_file
from .sweep import Column, Sweep

__all__ = ["run_one", "SWEEP"]

FILE_SIZE = 16 * 1024 * 1024
BLOCK = 8192


def _offset(tid: int, j: int) -> int:
    """Deterministic pseudo-random block offsets within the shared file."""
    h = (tid * 0x9E3779B1 + j * 0x85EBCA77) & 0xFFFFFFFF
    return (h % (FILE_SIZE // BLOCK)) * BLOCK


def run_one(
    fs: str,
    rw: str,
    nthreads: int,
    ops_per_thread: int = 25,
    params: Optional[SystemParams] = None,
) -> dict:
    """One cell of Figure 7: returns iops/lat/host CPU/dpu CPU."""
    if fs == "ext4":
        sys = build_ext4_system(params)
        path = "/mnt/bigfile"
        dpu_cpu = None
    elif fs == "kvfs":
        sys = build_dpc_system(params)
        path = "/kvfs/bigfile"
        dpu_cpu = sys.dpu_cpu
    else:
        raise ValueError(fs)

    # Preallocate so random reads hit real data.
    handle = sys.run_until(prefill_file(sys.vfs, path, FILE_SIZE, b"\x42"))
    block = b"\x5a" * BLOCK

    def op(tid: int, j: int):
        off = _offset(tid, j)
        if rw == "read":
            yield from sys.vfs.read(handle, off, BLOCK)
        else:
            yield from sys.vfs.write(handle, off, block)

    res = measure_threads(
        sys.env, nthreads, ops_per_thread, op, host_cpu=sys.host_cpu, dpu_cpu=dpu_cpu
    )
    return {
        "label": f"{fs}/{rw}/t{nthreads}",
        "iops": res.iops,
        "lat_us": res.mean_lat * 1e6,
        "host_cpu_pct": sys.host_cpu.window_usage_percent(),
        "host_cores": sys.host_cpu.window_cores_used(),
        "dpu_cpu_pct": dpu_cpu.window_usage_percent() if dpu_cpu else 0.0,
    }


SWEEP = Sweep(
    name="fig7",
    title="Figure 7: Ext4 vs KVFS (8K random, direct I/O)",
    point=run_one,
    points=tuple(
        {"fs": fs, "rw": rw, "nthreads": n}
        for fs in ("ext4", "kvfs")
        for rw in ("read", "write")
        for n in (1, 32, 64, 128, 256)
    ),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("lat_us", "lat_us", 2),
        Column("host_cpu_pct", "host_cpu_pct", 2),
        Column("dpu_cpu_pct", "dpu_cpu_pct", 2),
    ),
    notes=("paper: crossover at ~64 threads; Ext4 >90% host CPU at 256",),
)
