"""Figure 6: raw host-DPU transmission — virtio-fs vs nvme-fs.

Reproduces the paper's §4.1 microbenchmark: both transports answered by the
in-memory virtual client, swept over concurrency, reporting IOPS and mean
round-trip latency for 4 KiB / 8 KiB transfers, plus the 1 MiB x 16-thread
sequential bandwidth comparison.

Paper claims checked by the bench:
* single-thread latencies in the tens of microseconds, nvme-fs lower;
* nvme-fs ~2-3x virtio-fs IOPS at high concurrency (single-queue HAL);
* nvme-fs approaches the PCIe 3.0 x16 ceiling on 1 MiB transfers
  (paper: 15.1/14.3 GB/s read/write) while virtio-fs stalls near 5-6 GB/s.

Declared as two :class:`~repro.experiments.sweep.Sweep` s sharing one
name, hence one ``results/BENCH_fig6.json``::

    python -m repro.experiments fig6
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_raw_transport
from ..params import SystemParams
from .common import measure_threads
from .sweep import Column, Sweep

__all__ = ["run_one", "IOPS", "BANDWIDTH"]

TRANSPORTS = ("virtio-fs", "nvme-fs")


def run_one(
    kind: str,
    rw: str,
    size: int,
    nthreads: int,
    ops_per_thread: int,
    params: Optional[SystemParams] = None,
) -> dict:
    """``nthreads`` closed-loop threads of ``size``-byte ops on one transport."""
    rig = build_raw_transport(kind, params=params)
    block = b"\x5a" * size

    def prefill():
        # For reads, populate the virtual client's store first.
        for t in range(nthreads):
            for j in range(ops_per_thread):
                yield from rig.adapter.write(t, j * size, block, 0)

    if rw == "read":
        rig.run_until(prefill())

    def op(tid: int, j: int):
        if rw == "read":
            yield from rig.adapter.read(tid, j * size, size, 0)
        else:
            yield from rig.adapter.write(tid, j * size, block, 0)

    res = measure_threads(rig.env, nthreads, ops_per_thread, op)
    return {
        "label": f"{kind}/{rw}/{size}/t{nthreads}",
        "iops": res.iops,
        "lat_us": res.mean_lat * 1e6,
        "GBs": res.iops * size / 1e9,
    }


IOPS = Sweep(
    name="fig6",
    title="Figure 6: raw host-DPU transmission (virtio-fs vs nvme-fs)",
    point=run_one,
    points=tuple(
        {"kind": kind, "rw": rw, "size": size, "nthreads": n, "ops_per_thread": 25}
        for kind in TRANSPORTS
        for rw in ("read", "write")
        for size in (4096, 8192)
        for n in (1, 4, 16, 32, 64)
    ),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("lat_us", "lat_us", 2),
    ),
    notes=("virtual client answers from DPU memory (paper §4.1)",),
)

BANDWIDTH = Sweep(
    name="fig6",
    title="Figure 6 (bandwidth): 1MB sequential, 16 threads",
    point=run_one,
    points=tuple(
        {"kind": kind, "rw": rw, "size": 1 << 20, "nthreads": 16, "ops_per_thread": 8}
        for kind in TRANSPORTS
        for rw in ("write", "read")
    ),
    columns=(
        Column("label", "point", written=False),
        Column("GBs", "GB/s", 3),
    ),
    notes=("PCIe 3.0 x16 ceiling ~= 15.75 GB/s",),
)
