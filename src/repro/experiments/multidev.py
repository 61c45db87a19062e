"""Multi-NVMe sweep: devices-per-node vs throughput, and the bottleneck shift.

Drives the DPU-local data plane (``build_dpc_system(with_local_nvme=True)``,
mounted at ``"/local"``) with 1/2/4/8 NVMe devices striped RAID0-style, under
two workloads:

* ``4k_randread`` — 4 KiB random reads, O_DIRECT, high concurrency: the
  IOPS-bound case.  One device caps at its channel/IOPS limit; the array
  multiplies that until the DPU cores (ext4-sim dispatch on wimpy TaiShan
  cores) saturate.
* ``128k_seqwrite`` — 128 KiB sequential writes, O_DIRECT, per-thread
  regions: the bandwidth-bound case.  One device caps at ~3.2 GB/s; the
  array multiplies that until the PCIe link (15.75 GB/s) saturates.

Per sweep point the run records throughput, latency, **per-device**
queue-depth peaks / busy time / bytes / utilisation, PCIe-link and CPU
utilisation, and names the most-utilised resource as ``bottleneck`` — the
"where did the ceiling move" answer the sweep exists for.  Declared as a
:class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments multidev [--reduced]
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system
from ..host.adapters import O_DIRECT
from ..host.vfs import O_CREAT
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams, default_params
from .common import measure_threads
from .sweep import Column, Sweep

__all__ = ["run_point", "WORKLOADS", "SWEEP"]

WORKLOADS = ("4k_randread", "128k_seqwrite")

RAND_BLOCK = 4096
RAND_FILE = 32 << 20  # shared random-read file
SEQ_CHUNK = 128 * 1024
SEQ_REGION = 4 << 20  # per-thread streaming region


def _rand_off(tid: int, j: int) -> int:
    h = (tid * 0x9E3779B1 + j * 0x85EBCA77) & 0xFFFFFFFF
    return (h % (RAND_FILE // RAND_BLOCK)) * RAND_BLOCK


def run_point(
    workload: str,
    n_devices: int,
    params: Optional[SystemParams] = None,
    nthreads: Optional[int] = None,
    ops_per_thread: int = 20,
) -> dict:
    """One sweep point: local plane with ``n_devices`` NVMe SSDs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    p = (params or default_params()).with_overrides(
        nvme_devices_per_node=n_devices
    )
    sys_ = build_dpc_system(params=p, with_local_nvme=True)
    randread = workload == "4k_randread"
    if nthreads is None:
        # 64 threads saturate a single device (16 channels x 88us) with
        # queueing to spare while keeping the ext4-sim's per-thread lock
        # contention surcharge off the critical path at higher device counts.
        nthreads = 64 if randread else 16

    def prep():
        f = yield from sys_.vfs.open("/local/bigfile", O_CREAT | O_DIRECT)
        chunk = 1 << 20
        blob = b"\x42" * chunk
        size = RAND_FILE if randread else SEQ_REGION * nthreads
        for off in range(0, size, chunk):
            yield from sys_.vfs.write(f, off, blob)
        return f

    handle = sys_.run_until(prep())
    seq_blob = b"\x5a" * SEQ_CHUNK

    def op(tid: int, j: int):
        if randread:
            yield from sys_.vfs.read(handle, _rand_off(tid, j), RAND_BLOCK)
        else:
            off = tid * SEQ_REGION + (j * SEQ_CHUNK) % SEQ_REGION
            yield from sys_.vfs.write(handle, off, seq_blob)

    # Snapshot counters so the report covers the measurement window only
    # (preallocation writes are excluded).
    devices = getattr(sys_.nvme, "devices", [sys_.nvme])
    dev0 = [
        (d.reads, d.bytes_read + d.bytes_written, d.busy_seconds) for d in devices
    ]
    link_stats = sys_.link.stats
    pcie_bytes0 = link_stats.bytes_read + link_stats.bytes_written
    res = measure_threads(
        sys_.env,
        nthreads,
        ops_per_thread,
        op,
        host_cpu=sys_.host_cpu,
        dpu_cpu=sys_.dpu_cpu,
        tracer=sys_.tracer or NULL_TRACER,
        sketches=sys_.sketches or NULL_HUB,
    )
    elapsed = res.elapsed if res.elapsed > 0 else 1e-12
    op_bytes = RAND_BLOCK if randread else SEQ_CHUNK
    pcie_bytes = (link_stats.bytes_read + link_stats.bytes_written) - pcie_bytes0

    # per-device window deltas, keyed by device name
    reads, nbytes, busy, util = {}, {}, {}, {}
    for d, (r0, b0, busy0) in zip(devices, dev0):
        reads[d.name] = d.reads - r0
        nbytes[d.name] = d.bytes_read + d.bytes_written - b0
        busy[d.name] = d.busy_seconds - busy0
        util[d.name] = min(1.0, busy[d.name] / (d.num_channels * elapsed))

    # Resource utilisations over the measurement window -> bottleneck.
    ssd_util = max(util.values())
    pcie_util = min(1.0, pcie_bytes / (p.pcie_bandwidth * elapsed))
    dpu_util = sys_.dpu_cpu.window_usage_percent() / 100.0
    host_util = sys_.host_cpu.window_usage_percent() / 100.0
    utils = {
        "ssd": ssd_util,
        "pcie": pcie_util,
        "dpu_cores": dpu_util,
        "host_cpu": host_util,
    }
    bottleneck = max(utils, key=utils.get)

    return {
        "label": f"{workload}/d{n_devices}",
        "workload": workload,
        "n_devices": n_devices,
        "nthreads": nthreads,
        "iops": res.iops,
        "bandwidth_GBs": res.iops * op_bytes / 1e9,
        "lat_us": res.mean_lat * 1e6,
        "reads": reads,
        "bytes": nbytes,
        "busy_seconds": busy,
        "utilisation": util,
        "qd_peak": {d.name: d.qd_peak for d in devices},
        "ssd_util": ssd_util,
        "pcie_util": pcie_util,
        "dpu_util": dpu_util,
        "host_util": host_util,
        "bottleneck": bottleneck,
    }


def _speedups(points: list[dict]) -> dict:
    """IOPS of every multi-device point over its workload's 1-device point."""
    base = {pt["workload"]: pt["iops"] for pt in points if pt["n_devices"] == 1}
    return {
        f"{pt['label']}/speedup_vs_1dev": round(pt["iops"] / base[pt["workload"]], 3)
        for pt in points
        if pt["n_devices"] > 1 and base.get(pt["workload"], 0) > 0
    }


SWEEP = Sweep(
    name="multidev",
    title="Multi-NVMe sweep: devices per node vs throughput (DPU-local plane)",
    point=run_point,
    points=tuple(
        {"workload": w, "n_devices": n} for w in WORKLOADS for n in (1, 2, 4, 8)
    ),
    reduced=tuple(
        {"workload": w, "n_devices": n, "ops_per_thread": 10}
        for w in WORKLOADS
        for n in (1, 2, 4)
    ),
    columns=(
        Column("workload", "workload", written=False),
        Column("n_devices", "devices", written=False),
        Column("iops", "iops", 1),
        Column("bandwidth_GBs", "GB/s", 3),
        Column("lat_us", "lat_us", 2),
        Column("ssd_util", "ssd_util", 4),
        Column("pcie_util", "pcie_util", 4),
        Column("dpu_util", "dpu_util", 4),
        Column("bottleneck", "bottleneck"),
        Column("qd_peak"),
        Column("busy_seconds", ndigits=6),
        Column("bytes"),
        Column("utilisation", ndigits=4),
    ),
    derived=_speedups,
    notes=("bottleneck = most-utilised resource over the measurement window",),
)
