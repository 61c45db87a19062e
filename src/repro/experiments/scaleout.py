"""Scale-out: N DPC clients (host/DPU pairs) against one shared backend.

Sweeps the cluster size and drives every node with the same Zipf-skewed
70/30 random mix over a shared file set (the classic multi-client
scale-out experiment): aggregate throughput should grow close to linearly
while the shared KV shards have headroom, then saturate — the knee shows
up as rising per-op latency and shard queue wait.

Per sweep point the run records aggregate and per-node IOPS, p50/p99
latency, total KV shard queue wait, and host/DPU busy cores.  Declared as
a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments scaleout [--reduced]
"""

from __future__ import annotations

from typing import Optional

from ..core.topology import build_cluster
from ..params import SystemParams
from ..workload.runner import ClusterJobSpec, run_cluster_job
from .sweep import Column, Sweep

__all__ = ["run_point", "saturation_point", "SWEEP"]


def run_point(
    n_hosts: int,
    params: Optional[SystemParams] = None,
    nthreads: int = 12,
    ops_per_thread: int = 30,
    nfiles: int = 16,
    file_size: int = 2 << 20,
    zipf_s: float = 1.1,
) -> dict:
    """One sweep point: build an ``n_hosts`` cluster, run the shared mix."""
    cluster = build_cluster(n_hosts=n_hosts, params=params)
    spec = ClusterJobSpec(
        name="scaleout",
        mode="randrw",
        mount="/kvfs",
        block_size=8192,
        nthreads=nthreads,
        ops_per_thread=ops_per_thread,
        nfiles=nfiles,
        file_size=file_size,
        read_fraction=0.7,
        zipf_s=zipf_s,
    )
    res = run_cluster_job(cluster, spec)
    return {
        "label": f"n{n_hosts}",
        "n_hosts": n_hosts,
        "aggregate_iops": res.iops,
        "per_node_iops": res.per_node_iops,
        "lat_p50_us": res.lat_p50_us,
        "lat_p99_us": res.lat_p99_us,
        "kv_queue_wait_us": cluster.kv_cluster.total_queue_wait() * 1e6,
        "host_cores_total": sum(res.host_cores),
        "dpu_cores_total": sum(res.dpu_cores),
        "elapsed_s": res.elapsed,
        "errors": res.errors,
    }


def saturation_point(points: list[dict]) -> int:
    """Smallest cluster size past which aggregate IOPS stops improving by
    >10 % per doubling (the knee); the largest size if it never saturates."""
    for a, b in zip(points, points[1:]):
        if b["aggregate_iops"] < a["aggregate_iops"] * 1.10:
            return a["n_hosts"]
    return points[-1]["n_hosts"]


SWEEP = Sweep(
    name="scaleout",
    title="Scale-out: aggregate throughput vs cluster size (randrw 70/30, Zipf 1.1)",
    point=run_point,
    points=tuple({"n_hosts": n} for n in (1, 2, 4, 8)),
    reduced=tuple(
        {"n_hosts": n, "nthreads": 6, "ops_per_thread": 15} for n in (1, 2, 4)
    ),
    columns=(
        Column("n_hosts", "n_hosts", written=False),
        Column("aggregate_iops", "agg_iops", 1),
        Column("lat_p50_us", "p50_us", 2),
        Column("lat_p99_us", "p99_us", 2),
        Column("kv_queue_wait_us", "kv_qwait_us", 1),
        Column("host_cores_total", "host_cores", 3),
        Column("dpu_cores_total", "dpu_cores", 3),
        Column("errors"),
    ),
    derived=lambda points: {"saturation_n_hosts": saturation_point(points)},
    notes=("per-node thread count fixed; aggregate offered load grows with n_hosts",),
)
