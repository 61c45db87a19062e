"""Ablation studies for DPC's design choices (DESIGN.md §5).

Not in the paper's evaluation, but each isolates one design decision the
paper argues for:

* ``QUEUES`` — nvme-fs multi-queue vs virtio-fs-style single queue:
  how much of Figure 6's gap is the queue count alone?
* ``PLACEMENT`` — hybrid cache (data in host memory) vs a
  DPU-resident cache (every hit crosses PCIe): latency and PCIe traffic
  per hit, the §3.3 argument.
* ``DELEGATIONS`` — BatchFS-style directory delegations on/off: file
  creation throughput.
* ``EC_GEOMETRY`` — RS(k, m) sweep: random-write cost of parity updates.

Declared as four :class:`~repro.experiments.sweep.Sweep` s sharing one
name, hence one ``results/BENCH_ablations.json``::

    python -m repro.experiments ablations
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system, build_host_dfs_clients, build_raw_transport
from ..dfs.clients import OffloadedDfsClient
from ..dfs.mds import DFS_ROOT_INO
from ..host.vfs import O_CREAT
from ..params import SystemParams, default_params
from .common import measure_threads, prefill_dfs_file
from .sweep import Column, Sweep

__all__ = [
    "queues_point", "placement_point", "delegations_point", "ec_point",
    "QUEUES", "PLACEMENT", "DELEGATIONS", "EC_GEOMETRY",
]


def queues_point(
    queues: int,
    depth: int,
    nthreads: int = 32,
    ops_per_thread: int = 25,
    params: Optional[SystemParams] = None,
) -> dict:
    """nvme-fs 8K-write IOPS with ``queues`` queues of ``depth`` slots."""
    p = (params or default_params()).with_overrides(nvme_queue_depth=depth)
    rig = build_raw_transport("nvme-fs", params=p, num_queues=queues)
    block = b"\x5a" * 8192

    def op(tid, j):
        yield from rig.adapter.write(tid, j * 8192, block, 0)

    res = measure_threads(rig.env, nthreads, ops_per_thread, op)
    return {"label": f"queues/q{queues}-d{depth}", "iops": res.iops}


def _vs_minimal(points: list[dict]) -> dict:
    """Each queue setup's IOPS over the first (smallest) one's."""
    base = points[0]["iops"]
    return {f"{p['label']}/vs_minimal": p["iops"] / base for p in points}


def placement_point(
    placement: str, reads: int = 50, params: Optional[SystemParams] = None
) -> dict:
    """Hot 8K re-reads of one page: ``hybrid`` (host-resident data plane)
    or ``dpu`` (every hit a raw nvme-fs round trip for the data)."""
    if placement == "hybrid":
        # The DPC system, page resident in host cache.  Background cache
        # maintenance is quiesced (huge flush period, no prefetch) so the
        # point shows the *hit path's* PCIe footprint alone.
        p = (params or default_params()).with_overrides(cache_flush_period=10.0)
        rig = build_dpc_system(p, prefetch=False)

        def stage():
            f = yield from rig.vfs.open("/kvfs/hot", O_CREAT)
            yield from rig.vfs.write(f, 0, b"h" * 8192)
            return f

        def hit(f):
            yield from rig.vfs.read(f, 0, 8192)
    else:
        rig = build_raw_transport("nvme-fs", params=params)

        def stage():
            yield from rig.adapter.write(1, 0, b"h" * 8192, 0)

        def hit(_f):
            yield from rig.adapter.read(1, 0, 8192, 0)

    def flow():
        f = yield from stage()
        snap = rig.link.stats.snapshot()
        t0 = rig.env.now
        for _ in range(reads):
            yield from hit(f)
        dt = (rig.env.now - t0) / reads
        d = rig.link.stats.delta(snap)
        return dt, d.ops() / reads, (d.bytes_read + d.bytes_written) / reads

    lat, dmas, nbytes = rig.run_until(flow())
    return {
        "label": f"placement/{placement}",
        "hit_lat_us": lat * 1e6,
        "pcie_dmas_per_hit": dmas,
        "pcie_bytes_per_hit": nbytes,
    }


def delegations_point(
    delegations: bool,
    nthreads: int = 32,
    ops_per_thread: int = 25,
    params: Optional[SystemParams] = None,
) -> dict:
    """File-creation throughput with directory delegations on or off."""
    tb = build_host_dfs_clients(params)
    p = tb.params
    # A lightweight client CPU model so the metadata path, not the
    # client's own cycles, is what the ablation measures.
    client = OffloadedDfsClient(
        tb.env,
        tb.fabric,
        "opt-client-ablate" if delegations else "opt-client-sync",
        p.n_mds,
        tb.layout,
        tb.host_cpu,
        p,
        cpu_read=5e-6,
        cpu_write=5e-6,
        use_delegations=delegations,
    )
    tb.fabric.attach(client.src)

    def prep():
        out = {}
        for t in range(nthreads):
            attr = yield from client.create(DFS_ROOT_INO, f"d{t}".encode(), 0o040755)
            out[t] = attr.ino
        yield from client.flush_metadata()
        return out

    dirs = tb.run_until(prep())

    def op(tid, j):
        yield from client.create(dirs[tid], f"f{tid}-{j}".encode())

    res = measure_threads(tb.env, nthreads, ops_per_thread, op)
    return {
        "label": f"delegations/{'on' if delegations else 'off'}",
        "creates_per_sec": res.iops,
        "mds_ops": tb.mds.total_ops(),
    }


def ec_point(
    k: int,
    m: int,
    nthreads: int = 16,
    ops_per_thread: int = 20,
    params: Optional[SystemParams] = None,
) -> dict:
    """Random 8K write IOPS under Reed-Solomon RS(``k``, ``m``)."""
    p = (params or default_params()).with_overrides(
        ec_k=k, ec_m=m, n_dataservers=k + m + 1
    )
    tb = build_host_dfs_clients(p)
    stripe = tb.layout.stripe_size
    span = 32 * stripe
    ino = tb.run_until(prefill_dfs_file(tb.opt_client, b"f", span, stripe))
    block = b"\x5a" * 8192

    def op(tid, j):
        h = (tid * 7919 + j * 104729) & 0xFFFFFFFF
        off = (h % (span // 8192)) * 8192
        yield from tb.opt_client.write(ino, off, block)

    res = measure_threads(tb.env, nthreads, ops_per_thread, op)
    return {
        "label": f"ec/RS({k},{m})",
        "iops": res.iops,
        "storage_overhead": (k + m) / k,
    }


QUEUES = Sweep(
    name="ablations",
    title="Ablation: nvme-fs queue resources (8K writes, 32 threads)",
    point=queues_point,
    # from a virtio-like single slot (one queue, depth 1 — fully serialised
    # commands) to DPC's full multi-queue setup
    points=tuple({"queues": q, "depth": d} for q, d in ((1, 1), (1, 128), (32, 128))),
    columns=(Column("label", "point", written=False), Column("iops", "iops", 1)),
    derived=_vs_minimal,
)

PLACEMENT = Sweep(
    name="ablations",
    title="Ablation: cache data-plane placement (hot 8K reads, 1 thread)",
    point=placement_point,
    points=({"placement": "hybrid"}, {"placement": "dpu"}),
    columns=(
        Column("label", "point", written=False),
        Column("hit_lat_us", "hit_lat_us", 3),
        Column("pcie_dmas_per_hit", "pcie_dmas_per_hit", 3),
        Column("pcie_bytes_per_hit", "pcie_bytes_per_hit", 1),
    ),
    notes=("a DPU cache hit still moves the payload over PCIe; a hybrid hit moves nothing",),
)

DELEGATIONS = Sweep(
    name="ablations",
    title="Ablation: directory delegations (file creates, 32 threads)",
    point=delegations_point,
    points=({"delegations": False}, {"delegations": True}),
    columns=(
        Column("label", "point", written=False),
        Column("creates_per_sec", "creates_per_sec", 1),
        Column("mds_ops", "mds_ops"),
    ),
)

EC_GEOMETRY = Sweep(
    name="ablations",
    title="Ablation: EC geometry (8K random writes, 16 threads)",
    point=ec_point,
    points=tuple({"k": k, "m": 2} for k in (2, 4, 8)),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("storage_overhead", "storage_overhead", 3),
    ),
)
