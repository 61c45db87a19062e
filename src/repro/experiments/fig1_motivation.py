"""Figure 1 (motivation): standard vs optimized NFS client on the host.

8 KiB random read / random write / 70:30 mix at 32 threads against a shared
EC-protected big file.  The paper's point: client-side optimizations (EC,
direct I/O, forwarding avoidance, delegations) buy ~4x IOPS but cost 4-6x
the CPU cores — the "datacenter tax" DPC exists to eliminate.

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments fig1
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_host_dfs_clients
from ..params import SystemParams
from .common import measure_threads, prefill_dfs_file
from .sweep import Column, Sweep

__all__ = ["run_one", "SWEEP"]

BLOCK = 8192
FILE_SIZE = 8 * 1024 * 1024
MODES = ("randread", "randwrite", "randrw")


def run_one(
    client_kind: str,
    mode: str,
    nthreads: int = 32,
    ops_per_thread: int = 20,
    params: Optional[SystemParams] = None,
) -> dict:
    tb = build_host_dfs_clients(params)
    client = tb.std_client if client_kind == "std" else tb.opt_client
    ino = tb.run_until(prefill_dfs_file(tb.opt_client, b"bigfile", FILE_SIZE))
    block = b"\x5a" * BLOCK

    def op(tid, j):
        rng = (tid * 7919 + j * 104729) & 0xFFFFFFFF
        off = (rng % (FILE_SIZE // BLOCK)) * BLOCK
        is_read = {"randread": True, "randwrite": False}.get(
            mode, (rng % 100) < 70
        )
        if is_read:
            yield from client.read(ino, off, BLOCK)
        else:
            yield from client.write(ino, off, block)

    res = measure_threads(tb.env, nthreads, ops_per_thread, op, host_cpu=tb.host_cpu)
    return {
        "label": f"{mode}/{client_kind}",
        "iops": res.iops,
        "cores": tb.host_cpu.window_cores_used(),
    }


def _ratios(points: list[dict]) -> dict:
    """Optimized over standard, per workload."""
    by = {p["label"]: p for p in points}
    out = {}
    for mode in MODES:
        std, opt = by[f"{mode}/std"], by[f"{mode}/opt"]
        out[f"{mode}/iops_ratio"] = opt["iops"] / std["iops"]
        out[f"{mode}/cpu_ratio"] = opt["cores"] / max(std["cores"], 1e-9)
    return out


SWEEP = Sweep(
    name="fig1",
    title="Figure 1: standard vs optimized NFS client (8K, 32 threads)",
    point=run_one,
    points=tuple({"client_kind": k, "mode": m} for m in MODES for k in ("std", "opt")),
    columns=(
        Column("label", "point", written=False),
        Column("iops", "iops", 1),
        Column("cores", "cpu_cores", 3),
    ),
    derived=_ratios,
    notes=("paper: ~4x IOPS for ~4-6x CPU cores (mix = 70% read / 30% write)",),
)
