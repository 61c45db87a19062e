"""Figure 9: DFS performance and host CPU with three fs-clients.

Compares, on the same DFS backend:

* **NFS** — the standard client (host);
* **NFS+opt-client** — the optimized host client;
* **NFS+DPC** — the same optimized stack running on the DPU, reached via
  nvme-fs (the full DPC system).

Panels: (a) 8 KiB random read/write IOPS on a big file, (b) small-file
operations (8 KiB random file read = lookup + read; 8 KiB file creation
write = create + write), (c) 1 MiB sequential bandwidth, and host CPU cores
for each.

Paper claims checked: opt = 4-5x NFS IOPS at 6-15x CPU; DPC ~= opt
performance (and ~+40 % on random write / creation write) at ~standard-NFS
CPU; DPC cuts ~90 % of the optimized client's host CPU.

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments fig9
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_dpc_system, build_host_dfs_clients
from ..core.topology import ROLE_DPC, node_endpoint
from ..dfs.mds import DFS_ROOT_INO
from ..host.adapters import O_DIRECT
from ..host.vfs import O_CREAT
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from .common import measure_threads, prefill_dfs_file, prefill_file
from .sweep import Column, Sweep

__all__ = ["run_case", "CASES", "SWEEP"]

BLOCK = 8192
FILE_SIZE = 8 * 1024 * 1024
SEQ_CHUNK = 1 << 20

CASES = ("rnd-rd", "rnd-wr", "smallfile-rd", "create-wr", "seq-rd", "seq-wr")

#: the DPC client column is named after node 0's endpoint identity, so the
#: report CLI and experiment tables agree with Cluster registry names
DPC = node_endpoint(ROLE_DPC, 0)


def _rand_off(tid: int, j: int) -> int:
    h = (tid * 7919 + j * 104729) & 0xFFFFFFFF
    return (h % (FILE_SIZE // BLOCK)) * BLOCK


class _HostClientDriver:
    """std/opt client on the host DFS testbed; files are inodes."""

    def __init__(self, kind: str, params):
        self.tb = build_host_dfs_clients(params)
        self.client = self.tb.std_client if kind == "std" else self.tb.opt_client
        self.read, self.write = self.client.read, self.client.write

    def prep_bigfile(self):
        return self.tb.run_until(
            prefill_dfs_file(self.tb.opt_client, b"big", FILE_SIZE, SEQ_CHUNK)
        )

    def prep_smallfiles(self, count: int):
        def prep():
            inos = []
            for i in range(count):
                attr = yield from self.tb.opt_client.create(
                    DFS_ROOT_INO, f"s{i:05d}".encode()
                )
                yield from self.tb.opt_client.write(attr.ino, 0, b"\x22" * BLOCK)
                inos.append((f"s{i:05d}".encode(), attr.ino))
            yield from self.tb.opt_client.flush_metadata()
            return inos

        return self.tb.run_until(prep())

    def make_dirs(self, nthreads):
        def prep():
            out = {}
            for t in range(nthreads):
                attr = yield from self.tb.opt_client.create(
                    DFS_ROOT_INO, f"dir{t}".encode(), mode=0o040755
                )
                out[t] = attr.ino
            yield from self.tb.opt_client.flush_metadata()
            return out

        return self.tb.run_until(prep())

    def read_small(self, name, _ino):
        attr = yield from self.client.lookup(DFS_ROOT_INO, name)
        yield from self.client.read(attr.ino, 0, BLOCK)

    def create_write(self, dir_ino, name: str, data: bytes):
        attr = yield from self.client.create(dir_ino, name.encode())
        yield from self.client.write(attr.ino, 0, data)


class _DpcDriver:
    """The full DPC system, /dfs mount, direct I/O; files are handles."""

    def __init__(self, params):
        self.tb = build_dpc_system(params, with_dfs=True)
        self.vfs = self.tb.vfs
        self.read, self.write = self.vfs.read, self.vfs.write

    def prep_bigfile(self):
        return self.tb.run_until(
            prefill_file(self.vfs, "/dfs/big", FILE_SIZE, b"\x11", SEQ_CHUNK)
        )

    def prep_smallfiles(self, count: int):
        def prep():
            handles = []
            for i in range(count):
                f = yield from self.vfs.open(f"/dfs/s{i:05d}", O_CREAT | O_DIRECT)
                yield from self.vfs.write(f, 0, b"\x22" * BLOCK)
                handles.append((f"s{i:05d}", f))
            return handles

        return self.tb.run_until(prep())

    def make_dirs(self, nthreads):
        def mk():
            for t in range(nthreads):
                yield from self.vfs.mkdir(f"/dfs/dir{t}")

        self.tb.run_until(mk())
        return {t: f"/dfs/dir{t}" for t in range(nthreads)}

    def read_small(self, name, f):
        yield from self.vfs.stat(f"/dfs/{name}")
        yield from self.vfs.read(f, 0, BLOCK)

    def create_write(self, dir_path, name: str, data: bytes):
        f = yield from self.vfs.open(f"{dir_path}/{name}", O_CREAT | O_DIRECT)
        yield from self.vfs.write(f, 0, data)


def run_case(
    client: str,
    case: str,
    nthreads: int = 64,
    ops_per_thread: int = 15,
    params: Optional[SystemParams] = None,
) -> dict:
    """One (client, workload) cell -> iops/bandwidth + host cores; ``value``
    is GB/s for the sequential cases and IOPS for the rest."""
    driver = _DpcDriver(params) if client == DPC else _HostClientDriver(client, params)
    seq = case in ("seq-rd", "seq-wr")
    if seq:
        nthreads = min(nthreads, 16)
    block = b"\x5a" * BLOCK
    blob = b"\x5a" * SEQ_CHUNK

    if case in ("rnd-rd", "rnd-wr") or seq:
        f = driver.prep_bigfile()

    if case == "rnd-rd":
        def op(tid, j):
            yield from driver.read(f, _rand_off(tid, j), BLOCK)
    elif case == "rnd-wr":
        def op(tid, j):
            yield from driver.write(f, _rand_off(tid, j), block)
    elif case == "smallfile-rd":
        smallfiles = driver.prep_smallfiles(128)

        def op(tid, j):
            yield from driver.read_small(*smallfiles[(tid * 31 + j * 17) % len(smallfiles)])
    elif case == "create-wr":
        tid_dirs = driver.make_dirs(nthreads)

        def op(tid, j):
            yield from driver.create_write(tid_dirs[tid], f"n{tid}-{j}", block)
    elif case == "seq-rd":
        def op(tid, j):
            yield from driver.read(f, (tid * SEQ_CHUNK + j * SEQ_CHUNK) % FILE_SIZE, SEQ_CHUNK)
    else:  # seq-wr
        def op(tid, j):
            yield from driver.write(f, (tid * SEQ_CHUNK + j * SEQ_CHUNK) % FILE_SIZE, blob)

    tb = driver.tb
    res = measure_threads(
        tb.env,
        nthreads,
        ops_per_thread,
        op,
        host_cpu=tb.host_cpu,
        tracer=tb.tracer or NULL_TRACER,
        sketches=tb.sketches or NULL_HUB,
    )
    unit = SEQ_CHUNK if seq else BLOCK
    lats = sorted(res.latencies)
    p99 = lats[min(len(lats) - 1, int(0.99 * (len(lats) - 1)))] if lats else 0.0
    return {
        "label": f"{case}/{client}",
        "value": res.iops * unit / 1e9 if seq else res.iops,
        "iops": res.iops,
        "bandwidth": res.iops * unit,
        "host_cores": tb.registry.get("cpu.host.window_cores"),
        "lat_us": res.mean_lat * 1e6,
        "lat_p99_us": p99 * 1e6,
    }


SWEEP = Sweep(
    name="fig9",
    title="Figure 9: DFS clients — NFS vs NFS+opt-client vs NFS+DPC",
    point=run_case,
    points=tuple(
        {"client": client, "case": case} for case in CASES for client in ("std", "opt", DPC)
    ),
    columns=(
        Column("label", "point", written=False),
        Column("value", "iops_or_GBs"),
        Column("host_cores", "host_cores"),
    ),
    notes=("seq rows are GB/s; others are IOPS; 64 threads (16 for seq)",),
)
