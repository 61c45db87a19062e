"""fio/vdbench-style workload generator and runner.

A :class:`JobSpec` describes an I/O job the way the paper's fio/vdbench
configurations do — pattern, block size, thread count, direct/buffered —
and :func:`run_job` executes it against any *target factory* (one I/O
target per thread), collecting IOPS, latency percentiles, bandwidth, and
CPU-core usage on the pools of interest.

Targets are duck-typed: anything with ``read(offset, length)`` and
``write(offset, data)`` generator methods works (VFS files, DFS clients,
raw transport adapters).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from bisect import bisect_left

from ..dfs.clients import DfsError
from ..dfs.stripeio import StorageUnavailable
from ..fault.retry import RetryBudgetExceeded
from ..metrics.stats import LatencyRecorder
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..sim.core import Environment, Event
from ..sim.cpu import CpuPool

__all__ = [
    "JobSpec",
    "JobResult",
    "run_job",
    "VfsFileTarget",
    "ClientTarget",
    "ClusterJobSpec",
    "ClusterJobResult",
    "run_cluster_job",
    "IO_ERRORS",
]

#: what a driver counts as a failed op; anything else is a bug and propagates
IO_ERRORS = (OSError, DfsError, StorageUnavailable, RetryBudgetExceeded)

MODES = ("randread", "randwrite", "randrw", "seqread", "seqwrite")


@dataclass(frozen=True)
class JobSpec:
    """One I/O job (fio-style)."""

    name: str
    mode: str  # randread | randwrite | randrw | seqread | seqwrite
    block_size: int = 8192
    nthreads: int = 1
    ops_per_thread: int = 50
    file_size: int = 64 * 1024 * 1024
    read_fraction: float = 0.7  # for randrw (the paper's 70/30 mix)
    #: per-job RNG seed; ``None`` derives the per-thread streams from the
    #: simulation environment's single root seed (``params.seed``), making
    #: the whole run — offsets included — reproducible from one number
    seed: Optional[int] = 42

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.block_size <= 0 or self.nthreads <= 0 or self.ops_per_thread <= 0:
            raise ValueError("block_size, nthreads, ops_per_thread must be positive")


@dataclass
class JobResult:
    """Aggregated outcome of one job."""

    spec: JobSpec
    iops: float
    bandwidth: float  # bytes/sec
    lat: LatencyRecorder
    elapsed: float
    host_cores: float = 0.0
    dpu_cores: float = 0.0
    errors: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def lat_p99_us(self) -> float:
        return self.lat.percentile(99) * 1e6


class VfsFileTarget:
    """I/O target over an open VFS file."""

    def __init__(self, vfs, openfile):
        self.vfs = vfs
        self.of = openfile

    def read(self, offset: int, length: int) -> Generator:
        return (yield from self.vfs.read(self.of, offset, length))

    def write(self, offset: int, data: bytes) -> Generator:
        return (yield from self.vfs.write(self.of, offset, data))


class ClientTarget:
    """I/O target over a DFS client (or anything with ino-based read/write)."""

    def __init__(self, client, ino: int):
        self.client = client
        self.ino = ino

    def read(self, offset: int, length: int) -> Generator:
        return (yield from self.client.read(self.ino, offset, length))

    def write(self, offset: int, data: bytes) -> Generator:
        return (yield from self.client.write(self.ino, offset, data))


def _offsets(
    spec: JobSpec, tid: int, rng: Optional[random.Random] = None
) -> Generator[tuple[int, bool], None, None]:
    """Yield (offset, is_read) per op, deterministic per thread."""
    if rng is None:
        rng = random.Random(((spec.seed or 0) << 16) ^ tid)
    nblocks = max(1, spec.file_size // spec.block_size)
    if spec.mode.startswith("seq"):
        # Each thread streams its own region.  When nthreads > nblocks the
        # per-thread region clamps to one block and bases wrap *within the
        # file* — the old `(tid % nthreads) * region` form handed threads
        # beyond nblocks a base past EOF, aliasing every op onto the same
        # out-of-range offset.
        region = max(1, nblocks // spec.nthreads)
        base = (tid * region) % nblocks
        is_read = spec.mode == "seqread"
        for i in range(spec.ops_per_thread):
            yield (base + i % region) * spec.block_size, is_read
        return
    for _ in range(spec.ops_per_thread):
        off = rng.randrange(nblocks) * spec.block_size
        if spec.mode == "randread":
            yield off, True
        elif spec.mode == "randwrite":
            yield off, False
        else:
            yield off, rng.random() < spec.read_fraction


def run_job(
    env: Environment,
    spec: JobSpec,
    target_factory: Callable[[int], object],
    host_cpu: Optional[CpuPool] = None,
    dpu_cpu: Optional[CpuPool] = None,
    payload_byte: int = 0x5A,
    tracer=NULL_TRACER,
    sketches=NULL_HUB,
) -> JobResult:
    """Execute ``spec`` with one simulation process per thread.

    ``target_factory(tid)`` may be a plain function returning a target or a
    generator (for targets that need simulated setup, e.g. opening a file).
    """
    lat = LatencyRecorder()
    block = bytes([payload_byte]) * spec.block_size
    errors = [0]
    started = env.now

    def thread(tid: int) -> Generator[Event, None, None]:
        made = target_factory(tid)
        if hasattr(made, "send"):  # generator: simulated setup
            target = yield from made
        else:
            target = made
        # seed=None: derive this thread's stream from the environment's
        # root seed, so one number reproduces the entire run bit-exactly.
        rng = env.substream(f"job:{spec.name}:t{tid}") if spec.seed is None else None
        for off, is_read in _offsets(spec, tid, rng):
            t0 = env.now
            name = "op.read" if is_read else "op.write"
            with tracer.span(name, track="client", parent=None, tid=tid):
                try:
                    if is_read:
                        yield from target.read(off, spec.block_size)
                    else:
                        yield from target.write(off, block)
                except IO_ERRORS:
                    errors[0] += 1
            lat.add(env.now - t0)
            sketches.observe("client.read" if is_read else "client.write", env.now - t0)

    if host_cpu is not None:
        host_cpu.begin_window()
    if dpu_cpu is not None:
        dpu_cpu.begin_window()
    procs = [env.process(thread(t), name=f"{spec.name}-t{t}") for t in range(spec.nthreads)]
    env.run(until=env.all_of(procs))
    elapsed = env.now - started
    total_ops = spec.nthreads * spec.ops_per_thread
    iops = total_ops / elapsed if elapsed > 0 else 0.0
    return JobResult(
        spec=spec,
        iops=iops,
        bandwidth=iops * spec.block_size,
        lat=lat,
        elapsed=elapsed,
        host_cores=host_cpu.window_cores_used() if host_cpu else 0.0,
        dpu_cores=dpu_cpu.window_cores_used() if dpu_cpu else 0.0,
        errors=errors[0],
    )


# ---------------------------------------------------------------------------
# Multi-node (cluster) driver
# ---------------------------------------------------------------------------

RAND_MODES = ("randread", "randwrite", "randrw")


@dataclass(frozen=True)
class ClusterJobSpec:
    """One I/O job fanned out over every node of a :class:`~repro.core.Cluster`.

    Each node runs ``nthreads`` threads; every op picks a file by
    Zipf-skewed popularity (``zipf_s``; 0 = uniform) from a shared set of
    ``nfiles`` files created by node 0, then a uniform block within it —
    the classic shared-hot-set scale-out workload.  All per-thread RNG
    streams derive from the environment's root seed, so a cluster run is
    reproducible from one number.
    """

    name: str
    mode: str  # randread | randwrite | randrw
    mount: str = "/kvfs"
    block_size: int = 8192
    nthreads: int = 2  # per node
    ops_per_thread: int = 50
    nfiles: int = 8
    file_size: int = 1 << 20
    read_fraction: float = 0.7
    zipf_s: float = 1.1
    direct: bool = True

    def __post_init__(self):
        if self.mode not in RAND_MODES:
            raise ValueError(f"cluster jobs support {RAND_MODES}, not {self.mode!r}")
        if min(self.block_size, self.nthreads, self.ops_per_thread, self.nfiles) <= 0:
            raise ValueError("block_size, nthreads, ops_per_thread, nfiles must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf_s must be >= 0")


@dataclass
class ClusterJobResult:
    """Aggregated outcome of one cluster job."""

    spec: ClusterJobSpec
    n_hosts: int
    iops: float  # aggregate across nodes
    bandwidth: float
    lat: LatencyRecorder
    elapsed: float
    per_node_iops: list = field(default_factory=list)
    host_cores: list = field(default_factory=list)  # per node
    dpu_cores: list = field(default_factory=list)
    errors: int = 0

    @property
    def lat_p50_us(self) -> float:
        return self.lat.percentile(50) * 1e6

    @property
    def lat_p99_us(self) -> float:
        return self.lat.percentile(99) * 1e6


def _zipf_cdf(n: int, s: float) -> list:
    """CDF of the Zipf(s) popularity law over ranks 1..n (s=0 → uniform)."""
    weights = [1.0 / (r ** s) for r in range(1, n + 1)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0  # guard float drift for rng.random() ≈ 1
    return cdf


def run_cluster_job(cluster, spec: ClusterJobSpec, payload_byte: int = 0x5A) -> ClusterJobResult:
    """Execute ``spec`` across every node of ``cluster``.

    Node 0 creates and pre-writes the shared file set (and, on a ``/dfs``
    mount, publishes the batched creates with ``flush_metadata`` so the
    other clients can resolve them); then every node opens its own handles
    and all node×thread processes run concurrently over the shared
    Environment.
    """
    from ..host.vfs import O_CREAT, O_DIRECT

    env = cluster.env
    lat = LatencyRecorder()
    block = bytes([payload_byte]) * spec.block_size
    nblocks = max(1, spec.file_size // spec.block_size)
    cdf = _zipf_cdf(spec.nfiles, spec.zipf_s)
    paths = [f"{spec.mount}/{spec.name}-f{k}" for k in range(spec.nfiles)]
    flags = O_DIRECT if spec.direct else 0
    errors = [0]
    node_ops = [0] * cluster.n_hosts

    def prep() -> Generator[Event, None, None]:
        vfs0 = cluster.nodes[0].vfs
        chunk = bytes([payload_byte]) * min(spec.file_size, 16 * spec.block_size)
        for path in paths:
            of = yield from vfs0.open(path, O_CREAT | O_DIRECT)
            off = 0
            while off < spec.file_size:
                n = min(len(chunk), spec.file_size - off)
                yield from vfs0.write(of, off, chunk[:n])
                off += n
            yield from vfs0.close(of)
        if spec.mount.startswith("/dfs"):
            # Batched creates under node 0's directory delegation are not
            # visible to the other clients until committed to the MDS.
            yield from cluster.nodes[0].dpu.dfs_client.flush_metadata()

    def thread(node_idx: int, tid: int, handles: list) -> Generator[Event, None, None]:
        node = cluster.nodes[node_idx]
        hub = node.sketches if node.sketches is not None else NULL_HUB
        tracer = node.tracer if node.tracer is not None else NULL_TRACER
        rng = env.substream(f"cjob:{spec.name}:n{node_idx}:t{tid}")
        for _ in range(spec.ops_per_thread):
            fidx = bisect_left(cdf, rng.random())
            off = rng.randrange(nblocks) * spec.block_size
            if spec.mode == "randread":
                is_read = True
            elif spec.mode == "randwrite":
                is_read = False
            else:
                is_read = rng.random() < spec.read_fraction
            t0 = env.now
            name = "op.read" if is_read else "op.write"
            with tracer.span(name, track="client", parent=None, tid=tid):
                try:
                    if is_read:
                        yield from node.vfs.read(handles[fidx], off, spec.block_size)
                    else:
                        yield from node.vfs.write(handles[fidx], off, block)
                except IO_ERRORS:
                    errors[0] += 1
            lat.add(env.now - t0)
            hub.observe("client.read" if is_read else "client.write", env.now - t0)
            node_ops[node_idx] += 1

    def node_driver(node_idx: int) -> Generator[Event, None, None]:
        node = cluster.nodes[node_idx]
        handles = []
        for path in paths:
            of = yield from node.vfs.open(path, flags)
            handles.append(of)
        procs = [
            env.process(thread(node_idx, tid, handles), name=f"{spec.name}-n{node_idx}-t{tid}")
            for tid in range(spec.nthreads)
        ]
        yield env.all_of(procs)
        for of in handles:
            yield from node.vfs.close(of)

    env.run(until=env.process(prep(), name=f"{spec.name}-prep"))
    for node in cluster.nodes:
        node.host.cpu.begin_window()
        node.dpu.cpu.begin_window()
    started = env.now
    drivers = [
        env.process(node_driver(i), name=f"{spec.name}-n{i}") for i in range(cluster.n_hosts)
    ]
    env.run(until=env.all_of(drivers))
    elapsed = env.now - started
    total_ops = cluster.n_hosts * spec.nthreads * spec.ops_per_thread
    iops = total_ops / elapsed if elapsed > 0 else 0.0
    return ClusterJobResult(
        spec=spec,
        n_hosts=cluster.n_hosts,
        iops=iops,
        bandwidth=iops * spec.block_size,
        lat=lat,
        elapsed=elapsed,
        per_node_iops=[
            ops / elapsed if elapsed > 0 else 0.0 for ops in node_ops
        ],
        host_cores=[n.host.cpu.window_cores_used() for n in cluster.nodes],
        dpu_cores=[n.dpu.cpu.window_cores_used() for n in cluster.nodes],
        errors=errors[0],
    )
