"""Shared helpers for the experiment modules: the closed-loop thread
driver and the two prefill loops the figures stage their files with."""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..dfs.mds import DFS_ROOT_INO
from ..host.adapters import O_DIRECT
from ..host.vfs import O_CREAT
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..sim.core import Environment
from ..sim.cpu import CpuPool

__all__ = ["measure_threads", "ThreadsResult", "prefill_file", "prefill_dfs_file"]


def prefill_file(vfs, path: str, size: int, fill: bytes, chunk: int = 1 << 20):
    """Open ``path`` ``O_CREAT|O_DIRECT`` and write ``size`` bytes of
    ``fill`` in ``chunk``-sized writes; returns the handle."""
    f = yield from vfs.open(path, O_CREAT | O_DIRECT)
    blob = fill * chunk
    for off in range(0, size, chunk):
        yield from vfs.write(f, off, blob)
    return f


def prefill_dfs_file(client, name: bytes, size: int, chunk: int = 1 << 20):
    """Create ``name`` under the DFS root through ``client``, write ``size``
    bytes in ``chunk``-sized writes and flush metadata; returns the inode."""
    attr = yield from client.create(DFS_ROOT_INO, name)
    blob = b"\x11" * chunk
    for off in range(0, size, chunk):
        yield from client.write(attr.ino, off, blob)
    yield from client.flush_metadata()
    return attr.ino


class ThreadsResult:
    """Outcome of a closed-loop N-thread run."""

    def __init__(self, total_ops: int, elapsed: float, latencies: list[float]):
        self.total_ops = total_ops
        self.elapsed = elapsed
        self.latencies = latencies

    @property
    def iops(self) -> float:
        return self.total_ops / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mean_lat(self) -> float:
        return sum(self.latencies) / len(self.latencies) if self.latencies else 0.0


def measure_threads(
    env: Environment,
    nthreads: int,
    ops_per_thread: int,
    op_factory: Callable[[int, int], Generator],
    host_cpu: Optional[CpuPool] = None,
    dpu_cpu: Optional[CpuPool] = None,
    tracer=NULL_TRACER,
    sketches=NULL_HUB,
) -> ThreadsResult:
    """Run ``op_factory(tid, op_index)`` in a closed loop on N threads.

    Begins CPU measurement windows at the start so ``window_cores_used()``
    on the pools reflects this run.
    """
    latencies: list[float] = []
    start = env.now

    def thread(tid: int):
        for j in range(ops_per_thread):
            t0 = env.now
            with tracer.span("op", track="client", parent=None, tid=tid, j=j):
                yield from op_factory(tid, j)
            latencies.append(env.now - t0)
            sketches.observe("client.op", env.now - t0)

    if host_cpu is not None:
        host_cpu.begin_window()
    if dpu_cpu is not None:
        dpu_cpu.begin_window()
    procs = [env.process(thread(t), name=f"bench-t{t}") for t in range(nthreads)]
    env.run(until=env.all_of(procs))
    return ThreadsResult(nthreads * ops_per_thread, env.now - start, latencies)
