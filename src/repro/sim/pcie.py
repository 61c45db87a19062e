"""PCIe link model: DMA transactions and PCIe atomics.

Everything the DPU does to host memory crosses this link.  The model has two
components per transaction:

* a fixed per-TLP round-trip **latency** (descriptor fetches, doorbells,
  atomics — the dominant cost for the small reads that make virtio-fs slow),
* a shared **bandwidth** pipe for the payload (dominant for 1 MB transfers,
  where nvme-fs saturates PCIe 3.0 x16 and virtio-fs does not).

Every transaction is also *counted* by category.  The paper's core protocol
argument — Figure 2(b) vs Figure 4, 11 DMAs vs 4 DMAs for an 8 KB write —
is reproduced by literally counting these transactions while the real ring
walks execute (see :mod:`repro.proto.virtio` and :mod:`repro.proto.nvme`).

Multiple DMA engines are modeled as a counted resource: a DPU can issue
``engines`` transfers concurrently; extra transfers queue.  Host-initiated
accesses to its own memory do not use this class at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator

from ..obsv.tracer import NULL_TRACER
from .core import Environment, Event
from .memory import MemoryArena
from .resources import Resource, TokenBucket

__all__ = ["PcieLink", "DmaStats"]


@dataclass
class DmaStats:
    """Running counters of PCIe transactions, by category."""

    reads: int = 0
    writes: int = 0
    atomics: int = 0
    doorbells: int = 0
    interrupts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    by_tag: dict = field(default_factory=dict)
    #: tag -> [coalesced transactions, total entries they carried] for
    #: burst transfers (multi-SQE fetches, multi-CQE writebacks, ...)
    burst_by_tag: dict = field(default_factory=dict)

    def ops(self) -> int:
        return self.reads + self.writes + self.atomics

    def control_tlps(self) -> int:
        """Control-plane TLPs: doorbell MMIOs + completion interrupts."""
        return self.doorbells + self.interrupts

    def record(self, kind: str, nbytes: int, tag: str) -> None:
        if kind == "read":
            self.reads += 1
            self.bytes_read += nbytes
        elif kind == "write":
            self.writes += 1
            self.bytes_written += nbytes
        elif kind == "atomic":
            self.atomics += 1
        elif kind == "doorbell":
            self.doorbells += 1
        elif kind == "interrupt":
            self.interrupts += 1
        else:  # pragma: no cover - defensive
            raise ValueError(kind)
        if tag:
            self.by_tag[tag] = self.by_tag.get(tag, 0) + 1

    def record_burst(self, tag: str, entries: int) -> None:
        """Note that one transaction under ``tag`` carried ``entries`` ring
        entries (the transaction itself is recorded separately)."""
        b = self.burst_by_tag.setdefault(tag, [0, 0])
        b[0] += 1
        b[1] += entries

    def snapshot(self) -> "DmaStats":
        return DmaStats(
            reads=self.reads,
            writes=self.writes,
            atomics=self.atomics,
            doorbells=self.doorbells,
            interrupts=self.interrupts,
            bytes_read=self.bytes_read,
            bytes_written=self.bytes_written,
            by_tag=dict(self.by_tag),
            burst_by_tag={k: list(v) for k, v in self.burst_by_tag.items()},
        )

    def delta(self, earlier: "DmaStats") -> "DmaStats":
        return DmaStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            atomics=self.atomics - earlier.atomics,
            doorbells=self.doorbells - earlier.doorbells,
            interrupts=self.interrupts - earlier.interrupts,
            bytes_read=self.bytes_read - earlier.bytes_read,
            bytes_written=self.bytes_written - earlier.bytes_written,
            by_tag={
                k: v - earlier.by_tag.get(k, 0)
                for k, v in self.by_tag.items()
                if v != earlier.by_tag.get(k, 0)
            },
            burst_by_tag={
                k: [
                    v[0] - earlier.burst_by_tag.get(k, [0, 0])[0],
                    v[1] - earlier.burst_by_tag.get(k, [0, 0])[1],
                ]
                for k, v in self.burst_by_tag.items()
                if v != earlier.burst_by_tag.get(k, [0, 0])
            },
        )


class PcieLink:
    """The host<->DPU PCIe connection.

    Parameters
    ----------
    env:
        Simulation environment.
    host_mem:
        The host :class:`MemoryArena` this link gives the DPU access to.
    latency:
        One-way small-TLP completion latency in seconds (a DMA *read* of a
        descriptor costs one full ``latency``; payload time is added from
        bandwidth).
    bandwidth:
        Payload bandwidth in bytes/second (PCIe 3.0 x16 ~ 15.75e9).
    engines:
        Number of concurrent DMA engines on the DPU.
    """

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER

    def __init__(
        self,
        env: Environment,
        host_mem: MemoryArena,
        latency: float = 0.9e-6,
        bandwidth: float = 15.75e9,
        engines: int = 8,
        page_setup: float = 0.35e-6,
    ):
        self.env = env
        self.host_mem = host_mem
        self.latency = latency
        self.pipe = TokenBucket(env, bandwidth, name="pcie")
        self.engines = Resource(env, engines)
        #: link occupancy surcharge per 4 KiB page for page-granular
        #: scatter-gather transfers (virtio descriptors are guest pages;
        #: nvme-fs PRP bursts avoid it)
        self.page_setup = page_setup
        self.stats = DmaStats()

    @classmethod
    def from_params(cls, env: Environment, host_mem: MemoryArena, p) -> "PcieLink":
        """The link a :class:`~repro.params.SystemParams` describes."""
        return cls(env, host_mem, latency=p.pcie_latency, bandwidth=p.pcie_bandwidth,
                   engines=p.pcie_engines, page_setup=p.pcie_page_setup)

    # All methods below are *generators*: callers yield from them inside a
    # simulation process.

    #: transfers at or below this size are pipelined control TLPs: they pay
    #: full latency but do not occupy a DMA engine (engines can keep dozens
    #: of small reads in flight); larger payload moves hold an engine
    SMALL_OP = 512

    def _occupy(self, nbytes: int, paged: bool = False) -> Generator[Event, None, None]:
        if nbytes <= self.SMALL_OP:
            yield self.pipe.transfer(nbytes)
            yield self.env.timeout(self.latency)
            return
        req = self.engines.request()
        yield req
        try:
            effective = nbytes
            if paged and nbytes:
                pages = (nbytes + 4095) // 4096
                effective += int(pages * self.page_setup * self.pipe.rate)
            done = self.pipe.transfer(effective)
            yield done
            yield self.env.timeout(self.latency)
        finally:
            self.engines.release(req)

    def dma_read(
        self, addr: int, nbytes: int, tag: str = "", paged: bool = False
    ) -> Generator[Event, None, bytes]:
        """DPU reads ``nbytes`` of host memory; returns the bytes."""
        self.stats.record("read", nbytes, tag)
        yield from self._occupy(nbytes, paged)
        return self.host_mem.read(addr, nbytes)

    def dma_write(
        self, addr: int, data: bytes, tag: str = "", paged: bool = False
    ) -> Generator[Event, None, None]:
        """DPU writes ``data`` into host memory."""
        self.stats.record("write", len(data), tag)
        yield from self._occupy(len(data), paged)
        self.host_mem.write(addr, data)

    def atomic_cas_u32(
        self, addr: int, expected: int, new: int, tag: str = ""
    ) -> Generator[Event, None, bool]:
        """PCIe AtomicOp compare-and-swap on a host 32-bit word."""
        self.stats.record("atomic", 4, tag)
        yield self.env.timeout(self.latency)
        return self.host_mem.cas_u32(addr, expected, new)

    def atomic_faa_u32(
        self, addr: int, delta: int, tag: str = ""
    ) -> Generator[Event, None, int]:
        """PCIe AtomicOp fetch-and-add on a host 32-bit word."""
        self.stats.record("atomic", 4, tag)
        yield self.env.timeout(self.latency)
        return self.host_mem.faa_u32(addr, delta)

    def doorbell(self, tag: str = "") -> Generator[Event, None, None]:
        """Host rings a device doorbell (MMIO write, posted)."""
        self.stats.record("doorbell", 4, tag)
        self.tracer.instant("doorbell", track="pcie", tag=tag)
        yield self.env.timeout(self.latency * 0.5)

    def interrupt(self, tag: str = "") -> Generator[Event, None, None]:
        """Device raises a completion interrupt (MSI-X: posted memory write
        upstream — the control-TLP mirror image of a doorbell)."""
        self.stats.record("interrupt", 4, tag)
        self.tracer.instant("interrupt", track="pcie", tag=tag)
        yield self.env.timeout(self.latency * 0.5)
