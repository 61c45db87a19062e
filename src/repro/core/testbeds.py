"""Testbed builders: assemble complete simulated systems in one call.

These are the public entry points a downstream user (and every experiment
and example in this repository) starts from:

* :func:`build_dpc_system` — the full DPC stack: host VFS + fs-adapter,
  nvme-fs queues over the PCIe link, the DPU running IO_Dispatch + KVFS
  (+ optionally the offloaded DFS client), the hybrid cache, the
  disaggregated KV store, and optionally the whole DFS backend.
* :func:`build_ext4_system` — the local-Ext4 baseline on the simulated SSD.
* :func:`build_raw_transport` — nvme-fs or virtio-fs against the in-memory
  virtual client (the Figure 6 microbenchmark rig).
* :func:`build_host_dfs_clients` — standard + optimized host fs-clients on
  a shared DFS backend (Figures 1 and 9 baselines).

``build_dpc_system`` is the ``n_hosts=1`` case of the cluster topology in
:mod:`repro.core.topology`; multi-client deployments come from
:func:`repro.core.topology.build_cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..cache.control import CacheControlPlane
from ..cache.hostplane import HostCachePlane
from ..cache.layout import CacheLayout
from ..dfs import MdsCluster, OffloadedDfsClient, StandardNfsClient, build_dfs
from ..dpu.dispatch import IoDispatch
from ..dpu.striping import StripedNvme, build_nvme_array
from ..dpu.virtual import VirtualClient
from ..fault import CircuitBreaker, FaultPlane, RequestConfig, retry_policy_from
from ..host.adapters import Ext4Adapter
from ..host.fsadapter import DpcAdapter, DpfsAdapter
from ..host.vfs import Vfs
from ..kv.server import KvCluster
from ..kvfs.fs import Kvfs
from ..localfs.ext4sim import Ext4Fs
from ..obsv import get_context
from ..obsv.metrics import Registry
from ..obsv.quantiles import SketchHub
from ..obsv.tracer import Tracer
from ..params import SystemParams, default_params
from ..proto.nvme.ini import NvmeFsInitiator
from ..proto.nvme.tgt import NvmeFsTarget
from ..proto.virtio.virtiofs import DpfsHal, VirtioFsHost
from ..sim.core import Environment
from ..sim.cpu import CpuPool
from ..sim.memory import MemoryArena
from ..sim.network import Fabric
from ..sim.nvme_device import NvmeSsd
from ..sim.pcie import PcieLink
from .topology import (
    ROLE_OPT_CLIENT,
    ROLE_STD_CLIENT,
    Cluster,
    _attach_sketches,
    _attach_tracer,
    _collect_cpu,
    _collect_dfs,
    _collect_fault,
    _collect_nvme,
    _collect_pcie,
    _collect_req,
    _collect_ssd,
    _dpu_cpu,
    _host_cpu,
    build_cluster,
    node_endpoint,
)

__all__ = [
    "DpcSystem",
    "Ext4System",
    "RawTransport",
    "HostDfsTestbed",
    "build_dpc_system",
    "build_ext4_system",
    "build_raw_transport",
    "build_host_dfs_clients",
]


@dataclass
class DpcSystem:
    """A fully wired DPC deployment."""

    env: Environment
    params: SystemParams
    host_cpu: CpuPool
    dpu_cpu: CpuPool
    arena: MemoryArena
    link: PcieLink
    fabric: Fabric
    kv_cluster: KvCluster
    kvfs: Kvfs
    ini: NvmeFsInitiator
    tgt: NvmeFsTarget
    dispatch: IoDispatch
    vfs: Vfs
    kvfs_adapter: DpcAdapter
    cache_layout: Optional[CacheLayout] = None
    cache_host: Optional[HostCachePlane] = None
    cache_ctrl: Optional[CacheControlPlane] = None
    mds: Optional[MdsCluster] = None
    dataservers: Optional[list] = None
    dfs_client: Optional[OffloadedDfsClient] = None
    dfs_adapter: Optional[DpcAdapter] = None
    fault_plane: Optional[FaultPlane] = None
    breaker: Optional[CircuitBreaker] = None
    registry: Optional[Registry] = None
    tracer: Optional[Tracer] = None
    sketches: Optional[SketchHub] = None
    #: DPU-local NVMe data plane (``with_local_nvme``): the device/array,
    #: the ext4-sim over it, and the host adapter mounted at "/local"
    nvme: Optional[object] = None
    local_fs: Optional[Ext4Fs] = None
    local_adapter: Optional[DpcAdapter] = None
    #: the single-node :class:`~repro.core.topology.Cluster` this system is
    #: a view of (node 0); gives legacy callers access to the topology API
    cluster: Optional[Cluster] = None

    def run_until(self, gen):
        """Drive one simulation process to completion; return its value."""
        return self.env.run(until=self.env.process(gen))


def build_dpc_system(
    params: Optional[SystemParams] = None,
    with_dfs: bool = False,
    with_cache: bool = True,
    prefetch: bool = True,
    num_queues: Optional[int] = None,
    trace: Optional[bool] = None,
    with_local_nvme: bool = False,
) -> DpcSystem:
    """Assemble the full DPC system of paper Figure 3.

    A :class:`FaultPlane` is always installed (on the fabric and the nvme-fs
    target) but stays inert — zero RNG draws, zero clock perturbation —
    until a fault schedule is scripted onto it.  Retry policies follow
    ``params.rpc_timeout``: the default 0 keeps every client on the
    fail-free fast path.

    This is the ``n_hosts=1`` case of :func:`repro.core.topology.build_cluster`
    — same construction order, same endpoint names, bit-identical seeded
    behaviour — repackaged in the flat legacy :class:`DpcSystem` shape.
    """
    cluster = build_cluster(
        n_hosts=1,
        params=params,
        with_dfs=with_dfs,
        with_cache=with_cache,
        prefetch=prefetch,
        num_queues=num_queues,
        trace=trace,
        with_local_nvme=with_local_nvme,
    )
    node = cluster.nodes[0]
    return DpcSystem(
        env=cluster.env,
        params=cluster.params,
        host_cpu=node.host.cpu,
        dpu_cpu=node.dpu.cpu,
        arena=node.host.arena,
        link=node.host.link,
        fabric=cluster.fabric,
        kv_cluster=cluster.kv_cluster,
        kvfs=node.dpu.kvfs,
        ini=node.host.ini,
        tgt=node.dpu.tgt,
        dispatch=node.dpu.dispatch,
        vfs=node.host.vfs,
        kvfs_adapter=node.host.kvfs_adapter,
        cache_layout=node.host.cache_layout,
        cache_host=node.host.cache_host,
        cache_ctrl=node.dpu.cache_ctrl,
        mds=cluster.mds,
        dataservers=cluster.dataservers,
        dfs_client=node.dpu.dfs_client,
        dfs_adapter=node.host.dfs_adapter,
        fault_plane=cluster.fault_plane,
        breaker=node.dpu.breaker,
        registry=node.registry,
        tracer=node.tracer,
        sketches=node.sketches,
        nvme=node.dpu.nvme,
        local_fs=node.dpu.local_fs,
        local_adapter=node.host.local_adapter,
        cluster=cluster,
    )


@dataclass
class Ext4System:
    """The local-Ext4 baseline."""

    env: Environment
    params: SystemParams
    host_cpu: CpuPool
    #: bare device, or a :class:`StripedNvme` when
    #: ``params.nvme_devices_per_node >= 2``
    ssd: "NvmeSsd | StripedNvme"
    fs: Ext4Fs
    vfs: Vfs
    adapter: Ext4Adapter
    registry: Optional[Registry] = None
    tracer: Optional[Tracer] = None

    def run_until(self, gen):
        return self.env.run(until=self.env.process(gen))


def build_ext4_system(
    params: Optional[SystemParams] = None,
    cache_pages: int = 16384,
    capacity_blocks: int = 1 << 22,
    trace: Optional[bool] = None,
) -> Ext4System:
    p = params or default_params()
    env = Environment(seed=p.seed)
    host_cpu = _host_cpu(env, p)
    ssd = build_nvme_array(env, p, capacity_blocks=capacity_blocks)
    fs = Ext4Fs(env, ssd, host_cpu, p, cache_pages=cache_pages)
    vfs = Vfs(env, host_cpu, p)
    adapter = Ext4Adapter(fs)
    vfs.mount("/mnt", adapter)
    registry = Registry("ext4")
    registry.collect(_collect_cpu(host_cpu))
    registry.collect(_collect_ssd(ssd))
    tracer = _attach_tracer(env, trace, [])
    get_context().register("ext4", tracer, registry)
    return Ext4System(env, p, host_cpu, ssd, fs, vfs, adapter, registry, tracer)


@dataclass
class RawTransport:
    """A host<->DPU transport with the in-memory virtual client behind it."""

    env: Environment
    params: SystemParams
    host_cpu: CpuPool
    dpu_cpu: CpuPool
    link: PcieLink
    virtual: VirtualClient
    adapter: object  # DpcAdapter or DpfsAdapter (no cache)
    kind: str
    registry: Optional[Registry] = None
    tracer: Optional[Tracer] = None

    def run_until(self, gen):
        return self.env.run(until=self.env.process(gen))


def build_raw_transport(
    kind: str = "nvme-fs",
    params: Optional[SystemParams] = None,
    num_queues: Optional[int] = None,
    trace: Optional[bool] = None,
) -> RawTransport:
    """The §4.1 rig: transport + virtual client, nothing else."""
    p = params or default_params()
    env = Environment(seed=p.seed)
    host_cpu = _host_cpu(env, p)
    dpu_cpu = _dpu_cpu(env, p)
    arena = MemoryArena(p.host_arena_bytes)
    link = PcieLink.from_params(env, arena, p)
    virtual = VirtualClient(env, dpu_cpu, p)
    registry = Registry(kind)
    registry.collect(_collect_cpu(host_cpu))
    registry.collect(_collect_cpu(dpu_cpu))
    registry.collect(_collect_pcie(link))
    if kind == "nvme-fs":
        ini = NvmeFsInitiator(env, arena, link, host_cpu, p, num_queues=num_queues)
        tgt = NvmeFsTarget(env, link, dpu_cpu, p, ini.queues, virtual.backend)
        adapter = DpcAdapter(env, ini, host_cpu, p, cache=None)
        registry.collect(_collect_nvme(ini, tgt))
        traced = [link, ini, tgt, adapter]
    elif kind == "virtio-fs":
        virtio = VirtioFsHost(env, arena, link, host_cpu, p, num_queues=num_queues)
        hal = DpfsHal(env, link, dpu_cpu, p, virtio.rings, virtual.backend)
        adapter = DpfsAdapter(env, virtio, host_cpu, p)
        traced = [link, virtio, hal, adapter]
    else:
        raise ValueError(f"unknown transport kind {kind!r}")
    tracer = _attach_tracer(env, trace, traced)
    get_context().register(kind, tracer, registry)
    return RawTransport(
        env, p, host_cpu, dpu_cpu, link, virtual, adapter, kind, registry, tracer
    )


@dataclass
class HostDfsTestbed:
    """Shared DFS backend + standard and optimized host clients."""

    env: Environment
    params: SystemParams
    host_cpu: CpuPool
    fabric: Fabric
    mds: MdsCluster
    dataservers: list
    layout: object
    std_client: StandardNfsClient
    opt_client: OffloadedDfsClient
    fault_plane: Optional[FaultPlane] = None
    registry: Optional[Registry] = None
    tracer: Optional[Tracer] = None
    sketches: Optional[SketchHub] = None

    def run_until(self, gen):
        return self.env.run(until=self.env.process(gen))


def build_host_dfs_clients(
    params: Optional[SystemParams] = None,
    degraded_reads: bool = True,
    trace: Optional[bool] = None,
) -> HostDfsTestbed:
    p = params or default_params()
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    retry = retry_policy_from(p)
    host_cpu = _host_cpu(env, p)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    fabric.fault_plane = plane
    mds, dataservers, layout = build_dfs(env, fabric, p)
    std_ep = node_endpoint(ROLE_STD_CLIENT, 0)
    opt_ep = node_endpoint(ROLE_OPT_CLIENT, 0)
    fabric.attach(std_ep)
    fabric.attach(opt_ep)
    std = StandardNfsClient(
        env, fabric, std_ep, p.n_mds, host_cpu, p, retry=retry, plane=plane
    )
    opt = OffloadedDfsClient(
        env,
        fabric,
        opt_ep,
        p.n_mds,
        layout,
        host_cpu,
        p,
        cpu_read=p.opt_client_cpu_read,
        cpu_write=p.opt_client_cpu_write,
        retry=retry,
        plane=plane,
        degraded_reads=degraded_reads,
    )
    registry = Registry("host-dfs")
    registry.collect(_collect_cpu(host_cpu))
    if RequestConfig.from_params(p).enabled:
        registry.collect(
            _collect_req(
                [
                    getattr(std, "_req", None),
                    getattr(opt, "_req", None),
                    getattr(getattr(std, "stripeio", None), "_req", None),
                    getattr(getattr(opt, "stripeio", None), "_req", None),
                ]
            )
        )
    registry.collect(_collect_fault(plane))
    registry.collect(_collect_dfs("dfs.std", std))
    registry.collect(_collect_dfs("dfs.opt", opt))
    tracer = _attach_tracer(
        env, trace, [plane, std, opt, getattr(opt, "stripeio", None)], params=p
    )
    hub = _attach_sketches(
        env,
        p,
        registry,
        [
            std,
            opt,
            getattr(std, "stripeio", None),
            getattr(opt, "stripeio", None),
            fabric,
        ],
    )
    get_context().register("host-dfs", tracer, registry)
    return HostDfsTestbed(
        env,
        p,
        host_cpu,
        fabric,
        mds,
        dataservers,
        layout,
        std,
        opt,
        fault_plane=plane,
        registry=registry,
        tracer=tracer,
        sketches=hub,
    )
