"""Cluster topology refactor: equivalence, determinism, and coherence.

The golden signatures below were captured from the **pre-refactor**
``build_dpc_system`` at the default seed (42).  The topology refactor
(HostNode/DpuNode/Cluster) must keep the n_hosts=1 wiring bit-identical:
the same seeded workloads must produce byte-for-byte the same registry
snapshots, hence the same signatures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.core.testbeds import build_dpc_system
from repro.core.topology import build_cluster, node_endpoint
from repro.experiments.common import measure_threads
from repro.experiments.fig2_dma import count_dmas
from repro.host.adapters import O_DIRECT
from repro.host.vfs import O_CREAT
from repro.params import default_params

BLOCK = 8192
PROBE_FILE_SIZE = 4 << 20

#: registry-snapshot signatures captured from the pre-refactor
#: ``build_dpc_system`` at seed 42 — the topology layer must reproduce them
GOLDEN_FIG2 = "5aa342586e7cc34e74bddaf3b93a005ffe5a0ac3bfad2e7897468da5d1fc24d2"
#: FIG8 re-pinned when ``flush_all`` became a snapshot sweep (ISSUE 22): the
#: probe's one fsync reads each shard's entries in ``meta-scan`` bursts (8
#: DMAs, new ``pcie.burst.meta-scan``) instead of bucket by bucket, so
#: ``pcie.reads`` 4474 -> 463 and ``by_tag.meta-scan`` 4208 -> 196; it returns
#: sooner, which moves the two ``window_cores`` ratios, and takes its locks
#: page by page (``lock-cas`` 253 -> 270, ``meta-read`` 126 -> 127).
GOLDEN_FIG8 = "8e0a423ae5dfda769ac4808094583d969170026a184f8c4e058fb5de8a241f43"
GOLDEN_FIG9 = "ced0984b4490cca75dc53ff1ba8ad01a9b74254e9a142e8474cd73186b621836"


def _signature(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()
    ).hexdigest()


def _rand_off(tid: int, j: int, span: int) -> int:
    h = (tid * 0x9E3779B1 + j * 0x85EBCA77) & 0xFFFFFFFF
    return (h % (span // BLOCK)) * BLOCK


def probe_fig2() -> str:
    """Fig2-style DMA counting over both raw transports."""
    out = {}
    for kind in ("nvme-fs", "virtio-fs"):
        for rw in ("write", "read"):
            out[f"{kind}:{rw}"] = count_dmas(kind, rw, BLOCK)
    return _signature(out)


def probe_fig8(system=None) -> str:
    """Fig8-style buffered random writes through the hybrid cache."""
    sys_ = system if system is not None else build_dpc_system()

    def prep():
        f = yield from sys_.vfs.open("/kvfs/f", O_CREAT | O_DIRECT)
        blob = b"\x33" * (1 << 20)
        for off in range(0, PROBE_FILE_SIZE, 1 << 20):
            yield from sys_.vfs.write(f, off, blob)
        f2 = yield from sys_.vfs.open("/kvfs/f", 0)
        return f2

    f = sys_.run_until(prep())
    block = b"\x5a" * BLOCK

    def op(tid, j):
        yield from sys_.vfs.write(f, _rand_off(tid, j, PROBE_FILE_SIZE), block)

    measure_threads(sys_.env, 8, 6, op, host_cpu=sys_.host_cpu)

    def fsync():
        yield from sys_.vfs.fsync(f)

    sys_.run_until(fsync())
    return _signature(sys_.registry.snapshot())


def probe_fig9(system=None) -> str:
    """Fig9-style direct random writes through the offloaded DFS client."""
    sys_ = system if system is not None else build_dpc_system(with_dfs=True)

    def prep():
        f = yield from sys_.vfs.open("/dfs/big", O_CREAT | O_DIRECT)
        blob = b"\x11" * (1 << 20)
        for off in range(0, PROBE_FILE_SIZE, 1 << 20):
            yield from sys_.vfs.write(f, off, blob)
        return f

    f = sys_.run_until(prep())
    block = b"\x5a" * BLOCK

    def op(tid, j):
        yield from sys_.vfs.write(f, _rand_off(tid, j, PROBE_FILE_SIZE), block)

    measure_threads(sys_.env, 4, 5, op, host_cpu=sys_.host_cpu)
    return _signature(sys_.registry.snapshot())


# ---------------------------------------------------------------------------
# Golden equivalence: the refactored wiring must be bit-identical
# ---------------------------------------------------------------------------


def test_fig2_signature_matches_pre_refactor_golden():
    assert probe_fig2() == GOLDEN_FIG2


def test_fig8_signature_matches_pre_refactor_golden():
    assert probe_fig8() == GOLDEN_FIG8


def test_fig9_signature_matches_pre_refactor_golden():
    assert probe_fig9() == GOLDEN_FIG9


def _cluster_node0_system(**kw) -> SimpleNamespace:
    """Adapt a 1-host Cluster to the probe interface (node 0's view)."""
    cluster = build_cluster(n_hosts=1, **kw)
    node = cluster.node(0)
    return SimpleNamespace(
        env=cluster.env,
        vfs=node.vfs,
        host_cpu=node.host_cpu,
        registry=node.registry,
        run_until=cluster.run_until,
    )


def test_cluster_of_one_matches_fig8_golden():
    assert probe_fig8(system=_cluster_node0_system()) == GOLDEN_FIG8


def test_cluster_of_one_matches_fig9_golden():
    assert probe_fig9(system=_cluster_node0_system(with_dfs=True)) == GOLDEN_FIG9


# ---------------------------------------------------------------------------
# Multi-node determinism
# ---------------------------------------------------------------------------


def _run_four_hosts() -> str:
    from repro.workload import ClusterJobSpec, run_cluster_job

    cluster = build_cluster(n_hosts=4)
    spec = ClusterJobSpec(
        name="det",
        mode="randrw",
        mount="/kvfs",
        nthreads=2,
        ops_per_thread=8,
        nfiles=4,
        file_size=256 * 1024,
    )
    res = run_cluster_job(cluster, spec)
    assert res.errors == 0
    return _signature({"snap": cluster.snapshot(), "iops": res.iops,
                       "per_node": res.per_node_iops})


def test_four_hosts_bit_identical_across_runs():
    assert _run_four_hosts() == _run_four_hosts()


def test_cluster_endpoints_and_snapshot_are_per_node():
    cluster = build_cluster(n_hosts=3)
    assert [n.endpoint for n in cluster.nodes] == ["dpc", "dpc1", "dpc2"]
    snap = cluster.snapshot()
    assert sorted(snap) == ["dpc", "dpc1", "dpc2"]
    # every per-node registry carries its own CPU pools
    for ep, node in zip(snap, cluster.nodes):
        assert any(k.startswith("cpu.") for k in snap[ep])
        assert node.registry is not cluster.nodes[0].registry or ep == "dpc"


# ---------------------------------------------------------------------------
# Cross-client coherence: delegation recall invalidates the hybrid cache
# ---------------------------------------------------------------------------


def test_recall_invalidates_remote_hybrid_cache():
    params = dataclasses.replace(default_params(), deleg_lease=200e-6)
    cluster = build_cluster(n_hosts=2, params=params, with_dfs=True)
    env = cluster.env
    a, b = cluster.nodes[0], cluster.nodes[1]
    old, new = b"\xaa" * BLOCK, b"\xbb" * BLOCK
    out = {}

    def scenario():
        # B creates the shared file and publishes it to the MDS.
        f = yield from b.vfs.open("/dfs/shared", O_CREAT | O_DIRECT)
        ino = f.ino
        yield from b.vfs.write(f, 0, old)
        yield from b.vfs.close(f)
        yield from b.dpu.dfs_client.flush_metadata()
        # B takes the delegation and caches OLD through a buffered read.
        assert (yield from b.dpu.dfs_client.acquire_file_delegation(ino))
        fb = yield from b.vfs.open("/dfs/shared", 0)
        d0 = yield from b.vfs.read(fb, 0, BLOCK)
        out["b_cached_old"] = bytes(d0) == old
        yield env.timeout(1e-3)  # let B's lease expire
        # A contends: the MDS recalls B's delegation, which must flush and
        # drop B's cached pages before the grant.
        assert (yield from a.dpu.dfs_client.acquire_file_delegation(ino))
        fa = yield from a.vfs.open("/dfs/shared", O_DIRECT)
        yield from a.vfs.write(fa, 0, new)
        yield from a.vfs.close(fa)
        d1 = yield from b.vfs.read(fb, 0, BLOCK)
        out["b_sees_new"] = bytes(d1) == new
        yield from b.vfs.close(fb)

    cluster.run_until(scenario())
    assert out["b_cached_old"], "B must serve OLD from its delegation-era cache"
    assert out["b_sees_new"], "after the recall B must read A's new data"
    assert b.dpu.dfs_client.recalls_served == 1
    assert b.dpu.cache_ctrl.invalidations > 0
    assert sum(m.recalls for m in cluster.mds.servers) >= 1


# ---------------------------------------------------------------------------
# Endpoint naming, registration versioning, fabric collisions
# ---------------------------------------------------------------------------


def test_node_endpoint_naming():
    assert node_endpoint("dpc", 0) == "dpc"
    assert node_endpoint("dpc", 1) == "dpc1"
    assert node_endpoint("host", 7) == "host7"
    with pytest.raises(ValueError):
        node_endpoint("dpc", -1)


def test_fabric_attach_collision_raises():
    cluster = build_cluster(n_hosts=1)
    with pytest.raises(ValueError):
        cluster.fabric.attach("dpc", 1e9)


def test_obsv_register_versions_duplicate_names():
    from repro.obsv import ObsvContext

    ctx = ObsvContext(enabled=True)
    assert ctx.register("dpc", None, {"a": 1}) == "dpc"
    assert ctx.register("dpc", None, {"a": 2}) == "dpc@2"
    assert ctx.register("dpc", None, {"a": 3}) == "dpc@3"
    assert ctx.register("dpc1", None, {"a": 4}) == "dpc1"
    names = [n for n, _, _ in ctx.systems]
    assert names == ["dpc", "dpc@2", "dpc@3", "dpc1"]
    # disabled contexts record nothing but still echo the name
    off = ObsvContext(enabled=False)
    assert off.register("dpc", None, None) == "dpc"
    assert off.systems == []


if __name__ == "__main__":
    print("fig2", probe_fig2())
    print("fig8", probe_fig8())
    print("fig9", probe_fig9())
