"""Flash-aware elastic KV sweep: small-value inlining + live resharding.

Two questions from the flash/elastic backend work, one sweep each:

**A. Inlining** — with the costed flash device model on, how much get
latency does riding small values inside the mapping entry save?  A
steady-state point-get workload over a small/large value mix is run with
``kv_inline_enabled`` off and on; the delta is the data-page read each
inlined get skips (the CMT hit still resolves the mapping in DRAM).

**B. Elastic resharding** — the scale-out sweeps showed the KV store is
the first wall at 8 hosts: Zipf-skewed routing piles queue wait onto a
couple of hot shards.  The same shared-hot-set cluster workload is run
with the static modulo-routed store and with the consistent-hash ring +
queue-wait-driven rebalancer; the elastic store should split the hot
shards live and drop both the total KV queue wait and its across-shard
spread.

Declared as two :class:`~repro.experiments.sweep.Sweep` s sharing one
name, hence one ``results/BENCH_kvflash.json``::

    python -m repro.experiments kvflash [--reduced]
"""

from __future__ import annotations

from typing import Optional

from ..core.topology import build_cluster
from ..kv.client import KvClient
from ..kv.server import KvCluster
from ..params import SystemParams, default_params
from ..sim.core import Environment
from ..sim.network import Fabric
from ..workload.runner import ClusterJobSpec, run_cluster_job
from .sweep import Column, Sweep

__all__ = [
    "run_inline_point",
    "run_elastic_point",
    "ELASTIC_OVERRIDES",
    "INLINE",
    "ELASTIC",
]

#: rebalancer tuning for the sweep: the jobs last tens of milliseconds, so
#: the monitor must observe (and act) on a sub-millisecond cadence to split
#: hot shards while the run can still benefit
ELASTIC_OVERRIDES = dict(
    kv_elastic=True,
    kv_rebalance=True,
    kv_rebalance_interval=400e-6,
    kv_rebalance_threshold=10e-6,
)


# -- part A: small-value inlining ---------------------------------------------


def run_inline_point(
    inline: bool,
    params: Optional[SystemParams] = None,
    n_small: int = 96,
    small_size: int = 256,
    n_big: int = 24,
    big_size: int = 8192,
    passes: int = 3,
) -> dict:
    """Steady-state point gets against the flash-costed store."""
    p = (params or default_params()).with_overrides(
        kv_shards=4, kv_flash_model=True, kv_inline_enabled=inline
    )
    env = Environment(seed=p.seed)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    cluster = KvCluster(env, fabric, p)
    fabric.attach("bench")
    client = KvClient(fabric, "bench", cluster.shard_names())
    small_keys = [b"s%07d" % i for i in range(n_small)]
    big_keys = [b"b%07d" % i for i in range(n_big)]
    lat_small: list[float] = []
    lat_big: list[float] = []

    def flow():
        for k in small_keys:
            yield from client.put(k, b"v" * small_size)
        for k in big_keys:
            yield from client.put(k, b"V" * big_size)
        # Warm pass fills the CMT; the timed passes measure steady state.
        for k in small_keys + big_keys:
            yield from client.get(k)
        for _ in range(passes):
            for k in small_keys:
                t0 = env.now
                yield from client.get(k)
                lat_small.append(env.now - t0)
            for k in big_keys:
                t0 = env.now
                yield from client.get(k)
                lat_big.append(env.now - t0)

    env.run(until=env.process(flow(), name="bench"))
    stats = [s.flash.stats for s in cluster.shards]
    gets = len(lat_small) + len(lat_big) + n_small + n_big
    cmt_total = sum(s.cmt_hits + s.cmt_misses for s in stats)
    lat_small.sort()
    lat_big.sort()
    mode = "on" if inline else "off"
    return {
        "label": f"inline/{mode}",
        "mode": mode,
        "small_get_p50_us": lat_small[len(lat_small) // 2] * 1e6,
        "small_get_mean_us": sum(lat_small) / len(lat_small) * 1e6,
        "big_get_p50_us": lat_big[len(lat_big) // 2] * 1e6,
        "cmt_hit_rate": sum(s.cmt_hits for s in stats) / cmt_total,
        "inline_get_fraction": sum(s.inline_gets for s in stats) / gets,
        "page_reads": sum(s.page_reads for s in stats),
        "inline_threshold_max": max(s.flash.inline_threshold for s in cluster.shards),
    }


# -- part B: elastic resharding under skew ------------------------------------


def run_elastic_point(
    n_hosts: int,
    elastic: bool,
    nthreads: int = 12,
    ops_per_thread: int = 120,
    params: Optional[SystemParams] = None,
) -> dict:
    """One cluster point, static vs elastic+rebalancing KV backend."""
    p = params or default_params()
    if elastic:
        p = p.with_overrides(**ELASTIC_OVERRIDES)
    cluster = build_cluster(n_hosts=n_hosts, params=p)
    spec = ClusterJobSpec(
        name="kvflash-elastic",
        mode="randrw",
        mount="/kvfs",
        block_size=8192,
        nthreads=nthreads,
        ops_per_thread=ops_per_thread,
        nfiles=16,
        file_size=2 << 20,
        read_fraction=0.7,
        zipf_s=1.1,
    )
    res = run_cluster_job(cluster, spec)
    waits = [s.queue_wait_total * 1e6 for s in cluster.kv_cluster.shards]
    reb = cluster.rebalancer
    backend = "elastic" if elastic else "static"
    return {
        "label": f"n{n_hosts}/{backend}",
        "n_hosts": n_hosts,
        "backend": backend,
        "aggregate_iops": res.iops,
        "lat_p50_us": res.lat_p50_us,
        "lat_p99_us": res.lat_p99_us,
        "kv_queue_wait_us": sum(waits),
        "kv_queue_wait_spread_us": max(waits) - min(waits),
        "shards_final": len(cluster.kv_cluster.shards),
        "splits": reb.splits if reb is not None else 0,
        "migrated_keys": sum(m.keys for m in reb.migrations) if reb else 0,
        "stale_bounces": sum(s.stale_bounces for s in cluster.kv_cluster.shards),
        "errors": res.errors,
    }


# -- declarations ------------------------------------------------------------


def _inline_saving(points: list[dict]) -> dict:
    p50 = {p["mode"]: p["small_get_p50_us"] for p in points}
    # the skipped data-page read
    return {"inline/saving_p50_us": round(p50["off"] - p50["on"], 3)}


INLINE = Sweep(
    name="kvflash",
    title="Small-value inlining on the flash-costed store (256 B values)",
    point=run_inline_point,
    points=({"inline": False}, {"inline": True}),
    columns=(
        Column("mode", "inline", written=False),
        Column("small_get_p50_us", "get_p50_us", 3),
        Column("small_get_mean_us", "get_mean_us", 3),
        Column("cmt_hit_rate", "cmt_hit_rate", 4),
        Column("inline_get_fraction", "inline_gets", 4),
        Column("page_reads", "page_reads"),
    ),
    derived=_inline_saving,
)

ELASTIC = Sweep(
    name="kvflash",
    title="Static vs elastic KV under Zipf 1.1 skew (randrw 70/30)",
    point=run_elastic_point,
    points=tuple(
        {"n_hosts": n, "elastic": e} for n in (1, 2, 4, 8) for e in (False, True)
    ),
    reduced=tuple(
        {"n_hosts": n, "elastic": e, "nthreads": 6, "ops_per_thread": 40}
        for n in (1, 2)
        for e in (False, True)
    ),
    columns=(
        Column("n_hosts", "n_hosts", written=False),
        Column("backend", "backend", written=False),
        Column("aggregate_iops", "agg_iops", 1),
        Column("lat_p99_us", ndigits=2),
        Column("kv_queue_wait_us", "kv_qwait_us", 1),
        Column("kv_queue_wait_spread_us", "qwait_spread_us", 1),
        Column("shards_final", "shards"),
        Column("splits", "splits"),
        Column("stale_bounces"),
        Column("errors"),
    ),
    notes=("elastic = consistent-hash ring + queue-wait-driven live shard splits",),
)
