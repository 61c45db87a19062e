"""Metric names and how each is computed from a measured window.

End-to-end metrics come from the untraced pass; per-layer metrics from the
traced pass: span aggregates (``bench/spans.py``) plus window deltas of the
components' own public counters.  ``BENCHMARK.json`` lists exactly the names
built here (``bench/tests`` checks that).
"""

from __future__ import annotations

import numpy as np

from repro.core.topology import Cluster

from workloads import META, READ, WRITE, Phase

# (name, unit, better, bound).  The bound is for a driver that varies the seed
# from run to run: at least three times the spread (quartile distance over
# median) seen over ten seeds on the noisiest workload.  At one seed every
# sim_* repeats exactly and ``--check-repeat`` compares with ``==``.
END_TO_END = [
    ("sim_ops_per_s", "1/s", "higher", 0.20),
    ("sim_bytes_per_s", "B/s", "higher", 0.20),
    ("sim_read_mean_us", "us", "lower", 0.15),
    ("sim_read_p99_us", "us", "lower", 0.25),
    ("sim_write_mean_us", "us", "lower", 0.25),
    ("sim_write_p99_us", "us", "lower", 0.20),
    ("sim_meta_p99_us", "us", "lower", 0.25),
    ("sim_op_p999_us", "us", "lower", 0.25),
    ("sim_host_cpu_us_per_op", "us", "lower", 0.10),
    ("host_ops_per_s", "1/s", "higher", 0.15),
    ("host_peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
]

#: layers inside client-op trees: calls, self sim time, self host time
TREE_LAYERS = [
    "host.vfs",
    "host.fsadapter",
    "cache.hostplane",
    "proto.nvme.ini",
    "dpu.dispatch",
    "kvfs",
    "kv.client",
    "fault.requests",
    "sim.network",
    "dfs.client",
    "dfs.stripeio",
]
#: leaves, or roots of background work: calls, inclusive sim time, self host time
LEAF_LAYERS = ["sim.pcie", "sim.cpu.host", "sim.cpu.dpu", "kv.flash", "cache.control"]
#: plain functions, no simulated time: calls and self host time
PURE_LAYERS = ["ec", "kv.engine", "obsv"]

_COUNTER_METRICS = [
    ("host.vfs.read_p50_us", "us"),
    ("host.vfs.write_p50_us", "us"),
    ("sim.core.events_per_op", "count"),
    ("sim.core.processes_per_op", "count"),
    ("sim.core.host_ns_per_event", "ns"),
    ("sim.core.host_self_us_per_op", "us"),
    ("sim.pcie.dmas_per_op", "count"),
    ("sim.pcie.atomics_per_op", "count"),
    ("sim.pcie.doorbells_per_op", "count"),
    ("sim.pcie.interrupts_per_op", "count"),
    ("sim.pcie.bytes_per_op", "B"),
    ("proto.nvme.sqes_per_fetch", "count"),
    ("proto.nvme.transient_retries_per_kop", "count"),
    ("sim.cpu.host_cores_busy", "cores"),
    ("sim.cpu.dpu_cores_busy", "cores"),
    ("sim.network.bytes_per_op", "B"),
    ("sim.network.dropped_frac", "frac"),
    ("cache.hit_frac", "frac"),
    ("cache.evict_waits_per_kop", "count"),
    ("cache.seqlock_retry_frac", "frac"),
    ("kv.client.retries_per_kop", "count"),
    ("kv.server.ops_per_op", "count"),
    ("kv.server.queue_wait_us_per_op", "us"),
    ("kv.server.load_spread", "ratio"),
    ("kv.engine.gets_per_op", "count"),
    ("kv.engine.puts_per_op", "count"),
    ("kv.engine.flushed_bytes_per_user_byte", "ratio"),
    ("kv.engine.compacted_bytes_per_user_byte", "ratio"),
    ("kv.flash.page_reads_per_get", "count"),
    ("kv.flash.page_writes_per_put", "count"),
    ("kv.flash.gc_moves_per_page_write", "ratio"),
    ("kv.flash.cmt_hit_frac", "frac"),
    ("kv.flash.inline_get_frac", "frac"),
    ("kv.rebalance.splits", "count"),
    ("kv.rebalance.migrated_bytes", "B"),
    ("kv.rebalance.chunk_retries", "count"),
    ("dfs.stripeio.units_written_per_op", "count"),
    ("dfs.stripeio.units_read_per_op", "count"),
    ("dfs.stripeio.degraded_stripes", "count"),
    ("dfs.stripeio.retries_per_kop", "count"),
    ("dfs.mds.ops_per_op", "count"),
    ("dfs.mds.forwards_per_op", "count"),
    ("dfs.client.deleg_hit_frac", "frac"),
    ("ec.coded_bytes_per_user_byte", "ratio"),
    ("ec.host_us_per_mib", "us"),
    ("fault.requests.attempts_per_call", "ratio"),
    ("fault.requests.hedge_frac", "frac"),
    ("fault.requests.hedge_win_frac", "frac"),
    ("fault.requests.cancels_per_kop", "count"),
    ("fault.requests.budget_exhausted", "count"),
    ("fault.plane.events", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.linked_span_frac", "frac"),
    ("bench.host_wall_over_cpu", "ratio"),
]


def _per_layer() -> list[tuple[str, str]]:
    out = []
    for layer in TREE_LAYERS:
        out += [
            (f"{layer}.calls_per_op", "count"),
            (f"{layer}.sim_self_us_per_op", "us"),
            (f"{layer}.host_self_us_per_op", "us"),
        ]
    for layer in LEAF_LAYERS:
        out += [
            (f"{layer}.calls_per_op", "count"),
            (f"{layer}.sim_incl_us_per_op", "us"),
            (f"{layer}.host_self_us_per_op", "us"),
        ]
    for layer in PURE_LAYERS:
        out += [(f"{layer}.calls_per_op", "count"), (f"{layer}.host_self_us_per_op", "us")]
    return out + _COUNTER_METRICS


#: (name, unit) of every per-layer metric; none has a bound
PER_LAYER = _per_layer()

_HIGHER_IS_BETTER = {
    "proto.nvme.sqes_per_fetch",
    "cache.hit_frac",
    "kv.flash.cmt_hit_frac",
    "kv.flash.inline_get_frac",
    "dfs.client.deleg_hit_frac",
    "fault.requests.hedge_win_frac",
    "bench.linked_span_frac",
}


def better(name: str) -> str:
    """Direction of a per-layer metric: all are costs but the hit/win shares."""
    return "higher" if name in _HIGHER_IS_BETTER else "lower"


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) * 1e6 if samples else 0.0


def _mean(samples: list[float]) -> float:
    return float(np.mean(samples)) * 1e6 if samples else 0.0


def end_to_end(phase: Phase, delta: dict[str, float], rss_mb: float, setup_s: float) -> dict:
    """The 12 end-to-end values of one measured window.

    Latency centres are means, not medians: the median hit of the buffered
    workload is one fixed sum of model constants, the same float for every
    seed, which a driver cannot tell from a hard-coded number.  The medians
    are per-layer metrics (``host.vfs.*_p50_us``).
    """
    n = phase.completed
    sim_s = phase.sim_end - phase.sim_start
    pooled = phase.lat[READ] + phase.lat[WRITE] + phase.lat[META]
    return {
        "sim_ops_per_s": _div(n, sim_s),
        "sim_bytes_per_s": _div(phase.user_bytes, sim_s),
        "sim_read_mean_us": _mean(phase.lat[READ]),
        "sim_read_p99_us": _pct(phase.lat[READ], 99),
        "sim_write_mean_us": _mean(phase.lat[WRITE]),
        "sim_write_p99_us": _pct(phase.lat[WRITE], 99),
        "sim_meta_p99_us": _pct(phase.lat[META], 99),
        "sim_op_p999_us": _pct(pooled, 99.9),
        "sim_host_cpu_us_per_op": _div(delta["cpu.host.busy"] * 1e6, n),
        "host_ops_per_s": _div(n, phase.host_cpu_s),
        "host_peak_rss_mb": rss_mb,
        "setup_s": setup_s,
    }


# -- component counters ---------------------------------------------------------------

#: Registry keys summed over nodes (per-node hardware and clients)
_NODE_KEYS = (
    "pcie.reads",
    "pcie.writes",
    "pcie.atomics",
    "pcie.doorbells",
    "pcie.interrupts",
    "pcie.bytes_read",
    "pcie.bytes_written",
    "pcie.by_tag.sqe-fetch",
    "nvme.transient_retries",
    "nvme.commands_processed",
    "cache.read_hits",
    "cache.read_misses",
    "cache.evict_waits",
    "cache.seqlock_hits",
    "cache.seqlock_retries",
    "kv.client.retries",
    "dfs.ops",
    "dfs.deleg_hits",
    "dfs.stripe.units_read",
    "dfs.stripe.units_written",
    "dfs.stripe.retries",
    "dfs.stripe.degraded_stripes",
)
#: Registry keys of cluster-shared components (every node reports the same)
_SHARED_KEYS = (
    "kv.engine.gets",
    "kv.engine.puts",
    "kv.engine.bytes_flushed",
    "kv.engine.bytes_compacted",
    "kv.flash.page_reads",
    "kv.flash.page_writes",
    "kv.flash.gc_page_moves",
    "kv.flash.cmt_hits",
    "kv.flash.cmt_misses",
    "kv.flash.inline_gets",
    "kv.rebalance.splits",
    "kv.rebalance.migrated_bytes",
    "kv.rebalance.chunk_retries",
    "fault.events",
)
_REQ_FIELDS = ("attempts", "hedges", "hedge_wins", "cancels", "budget_exhausted", "retries")


def snapshot(cl: Cluster) -> dict[str, float]:
    """Cumulative counters of every component, flat; ``Registry.delta`` of two
    of these is a window."""
    s: dict[str, float] = dict.fromkeys(_NODE_KEYS + _SHARED_KEYS, 0.0)
    s.update({f"req.{f}": 0.0 for f in _REQ_FIELDS})
    s["cpu.host.busy"] = s["cpu.dpu.busy"] = 0.0
    for node in cl.nodes:
        reg = node.registry.snapshot()
        for key in _NODE_KEYS:
            s[key] += reg.get(key, 0.0)
        if node.index == 0:
            for key in _SHARED_KEYS:
                s[key] = reg.get(key, 0.0)
        s["cpu.host.busy"] += node.host.cpu.busy_seconds
        s["cpu.dpu.busy"] += node.dpu.cpu.busy_seconds
        dfs = node.dpu.dfs_client
        engines = [node.dpu.kv_client._req]
        if dfs is not None:
            engines += [dfs._req, dfs.stripeio._req]
        for eng in engines:
            for st in eng.stats.values():
                for f in _REQ_FIELDS:
                    s[f"req.{f}"] += getattr(st, f)
    eps = cl.fabric.endpoints.values()
    s["net.messages"] = sum(ep.messages_out for ep in eps)
    s["net.bytes"] = sum(ep.tx.bytes_total for ep in eps)
    s["net.dropped"] = cl.fabric.messages_dropped
    for shard in cl.kv_cluster.shards:
        s[f"kv.shard.{shard.name}.ops"] = shard.ops_served
    s["kv.server.ops"] = cl.kv_cluster.total_ops()
    s["kv.server.queue_wait"] = cl.kv_cluster.total_queue_wait()
    s["dfs.mds.ops"] = cl.mds.total_ops() if cl.mds else 0
    s["dfs.mds.forwards"] = cl.mds.total_forwards() if cl.mds else 0
    return s


def counter_metrics(phase: Phase, d: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics that need no spans: ratios of window deltas."""
    n = phase.completed
    kop = n / 1000.0
    sim_s = phase.sim_end - phase.sim_start
    shard_ops = [v for k, v in d.items() if k.startswith("kv.shard.")]
    calls = d["req.attempts"] - d["req.hedges"] - d["req.retries"]
    flash_lookups = d["kv.flash.cmt_hits"] + d["kv.flash.cmt_misses"]
    seqlock = d["cache.seqlock_hits"] + d["cache.seqlock_retries"]
    return {
        "host.vfs.read_p50_us": _pct(phase.lat[READ], 50),
        "host.vfs.write_p50_us": _pct(phase.lat[WRITE], 50),
        "sim.core.events_per_op": _div(phase.events, n),
        "sim.pcie.dmas_per_op": _div(d["pcie.reads"] + d["pcie.writes"], n),
        "sim.pcie.atomics_per_op": _div(d["pcie.atomics"], n),
        "sim.pcie.doorbells_per_op": _div(d["pcie.doorbells"], n),
        "sim.pcie.interrupts_per_op": _div(d["pcie.interrupts"], n),
        "sim.pcie.bytes_per_op": _div(d["pcie.bytes_read"] + d["pcie.bytes_written"], n),
        "proto.nvme.sqes_per_fetch": _div(
            d["nvme.commands_processed"], d["pcie.by_tag.sqe-fetch"]
        ),
        "proto.nvme.transient_retries_per_kop": _div(d["nvme.transient_retries"], kop),
        "sim.cpu.host_cores_busy": _div(d["cpu.host.busy"], sim_s),
        "sim.cpu.dpu_cores_busy": _div(d["cpu.dpu.busy"], sim_s),
        "sim.network.bytes_per_op": _div(d["net.bytes"], n),
        "sim.network.dropped_frac": _div(d["net.dropped"], d["net.messages"]),
        "cache.hit_frac": _div(
            d["cache.read_hits"], d["cache.read_hits"] + d["cache.read_misses"]
        ),
        "cache.evict_waits_per_kop": _div(d["cache.evict_waits"], kop),
        "cache.seqlock_retry_frac": _div(d["cache.seqlock_retries"], seqlock),
        "kv.client.retries_per_kop": _div(d["kv.client.retries"], kop),
        "kv.server.ops_per_op": _div(d["kv.server.ops"], n),
        "kv.server.queue_wait_us_per_op": _div(d["kv.server.queue_wait"] * 1e6, n),
        "kv.server.load_spread": _div(max(shard_ops), sum(shard_ops) / len(shard_ops)),
        "kv.engine.gets_per_op": _div(d["kv.engine.gets"], n),
        "kv.engine.puts_per_op": _div(d["kv.engine.puts"], n),
        "kv.engine.flushed_bytes_per_user_byte": _div(
            d["kv.engine.bytes_flushed"], phase.user_bytes
        ),
        "kv.engine.compacted_bytes_per_user_byte": _div(
            d["kv.engine.bytes_compacted"], phase.user_bytes
        ),
        "kv.flash.page_reads_per_get": _div(d["kv.flash.page_reads"], d["kv.engine.gets"]),
        "kv.flash.page_writes_per_put": _div(d["kv.flash.page_writes"], d["kv.engine.puts"]),
        "kv.flash.gc_moves_per_page_write": _div(
            d["kv.flash.gc_page_moves"], d["kv.flash.page_writes"]
        ),
        "kv.flash.cmt_hit_frac": _div(d["kv.flash.cmt_hits"], flash_lookups),
        "kv.flash.inline_get_frac": _div(d["kv.flash.inline_gets"], d["kv.engine.gets"]),
        "kv.rebalance.splits": d["kv.rebalance.splits"],
        "kv.rebalance.migrated_bytes": d["kv.rebalance.migrated_bytes"],
        "kv.rebalance.chunk_retries": d["kv.rebalance.chunk_retries"],
        "dfs.stripeio.units_written_per_op": _div(d["dfs.stripe.units_written"], n),
        "dfs.stripeio.units_read_per_op": _div(d["dfs.stripe.units_read"], n),
        "dfs.stripeio.degraded_stripes": d["dfs.stripe.degraded_stripes"],
        "dfs.stripeio.retries_per_kop": _div(d["dfs.stripe.retries"], kop),
        "dfs.mds.ops_per_op": _div(d["dfs.mds.ops"], n),
        "dfs.mds.forwards_per_op": _div(d["dfs.mds.forwards"], n),
        "dfs.client.deleg_hit_frac": _div(d["dfs.deleg_hits"], d["dfs.ops"]),
        "fault.requests.attempts_per_call": _div(d["req.attempts"], calls),
        "fault.requests.hedge_frac": _div(d["req.hedges"], calls),
        "fault.requests.hedge_win_frac": _div(d["req.hedge_wins"], d["req.hedges"]),
        "fault.requests.cancels_per_kop": _div(d["req.cancels"], kop),
        "fault.requests.budget_exhausted": d["req.budget_exhausted"],
        "fault.plane.events": d["fault.events"],
        "bench.host_wall_over_cpu": _div(phase.host_wall_s, phase.host_cpu_s),
    }
