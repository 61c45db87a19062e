"""Seeded-determinism contract: one root seed reproduces the whole run."""

from repro.core.testbeds import build_host_dfs_clients
from repro.dfs.mds import DFS_ROOT_INO
from repro.fault import ChannelFaults, FaultPlane, retry_policy_from
from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric
from repro.workload.runner import ClientTarget, JobSpec, run_job


def test_substreams_are_independent_and_named():
    e1 = Environment(seed=5)
    ra = e1.substream("a")
    seq_a = [ra.random() for _ in range(6)]
    # Drawing from an unrelated stream first must not perturb "a".
    e2 = Environment(seed=5)
    rb = e2.substream("b")
    _ = [rb.random() for _ in range(10)]
    ra2 = e2.substream("a")
    assert [ra2.random() for _ in range(6)] == seq_a
    # A different root seed gives a different stream.
    e3 = Environment(seed=6)
    assert e3.substream("a").random() != seq_a[0]


def _job(seed: int):
    p = default_params().with_overrides(seed=seed)
    tb = build_host_dfs_clients(p)
    stripe = tb.layout.stripe_size
    nstripes = 12

    def prep():
        attr = yield from tb.opt_client.create(DFS_ROOT_INO, b"jobfile")
        for s in range(nstripes):
            yield from tb.opt_client.write(attr.ino, s * stripe, b"\x5a" * stripe)
        yield from tb.opt_client.flush_metadata()
        return attr.ino

    ino = tb.run_until(prep())
    spec = JobSpec(
        name="det",
        mode="randrw",
        block_size=8192,
        nthreads=4,
        ops_per_thread=12,
        file_size=nstripes * stripe,
        seed=None,  # derive per-thread streams from the env root seed
    )
    res = run_job(tb.env, spec, lambda tid: ClientTarget(tb.opt_client, ino))
    return res


def test_run_job_bit_reproducible_from_root_seed():
    r1 = _job(42)
    r2 = _job(42)
    assert r1.elapsed == r2.elapsed
    assert r1.iops == r2.iops
    assert r1.lat._samples == r2.lat._samples
    assert r1.errors == r2.errors == 0


def test_run_job_offsets_depend_on_root_seed():
    # seed=None threads draw offsets from env.substream("job:<name>:t<tid>"),
    # so changing the root seed changes the offset streams.
    e1 = Environment(seed=42)
    e2 = Environment(seed=43)
    s1 = [e1.substream("job:det:t0").randrange(1 << 30) for _ in range(4)]
    s2 = [e2.substream("job:det:t0").randrange(1 << 30) for _ in range(4)]
    assert s1 != s2


def test_probabilistic_fault_schedule_replays_identically():
    def run_once():
        p = default_params().with_overrides(rpc_timeout=500e-6)
        env = Environment(seed=p.seed)
        plane = FaultPlane(env)
        fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
        fabric.fault_plane = plane
        cluster = KvCluster(env, fabric, p)
        fabric.attach("cli")
        client = KvClient(
            fabric,
            "cli",
            cluster.shard_names(),
            retry=retry_policy_from(p),
            plane=plane,
        )
        plane.set_channel(None, None, ChannelFaults(drop=0.08, dup=0.05))

        def scenario():
            for i in range(24):
                yield from client.put(f"pk{i:03d}".encode(), bytes([i]) * 48)
            for i in range(24):
                value = yield from client.get(f"pk{i:03d}".encode())
                assert value == bytes([i]) * 48

        env.run(until=env.process(scenario()))
        return plane.trace_signature(), env.now, client.retries

    first = run_once()
    second = run_once()
    assert first == second
    trace, _, _ = first
    # The schedule actually exercised the probabilistic paths.
    kinds = {kind for _, kind, _, _ in trace}
    assert "net-drop" in kinds or "net-dup" in kinds


# -- every default-off feature on at once ---------------------------------------------

#: ``FAULTED_PROFILE`` of ``bench/workloads.py``: the configuration the benchmark's
#: ``cluster_faulted`` workload runs, and the only one with every feature on
EVERYTHING_ON = dict(
    kv_flash_model=True,
    kv_inline_enabled=True,
    kv_inline_hints=True,
    kv_inline_adapt_window=512,
    kv_elastic=True,
    kv_rebalance=True,
    kv_idem_ttl=10e-3,
    obsv_sketches=True,
    req_hedging=True,
    rpc_timeout=400e-6,
    rpc_retry_max=7,
)


def _everything_on_run(overrides, jobs):
    """Two hosts running ``jobs`` (mount, mode, threads per host, ops per
    thread) one after the other, 0.3 % of the messages to or from a client
    endpoint dropped.  Returns the cluster and everything a replay must
    reproduce."""
    from repro.core.topology import build_cluster
    from repro.workload import ClusterJobSpec, run_cluster_job

    p = default_params().with_overrides(**overrides)
    cluster = build_cluster(n_hosts=2, params=p, with_dfs=True)
    lossy = ChannelFaults(drop=0.003)
    for node in cluster.nodes:
        cluster.fault_plane.set_channel(src=node.endpoint, faults=lossy)
        cluster.fault_plane.set_channel(dst=node.endpoint, faults=lossy)
    results = [
        run_cluster_job(
            cluster,
            ClusterJobSpec(name=mount, mode=mode, mount=mount, nthreads=nthreads,
                           ops_per_thread=ops, nfiles=4, file_size=256 * 1024),
        )
        for mount, mode, nthreads, ops in jobs
    ]  # fmt: skip
    assert [r.errors for r in results] == [0] * len(jobs)
    fabric = cluster.fabric
    return cluster, (
        cluster.snapshot(),
        cluster.fault_plane.trace_signature(),
        cluster.env.now,
        cluster.env._seq,
        (fabric.messages_dropped, fabric.messages_duplicated),
        [r.elapsed for r in results],
    )


def test_everything_on_profile_replays_identically_with_drops():
    """200 mixed ops over /kvfs and /dfs."""
    jobs = [("/kvfs", "randrw", 5, 10), ("/dfs", "randrw", 5, 10)]
    _, first = _everything_on_run(EVERYTHING_ON, jobs)
    assert first == _everything_on_run(EVERYTHING_ON, jobs)[1]
    assert first[0], "registry snapshots must not be empty"
    assert first[4][0] > 0, "the run must actually lose messages"


def test_default_retry_budget_rides_out_flash_gc():
    """With GC off the request thread the profile no longer needs its 7
    attempts: 800 KVFS writes, several blocks reclaimed per shard, at the
    default ``rpc_retry_max`` — nothing fails, no budget runs out."""
    overrides = {k: v for k, v in EVERYTHING_ON.items() if k != "rpc_retry_max"}
    assert default_params().rpc_retry_max == 5
    jobs = [("/kvfs", "randwrite", 8, 50)]
    cluster, first = _everything_on_run(overrides, jobs)
    assert first == _everything_on_run(overrides, jobs)[1]
    assert max(sh.flash.stats.erases for sh in cluster.kv_cluster.shards) >= 3
    assert first[4][0] > 0, "the run must actually lose messages"
    for snap in first[0].values():
        exhausted = {k: v for k, v in snap.items() if k.endswith("exhausted")}
        assert exhausted and not any(exhausted.values()), exhausted


def test_warm_sketch_deadlines_replay_identically():
    """A p90 deadline warms at 100 observations per endpoint, well inside
    this run, so sketch-fed first-attempt deadlines are in play: the run
    still replays event for event, and its schedule differs from the cold
    default (p99 needs 1000 observations, more than this run makes).  The
    /dfs job runs long enough past the warm-up that dropped messages meet
    sketch-fed deadlines (three at seed 42), not only the policy's."""
    jobs = [("/kvfs", "randrw", 5, 10), ("/dfs", "randrw", 5, 100)]
    warm = {**EVERYTHING_ON, "req_timeout_quantile": 0.9}
    cluster, first = _everything_on_run(warm, jobs)
    assert first == _everything_on_run(warm, jobs)[1]
    hubs = [node.sketches for node in cluster.nodes]
    assert any(
        hub.sketch(name).count >= 100
        for hub in hubs for name in hub.names() if name.startswith("req.")
    )
    timeouts = sum(
        v for snap in first[0].values() for k, v in snap.items()
        if k.startswith("req.") and k.endswith(".timeouts")
    )
    assert timeouts > 0
    assert first != _everything_on_run(EVERYTHING_ON, jobs)[1]
