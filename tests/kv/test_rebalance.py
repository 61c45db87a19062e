"""Elastic rebalancer: live splits, migration protocol, crash exactly-once."""

import pytest

from repro.fault import retry_policy_from
from repro.kv.client import KvClient, KvTransactionError
from repro.kv.rebalance import Rebalancer
from repro.kv.server import KvCluster
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric


def make_elastic(**overrides):
    params = default_params().with_overrides(
        kv_shards=2, kv_elastic=True, **overrides
    )
    env = Environment(seed=params.seed)
    fabric = Fabric(
        env, latency=params.net_latency, default_bandwidth=params.net_bandwidth
    )
    cluster = KvCluster(env, fabric, params)
    return env, fabric, cluster, params


def make_client(fabric, cluster, name):
    fabric.attach(name)
    return KvClient(
        fabric, name, cluster.shard_names(), ring=cluster.ring.clone()
    )


def keys_owned_by(ring, pool, shard):
    """8-byte keys from ``pool`` the ring currently routes to ``shard``."""
    return [k for k in pool if ring.lookup(k) == shard]


KEY_POOL = [b"h%07d" % i for i in range(600)]


# -- end to end: skew-driven split under live writers -------------------------


def test_skewed_load_triggers_split_and_keeps_data_consistent():
    env, fabric, cluster, params = make_elastic(
        kv_server_threads=2,
        kv_rebalance_interval=200e-6,
        kv_rebalance_threshold=20e-6,
        kv_max_shards=4,
        kv_migrate_chunk=2048,
    )
    reb = Rebalancer(env, fabric, cluster, params)

    # All traffic lands on kv0: the classic hot-shard skew.
    hot = keys_owned_by(cluster.ring, KEY_POOL, "kv0")[:180]
    assert len(hot) == 180
    n_writers, rounds = 6, 12
    writers = [make_client(fabric, cluster, f"w{i}") for i in range(n_writers)]
    verifier = make_client(fabric, cluster, "verify")

    def write(w, mine):
        for r in range(rounds):
            for k in mine:
                yield from writers[w].put(k, b"v%02d-%s" % (r, k))
                yield from writers[w].get(k)

    procs = [
        env.process(write(w, hot[w::n_writers]), name=f"w{w}")
        for w in range(n_writers)
    ]

    def coordinate():
        yield env.all_of(procs)
        # Let any in-flight migration finish before verifying.
        for _ in range(1000):
            if not reb._busy:
                break
            yield env.timeout(100e-6)
        assert not reb._busy

    env.run(until=env.process(coordinate(), name="coord"))

    assert reb.splits >= 1
    assert len(cluster.shards) >= 3
    assert cluster.ring.version >= 2
    # Writers raced the cutover: someone must have chased the ring.
    assert sum(w.stale_reroutes for w in writers) > 0

    def verify():
        # Fan-out scan merges every shard: each key exactly once (the purge
        # removed the source's copy, the ingest created the destination's).
        items = yield from verifier.scan_prefix(b"h")
        assert len(items) == len(hot)
        final = b"v%02d" % (rounds - 1)
        for k, v in items:
            assert v.startswith(final), (k, v)
        # Point reads re-route through the grown ring.
        for k in hot[:20]:
            v = yield from verifier.get(k)
            assert v == final + b"-" + k

    env.run(until=env.process(verify(), name="verify"))

    # The moved range is physically gone from the source, not tombstoned.
    src = cluster.shards[0]
    moved = [k for k in hot if cluster.ring.lookup(k) != "kv0"]
    assert moved
    for k in moved[:20]:
        assert src.engine.get(k) is None


# -- crash during migration: exactly-once ingest ------------------------------


def test_destination_crash_mid_migration_is_exactly_once():
    env, fabric, cluster, params = make_elastic(
        kv_rebalance_interval=10.0,  # monitor loop stays out of the way
        kv_migrate_chunk=512,
    )
    reb = Rebalancer(env, fabric, cluster, params)
    client = make_client(fabric, cluster, "loader")
    keys = [b"m%07d" % i for i in range(260)]
    value = b"x" * 56

    def load():
        for k in keys:
            yield from client.put(k, value)

    env.run(until=env.process(load(), name="load"))
    src = cluster.shards[0]

    def crasher():
        while len(cluster.shards) < 3:
            yield env.timeout(10e-6)
        dst = cluster.shards[2]
        while dst.engine.stats.puts == 0:
            yield env.timeout(2e-6)
        dst.crash()
        # Longer than the chunk deadline: at least one in-flight chunk
        # times out and is re-driven against the restarted node.
        yield env.timeout(1.2e-3)
        yield from dst.restart()

    env.process(crasher(), name="crasher")

    def driver():
        yield from reb._split(src)

    env.run(until=env.process(driver(), name="driver"))

    dst = cluster.shards[2]
    assert dst.crashes == 1
    assert reb.chunk_retries > 0  # the crash window forced re-sends
    moved = [k for k in keys if cluster.ring.lookup(k) == dst.name]
    assert len(moved) > 10
    # Exactly-once: every moved key applied once despite the crash + retries
    # (WAL replay rebuilds state without re-counting, the idempotency filter
    # absorbs the re-driven chunks).
    assert dst.engine.stats.puts == len(moved)
    rec = reb.migrations[0]
    assert rec.keys == len(moved)
    for k in moved:
        assert dst.engine.get(k) == value
        assert src.engine.get(k) is None
    # Keys that did not move still live on their original shards.
    for k in keys:
        if k not in moved:
            owner = next(
                s for s in cluster.shards if s.name == cluster.ring.lookup(k)
            )
            assert owner.engine.get(k) == value


# -- migration protocol corners ------------------------------------------------


def test_prepare_refused_while_range_is_moving():
    env, fabric, cluster, params = make_elastic()
    client = make_client(fabric, cluster, "txn")
    # Two keys on different shards force 2PC; the whole keyspace is "moving".
    k0 = next(k for k in KEY_POOL if cluster.ring.lookup(k) == "kv0")
    k1 = next(k for k in KEY_POOL if cluster.ring.lookup(k) == "kv1")
    cluster.shards[0].begin_migration(lambda key: True)

    def flow():
        yield from client.batch_commit([("put", k0, b"a"), ("put", k1, b"b")])

    with pytest.raises(KvTransactionError):
        env.run(until=env.process(flow(), name="txn"))
    # The refused prepare left no locks behind on either participant.
    assert not cluster.shards[0]._locks
    assert not cluster.shards[1]._locks


def test_frozen_writer_parks_then_bounces_to_new_owner():
    env, fabric, cluster, params = make_elastic()
    client = make_client(fabric, cluster, "writer")
    ring = cluster.ring
    candidate = ring.clone()
    candidate.add_shard("kv2", steal_from="kv0")
    key = next(
        k
        for k in KEY_POOL
        if ring.lookup(k) == "kv0" and candidate.lookup(k) == "kv2"
    )
    src = cluster.shards[0]
    dst = cluster.add_shard_server("kv2")

    def moving(k):
        return candidate.lookup(k) == "kv2"

    src.begin_migration(moving)
    src.freeze_migration()

    def write():
        yield from client.put(key, b"post-cutover")
        return env.now

    p = env.process(write(), name="writer")

    def cutover():
        # The writer is parked on the freeze while we flip the ring.
        yield env.timeout(200e-6)
        ring.install(candidate.state())
        src.end_migration()

    env.process(cutover(), name="cutover")
    done_at = env.run(until=p)

    assert done_at >= 200e-6  # the put genuinely waited for the cutover
    assert client.stale_reroutes >= 1
    assert dst.engine.get(key) == b"post-cutover"
    assert src.engine.get(key) is None  # never applied on the old owner


def test_tokened_put_that_outsleeps_a_ring_bump_is_applied_once():
    """A stale-ring bounce is not a result: memoised under the mutation's
    idempotency token it would be replayed to the re-routed retry for ever,
    even though this shard still owns the key."""
    env, fabric, cluster, params = make_elastic(rpc_timeout=400e-6)
    fabric.attach("writer")
    client = KvClient(
        fabric,
        "writer",
        cluster.shard_names(),
        ring=cluster.ring.clone(),
        retry=retry_policy_from(params),
    )
    key = keys_owned_by(cluster.ring, KEY_POOL, "kv0")[0]
    owner = cluster.shards[0]

    def bump():
        # admitted under the old version, still in its service sleep
        while owner.threads.count == 0:
            yield env.timeout(1e-6)
        cluster.ring.version += 1

    env.process(bump(), name="bump")
    env.run(until=env.process(client.put(key, b"once"), name="writer"))

    assert 1 <= client.stale_reroutes <= 2
    assert owner.engine.get(key) == b"once"
    assert owner.engine.stats.puts == 1
