"""Crash / restart recovery: KV WAL replay, DS restarts, MDS lease expiry."""

import zlib
from collections import Counter

import pytest

from repro.core.testbeds import build_dpc_system, build_host_dfs_clients
from repro.dfs.mds import DFS_ROOT_INO
from repro.fault import FaultPlane, retry_policy_from
from repro.host.adapters import O_DIRECT, FsError
from repro.host.vfs import O_CREAT
from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.kvfs import schema
from repro.params import default_params
from repro.proto.filemsg import Errno
from repro.sim.core import Environment
from repro.sim.network import Fabric

MSG = 64


def build_kv(rpc_timeout=0.0, **overrides):
    p = default_params().with_overrides(rpc_timeout=rpc_timeout, **overrides)
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    fabric.fault_plane = plane
    cluster = KvCluster(env, fabric, p)
    fabric.attach("cli")
    client = KvClient(
        fabric, "cli", cluster.shard_names(), retry=retry_policy_from(p), plane=plane
    )
    return env, plane, cluster, client


def _longest_lane(shard, threads):
    """Records in the busiest replay lane of ``shard``'s WAL: a record's
    lane is ``crc32(key) % threads``."""
    lanes = Counter(zlib.crc32(key) % threads for key, _ in shard.engine.wal)
    return max(lanes.values(), default=0)


def test_kv_wal_replay_restores_data_at_cost():
    env, plane, cluster, client = build_kv()
    p = cluster.params
    keys = [f"wal{i:03d}".encode() for i in range(32)]

    def scenario():
        for i, k in enumerate(keys):
            yield from client.put(k, bytes([i + 1]) * 32)
        longest = [_longest_lane(s, p.kv_server_threads) for s in cluster.shards]
        # Whole-cluster power loss while idle; volatile state evaporates.
        for shard in cluster.shards:
            shard.crash()
        t0 = env.now
        replayed = 0
        for shard in cluster.shards:
            replayed += yield from shard.restart()
        recovery_time = env.now - t0
        got = []
        for k in keys:
            got.append((yield from client.get(k)))
        return replayed, longest, recovery_time, got

    replayed, longest, recovery_time, got = env.run(until=env.process(scenario()))
    assert got == [bytes([i + 1]) * 32 for i in range(32)]
    # Every put is one WAL record; each shard replays its lanes in parallel,
    # so a restart costs its longest lane, and the shards restart in turn.
    assert replayed == 32
    assert sum(longest) < replayed
    assert recovery_time == pytest.approx(sum(longest) * p.kv_wal_replay_per_entry)
    assert all(s.crashes == 1 for s in cluster.shards)


def test_hot_key_replays_in_log_order_on_one_lane():
    env, plane, cluster, client = build_kv()
    p = cluster.params
    shard = cluster.shards[0]
    threads = p.kv_server_threads
    on_shard = (
        k
        for k in (f"hot{i:04d}".encode() for i in range(10_000))
        if client.route(k) == shard.name
    )
    hot = next(on_shard)
    hot_lane = zlib.crc32(hot) % threads
    # Six cold keys on the shard, none in the hot key's lane.
    cold = [k for k in on_shard if zlib.crc32(k) % threads != hot_lane][:6]

    def scenario():
        for i in range(4):
            yield from client.put(hot, b"v%d" % i)
        for k in cold:
            yield from client.put(k, b"cold")
        yield from client.delete(hot)
        yield from client.put(hot, b"newest")
        assert len(shard.engine.wal) == 6 + len(cold)
        shard.crash()
        t0 = env.now
        replayed = yield from shard.restart()
        recovery_time = env.now - t0
        return replayed, recovery_time, (yield from client.get(hot))

    replayed, recovery_time, value = env.run(until=env.process(scenario()))
    assert value == b"newest"
    assert replayed == 6 + len(cold)
    # The hot key's six records share one lane and set the replay time.
    assert recovery_time == pytest.approx(6 * p.kv_wal_replay_per_entry)


def test_kv_get_in_a_crash_window_waits_one_deadline_past_the_replay():
    """KV-side one-op timeline: a get posted as its shard crashes finishes
    within the outage, the longest replay lane, one attempt deadline and
    one backoff."""
    env, plane, cluster, client = build_kv(rpc_timeout=400e-6)
    p = cluster.params
    policy = retry_policy_from(p)
    shard = cluster.shards[0]
    keys = [
        k
        for k in (f"tl{i:05d}".encode() for i in range(4096))
        if client.route(k) == shard.name
    ][:256]
    assert len(keys) == 256
    for k in keys:
        shard.engine.put(k, k * 4)
    assert len(shard.engine.wal) == 256
    longest = _longest_lane(shard, p.kv_server_threads)
    crash_t, outage = 1e-6, 300e-6
    replay = longest * p.kv_wal_replay_per_entry
    # The shard is back before the first attempt's deadline, so the first
    # retry is the one that lands; its backoff is at most base * (1 + jitter).
    assert outage + replay < policy.timeout
    max_backoff = policy.backoff_base * (1.0 + policy.jitter)
    plane.crash_at(crash_t, shard, restart_at=crash_t + outage, drop=True)

    def scenario():
        value = yield from client.get(keys[0])
        return value, env.now

    value, done = env.run(until=env.process(scenario()))
    assert value == keys[0] * 4
    assert client.retries == 1
    assert done <= outage + replay + policy.timeout + max_backoff


def test_crash_clears_staged_2pc_state():
    env, plane, cluster, client = build_kv()
    shard = cluster.shards[0]

    def scenario():
        ok = yield from client.fabric.rpc(
            "cli", shard.name, ("prepare", "tx1", [("put", b"pk", b"pv")]), MSG
        )
        assert ok is True
        assert shard._staged and shard._locks
        shard.crash()
        yield from shard.restart()
        # Locks and staged ops are volatile: gone after the crash, so a new
        # transaction can prepare the same keys immediately.
        assert not shard._staged and not shard._locks
        ok2 = yield from client.fabric.rpc(
            "cli", shard.name, ("prepare", "tx2", [("put", b"pk", b"pv2")]), MSG
        )
        yield from client.fabric.rpc("cli", shard.name, ("commit", "tx2"), MSG)
        return ok2

    ok2 = env.run(until=env.process(scenario()))
    assert ok2 is True
    assert shard.engine.get(b"pk") == b"pv2"


def test_inflight_put_survives_silent_shard_crash():
    env, plane, cluster, client = build_kv(rpc_timeout=400e-6)
    key = b"crashkey"
    shard = cluster.shards[cluster.shard_names().index(client.route(key))]
    # Silent crash 10us in (mid-service), restart shortly after: the client
    # only notices via its deadline, then the backoff'd retry lands.
    plane.crash_at(10e-6, shard, restart_at=300e-6, drop=True)

    def scenario():
        yield from client.put(key, b"survivor")
        value = yield from client.get(key)
        return value

    value = env.run(until=env.process(scenario()))
    assert value == b"survivor"
    assert client.retries >= 1
    assert shard.crashes == 1
    kinds = plane.counts()
    assert kinds.get("crash") == 1 and kinds.get("restart") == 1
    assert kinds.get("retry", 0) == client.retries


def test_kv_outage_past_the_retry_envelope_surfaces_as_eio():
    """A shard down for longer than the whole 5-attempt envelope fails the
    host's write with EIO instead of aborting the simulation, and the same
    write succeeds once the shard is back."""
    sys_ = build_dpc_system(default_params().with_overrides(rpc_timeout=400e-6))
    env = sys_.env
    off, new = 3 * 8192, b"\xcd" * 8192

    def app():
        f = yield from sys_.vfs.open("/kvfs/outage.bin", O_CREAT | O_DIRECT)
        yield from sys_.vfs.write(f, 0, b"\xab" * (64 * 1024))  # a big file
        owner = sys_.kvfs.kv.route(schema.block_key(f.ino, off // 8192))
        victim = next(s for s in sys_.kv_cluster.shards if s.name == owner)
        victim.crash()
        down_at = env.now
        with pytest.raises(FsError) as exc:
            yield from sys_.vfs.write(f, off, new)
        # the simulation is still running: sit out the 10 ms outage
        yield env.timeout(down_at + 10e-3 - env.now)
        yield from victim.restart()
        n = yield from sys_.vfs.write(f, off, new)
        data = yield from sys_.vfs.read(f, off, len(new))
        return exc.value.errno_code, n, data

    assert sys_.run_until(app()) == (Errno.EIO, len(new), new)


def test_dataserver_restart_pays_restart_delay():
    tb = build_host_dfs_clients()
    env, p = tb.env, tb.params
    ds = tb.dataservers[0]

    def scenario():
        ds.crash()
        t0 = env.now
        yield from ds.restart()
        return env.now - t0

    delay = tb.run_until(scenario())
    assert delay == pytest.approx(p.ds_restart_delay)
    assert not ds.failed and not ds.dropped


def test_delegation_lease_expires_and_is_recalled():
    tb = build_host_dfs_clients()
    env, p, fabric = tb.env, tb.params, tb.fabric
    home_name = tb.mds.home_of(DFS_ROOT_INO)
    server = next(s for s in tb.mds.servers if s.name == home_name)
    fabric.attach("cA")
    fabric.attach("cB")

    def acquire(src):
        resp = yield from fabric.rpc(
            src, home_name, ("deleg_acquire", DFS_ROOT_INO, "dir"), MSG
        )
        return resp

    def scenario():
        r1 = yield from acquire("cA")
        r2 = yield from acquire("cB")  # lease still live: denied
        yield env.timeout(p.deleg_lease + 1.0)
        r3 = yield from acquire("cB")  # expired: recalled + granted
        return r1, r2, r3

    r1, r2, r3 = tb.run_until(scenario())
    assert r1[0] == "granted" and r1[1]  # dir delegation carries an ino lease
    assert r2[0] == "denied"
    assert r3[0] == "granted"
    assert server.recalls == 1


def test_expire_client_force_revokes_delegations():
    tb = build_host_dfs_clients()
    fabric = tb.fabric
    home_name = tb.mds.home_of(DFS_ROOT_INO)
    server = next(s for s in tb.mds.servers if s.name == home_name)
    fabric.attach("cA")
    fabric.attach("cB")

    def scenario():
        r1 = yield from fabric.rpc(
            "cA", home_name, ("deleg_acquire", DFS_ROOT_INO, "dir"), MSG
        )
        assert r1[0] == "granted"
        # Fault script declares cA dead before its lease runs out.
        revoked = server.expire_client("cA")
        r2 = yield from fabric.rpc(
            "cB", home_name, ("deleg_acquire", DFS_ROOT_INO, "dir"), MSG
        )
        return revoked, r2

    revoked, r2 = tb.run_until(scenario())
    assert revoked == 1
    assert r2[0] == "granted"
    assert server.recalls == 1
