"""RPC timeouts, backoff, and exactly-once retry semantics."""

import random

import pytest

from repro.fault import (
    ChannelFaults,
    FaultPlane,
    IdempotencyFilter,
    RetryPolicy,
    retry_policy_from,
)
from repro.dfs.mds import DFS_ROOT_INO
from repro.core.testbeds import build_host_dfs_clients
from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric


def build_kv(rpc_timeout=500e-6, **overrides):
    """A small KV rig: cluster + one client on a fault-capable fabric."""
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


# ------------------------------------------------------------------ unit level
def test_backoff_is_exponential_and_jitter_bounded():
    pol = RetryPolicy(
        timeout=1e-3, backoff_base=100e-6, backoff_mult=2.0, jitter=0.25
    )
    rng = random.Random(7)
    for attempt in range(1, 6):
        raw = 100e-6 * 2.0 ** (attempt - 1)
        d = pol.backoff(attempt, rng)
        assert raw * 0.75 <= d <= raw * 1.25


def test_backoff_deterministic_per_rng_seed():
    pol = RetryPolicy(timeout=1e-3, jitter=0.5)
    a = [pol.backoff(i, random.Random(3)) for i in range(1, 5)]
    b = [pol.backoff(i, random.Random(3)) for i in range(1, 5)]
    assert a == b


def test_zero_jitter_is_exact():
    pol = RetryPolicy(timeout=1e-3, backoff_base=50e-6, backoff_mult=3.0, jitter=0.0)
    assert pol.backoff(1, random.Random(0)) == pytest.approx(50e-6)
    assert pol.backoff(3, random.Random(0)) == pytest.approx(450e-6)


def test_retry_policy_from_gates_on_timeout():
    p = default_params()
    assert p.rpc_timeout == 0.0
    assert retry_policy_from(p) is None
    pol = retry_policy_from(p.with_overrides(rpc_timeout=300e-6))
    assert pol is not None
    assert pol.timeout == pytest.approx(300e-6)
    assert pol.max_attempts == p.rpc_retry_max


def test_idempotency_filter_ttl_expires_old_tokens():
    clock = [0.0]
    f = IdempotencyFilter(capacity=64, ttl=1.0, now_fn=lambda: clock[0])
    f.put("a", "ra")
    clock[0] = 0.6
    f.put("b", "rb")
    assert f.check("a") == (True, "ra")
    clock[0] = 1.2  # "a" (stored at 0.0) is past the 1s ttl; "b" is not
    assert f.check("a") == (False, None)
    assert f.check("b") == (True, "rb")
    assert f.expirations == 1
    clock[0] = 5.0
    assert f.check("b") == (False, None)
    assert f.expirations == 2
    assert len(f) == 0


def test_idempotency_filter_ttl_ages_from_first_reservation():
    from repro.fault.idempotency import PENDING

    clock = [0.0]
    f = IdempotencyFilter(capacity=4, ttl=1.0, now_fn=lambda: clock[0])
    f.put("t", PENDING)
    clock[0] = 0.9
    f.put("t", "resp")  # PENDING -> final must not reset the age
    assert f.check("t") == (True, "resp")
    clock[0] = 1.05  # past the *reservation* time + ttl
    assert f.check("t") == (False, None)


def test_idempotency_filter_ttl_requires_clock():
    with pytest.raises(ValueError):
        IdempotencyFilter(ttl=1.0)


def test_idempotency_filter_ttl_zero_is_size_bounded_only():
    f = IdempotencyFilter(capacity=2, ttl=0.0)
    for i in range(5):
        f.put(f"t{i}", i)
    assert len(f) == 2
    assert f.expirations == 0
    assert f.check("t4") == (True, 4)


def test_idempotency_filter_memoises_and_caps():
    f = IdempotencyFilter(capacity=4)
    assert f.check("t1") == (False, None)
    f.put("t1", "resp")
    assert f.check("t1") == (True, "resp")
    assert f.hits == 1
    # None (unstamped) never memoised.
    assert f.check(None) == (False, None)
    f.put(None, "x")
    assert len(f) == 1
    # FIFO aging once past capacity.
    for i in range(2, 7):
        f.put(f"t{i}", i)
    assert len(f) == 4
    assert f.check("t1") == (False, None)


# ------------------------------------------------------------ end-to-end KV
def test_duplicated_mutations_apply_exactly_once():
    env, plane, cluster, client = build_kv()
    # Every client request is delivered twice; replies are untouched.
    plane.set_channel("cli", None, ChannelFaults(dup=1.0))

    def scenario():
        ok = yield from client.cas(b"dupkey--", None, b"v1")
        assert ok is True
        yield from client.put(b"dupkey--", b"v2")
        value = yield from client.get(b"dupkey--")
        assert value == b"v2"
        # create-if-absent still refuses a second creator: the duplicate of
        # the first cas was deduped, not applied as a competing create.
        ok2 = yield from client.cas(b"dupkey--", None, b"v3")
        assert ok2 is False

    env.run(until=env.process(scenario()))
    assert sum(s._idem.hits for s in cluster.shards) >= 2
    assert plane.counts().get("net-dup", 0) >= 3


def test_retries_recover_from_message_loss():
    env, plane, cluster, client = build_kv()
    plane.set_channel(None, None, ChannelFaults(drop=0.1))
    keys = [f"k{i:04d}".encode() for i in range(10)]

    def scenario():
        for i, k in enumerate(keys):
            yield from client.put(k, bytes([i]) * 64)
        got = []
        for k in keys:
            got.append((yield from client.get(k)))
        return got

    got = env.run(until=env.process(scenario()))
    assert got == [bytes([i]) * 64 for i in range(10)]
    assert client.retries > 0
    assert client.timeouts_exhausted == 0
    assert plane.counts().get("net-drop", 0) > 0
    # A retried put whose first attempt executed (reply lost) was deduped.
    assert plane.counts().get("retry", 0) == client.retries


def test_mds_creates_survive_lossy_fabric_exactly_once():
    p = default_params().with_overrides(rpc_timeout=500e-6, rpc_retry_max=8)
    tb = build_host_dfs_clients(p)
    env, plane, client = tb.env, tb.fault_plane, tb.std_client
    # Loss only on client-facing channels: MDS-internal forwards stay clean.
    faults = ChannelFaults(drop=0.15)
    plane.set_channel(client.src, None, faults)
    plane.set_channel(None, client.src, faults)
    names = [f"file{i:02d}".encode() for i in range(12)]

    def scenario():
        attrs = []
        for name in names:
            attrs.append((yield from client.create(DFS_ROOT_INO, name)))
        entries = yield from client.readdir(DFS_ROOT_INO)
        return attrs, entries

    attrs, entries = tb.run_until(scenario())
    # Every create returned a real attr, all inos distinct, and the retried
    # creates did not manifest as duplicate dentries or EEXIST errors.
    inos = [a.ino for a in attrs]
    assert len(set(inos)) == len(names)
    assert sorted(n for n, _ in entries) == sorted(names)
    assert client.retries > 0
