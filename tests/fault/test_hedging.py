"""Hedged/tied requests and the unified request engine.

Covers the three ISSUE-level behaviours: a fixed-seed hedged run replays
bit-identically, a hedge whose loser also reaches an idempotent server
applies exactly once, and a tied-request wire cancel frees the loser's
queue slot at the server instead of burning service time on it.
"""

import pytest

from repro.fault import ChannelFaults, FaultPlane, RetryPolicy, retry_policy_from
from repro.fault.requests import RequestConfig, RequestEngine
from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.obsv.quantiles import SketchHub
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric
from repro.sim.resources import Resource

US = 1e-6

HEDGED = RequestConfig(hedging=True)


class EchoServer:
    """Minimal fabric server with a thread pool and the tied-request
    abandon checks the real servers implement (drop unanswered on a
    cancelled rid, both before queuing and after the thread grant)."""

    def __init__(self, env, fabric, name, service, threads=1):
        self.env = env
        self.fabric = fabric
        self.name = name
        self.service = service
        self.endpoint = fabric.attach(name)
        self.threads = Resource(env, threads)
        self.served = 0
        self.cancel_drops = 0
        env.process(self._serve(), name=name)

    def _serve(self):
        while True:
            msg = yield self.endpoint.inbox.get()
            self.env.process(self._handle(msg), name=f"{self.name}-req")

    def _handle(self, msg):
        if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
            self.cancel_drops += 1
            return
        req = self.threads.request()
        yield req
        try:
            if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
                self.cancel_drops += 1
                return
            yield self.env.timeout(self.service)
            self.served += 1
        finally:
            self.threads.release(req)
        yield from self.fabric.reply(msg, ("from", self.name), 64)


def warm_hub(env, endpoint, n=16, latency=20 * US):
    """A sketch hub with enough observations that the engine trusts the
    endpoint's quantiles (hedge delay clamps to the 30us floor)."""
    hub = SketchHub(now_fn=lambda: env.now)
    for _ in range(n):
        hub.observe(f"req.{endpoint}", latency)
    return hub


def test_config_defaults_are_off():
    assert RequestConfig().enabled is False
    assert RequestConfig.from_params(default_params()).enabled is False
    assert RequestConfig(hedging=True).enabled is True
    assert RequestConfig(adaptive_retry=True).enabled is True


def test_hedge_wins_and_cancel_frees_queue_slot():
    env = Environment(seed=3)
    fabric = Fabric(env, latency=1 * US)
    slow = EchoServer(env, fabric, "slow", service=500 * US, threads=1)
    fast = EchoServer(env, fabric, "fast", service=10 * US)
    fabric.attach("cli")
    fabric.attach("other")
    hub = warm_hub(env, "slow")
    eng = RequestEngine(
        env,
        fabric,
        "cli",
        RetryPolicy(timeout=5e-3, max_attempts=2),
        hub_fn=lambda: hub,
        config=HEDGED,
    )
    probe_done = []

    def filler():
        # Occupies the slow server's single thread for 500us.
        yield from fabric.rpc("other", "slow", ("filler",), 64)

    def probe():
        # Queued behind the engine's primary; measures when the slot frees.
        yield env.timeout(5 * US)
        yield from fabric.rpc("other", "slow", ("probe",), 64)
        probe_done.append(env.now)

    def scenario():
        yield env.timeout(1 * US)  # let the filler arrive first
        resp = yield from eng.call(
            "slow", ("payload",), 64, hedge_to=lambda: "fast"
        )
        return resp

    env.process(filler(), name="filler")
    env.process(probe(), name="probe")
    resp = env.run(until=env.process(scenario()))
    env.run()  # drain the cancel and the queued requests

    assert resp == ("from", "fast")
    st = eng.stat("slow")
    assert st.hedges == 1
    assert st.hedge_wins == 1
    assert st.cancels == 1
    # The loser was dropped at the thread grant: never serviced, and the
    # probe queued behind it ran right after the filler (~1000us incl. its
    # own 500us service) instead of waiting out the loser's 500us too
    # (~1500us).
    assert slow.cancel_drops == 1
    assert slow.served == 2  # filler + probe, not the cancelled primary
    assert probe_done and probe_done[0] < 1200 * US


def test_hedge_and_loser_apply_exactly_once():
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
        config=HEDGED,
    )
    key = b"hedgekey"
    shard = client.route(key)  # warm + delay the shard the key hashes to
    client.sketches = warm_hub(env, shard)
    # Every request cli->shard is delayed 100us: the primary outlives the
    # 30us hedge delay, and the wire cancel (also delayed) lands only
    # after the hedged duplicate reached the server — both execute.
    plane.set_channel("cli", shard, ChannelFaults(delay=1.0, delay_time=100e-6))

    def scenario():
        ok = yield from client.cas(key, None, b"v1")
        assert ok is True
        yield env.timeout(1e-3)  # let the losing duplicate land and dedupe
        ok2 = yield from client.cas(key, None, b"v2")
        value = yield from client.get(key)
        return ok2, value

    ok2, value = env.run(until=env.process(scenario()))
    env.run()
    # The duplicate was memoised by its idempotency token, not re-applied:
    # the create-if-absent happened exactly once.
    assert ok2 is False
    assert value == b"v1"
    st = client._req.stat(shard)
    assert st.hedges >= 1
    assert sum(s._idem.hits for s in cluster.shards) >= 1


def _hedged_kv_fingerprint(seed: int) -> tuple:
    """One lossy hedged KV run reduced to its observable schedule."""
    p = default_params().with_overrides(seed=seed, rpc_timeout=500e-6)
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    fabric.fault_plane = plane
    cluster = KvCluster(env, fabric, p)
    shard = cluster.shard_names()[0]
    fabric.attach("cli")
    client = KvClient(
        fabric,
        "cli",
        cluster.shard_names(),
        retry=retry_policy_from(p),
        plane=plane,
        config=RequestConfig(hedging=True, adaptive_retry=True),
    )
    client.sketches = warm_hub(env, shard)
    plane.set_channel("cli", None, ChannelFaults(drop=0.1, delay=0.5,
                                                 delay_time=80e-6))

    def scenario():
        for i in range(20):
            yield from client.put(f"k{i:03d}".encode(), bytes([i]) * 128)
        got = []
        for i in range(20):
            got.append((yield from client.get(f"k{i:03d}".encode())))
        return got

    got = env.run(until=env.process(scenario()))
    env.run()
    stats = {
        ep: tuple(sorted(st.as_dict().items()))
        for ep, st in client._req.stats.items()
    }
    return (
        env.now,
        got,
        client.retries,
        tuple(sorted(stats.items())),
        tuple(s.ops_served for s in cluster.shards),
        tuple(sorted(plane.counts().items())),
    )


def test_hedged_run_replays_bit_identically():
    a = _hedged_kv_fingerprint(seed=11)
    b = _hedged_kv_fingerprint(seed=11)
    assert a == b
    # All data survived the lossy fabric on both replicas.
    assert a[1] == [bytes([i]) * 128 for i in range(20)]


def test_hedging_off_needs_no_sketches():
    # A plain run with no sketches configured: the race loop waits the
    # fixed deadline and never hedges or cancels.
    p = default_params().with_overrides(rpc_timeout=500e-6)
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    fabric.fault_plane = plane
    cluster = KvCluster(env, fabric, p)
    fabric.attach("cli")
    client = KvClient(
        fabric, "cli", cluster.shard_names(), retry=retry_policy_from(p), plane=plane
    )

    def scenario():
        yield from client.put(b"plainkey", b"v")
        return (yield from client.get(b"plainkey"))

    assert env.run(until=env.process(scenario())) == b"v"
    st = client._req.stats
    assert all(s.hedges == 0 and s.cancels == 0 for s in st.values())


def test_cancel_message_pays_wire_costs():
    env = Environment(seed=5)
    fabric = Fabric(env, latency=1 * US)
    srv = EchoServer(env, fabric, "srv", service=5 * US)
    cli = fabric.attach("cli")
    sent_before = cli.messages_out
    recv_before = srv.endpoint.messages_in
    t0 = env.now

    def scenario():
        yield from fabric.cancel("cli", "srv", ("cli", 1))

    env.run(until=env.process(scenario()))
    assert cli.messages_out == sent_before + 1
    assert srv.endpoint.messages_in == recv_before + 1
    assert env.now > t0  # paid serialization + propagation, not free
    # The abandoned rid is registered at the destination endpoint.
    assert srv.endpoint.take_abandoned(("cli", 1)) is True
    assert srv.endpoint.take_abandoned(("cli", 1)) is False


def test_pending_cancel_for_unknown_endpoint_is_noop():
    env = Environment(seed=5)
    fabric = Fabric(env, latency=1 * US)
    fabric.attach("cli")

    def scenario():
        yield from fabric.cancel("cli", "ghost", ("cli", 9))

    env.run(until=env.process(scenario()))  # must not raise
