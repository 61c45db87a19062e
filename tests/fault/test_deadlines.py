"""Sketch-fed attempt deadlines (DESIGN.md §16.4).

A request's first attempt waits ``timeout_multiplier`` times the
endpoint's observed p99, but only once the endpoint's sketch holds
``ceil(10 / (1 - q))`` observations (1000 for p99); a colder endpoint and
every retry wait the full policy timeout.
"""

import random

import pytest

from repro.fault import FaultPlane, RetryPolicy, retry_policy_from
from repro.fault.requests import ReqStats, RequestConfig, RequestEngine
from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.obsv.quantiles import SketchHub
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric

US = 1e-6
RPC_TIMEOUT = 400 * US
#: the endpoint's steady latency in the warmed sketches below
LAT = 20 * US


class LossyEcho:
    """Fabric server that silently loses its first ``lose`` requests and
    answers the rest after ``service``; records every arrival time."""

    def __init__(self, env, fabric, name, lose=0, service=5 * US):
        self.env = env
        self.fabric = fabric
        self.lose = lose
        self.service = service
        self.arrivals = []
        fabric.attach(name).serve(self._handle, f"{name}-req")

    def _handle(self, msg):
        self.arrivals.append(self.env.now)
        if len(self.arrivals) <= self.lose:
            return
        yield self.env.timeout(self.service)
        yield from self.fabric.reply(msg, "pong", 64)


def rig(n_obs, lose, config=RequestConfig(), **policy):
    """An engine calling one ``LossyEcho`` whose sketch holds ``n_obs``
    observations of ``LAT``."""
    env = Environment(seed=1)
    fabric = Fabric(env, latency=1 * US)
    srv = LossyEcho(env, fabric, "srv", lose=lose)
    fabric.attach("cli")
    hub = SketchHub(now_fn=lambda: env.now)
    for _ in range(n_obs):
        hub.observe("req.srv", LAT)
    eng = RequestEngine(
        env, fabric, "cli", RetryPolicy(timeout=RPC_TIMEOUT, **policy),
        rng=random.Random(1), hub_fn=lambda: hub, config=config,
    )
    return env, srv, eng, hub


def first_deadline(n_obs, config=RequestConfig()):
    """How long a single attempt at a server that never answers waits."""
    env, _, eng, _ = rig(n_obs, lose=1, config=config, max_attempts=1)
    gen = eng.call("srv", "ping", 64, on_exhausted="return", exhausted_value="lost")
    assert env.run(until=env.process(gen)) == "lost"
    assert eng.stat("srv").timeouts == 1
    return env.now


def test_warm_up_rule_needs_ten_samples_beyond_the_quantile():
    assert RequestConfig().timeout_quantile == 0.99
    assert RequestConfig().timeout_min_obs == 1000
    assert RequestConfig(timeout_quantile=0.9).timeout_min_obs == 100
    assert RequestConfig(timeout_quantile=0.999).timeout_min_obs == 10000
    assert RequestConfig.from_params(default_params()) == RequestConfig()


@pytest.mark.parametrize("n_obs", [0, 16, 999])
@pytest.mark.parametrize("adaptive", [False, True])
def test_cold_endpoint_keeps_rpc_timeout(n_obs, adaptive):
    # 16 samples cannot tell a p99 from the maximum: trusting them timed
    # healthy requests out (the deadline must not depend on adaptive retry).
    cfg = RequestConfig(adaptive_retry=adaptive)
    assert first_deadline(n_obs, cfg) == pytest.approx(RPC_TIMEOUT)


def test_warm_endpoint_deadline_is_three_times_its_p99():
    t = first_deadline(1000)
    assert t == pytest.approx(3 * LAT, rel=0.05)


def test_deadline_is_clamped_to_the_hedge_floor():
    env, _, eng, hub = rig(0, lose=0)
    for _ in range(1000):
        hub.observe("req.srv", 1 * US)
    cfg = eng.config
    assert eng._first_timeout("srv", eng.policy, cfg, hub) == cfg.hedge_floor


def test_warm_endpoint_rides_out_one_lost_message_fast():
    env, srv, eng, _ = rig(1000, lose=1)
    resp = env.run(until=env.process(eng.call("srv", "ping", 64)))
    assert resp == "pong"
    st = eng.stat("srv")
    assert (st.timeouts, st.retries, st.attempts) == (1, 1, 2)
    # ~60us deadline + ~120us backoff + one round trip, not 400us + ...
    assert env.now < 0.6 * RPC_TIMEOUT


def test_retries_wait_the_full_rpc_timeout():
    env, srv, eng, _ = rig(1000, lose=2, max_attempts=2, jitter=0.0)
    gen = eng.call("srv", "ping", 64, on_exhausted="return", exhausted_value="lost")
    assert env.run(until=env.process(gen)) == "lost"
    assert len(srv.arrivals) == 2
    # both requests took the same one-way trip; the first left at t=0
    resend = srv.arrivals[1] - srv.arrivals[0]
    assert env.now - resend == pytest.approx(RPC_TIMEOUT)
    assert eng.stat("srv").timeouts == 2


def test_two_ms_silent_crash_survives_default_retry_budget():
    """The shortened first deadline must not shrink the retry window that
    rides out a 2 ms outage: the default 5 attempts still reach the
    restarted shard."""
    p = default_params().with_overrides(rpc_timeout=RPC_TIMEOUT)
    assert p.rpc_retry_max == 5
    env = Environment(seed=p.seed)
    plane = FaultPlane(env)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    fabric.fault_plane = plane
    cluster = KvCluster(env, fabric, p)
    fabric.attach("cli")
    client = KvClient(
        fabric, "cli", cluster.shard_names(), retry=retry_policy_from(p),
        plane=plane, config=RequestConfig.from_params(p),
    )
    key = b"outagekey"
    owner = client.route(key)
    shard = cluster.shards[cluster.shard_names().index(owner)]
    hub = client.sketches = SketchHub(now_fn=lambda: env.now)
    for _ in range(1000):
        hub.observe(f"req.{owner}", LAT)
    plane.crash_at(1 * US, shard, restart_at=2e-3 + 1 * US, drop=True)

    def scenario():
        yield env.timeout(2 * US)
        yield from client.put(key, b"after-restart")
        return (yield from client.get(key))

    assert env.run(until=env.process(scenario())) == b"after-restart"
    assert env.now > 2e-3
    st = client._req.stat(owner)
    assert st.timeouts >= 2 and client.timeouts_exhausted == 0


def test_timeouts_counter_is_reported():
    st = ReqStats()
    assert st.as_dict()["timeouts"] == 0
    env, _, eng, _ = rig(0, lose=1)
    env.run(until=env.process(eng.call("srv", "ping", 64)))
    assert eng.stat("srv").as_dict()["timeouts"] == 1
