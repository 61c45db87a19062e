"""The stripe engine's unit fan-out and the data server's callback service.

Fail-free, a stripe operation posts every unit RPC itself and waits on one
countdown event, and a data server serves each request by callbacks: no
process per unit on either side.  Under a retry policy each unit is a
request-engine process, and the two arms must agree on bytes, counters and
simulated instants.
"""

import pytest

from repro.dfs import build_dfs
from repro.dfs.dataserver import DataServer
from repro.dfs.stripeio import StorageUnavailable, StripeIO
from repro.fault.retry import RetryPolicy
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric

FILE_ID = 3
MiB = 1 << 20


def build(retry=None):
    env = Environment()
    p = default_params()
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    _mds, dataservers, layout = build_dfs(env, fabric, p)
    fabric.attach("c")
    sio = StripeIO(env, fabric, layout, p, "c", retry=retry)
    return env, dataservers, layout, sio


def count_spawns(env):
    """Record the name of every process spawned from now on."""
    names = []
    spawn = env.process

    def process(generator, name=""):
        names.append(name or getattr(generator, "__name__", "process"))
        return spawn(generator, name)

    env.process = process
    return names


# -- no process per unit ----------------------------------------------------------------


def test_fail_free_full_stripe_write_and_rmw_spawn_no_process():
    env, dataservers, layout, sio = build()
    unit = layout.stripe_unit
    big = bytes(range(256)) * (MiB // 256)
    small = b"\xa5" * unit
    out = {}

    def scenario():
        spawned = count_spawns(env)
        yield from sio.write(FILE_ID, 0, big)  # 32 full stripes, streamed
        out["full"] = list(spawned)
        yield from sio.write(FILE_ID, unit, small)  # one-unit parity RMW
        out["rmw"] = list(spawned)
        out["read"] = yield from sio.read(FILE_ID, 0, 2 * unit)

    env.run(until=env.process(scenario()))
    assert out["full"] == [] and out["rmw"] == []
    assert out["read"] == big[:unit] + small
    stripes = MiB // layout.stripe_size
    n = layout.rs.k + layout.rs.m
    # full stripes write k + m units each; the RMW reads 1 + m and writes 1 + m
    assert sio.units_written == stripes * n + 1 + layout.rs.m
    assert sio.units_read == 1 + layout.rs.m + 2
    assert sum(ds.writes for ds in dataservers) == sio.units_written
    assert all(ds.threads.count == 0 for ds in dataservers)


# -- the two arms agree ------------------------------------------------------------------


def _workload(env, sio, layout):
    """Full stripes, a stripe-crossing partial write, a one-unit RMW and
    reads; returns what each op returned and the instant it finished."""
    unit, stripe = layout.stripe_unit, layout.stripe_size
    log = []

    def scenario():
        yield from sio.write(FILE_ID, 0, b"\x11" * (3 * stripe))
        log.append(("w", env.now))
        yield from sio.write(FILE_ID, stripe - unit // 2, b"\x22" * (2 * unit))
        log.append(("w", env.now))
        yield from sio.write(FILE_ID, 2 * stripe + unit, b"\x33" * 100)
        log.append(("w", env.now))
        got = yield from sio.read(FILE_ID, 0, 3 * stripe)
        log.append((got, env.now))
        got = yield from sio.read(FILE_ID, stripe + 5, unit)
        log.append((got, env.now))

    env.run(until=env.process(scenario()))
    return log


def test_fail_free_and_policy_arms_agree_on_bytes_counters_and_instants():
    env, _ds, layout, free = build()
    free_log = _workload(env, free, layout)
    # a policy whose deadline never fires: one attempt per unit, no retry
    env, _ds, layout, policed = build(retry=RetryPolicy(timeout=1.0))
    policed_log = _workload(env, policed, layout)
    assert free_log == policed_log
    assert (free.units_read, free.units_written) == (policed.units_read, policed.units_written)
    assert policed.retries == 0


@pytest.mark.parametrize("retry", [None, RetryPolicy(timeout=1.0)], ids=["fail-free", "policy"])
def test_a_write_that_needs_every_unit_fails_at_the_first_failed_unit(retry):
    env, dataservers, _layout, sio = build(retry)
    dataservers[1].fail()
    out = {}

    def rmw_writes():
        try:
            yield from sio._write_units([(0, "a", b"a" * 64), (1, "b", b"b" * 64)], strict=True)
        except StorageUnavailable as exc:
            out["failed"] = (str(exc), env.now)

    env.run(until=env.process(rmw_writes()))
    assert out["failed"][0] == "ds1: EHOSTDOWN"
    # the healthy unit is still in service: the failure did not wait for it
    assert dataservers[0].writes == 0 and sio.units_written == 0
    env.run()
    assert dataservers[0].writes == 1 and sio.units_written == 1


# -- the callback data server keeps its fault behaviours ---------------------------------


def server(threads=12):
    p = default_params().with_overrides(ds_threads=threads)
    env = Environment(seed=p.seed)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    ds = DataServer(env, fabric, 0, p)
    fabric.attach("cli")
    return env, fabric, ds, p


def test_failed_server_answers_ehostdown_without_taking_a_thread():
    env, fabric, ds, _p = server()
    ds.fail()
    reply = fabric.request("cli", ds.name, ("write_unit", "k", b"x" * 64), 128)
    env.run()
    assert reply.value == ("err", "EHOSTDOWN")
    assert ds.writes == 0 and ds.threads.total_grants == 0 and "k" not in ds.units


def test_crashed_server_never_answers():
    env, fabric, ds, _p = server()
    ds.crash()
    reply = fabric.request("cli", ds.name, ("read_unit", "k"), 64)
    env.run()
    assert not reply.triggered
    assert ds.endpoint.messages_in == 1 and ds.endpoint.messages_out == 0
    assert ds.reads == 0 and ds.threads.total_grants == 0


def test_crash_mid_service_loses_the_reply_and_frees_the_thread():
    env, fabric, ds, p = server()
    reply = fabric.request("cli", ds.name, ("write_unit", "k", b"y" * 64), 128)
    while ds.threads.count == 0:  # run until the request holds a thread
        env.step()
    env.run(until=env.now + p.ds_write_service / 2)
    ds.crash()
    env.run()
    assert not reply.triggered and ds.endpoint.messages_out == 0
    assert ds.threads.count == 0 and ds.threads.queue_len == 0
    assert ds.writes == 1  # the service finished; only its reply died with the node


def test_abandoned_rid_is_dropped_at_landing_and_while_queued():
    env, fabric, ds, p = server(threads=1)
    # abandoned before it lands: dropped without asking for a thread
    ds.endpoint.abandon(("cli", 1))
    early = fabric.request("cli", ds.name, ("read_unit", "k"), 64, rid=("cli", 1))
    env.run()
    assert not early.triggered and ds.cancel_drops == 1 and ds.threads.total_grants == 0
    # abandoned while queued behind a filler: the grant is handed straight on
    filler = fabric.request("cli", ds.name, ("write_unit", "f", b"f" * 64), 128)
    tied = fabric.request("cli", ds.name, ("write_unit", "t", b"t" * 64), 128, rid=("cli", 2))
    probe = fabric.request("cli", ds.name, ("write_unit", "p", b"p" * 64), 128)
    while ds.threads.queue_len < 2:
        env.step()
    ds.endpoint.abandon(("cli", 2))
    served = {}
    filler.callbacks.append(lambda ev: served.setdefault("filler", env.now))
    probe.callbacks.append(lambda ev: served.setdefault("probe", env.now))
    env.run()
    assert not tied.triggered and ds.cancel_drops == 2
    assert set(ds.units) == {"f", "p"} and ds.writes == 2
    assert ds.threads.count == 0 and ds.threads.queue_len == 0
    assert served["probe"] - served["filler"] == pytest.approx(p.ds_write_service, rel=1e-6)


# -- event budget -------------------------------------------------------------------------


def test_unit_rpc_to_a_callback_server_costs_seven_events_and_a_fan_out_one_more():
    env, fabric, ds, _p = server()
    seq0 = env._seq
    reply = fabric.request("cli", ds.name, ("write_unit", "k", b"z" * 64), 128)
    env.run()
    # request arrival and landing; thread grant; service time; reply
    # arrival and landing; the reply event
    assert reply.value == "ok" and env._seq - seq0 == 7

    env, _ds, layout, sio = build()
    n = layout.rs.k + layout.rs.m

    def one_stripe():
        seq = env._seq
        yield from sio.write(FILE_ID, 0, b"\x5a" * layout.stripe_size)
        return env._seq - seq

    assert env.run(until=env.process(one_stripe())) == 7 * n + 1  # + the countdown
