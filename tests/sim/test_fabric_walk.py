"""The fabric's one channel walk: event budget, exact instants, and the
drop / duplicate / cancel behaviour every message kind shares.

Counts and instants only.  The instants are computed here with the float
operations of the event-per-hop model the walk replaced (a ``timeout`` per
pipe, a ``timeout`` per wire crossing), so "same time" means bit-equal.
"""

import pytest

from repro.dfs.dataserver import DataServer
from repro.fault import ChannelFaults, FaultPlane
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric
from repro.sim.resources import Resource

LATENCY = 4e-6
BW = 12.5e9
SERVICE = 7.3e-6
REQ, RESP = 8192 + 64, 64


def pipe(now: float, nbytes: int, free_at: float = 0.0) -> float:
    """When ``TokenBucket.transfer(nbytes)`` issued at ``now`` fires."""
    free_at = max(now, free_at) + nbytes / BW
    return now + (free_at - now)


def hop(now: float, nbytes: int) -> float:
    """Idle egress pipe, wire, idle ingress pipe."""
    return pipe(pipe(now, nbytes) + (LATENCY + 0.0), nbytes)


def build(threads: int = 1):
    """A client endpoint and an echo service with a thread pool."""
    env = Environment(seed=default_params().seed)
    fabric = Fabric(env, latency=LATENCY, default_bandwidth=BW)
    fabric.fault_plane = plane = FaultPlane(env)
    cli = fabric.attach("cli")
    srv = fabric.attach("srv")
    pool = Resource(env, threads)
    served = []

    def handle(msg):
        grant = pool.request()
        yield grant
        yield env.timeout(SERVICE)
        pool.release(grant)
        served.append(msg.payload)
        yield from fabric.reply(msg, ("echo", msg.payload), RESP)

    srv.serve(handle, "srv-req")
    return env, fabric, plane, cli, srv, served


def call(env, fabric, payload="ping", start=1e-6 * 3.3):
    """One rpc issued at ``start``; returns the process and its log."""
    log = {}

    def client():
        yield env.timeout(start)
        log["seq0"] = env._seq
        log["resp"] = yield from fabric.rpc("cli", "srv", payload, REQ)
        log["events"] = env._seq - log["seq0"]
        log["done_at"] = env.now
        log["resumes"] = log.get("resumes", 0) + 1

    return env.process(client()), log


def test_fail_free_rpc_costs_eight_events_and_lands_on_the_hop_by_hop_instant():
    env, fabric, _plane, cli, srv, served = build()
    start = 1e-6 * 3.3
    proc, log = call(env, fabric, start=start)
    env.run(until=proc)
    assert log["resp"] == ("echo", "ping") and served == ["ping"]
    # request: arrival, landing; handler: start, thread grant, service;
    # reply: arrival, landing, the caller's reply event
    assert log["events"] <= 8, log["events"]
    t0 = 0.0 + start
    assert log["done_at"] == hop(hop(t0, REQ) + SERVICE, RESP)
    assert (cli.messages_out, srv.messages_in, srv.messages_out, cli.messages_in) == (1, 1, 1, 1)
    env.run()
    assert env._seq - log["seq0"] == log["events"]  # nothing trails the reply


def test_back_to_back_requests_queue_on_the_pipes_in_posting_order():
    """Two requests posted at one instant share the sender's egress pipe and
    the receiver's ingress pipe FIFO, exactly as hop-by-hop transfers did."""
    env, fabric, _plane, _cli, _srv, _served = build(threads=2)
    done = {}

    def client(tag):
        yield from fabric.rpc("cli", "srv", tag, REQ)
        done[tag] = env.now

    env.process(client("a"))
    env.process(client("b"))
    env.run()
    tx_a = pipe(0.0, REQ)
    tx_b = pipe(0.0, REQ, free_at=tx_a)
    rx_a = pipe(tx_a + (LATENCY + 0.0), REQ)
    rx_b = pipe(tx_b + (LATENCY + 0.0), REQ, free_at=rx_a)
    # replies leave on idle pipes: the services end a full pipe slot apart
    assert done["a"] == hop(rx_a + SERVICE, RESP)
    assert done["b"] == hop(rx_b + SERVICE, RESP)


def test_dropped_request_resumes_nobody_and_is_counted_at_tx_done():
    env, fabric, plane, cli, srv, served = build()
    plane.set_channel("cli", "srv", ChannelFaults(drop=1.0))
    start = 1e-6 * 3.3
    proc, log = call(env, fabric, start=start)
    env.run(until=start)  # the client has posted the request
    tx_done = pipe(0.0 + start, REQ)
    assert env.peek() == tx_done and fabric.messages_dropped == 0
    env.run()
    assert env.now == tx_done  # serialisation was paid, then nothing
    assert fabric.messages_dropped == 1
    assert (cli.messages_out, srv.messages_in) == (1, 0)
    assert served == [] and not proc.triggered and "resp" not in log


def test_dropped_reply_is_counted_when_it_leaves_the_server():
    env, fabric, plane, _cli, srv, served = build()
    plane.set_channel("srv", "cli", ChannelFaults(drop=1.0))
    proc, _log = call(env, fabric, start=0.0)
    env.run()
    assert served == ["ping"] and not proc.triggered
    assert fabric.messages_dropped == 1 and srv.messages_out == 1
    assert env.now == pipe(hop(0.0, REQ) + SERVICE, RESP)


def test_duplicated_reply_resumes_the_caller_once():
    env, fabric, plane, cli, _srv, served = build()
    plane.set_channel("srv", "cli", ChannelFaults(dup=1.0))
    proc, log = call(env, fabric)
    env.run()  # triggering the one-shot reply event twice would raise
    assert proc.processed and log["resumes"] == 1
    assert served == ["ping"] and fabric.messages_duplicated == 1
    assert cli.messages_in == 1  # a duplicated reply does not pay ingress again


def test_duplicated_request_pays_ingress_again_and_is_served_twice():
    env, fabric, plane, _cli, srv, served = build(threads=2)
    plane.set_channel("cli", "srv", ChannelFaults(dup=1.0))
    proc, log = call(env, fabric, start=0.0)
    env.run()
    assert served == ["ping", "ping"] and srv.messages_in == 2
    assert fabric.messages_duplicated == 1
    assert log["resumes"] == 1  # the first reply wins, the second finds it gone
    first = hop(0.0, REQ)
    assert log["done_at"] == hop(first + SERVICE, RESP)
    assert srv.rx._free_at == first + REQ / BW  # second copy queued at landing


def test_send_completes_at_landing_or_at_tx_done_when_dropped():
    env, fabric, plane, _cli, _srv, _served = build()
    inbox = fabric.attach("sink").inbox
    at = []

    def sender():
        yield from fabric.send("cli", "sink", "one", REQ)
        at.append(env.now)
        plane.set_channel("cli", "sink", ChannelFaults(drop=1.0))
        yield from fabric.send("cli", "sink", "two", REQ)
        at.append(env.now)

    env.run(until=env.process(sender()))
    landed = hop(0.0, REQ)
    assert at == [landed, pipe(landed, REQ)]
    assert len(inbox) == 1 and fabric.messages_dropped == 1


def test_endpoint_without_a_handler_queues_into_its_inbox():
    env, fabric, _plane, _cli, _srv, _served = build()
    sink = fabric.attach("sink")

    def scenario():
        yield from fabric.send("cli", "sink", "queued", 128)
        assert len(sink.inbox) == 1  # no consumer yet: it waits in the inbox
        msg = yield sink.inbox.get()
        return msg.src, msg.dst, msg.payload, msg.size

    assert env.run(until=env.process(scenario())) == ("cli", "sink", "queued", 128)


def test_cancel_that_lands_before_admission_frees_the_queue_slot():
    """A one-thread data server: a filler holds the thread, a tied request
    queues behind it, its cancel lands while it waits.  At the grant the
    server drops it unserviced, so the probe behind it starts at once."""
    p = default_params().with_overrides(ds_threads=1)
    env = Environment(seed=p.seed)
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    ds = DataServer(env, fabric, 0, p)
    fabric.attach("cli")
    rid = ("cli", 1)
    done = {}

    def rpc(tag, delay, rid=None):
        yield env.timeout(delay)
        yield from fabric.rpc("cli", ds.name, ("write_unit", tag, b"x" * 64), 128, rid=rid)
        done[tag] = env.now

    def cancel():
        yield env.timeout(2e-6)
        yield from fabric.cancel("cli", ds.name, rid)
        done["cancel"] = env.now

    env.process(rpc("filler", 0.0))
    tied = env.process(rpc("tied", 1e-6, rid))
    env.process(cancel())
    env.process(rpc("probe", 3e-6))
    env.run()
    assert done["cancel"] < done["filler"]  # landed while "tied" was queued
    assert ds.cancel_drops == 1 and ds.writes == 2
    assert "tied" not in done and not tied.triggered  # dropped unanswered
    assert ds.threads.count == 0 and ds.threads.queue_len == 0
    # the probe's service starts the instant the filler's ends
    assert done["probe"] - done["filler"] == pytest.approx(p.ds_write_service, rel=1e-6)
