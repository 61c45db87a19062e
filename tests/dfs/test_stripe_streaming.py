"""Full-stripe writes stream through the endpoint's egress pipe.

A multi-stripe write charges and encodes one stripe at a time and posts its
unit writes once stripe ``i - TX_WINDOW`` has left the NIC, so the pipe never
holds more than two stripes of one write and a small stripe op posted
meanwhile waits behind at most two stripes per bulk write.  Both arms (fail-free
and under a retry policy) stream the same way.
"""

import pytest

from repro.dfs import build_dfs
from repro.dfs.dataserver import MSG_OVERHEAD
from repro.dfs.stripeio import TX_WINDOW, StorageUnavailable, StripeIO
from repro.fault.retry import RetryPolicy
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.network import Fabric

MiB = 1 << 20
ARMS = pytest.mark.parametrize(
    "retry", [None, RetryPolicy(timeout=1.0)], ids=["fail-free", "policy"]
)


def build(retry=None):
    env = Environment()
    p = default_params()
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    _mds, dataservers, layout = build_dfs(env, fabric, p)
    fabric.attach("c")
    sio = StripeIO(env, fabric, layout, p, "c", retry=retry)
    return env, p, fabric, dataservers, layout, sio


def stripe_bytes(layout):
    """Wire bytes of one full stripe's unit writes."""
    return (layout.rs.k + layout.rs.m) * (MSG_OVERHEAD + layout.stripe_unit)


def record_tx(env, fabric):
    """Log ``(size, posted at, tx-done)`` of every message endpoint ``c`` sends."""
    tx = fabric.endpoint("c").tx
    log = []
    reserve = tx.reserve

    def logged(nbytes):
        done = reserve(nbytes)
        log.append((nbytes, env.now, done))
        return done

    tx.reserve = logged
    return log


def payload(n):
    return bytes(range(256)) * (n // 256)


@ARMS
def test_a_1mib_write_keeps_at_most_two_stripes_in_the_tx_pipe(retry):
    env, p, fabric, _ds, layout, sio = build(retry)
    log = record_tx(env, fabric)
    data = payload(MiB)
    env.run(until=env.process(sio.write(1, 0, data)))
    queued = max((done - now) * p.net_bandwidth for _n, now, done in log)
    assert TX_WINDOW == 2
    assert queued <= 2 * stripe_bytes(layout) * (1 + 1e-9)
    assert len(log) == MiB // layout.stripe_size * (layout.rs.k + layout.rs.m)
    assert env.run(until=env.process(sio.read(1, 0, MiB))) == data


@ARMS
@pytest.mark.parametrize("bulk", [1, 2])
def test_an_rmw_started_during_bulk_writes_waits_two_stripes_per_write(retry, bulk):
    env, p, fabric, _ds, layout, sio = build(retry)
    log = record_tx(env, fabric)
    unit = layout.stripe_unit
    started = {}

    def rmw():
        yield env.timeout(1e-6)  # the bulk writes are streaming by now
        started["at"] = env.now
        yield from sio.write(99, unit, b"\x5a" * unit)

    procs = [env.process(sio.write(f, 0, payload(MiB))) for f in range(1, bulk + 1)]
    env.run(until=env.all_of(procs + [env.process(rmw())]))
    # the RMW's first round: 1 data unit + m parities read, header-only requests
    reads = [done for n, now, done in log if n == MSG_OVERHEAD and now >= started["at"]]
    first_round = reads[: 1 + layout.rs.m]
    stripe_time = stripe_bytes(layout) / p.net_bandwidth
    own_time = len(first_round) * MSG_OVERHEAD / p.net_bandwidth
    assert len(first_round) == 1 + layout.rs.m
    assert max(first_round) - started["at"] <= bulk * 2 * stripe_time + own_time + 1e-12


@pytest.mark.parametrize("stripes", [1, 3, 5])
def test_a_streamed_write_costs_one_event_per_window_wait(stripes):
    env, _p, _fabric, _ds, layout, sio = build()
    n = layout.rs.k + layout.rs.m

    def write():
        seq = env._seq
        yield from sio.write(1, 0, b"\x5a" * (stripes * layout.stripe_size))
        return env._seq - seq

    # 7 events per unit RPC, the countdown, and (no EC time here) one wait
    # for every stripe from the third on: its stripe i - 2 is still queued
    waits = max(0, stripes - TX_WINDOW)
    assert env.run(until=env.process(write())) == 7 * n * stripes + 1 + waits


def test_streaming_conserves_dpu_ec_busy_time():
    """Per-stripe EC charges add up to the one charge of the whole write."""
    env = Environment()
    p = default_params()
    dpu = CpuPool(env, p.dpu_cores, perf=p.dpu_perf, switch_cost=p.dpu_switch_cost)

    def ec(nbytes):
        yield from dpu.execute(p.ec_encode_per_4k * max(1, nbytes // 4096) * 0.3, tag="ec")

    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    _mds, _ds, layout = build_dfs(env, fabric, p)
    fabric.attach("c")
    sio = StripeIO(env, fabric, layout, p, "c", ec_charge=ec)
    env.run(until=env.process(sio.write(1, 0, payload(MiB))))
    expected = p.ec_encode_per_4k * (MiB // 4096) * 0.3 / p.dpu_perf
    assert dpu.busy_by_tag["ec"] == pytest.approx(expected, rel=1e-12)


@ARMS
@pytest.mark.parametrize("down", [2, 3], ids=["m-down", "m+1-down"])
def test_more_than_m_failed_units_per_stripe_fail_a_streamed_write(retry, down):
    env, _p, _fabric, dataservers, layout, sio = build(retry)
    assert len(dataservers) == layout.rs.k + layout.rs.m  # every stripe loses `down` units
    for ds in dataservers[:down]:
        ds.fail()
    data = payload(MiB)
    out = {}

    def write_then_read():
        try:
            yield from sio.write(1, 0, data)
        except StorageUnavailable as exc:
            out["error"] = str(exc)
            return
        out["read"] = yield from sio.read(1, 0, MiB)

    env.run(until=env.process(write_then_read()))
    if down > layout.rs.m:
        assert out["error"] == f"stripe 0: {down} shard writes failed (tolerates {layout.rs.m})"
    else:
        assert out == {"read": data}
