"""Property test: EC stripe I/O behaves like a plain byte array.

Random sequences of writes and reads through the full client-side-EC path
(encode, partial-stripe parity RMW, placement, data servers) must read back
exactly what a flat bytearray would — and every stripe must stay degradable
(any m losses recoverable) afterwards.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dfs import build_dfs
from repro.dfs.stripeio import StripeIO
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric

FILE_ID = 7
SPAN = 6 * 32768  # six stripes of RS(4,2) x 8K units


def build():
    env = Environment()
    p = default_params()
    fabric = Fabric(env, latency=1e-6, default_bandwidth=p.net_bandwidth)
    _mds, dataservers, layout = build_dfs(env, fabric, p)
    fabric.attach("c")
    sio = StripeIO(env, fabric, layout, p, "c")
    return env, dataservers, layout, sio


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # is_write
            st.integers(0, SPAN - 1),  # offset
            st.integers(1, 20000),  # length
            st.integers(0, 255),  # fill byte
        ),
        min_size=1,
        max_size=12,
    )
)
def test_stripeio_matches_bytearray_model(ops):
    env, dataservers, layout, sio = build()
    model = bytearray(SPAN)

    def scenario():
        for is_write, offset, length, fill in ops:
            length = min(length, SPAN - offset)
            if length <= 0:
                continue
            if is_write:
                data = bytes([fill]) * length
                yield from sio.write(FILE_ID, offset, data)
                model[offset : offset + length] = data
            else:
                got = yield from sio.read(FILE_ID, offset, length)
                assert got == bytes(model[offset : offset + length])
        # Full-span agreement.
        got = yield from sio.read(FILE_ID, 0, SPAN)
        assert got == bytes(model)

    env.run(until=env.process(scenario()))
    # Invariant: every touched stripe remains recoverable from any k shards.
    rs = layout.rs

    def degraded_check():
        for stripe in range(SPAN // layout.stripe_size):
            pl = layout.placement(FILE_ID, stripe)
            stored = [dataservers[loc.server].units.get(loc.key) for loc in pl.shards]
            if all(s is None for s in stored):
                continue  # never written
            payload = bytes(model[stripe * layout.stripe_size : (stripe + 1) * layout.stripe_size])
            # Knock out the first data shard and a parity shard.
            damaged = [
                None if i in (0, rs.k) else (stored[i] or bytes(layout.stripe_unit))
                for i in range(rs.k + rs.m)
            ]
            assert layout.decode_stripe(damaged) == payload
        yield from ()

    env.run(until=env.process(degraded_check()))


@pytest.mark.xfail(
    strict=True,
    reason="bug 8: two concurrent partial-stripe RMWs on one stripe both read the "
    "old parity and write their own delta, so one delta is lost",
)
def test_concurrent_rmws_on_one_stripe_keep_it_recoverable():
    env, dataservers, layout, sio = build()
    unit = layout.stripe_unit
    a, b = b"\xaa" * unit, b"\xbb" * unit

    def rmw(offset, data):
        yield from sio.write(FILE_ID, offset, data)

    env.run(until=env.all_of([env.process(rmw(0, a)), env.process(rmw(unit, b))]))

    def rebuild_unit0():
        # lose unit 0's server: rebuild it from the survivors
        dead = {layout.placement(FILE_ID, 0).shards[0].server}
        whole = yield from sio.read_degraded(FILE_ID, 0, dead)
        return whole[:unit], (yield from sio.read(FILE_ID, 0, 2 * unit))

    rebuilt, direct = env.run(until=env.process(rebuild_unit0()))
    assert direct == a + b  # the data units themselves are right
    assert rebuilt == a
