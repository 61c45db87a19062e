"""The kernel's event diet: absolute-time events, exact pipe reservations and
no end event for a process nobody watches.  Counts and instants only — no
wall clock, except the profiler's own attribution floor."""

import pytest

from repro.core.testbeds import build_host_dfs_clients
from repro.dfs.mds import DFS_ROOT_INO
from repro.obsv.profiler import SimProfiler
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.resources import TokenBucket
from repro.workload.runner import ClientTarget, JobSpec, run_job


# -- Environment.at -----------------------------------------------------------------------


def test_at_fires_at_exactly_the_given_float():
    env = Environment()
    when = 0.1 + 0.2  # 0.30000000000000004: not what 0.3 rounds to
    seen = []
    env.at(when).callbacks.append(lambda ev: seen.append(env.now))
    env.run()
    assert seen == [when]


def test_at_orders_equal_instants_by_creation_and_mixes_with_timeouts():
    env = Environment()
    order = []
    env.at(5.0, "a").callbacks.append(lambda ev: order.append(ev.value))
    env.timeout(5.0, "b").callbacks.append(lambda ev: order.append(ev.value))
    env.at(5.0, "c").callbacks.append(lambda ev: order.append(ev.value))
    env.at(4.0, "first").callbacks.append(lambda ev: order.append(ev.value))
    env.run()
    assert order == ["first", "a", "b", "c"]


def test_at_rejects_the_past_and_can_be_yielded_on():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        with pytest.raises(ValueError):
            env.at(1.0)
        got = yield env.at(3.5, "late")
        return got, env.now

    assert env.run(until=env.process(proc())) == ("late", 3.5)


# -- TokenBucket.reserve ------------------------------------------------------------------


def _fires_at(env, event):
    out = []
    event.callbacks.append(lambda ev: out.append(env.now))
    return out


@pytest.mark.parametrize("start", [0.0, 0.1 + 0.2, 1e-6 * 3.3])
def test_reserve_returns_the_float_a_transfer_fires_at(start):
    """Idle, then backlogged: two identical pipes, one reserved and one
    transferred on, stay in lock step to the last bit."""
    env = Environment(initial_time=start)
    rate = 12.5e9
    a, b = TokenBucket(env, rate), TokenBucket(env, rate)
    fired, reserved = [], []
    for nbytes in (8256, 64, 1 << 20, 4097):  # each queues behind the one before
        fired.append(_fires_at(env, a.transfer(nbytes)))
        reserved.append(b.reserve(nbytes))
    # the timeout arithmetic of the event-per-hop model, spelled out
    free_at, expect = 0.0, []
    for nbytes in (8256, 64, 1 << 20, 4097):
        free_at = max(start, free_at) + nbytes / rate
        expect.append(start + (free_at - start))
    env.run()
    assert [f[0] for f in fired] == reserved == expect
    assert a.bytes_total == b.bytes_total and a._free_at == b._free_at

    # ...and again from a later instant, pipe idle once more
    env.run(until=env.now + 1.0)
    t = _fires_at(env, a.transfer(512))
    r = b.reserve(512)
    env.run()
    assert t == [r]


# -- a process nobody watches -------------------------------------------------------------


def test_unwatched_process_end_schedules_nothing():
    env = Environment()

    def quiet():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(quiet())
    env.run(until=0.5)
    seq_parked = env._seq  # start + timeout scheduled, nothing else to come
    env.run()
    assert env._seq == seq_parked
    assert proc.processed and proc.ok and proc.value == "done"
    assert env.peek() == float("inf")


def test_finished_unwatched_process_can_be_yielded_on_later():
    env = Environment()

    def early():
        yield env.timeout(1.0)
        return "early value"

    done = env.process(early())

    def late():
        yield env.timeout(2.0)
        assert done.processed
        first = yield done
        both = yield env.all_of([done, env.timeout(0.5)])
        return first, both[done], env.now

    assert env.run(until=env.process(late())) == ("early value", "early value", 2.5)


def test_unwatched_process_that_raises_still_aborts_the_run():
    env = Environment()

    def boom():
        yield env.timeout(1.0)
        raise RuntimeError("nobody is watching")

    def bystander():
        while True:
            yield env.timeout(0.25)

    env.process(boom())
    env.process(bystander())
    with pytest.raises(RuntimeError, match="nobody is watching"):
        env.run(until=10.0)
    assert env.now == 1.0


# -- the profiled loop --------------------------------------------------------------------


def _dfs_job(profiled: bool):
    """A small full-system run: DFS client, MDS, six data servers, EC."""
    tb = build_host_dfs_clients(default_params())
    stripe = tb.layout.stripe_size
    prof = SimProfiler().install(tb.env) if profiled else None
    if prof:
        prof.start()

    def prep():
        attr = yield from tb.opt_client.create(DFS_ROOT_INO, b"f")
        for s in range(12):
            yield from tb.opt_client.write(attr.ino, s * stripe, b"\x5a" * stripe)
        yield from tb.opt_client.flush_metadata()
        return attr.ino

    ino = tb.run_until(prep())
    spec = JobSpec(name="p", mode="randrw", block_size=8192, nthreads=4,
                   ops_per_thread=24, file_size=12 * stripe, seed=None)  # fmt: skip
    res = run_job(tb.env, spec, lambda tid: ClientTarget(tb.opt_client, ino))
    if prof:
        prof.stop()
        prof.uninstall()
    return tb.env, res, prof


def test_profiler_sees_every_event_of_the_inlined_loop():
    env, res, prof = _dfs_job(profiled=True)
    plain_env, plain, _ = _dfs_job(profiled=False)
    # same simulation with and without the profiler, event for event
    assert (env.now, env._seq, res.elapsed) == (plain_env.now, plain_env._seq, plain.elapsed)
    rep = prof.report()
    assert rep["events"] == env._seq - len(env._queue)  # every pop went through step()
    assert rep["callbacks"] == sum(row["calls"] for row in rep["sites"])
    sites = {row["site"] for row in rep["sites"]}
    assert "Process:dsN-req" in sites  # handlers spawned by the endpoint keep their name
    assert any("Fabric._walk" in s for s in sites)  # the walk's callbacks are attributed


def test_profiler_attribution_floor_on_a_full_system_run():
    # The design bar is >= 90 % of stepped wall clock attributed to a site or
    # to the kernel.  Wall clock: take the best of five against scheduler noise.
    best = max(_dfs_job(profiled=True)[2].report()["coverage"] for _ in range(5))
    assert best >= 0.9, best
