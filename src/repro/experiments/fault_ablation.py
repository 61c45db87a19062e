"""Fault ablation: availability and tail latency under injected failures.

Not a paper figure — this quantifies what the fault plane's recovery
mechanisms (EC degraded reads, RPC timeouts + idempotent retries) buy on
the DFS read path when a data server is lost mid-workload:

* ``healthy`` — no faults: the baseline p50/p99 and goodput.
* ``no-recovery`` — one data server fail-stops a third of the way in and
  degraded reads are *disabled*: every read touching the dead server's
  units errors out, so availability drops below 1.
* ``degraded`` — same fail-stop, degraded reads on: reads touching the
  dead server reconstruct from any k survivors.  Availability returns to
  1.0; the reconstruction cost shows up in the tail.
* ``full`` — the server *silent-crashes* (drops requests instead of
  answering EHOSTDOWN) and later restarts, plus a lossy client fabric;
  RPC deadlines + exponential-backoff retries with idempotency tokens are
  enabled.  Timeout exhaustion surfaces the silent server to the degraded
  path, so availability stays 1.0 at a higher tail.

Every failure and recovery action is a costed simulated-clock event, and
the whole schedule replays bit-identically from ``params.seed``.
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_host_dfs_clients
from ..dfs.mds import DFS_ROOT_INO
from ..fault import ChannelFaults
from ..metrics.stats import LatencyRecorder, ResultTable
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams, default_params
from ..workload.runner import IO_ERRORS

__all__ = ["run", "VARIANTS", "_run_variant"]

VARIANTS = ("healthy", "no-recovery", "degraded", "full")

#: stripes pre-written before the measured read phase
NSTRIPES = 24
BLOCK = 8192


def _run_variant(
    variant: str,
    params: Optional[SystemParams],
    nthreads: int,
    ops_per_thread: int,
    on_testbed=None,
) -> tuple:
    p = params or default_params()
    if variant == "full":
        # Deadline + retry budget only for the variant that needs them:
        # the others measure what happens *without* client-side recovery.
        p = p.with_overrides(rpc_timeout=400e-6)
    tb = build_host_dfs_clients(p, degraded_reads=variant != "no-recovery")
    if on_testbed is not None:
        # SLO-engine hook: lets callers attach burn-rate evaluators to the
        # testbed's sketch hub before the workload starts.
        on_testbed(variant, tb)
    env, client, plane = tb.env, tb.opt_client, tb.fault_plane
    stripe = tb.layout.stripe_size

    def prep():
        attr = yield from client.create(DFS_ROOT_INO, b"f")
        for s in range(NSTRIPES):
            yield from client.write(attr.ino, s * stripe, bytes([s & 0xFF]) * stripe)
        yield from client.flush_metadata()
        return attr.ino

    ino = tb.run_until(prep())

    total = nthreads * ops_per_thread
    done = [0]
    errors = [0]
    victim = tb.dataservers[1]

    if variant == "full":
        # Lossy fabric on every client-facing channel (requests and replies).
        faults = ChannelFaults(drop=0.005)
        plane.set_channel(client.src, None, faults)
        plane.set_channel(None, client.src, faults)

    if variant != "healthy":

        def saboteur():
            # Strike a third of the way through the measured read phase.
            while done[0] < total // 3:
                yield env.timeout(50e-6)
            if variant == "full":
                victim.crash()  # silent: requests vanish, clients must time out
                plane.record("crash", victim.name)
                yield env.timeout(p.ds_restart_delay * 4)
                yield from victim.restart()
                plane.record("restart", victim.name)
            else:
                victim.fail()  # fail-stop: EHOSTDOWN replies
                plane.record("fail", victim.name)

        env.process(saboteur(), name="saboteur")

    lat = LatencyRecorder()
    span = NSTRIPES * stripe

    tracer = tb.tracer or NULL_TRACER
    sketches = tb.sketches or NULL_HUB

    def reader(tid: int):
        rng = env.substream(f"fault-ablation:t{tid}")
        for _ in range(ops_per_thread):
            off = rng.randrange(span // BLOCK) * BLOCK
            expect = bytes([(off // stripe) & 0xFF]) * BLOCK
            t0 = env.now
            with tracer.span("op.read", track="client", parent=None, tid=tid):
                try:
                    data = yield from client.read(ino, off, BLOCK)
                    if data != expect:
                        errors[0] += 1
                except IO_ERRORS:
                    errors[0] += 1
            lat.add(env.now - t0)
            sketches.observe("client.read", env.now - t0)
            done[0] += 1

    started = env.now
    procs = [env.process(reader(t), name=f"fault-t{t}") for t in range(nthreads)]
    env.run(until=env.all_of(procs))
    elapsed = env.now - started

    ok = total - errors[0]
    summary = lat.summary()
    snap = tb.registry.snapshot()
    retries = snap.get("dfs.opt.retries", 0) + snap.get("dfs.opt.stripe.retries", 0)
    return (
        variant,
        ok / total,
        summary["p50"] * 1e6,
        summary["p99"] * 1e6,
        ok / elapsed if elapsed > 0 else 0.0,
        retries,
        snap.get("dfs.opt.stripe.degraded_stripes", 0),
        errors[0],
    )


def run(
    params: Optional[SystemParams] = None,
    nthreads: int = 8,
    ops_per_thread: int = 25,
    variants=VARIANTS,
) -> ResultTable:
    """Availability / tail-latency table across the recovery ablation."""
    table = ResultTable(
        "Fault ablation: 8K random DFS reads, one data server lost mid-run",
        [
            "variant",
            "availability",
            "p50_us",
            "p99_us",
            "goodput_iops",
            "retries",
            "degraded_stripes",
            "errors",
        ],
    )
    for variant in variants:
        table.add_row(*_run_variant(variant, params, nthreads, ops_per_thread))
    table.note(
        "availability = successful bit-exact reads / issued reads; "
        "goodput counts successes only"
    )
    return table
