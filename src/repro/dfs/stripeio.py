"""Erasure-coded stripe I/O against the data servers.

Shared by everything that talks to data servers directly: the optimized
host fs-client, the DPC-offloaded client (both doing client-side EC + DIO),
and the MDS (server-side EC for the standard NFS path).  The caller supplies
the endpoint to issue RPCs from and a CPU-charge hook for the EC math, so
the *same* code path costs host cycles for the optimized client, DPU cycles
for DPC, and MDS service time for standard NFS — exactly the paper's point.

Semantics: units never written read as zeros (and the parity of an untouched
stripe is the parity of zeros, which is zeros — so read-modify-write against
missing units is consistent).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from ..ec import ReedSolomon, StripeLayout
from ..fault.requests import RequestConfig, RequestEngine
from ..fault.retry import RetryPolicy
from ..obsv.quantiles import NULL_HUB
from ..obsv.tracer import NULL_TRACER
from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.network import Fabric
from .dataserver import MSG_OVERHEAD, ds_name

__all__ = ["StripeIO", "StorageUnavailable"]

#: optional generator hook charging CPU for EC over ``nbytes``
EcCharge = Optional[Callable[[int], Generator]]

#: Stripes of one full-stripe write allowed in the endpoint's egress pipe at
#: once: stripe i is posted when stripe i - 2 has left it.  One stripe drains
#: while the next is encoded, so the NIC does not idle behind the EC math,
#: and a small stripe op posted meanwhile queues behind two stripes of each
#: bulk write, not all of them (Linux's TCP Small Queues bounds a bulk flow's
#: device backlog the same way).  A one-stripe window shares the NIC too
#: evenly among bulk writes: ``dfs_ec`` op p999 rose up to 14 %.
TX_WINDOW = 2


class StorageUnavailable(RuntimeError):
    """More shards lost than the EC geometry can tolerate."""


class StripeIO:
    """Direct-I/O engine for one client endpoint."""

    #: flight-recorder hook; builders replace this with a live tracer
    tracer = NULL_TRACER
    #: quantile-sketch hook; builders replace this with a live SketchHub
    sketches = NULL_HUB

    def __init__(
        self,
        env: Environment,
        fabric: Fabric,
        layout: StripeLayout,
        params: SystemParams,
        src: str,
        ec_charge: EcCharge = None,
        retry: Optional[RetryPolicy] = None,
        plane=None,
        degraded_reads: bool = True,
    ):
        self.env = env
        self.fabric = fabric
        self.layout = layout
        self.params = params
        self.src = src
        self.ec_charge = ec_charge
        #: per-RPC deadline + backoff policy; None = wait forever (fail-free)
        self.retry = retry
        self.plane = plane
        #: ablation switch: with False, a down data server fails the read
        #: instead of reconstructing from surviving shards
        self.degraded_reads = degraded_reads
        self._req = RequestEngine(
            env,
            fabric,
            src,
            retry,
            plane=plane,
            rng=env.substream(f"stripeio:{src}"),
            hub_fn=lambda: self.sketches,
            config=RequestConfig.from_params(params),
        )
        self.units_read = 0
        self.units_written = 0
        self.degraded_stripes = 0
        self.rebuilt_units = 0

    @property
    def retries(self) -> int:
        return self._req.retries

    # -- the unit fan-out ------------------------------------------------------
    def _post_unit(
        self, server: int, op: tuple, size: int, landed, hedge=None, posted=None
    ) -> None:
        """Post one unit RPC ``(server, op, size)`` now; ``landed(resp)`` runs
        with its reply, an ``("err", why)`` tuple if the unit failed.

        Fail-free the request goes out at once and its reply event calls
        back: no process.  Under a retry policy the unit is a
        :meth:`RequestEngine.call` process racing its deadline, retrying and
        hedging (``hedge`` builds its hedge path); a server that stays
        silent through the whole budget replies ``("err", "ETIMEDOUT")``, so
        degraded reads treat it like one that answered "down".
        ``posted(t)`` hears the instant the request leaves the endpoint's
        egress pipe: at once fail-free, later this instant under a policy.
        """
        dst = ds_name(server)
        t0 = self.env.now
        span = self.tracer.span("ds.rpc", track="net", dst=dst, op=str(op[0]))
        if self.retry is None:
            self._req.stat(dst).attempts += 1
            reply = self.fabric.request(self.src, dst, op, size, posted=posted)
        else:
            reply = self.env.process(self._req.call(
                dst, op, size, op_label=op[0], on_exhausted="return",
                exhausted_value=("err", "ETIMEDOUT"), hedge_gen=hedge, posted=posted,
            ))  # fmt: skip

        def settle(event: Event) -> None:
            if not event.ok:
                raise event.value
            span.finish()
            resp = event.value
            self.sketches.observe("ds.rpc", self.env.now - t0)
            if not self._is_err(resp):
                if op[0] == "read_unit":
                    self.units_read += 1
                else:
                    self.units_written += 1
            landed(resp)

        reply.callbacks.append(settle)

    def _fan_out(
        self, calls: list[tuple[int, tuple, int]], strict: bool = False, hedges=None
    ) -> Generator[Event, None, list]:
        """Issue unit RPCs ``(server, op, size)`` in parallel; returns their
        replies in order, an ``("err", why)`` tuple for each failed unit.

        Every unit is posted now (:meth:`_post_unit`) and one countdown
        event wakes the caller when the last reply lands; ``hedges[i]``
        builds unit ``i``'s hedge path.  ``strict`` fails the fan-out with
        :class:`StorageUnavailable` as soon as any unit fails.
        """
        if not calls:
            return []
        replies: list = [None] * len(calls)
        done = Event(self.env)
        left = len(calls)
        for i, (server, op, size) in enumerate(calls):

            def landed(resp, i=i, server=server) -> None:
                nonlocal left
                replies[i] = resp
                left -= 1
                if done.triggered:
                    return
                if strict and self._is_err(resp):
                    done.fail(StorageUnavailable(f"ds{server}: {resp[1]}"))
                elif not left:
                    done.succeed(replies)

            self._post_unit(server, op, size, landed, hedges and hedges[i])
        return (yield done)

    @staticmethod
    def _is_err(resp) -> bool:
        return isinstance(resp, tuple) and len(resp) == 2 and resp[0] == "err"

    def _read_units(
        self, locs: list, hedges=None
    ) -> Generator[Event, None, list[tuple[bool, object]]]:
        """Read shard locations in parallel: ``(True, data)`` per unit read
        (zeros if never written), ``(False, server)`` per server down."""
        replies = yield from self._fan_out(
            [(loc.server, ("read_unit", loc.key), MSG_OVERHEAD) for loc in locs],
            hedges=hedges,
        )
        zeros = bytes(self.layout.stripe_unit)
        return [
            (False, loc.server) if self._is_err(r) else (True, zeros if r is None else r)
            for loc, r in zip(locs, replies)
        ]

    def _write_units(
        self, writes: list[tuple[int, str, bytes]], strict: bool = False
    ) -> Generator[Event, None, list[bool]]:
        """Write ``(server, key, data)`` units in parallel; True per unit
        written.  ``strict`` raises at the first unit that fails."""
        replies = yield from self._fan_out(
            [(server, ("write_unit", key, data), MSG_OVERHEAD + len(data))
             for server, key, data in writes],
            strict=strict,
        )  # fmt: skip
        return [not self._is_err(r) for r in replies]

    def _degraded_unit_hedge(self, file_id: int, stripe: int, shard_idx: int, server: int):
        """Hedge factory: reconstruct the unit via an EC-degraded read of
        its stripe instead of waiting on the slow/dead home server."""
        unit = self.layout.stripe_unit

        def factory():
            def _gen():
                whole = yield from self.read_degraded(file_id, stripe, {server})
                return whole[shard_idx * unit : (shard_idx + 1) * unit]
            return _gen()

        return factory

    def _charge_ec(self, nbytes: int) -> Generator[Event, None, None]:
        if self.ec_charge is not None:
            yield from self.ec_charge(nbytes)

    # -- reads -------------------------------------------------------------------
    def read(self, file_id: int, offset: int, length: int) -> Generator[Event, None, bytes]:
        """Systematic read: fetch only the data units the range touches.

        A unit whose server is down is reconstructed from the surviving
        shards of its stripe (degraded read) — transparent to the caller as
        long as no stripe lost more than ``m`` shards.
        """
        if length <= 0:
            return b""
        t0 = self.env.now
        with self.tracer.span("stripe.read", track="dfs", length=length):
            data = yield from self._read_striped(file_id, offset, length)
        self.sketches.observe("stripe.read", self.env.now - t0)
        return data

    def _read_striped(
        self, file_id: int, offset: int, length: int
    ) -> Generator[Event, None, bytes]:
        lay = self.layout
        unit = lay.stripe_unit
        locs, hedges = [], []
        spans: list[tuple[int, int, int, int]] = []  # (stripe, shard, lo, hi)
        pos = offset
        end = offset + length
        while pos < end:
            stripe = lay.stripe_of(pos)
            in_stripe = pos - stripe * lay.stripe_size
            shard_idx = in_stripe // unit
            u_file_off = stripe * lay.stripe_size + shard_idx * unit
            lo = pos - u_file_off
            hi = min(end - u_file_off, unit)
            loc = lay.placement(file_id, stripe).shards[shard_idx]
            locs.append(loc)
            hedges.append(
                self._degraded_unit_hedge(file_id, stripe, shard_idx, loc.server)
                if self._req.config.hedging and self.degraded_reads
                else None
            )
            spans.append((stripe, shard_idx, lo, hi))
            pos = u_file_off + hi
        results = yield from self._read_units(locs, hedges)
        # Degraded fallback for any unit whose server answered EHOSTDOWN.
        out: list[bytes] = []
        degraded_cache: dict[int, bytes] = {}
        for (ok, payload), (stripe, shard_idx, lo, hi) in zip(results, spans):
            if ok:
                out.append(payload[lo:hi])
                continue
            if not self.degraded_reads:
                raise StorageUnavailable(
                    f"ds{payload} down and degraded reads are disabled"
                )
            if stripe not in degraded_cache:
                degraded_cache[stripe] = yield from self.read_degraded(
                    file_id, stripe, {payload}
                )
            base = shard_idx * unit
            out.append(degraded_cache[stripe][base + lo : base + hi])
        return b"".join(out)

    def read_degraded(
        self, file_id: int, stripe: int, dead_servers: set[int]
    ) -> Generator[Event, None, bytes]:
        """Reconstruct a whole stripe's payload despite dead servers.

        Servers that turn out to be down mid-read are tolerated too; raises
        :class:`StorageUnavailable` once fewer than ``k`` shards survive.
        """
        lay = self.layout
        shards = yield from self._read_survivors(file_id, stripe, dead_servers)
        yield from self._charge_ec(lay.stripe_size)
        self.degraded_stripes += 1
        if self.plane is not None:
            self.plane.record("degraded-read", self.src, f"f{file_id}:s{stripe}")
        return lay.decode_stripe(shards)

    def _read_survivors(
        self, file_id: int, stripe: int, dead_servers: set[int]
    ) -> Generator[Event, None, list[Optional[bytes]]]:
        """The stripe's shards read from every server not known dead (None
        where a server is down); raises unless at least ``k`` arrive."""
        lay = self.layout
        live = [loc for loc in lay.placement(file_id, stripe).shards
                if loc.server not in dead_servers]  # fmt: skip
        results = yield from self._read_units(live)
        shards: list[Optional[bytes]] = [None] * (lay.rs.k + lay.rs.m)
        for loc, (ok, payload) in zip(live, results):
            if ok:
                shards[loc.shard_index] = payload
        alive = len(shards) - shards.count(None)
        if alive < lay.rs.k:
            raise StorageUnavailable(
                f"stripe {stripe}: only {alive} of {lay.rs.k} required shards reachable"
            )
        return shards

    # -- background reconstruction ---------------------------------------------
    def rebuild_stripe(
        self,
        file_id: int,
        stripe: int,
        dead_servers: set[int],
        replacement: Optional[int] = None,
    ) -> Generator[Event, None, int]:
        """Reconstruct one stripe's lost shards and write them back out.

        Survivors are read, the stripe is decoded and re-encoded, and every
        shard homed on a dead server is rewritten — onto ``replacement``
        (a server index) when given, else onto the shard's original home
        (which must have recovered, e.g. after a data-losing crash).
        Returns the number of units rebuilt.
        """
        lay = self.layout
        pl = lay.placement(file_id, stripe)
        shards = yield from self._read_survivors(file_id, stripe, dead_servers)
        missing = [
            loc for loc in pl.shards if loc.server in dead_servers or shards[loc.shard_index] is None
        ]
        if not missing:
            return 0
        yield from self._charge_ec(lay.stripe_size)
        units = lay.encode_stripe(lay.decode_stripe(shards))
        yield from self._write_units(
            [
                (loc.server if replacement is None else replacement, loc.key,
                 units[loc.shard_index])
                for loc in missing
            ],
            strict=True,
        )  # fmt: skip
        self.rebuilt_units += len(missing)
        if self.plane is not None:
            self.plane.record(
                "rebuild", self.src, f"f{file_id}:s{stripe}x{len(missing)}"
            )
        return len(missing)

    def rebuild_file(
        self,
        file_id: int,
        nbytes: int,
        dead_servers: set[int],
        replacement: Optional[int] = None,
    ) -> Generator[Event, None, int]:
        """Background reconstruction sweep over every affected stripe."""
        lay = self.layout
        n_stripes = (nbytes + lay.stripe_size - 1) // lay.stripe_size
        total = 0
        for stripe in range(n_stripes):
            pl = lay.placement(file_id, stripe)
            if any(loc.server in dead_servers for loc in pl.shards):
                total += yield from self.rebuild_stripe(
                    file_id, stripe, dead_servers, replacement
                )
        return total

    # -- writes --------------------------------------------------------------------
    def write(self, file_id: int, offset: int, data: bytes) -> Generator[Event, None, None]:
        """EC write: full-stripe encode, or parity RMW for partial stripes.

        The write is striped up front.  Its full stripes stream: each is
        encoded and its unit writes posted as soon as the NIC has room for
        it (:data:`TX_WINDOW`), without waiting for earlier stripes'
        replies; the partial stripes' RMWs run alongside.  A multi-stripe
        write pays one network round trip, not one per stripe.
        """
        if not data:
            return
        t0 = self.env.now
        with self.tracer.span("stripe.write", track="dfs", length=len(data)):
            yield from self._write_striped(file_id, offset, data)
        self.sketches.observe("stripe.write", self.env.now - t0)

    def _write_striped(
        self, file_id: int, offset: int, data: bytes
    ) -> Generator[Event, None, None]:
        lay = self.layout
        full: list[tuple[int, bytes]] = []  # (stripe, payload)
        gens = []
        pos = offset
        end = offset + len(data)
        while pos < end:
            stripe = lay.stripe_of(pos)
            s_start = stripe * lay.stripe_size
            s_end = s_start + lay.stripe_size
            lo = pos
            hi = min(end, s_end)
            chunk = data[lo - offset : hi - offset]
            if lo == s_start and hi == s_end:
                full.append((stripe, chunk))
            else:
                gens.append(self._write_partial_stripe(file_id, stripe, lo - s_start, chunk))
            pos = hi
        if full:
            gens.append(self._write_full_stripes(file_id, full))
        if len(gens) == 1:
            yield from gens[0]
            return
        # Stripes (not units) in parallel: each one is a fan-out of its own.
        procs = [self.env.process(g) for g in gens]
        cur = self.tracer.current()
        if cur is not None:
            for p in procs:
                self.tracer.bind(p, cur)
        yield self.env.all_of(procs)

    def _write_full_stripes(
        self, file_id: int, stripes: list[tuple[int, bytes]]
    ) -> Generator[Event, None, None]:
        """Stream full stripes out: charge one stripe's EC, encode it, post
        its unit writes once stripe ``i - TX_WINDOW`` has left the egress
        pipe, then the next stripe; wait for every reply at the end.  A
        stripe that lost more than ``m`` unit writes fails the write."""
        lay = self.layout
        env = self.env
        n = lay.rs.k + lay.rs.m
        failed = dict.fromkeys((stripe for stripe, _ in stripes), 0)
        left = len(stripes) * n
        done = Event(env)
        sent: list[float] = []  # tx-done instant of each unit, in post order
        need = 0  # units that must have been posted before the next stripe
        waiter: Optional[Event] = None

        def landed(resp, stripe: int) -> None:
            nonlocal left
            failed[stripe] += self._is_err(resp)
            left -= 1
            if not left:
                done.succeed()

        def posted(t: float) -> None:
            sent.append(t)
            if waiter is not None and len(sent) == need:
                waiter.succeed()

        for i, (stripe, payload) in enumerate(stripes):
            yield from self._charge_ec(len(payload))
            units = lay.encode_stripe(payload)
            need = (i - TX_WINDOW + 1) * n
            if need > 0:
                if len(sent) < need:  # a policy's unit processes post later
                    waiter = Event(env)
                    yield waiter
                    waiter = None
                if sent[need - 1] > env.now:
                    yield env.at(sent[need - 1])
            for loc in lay.placement(file_id, stripe).shards:
                data = units[loc.shard_index]
                self._post_unit(
                    loc.server, ("write_unit", loc.key, data), MSG_OVERHEAD + len(data),
                    lambda resp, stripe=stripe: landed(resp, stripe), posted=posted,
                )  # fmt: skip
        yield done
        for stripe, nfail in failed.items():
            if nfail > lay.rs.m:
                raise StorageUnavailable(
                    f"stripe {stripe}: {nfail} shard writes failed (tolerates {lay.rs.m})"
                )

    def _write_partial_stripe(
        self, file_id: int, stripe: int, offset_in_stripe: int, chunk: bytes
    ) -> Generator[Event, None, None]:
        lay = self.layout
        rs: ReedSolomon = lay.rs
        unit = lay.stripe_unit
        pl = lay.placement(file_id, stripe)
        first_u = offset_in_stripe // unit
        last_u = (offset_in_stripe + len(chunk) - 1) // unit
        touched = list(range(first_u, last_u + 1))
        # Read old data units + old parities in parallel.
        locs = [pl.shards[u] for u in touched] + list(pl.shards[rs.k :])
        old = yield from self._read_units(locs)
        if any(not ok for ok, _ in old):
            # Degraded RMW: rebuild the whole stripe from survivors, apply
            # the modification, and rewrite it full-stripe (writes to the
            # dead server are dropped; parity keeps the stripe recoverable).
            dead = {payload for ok, payload in old if not ok}
            whole = bytearray((yield from self.read_degraded(file_id, stripe, dead)))
            whole[offset_in_stripe : offset_in_stripe + len(chunk)] = chunk
            yield from self._write_full_stripes(file_id, [(stripe, bytes(whole))])
            return
        old_units = [payload for _ok, payload in old[: len(touched)]]
        parities = [payload for _ok, payload in old[len(touched) :]]
        # Compose the new units and fold each delta into the parities.
        yield from self._charge_ec(len(chunk) * (1 + rs.m))
        new_units = []
        for u, old_u in zip(touched, old_units):
            u_start = u * unit
            lo = max(offset_in_stripe, u_start)
            hi = min(offset_in_stripe + len(chunk), u_start + unit)
            buf = bytearray(old_u)
            buf[lo - u_start : hi - u_start] = chunk[lo - offset_in_stripe : hi - offset_in_stripe]
            new_u = bytes(buf)
            parities = rs.update_parity(u, old_u, new_u, parities)
            new_units.append(new_u)
        # Write new data units + parities in parallel.
        yield from self._write_units(
            [(loc.server, loc.key, u) for loc, u in zip(locs, new_units + parities)],
            strict=True,
        )
