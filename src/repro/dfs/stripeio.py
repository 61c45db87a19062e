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

    # -- plumbing --------------------------------------------------------------
    def _ds_call(
        self, server: int, op: tuple, size: int, hedge_gen=None
    ) -> Generator[Event, None, object]:
        """RPC to a data server under the retry policy.

        A server that stays silent through the whole retry budget is
        indistinguishable from one that answered "down": the exhausted
        budget surfaces as an ``("err", "ETIMEDOUT")`` reply so the EC
        degraded-read machinery treats both identically.
        """
        t0 = self.env.now
        with self.tracer.span("ds.rpc", track="net", dst=ds_name(server), op=str(op[0])):
            resp = yield from self._req.call(
                ds_name(server),
                op,
                size,
                op_label=op[0],
                on_exhausted="return",
                exhausted_value=("err", "ETIMEDOUT"),
                hedge_gen=hedge_gen,
            )
        self.sketches.observe("ds.rpc", self.env.now - t0)
        return resp

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

    def _parallel(self, gens: list) -> Generator[Event, None, list]:
        procs = [self.env.process(g) for g in gens]
        if not procs:
            return []
        # Seed each spawned process's span stack so the per-unit RPC spans
        # nest under the stripe span instead of becoming orphan roots.
        cur = self.tracer.current()
        if cur is not None:
            for p in procs:
                self.tracer.bind(p, cur)
        results = yield self.env.all_of(procs)
        return [results[p] for p in procs]

    @staticmethod
    def _is_err(resp) -> bool:
        return isinstance(resp, tuple) and len(resp) == 2 and resp[0] == "err"

    def _read_unit_safe(
        self, server: int, key: str, hedge_gen=None
    ) -> Generator[Event, None, tuple[bool, object]]:
        """(True, data) on success; (False, server) if the server is down."""
        data = yield from self._ds_call(
            server, ("read_unit", key), MSG_OVERHEAD, hedge_gen=hedge_gen
        )
        if self._is_err(data):
            return False, server
        self.units_read += 1
        return True, data if data is not None else bytes(self.layout.stripe_unit)

    def _write_unit(self, server: int, key: str, data: bytes) -> Generator[Event, None, None]:
        resp = yield from self._ds_call(
            server, ("write_unit", key, data), MSG_OVERHEAD + len(data)
        )
        if self._is_err(resp):
            raise StorageUnavailable(f"ds{server}: {resp[1]}")
        self.units_written += 1

    def _write_unit_safe(
        self, server: int, key: str, data: bytes
    ) -> Generator[Event, None, bool]:
        resp = yield from self._ds_call(
            server, ("write_unit", key, data), MSG_OVERHEAD + len(data)
        )
        if self._is_err(resp):
            return False
        self.units_written += 1
        return True

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
        gens = []
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
            hedge = None
            if self._req.config.hedging and self.degraded_reads:
                hedge = self._degraded_unit_hedge(
                    file_id, stripe, shard_idx, loc.server
                )
            gens.append(self._read_unit_safe(loc.server, loc.key, hedge_gen=hedge))
            spans.append((stripe, shard_idx, lo, hi))
            pos = u_file_off + hi
        results = yield from self._parallel(gens)
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
        pl = lay.placement(file_id, stripe)
        gens, slots = [], []
        for loc in pl.shards:
            if loc.server not in dead_servers:
                gens.append(self._read_unit_safe(loc.server, loc.key))
                slots.append(loc.shard_index)
        results = yield from self._parallel(gens)
        shards: list[Optional[bytes]] = [None] * (lay.rs.k + lay.rs.m)
        alive = 0
        for idx, (ok, payload) in zip(slots, results):
            if ok:
                shards[idx] = payload
                alive += 1
        if alive < lay.rs.k:
            raise StorageUnavailable(
                f"stripe {stripe}: only {alive} of {lay.rs.k} required shards reachable"
            )
        yield from self._charge_ec(lay.stripe_size)
        self.degraded_stripes += 1
        if self.plane is not None:
            self.plane.record("degraded-read", self.src, f"f{file_id}:s{stripe}")
        return lay.decode_stripe(shards)

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
        gens, slots = [], []
        for loc in pl.shards:
            if loc.server not in dead_servers:
                gens.append(self._read_unit_safe(loc.server, loc.key))
                slots.append(loc.shard_index)
        results = yield from self._parallel(gens)
        shards: list[Optional[bytes]] = [None] * (lay.rs.k + lay.rs.m)
        alive = 0
        for idx, (ok, payload) in zip(slots, results):
            if ok:
                shards[idx] = payload
                alive += 1
        if alive < lay.rs.k:
            raise StorageUnavailable(
                f"stripe {stripe}: only {alive} of {lay.rs.k} required shards reachable"
            )
        missing = [
            loc for loc in pl.shards if loc.server in dead_servers or shards[loc.shard_index] is None
        ]
        if not missing:
            return 0
        yield from self._charge_ec(lay.stripe_size)
        units = lay.encode_stripe(lay.decode_stripe(shards))
        writes = []
        for loc in missing:
            target = replacement if replacement is not None else loc.server
            writes.append(self._write_unit(target, loc.key, units[loc.shard_index]))
        yield from self._parallel(writes)
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

        The write is striped up front and issued as one batched fan-out:
        every unit write of every full stripe goes out in a single parallel
        round (per-stripe failure accounting preserved), with the partial
        stripes' RMWs running alongside — a multi-stripe write no longer
        pays one network round-trip *per stripe*.
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
        else:
            yield from self._parallel(gens)

    def _write_full_stripes(
        self, file_id: int, stripes: list[tuple[int, bytes]]
    ) -> Generator[Event, None, None]:
        """Encode + write a batch of full stripes in one parallel fan-out."""
        lay = self.layout
        yield from self._charge_ec(sum(len(p) for _, p in stripes))
        gens = []
        spans: list[int] = []  # owning stripe of each unit write
        for stripe, payload in stripes:
            units = lay.encode_stripe(payload)
            pl = lay.placement(file_id, stripe)
            for loc in pl.shards:
                gens.append(self._write_unit_safe(loc.server, loc.key, units[loc.shard_index]))
                spans.append(stripe)
        results = yield from self._parallel(gens)
        failures: dict[int, int] = {}
        for stripe, ok in zip(spans, results):
            if not ok:
                failures[stripe] = failures.get(stripe, 0) + 1
        for stripe, n in failures.items():
            if n > lay.rs.m:
                raise StorageUnavailable(
                    f"stripe {stripe}: {n} shard writes failed (tolerates {lay.rs.m})"
                )

    def _write_full_stripe(
        self, file_id: int, stripe: int, payload: bytes
    ) -> Generator[Event, None, None]:
        yield from self._write_full_stripes(file_id, [(stripe, payload)])

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
        gens = [
            self._read_unit_safe(pl.shards[u].server, pl.shards[u].key) for u in touched
        ]
        gens += [
            self._read_unit_safe(pl.shards[rs.k + j].server, pl.shards[rs.k + j].key)
            for j in range(rs.m)
        ]
        old = yield from self._parallel(gens)
        if any(not ok for ok, _ in old):
            # Degraded RMW: rebuild the whole stripe from survivors, apply
            # the modification, and rewrite it full-stripe (writes to the
            # dead server are dropped; parity keeps the stripe recoverable).
            dead = {payload for ok, payload in old if not ok}
            whole = bytearray((yield from self.read_degraded(file_id, stripe, dead)))
            whole[offset_in_stripe : offset_in_stripe + len(chunk)] = chunk
            yield from self._write_full_stripe(file_id, stripe, bytes(whole))
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
        gens = [
            self._write_unit(pl.shards[u].server, pl.shards[u].key, nu)
            for u, nu in zip(touched, new_units)
        ]
        gens += [
            self._write_unit(pl.shards[rs.k + j].server, pl.shards[rs.k + j].key, parities[j])
            for j in range(rs.m)
        ]
        yield from self._parallel(gens)
