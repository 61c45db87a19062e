"""DFS data servers: stripe-unit object stores on the fabric.

Each server stores erasure-coded stripe units by key and serves
read/write/batch operations with a thread pool and service-time model.
Clients (or the MDS, for the standard-NFS path) address units using the
:class:`repro.ec.StripeLayout` placement.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..params import SystemParams
from ..sim.core import Environment, Event
from ..sim.network import Fabric, Message
from ..sim.resources import Resource

__all__ = ["DataServer", "ds_name"]

MSG_OVERHEAD = 64


def ds_name(index: int) -> str:
    return f"ds{index}"


class DataServer:
    """One data server: unit store + thread pool."""

    def __init__(self, env: Environment, fabric: Fabric, index: int, params: SystemParams):
        self.env = env
        self.fabric = fabric
        self.index = index
        self.name = ds_name(index)
        self.params = params
        self.endpoint = fabric.attach(self.name, params.ds_bandwidth)
        self.threads = Resource(env, params.ds_threads)
        self.units: dict[str, bytes] = {}
        self.reads = 0
        self.writes = 0
        #: requests dropped unanswered after a tied-request wire cancel
        self.cancel_drops = 0
        #: failure injection: a failed server answers every request with an
        #: error (clients fall back to degraded EC reads)
        self.failed = False
        #: crashed: requests vanish entirely — only client timeouts notice
        self.dropped = False
        self.endpoint.serve(self._handle, f"{self.name}-req")

    def fail(self) -> None:
        """Inject a fail-stop outage: subsequent requests error out."""
        self.failed = True

    def recover(self) -> None:
        self.failed = False
        self.dropped = False

    def crash(self, lose_data: bool = False) -> None:
        """Go down hard: requests (and in-flight replies) vanish.

        ``lose_data=True`` models losing the local media too — the server
        comes back empty and must be re-populated by background
        reconstruction (:meth:`StripeIO.rebuild_file`) before its units can
        be trusted again.
        """
        self.failed = True
        self.dropped = True
        if lose_data:
            self.units.clear()

    def restart(self) -> Generator[Event, None, None]:
        """Come back up after the restart delay (process respawn)."""
        yield self.env.timeout(self.params.ds_restart_delay)
        self.failed = False
        self.dropped = False

    def _handle(self, msg: Message) -> Generator[Event, None, None]:
        if self.dropped:
            return  # crashed: the request is never answered
        if self.failed:
            yield from self.fabric.reply(msg, ("err", "EHOSTDOWN"), MSG_OVERHEAD)
            return
        if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
            # Tied-request loser cancelled on the wire: drop unanswered.
            self.cancel_drops += 1
            return
        req = self.threads.request()
        yield req
        try:
            if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
                # Cancel landed while queued: free the thread, skip service.
                self.cancel_drops += 1
                return
            resp, size = yield from self._execute(msg.payload)
        finally:
            self.threads.release(req)
        if self.dropped:
            return  # crashed mid-service: the reply is lost with the node
        yield from self.fabric.reply(msg, resp, size)

    def _execute(self, op: tuple) -> Generator[Event, None, tuple]:
        p = self.params
        kind = op[0]
        if kind == "read_unit":
            _, key = op
            yield self.env.timeout(p.ds_read_service)
            data = self.units.get(key)
            self.reads += 1
            return data, MSG_OVERHEAD + (len(data) if data else 0)
        if kind == "write_unit":
            _, key, data = op
            yield self.env.timeout(p.ds_write_service)
            self.units[key] = data
            self.writes += 1
            return "ok", MSG_OVERHEAD
        if kind == "write_units":
            _, items = op
            yield self.env.timeout(
                p.ds_write_service + 4e-6 * max(0, len(items) - 1)
            )
            for key, data in items:
                self.units[key] = data
            self.writes += len(items)
            return "ok", MSG_OVERHEAD
        if kind == "read_units":
            _, keys = op
            yield self.env.timeout(p.ds_read_service + 4e-6 * max(0, len(keys) - 1))
            out = [self.units.get(k) for k in keys]
            self.reads += len(keys)
            size = MSG_OVERHEAD + sum(len(d) for d in out if d)
            return out, size
        if kind == "delete_units":
            _, keys = op
            yield self.env.timeout(p.ds_write_service)
            for k in keys:
                self.units.pop(k, None)
            return "ok", MSG_OVERHEAD
        raise ValueError(f"unknown data-server op {kind!r}")
