"""DFS data servers: stripe-unit object stores on the fabric.

Each server stores erasure-coded stripe units by key and serves
unit reads and writes with a thread pool and service-time model.
Clients (or the MDS, for the standard-NFS path) address units using the
:class:`repro.ec.StripeLayout` placement.
"""

from __future__ import annotations

from typing import Generator

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

    def _handle(self, msg: Message) -> None:
        """Serve one unit RPC by callbacks, with no process: thread grant,
        then service time, then store or load, release and reply."""
        if self.dropped:
            return  # crashed: the request is never answered
        if self.failed:
            self.fabric.respond(msg, ("err", "EHOSTDOWN"), MSG_OVERHEAD)
            return
        if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
            # Tied-request loser cancelled on the wire: drop unanswered.
            self.cancel_drops += 1
            return
        p = self.params
        op = msg.payload
        kind = op[0]
        if kind == "read_unit":
            service = p.ds_read_service
        elif kind == "write_unit":
            service = p.ds_write_service
        else:
            raise ValueError(f"unknown data-server op {kind!r}")
        req = self.threads.request()

        def granted(_event: Event) -> None:
            if msg.rid is not None and self.endpoint.take_abandoned(msg.rid):
                # Cancel landed while queued: free the thread, skip service.
                self.cancel_drops += 1
                self.threads.release(req)
                return
            self.env.timeout(service).callbacks.append(serviced)

        def serviced(_event: Event) -> None:
            if kind == "read_unit":
                data = self.units.get(op[1])
                self.reads += 1
                resp, size = data, MSG_OVERHEAD + (len(data) if data else 0)
            else:
                _, key, data = op
                self.units[key] = data
                self.writes += 1
                resp, size = "ok", MSG_OVERHEAD
            self.threads.release(req)
            if self.dropped:
                return  # crashed mid-service: the reply is lost with the node
            self.fabric.respond(msg, resp, size)

        req.callbacks.append(granted)
