"""RDMA-like datacenter fabric.

Connects the DPU (and, for the host-side baselines, the host) to the
disaggregated KV store and the DFS servers.  The model is a full-bisection
fabric: each endpoint has an ingress and an egress NIC pipe (bandwidth), and
every message pays a one-way propagation+switching latency.

An :class:`RpcEndpoint` is a node's attachment point.  A service (MDS, data
server, KV shard) registers a handler with :meth:`RpcEndpoint.serve` and gets
one process per request that lands; an endpoint without a handler queues
messages in its ``inbox`` :class:`Store` for a consumer process.
``Fabric.rpc`` is the client-side helper that sends a request, waits for the
service to reply, and returns the response payload.  Requests, replies and
cancels all cross the fabric through one channel walk (:meth:`Fabric._walk`)
made of event callbacks: two heap events per message, no generator resume.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..obsv.quantiles import NULL_HUB
from .core import PRIORITY_URGENT, Environment, Event
from .resources import Store, TokenBucket

__all__ = ["Fabric", "RpcEndpoint", "Message"]


@dataclass
class Message:
    """A fabric message: opaque payload plus the caller's reply event."""

    src: str
    dst: str
    payload: Any
    size: int
    reply_to: Optional[Event] = None
    #: request id for tied-request cancellation; None for uncancellable sends
    rid: Optional[tuple] = None


#: fabric header bytes a cancel message occupies on the wire
CANCEL_SIZE = 64

#: abandoned-rid set bound per endpoint (oldest evicted first)
_ABANDON_CAP = 4096


class RpcEndpoint:
    """A named service attachment point: NIC pipes plus request delivery."""

    def __init__(self, env: Environment, name: str, bandwidth: float):
        self.env = env
        self.name = name
        self.inbox: Store = Store(env)
        self.tx = TokenBucket(env, bandwidth, name=f"{name}-tx")
        self.rx = TokenBucket(env, bandwidth, name=f"{name}-rx")
        self.messages_in = 0
        self.messages_out = 0
        self._handler: Optional[Callable[[Message], Generator]] = None
        self._handler_name = ""
        #: rids cancelled by a tied-request loser; servers check-and-clear
        #: before (and after) queuing for a service thread
        self._abandoned: "OrderedDict[tuple, None]" = OrderedDict()

    def serve(self, handler: Callable[[Message], Generator], name: str) -> None:
        """Run ``handler(msg)`` as a process called ``name`` for every message
        that lands here, so the service's thread pool — not a consumer loop —
        is the concurrency limiter."""
        self._handler = handler
        self._handler_name = name

    def deliver(self, msg: Message) -> None:
        """A message has drained through ``rx``: hand it to the service."""
        if self._handler is None:
            self.inbox.put(msg)
        else:
            self.env.process(self._handler(msg), name=self._handler_name)

    def abandon(self, rid: tuple) -> None:
        """Mark ``rid`` abandoned: its request should not be serviced."""
        self._abandoned[rid] = None
        while len(self._abandoned) > _ABANDON_CAP:
            self._abandoned.popitem(last=False)

    def take_abandoned(self, rid: tuple) -> bool:
        """Check-and-clear: True when ``rid`` was cancelled on the wire."""
        if rid in self._abandoned:
            del self._abandoned[rid]
            return True
        return False


class Fabric:
    """The switched network: registry of endpoints + latency model."""

    #: latency-sketch hub; builders replace this with a live hub
    sketches = NULL_HUB

    def __init__(
        self,
        env: Environment,
        latency: float = 4e-6,
        default_bandwidth: float = 12.5e9,
    ):
        self.env = env
        self.latency = latency
        self.default_bandwidth = default_bandwidth
        self.endpoints: dict[str, RpcEndpoint] = {}
        #: optional :class:`~repro.fault.FaultPlane` consulted per message
        #: for loss / delay / duplication (None = fail-free fabric)
        self.fault_plane = None
        self.messages_dropped = 0
        self.messages_duplicated = 0

    def attach(self, name: str, bandwidth: Optional[float] = None) -> RpcEndpoint:
        if name in self.endpoints:
            raise ValueError(f"endpoint {name!r} already attached")
        ep = RpcEndpoint(self.env, name, bandwidth or self.default_bandwidth)
        self.endpoints[name] = ep
        return ep

    def endpoint(self, name: str) -> RpcEndpoint:
        return self.endpoints[name]

    # -- the channel walk ----------------------------------------------------------
    def _walk(
        self,
        sep: RpcEndpoint,
        dep: RpcEndpoint,
        size: int,
        land: Callable[[bool], None],
        lost: Optional[Callable[[], None]] = None,
    ) -> None:
        """Carry one message of ``size`` bytes from ``sep`` to ``dep``.

        Egress pipe and wire latency are one event: the pipe reservation is
        exact (:meth:`TokenBucket.reserve`), so the arrival time is known
        when the message is posted.  The receiver's ingress pipe is reserved
        by that event's callback, *at arrival time* — reserving it at send
        time would reorder the rx FIFO against messages posted later that
        arrive earlier.  ``land(dup)`` runs once the bytes have drained
        through it; ``dup`` says the fault plane duplicated the message
        (what a second copy does depends on the kind of message).  A dropped
        message has still paid serialisation: it is counted, and ``lost()``
        runs, at tx-done — only a timeout can save whoever waits for it.
        """
        env = self.env
        sep.messages_out += 1
        action, extra = (
            ("ok", 0.0)
            if self.fault_plane is None
            else self.fault_plane.channel_action(sep.name, dep.name)
        )
        sent = sep.tx.reserve(size)
        if action == "drop":

            def dropped(_event: Event) -> None:
                self.messages_dropped += 1
                if lost is not None:
                    lost()

            env.at(sent).callbacks.append(dropped)
            return

        def landed(_event: Event) -> None:
            dep.messages_in += 1
            land(action == "dup")

        def arrived(_event: Event) -> None:
            env.at(dep.rx.reserve(size)).callbacks.append(landed)

        env.at(sent + (self.latency + extra)).callbacks.append(arrived)

    def _post(self, msg: Message, done: Optional[Event] = None) -> None:
        """Walk a request to its destination endpoint; ``done`` (if given)
        fires once it has landed, or left the sender and been dropped."""
        env = self.env
        t0 = env._now
        sep = self.endpoints[msg.src]
        dep = self.endpoints[msg.dst]

        def settled() -> None:
            self.sketches.observe("net.send", env._now - t0)
            if done is not None:
                done.succeed(priority=PRIORITY_URGENT)

        def land(dup: bool) -> None:
            dep.deliver(msg)
            settled()
            if dup:
                # Fabric-level duplication: a second copy lands after paying
                # the ingress pipe again.
                def copy_landed(_event: Event) -> None:
                    dep.messages_in += 1
                    dep.deliver(msg)

                self.messages_duplicated += 1
                env.at(dep.rx.reserve(msg.size)).callbacks.append(copy_landed)

        self._walk(sep, dep, msg.size, land, settled)

    # -- one-way send -----------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any, size: int) -> Generator[Event, None, None]:
        """Transmit a message; completes when it lands at ``dst`` (or, if
        the fabric drops it, when it has left the sender)."""
        done = Event(self.env)
        self._post(Message(src, dst, payload, size), done)
        yield done

    # -- tied-request cancellation ---------------------------------------------
    def cancel(self, src: str, dst: str, rid: tuple) -> Generator[Event, None, None]:
        """Cancel an in-flight request on the wire (tied-request loser).

        A real fabric-level cancel message: it pays the sender's egress
        pipe, the propagation latency and the receiver's ingress pipe, and
        may itself be dropped by a faulty channel (the abandoned request is
        then serviced normally — cancellation is best-effort).  On arrival
        the destination endpoint records the rid; the server's abandon
        check before/after thread admission drops the request unanswered.
        """
        sep = self.endpoints.get(src)
        dep = self.endpoints.get(dst)
        if sep is None or dep is None:
            return
        done = Event(self.env)

        def land(_dup: bool) -> None:
            dep.abandon(rid)
            done.succeed()

        self._walk(sep, dep, CANCEL_SIZE, land, done.succeed)
        yield done

    # -- request/response -----------------------------------------------------
    def rpc(
        self,
        src: str,
        dst: str,
        payload: Any,
        req_size: int,
        rid: Optional[tuple] = None,
    ) -> Generator[Event, None, Any]:
        """Send ``payload`` to ``dst`` and wait for the service's reply.

        The service must call :meth:`reply` with the originating message.
        Returns the reply payload.  The caller is resumed once, by the
        reply; a request or reply the fabric drops leaves it parked, and
        only a deadline raced against this generator gets it back.
        """
        reply = Event(self.env)
        self._post(Message(src, dst, payload, req_size, reply, rid))
        return (yield reply)

    def reply(
        self, msg: Message, payload: Any, size: int
    ) -> Generator[Event, None, None]:
        """Service-side: answer an RPC message.

        Starts the reply's walk and returns without waiting for it to land;
        it is a generator only so that handlers ``yield from`` it like every
        other fabric call.  The first reply to land resumes the caller;
        later ones (a duplicated request or reply) find it gone.
        """
        reply_to = msg.reply_to
        if reply_to is None:
            raise ValueError("message carries no reply event")

        def land(dup: bool) -> None:
            if not reply_to.triggered:
                reply_to.succeed(payload, PRIORITY_URGENT)
            if dup:
                self.messages_duplicated += 1

        self._walk(self.endpoints[msg.dst], self.endpoints[msg.src], size, land)
        yield from ()
