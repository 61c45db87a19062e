"""Per-layer spans recorded from outside the program.

``install()`` wraps each layer's public calls at class level, before
``build_cluster`` binds them, so nothing under ``src/`` changes.  A span is
(layer, fn, simulated start/end, host ns spent inside its own ``send``s,
parent).  The wrappers create no event and draw no random number: a traced
pass must reproduce the untraced pass's simulated numbers exactly, and
``run.py`` checks that it does.

Parents come from a span stack per ``env.active_process``.  A process spawned
while a span is open inherits that span as its parent.  The nvme-fs queue
crossing (initiator ``submit*`` in a host thread, ``IoDispatch.backend`` in a
target process) is paired by the ``FileRequest`` both calls receive, FIFO per
node.  Work behind a ``Fabric`` mailbox (KV shard, data server, MDS) has no
public call and stays in ``sim.network``'s self time.

Self time of a span is its duration minus the union of its children's
intervals (clipped to the span), so parallel fan-out never goes negative.
Where siblings overlap, the union is shared among them in proportion to their
durations; with that, the self times of one client op's tree add up to the
op's latency exactly, and per-layer sums telescope to the summed latency.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from time import perf_counter_ns

from repro.cache.control import CacheControlPlane
from repro.cache.hostplane import HostCachePlane
from repro.dfs.clients import OffloadedDfsClient
from repro.dfs.stripeio import StripeIO
from repro.dpu.dispatch import IoDispatch
from repro.ec import ReedSolomon, StripeLayout
from repro.fault.requests import RequestEngine
from repro.host.fsadapter import DpcAdapter
from repro.host.vfs import Vfs
from repro.kv.client import KvClient
from repro.kv.engine import LsmEngine
from repro.kv.flash import FlashKvModel
from repro.kvfs.fs import Kvfs
from repro.obsv.quantiles import SketchHub
from repro.proto.nvme.ini import NvmeFsInitiator
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.network import Fabric
from repro.sim.pcie import PcieLink

from metrics import LEAF_LAYERS, PURE_LAYERS, TREE_LAYERS
from workloads import MiB, Phase

#: layer -> (class, generator methods wrapped); the layer of a client op's
#: root span is the first one
GENERATORS = [
    ("host.vfs", Vfs, "open close read write fsync stat mkdir readdir unlink rmdir rename truncate"),
    ("host.fsadapter", DpcAdapter,
     "lookup create mkdir readdir stat unlink rmdir rename truncate fsync read write"),
    ("cache.hostplane", HostCachePlane, "read write invalidate"),
    ("proto.nvme.ini", NvmeFsInitiator, "submit submit_many"),
    ("dpu.dispatch", IoDispatch, "backend invalidate_dfs_file"),
    ("kvfs", Kvfs, "lookup create mkdir symlink readlink link readdir stat setattr unlink rmdir"
     " rename read write truncate fsync"),
    ("kv.client", KvClient, "get put delete cas scan_prefix batch_commit"),
    ("fault.requests", RequestEngine, "call"),
    ("sim.network", Fabric, "send rpc reply cancel"),
    ("dfs.client", OffloadedDfsClient,
     "create lookup getattr readdir unlink acquire_file_delegation flush_metadata write read"),
    ("dfs.stripeio", StripeIO, "read write read_degraded rebuild_stripe rebuild_file"),
    ("sim.pcie", PcieLink, "dma_read dma_write atomic_cas_u32 atomic_faa_u32 doorbell interrupt"),
    ("kv.flash", FlashKvModel, "charge_get charge_put charge_delete charge_scan"),
    ("cache.control", IoDispatch, "cache_writeback cache_fetch cache_fetch_run"),
    ("cache.control", CacheControlPlane, "fill fill_run flush_all invalidate_inode"),
]  # fmt: skip
#: layer -> (class, plain methods wrapped, bytes-processed function or None)
FUNCTIONS = [
    ("ec", StripeLayout, "encode_stripe", lambda a: len(a[1])),
    ("ec", StripeLayout, "decode_stripe", lambda a: a[0].stripe_size),
    ("ec", StripeLayout, "placement", None),
    ("ec", ReedSolomon, "update_parity", lambda a: len(a[3])),
    ("kv.engine", LsmEngine, "get put delete scan_prefix scan_range purge crash_recover", None),
    ("obsv", SketchHub, "observe", None),
]
CLIENT_LAYER = "host.vfs"
#: spans of the measured window written to ``bench/out/<workload>.spans.json``
SPANS_KEPT = 200_000


class Layer:
    __slots__ = ("name", "calls", "sim_self", "sim_incl", "host_ns", "units")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0  # spans (or calls) started inside the window
        self.sim_self = 0.0  # attributed self seconds inside measured client ops
        self.sim_incl = 0.0  # durations of the spans started inside the window
        self.host_ns = 0  # self host ns inside the window
        self.units = 0  # bytes processed (ec only)


class Span:
    __slots__ = ("sid", "layer", "fn", "start", "end", "host_ns", "parent", "root",
                 "children", "open", "stack", "proc", "in_window")  # fmt: skip


class Tracer:
    def __init__(self) -> None:
        self.env: Environment | None = None
        self.active = True
        self.window = False
        self.layers = {n: Layer(n) for n in TREE_LAYERS + LEAF_LAYERS + PURE_LAYERS}
        #: process -> [inherited parent or None, open spans of that process...]
        self.stacks: dict[object, list] = {}
        #: child-time accumulators of the sends currently on the Python stack
        self.host: list[int] = []
        #: (node, FileRequest) -> initiator spans waiting for their backend call
        self.pending: dict[tuple, deque] = {}
        self.node_of: dict[int, int] = {}
        self.spawned = 0
        self.n_spans = 0
        self.n_window = 0
        self.n_linked = 0
        self.client_ops = 0
        self.client_latency = 0.0
        self.min_self = 0.0
        #: roots that ended while spans below them were still open
        self.waiting: set[Span] = set()
        self.kept: list[tuple] = []

    # -- wiring -------------------------------------------------------------------------
    def attach(self, run) -> None:
        for node in run.cluster.nodes:
            self.node_of[id(node.host.ini)] = node.index
            self.node_of[id(node.dpu.dispatch)] = node.index
        run.on_window = self.set_window

    def set_window(self, on: bool) -> None:
        self.window = on

    # -- span lifecycle -----------------------------------------------------------------
    def begin(self, layer: Layer, fn: str, parent: Span | None = None) -> Span:
        env = self.env
        proc = env.active_process
        st = self.stacks.get(proc)
        if st is None:
            st = self.stacks[proc] = [None]
        if parent is None:
            parent = st[-1]
        sp = Span()
        self.n_spans += 1
        sp.sid = self.n_spans
        sp.layer = layer
        sp.fn = fn
        sp.start = env.now
        sp.end = None
        sp.host_ns = 0
        sp.children = []
        sp.stack = st
        sp.proc = proc
        sp.in_window = self.window
        if parent is not None and parent.root.open < 0:
            parent = None  # its op was already accounted: background work
        sp.parent = parent
        if parent is None:
            sp.root = sp
            sp.open = 1
        else:
            sp.root = parent.root
            sp.root.open += 1
            parent.children.append(sp)
        st.append(sp)
        if sp.in_window:
            layer.calls += 1
            self.n_window += 1
        return sp

    def end(self, sp: Span) -> None:
        if not self.active:
            return
        sp.end = self.env.now
        st = sp.stack
        if st[-1] is sp:
            st.pop()
        else:
            st.remove(sp)
        if len(st) == 1 and st[0] is None:
            self.stacks.pop(sp.proc, None)
        if sp.in_window:
            sp.layer.sim_incl += sp.end - sp.start
        root = sp.root
        root.open -= 1
        if root.open == 0:
            self._account(root)
        elif sp is root:
            self.waiting.add(root)  # descendants still running in the background

    def flush(self) -> None:
        """Account the ops whose tree never closes: a request whose reply was
        dropped waits for ever.  Such a span counts up to its parent's end."""
        while self.waiting:
            self._account(self.waiting.pop())

    def _account(self, root: Span) -> None:
        """Attribute the self times of a tree, top-down, once its root has
        ended and (normally) every span below it too."""
        root.open = -1
        self.waiting.discard(root)
        client = root.in_window and root.layer.name == CLIENT_LAYER
        keep = root.in_window and len(self.kept) < SPANS_KEPT
        if client:
            self.client_ops += 1
            self.client_latency += root.end - root.start
        todo = [(root, 1.0, root.end)]
        while todo:
            sp, scale, s1 = todo.pop()
            s0 = sp.start
            own = s1 - s0
            if sp.children:
                clipped = [
                    (max(c.start, s0), s1 if c.end is None else min(c.end, s1))
                    for c in sp.children
                ]
                total = union = 0.0
                edge = s0
                for lo, hi in sorted(clipped):
                    if hi > lo:
                        total += hi - lo
                        if hi > edge:
                            union += hi - max(lo, edge)
                            edge = hi
                own -= union
                share = union / total if total > 0.0 else 0.0
                for c, (lo, hi) in zip(sp.children, clipped):
                    end = hi if c.end is None else c.end
                    part = scale * share * (hi - lo) / (end - c.start) if hi > lo else 0.0
                    todo.append((c, part, end))
            if own < self.min_self:
                self.min_self = own
            if client:
                sp.layer.sim_self += scale * own
                self.n_linked += sp.in_window
            if keep:
                self.kept.append(
                    (sp.sid, sp.parent.sid if sp.parent else 0, sp.layer.name, sp.fn,
                     s0, sp.end, sp.host_ns)
                )  # fmt: skip

    # -- results --------------------------------------------------------------------------
    def metrics(self, phase: Phase) -> dict[str, float]:
        self.flush()
        n = phase.completed
        out: dict[str, float] = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls_per_op"] = layer.calls / n
            out[f"{name}.host_self_us_per_op"] = layer.host_ns / 1e3 / n
            if name in TREE_LAYERS:
                out[f"{name}.sim_self_us_per_op"] = layer.sim_self * 1e6 / n
            elif name in LEAF_LAYERS:
                out[f"{name}.sim_incl_us_per_op"] = layer.sim_incl * 1e6 / n
        wrapped_ns = sum(layer.host_ns for layer in self.layers.values())
        ec = self.layers["ec"]
        out["sim.core.processes_per_op"] = self.spawned / n
        out["sim.core.host_self_us_per_op"] = (phase.host_wall_s * 1e9 - wrapped_ns) / 1e3 / n
        out["ec.coded_bytes_per_user_byte"] = ec.units / phase.user_bytes
        out["ec.host_us_per_mib"] = ec.host_ns / 1e3 / (ec.units / MiB) if ec.units else 0.0
        out["bench.linked_span_frac"] = self.n_linked / self.n_window if self.n_window else 0.0
        return out

    def summary(self) -> dict:
        """What ``bench/tests`` checks the telescoping rule against."""
        return {
            "client_ops": self.client_ops,
            "client_latency_us": self.client_latency * 1e6,
            "attributed_self_us": sum(la.sim_self for la in self.layers.values()) * 1e6,
            "min_self_us": self.min_self * 1e6,
            "spans": self.n_spans,
            "spans_in_window": self.n_window,
            "spans_written": len(self.kept),
            "open_at_exit": sum(len(st) - 1 for st in self.stacks.values()),
        }

    def write_spans(self, path: Path) -> None:
        self.active = False  # generators torn down at exit must not record
        cols = ["id", "parent", "layer", "fn", "sim_start", "sim_end", "host_ns"]
        path.write_text(json.dumps({"columns": cols, "spans": self.kept}))


# -- wrappers ---------------------------------------------------------------------------------


def _wrap_generator(tr: Tracer, layer_of, fn: str, orig, link=None, on_span=None):
    """``link(args)`` may name a parent from another process; ``on_span(sp,
    args, opened)`` runs right after the span opens and right before it ends."""

    def wrapper(*args, **kwargs):
        gen = orig(*args, **kwargs)
        sp = tr.begin(layer_of(args[0]), fn, link(args) if link else None)
        if on_span:
            on_span(sp, args, True)
        layer = sp.layer
        host = tr.host
        value = exc = None
        try:
            while True:
                host.append(0)
                t0 = perf_counter_ns()
                try:
                    if exc is None:
                        event = gen.send(value)
                    else:
                        thrown, exc = exc, None
                        event = gen.throw(thrown)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = perf_counter_ns() - t0
                    own = elapsed - host.pop()
                    if host:
                        host[-1] += elapsed
                    sp.host_ns += own
                    if tr.window:
                        layer.host_ns += own
                try:
                    value = yield event
                except GeneratorExit:
                    gen.close()
                    raise
                except BaseException as e:  # thrown in by the kernel: pass it down
                    exc = e
        finally:
            if on_span:
                on_span(sp, args, False)
            tr.end(sp)

    wrapper.__name__ = orig.__name__
    return wrapper


def _wrap_function(tr: Tracer, layer: Layer, orig, units):
    def wrapper(*args, **kwargs):
        host = tr.host
        host.append(0)
        t0 = perf_counter_ns()
        try:
            return orig(*args, **kwargs)
        finally:
            elapsed = perf_counter_ns() - t0
            own = elapsed - host.pop()
            if host:
                host[-1] += elapsed
            if tr.window:
                layer.calls += 1
                layer.host_ns += own
                if units:
                    layer.units += units(args)

    wrapper.__name__ = orig.__name__
    return wrapper


def _process_shell(tr: Tracer, gen, parent: Span):
    """Runs a spawned process's generator with ``parent`` at the bottom of its
    span stack, and forgets the stack when the process ends."""
    proc = tr.env.active_process
    tr.stacks[proc] = [parent]
    try:
        return (yield from gen)
    finally:
        tr.stacks.pop(proc, None)


def install() -> Tracer:
    """Wrap every layer's public calls; returns the tracer that records them."""
    tr = Tracer()
    layers = tr.layers
    pending = tr.pending

    # The nvme-fs queue crossing: submit* files its span under each request it
    # carries; backend adopts the oldest span filed under the request it got.
    def submit_span(sp: Span, args, opened: bool) -> None:
        node = tr.node_of.get(id(args[0]))
        first = args[1]
        requests = [first] if hasattr(first, "op") else [item[0] for item in first]
        for request in requests:
            if opened:
                pending.setdefault((node, request), deque()).append(sp)
            else:  # normally adopted already; never leave a dead span filed
                queue = pending.get((node, request))
                if queue is not None:
                    if sp in queue:
                        queue.remove(sp)
                    if not queue:
                        del pending[(node, request)]

    def backend_parent(args) -> Span | None:
        queue = pending.get((tr.node_of.get(id(args[0])), args[2]))
        return queue.popleft() if queue else None

    hooks = {
        (NvmeFsInitiator, "submit"): {"on_span": submit_span},
        (NvmeFsInitiator, "submit_many"): {"on_span": submit_span},
        (IoDispatch, "backend"): {"link": backend_parent},
    }
    for name, cls, methods in GENERATORS:
        layer_of = lambda _self, _layer=layers[name]: _layer  # noqa: E731
        for method in methods.split():
            wrapped = _wrap_generator(
                tr, layer_of, method, getattr(cls, method), **hooks.get((cls, method), {})
            )
            setattr(cls, method, wrapped)
    host_cpu, dpu_cpu = layers["sim.cpu.host"], layers["sim.cpu.dpu"]
    CpuPool.execute = _wrap_generator(
        tr,
        lambda pool: host_cpu if pool.name.startswith("host") else dpu_cpu,
        "execute",
        CpuPool.execute,
    )
    for name, cls, methods, units in FUNCTIONS:
        for method in methods.split():
            setattr(cls, method, _wrap_function(tr, layers[name], getattr(cls, method), units))

    spawn = Environment.process

    def process(env, generator, name=""):
        tr.env = env
        if tr.window:
            tr.spawned += 1
        st = tr.stacks.get(env.active_process)
        if st is not None and st[-1] is not None:
            generator = _process_shell(tr, generator, st[-1])
        return spawn(env, generator, name)

    Environment.process = process
    return tr
