"""The four benchmark workloads and the closed-loop driver that runs them.

A workload is a fixed input: a set of files, a per-thread list of POSIX calls
(the *plan*) and a parameter profile.  The plan is a function of
``(workload, seed, n_calls)`` only — the program under test receives the
generated calls and ``SystemParams.seed`` — so every simulated number repeats
exactly for the same arguments.

Two things differ from ``repro.workload.run_job`` on purpose: every payload is
a function of (file, 4 KiB page), so a misdirected read fails the byte
compare, and every exception or wrong byte is recorded against its call kind
instead of being folded into one ``errors`` count.

Rewrites carry the bytes the block already holds (the payload has no version),
so a lost update is not detectable; misdirected, torn and short reads are.
"""

from __future__ import annotations

import random
import struct
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.core.topology import Cluster, build_cluster
from repro.fault import ChannelFaults
from repro.host.vfs import O_CREAT, O_DIRECT
from repro.params import KiB, MiB, SystemParams, default_params
from repro.sim.core import LOOP_STATS
from repro.workload.runner import _zipf_cdf

PAGE = 4 * KiB
BLOCK = 8 * KiB

#: share of each thread's calls that run before the measured window
WARMUP_SHARE = 0.10

READ, WRITE, META = "read", "write", "meta"
#: call kind -> op class of the end-to-end metrics
OP_CLASS = {
    "read": READ,
    "write": WRITE,
    "creat": META,
    "stat": META,
    "readdir": META,
    "fsync": META,
}

_CELL = struct.Struct("<QQ")


def page_bytes(fid: int, page: int) -> bytes:
    """The 4 KiB every page of every file must hold: (file, page) repeated."""
    return _CELL.pack(fid, page) * (PAGE // _CELL.size)


def file_bytes(fid: int, offset: int, length: int) -> bytes:
    """Expected content of ``[offset, offset+length)`` of file ``fid``."""
    first = offset // PAGE
    last = (offset + length - 1) // PAGE
    blob = b"".join(page_bytes(fid, p) for p in range(first, last + 1))
    lo = offset - first * PAGE
    return blob[lo : lo + length]


@dataclass(frozen=True)
class FileInfo:
    """One file of a workload (``fid`` is the benchmark's id, not the inode)."""

    fid: int
    path: str
    size: int
    flags: int = O_DIRECT


@dataclass
class Plan:
    """Everything a run needs that depends on the seed."""

    #: directories made before any file, in order
    dirs: list[str] = field(default_factory=list)
    #: files created and filled by host 0 before warm-up
    prep: list[FileInfo] = field(default_factory=list)
    #: (host, thread) -> calls; a call is ``(kind, FileInfo | path, off, len)``
    threads: dict[tuple[int, int], list[tuple]] = field(default_factory=dict)

    def n_calls(self) -> int:
        return sum(len(c) for c in self.threads.values())


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_hosts: int
    threads: int  # per host
    #: measured + warm-up calls per thread for one ``--seconds`` unit; the op
    #: count of a run is this constant times ``--seconds``, never a clock
    calls_per_thread_second: float
    with_dfs: bool
    #: diff against ``default_params()``
    overrides: dict
    #: (workload, seed, warm-up calls, measured calls per thread) -> plan
    build_plan: Callable[["Workload", int, int, int], Plan]
    #: fault schedule (cluster_faulted only)
    faulted: bool = False
    #: bytes per prep write and per sweep read (at most one nvme-fs command,
    #: DpcAdapter.MAX_IO) and how many of them run side by side
    bulk_io: int = 256 * KiB
    bulk_lanes: int = 8

    def params(self, seed: int) -> SystemParams:
        return default_params().with_overrides(seed=seed, **self.overrides)

    def calls_per_thread(self, seconds: float, scale: float) -> int:
        return max(20, round(self.calls_per_thread_second * seconds * scale))


# -- plan helpers -----------------------------------------------------------------


def _rng(seed: int, *parts) -> random.Random:
    # str seeds hash through sha512: independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def _mix(rng: random.Random, n: int, shares: dict[str, float]) -> list[str]:
    """A shuffled list of ``n`` action names holding each in its exact share,
    so the op mix is the same for every seed and only the order moves."""
    out: list[str] = []
    for name, share in shares.items():
        out += [name] * int(share * n)
    first = next(iter(shares))
    out += [first] * (n - len(out))
    rng.shuffle(out)
    return out


def _popularity(name: str, n: int) -> list[int]:
    """Popularity rank -> item.  Which items are hot is a property of the data
    set, the same for every seed; the seed only decides who asks when."""
    perm = list(range(n))
    _rng(0, name, "popularity").shuffle(perm)
    return perm


def _zipf_draws(rng: random.Random, cdf: list[float], perm: list[int], n: int) -> list[int]:
    """``n`` Zipf-distributed items: one draw per equal-probability stratum
    (so the rank histogram barely moves with the seed), in shuffled order.
    ``perm`` maps popularity rank -> item."""
    draws = [perm[bisect_left(cdf, (i + rng.random()) / n)] for i in range(n)]
    rng.shuffle(draws)
    return draws


class _SmallFiles:
    """A thread's private small files: a prepared pool plus those its own
    plan creates; reads only ever target a file created earlier."""

    def __init__(self, plan: Plan, directory: str, first_fid: int, flags: int):
        self.plan = plan
        self.directory = directory
        self.next_fid = first_fid
        self.flags = flags
        self.pool: list[FileInfo] = []

    def new(self, size: int, prepared: bool = False) -> FileInfo:
        info = FileInfo(
            self.next_fid, f"{self.directory}/f{len(self.pool)}", size, self.flags
        )
        self.next_fid += 1
        self.pool.append(info)
        if prepared:
            self.plan.prep.append(info)
        return info


def _fill(n: int, action: Callable[[int], list[tuple]]) -> list[tuple]:
    """Exactly ``n`` calls of whole actions; ``action(room)`` returns at most
    ``room`` calls (a create cut off from its write would leave an empty file
    in the pool that later reads expect to be full)."""
    calls: list[tuple] = []
    while len(calls) < n:
        calls.extend(action(n - len(calls)))
    return calls


# Every builder returns, per thread, ``part(n_warm) + part(n_meas)``: the mix
# is exact in the warm-up and in the window separately, so the window holds
# the same number of calls of each kind whatever the seed.

# -- kvfs_direct ---------------------------------------------------------------------


def _plan_kvfs_direct(w: Workload, seed: int, n_warm: int, n_meas: int) -> Plan:
    plan = Plan(dirs=["/kvfs/big", "/kvfs/small"])
    big = [FileInfo(1 + k, f"/kvfs/big/b{k}", 16 * MiB) for k in range(4)]
    plan.prep += big
    nblocks = big[0].size // BLOCK
    shares = {"read": 0.60, "write": 0.25, "small": 0.10, "meta": 0.05}
    for tid in range(w.threads):
        rng = _rng(seed, w.name, tid)
        d = f"/kvfs/small/t{tid}"
        plan.dirs.append(d)
        small = _SmallFiles(plan, d, 1000 + tid * 100_000, O_DIRECT)
        for _ in range(8):
            small.new(rng.randrange(512, BLOCK - 512), prepared=True)

        def part(n: int) -> list[tuple]:
            mix = iter(_mix(rng, n, shares))

            def action(room: int) -> list[tuple]:
                kind = next(mix)
                if kind in ("read", "write"):
                    f = big[rng.randrange(len(big))]
                    return [(kind, f, rng.randrange(nblocks) * BLOCK, BLOCK)]
                if kind == "small":
                    if rng.random() < 0.5 and room >= 2:
                        f = small.new(rng.randrange(512, BLOCK - 512))
                        return [("creat", f, 0, 0), ("write", f, 0, f.size)]
                    f = small.pool[rng.randrange(len(small.pool))]
                    return [("read", f, 0, f.size)]
                if rng.random() < 0.7:
                    f = rng.choice(big) if rng.random() < 0.5 else rng.choice(small.pool)
                    return [("stat", f.path, 0, 0)]
                # a directory that does not grow: the listing stays 3 pages long
                return [("readdir", "/kvfs/small", 0, 0)]

            return _fill(n, action)

        plan.threads[(0, tid)] = part(n_warm) + part(n_meas)
    return plan


# -- cache_buffered ------------------------------------------------------------------


def _plan_cache_buffered(w: Workload, seed: int, n_warm: int, n_meas: int) -> Plan:
    plan = Plan(dirs=["/kvfs/c"])
    shared = FileInfo(1, "/kvfs/c/shared", 24 * MiB, flags=0)
    plan.prep.append(shared)
    # The Zipf threads move single 4 KiB pages.  An 8 KiB op is two consecutive
    # pages, which the read-ahead takes for a stream: it then prefetches into a
    # file that is being written, and a prefetch install into a pending entry
    # that was dirtied, evicted and re-claimed meanwhile lands another page's
    # bytes under the wrong key (a src/ bug this payload check caught, README).
    npages = shared.size // PAGE
    cdf = _zipf_cdf(npages, 1.1)
    perm = _popularity(w.name, npages)
    # 10 % meta, not 5 %: the shortened run needs >= 1000 meta samples for its
    # p99.  fsync is 0.35 % of the calls and 3.5 % of the meta ones, over twice
    # what it takes to own sim_op_p999_us and sim_meta_p99_us (a share near
    # 0.1 % or 1 % would flip those between 30 us and 15 ms from seed to seed),
    # and few enough that flush_all's scans do not own the host time.
    shares = {"read": 0.63, "write": 0.27, "stat": 0.0965, "fsync": 0.0035}
    n_seq = 4
    for tid in range(w.threads):
        rng = _rng(seed, w.name, tid)
        if tid < n_seq:
            f = FileInfo(10 + tid, f"/kvfs/c/seq{tid}", 4 * MiB, flags=0)
            plan.prep.append(f)
            per_pass = f.size // BLOCK
            start = rng.randrange(per_pass)
            plan.threads[(0, tid)] = [
                ("read", f, ((start + i) % per_pass) * BLOCK, BLOCK)
                for i in range(n_warm + n_meas)
            ]
            continue

        def part(n: int) -> list[tuple]:
            pages = iter(_zipf_draws(rng, cdf, perm, n))
            calls = []
            for kind in _mix(rng, n, shares):
                if kind in ("read", "write"):
                    calls.append((kind, shared, next(pages) * PAGE, PAGE))
                elif kind == "stat":
                    calls.append(("stat", shared.path, 0, 0))
                else:
                    calls.append(("fsync", shared, 0, 0))
            return calls

        plan.threads[(0, tid)] = part(n_warm) + part(n_meas)
    return plan


# -- dfs_ec ----------------------------------------------------------------------------


def _plan_dfs_ec(w: Workload, seed: int, n_warm: int, n_meas: int) -> Plan:
    plan = Plan(dirs=["/dfs/big", "/dfs/small"])
    big = [FileInfo(1 + k, f"/dfs/big/b{k}", 8 * MiB) for k in range(4)]
    plan.prep += big
    nblocks = big[0].size // BLOCK
    shares = {
        "write": 0.45,
        "read": 0.35,
        "create": 0.10,
        "statread": 0.05,
        "seqwrite": 0.03,
        "seqread": 0.02,
    }
    for tid in range(w.threads):
        rng = _rng(seed, w.name, tid)
        d = f"/dfs/small/t{tid}"
        plan.dirs.append(d)
        small = _SmallFiles(plan, d, 1000 + tid * 100_000, O_DIRECT)
        # stat and small reads only target files published before warm-up: a
        # stat racing the batched create of its own file is a src/ bug class
        # (ROADMAP item 3) this benchmark must not trip over
        published = [small.new(BLOCK, prepared=True) for _ in range(8)]
        seq_file = big[tid % len(big)]
        cursor = [rng.randrange(seq_file.size // MiB)]

        def part(n: int) -> list[tuple]:
            mix = iter(_mix(rng, n, shares))

            def action(room: int) -> list[tuple]:
                kind = next(mix)
                if room < 2 and kind in ("create", "statread"):
                    kind = "read"
                if kind in ("read", "write"):
                    f = big[rng.randrange(len(big))]
                    return [(kind, f, rng.randrange(nblocks) * BLOCK, BLOCK)]
                if kind == "create":
                    f = small.new(BLOCK)
                    return [("creat", f, 0, 0), ("write", f, 0, BLOCK)]
                if kind == "statread":
                    f = rng.choice(published)
                    return [("stat", f.path, 0, 0), ("read", f, 0, PAGE)]
                off = cursor[0] * MiB
                cursor[0] = (cursor[0] + 1) % (seq_file.size // MiB)
                return [("write" if kind == "seqwrite" else "read", seq_file, off, MiB)]

            return _fill(n, action)

        plan.threads[(0, tid)] = part(n_warm) + part(n_meas)
    return plan


# -- cluster_faulted -------------------------------------------------------------------


def _plan_cluster_faulted(w: Workload, seed: int, n_warm: int, n_meas: int) -> Plan:
    plan = Plan(dirs=["/kvfs/shared", "/dfs/shared"])
    nfiles = 16
    sets = {
        "/kvfs": [FileInfo(1 + k, f"/kvfs/shared/f{k}", MiB) for k in range(nfiles)],
        "/dfs": [FileInfo(101 + k, f"/dfs/shared/f{k}", MiB) for k in range(nfiles)],
    }
    for files in sets.values():
        plan.prep += files
    cdf = _zipf_cdf(nfiles, 1.2)
    perm = _popularity(w.name, nfiles)
    nblocks = MiB // BLOCK
    shares = {"read": 0.665, "write": 0.285, "stat": 0.05}
    for host in range(w.n_hosts):
        for tid in range(w.threads):
            rng = _rng(seed, w.name, host, tid)
            files = sets["/kvfs" if tid < w.threads // 2 else "/dfs"]

            def part(n: int) -> list[tuple]:
                picks = _zipf_draws(rng, cdf, perm, n)
                return [
                    ("stat", files[pick].path, 0, 0)
                    if kind == "stat"
                    else (kind, files[pick], rng.randrange(nblocks) * BLOCK, BLOCK)
                    for kind, pick in zip(_mix(rng, n, shares), picks)
                ]

            plan.threads[(host, tid)] = part(n_warm) + part(n_meas)
    return plan


#: cluster_faulted = every default-off feature of PRs 5-9 on at once, except
#: ``req_adaptive_retry`` (see README: it aborts this mix today)
FAULTED_PROFILE = dict(
    kv_flash_model=True,
    kv_inline_enabled=True,
    kv_inline_hints=True,
    kv_inline_adapt_window=512,
    kv_elastic=True,
    kv_rebalance=True,
    kv_idem_ttl=10e-3,
    obsv_sketches=True,
    req_hedging=True,
    rpc_timeout=400e-6,
    # 7 attempts, not 5: a put that trips flash GC holds its shard thread for
    # 3.1 ms, a hair inside the default envelope, and an exhausted budget
    # aborts the whole simulation today instead of returning EIO (see README)
    rpc_retry_max=7,
)

#: outage lengths of the seeded fault schedule; the KV one stays well inside
#: the client retry envelope (attempts of 400 us + doubling backoff), see README
DS_OUTAGE = 2e-3
KV_OUTAGE = 300e-6
CHANNEL_DROP = 0.003

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="kvfs_direct",
            why="Fig. 7 standalone KVFS at its crossover concurrency: nvme-fs,"
            " dispatch, KVFS and the KV store do the work; cache, DFS, EC and"
            " faults do none",
            n_hosts=1,
            threads=64,
            calls_per_thread_second=30.0,
            with_dfs=False,
            overrides={},
            build_plan=_plan_kvfs_direct,
        ),
        Workload(
            name="cache_buffered",
            why="Fig. 8 hybrid cache at 1.5x its size: hits come from host memory,"
            " so cache planes and PCIe atomics dominate and the KV store is only"
            " a miss and write-back sink",
            n_hosts=1,
            threads=16,
            calls_per_thread_second=80.0,
            with_dfs=False,
            # 16 MiB cache; buckets cut with it to keep the default 8 entries each
            overrides={"cache_pages": 4096, "cache_buckets": 512},
            build_plan=_plan_cache_buffered,
        ),
        Workload(
            name="dfs_ec",
            why="Fig. 9 offloaded DFS client: stripe I/O, EC, MDS and the 6-way"
            " fabric fan-out do the work and have the most events per op; KV"
            " and cache do none",
            n_hosts=1,
            threads=16,
            calls_per_thread_second=75.0,
            with_dfs=True,
            overrides={},
            build_plan=_plan_dfs_ec,
        ),
        Workload(
            name="cluster_faulted",
            why="two hosts, every default-off feature on, seeded drops and two"
            " crashes: the only run of the request engine, fault plane, flash,"
            " ring, rebalancer and sketches together, and the only real tail",
            n_hosts=2,
            threads=16,
            calls_per_thread_second=56.0,
            with_dfs=True,
            overrides=FAULTED_PROFILE,
            build_plan=_plan_cluster_faulted,
            faulted=True,
            # one stripe / four KV blocks at a time: with a 400 us RPC deadline a
            # deep bulk fan-out queues past it, and an exhausted budget aborts
            bulk_io=32 * KiB,
            bulk_lanes=4,
        ),
    )
}


# -- the driver ------------------------------------------------------------------------


@dataclass
class Phase:
    """What one phase (warm-up or measured window) observed."""

    #: op class -> simulated latencies (seconds) of the calls that succeeded
    lat: dict[str, list[float]] = field(
        default_factory=lambda: {READ: [], WRITE: [], META: []}
    )
    attempted: int = 0
    #: (call kind, reason) of every call that raised or returned wrong bytes
    failures: list[tuple[str, str]] = field(default_factory=list)
    user_bytes: int = 0
    sim_start: float = 0.0
    sim_end: float = 0.0
    host_cpu_s: float = 0.0
    host_wall_s: float = 0.0
    events: int = 0

    @property
    def completed(self) -> int:
        return self.attempted - len(self.failures)


class Run:
    """One workload instance: cluster, plan and the closed-loop threads."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        seconds: float,
        scale: float = 1.0,
    ):
        self.w = workload
        self.seed = seed
        n = workload.calls_per_thread(seconds, scale)
        self.n_warm = int(n * WARMUP_SHARE)
        self.plan = workload.build_plan(workload, seed, self.n_warm, n - self.n_warm)
        self.cluster: Cluster = build_cluster(
            workload.n_hosts, params=workload.params(seed), with_dfs=workload.with_dfs
        )
        self.env = self.cluster.env
        #: per host: FileInfo.fid -> OpenFile
        self.handles: list[dict[int, object]] = [{} for _ in range(workload.n_hosts)]
        #: fids whose content the final sweep must find
        self.written: dict[int, FileInfo] = {}
        #: test hook: flip one byte of the next read before it is verified
        self.corrupt_next_read = False
        self.fault_log: list[str] = []
        #: completed measured calls -> fault to fire then (cluster_faulted only)
        self._fault_at: dict[int, Callable[[], None]] = {}
        #: tracing hooks (set by bench/spans.py); None when untraced
        self.on_window: Optional[Callable[[bool], None]] = None

    # -- POSIX calls -----------------------------------------------------------------
    def _open(self, host: int, f: FileInfo, create: bool = False) -> Generator:
        vfs = self.cluster.nodes[host].vfs
        of = yield from vfs.open(f.path, f.flags | (O_CREAT if create else 0))
        self.handles[host][f.fid] = of
        return of

    def _call(self, host: int, call: tuple, phase: Phase) -> Generator:
        kind, target, off, length = call
        vfs = self.cluster.nodes[host].vfs
        env = self.env
        phase.attempted += 1
        t0 = env.now
        try:
            if kind == "read":
                data = yield from vfs.read(self.handles[host][target.fid], off, length)
                if self.corrupt_next_read:
                    self.corrupt_next_read = False
                    data = bytes([data[0] ^ 0xFF]) + data[1:]
                if data != file_bytes(target.fid, off, length):
                    phase.failures.append((kind, "wrong-bytes"))
                    return
                phase.user_bytes += length
            elif kind == "write":
                yield from vfs.write(
                    self.handles[host][target.fid], off, file_bytes(target.fid, off, length)
                )
                self.written[target.fid] = target
                phase.user_bytes += length
            elif kind == "creat":
                yield from self._open(host, target, create=True)
            elif kind == "stat":
                yield from vfs.stat(target)
            elif kind == "readdir":
                yield from vfs.readdir(target)
            elif kind == "fsync":
                yield from vfs.fsync(self.handles[host][target.fid])
            else:
                raise ValueError(f"unknown call kind {kind!r}")
        except Exception as exc:  # a failed op is data, not a crash
            phase.failures.append((kind, type(exc).__name__))
            return
        phase.lat[OP_CLASS[kind]].append(env.now - t0)

    # -- phases ----------------------------------------------------------------------
    def _parallel(self, gens: list) -> None:
        env = self.env
        env.run(until=env.all_of([env.process(g) for g in gens]))

    def prepare(self) -> None:
        """Host 0 makes every directory and fills every prepared file with its
        payload; then every host opens its handles."""
        vfs0 = self.cluster.nodes[0].vfs
        opened: list = []
        users = {
            (host, c[1].fid)
            for (host, _tid), calls in self.plan.threads.items()
            for c in calls
            if isinstance(c[1], FileInfo)
        }

        def make_dirs() -> Generator:
            for d in self.plan.dirs:
                yield from vfs0.mkdir(d)

        def fill(files: list[FileInfo]) -> Generator:
            for f in files:
                # always O_DIRECT: prep must land in the backend, not the cache
                of = yield from vfs0.open(f.path, O_CREAT | O_DIRECT)
                # One nvme-fs command per write: parallel sub-commands racing
                # KVFS's small->big conversion of a fresh file lose extent-map
                # entries (a src/ bug, see README).
                for off in range(0, f.size, self.w.bulk_io):
                    n = min(self.w.bulk_io, f.size - off)
                    yield from vfs0.write(of, off, file_bytes(f.fid, off, n))
                opened.append(of)

        def open_all(host: int) -> Generator:
            for f in self.plan.prep:
                if (host, f.fid) in users:
                    yield from self._open(host, f)

        self._parallel([make_dirs()])
        # One lane per directory: concurrent first creates in one directory
        # race the DFS client's delegation acquire and lose entries (src/ bug,
        # see README); a thread's own creates are sequential by construction.
        by_dir: dict[str, list[FileInfo]] = {}
        for f in self.plan.prep:
            by_dir.setdefault(f.path.rsplit("/", 1)[0], []).append(f)
        groups = list(by_dir.values())
        lanes = self.w.bulk_lanes
        self._parallel(
            [fill([f for g in groups[i::lanes] for f in g]) for i in range(min(lanes, len(groups)))]
        )
        self._parallel([self._fsync_mounts(0, opened)])
        self._parallel([open_all(h) for h in range(self.w.n_hosts)])
        if self.w.faulted:
            plane = self.cluster.fault_plane
            for node in self.cluster.nodes:
                lossy = ChannelFaults(drop=CHANNEL_DROP)
                plane.set_channel(src=node.endpoint, faults=lossy)
                plane.set_channel(dst=node.endpoint, faults=lossy)

    def _fsync_mounts(self, host: int, handles: list) -> Generator:
        """One fsync per mount: the cache's flush_all plus, on /dfs, the
        client's batched creates and sizes (which publishes them to other hosts)."""
        vfs = self.cluster.nodes[host].vfs
        seen = set()
        for of in handles:
            mount = of.path.split("/")[1]
            if mount not in seen:
                seen.add(mount)
                yield from vfs.fsync(of)

    def _thread(self, host: int, calls: list[tuple], phase: Phase, done: list) -> Generator:
        for call in calls:
            yield from self._call(host, call, phase)
            done[0] += 1
            if done[0] in self._fault_at:
                self._fault_at[done[0]]()

    def run_phase(self, measured: bool) -> Phase:
        """Run every thread's warm-up slice, or the rest, as a closed loop."""
        phase = Phase()
        lo, hi = (self.n_warm, None) if measured else (0, self.n_warm)
        slices = {k: calls[lo:hi] for k, calls in self.plan.threads.items()}
        total = sum(len(c) for c in slices.values())
        if measured and self.w.faulted:
            self._fault_at = self._fault_schedule(total)
        done = [0]
        env = self.env
        if measured and self.on_window:
            self.on_window(True)
        phase.sim_start = env.now
        ev0, wall0, cpu0 = LOOP_STATS.events, time.perf_counter(), time.process_time()
        self._parallel(
            [self._thread(host, calls, phase, done) for (host, _t), calls in slices.items()]
        )
        phase.host_cpu_s = time.process_time() - cpu0
        phase.host_wall_s = time.perf_counter() - wall0
        phase.events = LOOP_STATS.events - ev0
        phase.sim_end = env.now
        if measured and self.on_window:
            self.on_window(False)
        return phase

    def _fault_schedule(self, total: int) -> dict[int, Callable[[], None]]:
        """One data-server and one KV-shard silent crash, fired when 1/3 and
        2/3 of the measured calls have completed; victims come from the seed."""
        rng = _rng(self.seed, self.w.name, "faults")
        cl = self.cluster
        plane = cl.fault_plane
        ds = cl.dataservers[rng.randrange(len(cl.dataservers))]
        shard = cl.kv_cluster.shards[rng.randrange(cl.params.kv_shards)]

        def crash(target, outage: float) -> Callable[[], None]:
            def fire() -> None:
                now = self.env.now
                self.fault_log.append(f"{target.name}@{now:.6f}")
                plane.crash_at(now, target, restart_at=now + outage, drop=True)

            return fire

        return {total // 3: crash(ds, DS_OUTAGE), 2 * total // 3: crash(shard, KV_OUTAGE)}

    def sweep(self) -> Phase:
        """After a flush, read back every prepared file and every file the
        run wrote, through fresh O_DIRECT handles, and compare every byte."""
        phase = Phase()
        vfs0 = self.cluster.nodes[0].vfs
        targets = {f.fid: f for f in self.plan.prep}
        targets.update(self.written)

        def check(files: list[FileInfo]) -> Generator:
            for f in files:
                phase.attempted += 1
                try:
                    of = yield from vfs0.open(f.path, O_DIRECT)
                    for off in range(0, f.size, self.w.bulk_io):
                        n = min(self.w.bulk_io, f.size - off)
                        data = yield from vfs0.read(of, off, n)
                        if data != file_bytes(f.fid, off, n):
                            raise ValueError(f"wrong bytes at {off}")
                except Exception as exc:
                    phase.failures.append(("sweep", f"{f.path}: {type(exc).__name__}: {exc}"))

        # the sweep checks durable state: no injected faults, modest fan-out
        self.cluster.fault_plane.enabled = False
        self._parallel(
            [self._fsync_mounts(h, list(t.values())) for h, t in enumerate(self.handles)]
        )
        lanes = self.w.bulk_lanes
        files = list(targets.values())
        self._parallel([check(files[i::lanes]) for i in range(lanes)])
        return phase
