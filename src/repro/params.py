"""Calibration parameters for the DPC reproduction.

Every latency/bandwidth/CPU-cost constant in the simulation lives here, in a
single frozen dataclass, so experiments are reproducible and the calibration
is auditable.  Values are derived from the paper's Table 1 and the §4 text
(see DESIGN.md §4); they are set **once** against Figure 6's single-thread
latencies and then held fixed for every other experiment.

The parameters deliberately model *mechanism costs*, not end results: e.g.
nvme-fs latency is not a parameter — it emerges from SQE build cost + one
doorbell + the DMA count of the real ring walk.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

__all__ = ["SystemParams", "default_params"]

KiB = 1024
MiB = 1024 * 1024
GiB = 1024 * 1024 * 1024
US = 1e-6  # one microsecond, in seconds


@dataclass(frozen=True)
class SystemParams:
    """All tunables of the simulated testbed (paper Table 1 defaults)."""

    # ---- host CPU (Intel Xeon Gold 6230R: 26 physical cores) --------------
    host_cores: int = 26
    host_switch_cost: float = 0.6 * US
    #: CPU time for syscall entry/exit + VFS dispatch
    syscall_cost: float = 1.2 * US
    #: CPU time for the fs-adapter to build/parse one nvme-fs command
    fs_adapter_cost: float = 0.8 * US
    #: CPU time for the FUSE layer to build/parse one FUSE message (the
    #: "overburdened" queue structure of §2.3-M2)
    fuse_request_cost: float = 3.0 * US
    #: host-side per-page memcpy cost (page cache / hybrid cache data plane)
    host_copy_per_4k: float = 0.35 * US

    # ---- DPU (Huawei QingTian: 24 TaiShan cores @ 2.0 GHz) ------------------
    dpu_cores: int = 24
    #: TaiShan core speed relative to the Xeon reference core
    dpu_perf: float = 0.6
    dpu_switch_cost: float = 0.9 * US
    #: DPU CPU time to parse an SQE and dispatch it (IO_Dispatch)
    dpu_dispatch_cost: float = 0.7 * US
    #: DPU CPU time to process one virtio-fs/FUSE message (DPFS-HAL + DPFS-FUSE)
    dpu_fuse_hal_cost: float = 1.6 * US
    #: DPU CPU time for one full KVFS operation (request parse, key build,
    #: checksums, buffer management).  TaiShan cores are wimpy (perf=0.6),
    #: so this reference-core figure lands at ~33 us of DPU-core time —
    #: which is what makes the DPU CPU the KVFS bottleneck at 128 threads
    #: (paper §4.2).
    dpu_kv_op_cost: float = 20.0 * US
    #: DPU CPU time per cache-control action (lookup/replacement decision)
    dpu_cache_ctrl_cost: float = 0.5 * US

    # ---- PCIe 3.0 x16 ----------------------------------------------------------
    pcie_latency: float = 2.7 * US  # small-TLP DMA completion round trip
    pcie_bandwidth: float = 15.75e9  # bytes/s
    pcie_engines: int = 4
    #: extra link occupancy per 4 KiB page for page-granular (virtio)
    #: scatter-gather transfers; nvme-fs PRP bursts avoid it
    pcie_page_setup: float = 0.35 * US
    #: host CPU to wake the blocked submitter on completion
    completion_wakeup_cost: float = 2.0 * US
    #: host memory arena backing rings + hybrid cache + PRP buffers
    host_arena_bytes: int = 512 * MiB

    # ---- local NVMe SSD (Huawei ES3600P V5) ------------------------------------
    ssd_read_latency: float = 88 * US
    ssd_write_latency: float = 14 * US
    ssd_channels: int = 16
    ssd_bandwidth: float = 3.2e9
    ssd_max_iops: float = 360_000.0

    # ---- multi-NVMe striped data plane (see DESIGN.md §13) ----------------------
    #: NVMe SSDs fronted by each node's data plane.  1 keeps the historical
    #: single-device wiring bit-identical (no striping wrapper at all);
    #: N >= 2 builds a RAID0-style array striped at ``nvme_stripe_unit``.
    nvme_devices_per_node: int = 1
    #: stripe-unit size in bytes (must be a multiple of the 4 KiB block)
    nvme_stripe_unit: int = 64 * KiB
    #: +/- relative service-latency spread applied per command on array
    #: members only (each from its own seeded substream), so striped devices
    #: do not tick in lockstep.  Single-device planes never draw from it.
    nvme_latency_jitter: float = 0.05

    # ---- Ext4 host CPU model ------------------------------------------------------
    #: base host CPU per Ext4 I/O (bio build, journal, block layer, IRQ)
    ext4_op_cpu_base: float = 6.0 * US
    #: per-runnable-thread contention surcharge (inode/journal lock bouncing
    #: + scheduler load) — drives Ext4's >90% host CPU at 256 threads
    ext4_contention_cpu: float = 0.26 * US
    #: extra per-thread CPU on the read path (long 88us sleeps mean deeper
    #: scheduler churn and readahead thrashing than the buffered write path)
    ext4_read_contention_cpu: float = 0.22 * US
    #: Ext4 splits large I/O into bios of this size, pipelined by readahead
    ext4_max_bio: int = 256 * KiB

    # ---- RDMA fabric -------------------------------------------------------------
    net_latency: float = 4.0 * US  # one-way
    net_bandwidth: float = 12.5e9  # 100 Gbps per endpoint

    # ---- disaggregated KV store ---------------------------------------------------
    kv_shards: int = 8
    kv_server_threads: int = 16
    #: server-side service time for a point get/put (excl. network + payload).
    #: Gets are backend-media bound (the store's own flash), puts land in a
    #: replicated log: that is why KVFS loses to local Ext4 below ~64 threads
    #: (paper Figure 7) despite the faster client stack.
    kv_get_service: float = 110.0 * US
    kv_put_service: float = 30.0 * US
    #: small values (metadata: attrs, inode entries, file objects) are hot in
    #: the store's memtable/cache tier and served much faster than data blocks
    kv_meta_get_service: float = 12.0 * US
    kv_meta_put_service: float = 14.0 * US
    #: values below this size take the metadata service path
    kv_meta_value_limit: int = 2048
    kv_scan_service_per_item: float = 0.8 * US
    #: per-shard LSM memtable flush threshold
    kv_memtable_bytes: int = 4 * MiB
    kv_server_bandwidth: float = 9.0e9  # per-shard payload bandwidth
    #: aggregate backend limit used in Table 2 ("limited by the read/write
    #: performance of our disaggregated KV store")
    kv_backend_read_bw: float = 8.0e9
    kv_backend_write_bw: float = 5.5e9

    # ---- flash-costed KV engine (see DESIGN.md §14) ------------------------------
    #: model the shard's flash device explicitly: page reads/writes and
    #: erase-block GC charged on the simulated clock instead of the fixed
    #: get/put service split above.  False keeps the historical fixed-cost
    #: path bit-identical.
    kv_flash_model: bool = False
    kv_flash_page: int = 4 * KiB
    kv_flash_read_us: float = 35.0 * US  # one flash page read
    kv_flash_write_us: float = 60.0 * US  # one flash page program
    kv_flash_erase_us: float = 2000.0 * US  # one erase-block erase
    kv_flash_block_pages: int = 64  # pages per erase block
    #: fraction of still-live pages the GC must relocate per reclaimed block
    kv_flash_gc_live: float = 0.2
    #: cached mapping table: K2P entries held in shard DRAM.  A miss costs a
    #: translation-page flash read before the data page can be addressed.
    kv_cmt_entries: int = 4096
    kv_cmt_hit_us: float = 0.3 * US  # DRAM mapping lookup
    #: small-value inlining: values at or below the threshold live inside the
    #: mapping entry itself, so a get needs no data-page read (KVPack-style).
    kv_inline_enabled: bool = False
    kv_inline_max: int = 512  # static threshold / adaptive ceiling
    #: 0 = static threshold; N > 0 re-derives the threshold from the observed
    #: value-size histogram every N engine operations (KVPack-D style)
    kv_inline_adapt_window: int = 0
    #: put-side inlining hints: KVFS declares attr/dentry/small-file keys as
    #: inline candidates end-to-end; hinted values inline up to one flash
    #: page regardless of the size-derived threshold.  False keeps the
    #: size-only behaviour (and the wire ops) bit-identical.
    kv_inline_hints: bool = False

    # ---- elastic KV: hash ring + rebalancer (see DESIGN.md §14) -------------------
    #: route requests through a versioned consistent-hash ring instead of the
    #: static blake2b-mod-N map.  Required for live resharding.  False keeps
    #: modulo routing bit-identical.
    kv_elastic: bool = False
    kv_ring_vnodes: int = 64  # virtual nodes per shard
    #: run the queue-wait-driven rebalancer (requires kv_elastic)
    kv_rebalance: bool = False
    kv_rebalance_interval: float = 2e-3  # seconds between load scans
    #: split the hottest shard when its queue-wait share over one interval
    #: exceeds mean + this multiple of the cross-shard spread
    kv_rebalance_threshold: float = 40.0 * US
    kv_max_shards: int = 32
    #: migration stream: bandwidth and chunk size for live key-range moves
    kv_migrate_bw: float = 2.0e9
    kv_migrate_chunk: int = 256 * KiB

    # ---- KV server idempotency-filter bounds --------------------------------------
    kv_idem_capacity: int = 8192
    #: seconds a memoised response stays replayable; 0 = no TTL (size-bounded
    #: FIFO only, the historical behaviour)
    kv_idem_ttl: float = 0.0

    # ---- DFS backend ----------------------------------------------------------------
    n_mds: int = 4
    n_dataservers: int = 6
    mds_threads: int = 6
    mds_service: float = 14.0 * US  # metadata op service time (home MDS)
    mds_forward_cost: float = 9.0 * US  # entry-MDS proxy CPU + hop
    #: MDS-side EC + small-I/O packing service (standard NFS write path)
    mds_ec_service: float = 26.0 * US
    mds_bandwidth: float = 6.0e9
    ds_threads: int = 12
    ds_read_service: float = 20.0 * US
    ds_write_service: float = 24.0 * US
    ds_bandwidth: float = 6.0e9
    #: erasure code geometry (k data + m parity)
    ec_k: int = 4
    ec_m: int = 2
    #: stripe unit for EC-protected DFS files
    dfs_stripe_unit: int = 8 * KiB
    #: host CPU time to EC-encode one 4K page (client-side EC, Figure 1/9)
    ec_encode_per_4k: float = 2.4 * US
    #: lock/delegation acquire cost when served from the local delegation cache
    delegation_local_cost: float = 0.4 * US
    #: creates committed to the MDS per delegation batch (BatchFS-style)
    deleg_batch: int = 32

    # ---- fs-client CPU models (Figure 1 / Figure 9) -----------------------------------
    #: standard kernel NFS client: sync RPC, XDR encode/decode, inode locking
    #: (writes also push the payload through the RPC stack)
    std_client_cpu_read: float = 15.0 * US
    std_client_cpu_write: float = 40.0 * US
    #: optimized host fs-client (the "datacenter tax" of §1: busy-polling
    #: network threads, checksums, delegation bookkeeping; writes add EC and
    #: replication pipelines — ~30 cores in the paper's IOPS test)
    opt_client_cpu_read: float = 30.0 * US
    opt_client_cpu_write: float = 65.0 * US
    #: the same stack offloaded to the DPU, with hardware-assisted EC
    dpc_dfs_cpu_read: float = 15.0 * US
    dpc_dfs_cpu_write: float = 22.0 * US

    # ---- nvme-fs / virtio-fs protocol geometry ---------------------------------------
    nvme_queue_depth: int = 128
    nvme_num_queues: int = 32  # multi-queue: one per host submitter up to this
    virtio_queue_depth: int = 256
    virtio_num_queues: int = 1  # "current kernel implementations do not support multiple queues"
    #: in-flight chains the single DPFS-HAL thread keeps via async DMA
    virtio_hal_pipeline: int = 12
    sqe_build_cost: float = 0.5 * US  # host CPU to fill a 64-byte SQE
    cqe_handle_cost: float = 0.4 * US

    # ---- nvme-fs transport coalescing (see DESIGN.md "Transport coalescing") --
    #: SQ doorbell write-combining window (seconds).  A submission onto an
    #: otherwise-idle queue pair rings its doorbell immediately; on a busy
    #: queue the MMIO is deferred up to this long so one doorbell carries
    #: the final tail of every submission in the window.  0 disables.
    doorbell_combine_us: float = 1.2 * US
    #: CQE aggregation time (seconds), mirroring NVMe's interrupt-coalescing
    #: aggregation time: completions on a busy queue are held up to this
    #: long and flushed as one contiguous CQE DMA burst + one interrupt.
    #: The holdoff fires immediately when the queue is otherwise idle, so
    #: isolated ops keep their 4-DMA / 1-doorbell / 1-interrupt shape.
    #: 0 disables coalescing entirely.
    cqe_coalesce_us: float = 2.0 * US
    #: CQE aggregation threshold: flush as soon as this many completions
    #: have accumulated, even inside the holdoff window.
    cqe_coalesce_threshold: int = 8

    # ---- hybrid cache -----------------------------------------------------------------
    cache_pages: int = 16384
    cache_page_size: int = 4 * KiB
    cache_buckets: int = 2048
    cache_flush_period: float = 200 * US
    cache_flush_batch: int = 64
    prefetch_window: int = 96  # max pages prefetched ahead on sequential reads

    # ---- cache concurrency (see DESIGN.md §9) -----------------------------------
    #: control-plane shards: the DPU-side cache manager is split into this
    #: many bucket-range shards, each with its own mailbox, server loop,
    #: flusher and replacement policy (one DPU core group per shard).  1
    #: reproduces the serialized seed control plane.
    cache_ctrl_shards: int = 4
    #: seqlock read fast path: host read hits validate a per-entry generation
    #: counter instead of taking the shared lock word (0 lock atomics per
    #: uncontended hit).  False forces the locked read path.
    cache_seqlock: bool = True
    #: host CPU cost of one atomic RMW on a lock word in the shared cache
    #: region.  The line is also targeted by DPU PCIe AtomicOps, so the CAS
    #: pays cross-PCIe cacheline ownership latency, not an L1-local RMW.
    host_atomic_cost: float = 0.15 * US
    #: bounded optimistic retries before a seqlock reader falls back to the
    #: locked path
    seqlock_max_retries: int = 3
    #: adaptive read-ahead: initial window (pages) when a sequential stream
    #: is detected; the window doubles per sequential observation up to
    #: ``prefetch_window`` and collapses back on random access.  One backend
    #: block (2 pages) of slack per doubling is not enough to hide the
    #: claim round trip from a reader hitting in DRAM, so the initial
    #: window spans four blocks: the first ramp boundary then lands while
    #: the stream's compulsory miss is still being served.
    readahead_init_window: int = 8

    # ---- fault plane & recovery (see DESIGN.md §10) -------------------------------------
    #: master seed: workload offsets, fault schedules, backoff jitter — every
    #: stochastic choice in a testbed derives from this one integer
    seed: int = 42
    #: per-RPC deadline for KV / DFS client calls.  0 disables timeouts and
    #: retries entirely (the fail-free fast path: no deadline processes are
    #: created, RPC behaviour is identical to the pre-fault-plane simulator).
    rpc_timeout: float = 0.0
    #: total attempts per logical RPC (first try + retries)
    rpc_retry_max: int = 5
    #: exponential backoff: base delay, per-attempt multiplier, +/- jitter
    rpc_backoff_base: float = 120 * US
    rpc_backoff_mult: float = 2.0
    rpc_backoff_jitter: float = 0.25
    #: nvme-fs initiator retries for transient CQE errors (EAGAIN)
    nvme_retry_max: int = 4
    nvme_retry_backoff: float = 15 * US
    #: MDS delegation lease duration; an expired lease is reclaimable by any
    #: other client (MDS-driven recall on client failure)
    deleg_lease: float = 30.0
    #: deadline for the MDS's recall RPC to a stale delegation's owner; a
    #: crashed/unreachable owner costs at most this before the contender is
    #: granted (the expired lease is authoritative either way)
    deleg_recall_timeout: float = 5e-3
    #: cache write-back circuit breaker: consecutive flusher failures before
    #: opening, and how long to stay open before admitting a probe
    breaker_failures: int = 3
    breaker_reset: float = 2e-3
    #: simulated cost to replay one WAL record during KV crash recovery
    kv_wal_replay_per_entry: float = 2 * US
    #: data-server restart cost (process respawn + re-register)
    ds_restart_delay: float = 500 * US

    # ---- unified request engine: hedging / tied requests / adaptive retry -------
    # (see DESIGN.md §16).  Hedging and adaptive retry default off.  Every call
    # with a retry policy (rpc_timeout > 0) runs the engine's one race loop.
    #: hedge a second attempt after a p99-derived per-endpoint delay
    req_hedging: bool = False
    req_hedge_quantile: float = 0.99
    req_hedge_multiplier: float = 1.0
    #: clamp the derived hedge delay into [floor, ceiling] seconds
    req_hedge_floor: float = 30e-6
    req_hedge_ceiling: float = 2e-3
    #: extra attempts one logical request may hedge
    req_hedge_max: int = 1
    #: sketch observations required before an endpoint's quantiles are used
    req_hedge_min_obs: int = 16
    #: cancel the losing tied attempt on the wire (fabric cancel message)
    req_tied_cancel: bool = True
    #: p50-paced backoff and per-endpoint retry budgets
    req_adaptive_retry: bool = False
    #: retries allowed per endpoint: budget_min + budget_ratio * attempts
    req_budget_ratio: float = 0.1
    req_budget_min: int = 8
    #: first-attempt deadline = quantile * multiplier, clamped into
    #: [req_hedge_floor, rpc_timeout]; used once the endpoint's sketch holds
    #: ceil(10 / (1 - quantile)) observations, rpc_timeout until then
    req_timeout_quantile: float = 0.99
    req_timeout_multiplier: float = 3.0

    # ---- SLO engine & streaming quantile sketches (see DESIGN.md §15) -------------------
    #: feed per-endpoint DDSketch-style quantile sketches from the choke
    #: points (dispatch, KV client/shard, stripe I/O, MDS, cache control,
    #: fabric send, client ops) and expose lat.*.p50/p95/p99/p999 in every
    #: registry snapshot.  Observation never touches the sim clock or RNG,
    #: but the extra snapshot keys mean the default stays off to keep the
    #: golden signatures bit-identical.
    obsv_sketches: bool = False
    #: sketch relative-error bound (DDSketch alpha)
    obsv_sketch_alpha: float = 0.02
    #: tail-based trace sampling: keep full span trees only for client ops
    #: above their name's observed obsv_tail_quantile, plus a deterministic
    #: 1-in-obsv_tail_baseline floor and an obsv_tail_warmup ramp
    obsv_tail_sample: bool = False
    obsv_tail_quantile: float = 0.95
    obsv_tail_baseline: int = 32
    obsv_tail_warmup: int = 16

    # ---- file geometry ------------------------------------------------------------------
    small_file_threshold: int = 8 * KiB  # KVFS small-file KV limit
    kvfs_block_size: int = 8 * KiB  # big-file in-place update granularity

    def with_overrides(self, **kw) -> "SystemParams":
        """Return a copy with selected fields replaced."""
        return replace(self, **kw)


def default_params() -> SystemParams:
    """The paper-calibrated testbed (Table 1).

    ``REPRO_SEED`` in the environment overrides the master seed — the hook
    CI's chaos-smoke matrix uses to replay the fault suite at several fixed
    seeds without touching any test code.
    """
    p = SystemParams()
    seed = os.environ.get("REPRO_SEED")
    if seed is not None:
        p = p.with_overrides(seed=int(seed))
    return p
