#!/usr/bin/env python3
"""nvme-fs vs virtio-fs: the raw host-DPU transport microbenchmark.

The §4.1 rig: both transports answer from the in-memory virtual client in
the DPU, so everything measured is protocol cost.  Prints per-op DMA
transaction counts (the Figure 2(b)/Figure 4 argument) and the round-trip
latency / IOPS / bandwidth comparison of Figure 6.

Run:  python examples/raw_transport.py
"""

from repro.experiments import fig2_dma, fig6_raw, sweep
from repro.metrics.stats import fmt_iops


def main() -> None:
    print("DMA transactions per 8 KiB write:")
    for kind in ("virtio-fs", "nvme-fs"):
        counts = fig2_dma.count_dmas(kind, "write", 8192)
        tags = ", ".join(f"{k}x{v}" for k, v in sorted(counts["by_tag"].items())
                         if k not in ("sq-doorbell", "virtio-kick", "cq-irq", "used-irq"))
        print(f"  {kind:>9}: {counts['ops']:2d}  ({tags})")
    print()

    print("Round trip & IOPS (8 KiB):")
    for kind in ("virtio-fs", "nvme-fs"):
        one = fig6_raw.run_one(kind, "write", 8192, 1, 40)
        many = fig6_raw.run_one(kind, "write", 8192, 32, 30)
        print(
            f"  {kind:>9}: 1 thread {one['lat_us']:5.1f}us,  "
            f"32 threads {fmt_iops(many['iops']):>8} IOPS ({many['lat_us']:5.1f}us)"
        )
    print()

    print("1 MiB sequential bandwidth, 16 threads:")
    for p in sweep.run(fig6_raw.BANDWIDTH):
        transport, rw = p["label"].split("/")[:2]
        print(f"  {transport:>9} {rw:5}: {p['GBs']:5.2f} GB/s")
    print("\n(PCIe 3.0 x16 ceiling is ~15.75 GB/s — nvme-fs saturates it;")
    print(" virtio-fs is stuck behind its single queue and page-grained DMA)")


if __name__ == "__main__":
    main()
