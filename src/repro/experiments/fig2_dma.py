"""Figure 2(b) / Figure 4: DMA operation counts per file operation.

The paper's core protocol argument: an 8 KB write costs **11** DMA
operations over virtio-fs (avail idx + avail entry + 4 descriptor reads +
command read + data read + response write + used entry + used idx) but only
**4** over nvme-fs (SQE fetch + header read + data read + CQE write).

This experiment executes single operations through the *real* ring walks and
counts the PCIe transactions each one generated — including the control
TLPs (doorbell MMIOs and completion interrupts) that do not count as DMAs
but do occupy the link: an isolated nvme-fs op costs exactly one of each.

Declared as a :class:`~repro.experiments.sweep.Sweep`::

    python -m repro.experiments fig2
"""

from __future__ import annotations

from typing import Optional

from ..core.testbeds import build_raw_transport
from ..obsv.metrics import Registry
from ..params import SystemParams
from .sweep import Column, Sweep

__all__ = ["count_dmas", "SWEEP"]

_TAG_PREFIX = "pcie.by_tag."


def count_dmas(
    kind: str, rw: str, size: int, params: Optional[SystemParams] = None
) -> dict:
    """Execute one op on a fresh rig; return its transaction counters.

    Counters are read through the rig's metrics registry: snapshot before,
    snapshot after, numeric delta.
    """
    rig = build_raw_transport(kind, params=params)
    block = b"\x5a" * size

    def flow():
        if rw == "read":
            yield from rig.adapter.write(1, 0, block, 0)  # stage the data
        snap = rig.registry.snapshot()
        if rw == "read":
            yield from rig.adapter.read(1, 0, size, 0)
        else:
            yield from rig.adapter.write(1, 0, block, 0)
        d = Registry.delta(rig.registry.snapshot(), snap)
        return {
            "label": f"{kind}/{rw}/{size}",
            "ops": d["pcie.ops"],
            "by_tag": {
                k[len(_TAG_PREFIX):]: v
                for k, v in d.items()
                if k.startswith(_TAG_PREFIX) and v
            },
            "doorbells": d["pcie.doorbells"],
            "interrupts": d["pcie.interrupts"],
            "control_tlps": d["pcie.control_tlps"],
        }

    return rig.run_until(flow())


SWEEP = Sweep(
    name="fig2",
    title="Figure 2(b)/Figure 4: DMA operations per request",
    point=count_dmas,
    points=tuple(
        {"kind": kind, "rw": rw, "size": size}
        for kind in ("virtio-fs", "nvme-fs")
        for rw in ("write", "read")
        for size in (4096, 8192, 65536)
    ),
    columns=(
        Column("label", "op", written=False),
        Column("ops", "dma_ops"),
        Column("doorbells", "doorbells"),
        Column("interrupts", "interrupts"),
    ),
    notes=(
        "paper: 8KB write = 11 DMAs (virtio-fs) vs 4 DMAs (nvme-fs)",
        "isolated nvme-fs op: 1 doorbell + 1 interrupt (no coalescing delay)",
    ),
)
