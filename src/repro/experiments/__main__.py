"""``python -m repro.experiments <name> [--reduced] [--no-json]``."""

from . import (
    ablations,
    fault_ablation,
    fig1_motivation,
    fig2_dma,
    fig6_raw,
    fig7_standalone,
    fig8_cache,
    fig9_dfs,
    hedge,
    kvflash,
    multidev,
    scaleout,
    slo,
    table2_bandwidth,
)
from .sweep import main

#: the paper's figures and tables first, then the sweeps beyond the paper
SWEEPS = (
    fig1_motivation.SWEEP,
    fig2_dma.SWEEP,
    fig6_raw.IOPS,
    fig6_raw.BANDWIDTH,
    fig7_standalone.SWEEP,
    fig8_cache.WRITES,
    fig8_cache.PREFETCH,
    fig9_dfs.SWEEP,
    table2_bandwidth.SWEEP,
    ablations.QUEUES,
    ablations.PLACEMENT,
    ablations.DELEGATIONS,
    ablations.EC_GEOMETRY,
    fault_ablation.SWEEP,
    scaleout.SWEEP,
    multidev.SWEEP,
    kvflash.INLINE,
    kvflash.ELASTIC,
    slo.SWEEP,
    hedge.SWEEP,
)

if __name__ == "__main__":
    raise SystemExit(main(SWEEPS))
