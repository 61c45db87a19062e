"""``python -m repro.experiments <name> [--reduced] [--no-json]``."""

from . import hedge, kvflash, multidev, scaleout, slo
from .sweep import main

SWEEPS = (
    scaleout.SWEEP,
    multidev.SWEEP,
    kvflash.INLINE,
    kvflash.ELASTIC,
    slo.SWEEP,
    hedge.SWEEP,
)

if __name__ == "__main__":
    raise SystemExit(main(SWEEPS))
