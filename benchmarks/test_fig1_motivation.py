"""Bench: Figure 1 — the motivation: optimized fs-client IOPS vs CPU tax."""

from repro.experiments.fig1_motivation import MODES, SWEEP


def test_fig1_motivation(swept):
    d = swept(SWEEP)
    for mode in MODES:
        std = d[f"{mode}/std"]
        opt = d[f"{mode}/opt"]
        # ~4x IOPS improvement (paper: "more than 4 times").
        assert opt["iops"] / std["iops"] > 3.0
        # Several-fold more CPU cores (paper: 4-6x in Fig.1, 6-15x in §4.3).
        ratio = opt["cores"] / max(std["cores"], 1e-9)
        assert 4.0 < ratio < 16.0
