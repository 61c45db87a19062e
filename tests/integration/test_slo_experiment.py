"""SLO burn-rate experiment + extended report CLI coverage.

The fault-ablation schedules drive the whole stack, so these tests double
as end-to-end checks that the sketch hub, SLO engine, and bottleneck
attribution cooperate on a real workload.
"""

import json

from repro.experiments import sweep
from repro.experiments.slo import DEFAULT_SPEC, LAYERS, SWEEP, run_variant
from repro.obsv import disable_tracing, get_context
from repro.obsv.report import layer_breakdown, run_experiment


def test_healthy_variant_stays_within_budget():
    r = run_variant("healthy")
    assert r["availability"] == 1.0
    assert r["breaches"] == 0
    assert r["bottleneck"] == "none"
    assert r["budget_remaining"] == 1.0
    assert r["observations"] > 0 and r["bad"] == 0


def test_degraded_variant_burns_and_names_the_dataserver():
    r = run_variant("degraded")
    assert r["breaches"] > 0
    assert r["max_burn_rate"] > 2.0
    assert r["budget_remaining"] < 1.0
    # reconstruction reads the survivor units over ds.rpc: the data-server
    # layer grows fastest across the breaching windows
    assert r["bottleneck"] == "dataserver"


def test_sketch_p99_tracks_exact_p99_per_variant():
    for variant in ("healthy", "degraded"):
        r = run_variant(variant)
        assert abs(r["sketch_p99_us"] - r["p99_us"]) / r["p99_us"] <= 0.05


def test_slo_runs_are_deterministic():
    assert run_variant("degraded") == run_variant("degraded")


def test_layers_cover_the_spec_endpoint():
    # the attributed layers telescope out of the client read path
    assert DEFAULT_SPEC.endpoint == "client.read"
    includes = {n for inc, _ in LAYERS.values() for n in inc}
    assert "ds.rpc" in includes and "net.send" in includes


def test_sweep_write_emits_per_variant_metrics(tmp_path):
    points = [run_variant("healthy")]
    out = sweep.write([(SWEEP, points)], path=tmp_path / "BENCH_slo.json")
    data = json.loads(out.read_text())
    assert data["schema"] == 2
    m = data["metrics"]
    assert m["healthy/breaches"] == 0
    assert "healthy/max_burn_rate" in m
    assert "healthy/bottleneck" in m


def test_report_cli_covers_new_experiments():
    # each new --experiment choice must build traced systems whose client
    # ops roll up into the layer breakdown
    for exp in ("scaleout", "kvflash", "multidev"):
        try:
            run_experiment(exp, None, threads=2, ops=2)
            ctx = get_context()
            assert ctx.systems, exp
            tracers = ctx.tracers()
            assert tracers, exp
            ops = sum(layer_breakdown(t)["ops"] for t in tracers)
            assert ops > 0, exp
        finally:
            disable_tracing()
