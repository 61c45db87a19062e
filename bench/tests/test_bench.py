"""Checks of the benchmark itself (not of the program it measures).

    python -m pytest bench/tests -q

Every workload runs once, untraced and traced, at 2 % of its op count.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import metrics  # noqa: E402
import run  # noqa: E402

SCALE = 0.02
SECONDS = run.SPEC["run_seconds"]


@pytest.fixture(scope="module")
def results() -> dict[str, dict]:
    return {
        name: run.run_workload(name, 42, SECONDS, SCALE, trace=True, setups=1)
        for name in run.WORKLOAD_NAMES
    }


def test_benchmark_json_lists_the_metric_tables():
    spec = run.SPEC
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == (
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.PER_LAYER
    assert all(m["better"] == metrics.better(m["name"]) for m in spec["per_layer"])
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


def test_every_listed_metric_is_emitted_and_verified(results):
    for name, res in results.items():
        assert res["problems"] == [], (name, res["problems"], res["sweep_failures"])
        assert set(res["end_to_end"]) == {m["name"] for m in run.SPEC["end_to_end"]}, name
        assert set(res["per_layer"]) == {m["name"] for m in run.SPEC["per_layer"]}, name
        assert res["failed"] == 0 and res["sweep_files"] > 0, name
        # (at 2 % a thread's 5 % share of a kind can be no call at all, so only
        # the full-size run can promise that no end-to-end metric is 0)
        assert all(v >= 0 for v in res["end_to_end"].values()), (name, res["end_to_end"])
        assert res["end_to_end"]["sim_ops_per_s"] > 0 and res["end_to_end"]["setup_s"] > 0


def test_self_times_are_non_negative_and_telescope(results):
    for name, res in results.items():
        tr = res["trace"]
        assert tr["client_ops"] == res["attempted"], name
        assert tr["min_self_us"] > -1e-6, (name, tr)
        assert tr["attributed_self_us"] == pytest.approx(tr["client_latency_us"], rel=1e-3), name
        assert all(
            v >= 0 for k, v in res["per_layer"].items() if k.endswith("_us_per_op")
        ), name


def test_bypassed_layers_see_no_calls(results):
    def calls(workload: str, layer: str) -> float:
        return results[workload]["per_layer"][f"{layer}.calls_per_op"]

    for w in ("kvfs_direct", "dfs_ec"):
        assert calls(w, "cache.hostplane") == 0
    assert calls("dfs_ec", "kv.client") == 0
    for w in ("kvfs_direct", "cache_buffered"):
        assert calls(w, "dfs.stripeio") == 0 and calls(w, "ec") == 0
    for w in ("kvfs_direct", "cache_buffered", "dfs_ec"):
        assert results[w]["per_layer"]["fault.requests.hedge_frac"] == 0
    # and the layers each workload exists for are reached
    assert calls("kvfs_direct", "kv.client") > 0
    assert calls("cache_buffered", "cache.hostplane") > 0
    assert calls("dfs_ec", "ec") > 0
    assert calls("cluster_faulted", "obsv") > 0


def test_a_corrupted_read_is_a_failed_op():
    res = run.spawn("kvfs_direct", 42, SECONDS, SCALE, "--corrupt-read")
    assert res["failed"] >= 1 and res["wrong_bytes"] >= 1
    assert ("read", "wrong-bytes") in [tuple(f) for f in res["failures"]]
