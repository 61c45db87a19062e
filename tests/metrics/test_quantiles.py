"""Quantile estimation accuracy: DDSketch-style sketches and log2 histograms.

The sketch's contract is a *relative* error bound of ``alpha`` against the
exact quantile of the observed multiset; the log2 histogram's is a
log-linear interpolation that stays inside the bucket holding the exact
rank.  Both are checked against sorted-array references on seeded samples.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.obsv.metrics import Log2Histogram, Registry
from repro.obsv.quantiles import (
    NULL_HUB,
    QUANTILE_LABELS,
    QuantileSketch,
    SketchHub,
)

QS = (0.5, 0.9, 0.95, 0.99, 0.999)


def _exact(sorted_vals, q):
    return sorted_vals[int(q * (len(sorted_vals) - 1))]


def _samples(n=5000, seed=7):
    rng = random.Random(seed)
    # lognormal latencies in the us..ms range, like the simulator produces
    return [rng.lognormvariate(0.0, 1.5) * 1e-4 for _ in range(n)]


# ---------------------------------------------------------------------------
# QuantileSketch
# ---------------------------------------------------------------------------

def test_sketch_relative_error_vs_sorted_reference():
    vals = _samples()
    sk = QuantileSketch("lat", alpha=0.02)
    for v in vals:
        sk.observe(v)
    vals.sort()
    for q in QS:
        exact = _exact(vals, q)
        est = sk.quantile(q)
        assert abs(est - exact) / exact <= sk.alpha + 1e-9, (q, est, exact)


def test_sketch_alpha_bound_holds_for_coarser_sketches():
    vals = _samples(2000, seed=11)
    for alpha in (0.01, 0.05):
        sk = QuantileSketch("lat", alpha=alpha)
        for v in vals:
            sk.observe(v)
        ref = sorted(vals)
        for q in QS:
            exact = _exact(ref, q)
            assert abs(sk.quantile(q) - exact) / exact <= alpha + 1e-9


def test_sketch_merge_equals_combined_stream():
    a_vals, b_vals = _samples(1500, seed=3), _samples(1500, seed=4)
    a, b, c = (QuantileSketch("x", alpha=0.02) for _ in range(3))
    for v in a_vals:
        a.observe(v)
        c.observe(v)
    for v in b_vals:
        b.observe(v)
        c.observe(v)
    a.merge(b)
    assert a.count == c.count == 3000
    assert a.zero_count == c.zero_count
    assert a.buckets == c.buckets
    assert a.min == c.min and a.max == c.max
    for q in QS:
        assert a.quantile(q) == c.quantile(q)


def test_sketch_merge_rejects_mismatched_gamma():
    a = QuantileSketch("x", alpha=0.02)
    b = QuantileSketch("x", alpha=0.05)
    with pytest.raises(ValueError):
        a.merge(b)


def test_sketch_zero_bucket_and_empty_edges():
    sk = QuantileSketch("z")
    assert sk.quantile(0.5) == 0.0  # empty
    for _ in range(9):
        sk.observe(0.0)
    sk.observe(1e-3)
    assert sk.zero_count == 9
    assert sk.quantile(0.5) == 0.0  # rank inside the zero bucket
    assert abs(sk.quantile(1.0) - 1e-3) / 1e-3 <= sk.alpha
    with pytest.raises(ValueError):
        sk.quantile(1.5)
    with pytest.raises(ValueError):
        QuantileSketch("bad", alpha=1.0)


def test_sketch_index_memo_does_not_change_results():
    class TinyMemo(QuantileSketch):
        _MEMO_MAX = 4

    vals = _samples(800, seed=9)
    plain, tiny = QuantileSketch("a"), TinyMemo("b")
    for v in vals:
        plain.observe(v)
        tiny.observe(v)
    assert plain.buckets == tiny.buckets
    assert len(tiny._idx_memo) <= TinyMemo._MEMO_MAX
    for q in QS:
        assert plain.quantile(q) == tiny.quantile(q)


def _sorting_quantile(sk, q):
    """The sketch's quantile as it was first written: sort every bucket
    key on each read."""
    if sk.count == 0:
        return 0.0
    rank = int(q * (sk.count - 1))
    if rank < sk.zero_count:
        return 0.0
    cum = sk.zero_count
    for i in sorted(sk.buckets):
        cum += sk.buckets[i]
        if cum > rank:
            return 2.0 * sk.gamma ** i / (sk.gamma + 1.0)
    return sk.max


_latency = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-9, max_value=10.0, allow_nan=False),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_latency, max_size=300),
    st.lists(_latency, max_size=100),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
)
def test_sketch_sorted_keys_match_sorting_reference(stream, other, qs):
    sk = QuantileSketch("h")
    for v in stream:
        sk.observe(v)
    for q in qs:
        assert sk.quantile(q) == _sorting_quantile(sk, q)
    # a merge, then more observations, keep the key list in step
    extra = QuantileSketch("o")
    for v in other:
        extra.observe(v)
    sk.merge(extra)
    for v in other:
        sk.observe(v)
    assert sk._keys == sorted(sk.buckets)
    for q in (*qs, *QS):
        assert sk.quantile(q) == _sorting_quantile(sk, q)


def test_sketch_snapshot_labels():
    sk = QuantileSketch("s")
    for v in (1e-5, 2e-5, 3e-5):
        sk.observe(v)
    snap = sk.snapshot()
    assert snap["count"] == 3.0
    for label, q in QUANTILE_LABELS:
        assert snap[label] == sk.quantile(q)


def test_sketch_same_stream_is_bit_identical():
    s1, s2 = QuantileSketch("d"), QuantileSketch("d")
    for v in _samples(1000, seed=21):
        s1.observe(v)
    for v in _samples(1000, seed=21):
        s2.observe(v)
    assert s1.buckets == s2.buckets
    assert s1.snapshot() == s2.snapshot()


# ---------------------------------------------------------------------------
# SketchHub
# ---------------------------------------------------------------------------

def test_hub_creates_sketches_lazily_and_collects_microseconds():
    hub = SketchHub(alpha=0.02)
    for _ in range(100):
        hub.observe("kv.rpc.get", 50e-6)
    hub.observe("net.send", 5e-6)
    assert hub.names() == ["kv.rpc.get", "net.send"]
    assert hub.total("kv.rpc.get") == pytest.approx(100 * 50e-6)
    assert hub.total("missing") == 0.0
    assert hub.quantile("missing", 0.99, default=-1.0) == -1.0
    snap = hub.collect()
    assert snap["lat.kv.rpc.get.count"] == 100
    assert snap["lat.net.send.count"] == 1
    for label, _ in QUANTILE_LABELS:
        assert f"lat.kv.rpc.get.{label}" in snap
    # us scaling with the sketch's relative error
    assert snap["lat.kv.rpc.get.p99"] == pytest.approx(50.0, rel=0.03)


def test_hub_subscribers_see_every_observation():
    hub = SketchHub()
    seen = []
    hub.subscribe(lambda name, s: seen.append((name, s)))
    hub.observe("a", 1e-6)
    hub.observe("b", 2e-6)
    assert seen == [("a", 1e-6), ("b", 2e-6)]


def test_hub_feeds_registry_snapshot():
    reg = Registry("t")
    hub = SketchHub()
    reg.collect(hub.collect)
    hub.observe("client.read", 10e-6)
    snap = reg.snapshot()
    assert snap["lat.client.read.count"] == 1


def test_null_hub_is_inert():
    NULL_HUB.observe("x", 1.0)
    assert NULL_HUB.names() == []
    assert NULL_HUB.total("x") == 0.0
    assert NULL_HUB.quantile("x", 0.99, default=3.0) == 3.0
    assert NULL_HUB.collect() == {}
    assert not NULL_HUB.enabled


# ---------------------------------------------------------------------------
# Log2Histogram.quantile
# ---------------------------------------------------------------------------

def test_log2_quantile_stays_in_exact_quantile_bucket():
    rng = random.Random(13)
    h = Log2Histogram("lat_us", scale=1.0)
    vals = [rng.lognormvariate(3.0, 1.2) for _ in range(4000)]
    for v in vals:
        h.observe(v)
    vals.sort()
    for q in QS:
        exact = _exact(vals, q)
        lo, hi = Log2Histogram.bucket_bounds(Log2Histogram.bucket_index(exact))
        if hi == math.inf:
            hi = 2.0 * lo
        est = h.quantile(q)
        assert lo <= est <= hi, (q, est, exact, lo, hi)


def test_log2_quantile_is_monotone_and_handles_edges():
    h = Log2Histogram("x")
    assert h.quantile(0.5) == 0.0
    for v in (1.0, 3.0, 9.0, 40.0, 900.0):
        h.observe(v)
    qs = [h.quantile(q) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert qs == sorted(qs)
    with pytest.raises(ValueError):
        h.quantile(-0.1)


def test_log2_quantiles_appear_in_registry_snapshot():
    reg = Registry("t")
    h = reg.histogram("lat", scale=1e6)
    for v in (10e-6, 20e-6, 30e-6, 400e-6):
        h.observe(v)
    snap = reg.snapshot()
    assert snap["lat.p50"] == h.quantile(0.50)
    assert snap["lat.p99"] == h.quantile(0.99)
    assert snap["lat.count"] == 4
