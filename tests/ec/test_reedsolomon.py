"""Reed-Solomon and stripe-layout tests, including erasure property tests."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.ec import ECError, ReedSolomon, StripeLayout


def test_systematic_identity_top_block():
    rs = ReedSolomon(4, 2)
    import numpy as np

    assert np.array_equal(rs.matrix[:4, :], np.eye(4, dtype=np.uint8))


def test_encode_produces_m_parities():
    rs = ReedSolomon(4, 2)
    data = [bytes([i]) * 16 for i in range(4)]
    parity = rs.encode(data)
    assert len(parity) == 2
    assert all(len(p) == 16 for p in parity)


def test_decode_all_data_present_is_identity():
    rs = ReedSolomon(3, 2)
    data = [b"aaaa", b"bbbb", b"cccc"]
    parity = rs.encode(data)
    out = rs.decode(data + parity)
    assert out == data


def test_recover_from_any_m_erasures():
    rs = ReedSolomon(4, 2)
    data = [bytes(range(i, i + 32)) for i in range(4)]
    shards = data + rs.encode(data)
    for lost in itertools.combinations(range(6), 2):
        damaged = [None if i in lost else shards[i] for i in range(6)]
        assert rs.decode(damaged) == data


def test_too_many_erasures_rejected():
    rs = ReedSolomon(4, 2)
    data = [b"x" * 8] * 4
    shards = data + rs.encode(data)
    damaged = [None, None, None] + shards[3:]
    with pytest.raises(ECError, match="unrecoverable"):
        rs.decode(damaged)


def test_reconstruct_single_parity_shard():
    rs = ReedSolomon(4, 2)
    data = [bytes([i * 3]) * 8 for i in range(4)]
    shards = data + rs.encode(data)
    for idx in range(6):
        damaged = list(shards)
        damaged[idx] = None
        rebuilt = rs.reconstruct_shard(damaged, idx)
        assert rebuilt == shards[idx]


def test_encode_stripe_pads_and_roundtrips():
    rs = ReedSolomon(4, 2)
    payload = b"hello erasure coded world"
    shards = rs.encode_stripe(payload)
    assert len(shards) == 6
    recovered = rs.decode_stripe(shards, len(payload))
    assert recovered == payload


def test_bad_geometry_rejected():
    with pytest.raises(ECError):
        ReedSolomon(0, 2)
    with pytest.raises(ECError):
        ReedSolomon(200, 100)


def test_unequal_shards_rejected():
    rs = ReedSolomon(2, 1)
    with pytest.raises(ECError):
        rs.encode([b"aa", b"a"])


def test_wrong_shard_count_rejected():
    rs = ReedSolomon(2, 1)
    with pytest.raises(ECError):
        rs.encode([b"aa"])
    with pytest.raises(ECError):
        rs.decode([b"aa", b"aa"])


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 6),
    m=st.integers(1, 3),
    payload=st.binary(min_size=1, max_size=256),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_erasure_recovery_property(k, m, payload, seed):
    """Any k surviving shards reconstruct the payload exactly."""
    import random

    rs = ReedSolomon(k, m)
    shards = rs.encode_stripe(payload)
    rng = random.Random(seed)
    lost = set(rng.sample(range(k + m), m))
    damaged = [None if i in lost else shards[i] for i in range(k + m)]
    assert rs.decode_stripe(damaged, len(payload)) == payload


# ------------------------------------------------- exhaustive (4, 2) coverage
#: a payload that is distinct per byte position and not unit-aligned
_PAYLOAD42 = bytes((i * 31 + 7) & 0xFF for i in range(101))


@pytest.mark.parametrize(
    "lost",
    [()]
    + [(i,) for i in range(6)]
    + list(itertools.combinations(range(6), 2)),
    ids=lambda lost: "none" if not lost else "x".join(map(str, lost)),
)
def test_every_erasure_pattern_decodes_bit_exact(lost):
    """All C(6,0)+C(6,1)+C(6,2) erasure patterns at (4, 2) round-trip."""
    rs = ReedSolomon(4, 2)
    shards = rs.encode_stripe(_PAYLOAD42)
    damaged = [None if i in lost else shards[i] for i in range(6)]
    assert rs.decode_stripe(damaged, len(_PAYLOAD42)) == _PAYLOAD42


@pytest.mark.parametrize(
    "survivors",
    list(itertools.combinations(range(6), 4)),
    ids=lambda s: "s" + "".join(map(str, s)),
)
def test_exactly_k_survivors_reconstruct(survivors):
    """Any k=4 of the 6 shards suffice — including parity-only mixes."""
    rs = ReedSolomon(4, 2)
    shards = rs.encode_stripe(_PAYLOAD42)
    damaged = [shards[i] if i in survivors else None for i in range(6)]
    assert rs.decode_stripe(damaged, len(_PAYLOAD42)) == _PAYLOAD42


@pytest.mark.parametrize(
    "survivors",
    list(itertools.combinations(range(6), 3)),
    ids=lambda s: "s" + "".join(map(str, s)),
)
def test_k_minus_one_survivors_fail_cleanly(survivors):
    """Three survivors can never reconstruct: a clean, typed error."""
    rs = ReedSolomon(4, 2)
    shards = rs.encode_stripe(_PAYLOAD42)
    damaged = [shards[i] if i in survivors else None for i in range(6)]
    with pytest.raises(ECError, match="unrecoverable"):
        rs.decode_stripe(damaged, len(_PAYLOAD42))


# ---------------------------------------------------------------- StripeLayout
def test_layout_requires_enough_servers():
    rs = ReedSolomon(4, 2)
    with pytest.raises(ECError):
        StripeLayout(rs, 4096, n_servers=5)


def test_layout_stripe_math():
    rs = ReedSolomon(4, 2)
    lay = StripeLayout(rs, stripe_unit=4096, n_servers=6)
    assert lay.stripe_size == 16384
    assert lay.stripe_of(0) == 0
    assert lay.stripe_of(16383) == 0
    assert lay.stripe_of(16384) == 1
    assert list(lay.stripe_span(8192, 16384)) == [0, 1]
    assert list(lay.stripe_span(0, 0)) == []


def test_layout_rotates_parity_across_servers():
    rs = ReedSolomon(4, 2)
    lay = StripeLayout(rs, stripe_unit=4096, n_servers=6)
    parity_servers = set()
    for s in range(6):
        pl = lay.placement(file_id=1, stripe_index=s)
        for loc in pl.shards:
            if loc.is_parity:
                parity_servers.add(loc.server)
    assert len(parity_servers) == 6  # no parity hotspot


def test_layout_placement_unique_servers_within_stripe():
    rs = ReedSolomon(4, 2)
    lay = StripeLayout(rs, stripe_unit=4096, n_servers=6)
    pl = lay.placement(file_id=7, stripe_index=3)
    servers = [loc.server for loc in pl.shards]
    assert len(set(servers)) == 6


def test_layout_encode_decode_stripe():
    rs = ReedSolomon(4, 2)
    lay = StripeLayout(rs, stripe_unit=8, n_servers=6)
    payload = b"0123456789abcdefGHIJKLMNOPQRSTUV"  # exactly 32 = stripe size
    units = lay.encode_stripe(payload)
    assert len(units) == 6
    units[0] = None
    units[5] = None
    assert lay.decode_stripe(units)[: len(payload)] == payload


def test_update_parity_matches_full_reencode():
    rs = ReedSolomon(4, 2)
    data = [bytes([i + 1]) * 16 for i in range(4)]
    parity = rs.encode(data)
    new_shard = b"\x99" * 16
    updated = rs.update_parity(2, data[2], new_shard, parity)
    data2 = list(data)
    data2[2] = new_shard
    assert updated == rs.encode(data2)


def test_update_parity_identity_when_unchanged():
    rs = ReedSolomon(3, 2)
    data = [b"abcd", b"efgh", b"ijkl"]
    parity = rs.encode(data)
    assert rs.update_parity(0, data[0], data[0], parity) == parity


def test_update_parity_validates_inputs():
    rs = ReedSolomon(3, 2)
    data = [b"ab", b"cd", b"ef"]
    parity = rs.encode(data)
    with pytest.raises(ECError):
        rs.update_parity(3, b"ab", b"xy", parity)
    with pytest.raises(ECError):
        rs.update_parity(0, b"ab", b"xyz", parity)
    with pytest.raises(ECError):
        rs.update_parity(0, b"ab", b"xy", parity[:1])


@settings(max_examples=30, deadline=None)
@given(
    k=st.integers(2, 5),
    m=st.integers(1, 3),
    idx=st.integers(0, 4),
    seed=st.integers(0, 2**31),
)
def test_update_parity_property(k, m, idx, seed):
    import random

    idx = idx % k
    rng = random.Random(seed)
    rs = ReedSolomon(k, m)
    data = [bytes(rng.randrange(256) for _ in range(8)) for _ in range(k)]
    parity = rs.encode(data)
    new = bytes(rng.randrange(256) for _ in range(8))
    updated = rs.update_parity(idx, data[idx], new, parity)
    full = rs.encode([new if i == idx else data[i] for i in range(k)])
    assert updated == full


# ------------------------------------------------- the one GF(2^8) inner loop
def _combine_by_definition(coefs, bufs, size):
    """``_combine`` spelled out byte by byte from the multiplication table."""
    from repro.ec.gf256 import _MUL_TABLE

    out = bytearray(size)
    for coef, buf in zip(coefs, bufs):
        for i in range(size):
            out[i] ^= int(_MUL_TABLE[coef, buf[i]])
    return bytes(out)


def test_combine_matches_the_table_for_every_coefficient():
    from repro.ec.reedsolomon import _combine

    buf = bytes(range(256)) + bytes(reversed(range(256)))  # every byte value, twice
    base = bytes(7 * i % 256 for i in range(len(buf)))
    for coef in range(256):
        assert _combine((1, coef), (base, buf), len(buf)) == _combine_by_definition(
            (1, coef), (base, buf), len(buf)
        ), coef


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 255), min_size=1, max_size=5),
    st.sampled_from([0, 1, 7, 8, 9, 64, 4097]),
    st.randoms(use_true_random=False),
)
def test_combine_property_any_coefficients_any_size(coefs, size, rnd):
    """Sizes that are not multiples of the 8-byte XOR word included."""
    from repro.ec.reedsolomon import _combine

    bufs = [bytes(rnd.getrandbits(8) for _ in range(size)) for _ in coefs]
    got = _combine(coefs, bufs, size)
    assert len(got) == size
    assert got == _combine_by_definition(coefs, bufs, size)
    # bytearray shards (what a caller assembling a stripe may hold) work too
    assert _combine(coefs, [bytearray(b) for b in bufs], size) == got
