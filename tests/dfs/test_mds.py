"""MDS-level tests: partitioning, forwarding, delegations, lazy metadata."""

import pytest

from repro.dfs import DFS_ROOT_INO, build_dfs, mds_name
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.network import Fabric

MSG = 64


def build():
    env = Environment()
    p = default_params()
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    mds, dataservers, layout = build_dfs(env, fabric, p)
    fabric.attach("c")
    return env, p, fabric, mds, dataservers, layout


def rpc(env, fabric, dst, op):
    def flow():
        return (yield from fabric.rpc("c", dst, op, MSG))

    return env.run(until=env.process(flow()))


def test_ino_allocation_respects_home_partition():
    env, p, fabric, mds, *_ = build()
    # Create files under root (home of ino 0 = mds0); allocated inos must be
    # homed on the serving MDS.
    for i in range(6):
        attr = rpc(env, fabric, mds.home_of(DFS_ROOT_INO), ("create", DFS_ROOT_INO, f"f{i}".encode(), 0o100644))
        assert attr.ino % p.n_mds == DFS_ROOT_INO % p.n_mds


def test_entry_mds_forwards_foreign_ops():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"f", 0o100644))
    # Ask a *different* MDS for the attr: it must forward to the home.
    foreign = mds_name((attr.ino + 1) % p.n_mds)
    got = rpc(env, fabric, foreign, ("getattr", attr.ino))
    assert got is not None and got.ino == attr.ino
    assert mds.total_forwards() >= 1


def test_direct_home_routing_avoids_forwarding():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"f", 0o100644))
    before = mds.total_forwards()
    rpc(env, fabric, mds.home_of(attr.ino), ("getattr", attr.ino))
    assert mds.total_forwards() == before


def test_lookup_resolves_remote_attr_internally():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"xfile", 0o100644))
    got = rpc(env, fabric, mds.home_of(DFS_ROOT_INO), ("lookup", DFS_ROOT_INO, b"xfile"))
    assert got.ino == attr.ino


def test_setsize_is_grow_only():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"s", 0o100644))
    home = mds.home_of(attr.ino)
    rpc(env, fabric, home, ("setsize", attr.ino, 100))
    rpc(env, fabric, home, ("setsize", attr.ino, 50))  # ignored
    got = rpc(env, fabric, home, ("getattr", attr.ino))
    assert got.size == 100


def test_batch_setsize():
    env, p, fabric, mds, *_ = build()
    inos = []
    for i in range(3):
        attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, f"b{i}".encode(), 0o100644))
        inos.append(attr.ino)
    home = mds.home_of(inos[0])
    same_home = [i for i in inos if mds.home_of(i) == home]
    rpc(env, fabric, home, ("batch_setsize", [(i, 777) for i in same_home]))
    for i in same_home:
        got = rpc(env, fabric, home, ("getattr", i))
        assert got.size == 777


def test_delegation_grant_conflict_release_cycle():
    env, p, fabric, mds, *_ = build()
    fabric.attach("other")
    home = mds.home_of(DFS_ROOT_INO)
    status, lease, names = rpc(env, fabric, home, ("deleg_acquire", DFS_ROOT_INO, "dir"))
    assert status == "granted" and len(lease) == 64 and names == []

    def other_acquire():
        return (yield from fabric.rpc("other", home, ("deleg_acquire", DFS_ROOT_INO, "dir"), MSG))

    status2, lease2, names2 = env.run(until=env.process(other_acquire()))
    assert status2 == "denied" and lease2 == [] and names2 == []
    # Release, then the other client can get it.
    rpc(env, fabric, home, ("deleg_release", DFS_ROOT_INO, "dir"))
    status3, _, _ = env.run(until=env.process(other_acquire()))
    assert status3 == "granted"


def test_dir_delegation_lease_inos_are_home_local():
    env, p, fabric, mds, *_ = build()
    home_idx = DFS_ROOT_INO % p.n_mds
    _status, lease, _names = rpc(
        env, fabric, mds_name(home_idx), ("deleg_acquire", DFS_ROOT_INO, "dir")
    )
    assert all(ino % p.n_mds == home_idx for ino in lease)


def test_batch_create_installs_leased_inos():
    env, p, fabric, mds, *_ = build()
    home = mds.home_of(DFS_ROOT_INO)
    _s, lease, _names = rpc(env, fabric, home, ("deleg_acquire", DFS_ROOT_INO, "dir"))
    entries = [(f"leased{i}".encode(), lease[i], 0o100644) for i in range(4)]
    skipped = rpc(env, fabric, home, ("batch_create", DFS_ROOT_INO, entries))
    assert skipped == []
    listing = rpc(env, fabric, home, ("readdir", DFS_ROOT_INO))
    assert sorted(ino for _name, ino in listing) == sorted(lease[:4])
    # A re-sent entry is a no-op; a name another inode holds is skipped.
    clash = [(b"leased0", lease[0], 0o100644), (b"leased1", lease[5], 0o100644)]
    assert rpc(env, fabric, home, ("batch_create", DFS_ROOT_INO, clash)) == [b"leased1"]
    _s, _lease, names = rpc(env, fabric, home, ("deleg_acquire", DFS_ROOT_INO, "dir"))
    assert sorted(names) == [f"leased{i}".encode() for i in range(4)]


def test_write_small_does_server_side_ec():
    env, p, fabric, mds, dataservers, layout = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"packed", 0o100644))
    home = mds.home_of(attr.ino)
    payload = b"P" * layout.stripe_size
    rpc(env, fabric, home, ("write_small", attr.ino, 0, payload))
    # Parity shards exist on the data servers — EC happened at the MDS.
    pl = layout.placement(attr.ino, 0)
    units = [dataservers[loc.server].units.get(loc.key) for loc in pl.shards]
    assert all(u is not None for u in units)
    units[2] = None
    assert layout.decode_stripe(units) == payload
    # And the size was updated synchronously.
    got = rpc(env, fabric, home, ("getattr", attr.ino))
    assert got.size == layout.stripe_size


def test_read_via_mds_returns_data():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"r", 0o100644))
    home = mds.home_of(attr.ino)
    rpc(env, fabric, home, ("write_small", attr.ino, 0, b"relay me"))
    data = rpc(env, fabric, home, ("read_via_mds", attr.ino, 0, 8))
    assert data == b"relay me"


def test_unlink_removes_dentry_and_attr():
    env, p, fabric, mds, *_ = build()
    attr = rpc(env, fabric, "mds0", ("create", DFS_ROOT_INO, b"gone", 0o100644))
    home = mds.home_of(DFS_ROOT_INO)
    rpc(env, fabric, home, ("unlink", DFS_ROOT_INO, b"gone"))
    assert rpc(env, fabric, home, ("lookup", DFS_ROOT_INO, b"gone")) is None
