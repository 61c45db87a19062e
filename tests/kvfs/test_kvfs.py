"""KVFS integration tests against the real sharded KV store."""

import pytest

from repro.kv.client import KvClient
from repro.kv.server import KvCluster
from repro.kvfs import schema
from repro.kvfs.fs import Kvfs, KvfsError, S_IFDIR, S_IFREG
from repro.params import default_params
from repro.proto.filemsg import Errno
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.network import Fabric


def build(params=None):
    env = Environment()
    p = params or default_params()
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    cluster = KvCluster(env, fabric, p)
    fabric.attach("dpu")
    kv = KvClient(
        fabric, "dpu", cluster.shard_names(),
        route_fn=schema.routing_key, scan_route_fn=schema.scan_routing,
    )
    dpu_cpu = CpuPool(env, p.dpu_cores, perf=p.dpu_perf, switch_cost=0)
    fs = Kvfs(env, kv, dpu_cpu, p)
    return env, fs


def run(env, gen):
    p = env.process(gen)
    return env.run(until=p)


def test_create_and_stat():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"hello.txt")
        got = yield from fs.stat(attr.ino)
        return attr, got

    attr, got = run(env, flow())
    assert attr.ino == got.ino
    assert got.mode & 0o170000 == S_IFREG
    assert got.size == 0


def test_create_duplicate_rejected():
    env, fs = build()

    def flow():
        yield from fs.create(schema.ROOT_INO, b"dup")
        try:
            yield from fs.create(schema.ROOT_INO, b"dup")
        except KvfsError as e:
            return e.errno_code

    assert run(env, flow()) == Errno.EEXIST


def test_lookup_missing_raises_enoent():
    env, fs = build()

    def flow():
        yield from fs.ensure_root()
        try:
            yield from fs.lookup(schema.ROOT_INO, b"ghost")
        except KvfsError as e:
            return e.errno_code

    assert run(env, flow()) == Errno.ENOENT


def test_small_file_write_read():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"small")
        n = yield from fs.write(attr.ino, 0, b"tiny payload")
        data = yield from fs.read(attr.ino, 0, 100)
        st = yield from fs.stat(attr.ino)
        return n, data, st.size

    n, data, size = run(env, flow())
    assert n == 12 and data == b"tiny payload" and size == 12


def test_small_file_partial_overwrite():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"f")
        yield from fs.write(attr.ino, 0, b"aaaaaaaaaa")
        yield from fs.write(attr.ino, 3, b"BBB")
        return (yield from fs.read(attr.ino, 0, 10))

    assert run(env, flow()) == b"aaaBBBaaaa"


def test_small_to_big_conversion():
    """Crossing 8 KiB deletes the small KV and creates big-file blocks."""
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"grows")
        yield from fs.write(attr.ino, 0, b"s" * 4096)  # small
        small_exists_before = (yield from fs.kv.get(schema.small_key(attr.ino))) is not None
        yield from fs.write(attr.ino, 4096, b"B" * 8192)  # grows to 12 KiB
        small_exists_after = (yield from fs.kv.get(schema.small_key(attr.ino))) is not None
        data = yield from fs.read(attr.ino, 0, 12288)
        st = yield from fs.stat(attr.ino)
        return small_exists_before, small_exists_after, data, st

    before, after, data, st = run(env, flow())
    assert before is True and after is False
    assert data == b"s" * 4096 + b"B" * 8192
    assert st.size == 12288
    assert st.blocks >= 1  # big-file format


def test_big_file_inplace_block_update():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"big")
        yield from fs.write(attr.ino, 0, b"x" * 32768)
        # In-place update of the second 8K block only.
        yield from fs.write(attr.ino, 8192, b"Y" * 8192)
        data = yield from fs.read(attr.ino, 0, 32768)
        return data

    data = run(env, flow())
    assert data[:8192] == b"x" * 8192
    assert data[8192:16384] == b"Y" * 8192
    assert data[16384:] == b"x" * 16384


def test_big_file_unaligned_rmw():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"rmw")
        yield from fs.write(attr.ino, 0, b"0" * 20000)
        yield from fs.write(attr.ino, 5000, b"MIDDLE")
        return (yield from fs.read(attr.ino, 4998, 10))

    assert run(env, flow()) == b"00MIDDLE00"


def test_sparse_file_holes_read_zero():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"sparse")
        yield from fs.write(attr.ino, 100000, b"tail")
        head = yield from fs.read(attr.ino, 0, 16)
        tail = yield from fs.read(attr.ino, 100000, 4)
        st = yield from fs.stat(attr.ino)
        return head, tail, st.size

    head, tail, size = run(env, flow())
    assert head == bytes(16)
    assert tail == b"tail"
    assert size == 100004


def test_read_past_eof_is_short():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"short")
        yield from fs.write(attr.ino, 0, b"abc")
        full = yield from fs.read(attr.ino, 0, 100)
        beyond = yield from fs.read(attr.ino, 50, 10)
        return full, beyond

    full, beyond = run(env, flow())
    assert full == b"abc" and beyond == b""


def test_mkdir_readdir():
    env, fs = build()

    def flow():
        d = yield from fs.mkdir(schema.ROOT_INO, b"etc")
        yield from fs.create(d.ino, b"passwd")
        yield from fs.create(d.ino, b"hosts")
        yield from fs.mkdir(d.ino, b"conf.d")
        entries = yield from fs.readdir(d.ino)
        root_entries = yield from fs.readdir(schema.ROOT_INO)
        return entries, root_entries

    entries, root_entries = run(env, flow())
    names = sorted(n for n, _ in entries)
    assert names == [b"conf.d", b"hosts", b"passwd"]
    assert [n for n, _ in root_entries] == [b"etc"]


def test_readdir_is_ordered_prefix_scan():
    env, fs = build()

    def flow():
        d = yield from fs.mkdir(schema.ROOT_INO, b"dir")
        for name in [b"zz", b"aa", b"mm"]:
            yield from fs.create(d.ino, name)
        return (yield from fs.readdir(d.ino))

    entries = run(env, flow())
    assert [n for n, _ in entries] == [b"aa", b"mm", b"zz"]


def test_path_resolution():
    env, fs = build()

    def flow():
        a = yield from fs.mkdir(schema.ROOT_INO, b"a")
        b = yield from fs.mkdir(a.ino, b"b")
        f = yield from fs.create(b.ino, b"file.txt")
        got = yield from fs.resolve("/a/b/file.txt")
        return f.ino, got.ino

    f_ino, got_ino = run(env, flow())
    assert f_ino == got_ino


def test_resolve_through_file_raises_enotdir():
    env, fs = build()

    def flow():
        yield from fs.create(schema.ROOT_INO, b"plain")
        try:
            yield from fs.resolve("/plain/deeper")
        except KvfsError as e:
            return e.errno_code

    assert run(env, flow()) == Errno.ENOTDIR


def test_unlink_removes_everything():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"gone")
        yield from fs.write(attr.ino, 0, b"d" * 20000)  # big format
        yield from fs.unlink(schema.ROOT_INO, b"gone")
        entries = yield from fs.readdir(schema.ROOT_INO)
        leftover = yield from fs.kv.scan_prefix(schema.inode_scan_prefix(attr.ino))
        block0 = yield from fs.kv.get(schema.block_key(attr.ino, 0))
        a = yield from fs.kv.get(schema.attr_key(attr.ino))
        return entries, leftover, block0, a

    entries, leftover, block0, a = run(env, flow())
    assert entries == [] and leftover == [] and block0 is None and a is None


def test_rmdir_nonempty_rejected():
    env, fs = build()

    def flow():
        d = yield from fs.mkdir(schema.ROOT_INO, b"full")
        yield from fs.create(d.ino, b"occupant")
        try:
            yield from fs.rmdir(schema.ROOT_INO, b"full")
        except KvfsError as e:
            return e.errno_code

    assert run(env, flow()) == Errno.ENOTEMPTY


def test_rmdir_empty_succeeds():
    env, fs = build()

    def flow():
        yield from fs.mkdir(schema.ROOT_INO, b"empty")
        yield from fs.rmdir(schema.ROOT_INO, b"empty")
        return (yield from fs.readdir(schema.ROOT_INO))

    assert run(env, flow()) == []


def test_rename_within_directory():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"old")
        yield from fs.write(attr.ino, 0, b"content")
        yield from fs.rename(schema.ROOT_INO, b"old", schema.ROOT_INO, b"new")
        got = yield from fs.lookup(schema.ROOT_INO, b"new")
        data = yield from fs.read(got.ino, 0, 7)
        entries = yield from fs.readdir(schema.ROOT_INO)
        return attr.ino, got.ino, data, entries

    old_ino, new_ino, data, entries = run(env, flow())
    assert old_ino == new_ino and data == b"content"
    assert [n for n, _ in entries] == [b"new"]


def test_rename_across_directories():
    env, fs = build()

    def flow():
        src = yield from fs.mkdir(schema.ROOT_INO, b"src")
        dst = yield from fs.mkdir(schema.ROOT_INO, b"dst")
        f = yield from fs.create(src.ino, b"file")
        yield from fs.rename(src.ino, b"file", dst.ino, b"file2")
        src_entries = yield from fs.readdir(src.ino)
        dst_entries = yield from fs.readdir(dst.ino)
        return src_entries, dst_entries, f.ino

    src_entries, dst_entries, ino = run(env, flow())
    assert src_entries == []
    assert dst_entries == [(b"file2", ino)]


def test_rename_replaces_existing_target():
    env, fs = build()

    def flow():
        a = yield from fs.create(schema.ROOT_INO, b"a")
        yield from fs.write(a.ino, 0, b"from-a")
        b = yield from fs.create(schema.ROOT_INO, b"b")
        yield from fs.write(b.ino, 0, b"from-b")
        yield from fs.rename(schema.ROOT_INO, b"a", schema.ROOT_INO, b"b")
        got = yield from fs.lookup(schema.ROOT_INO, b"b")
        data = yield from fs.read(got.ino, 0, 10)
        entries = yield from fs.readdir(schema.ROOT_INO)
        return data, entries

    data, entries = run(env, flow())
    assert data == b"from-a"
    assert [n for n, _ in entries] == [b"b"]


def test_truncate_shrink_big_file():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"t")
        yield from fs.write(attr.ino, 0, b"z" * 40000)
        yield from fs.truncate(attr.ino, 10000)
        st = yield from fs.stat(attr.ino)
        data = yield from fs.read(attr.ino, 0, 50000)
        # Blocks past the cut must be gone from the store.
        b4 = yield from fs.kv.get(schema.block_key(attr.ino, 4))
        return st.size, data, b4

    size, data, b4 = run(env, flow())
    assert size == 10000
    assert data == b"z" * 10000
    assert b4 is None


def test_truncate_then_extend_reads_zeros():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"t2")
        yield from fs.write(attr.ino, 0, b"q" * 20000)
        yield from fs.truncate(attr.ino, 5000)
        yield from fs.write(attr.ino, 9000, b"end")
        return (yield from fs.read(attr.ino, 4998, 10))

    # bytes 4998-4999 survive; 5000.. are zeros until offset 9000
    assert run(env, flow()) == b"qq" + bytes(8)


def test_truncate_small_file():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"ts")
        yield from fs.write(attr.ino, 0, b"abcdef")
        yield from fs.truncate(attr.ino, 3)
        data = yield from fs.read(attr.ino, 0, 10)
        st = yield from fs.stat(attr.ino)
        return data, st.size

    assert run(env, flow()) == (b"abc", 3)


def test_hardlink_shares_data_and_survives_one_unlink():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"orig")
        yield from fs.write(attr.ino, 0, b"shared")
        yield from fs.link(attr.ino, schema.ROOT_INO, b"alias")
        yield from fs.unlink(schema.ROOT_INO, b"orig")
        got = yield from fs.lookup(schema.ROOT_INO, b"alias")
        data = yield from fs.read(got.ino, 0, 6)
        st = yield from fs.stat(got.ino)
        return data, st.nlink

    data, nlink = run(env, flow())
    assert data == b"shared" and nlink == 1


def test_symlink_readlink():
    env, fs = build()

    def flow():
        yield from fs.symlink(schema.ROOT_INO, b"lnk", b"/target/path")
        attr = yield from fs.lookup(schema.ROOT_INO, b"lnk")
        target = yield from fs.readlink(attr.ino)
        return target

    assert run(env, flow()) == b"/target/path"


def test_write_to_directory_rejected():
    env, fs = build()

    def flow():
        d = yield from fs.mkdir(schema.ROOT_INO, b"d")
        try:
            yield from fs.write(d.ino, 0, b"nope")
        except KvfsError as e:
            return e.errno_code

    assert run(env, flow()) == Errno.EISDIR


def test_name_too_long_rejected():
    env, fs = build()

    def flow():
        try:
            yield from fs.create(schema.ROOT_INO, b"x" * 1025)
        except (KvfsError, ValueError) as e:
            return e

    err = run(env, flow())
    assert err is not None


def test_large_directory_scan():
    env, fs = build()

    def flow():
        d = yield from fs.mkdir(schema.ROOT_INO, b"bigdir")
        for i in range(100):
            yield from fs.create(d.ino, f"file-{i:04d}".encode())
        entries = yield from fs.readdir(d.ino)
        return entries

    entries = run(env, flow())
    assert len(entries) == 100
    assert [n for n, _ in entries] == sorted(n for n, _ in entries)


def test_inode_numbers_unique():
    env, fs = build()

    def flow():
        inos = []
        for i in range(40):
            a = yield from fs.create(schema.ROOT_INO, f"u{i}".encode())
            inos.append(a.ino)
        return inos

    inos = run(env, flow())
    assert len(set(inos)) == 40


def test_fsync_completes():
    env, fs = build()

    def flow():
        attr = yield from fs.create(schema.ROOT_INO, b"f")
        yield from fs.write(attr.ino, 0, b"data")
        yield from fs.fsync(attr.ino)
        return True

    assert run(env, flow())


@pytest.mark.xfail(
    strict=True,
    reason="bug 5: Kvfs.write has no per-inode ordering, so parallel first-write "
    "sub-commands each load their own empty extent map and the last put wins",
)
def test_parallel_first_write_sub_commands_keep_every_extent():
    env, fs = build()
    half = 2 * fs.block_size  # each sub-command converts the small file: > small limit
    a, b = b"\xaa" * half, b"\xbb" * half
    ino = run(env, fs.create(schema.ROOT_INO, b"big")).ino
    key = schema.fileobj_key(ino)
    kv_get = fs.kv.get
    readers = []

    def parked_get(k):
        value = yield from kv_get(k)
        if k == key:
            readers.append(env.active_process)
            if len(readers) == 2:
                # Both sub-commands missed the extent-map cache.  Park the
                # second one's reply, read before any extent was written,
                # until the first sub-command has finished its write.
                yield readers[0]
        return value

    fs.kv.get = parked_get

    def sub_command(offset, data):
        yield from fs.write(ino, offset, data)

    env.run(until=env.all_of([env.process(sub_command(0, a)), env.process(sub_command(half, b))]))
    assert len(readers) == 2  # the race was set up as intended
    fs.kv.get = kv_get
    assert run(env, fs.read(ino, 0, 2 * half)) == a + b
