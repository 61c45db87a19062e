"""fs-adapter tests: split I/O, size catch-ups, cache interplay, DPFS path."""

import pytest

from repro.core import build_dpc_system, build_raw_transport
from repro.host.adapters import FsError, O_DIRECT
from repro.host.vfs import O_CREAT
from repro.proto.filemsg import Errno, FileOp, FileRequest

PAGE = 4096


def test_large_direct_io_splits_into_parallel_subcommands():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/big", O_CREAT | O_DIRECT)
        submitted_before = sum(q.submitted for q in sys.ini.queues)
        yield from sys.vfs.write(f, 0, b"L" * (1 << 20))  # 1 MiB
        submitted_after = sum(q.submitted for q in sys.ini.queues)
        data = yield from sys.vfs.read(f, 0, 1 << 20)
        return submitted_after - submitted_before, data

    ncmds, data = sys.run_until(app())
    assert ncmds == 4  # 1 MiB / 256 KiB MAX_IO
    assert data == b"L" * (1 << 20)


def test_split_read_reassembles_in_order():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/ordered", O_CREAT | O_DIRECT)
        payload = bytes(range(256)) * 4096  # 1 MiB patterned
        yield from sys.vfs.write(f, 0, payload)
        got = yield from sys.vfs.read(f, 0, len(payload))
        return payload == got

    assert sys.run_until(app())


def test_buffered_extension_sends_size_catchup():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/grow", O_CREAT)
        yield from sys.vfs.write(f, 0, b"abc")  # extends 0 -> 3
        # The backend attr must already know the exact size (SETATTR).
        attr = yield from sys.kvfs.stat(f.ino)
        return attr.size

    assert sys.run_until(app()) == 3


def test_buffered_rewrite_within_size_sends_no_catchup():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/fixed", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"\x00" * 8192)  # preallocate
        f2 = yield from sys.vfs.open("/kvfs/fixed")  # buffered handle
        before = sum(q.submitted for q in sys.ini.queues)
        yield from sys.vfs.write(f2, 0, b"\xff" * 8192)  # within size
        after = sum(q.submitted for q in sys.ini.queues)
        return after - before

    # Pure cache insertion: zero nvme-fs commands.
    assert sys.run_until(app()) == 0


def test_partial_page_buffered_write_merges():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/merge", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"A" * 8192)
        f2 = yield from sys.vfs.open("/kvfs/merge")
        yield from sys.vfs.write(f2, 100, b"BBB")  # partial page
        data = yield from sys.vfs.read(f2, 98, 7)
        return data

    assert sys.run_until(app()) == b"AABBBAA"


def test_direct_read_past_eof_returns_no_bytes():
    """A zero-byte completion must not hand back an earlier command's buffer."""
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/short", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"x" * 100)
        return (yield from sys.vfs.read(f, 8192, 4096))

    assert sys.run_until(app()) == b""


def test_buffered_partial_write_past_eof_merges_zeros():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/sparse", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"x" * PAGE)
        yield from sys.vfs.read(f, 0, PAGE)  # leaves x's in a read buffer
        f2 = yield from sys.vfs.open("/kvfs/sparse")
        yield from sys.vfs.write(f2, 8192 + 10, b"BBB")  # partial page past EOF
        return (yield from sys.vfs.read(f2, 8192, 16))

    assert sys.run_until(app()) == b"\0" * 10 + b"BBB" + b"\0" * 3


def test_deleg_acquire_grant_reaches_host():
    """A response carrying only ``aux`` still crosses the transport."""
    sys = build_dpc_system(with_dfs=True)

    def app():
        f = yield from sys.vfs.open("/dfs/locked", O_CREAT)
        resp, _ = yield from sys.dfs_adapter._submit(
            FileRequest(FileOp.DELEG_ACQUIRE, ino=f.ino)
        )
        return resp

    resp = sys.run_until(app())
    assert resp.ok and resp.aux == 1


def test_error_status_becomes_fs_error():
    sys = build_dpc_system()

    def app():
        try:
            yield from sys.kvfs_adapter.unlink(0, b"ghost")
        except FsError as e:
            return e.errno_code

    assert sys.run_until(app()) == Errno.ENOENT


def test_readdir_through_adapter_decodes_dirents():
    sys = build_dpc_system()

    def app():
        d = yield from sys.kvfs_adapter.mkdir(0, b"dir", 0o755)
        yield from sys.kvfs_adapter.create(d.ino, b"child", 0o644)
        return (yield from sys.kvfs_adapter.readdir(d.ino))

    entries = sys.run_until(app())
    assert len(entries) == 1 and entries[0][0] == b"child"


def test_dpfs_adapter_splits_at_fuse_max_transfer():
    rig = build_raw_transport("virtio-fs")

    def app():
        n = yield from rig.adapter.write(1, 0, b"x" * (1 << 20), 0)
        data = yield from rig.adapter.read(1, 0, 1 << 20, 0)
        return n, len(data)

    n, got = rig.run_until(app())
    assert n == (1 << 20) and got == (1 << 20)
    # 1 MiB over 256 KiB max_transfer = 4 write + 4 read FUSE requests.
    assert rig.virtual.requests == 8


def test_stat_merges_host_tracked_size():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/merge-size", O_CREAT)
        yield from sys.vfs.write(f, 0, b"z" * 10000)
        st = yield from sys.vfs.stat("/kvfs/merge-size")
        return st.size

    assert sys.run_until(app()) == 10000


def test_round_robin_queue_spreading():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/spread", O_CREAT | O_DIRECT)
        for i in range(16):
            yield from sys.vfs.write(f, i * 8192, b"q" * 8192)

    sys.run_until(app())
    used_queues = sum(1 for q in sys.ini.queues if q.submitted > 0)
    assert used_queues >= 8  # commands spread across many queues
