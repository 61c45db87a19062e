"""IO_Dispatch tests: routing, op mapping, cache hooks, virtual client."""

import pytest

from repro.core import build_dpc_system
from repro.dpu.dispatch import FLAG_LOCAL, IoDispatch
from repro.dpu.virtual import VirtualClient
from repro.params import default_params
from repro.proto.filemsg import Errno, FileOp, FileRequest
from repro.proto.nvme.sqe import ReqType, Sqe
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool


def drive(sys_or_env, gen):
    env = sys_or_env.env if hasattr(sys_or_env, "env") else sys_or_env
    return env.run(until=env.process(gen))


# ---------------------------------------------------------------- routing
def test_dispatch_routes_by_req_type():
    sys = build_dpc_system(with_dfs=True)

    def app():
        sqe_s = Sqe(cid=1, req_type=ReqType.STANDALONE)
        sqe_d = Sqe(cid=2, req_type=ReqType.DISTRIBUTED)
        resp1, _ = yield from sys.dispatch.backend(
            sqe_s, FileRequest(FileOp.CREATE, ino=0, name=b"k"), b""
        )
        resp2, _ = yield from sys.dispatch.backend(
            sqe_d, FileRequest(FileOp.CREATE, ino=0, name=b"d"), b""
        )
        return resp1, resp2

    r1, r2 = drive(sys, app())
    assert r1.ok and r2.ok
    assert sys.dispatch.standalone_ops == 1
    assert sys.dispatch.distributed_ops == 1


def test_dispatch_without_dfs_rejects_distributed():
    sys = build_dpc_system(with_dfs=False)

    def app():
        sqe = Sqe(cid=1, req_type=ReqType.DISTRIBUTED)
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.STAT, ino=1), b""
        )
        return resp.status

    assert drive(sys, app()) == Errno.EINVAL


def test_dispatch_none_sqe_defaults_to_standalone():
    sys = build_dpc_system()

    def app():
        resp, _ = yield from sys.dispatch.backend(
            None, FileRequest(FileOp.CREATE, ino=0, name=b"via-fuse"), b""
        )
        return resp

    assert drive(sys, app()).ok
    assert sys.dispatch.standalone_ops == 1


# ---------------------------------------------------------------- op mapping
def test_kvfs_error_maps_to_status():
    sys = build_dpc_system()

    def app():
        sqe = Sqe(cid=1)
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.UNLINK, ino=0, name=b"missing"), b""
        )
        return resp.status

    assert drive(sys, app()) == Errno.ENOENT


def test_setattr_extends_but_never_shrinks():
    sys = build_dpc_system()

    def app():
        sqe = Sqe(cid=1)
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.CREATE, ino=0, name=b"f"), b""
        )
        ino = resp.attr.ino
        yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.WRITE, ino=ino, offset=0, length=4), b"data"
        )
        # Extend to 100.
        yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.SETATTR, ino=ino, offset=100), b""
        )
        st1 = yield from sys.kvfs.stat(ino)
        # Attempt to shrink to 10 via SETATTR: ignored (grow-only).
        yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.SETATTR, ino=ino, offset=10), b""
        )
        st2 = yield from sys.kvfs.stat(ino)
        return st1.size, st2.size

    assert drive(sys, app()) == (100, 100)


def test_rename_through_dispatch():
    sys = build_dpc_system()

    def app():
        sqe = Sqe(cid=1)
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.CREATE, ino=0, name=b"old"), b""
        )
        resp2, _ = yield from sys.dispatch.backend(
            sqe,
            FileRequest(FileOp.RENAME, ino=0, aux_ino=0, name=b"old", extra=b"new"),
            b"",
        )
        resp3, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.LOOKUP, ino=0, name=b"new"), b""
        )
        return resp.attr.ino, resp2.ok, resp3.attr.ino

    ino, ok, found = drive(sys, app())
    assert ok and ino == found


def test_fsync_flushes_hybrid_cache():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/durable", None or 0x40)  # O_CREAT
        yield from sys.vfs.write(f, 0, b"D" * 4096)
        dirty_before = sum(
            1
            for i in range(sys.cache_layout.pages)
            if sys.cache_layout.entry_status(i) == 2
        )
        yield from sys.vfs.fsync(f)
        dirty_after = sum(
            1
            for i in range(sys.cache_layout.pages)
            if sys.cache_layout.entry_status(i) == 2
        )
        return dirty_before, dirty_after

    dirty_before, dirty_after = drive(sys, app())
    assert dirty_before >= 1 and dirty_after == 0


# ---------------------------------------------------------------- per stack
@pytest.mark.parametrize("op", [FileOp.RENAME, FileOp.TRUNCATE, FileOp.SETATTR])
def test_dfs_ops_outside_its_table_answer_einval(op):
    sys = build_dpc_system(with_dfs=True)
    sqe = Sqe(cid=1, req_type=ReqType.DISTRIBUTED)

    def app():
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.CREATE, ino=0, name=b"f"), b""
        )
        ino = resp.attr.ino
        resp, _ = yield from sys.dispatch.backend(
            sqe,
            FileRequest(op, ino=ino, aux_ino=0, offset=10, name=b"f", extra=b"g"),
            b"",
        )
        return resp.status

    assert drive(sys, app()) == Errno.EINVAL


def test_dfs_lookup_miss_answers_enoent():
    sys = build_dpc_system(with_dfs=True)
    sqe = Sqe(cid=1, req_type=ReqType.DISTRIBUTED)

    def app():
        resp, _ = yield from sys.dispatch.backend(
            sqe, FileRequest(FileOp.LOOKUP, ino=0, name=b"nobody"), b""
        )
        return resp

    resp = drive(sys, app())
    assert resp.status == Errno.ENOENT and resp.attr is None


def test_local_setattr_extends_but_never_shrinks():
    sys = build_dpc_system(with_local_nvme=True)
    root = sys.dispatch.local_fs.root_ino

    def local(op, **kw):
        return sys.dispatch.backend(Sqe(cid=1), FileRequest(op, flags=FLAG_LOCAL, **kw), b"")

    def app():
        resp, _ = yield from local(FileOp.CREATE, ino=root, name=b"f")
        ino = resp.attr.ino
        resp, _ = yield from sys.dispatch.backend(
            Sqe(cid=1),
            FileRequest(FileOp.WRITE, ino=ino, length=4, flags=FLAG_LOCAL),
            b"data",
        )
        assert resp.size == 4
        sizes = []
        for target in (100, 10):
            resp, _ = yield from local(FileOp.SETATTR, ino=ino, offset=target)
            assert resp.ok
            st, _ = yield from local(FileOp.STAT, ino=ino)
            sizes.append(st.attr.size)
        return sizes

    assert drive(sys, app()) == [100, 100]
    assert sys.dispatch.local_ops >= 5 and sys.dispatch.standalone_ops == 0


class _Recorder:
    """Any method: logs ``(who, method, *args)`` when called and returns a
    generator yielding nothing and returning ``results.get(method)``."""

    def __init__(self, log, who, results=None):
        self._log, self._who, self._results = log, who, results or {}

    def __getattr__(self, method):
        def call(*args):
            self._log.append((self._who, method) + args)
            return self._result(method)

        return call

    def _result(self, method):
        yield from ()
        return self._results.get(method)


def _recorded(req_type, request, results=None):
    env = Environment()
    log = []
    stack = _Recorder(log, "fs", results)
    dispatch = IoDispatch(
        env, CpuPool(env, 2), default_params(),
        kvfs=stack, dfs_client=stack, local_fs=stack,
        cache_ctrl=_Recorder(log, "cache"),
    )
    resp, _ = drive(env, dispatch.backend(Sqe(cid=1, req_type=req_type), request, b""))
    return resp, log


@pytest.mark.parametrize(
    "req_type, flags, tag, sync",
    [
        (ReqType.STANDALONE, 0, 0, "fsync"),
        (ReqType.DISTRIBUTED, 0, 1, "flush_metadata"),
        (ReqType.STANDALONE, FLAG_LOCAL, None, "fsync"),
    ],
    ids=["kvfs", "dfs", "local"],
)
def test_cache_hooks_key_on_the_stack_tag_bit(req_type, flags, tag, sync):
    _, log = _recorded(req_type, FileRequest(FileOp.FSYNC, ino=5, flags=flags))
    flush = [("cache", "flush_all")] if tag is not None else []
    assert [e[:2] for e in log] == flush + [("fs", sync)]
    if req_type == ReqType.STANDALONE:
        _, log = _recorded(req_type, FileRequest(FileOp.TRUNCATE, ino=5, offset=9, flags=flags))
        if tag is None:
            assert log == [("fs", "truncate", 5, 9)]
        else:
            assert log == [
                ("cache", "writebacks_landed"),
                ("fs", "truncate", 5, 9),
                ("cache", "dif_drop_file", 5 << 1 | tag),
            ]


def test_dfs_none_attr_answers_enoent_and_grant_rides_aux():
    resp, _ = _recorded(ReqType.DISTRIBUTED, FileRequest(FileOp.STAT, ino=5))
    assert resp.status == Errno.ENOENT
    resp, _ = _recorded(
        ReqType.DISTRIBUTED,
        FileRequest(FileOp.DELEG_ACQUIRE, ino=5),
        {"acquire_file_delegation": True},
    )
    assert resp.ok and resp.aux == 1


# ---------------------------------------------------------------- cache hooks
def test_cache_writeback_routes_by_tag_bit():
    sys = build_dpc_system(with_dfs=True)

    def app():
        # Standalone file (tag bit 0).
        resp, _ = yield from sys.dispatch.backend(
            Sqe(cid=1), FileRequest(FileOp.CREATE, ino=0, name=b"s"), b""
        )
        s_ino = resp.attr.ino
        yield from sys.dispatch.cache_writeback(s_ino << 1, 0, b"standalone-page")
        s_data = yield from sys.kvfs.read(s_ino, 0, 15)
        # Distributed file (tag bit 1).
        resp, _ = yield from sys.dispatch.backend(
            Sqe(cid=2, req_type=ReqType.DISTRIBUTED),
            FileRequest(FileOp.CREATE, ino=0, name=b"d"),
            b"",
        )
        d_ino = resp.attr.ino
        yield from sys.dispatch.cache_writeback((d_ino << 1) | 1, 0, b"dfs-page" + b"\0" * 4088)
        d_data = yield from sys.dfs_client.read(d_ino, 0, 8)
        return s_data, d_data

    s_data, d_data = drive(sys, app())
    # Non-extending writeback: size unchanged, but block data present.
    assert d_data == b"dfs-page"
    assert s_data == b""  # size still 0 (extend=False) — data parked in block


def test_cache_fetch_returns_block_pages():
    sys = build_dpc_system()

    def app():
        resp, _ = yield from sys.dispatch.backend(
            Sqe(cid=1), FileRequest(FileOp.CREATE, ino=0, name=b"pf"), b""
        )
        ino = resp.attr.ino
        yield from sys.kvfs.write(ino, 0, b"P" * 8192)
        pages = yield from sys.dispatch.cache_fetch(ino << 1, 0)
        return pages

    pages = drive(sys, app())
    assert [lpn for lpn, _ in pages] == [0, 1]
    assert all(len(d) == 4096 for _, d in pages)
    assert pages[0][1] == b"P" * 4096


def test_cache_fetch_eof_returns_none():
    sys = build_dpc_system()

    def app():
        resp, _ = yield from sys.dispatch.backend(
            Sqe(cid=1), FileRequest(FileOp.CREATE, ino=0, name=b"empty"), b""
        )
        return (yield from sys.dispatch.cache_fetch(resp.attr.ino << 1, 5))

    assert drive(sys, app()) is None


# ---------------------------------------------------------------- virtual client
def test_virtual_client_read_unwritten_returns_pattern():
    env = Environment()
    vc = VirtualClient(env, CpuPool(env, 4), default_params())

    def app():
        resp, data = yield from vc.backend(
            None, FileRequest(FileOp.READ, ino=1, offset=0, length=64), b""
        )
        return resp.ok, data

    ok, data = drive(env, app())
    assert ok and data == b"\xab" * 64


def test_virtual_client_write_then_read():
    env = Environment()
    vc = VirtualClient(env, CpuPool(env, 4), default_params())

    def app():
        yield from vc.backend(
            None, FileRequest(FileOp.WRITE, ino=1, offset=8192, length=5), b"hello"
        )
        _, data = yield from vc.backend(
            None, FileRequest(FileOp.READ, ino=1, offset=8192, length=5), b""
        )
        return data

    assert drive(env, app()) == b"hello"
    assert vc.requests == 2


def test_virtual_client_rejects_unknown_op():
    env = Environment()
    vc = VirtualClient(env, CpuPool(env, 4), default_params())

    def app():
        resp, _ = yield from vc.backend(
            None, FileRequest(FileOp.MKDIR, ino=1, name=b"x"), b""
        )
        return resp.status

    assert drive(env, app()) == Errno.EINVAL
