"""VFS-layer tests: mounts, path resolution, dentry cache, fd table."""

import pytest

from repro.core import build_dpc_system, build_ext4_system
from repro.host.adapters import FsError, O_DIRECT
from repro.host.vfs import O_CREAT
from repro.proto.filemsg import Errno


def test_mount_longest_prefix_wins():
    sys = build_dpc_system(with_dfs=True)
    # /kvfs and /dfs are distinct mounts; paths route to the right adapter.
    _, adapter_kvfs, rel = sys.vfs._mount_of("/kvfs/a/b")
    _, adapter_dfs, rel2 = sys.vfs._mount_of("/dfs/x")
    assert adapter_kvfs is sys.kvfs_adapter
    assert adapter_dfs is sys.dfs_adapter
    assert rel == "a/b" and rel2 == "x"


def test_unmounted_path_raises():
    sys = build_dpc_system()

    def app():
        yield from sys.vfs.stat("/nowhere/file")

    with pytest.raises(FsError):
        sys.run_until(app())


def test_duplicate_mount_rejected():
    sys = build_dpc_system()
    with pytest.raises(ValueError):
        sys.vfs.mount("/kvfs", sys.kvfs_adapter)


def test_open_without_creat_fails_on_missing():
    sys = build_dpc_system()

    def app():
        try:
            yield from sys.vfs.open("/kvfs/missing")
        except FsError as e:
            return e.errno_code

    assert sys.run_until(app()) == Errno.ENOENT


def test_open_creat_is_idempotent_on_existing():
    sys = build_dpc_system()

    def app():
        f1 = yield from sys.vfs.open("/kvfs/f", O_CREAT)
        yield from sys.vfs.write(f1, 0, b"keep")
        f2 = yield from sys.vfs.open("/kvfs/f", O_CREAT)
        data = yield from sys.vfs.read(f2, 0, 4)
        return f1.ino, f2.ino, data

    ino1, ino2, data = sys.run_until(app())
    assert ino1 == ino2 and data == b"keep"


def test_dentry_cache_avoids_repeat_lookups():
    sys = build_dpc_system()

    def app():
        yield from sys.vfs.mkdir("/kvfs/deep")
        yield from sys.vfs.mkdir("/kvfs/deep/deeper")
        f = yield from sys.vfs.open("/kvfs/deep/deeper/file", O_CREAT)
        yield from sys.vfs.close(f)
        misses_before = sys.vfs.dcache_misses
        for _ in range(5):
            yield from sys.vfs.stat("/kvfs/deep/deeper/file")
        return sys.vfs.dcache_misses - misses_before

    # All resolutions served from the dcache: no new misses.
    assert sys.run_until(app()) == 0
    assert sys.vfs.dcache_hits > 0


def test_unlink_invalidates_dcache():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/tmp", O_CREAT)
        yield from sys.vfs.close(f)
        yield from sys.vfs.stat("/kvfs/tmp")
        yield from sys.vfs.unlink("/kvfs/tmp")
        try:
            yield from sys.vfs.stat("/kvfs/tmp")
        except FsError as e:
            return e.errno_code

    assert sys.run_until(app()) == Errno.ENOENT


def test_rename_updates_namespace_and_dcache():
    sys = build_dpc_system()

    def app():
        yield from sys.vfs.mkdir("/kvfs/a")
        yield from sys.vfs.mkdir("/kvfs/b")
        f = yield from sys.vfs.open("/kvfs/a/x", O_CREAT)
        yield from sys.vfs.write(f, 0, b"v")
        yield from sys.vfs.rename("/kvfs/a/x", "/kvfs/b/y")
        moved = yield from sys.vfs.stat("/kvfs/b/y")
        gone = None
        try:
            yield from sys.vfs.stat("/kvfs/a/x")
        except FsError as e:
            gone = e.errno_code
        return moved.ino, gone

    ino, gone = sys.run_until(app())
    assert gone == Errno.ENOENT and ino > 0


def test_cross_mount_rename_rejected():
    sys = build_dpc_system(with_dfs=True)

    def app():
        f = yield from sys.vfs.open("/kvfs/here", O_CREAT)
        yield from sys.vfs.close(f)
        try:
            yield from sys.vfs.rename("/kvfs/here", "/dfs/there")
        except FsError as e:
            return e.errno_code

    assert sys.run_until(app()) == Errno.EINVAL


def test_fd_table_tracks_open_files():
    sys = build_dpc_system()

    def app():
        f1 = yield from sys.vfs.open("/kvfs/a", O_CREAT)
        f2 = yield from sys.vfs.open("/kvfs/b", O_CREAT)
        n_open = len(sys.vfs._fds)
        yield from sys.vfs.close(f1)
        return f1.fd, f2.fd, n_open, len(sys.vfs._fds)

    fd1, fd2, n_open, n_after = sys.run_until(app())
    assert fd1 != fd2 and n_open == 2 and n_after == 1


def test_truncate_through_vfs():
    sys = build_dpc_system()

    def app():
        f = yield from sys.vfs.open("/kvfs/t", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"x" * 20000)
        yield from sys.vfs.truncate("/kvfs/t", 100)
        st = yield from sys.vfs.stat("/kvfs/t")
        return st.size

    assert sys.run_until(app()) == 100


def test_readdir_root_of_mount():
    sys = build_dpc_system()

    def app():
        yield from sys.vfs.mkdir("/kvfs/only")
        return (yield from sys.vfs.readdir("/kvfs"))

    entries = sys.run_until(app())
    assert [n for n, _ in entries] == [b"only"]


def test_syscall_cost_charged():
    sys = build_ext4_system()

    def app():
        before = sys.host_cpu.busy_seconds
        yield from sys.vfs.stat("/mnt")
        return sys.host_cpu.busy_seconds - before

    assert sys.run_until(app()) >= sys.params.syscall_cost


def test_resolve_intermediate_missing_component():
    sys = build_dpc_system()

    def app():
        try:
            yield from sys.vfs.open("/kvfs/no/such/deep/path", O_CREAT)
        except FsError as e:
            return e.errno_code

    assert sys.run_until(app()) == Errno.ENOENT


# -- atomic open: CREATE first for a name the dentry cache does not know ---------------
def _dpc_with_local_and_dfs():
    return build_dpc_system(with_dfs=True, with_local_nvme=True)


@pytest.mark.parametrize("mount", ["/kvfs", "/dfs", "/local"])
def test_fresh_name_open_creat_is_one_command(mount):
    sys = _dpc_with_local_and_dfs()
    path = f"{mount}/fresh"

    def app():
        before = sys.tgt.commands_processed
        f = yield from sys.vfs.open(path, O_CREAT)
        return f, sys.tgt.commands_processed - before

    f, commands = sys.run_until(app())
    assert commands == 1
    assert sys.vfs._dcache[(mount, "/fresh")][0] == f.ino


def _virtio_mount(sys):
    """Mount the KVFS stack a second time, over virtio-fs, at ``/virtio``."""
    from repro.host.fsadapter import DpfsAdapter
    from repro.proto.virtio.virtiofs import DpfsHal, VirtioFsHost

    host = VirtioFsHost(sys.env, sys.arena, sys.link, sys.host_cpu, sys.params, num_queues=1)
    DpfsHal(sys.env, sys.link, sys.dpu_cpu, sys.params, host.rings, sys.dispatch.backend)
    sys.vfs.mount("/virtio", DpfsAdapter(sys.env, host, sys.host_cpu, sys.params))


@pytest.mark.parametrize("mount", ["/kvfs", "/dfs", "/local", "/virtio", "/mnt"])
def test_open_creat_of_existing_uncached_name_opens_it(mount):
    """The name exists, the dentry cache has never seen it: CREATE answers
    EEXIST and the LOOKUP that follows opens the existing inode."""
    if mount == "/mnt":
        sys = build_ext4_system()
    else:
        sys = _dpc_with_local_and_dfs()
        _virtio_mount(sys)
    _, adapter, _ = sys.vfs._mount_of(mount)

    def app():
        made = yield from adapter.create(adapter.root_ino, b"old", 0o644)
        f = yield from sys.vfs.open(f"{mount}/old", O_CREAT | O_DIRECT)
        yield from sys.vfs.write(f, 0, b"s" * 4096)
        again = yield from sys.vfs.open(f"{mount}/old", O_DIRECT)
        return made.ino, f.ino, (yield from sys.vfs.read(again, 0, 4096))

    made, opened, data = sys.run_until(app())
    assert opened == made and data == b"s" * 4096
