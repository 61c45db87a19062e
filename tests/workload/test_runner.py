"""Tests for the workload runner and metrics utilities."""

import pytest

from repro.metrics.stats import LatencyRecorder, ResultTable, fmt_gbps, fmt_iops, fmt_us
from repro.sim.core import Environment
from repro.workload.runner import ClientTarget, JobResult, JobSpec, run_job


class SyntheticTarget:
    """Fixed-latency target recording every op it sees."""

    def __init__(self, env, read_lat=10e-6, write_lat=5e-6):
        self.env = env
        self.read_lat = read_lat
        self.write_lat = write_lat
        self.reads = []
        self.writes = []

    def read(self, offset, length):
        yield self.env.timeout(self.read_lat)
        self.reads.append(offset)
        return b"\0" * length

    def write(self, offset, data):
        yield self.env.timeout(self.write_lat)
        self.writes.append(offset)
        return len(data)


# ---------------------------------------------------------------- LatencyRecorder
def test_latency_recorder_stats():
    lat = LatencyRecorder()
    for v in [1e-6, 2e-6, 3e-6, 4e-6]:
        lat.add(v)
    assert lat.mean == pytest.approx(2.5e-6)
    assert lat.p50 == pytest.approx(2.5e-6)
    assert lat.max == pytest.approx(4e-6)
    assert len(lat) == 4


def test_latency_recorder_empty():
    lat = LatencyRecorder()
    assert lat.mean == 0.0 and lat.p99 == 0.0 and lat.max == 0.0


def test_formatters():
    assert fmt_us(20.6e-6) == "20.6us"
    assert fmt_iops(1_500_000) == "1.50M"
    assert fmt_iops(3_200) == "3.2K"
    assert fmt_iops(42) == "42"
    assert fmt_gbps(15.1e9) == "15.10GB/s"


# ---------------------------------------------------------------- ResultTable
def test_result_table_rendering():
    t = ResultTable("Demo", ["threads", "iops"])
    t.add_row(1, 1000.0)
    t.add_row(32, 32000.0)
    t.note("shape only")
    out = t.render()
    assert "Demo" in out and "threads" in out and "note: shape only" in out
    assert t.column("iops") == [1000.0, 32000.0]


def test_result_table_row_arity_checked():
    t = ResultTable("X", ["a", "b"])
    with pytest.raises(ValueError):
        t.add_row(1)


# ---------------------------------------------------------------- JobSpec
def test_jobspec_validation():
    with pytest.raises(ValueError):
        JobSpec("bad", "sideways")
    with pytest.raises(ValueError):
        JobSpec("bad", "randread", nthreads=0)


# ---------------------------------------------------------------- run_job
def test_run_job_counts_and_iops():
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec("t", "randwrite", block_size=4096, nthreads=4, ops_per_thread=10)
    result = run_job(env, spec, lambda tid: target)
    assert len(result.lat) == 40
    assert len(target.writes) == 40
    # 4 threads x 10 ops x 5us each, concurrent -> ~50us elapsed
    assert result.elapsed == pytest.approx(50e-6, rel=0.01)
    assert result.iops == pytest.approx(40 / 50e-6, rel=0.01)
    assert result.bandwidth == pytest.approx(result.iops * 4096)


def test_run_job_randread_within_file():
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec(
        "t", "randread", block_size=8192, nthreads=2, ops_per_thread=25, file_size=1 << 20
    )
    run_job(env, spec, lambda tid: target)
    assert len(target.reads) == 50
    assert all(0 <= off < (1 << 20) for off in target.reads)
    assert all(off % 8192 == 0 for off in target.reads)


def test_run_job_sequential_offsets_are_streams():
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec(
        "t", "seqread", block_size=4096, nthreads=1, ops_per_thread=10, file_size=1 << 20
    )
    run_job(env, spec, lambda tid: target)
    assert target.reads == [i * 4096 for i in range(10)]


def test_run_job_seq_more_threads_than_blocks_stays_in_file():
    # Regression: with nthreads > nblocks the old region partitioning gave
    # threads past nblocks a base offset beyond EOF; bases must wrap within
    # the file instead.
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec(
        "t", "seqwrite", block_size=4096, nthreads=8, ops_per_thread=3, file_size=4 * 4096
    )
    run_job(env, spec, lambda tid: target)
    assert len(target.writes) == 24
    assert all(0 <= off < 4 * 4096 for off in target.writes)
    # threads wrap onto the 4 in-file blocks: every base is one of them
    assert {off // 4096 for off in target.writes} <= {0, 1, 2, 3}


def test_run_job_seq_partitioning_unchanged_when_threads_fit():
    # For nthreads <= nblocks the clamp must not move any thread's region.
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec(
        "t", "seqread", block_size=4096, nthreads=4, ops_per_thread=2, file_size=16 * 4096
    )
    run_job(env, spec, lambda tid: target)
    # region = 4 blocks/thread: thread t reads blocks 4t, 4t+1
    assert sorted(target.reads) == sorted(
        (t * 4 + i) * 4096 for t in range(4) for i in range(2)
    )


def test_run_job_mix_fraction():
    env = Environment()
    target = SyntheticTarget(env)
    spec = JobSpec(
        "t",
        "randrw",
        nthreads=4,
        ops_per_thread=100,
        read_fraction=0.7,
        seed=7,
    )
    run_job(env, spec, lambda tid: target)
    frac = len(target.reads) / (len(target.reads) + len(target.writes))
    assert 0.6 < frac < 0.8


def test_run_job_deterministic_across_runs():
    def once():
        env = Environment()
        target = SyntheticTarget(env)
        spec = JobSpec("t", "randrw", nthreads=3, ops_per_thread=20, seed=99)
        result = run_job(env, spec, lambda tid: target)
        return target.reads, target.writes, result.iops

    assert once() == once()


def test_run_job_generator_target_factory():
    env = Environment()

    def factory(tid):
        yield env.timeout(1e-6)  # simulated open()
        return SyntheticTarget(env)

    spec = JobSpec("t", "randwrite", nthreads=2, ops_per_thread=5)
    result = run_job(env, spec, factory)
    assert len(result.lat) == 10


def test_run_job_errors_counted():
    env = Environment()

    class Exploding:
        def write(self, offset, data):
            yield env.timeout(1e-6)
            raise OSError(5, "boom")

        def read(self, offset, length):
            yield env.timeout(1e-6)
            return b""

    spec = JobSpec("t", "randwrite", nthreads=1, ops_per_thread=3)
    result = run_job(env, spec, lambda tid: Exploding())
    assert result.errors == 3


def test_run_job_lets_a_bug_propagate():
    """Only I/O errors are counted; anything else is a defect in the system
    under test and must not be hidden in the ``errors`` tally."""
    env = Environment()

    class Buggy:
        def write(self, offset, data):
            yield env.timeout(1e-6)
            raise KeyError("not an I/O error")

    spec = JobSpec("t", "randwrite", nthreads=1, ops_per_thread=3)
    with pytest.raises(KeyError):
        run_job(env, spec, lambda tid: Buggy())


def test_client_target_adapts_ino_interface():
    env = Environment()

    class FakeClient:
        def __init__(self):
            self.calls = []

        def read(self, ino, offset, length):
            yield env.timeout(1e-6)
            self.calls.append(("r", ino, offset))
            return b"\0" * length

        def write(self, ino, offset, data):
            yield env.timeout(1e-6)
            self.calls.append(("w", ino, offset))
            return len(data)

    client = FakeClient()
    spec = JobSpec("t", "randrw", nthreads=1, ops_per_thread=10)
    run_job(env, spec, lambda tid: ClientTarget(client, ino=77))
    assert all(c[1] == 77 for c in client.calls)


def test_cluster_jobspec_validation():
    from repro.workload.runner import ClusterJobSpec

    with pytest.raises(ValueError):
        ClusterJobSpec("bad", "seqread")  # cluster jobs are random-mode only
    with pytest.raises(ValueError):
        ClusterJobSpec("bad", "randrw", nfiles=0)
    with pytest.raises(ValueError):
        ClusterJobSpec("bad", "randrw", zipf_s=-1.0)


def test_zipf_cdf_shape():
    from repro.workload.runner import _zipf_cdf

    cdf = _zipf_cdf(8, 1.1)
    assert len(cdf) == 8 and cdf[-1] == 1.0
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    # skew: the most popular file owns more probability mass than uniform
    assert cdf[0] > 1 / 8
    # s=0 degenerates to uniform
    uni = _zipf_cdf(4, 0.0)
    assert uni[0] == pytest.approx(0.25)


def test_run_job_cpu_windows():
    from repro.sim.cpu import CpuPool

    env = Environment()
    pool = CpuPool(env, 4, switch_cost=0)

    class CpuTarget:
        def write(self, offset, data):
            yield from pool.execute(2e-6)

        def read(self, offset, length):
            yield from pool.execute(2e-6)
            return b""

    spec = JobSpec("t", "randwrite", nthreads=2, ops_per_thread=10)
    result = run_job(env, spec, lambda tid: CpuTarget(), host_cpu=pool)
    assert result.host_cores == pytest.approx(2.0, rel=0.1)
