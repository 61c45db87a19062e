"""Directory delegations: local creates and lookups, the grant listing,
recall on a conflicting mutation (also when a recall goes unanswered), the
two batch races (ROADMAP item 1, bugs 6 and 7), one batch in flight per
directory, and lazy sizes of files whose create is still pending."""

from repro.dfs import DFS_ROOT_INO, DfsError, OffloadedDfsClient, build_dfs
from repro.params import default_params
from repro.sim.core import Environment
from repro.sim.cpu import CpuPool
from repro.sim.network import Fabric


def build(n_clients=1):
    env = Environment()
    p = default_params()
    fabric = Fabric(env, latency=p.net_latency, default_bandwidth=p.net_bandwidth)
    mds, _dataservers, layout = build_dfs(env, fabric, p)
    cpu = CpuPool(env, p.host_cores, switch_cost=p.host_switch_cost)
    clients = []
    for i in range(n_clients):
        fabric.attach(f"c{i}")
        clients.append(
            OffloadedDfsClient(
                env, fabric, f"c{i}", p.n_mds, layout, cpu, p,
                cpu_read=p.opt_client_cpu_read, cpu_write=p.opt_client_cpu_write,
            )
        )
    return env, p, mds, clients


def run(env, gen):
    return env.run(until=env.process(gen))


def park(client, env, kind, before=True):
    """Hold ``client``'s MDS RPCs of ``kind`` on a gate event.

    ``before`` parks the call before it is sent; otherwise the reply is held
    after it has landed.  Returns ``(gate, parked)``: firing ``gate`` lets
    every parked call go on; ``parked`` lists the ops that were held."""
    gate = env.event()
    parked = []
    real = client._rpc

    def rpc(home_ino, op, size, mutating=False):
        if before and op[0] == kind:
            parked.append(op)
            yield gate
        resp = yield from real(home_ino, op, size, mutating)
        if not before and op[0] == kind:
            parked.append(op)
            if len(parked) > 1:
                yield gate
        return resp

    client._rpc = rpc
    return gate, parked


def names_at_mds(env, client, p_ino=DFS_ROOT_INO):
    listing = run(env, client.readdir(p_ino))
    return sorted(name for name, _ino in listing)


# -- bug 6 --------------------------------------------------------------------------
def test_racing_first_creates_keep_both_files():
    """Two first creates in one directory both ask for the delegation; the
    second grant lands after the first create queued its entry and must not
    drop it (bug 6)."""
    env, _p, _mds, (c,) = build()
    # Hold every grant after the first until the first create has finished.
    gate, _parked = park(c, env, "deleg_acquire", before=False)

    def first():
        attr = yield from c.create(DFS_ROOT_INO, b"one")
        gate.succeed()
        return attr

    def both():
        a = env.process(first())
        b = env.process(c.create(DFS_ROOT_INO, b"two"))
        yield env.all_of([a, b])
        yield from c.flush_metadata()

    run(env, both())
    assert names_at_mds(env, c) == [b"one", b"two"]
    assert c.batch_skips == 0


# -- bug 7 --------------------------------------------------------------------------
def test_pending_create_is_visible_to_its_own_client():
    """A created, unwritten, uncommitted file stats and looks up (bug 7)."""
    env, _p, mds, (c,) = build()

    def flow():
        attr = yield from c.create(DFS_ROOT_INO, b"fresh")
        served = mds.total_ops()
        st = yield from c.getattr(attr.ino)
        found = yield from c.lookup(DFS_ROOT_INO, b"fresh")
        return attr.ino, st, found, mds.total_ops() - served

    ino, st, found, rpcs = run(env, flow())
    assert st is not None and st.ino == ino
    assert found is not None and found.ino == ino
    assert rpcs == 0


def test_create_stays_visible_while_its_batch_is_in_flight():
    """``stat`` and ``lookup`` racing the batched commit of their own create
    get the file, not ENOENT: entries leave the batch when the reply lands
    (bug 7)."""
    env, _p, _mds, (c,) = build()
    gate, parked = park(c, env, "batch_create")
    seen = {}

    def flow():
        attr = yield from c.create(DFS_ROOT_INO, b"racing")
        commit = env.process(c.flush_metadata())
        yield env.timeout(0)
        assert parked, "the commit is parked in flight"
        seen["stat"] = yield from c.getattr(attr.ino)
        seen["lookup"] = yield from c.lookup(DFS_ROOT_INO, b"racing")
        gate.succeed()
        yield commit
        seen["after"] = yield from c.getattr(attr.ino)
        return attr.ino

    ino = run(env, flow())
    assert seen["stat"] is not None and seen["stat"].ino == ino
    assert seen["lookup"] is not None and seen["lookup"].ino == ino
    assert seen["after"] is not None and seen["after"].ino == ino


# -- local answers under a delegation ------------------------------------------------
def test_delegated_creates_and_lookups_make_no_mds_rpc_until_commit():
    env, p, mds, (c,) = build()
    n = p.deleg_batch - 1

    def flow():
        yield from c.create(DFS_ROOT_INO, b"first")  # acquires the delegation
        yield from c.flush_metadata()  # "first" is now a committed name
        served = mds.total_ops()
        for i in range(n - 1):
            yield from c.create(DFS_ROOT_INO, f"f{i}".encode())
            assert (yield from c.lookup(DFS_ROOT_INO, f"f{i}".encode())) is not None
            assert (yield from c.lookup(DFS_ROOT_INO, f"ghost{i}".encode())) is None
        before_commit = mds.total_ops() - served
        found = yield from c.lookup(DFS_ROOT_INO, b"first")  # committed: asks
        yield from c.flush_metadata()
        return before_commit, found, mds.total_ops() - served

    before_commit, found, after = run(env, flow())
    assert before_commit == 0
    assert found is not None
    assert after == 2  # the committed-name lookup and one batch_create
    assert names_at_mds(env, c) == sorted([b"first"] + [f"f{i}".encode() for i in range(n - 1)])
    assert c.batch_skips == 0


def test_name_in_grant_listing_gets_eexist():
    env, _p, mds, (a, b) = build(2)
    b.use_delegations = False  # B creates straight at the MDS

    def flow():
        yield from b.create(DFS_ROOT_INO, b"old")
        yield from a.create(DFS_ROOT_INO, b"new")  # the grant lists "old"
        served = mds.total_ops()
        try:
            yield from a.create(DFS_ROOT_INO, b"old")
        except DfsError as e:
            return e.errno_code.name, mds.total_ops() - served
        return None, mds.total_ops() - served

    err, rpcs = run(env, flow())
    assert err == "EEXIST" and rpcs == 0
    assert names_at_mds(env, a) == [b"new", b"old"]
    assert a.batch_skips == 0


def test_unlink_drops_the_name_from_the_listing():
    env, _p, mds, (c,) = build()

    def flow():
        yield from c.create(DFS_ROOT_INO, b"gone")
        yield from c.unlink(DFS_ROOT_INO, b"gone")
        served = mds.total_ops()
        missing = yield from c.lookup(DFS_ROOT_INO, b"gone")
        again = yield from c.create(DFS_ROOT_INO, b"gone")
        return missing, again, mds.total_ops() - served

    missing, again, rpcs = run(env, flow())
    assert missing is None and again is not None and rpcs == 0


# -- recall on a conflicting mutation -------------------------------------------------
def test_foreign_create_and_unlink_recall_the_holder():
    """B creates and then unlinks in A's delegated directory: A is recalled
    each time, every name has one inode, and no batch entry is skipped."""
    env, _p, mds, (a, b) = build(2)
    b.use_delegations = False  # B creates and unlinks straight at the MDS

    def flow():
        mine = yield from a.create(DFS_ROOT_INO, b"a0")  # A holds the grant
        dup = None
        try:
            yield from b.create(DFS_ROOT_INO, b"a0")  # recalls A first
        except DfsError as e:
            dup = e.errno_code.name
        theirs = yield from b.create(DFS_ROOT_INO, b"b0")
        # A's next create re-acquires with a listing that has "b0".
        yield from a.create(DFS_ROOT_INO, b"a1")
        clash = None
        try:
            yield from a.create(DFS_ROOT_INO, b"b0")
        except DfsError as e:
            clash = e.errno_code.name
        yield from b.unlink(DFS_ROOT_INO, b"a1")  # recalls A again
        yield from a.flush_metadata()
        seen = yield from a.lookup(DFS_ROOT_INO, b"b0")
        listing = yield from b.readdir(DFS_ROOT_INO)
        return mine, dup, theirs, clash, seen, listing

    mine, dup, theirs, clash, seen, listing = run(env, flow())
    assert dup == "EEXIST" and clash == "EEXIST"
    assert seen.ino == theirs.ino
    assert sorted(listing) == sorted([(b"a0", mine.ino), (b"b0", theirs.ino)])
    assert a.recalls_served == 2
    assert sum(s.recalls for s in mds.servers) == 2
    assert a.batch_skips == 0 and b.batch_skips == 0


def test_foreign_create_of_a_committed_name_recalls_nobody():
    """EEXIST for a name the MDS already has needs no recall: the holder's
    listing has it."""
    env, _p, mds, (a, b) = build(2)
    b.use_delegations = False

    def flow():
        yield from a.create(DFS_ROOT_INO, b"kept")
        yield from a.flush_metadata()
        try:
            yield from b.create(DFS_ROOT_INO, b"kept")
        except DfsError as e:
            return e.errno_code.name

    assert run(env, flow()) == "EEXIST"
    assert a.recalls_served == 0 and sum(s.recalls for s in mds.servers) == 0


# -- one batch in flight per directory ------------------------------------------------
def hold_each(client, env, kind):
    """Hold each of ``client``'s MDS RPCs of ``kind`` before it is sent, on
    its own gate.  Returns the list of ``(op, gate)`` in send order."""
    held = []
    real = client._rpc

    def rpc(home_ino, op, size, mutating=False):
        if op[0] == kind:
            gate = env.event()
            held.append((op, gate))
            yield gate
        return (yield from real(home_ino, op, size, mutating))

    client._rpc = rpc
    return held


def sent_names(held):
    return sorted(entry[0] for op, _gate in held for entry in op[2])


def test_overlapping_commits_send_each_create_once_and_unlink_sticks():
    """A second commit on a directory whose batch is in flight waits for it
    and sends only the new entries, so an unlink issued after the first
    batch lands is not undone by a late re-send of it."""
    env, _p, _mds, (c,) = build()
    held = hold_each(c, env, "batch_create")

    def flow():
        yield from c.create(DFS_ROOT_INO, b"x")
        first = env.process(c.flush_metadata())
        yield env.timeout(0)
        yield from c.create(DFS_ROOT_INO, b"y")
        second = env.process(c.flush_metadata())
        yield env.timeout(0)
        held[0][1].succeed()
        yield first
        unlink = env.process(c.unlink(DFS_ROOT_INO, b"x"))
        yield env.timeout(200e-6)  # the unlink is under way
        # Newest held batch first: a stale re-send of "x" would land last.
        while waiting := [gate for _op, gate in held if not gate.triggered]:
            waiting[-1].succeed()
            yield env.timeout(200e-6)
        yield env.all_of([unlink, second])

    run(env, flow())
    assert names_at_mds(env, c) == [b"y"]
    assert sent_names(held) == [b"x", b"y"]
    assert c.batch_skips == 0


def test_creates_during_an_in_flight_commit_join_the_next_batch():
    env, p, _mds, (c,) = build()
    held = hold_each(c, env, "batch_create")
    n = p.deleg_batch

    def flow():
        for i in range(n):  # the n-th create sends the batch, held in flight
            env.process(c.create(DFS_ROOT_INO, f"f{i}".encode()))
            yield env.timeout(1e-6)
        for i in range(n, n + 5):
            yield from c.create(DFS_ROOT_INO, f"f{i}".encode())
        in_flight = len(held)
        held[0][1].succeed()
        commit = env.process(c.flush_metadata())
        yield env.timeout(1e-3)
        held[1][1].succeed()
        yield commit
        return in_flight

    assert run(env, flow()) == 1
    assert [len(op[2]) for op, _gate in held] == [n, 5]
    assert len(names_at_mds(env, c)) == n + 5


# -- a recall that is not answered -----------------------------------------------------
def lose_recalls(client, count):
    """Drop the next ``count`` recalls ``client`` receives, unanswered."""
    real = client._handle_recall
    lost = []

    def handle(msg):
        if len(lost) < count:
            lost.append(msg.payload)
            return
        yield from real(msg)

    client._handle_recall = handle
    return lost


def test_lost_recall_is_sent_again_before_a_foreign_create():
    """The MDS does not take an unanswered recall as the grant returned:
    while the holder's lease is live it recalls again, so the holder never
    answers a lookup from a stale listing."""
    env, _p, mds, (a, b) = build(2)
    b.use_delegations = False
    lost = lose_recalls(a, 1)

    def flow():
        yield from a.create(DFS_ROOT_INO, b"a0")
        theirs = yield from b.create(DFS_ROOT_INO, b"b0")
        seen = yield from a.lookup(DFS_ROOT_INO, b"b0")
        return theirs, seen

    theirs, seen = run(env, flow())
    assert len(lost) == 1 and a.recalls_served == 1
    assert sum(s.recalls for s in mds.servers) == 2
    assert seen is not None and seen.ino == theirs.ino
    assert names_at_mds(env, b) == [b"a0", b"b0"]


def test_silent_holder_is_waited_out_to_its_lease():
    """A holder that answers no recall stops trusting its listing when its
    lease runs out, and the foreign create runs no earlier than that."""
    env, p, _mds, (a, b) = build(2)
    b.use_delegations = False
    lose_recalls(a, 10**9)

    def flow():
        asked = env.now
        yield from a.create(DFS_ROOT_INO, b"a0")
        yield from a.flush_metadata()
        theirs = yield from b.create(DFS_ROOT_INO, b"b0")
        seen = yield from a.lookup(DFS_ROOT_INO, b"b0")
        return env.now - asked, theirs, seen

    waited, theirs, seen = run(env, flow())
    assert waited >= p.deleg_lease
    assert seen is not None and seen.ino == theirs.ino


def test_full_lazy_size_table_keeps_a_pending_creates_size():
    """A full lazy-size table pushes only sizes of files the MDS knows; a
    file whose create is still pending keeps its size until the batch has
    landed, so the size is not sent ahead of the create and lost."""
    env, p, _mds, (a, b) = build(2)

    def flow():
        known = []
        for i in range(p.deleg_batch):
            known.append((yield from a.create(DFS_ROOT_INO, f"k{i}".encode())))
        fresh = yield from a.create(DFS_ROOT_INO, b"fresh")  # pending
        yield from a.write(fresh.ino, 0, b"z" * 100)
        sent = []
        real = a._mds_call

        def call(dst, op, size, mutating=False):
            sent.append(op[0])
            return (yield from real(dst, op, size, mutating))

        a._mds_call = call
        for attr in known:  # fills the table: sizes go, the batch does not
            yield from a.write(attr.ino, 0, b"k" * 10)
        pushed = set(sent)
        yield from a.flush_metadata()
        return fresh.ino, pushed, (yield from b.getattr(fresh.ino))

    ino, pushed, at_mds = run(env, flow())
    assert pushed == {"batch_setsize"}
    assert at_mds is not None and at_mds.ino == ino and at_mds.size == 100
