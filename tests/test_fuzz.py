"""Seeded fuzzing of what reaches a worker from the wire: random eval_expr
programs on a WorkerCore, and random byte mutations of valid EXECUTE
payloads, one for every command, on a live socket worker and on a
WorkerCore alike, each with a peer it pushes to. A refusal must be a
FedringError of the same class on both, must leave every worker's objects
as they were, and must leave the connection serving. numpy's RNG drives every draw, so each run is the same
run."""

import struct
import threading

import numpy as np
import pytest

from fedring import protocol
from fedring.commands import OPS
from fedring.errors import FedringError, RemoteError
from fedring.protocol import Command
from fedring.tensor import Dtype, Tensor
from fedring.workers import SocketClient, WorkerCore, _LazySocketPeer, make_server

from test_workers import bits, fetch, store

N_OPCODES = len(OPS)
REF = OPS["ref"][0]
SENTINEL = 999  # an object no fuzzed command names


def ring(rng, shape):
    return Tensor(rng.integers(0, 1 << 62, shape, dtype=np.uint64), Dtype.RING64)


def seed_objects(worker):
    """Float and ring vectors and a matrix of each, small enough that no
    float product in a short program overflows, a 4x3 partition (5, 6), an
    elementwise triple of shape (3,) for two parties that are both this
    worker (7, 8), an expanded triple (9), and the sentinel."""
    rng = np.random.default_rng(0)
    store(worker, 1, Tensor(rng.uniform(-1, 1, 3), Dtype.FLOAT64))
    store(worker, 2, Tensor(rng.uniform(-1, 1, (3, 3)), Dtype.FLOAT64))
    store(worker, 3, ring(rng, 3))
    store(worker, 4, ring(rng, (3, 3)))
    store(worker, 5, Tensor(rng.uniform(-1, 1, (4, 3)), Dtype.FLOAT64))
    store(worker, 6, Tensor(rng.uniform(0, 1, 4), Dtype.FLOAT64))
    worker.execute(Command("gen_triples", (), {"kind": "elementwise", "shape": [3], "count": 1,
                                               "parties": "alice,alice", "ids": [7, 8]}))
    store(worker, 9, ring(rng, 9))
    store(worker, SENTINEL, Tensor(np.arange(3.0), Dtype.FLOAT64))


def random_program(rng, n_leaves):
    """Up to 12 opcodes in [-1, N_OPCODES], each with 0 to 2 constant
    words: leaf refs, save/load slots and trunc shifts and roles both in and
    out of range, ring constants and small float bit patterns."""
    prog = []
    for _ in range(int(rng.integers(1, 13))):
        op = int(rng.integers(-1, N_OPCODES + 1))
        prog.append(op)
        if op in (REF, OPS["save"][0], OPS["load"][0]):
            prog.append(int(rng.integers(-1, n_leaves + 2)))
        elif op in (OPS["scale"][0], OPS["offset"][0]):
            prog.append(int(rng.integers(-(1 << 62), 1 << 62)))
        elif op in (OPS["fscale"][0], OPS["foffset"][0]):
            prog += struct.unpack("<q", struct.pack("<d", rng.uniform(-1, 1)))
        elif op == OPS["trunc"][0]:
            prog += [int(rng.integers(-2, 66)), int(rng.integers(-1, 3))]
    return prog


def test_random_programs_on_a_worker_core():
    core = WorkerCore("alice", seed=0)
    seed_objects(core)
    rng = np.random.default_rng(1)
    refused = 0
    for i in range(1500):
        oids = [int(v) for v in rng.integers(1, 6, size=int(rng.integers(0, 4)))]
        args = tuple(Command.obj(oid) for oid in oids)
        cmd = Command("eval_expr", args, {"prog": random_program(rng, len(args))})
        dest = 1000 + i if rng.random() < 0.3 else 0
        before = core.object_count()
        try:
            core.execute(cmd, dest)
        except FedringError:
            refused += 1
            assert core.object_count() == before
        except Exception as e:  # noqa: BLE001  (the property under test)
            pytest.fail(f"program {cmd.kwargs['prog']} over {oids} raised {e!r}")
    assert 0 < refused < 1500
    assert bits(fetch(core, SENTINEL)) == bits(Tensor(np.arange(3.0), Dtype.FLOAT64))


def valid_payloads():
    """EXECUTE payloads (destination id, then command) a leader sends, for
    every command: a store, a fetch, by-value and stored arithmetic over
    objects, a training batch and a DP phase over the partition, share
    generation, a share's parts stored at once, triple generation, and both
    Beaver rounds, the combine also with a truncation shift."""
    rng = np.random.default_rng(3)
    params = ("tensor", Tensor(rng.uniform(-0.5, 0.5, 11), Dtype.FLOAT64))
    train = {"dims": [3, 2, 1], "task": "binary"}
    triple = {"kind": "elementwise", "shape": [3]}
    cmds = [
        (30, Command("eval_expr", (("tensor", Tensor(np.ones(3), Dtype.FLOAT64)),),
                     {"prog": [REF, 0]})),
        (0, Command("eval_expr", (Command.obj(1),), {"prog": [REF, 0]})),
        (0, Command("eval_expr", (Command.obj(3), Command.obj(3)),
                    {"prog": [REF, 0, REF, 1, OPS["add"][0], OPS["scale"][0], 3]})),
        (31, Command("eval_expr", (Command.obj(2), Command.obj(2)),
                     {"prog": [REF, 0, REF, 1, OPS["matmul"][0], OPS["sigmoid_poly"][0]]})),
        (0, Command("fb_batch", (params, Command.obj(5), Command.obj(6)),
                    {**train, "indices": [0, 3, 2]})),
        (0, Command("dp_phase", (params, Command.obj(5), Command.obj(6)),
                    {**train, "lot_size": 2, "clip_norm": 1.0, "sigma": 1.5})),
        (0, Command("make_shares", (Command.obj(3),),
                    {"parties": "alice,bob", "ids": [20, 21], "prog": [REF, 0]})),
        (0, Command("store_parts", (("tensor", ring(rng, 7)),),
                    {"ids": [27, 28], "ranks": [2, 1], "dims": [2, 3, 1]})),
        (0, Command("gen_triples", (), {**triple, "count": 2, "parties": "alice,bob",
                                        "ids": [22, 23, 24, 25]})),
        (0, Command("beaver_open", (Command.obj(3), Command.obj(7)),
                    {**triple, "prog": [REF, 0, REF, 0], "keep": 26})),
        (0, Command("beaver_combine", (Command.obj(9), ("tensor", ring(rng, 3)),
                                       ("tensor", ring(rng, 3))), {**triple, "lead": 1})),
        (0, Command("beaver_combine", (Command.obj(9), ("tensor", ring(rng, 3)),
                                       ("tensor", ring(rng, 3))),
                    {**triple, "lead": 0, "trunc": 16})),
    ]
    return [struct.pack("<Q", dest) + protocol.serialize_command(c) for dest, c in cmds]


def outcome(execute, payload):
    """None if the payload is served, else the exception it raised."""
    try:
        execute(payload)
    except Exception as e:  # noqa: BLE001  (compared, not swallowed)
        return e
    return None


def mutate(rng, payload):
    buf = bytearray(payload)
    for _ in range(int(rng.integers(1, 4))):
        kind = rng.integers(3)
        at = int(rng.integers(len(buf)))
        if kind == 0:
            buf[at] = int(rng.integers(256))
        elif kind == 1:
            del buf[at]
        else:
            buf.insert(at, int(rng.integers(256)))
    return bytes(buf)


@pytest.fixture
def live_worker():
    """A socket worker on a thread whose peer bob is a second socket worker,
    a client connected to the first, and WorkerCores of the same names and
    seeds to mirror both."""
    bob = WorkerCore("bob", seed=0)
    bob_srv = make_server("127.0.0.1", 0, bob)
    peer = _LazySocketPeer(*bob_srv.server_address)
    core = WorkerCore("alice", 0, {"bob": peer})
    srv = make_server("127.0.0.1", 0, core)
    for s in (srv, bob_srv):
        threading.Thread(target=s.serve_forever, daemon=True).start()
    client = SocketClient(*srv.server_address)
    mirror_bob = WorkerCore("bob", seed=0)
    mirror = WorkerCore("alice", 0, {"bob": mirror_bob})
    try:
        yield (core, bob), client, (mirror, mirror_bob)
    finally:
        client.close()
        peer.close()
        for s in (srv, bob_srv):
            s.shutdown()
            s.server_close()


def test_mutated_execute_payloads_on_a_socket_worker(live_worker):
    """Each mutated payload goes to the socket worker and to its mirror
    core; a refusal is the same FedringError, with the same message, on
    both, never RemoteError, and leaves every worker's objects, the peers'
    too, as they were."""
    (core, bob), client, (mirror, mirror_bob) = live_worker
    workers = (core, bob, mirror, mirror_bob)

    def on_socket(payload):
        client.request(protocol.MSG_EXECUTE, payload)

    def on_core(payload):
        (dest,) = struct.unpack_from("<Q", payload)
        mirror.execute(protocol.deserialize_command(payload, 8), dest)

    seed_objects(client)
    seed_objects(mirror)
    seeded = [set(w._objects) for w in workers]

    def restore():
        """Drop what a served payload stored, on every worker."""
        for w, kept in zip(workers, seeded):
            made = set(w._objects) - kept
            if made:
                w.delete_object(*made)

    def counts():
        return [w.object_count() for w in workers]

    payloads = valid_payloads()
    for payload in payloads:  # each is served as sent, on both
        assert outcome(on_socket, payload) is None
        assert outcome(on_core, payload) is None
        restore()
    sentinel = bits(fetch(client, SENTINEL))
    rng = np.random.default_rng(2)
    refused = set()
    for _ in range(300):
        i = int(rng.integers(len(payloads)))
        buf = mutate(rng, payloads[i])
        before = counts()
        got = outcome(on_socket, buf)
        want = outcome(on_core, buf)
        assert not isinstance(got, RemoteError), (i, buf, got)
        assert type(got) is type(want), (i, buf, got, want)
        if got is None:
            restore()
            continue
        assert isinstance(got, FedringError), (i, buf, got)
        assert str(got) == str(want), (i, buf, got, want)
        refused.add(i)
        assert counts() == before, (i, buf, got)
        assert bits(fetch(client, SENTINEL)) == sentinel
    assert refused == set(range(len(payloads)))
