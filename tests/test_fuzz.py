"""Seeded fuzzing of what reaches a worker from the wire: random eval_expr
programs on a WorkerCore, and random byte mutations of valid EXECUTE
payloads on a live socket worker. A refusal must be a FedringError, must
leave the worker's objects as they were, and must leave the connection
serving. numpy's RNG drives every draw, so each run is the same run."""

import struct
import threading

import numpy as np
import pytest

from fedring import protocol
from fedring.commands import OPS
from fedring.errors import FedringError
from fedring.protocol import Command
from fedring.tensor import Dtype, Tensor
from fedring.workers import SocketClient, WorkerCore, make_server

from test_workers import bits, fetch, store

N_OPCODES = len(OPS)
REF = OPS["ref"][0]
SENTINEL = 999  # an object no fuzzed command names


def seed_objects(worker):
    """Float and ring vectors and a matrix of each, small enough that no
    float product in a short program overflows, plus the sentinel."""
    rng = np.random.default_rng(0)
    store(worker, 1, Tensor(rng.uniform(-1, 1, 3), Dtype.FLOAT64))
    store(worker, 2, Tensor(rng.uniform(-1, 1, (3, 3)), Dtype.FLOAT64))
    store(worker, 3, Tensor(rng.integers(0, 1 << 62, 3, dtype=np.uint64), Dtype.RING64))
    store(worker, 4, Tensor(rng.integers(0, 1 << 62, (3, 3), dtype=np.uint64), Dtype.RING64))
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
    """EXECUTE payloads (destination id, then command) a leader sends:
    a store, a fetch, and by-value and stored arithmetic over objects."""
    cmds = [
        (7, Command("eval_expr", (("tensor", Tensor(np.ones(3), Dtype.FLOAT64)),),
                    {"prog": [REF, 0]})),
        (0, Command("eval_expr", (Command.obj(1),), {"prog": [REF, 0]})),
        (0, Command("eval_expr", (Command.obj(3), Command.obj(3)),
                    {"prog": [REF, 0, REF, 1, OPS["add"][0], OPS["scale"][0], 3]})),
        (8, Command("eval_expr", (Command.obj(2), Command.obj(2)),
                    {"prog": [REF, 0, REF, 1, OPS["matmul"][0], OPS["sigmoid_poly"][0]]})),
    ]
    return [struct.pack("<Q", dest) + protocol.serialize_command(c) for dest, c in cmds]


@pytest.fixture
def live_worker(monkeypatch):
    """A socket worker on a thread, and the exceptions it encodes as error
    replies (the client sees only their code and text)."""
    raised = []
    encode = protocol.encode_error

    def spy(exc):
        raised.append(exc)
        return encode(exc)

    monkeypatch.setattr(protocol, "encode_error", spy)
    core = WorkerCore("alice", seed=0)
    srv = make_server("127.0.0.1", 0, core)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    client = SocketClient(*srv.server_address)
    try:
        yield core, client, raised
    finally:
        client.close()
        srv.shutdown()
        srv.server_close()


def test_mutated_execute_payloads_on_a_socket_worker(live_worker):
    core, client, raised = live_worker
    seed_objects(client)
    payloads = valid_payloads()
    for payload in payloads:  # each is served as sent
        client.request(protocol.MSG_EXECUTE, payload)
    client.delete(7, 8)
    sentinel = bits(fetch(client, SENTINEL))
    rng = np.random.default_rng(2)
    refused = 0
    for _ in range(300):
        buf = bytearray(payloads[int(rng.integers(len(payloads)))])
        for _ in range(int(rng.integers(1, 4))):
            kind = rng.integers(3)
            at = int(rng.integers(len(buf)))
            if kind == 0:
                buf[at] = int(rng.integers(256))
            elif kind == 1:
                del buf[at]
            else:
                buf.insert(at, int(rng.integers(256)))
        before = core.object_count()
        try:
            client.request(protocol.MSG_EXECUTE, bytes(buf))
        except FedringError:
            refused += 1
            assert core.object_count() == before
        assert bits(fetch(client, SENTINEL)) == sentinel
    assert refused > 0
    bad = [e for e in raised if not isinstance(e, FedringError)]
    assert not bad, bad[:5]
