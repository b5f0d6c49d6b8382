import socket
import struct
import threading

import numpy as np
import pytest

from fedring import protocol
from fedring.commands import OPS
from fedring.errors import (
    DuplicateObject,
    MalformedPayload,
    ObjectNotFound,
    RemoteError,
    ShapeMismatch,
    UnknownCommand,
    WorkerUnknown,
)
from fedring.protocol import Command, Message, serialize_chain
from fedring.tensor import Dtype, Tensor
from fedring.workers import (
    SocketClient,
    TransportTap,
    VirtualHandle,
    VirtualRegistry,
    WorkerCore,
    make_server,
    socket_federation,
    virtual_federation,
)


def local_payload(values, dtype=Dtype.FLOAT64):
    return serialize_chain([("local", Tensor(np.asarray(values), dtype))])


def eval_cmd(op, *args):
    """An eval_expr command applying one opcode to all its arguments."""
    prog = [v for i in range(len(args)) for v in (OPS["ref"][0], i)]
    return Command("eval_expr", args, {"prog": prog + [OPS[op][0]]})


X = local_payload([1.0])
Y = local_payload([2.0])

# each payload is refused with MalformedPayload: opaque bytes, no nodes, a
# truncated tensor, the retired kind-3 (shared) node, a bad name, trailing bytes
MALFORMED = (
    b"x",
    b"",
    b"\x00",
    X[:-1],
    bytes([1, 3, 1, 1, ord("a")]) + struct.pack("<Q", 1),
    bytes([1, 1, 2, 0xFF, 0xFE]) + struct.pack("<Q", 1),
    X + b"\x00",
)


@pytest.fixture
def server():
    core = WorkerCore("alice", seed=0)
    srv = make_server("127.0.0.1", 0, core)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


class TestObjectStore:
    def test_store_fetch_roundtrip(self):
        w = WorkerCore("a", 0)
        w.store_object(1, X)
        assert w.fetch_object(1) == X

    def test_duplicate(self):
        w = WorkerCore("a", 0)
        w.store_object(1, X)
        with pytest.raises(DuplicateObject):
            w.store_object(1, Y)

    def test_fetch_delete_moves(self):
        w = WorkerCore("a", 0)
        w.store_object(1, X)
        assert w.fetch_object(1, delete=True) == X
        with pytest.raises(ObjectNotFound):
            w.fetch_object(1, delete=True)

    def test_fetch_read_semantics(self):
        w = WorkerCore("a", 0)
        w.store_object(1, X)
        assert w.fetch_object(1) == w.fetch_object(1)

    def test_unknown(self):
        w = WorkerCore("a", 0)
        with pytest.raises(ObjectNotFound):
            w.fetch_object(42)
        with pytest.raises(ObjectNotFound):
            w.delete_object(42)

    def test_delete_many_all_or_nothing(self):
        w = WorkerCore("a", 0)
        for oid in (1, 2, 3):
            w.store_object(oid, X)
        with pytest.raises(ObjectNotFound):
            w.delete_object(1, 2, 99)
        assert w.object_count() == 3
        w.delete_object(1, 3)
        assert w.object_count() == 1
        with pytest.raises(MalformedPayload):
            w.delete_object()

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_store_stores_nothing(self, bad):
        w = WorkerCore("a", 0)
        with pytest.raises(MalformedPayload):
            w.store_object(1, bad)
        assert w.object_count() == 0
        w.store_object(1, X)  # the id is still free
        assert w.fetch_object(1) == X

    def test_bad_name(self):
        with pytest.raises(WorkerUnknown):
            WorkerCore("", 0)
        with pytest.raises(WorkerUnknown):
            WorkerCore("x" * 65, 0)


class TestExecute:
    def test_add(self):
        w = WorkerCore("a", 0)
        w.store_object(1, local_payload([1.0, 2.0]))
        w.store_object(2, local_payload([3.0, 4.0]))
        oid = w.execute(eval_cmd("add", Command.obj(1), Command.obj(2)))
        nodes = protocol.deserialize_chain(w.fetch_object(oid))
        assert np.array_equal(nodes[-1][1].data, [4.0, 6.0])

    def test_missing_arg(self):
        w = WorkerCore("a", 0)
        with pytest.raises(ObjectNotFound):
            w.execute(eval_cmd("neg", Command.obj(99)))

    def test_unknown_command(self):
        w = WorkerCore("a", 0)
        with pytest.raises(UnknownCommand):
            w.execute(Command("frobnicate", ()))

    def test_fixed_precision_prefix_preserved(self):
        w = WorkerCore("a", 0)
        payload = serialize_chain([
            ("fixed_precision", 16),
            ("local", Tensor(np.array([65536], dtype=np.uint64), Dtype.RING64)),
        ])
        w.store_object(1, payload)
        oid = w.execute(eval_cmd("add", Command.obj(1), Command.obj(1)))
        nodes = protocol.deserialize_chain(w.fetch_object(oid))
        assert nodes[0] == ("fixed_precision", 16)
        assert nodes[-1][1].data[0] == 131072

    def test_take_deleted_after_success_only(self):
        w = WorkerCore("a", 0)
        w.store_object(1, local_payload([1.0, 2.0]))
        w.store_object(2, local_payload([3.0]))
        with pytest.raises(ShapeMismatch):
            w.execute(eval_cmd("add", ("take", 1), Command.obj(2)))
        assert w.object_count() == 2  # a failed command consumes nothing
        inline = Tensor(np.array([10.0, 20.0]), Dtype.FLOAT64)
        oid = w.execute(eval_cmd("add", ("take", 1), ("tensor", inline)))
        assert np.array_equal(protocol.deserialize_chain(w.fetch_object(oid))[-1][1].data,
                              [11.0, 22.0])
        with pytest.raises(ObjectNotFound):
            w.fetch_object(1)

    def test_internal_ids_disjoint_from_leader_span(self):
        w = WorkerCore("a", 0)
        assert w.allocate_id() >= 1 << 32


class TestVirtualRegistry:
    def test_aliased_handles(self):
        reg = VirtualRegistry()
        reg.create("alice", 0)
        h1 = VirtualHandle(reg.get("alice"))
        h2 = VirtualHandle(reg.get("alice"))
        h1.store(5, X)
        assert h2.fetch(5) == X

    def test_duplicate_worker(self):
        reg = VirtualRegistry()
        reg.create("alice", 0)
        with pytest.raises(DuplicateObject):
            reg.create("alice", 0)

    def test_tap_counts(self):
        tap = TransportTap()
        fed, _ = virtual_federation(["alice"], 0, tap)
        h = fed.worker("alice")
        h.store(1, local_payload([1.0]))
        h.fetch(1)
        h.store(2, local_payload([2.0]))
        h.execute(eval_cmd("add", Command.obj(1), Command.obj(2)))
        assert tap.count("store") == 2
        assert tap.count("fetch") == 1
        assert tap.count("execute") == 1
        assert (1,) in tap.transferred_shapes()

    def test_tap_counts_inline_tensors(self):
        tap = TransportTap()
        fed, _ = virtual_federation(["alice"], 0, tap)
        h = fed.worker("alice")
        h.store(1, local_payload([[1.0, 2.0, 3.0]]))
        inline = Tensor(np.ones((1, 3)), Dtype.FLOAT64)
        h.execute(eval_cmd("add", Command.obj(1), ("tensor", inline)))
        event = tap.events[-1]
        assert event.op == "execute"
        assert event.shapes == ((1, 3),)
        assert event.nbytes == len(protocol.serialize_tensor(inline))
        h.delete(1)
        assert tap.messages == 3


class TestSocketWorker:
    def test_store_get_roundtrip(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        payload = local_payload([1.0, 2.0, 3.0])
        c.store(11, payload)
        assert c.fetch(11) == payload
        c.close()

    def test_execute_remote(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        c.store(1, local_payload([1.0, 2.0]))
        c.store(2, local_payload([3.0, 4.0]))
        oid = c.execute(eval_cmd("add", Command.obj(1), Command.obj(2)))
        nodes = protocol.deserialize_chain(c.fetch(oid))
        assert np.array_equal(nodes[-1][1].data, [4.0, 6.0])
        c.close()

    def test_error_replies_in_band(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        with pytest.raises(ObjectNotFound):
            c.fetch(999)
        c.store(1, X)
        with pytest.raises(DuplicateObject):
            c.store(1, Y)
        # connection still works after errors
        assert c.fetch(1) == X
        c.close()

    def test_malformed_store_replied_in_band(self, server):
        """A STORE whose chain does not decode is refused in-band; nothing
        is stored and the connection stays usable."""
        host, port = server.server_address
        c = SocketClient(host, port)
        for bad in MALFORMED:
            with pytest.raises(MalformedPayload):
                c.store(1, bad)
            assert server.worker_core.object_count() == 0
        c.store(1, X)
        assert c.fetch(1) == X
        assert server.worker_core.object_count() == 1
        c.close()

    def test_bad_magic_keeps_connection_usable(self, server):
        host, port = server.server_address
        sock = socket.create_connection((host, port))
        sock.sendall(b"JUNK" + b"\x00" * 18)  # header-sized garbage
        head = _recv(sock, 22)
        assert head[5] == protocol.MSG_ERROR
        (plen,) = struct.unpack("<Q", head[14:22])
        payload = _recv(sock, plen)
        assert struct.unpack("<I", payload[:4])[0] == protocol.ERR_MALFORMED
        # now a valid frame on the same connection
        frame = protocol.encode_frame(Message(protocol.MSG_STORE, 5, struct.pack("<Q", 3) + X))
        sock.sendall(frame)
        head = _recv(sock, 22)
        assert head[5] == protocol.MSG_RESULT
        assert struct.unpack("<Q", head[6:14])[0] == 5
        sock.close()

    def test_oversized_header_replies_then_closes(self, server):
        """A header claiming 2^40 payload bytes is answered with Malformed
        before any payload is read, then the connection closes."""
        host, port = server.server_address
        sock = socket.create_connection((host, port), timeout=10)
        sock.sendall(protocol.MAGIC + struct.pack("<BBQQ", 1, protocol.MSG_STORE, 9, 1 << 40))
        head = _recv(sock, 22)
        assert head[5] == protocol.MSG_ERROR
        (plen,) = struct.unpack("<Q", head[14:22])
        assert struct.unpack("<I", _recv(sock, plen)[:4])[0] == protocol.ERR_MALFORMED
        assert sock.recv(1) == b""
        sock.close()
        assert server.worker_core.object_count() == 0

    def test_multi_id_delete(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        for oid in (1, 2, 3):
            c.store(oid, X)
        c.delete(1, 3)
        assert server.worker_core.object_count() == 1
        with pytest.raises(ObjectNotFound):
            c.delete(2, 3)  # all or nothing
        assert c.fetch(2) == X
        for bad in (b"", struct.pack("<Q", 2) + b"\x00" * 4):  # k=0, ragged
            with pytest.raises(MalformedPayload):
                c.request(protocol.MSG_DELETE, bad)
        c.delete(2)  # the connection survives in-band errors
        assert server.worker_core.object_count() == 0
        c.close()

    def test_concurrent_clients(self, server):
        host, port = server.server_address
        errors = []

        def go(base):
            try:
                c = SocketClient(host, port)
                for i in range(20):
                    c.store(base + i, local_payload([float(i)]))
                c.close()
            except Exception as e:  # pragma: no cover
                errors.append(e)

        threads = [threading.Thread(target=go, args=(1000 * (k + 1),)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert server.worker_core.object_count() == 80

    def test_request_ids_echoed_in_order(self, server):
        host, port = server.server_address
        sock = socket.create_connection((host, port))
        # pipeline three stores, then read three replies: order preserved
        for rid in (10, 11, 12):
            sock.sendall(protocol.encode_frame(
                Message(protocol.MSG_STORE, rid, struct.pack("<Q", 100 + rid) + X)))
        for rid in (10, 11, 12):
            head = _recv(sock, 22)
            (plen,) = struct.unpack("<Q", head[14:22])
            _recv(sock, plen)
            assert head[5] == protocol.MSG_RESULT
            assert struct.unpack("<Q", head[6:14])[0] == rid
        sock.close()


@pytest.fixture(params=["virtual", "socket"])
def handle_and_core(request):
    """A tapped leader handle over one worker, and that worker's core."""
    tap = TransportTap()
    if request.param == "virtual":
        fed, registry = virtual_federation(["alice"], 0, tap)
        yield fed.worker("alice"), registry.get("alice")
        return
    core = WorkerCore("alice", seed=0)
    srv = make_server("127.0.0.1", 0, core)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    fed = socket_federation({"alice": srv.server_address}, tap)
    try:
        yield fed.worker("alice"), core
    finally:
        fed.close()
        srv.shutdown()
        srv.server_close()


class TestExecuteByValue:
    def test_reply_is_the_chain_and_nothing_is_stored(self, handle_and_core):
        """The reply is the result chain, prefix included; the worker keeps
        no result, allocates no id, and deletes a take argument."""
        h, core = handle_and_core
        h.store(1, serialize_chain([
            ("fixed_precision", 16),
            ("local", Tensor(np.array([65536], dtype=np.uint64), Dtype.RING64)),
        ]))
        h.store(2, local_payload([1.0, 2.0]))
        reply = h.execute(eval_cmd("add", Command.obj(1), Command.obj(1)), by_value=True)
        nodes = protocol.deserialize_chain(reply)
        assert nodes[0] == ("fixed_precision", 16)
        assert nodes[-1][1].data.tolist() == [131072]
        inline = Tensor(np.array([10.0, 20.0]), Dtype.FLOAT64)
        reply = h.execute(eval_cmd("add", ("take", 2), ("tensor", inline)), by_value=True)
        assert protocol.deserialize_chain(reply)[-1][1].data.tolist() == [11.0, 22.0]
        assert core.object_count() == 1
        with pytest.raises(ObjectNotFound):
            h.fetch(2)
        assert core.allocate_id() == WorkerCore("alice", 0).allocate_id()

    def test_tap_records_reply_on_the_execute(self, handle_and_core):
        h, _ = handle_and_core
        h.store(1, local_payload([[1.0, 2.0, 3.0]]))
        inline = Tensor(np.ones((1, 3)), Dtype.FLOAT64)
        reply = h.execute(eval_cmd("add", Command.obj(1), ("tensor", inline)), by_value=True)
        event = h.tap.events[-1]
        assert (event.op, event.oid) == ("execute", 0)
        assert event.shapes == ((1, 3), (1, 3))
        assert event.nbytes == len(protocol.serialize_tensor(inline)) + len(reply)
        assert h.tap.messages == 2

    def test_failure_keeps_take_objects(self, handle_and_core):
        h, core = handle_and_core
        h.store(1, local_payload([1.0, 2.0]))
        h.store(2, local_payload([3.0]))
        with pytest.raises((ShapeMismatch, RemoteError)):  # a socket reply carries no type
            h.execute(eval_cmd("add", ("take", 1), Command.obj(2)), by_value=True)
        with pytest.raises(ObjectNotFound):
            h.execute(eval_cmd("add", ("take", 1), Command.obj(99)), by_value=True)
        assert core.object_count() == 2  # a failed command consumes nothing
        assert h.fetch(1) == local_payload([1.0, 2.0])

    def test_socket_error_in_band(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        c.store(1, local_payload([1.0, 2.0]))
        with pytest.raises(ObjectNotFound):
            c.execute(eval_cmd("neg", Command.obj(99)), by_value=True)
        with pytest.raises(UnknownCommand):
            c.execute(Command("frobnicate", ()), by_value=True)
        reply = c.execute(eval_cmd("neg", Command.obj(1)), by_value=True)
        assert protocol.deserialize_chain(reply)[-1][1].data.tolist() == [-1.0, -2.0]
        assert server.worker_core.object_count() == 1
        c.close()

    def test_truncated_payload_is_malformed(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        c.store(1, X)
        payload = protocol.serialize_command(eval_cmd("neg", ("take", 1)))
        for cut in (1, 8, len(payload) - 1):
            with pytest.raises(MalformedPayload):
                c.request(protocol.MSG_EXECUTE_VALUE, payload[:cut])
        assert server.worker_core.object_count() == 1
        assert c.request(protocol.MSG_EXECUTE_VALUE, payload).payload == local_payload([-1.0])
        assert server.worker_core.object_count() == 0
        c.close()


def _recv(sock, n):
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        assert chunk
        buf += chunk
    return buf


class TestTransportEquivalence:
    def test_same_script_both_transports(self, server):
        """Any script of store/fetch/execute gives identical observables."""
        host, port = server.server_address
        fed_s = socket_federation({"alice": (host, port)})
        fed_v, _ = virtual_federation(["alice"], 0)

        def script(fed):
            h = fed.worker("alice")
            h.store(201, local_payload([[1.0, 2.0], [3.0, 4.0]]))
            h.store(202, local_payload([[5.0, 6.0], [7.0, 8.0]]))
            oid = h.execute(eval_cmd("matmul", Command.obj(201), Command.obj(202)))
            out = h.fetch(oid, delete=True)
            h.delete(201)
            return out

        assert script(fed_s) == script(fed_v)
        fed_s.close()
