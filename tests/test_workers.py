import socket
import struct
import threading
import time

import numpy as np
import pytest

from fedring import commands, protocol, workers
from fedring import tensor as tc
from fedring.commands import OPS, identity
from fedring.errors import (
    BadMagic,
    ConfigError,
    DtypeMismatch,
    DuplicateObject,
    EmptyLot,
    MalformedPayload,
    ObjectNotFound,
    OverflowRangeError,
    RemoteError,
    ShapeMismatch,
    TransportError,
    UnknownCommand,
    WorkerUnknown,
)
from fedring.protocol import Command, Message
from fedring.tensor import Dtype, Tensor
from fedring.workers import (
    SocketClient,
    TransportTap,
    VirtualHandle,
    VirtualRegistry,
    WorkerCore,
    _FrameReader,
    _LazySocketPeer,
    make_server,
    socket_federation,
    virtual_federation,
)


def local(values, dtype=Dtype.FLOAT64):
    return Tensor(np.asarray(values), dtype)


def bits(t: Tensor):
    """All that a tensor's encoding holds: its dtype, shape and element
    bits. Comparing these is comparing encodings."""
    return t.dtype, t.shape, t.data.tobytes()


def store(worker, oid, t):
    """A leader store over a bare worker core or socket client."""
    worker.execute(identity(("tensor", t)), oid)


def fetch(worker, oid, delete=False):
    return worker.execute(identity(("take" if delete else "obj", oid)))


def eval_cmd(op, *args):
    """An eval_expr command applying one opcode to all its arguments."""
    prog = [v for i in range(len(args)) for v in (OPS["ref"][0], i)]
    return Command("eval_expr", args, {"prog": prog + [OPS[op][0]]})


X = local([1.0])
Y = local([2.0])
XB = protocol.serialize_tensor(X)

# each is refused with MalformedPayload in place of a store's inline tensor:
# opaque bytes, no ndim, truncated data, truncated dims, a dim with no data
# behind it, an unknown dtype, trailing bytes, and X in the version-1
# one-node Local chain envelope
MALFORMED = (
    b"x",
    b"",
    b"\x00",
    XB[:-1],
    bytes([1, 3, 1, 1, ord("a")]) + struct.pack("<Q", 1),
    bytes([1, 1, 2, 0xFF, 0xFE]) + struct.pack("<Q", 1),
    bytes([2, 0]) + b"\x00" * 8,
    XB + b"\x00",
    bytes([1, 0]) + XB,
)


def inline_store(raw: bytes) -> bytes:
    """The command bytes of a store of X with `raw` in place of X's
    encoding."""
    cmd = protocol.serialize_command(identity(("tensor", X)))
    at = cmd.index(bytes([protocol.ARG_TENSOR]) + XB) + 1
    return cmd[:at] + raw + cmd[at + len(XB):]


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
        store(w, 1, X)
        assert bits(fetch(w, 1)) == bits(X)

    def test_duplicate(self):
        w = WorkerCore("a", 0)
        store(w, 1, X)
        with pytest.raises(DuplicateObject):
            store(w, 1, Y)

    def test_fetch_delete_moves(self):
        w = WorkerCore("a", 0)
        store(w, 1, X)
        assert bits(fetch(w, 1, delete=True)) == bits(X)
        with pytest.raises(ObjectNotFound):
            fetch(w, 1, delete=True)

    def test_fetch_read_semantics(self):
        w = WorkerCore("a", 0)
        store(w, 1, X)
        assert bits(fetch(w, 1)) == bits(fetch(w, 1))

    def test_unknown(self):
        w = WorkerCore("a", 0)
        with pytest.raises(ObjectNotFound):
            fetch(w, 42)
        with pytest.raises(ObjectNotFound):
            w.delete_object(42)

    def test_delete_many_all_or_nothing(self):
        w = WorkerCore("a", 0)
        for oid in (1, 2, 3):
            store(w, oid, X)
        with pytest.raises(ObjectNotFound):
            w.delete_object(1, 2, 99)
        assert w.object_count() == 3
        w.delete_object(1, 3)
        assert w.object_count() == 1
        with pytest.raises(MalformedPayload):
            w.delete_object()

    @pytest.mark.parametrize("bad", MALFORMED)
    def test_malformed_store_stores_nothing(self, bad):
        """A store whose inline tensor does not decode is refused as the
        worker decodes the command, before anything runs or is stored."""
        w = WorkerCore("a", 0)
        with pytest.raises(MalformedPayload):
            w.execute(protocol.deserialize_command(inline_store(bad)), 1)
        assert w.object_count() == 0
        store(w, 1, X)  # the id is still free
        assert bits(fetch(w, 1)) == bits(X)

    def test_bad_name(self):
        with pytest.raises(WorkerUnknown):
            WorkerCore("", 0)
        with pytest.raises(WorkerUnknown):
            WorkerCore("x" * 65, 0)

    @pytest.mark.parametrize("names", [["a,b", "c"], ["a=b", "c"]])
    def test_separator_in_name(self, names):
        """',' separates a command's parties and '=' an endpoint's name
        from its address, so a name holding one could never be reached:
        "a,b" was accepted, and a share sent to it failed with "a,b has no
        peer 'a'"."""
        with pytest.raises(WorkerUnknown):
            virtual_federation(names, 0)


class TestExecute:
    def test_add(self):
        w = WorkerCore("a", 0)
        store(w, 1, local([1.0, 2.0]))
        store(w, 2, local([3.0, 4.0]))
        assert w.execute(eval_cmd("add", Command.obj(1), Command.obj(2)), 3) is None
        assert np.array_equal(fetch(w, 3).data, [4.0, 6.0])

    def test_missing_arg(self):
        w = WorkerCore("a", 0)
        with pytest.raises(ObjectNotFound):
            w.execute(eval_cmd("neg", Command.obj(99)))

    def test_unknown_command(self):
        w = WorkerCore("a", 0)
        with pytest.raises(UnknownCommand):
            w.execute(Command("frobnicate", ()))

    def test_take_deleted_after_success_only(self):
        w = WorkerCore("a", 0)
        store(w, 1, local([1.0, 2.0]))
        store(w, 2, local([3.0]))
        with pytest.raises(ShapeMismatch):
            w.execute(eval_cmd("add", ("take", 1), Command.obj(2)))
        assert w.object_count() == 2  # a failed command consumes nothing
        inline = Tensor(np.array([10.0, 20.0]), Dtype.FLOAT64)
        w.execute(eval_cmd("add", ("take", 1), ("tensor", inline)), 3)
        assert np.array_equal(fetch(w, 3).data, [11.0, 22.0])
        with pytest.raises(ObjectNotFound):
            fetch(w, 1)


class TestVirtualRegistry:
    def test_aliased_handles(self):
        reg = VirtualRegistry()
        reg.create("alice", 0)
        h1 = VirtualHandle(reg.get("alice"))
        h2 = VirtualHandle(reg.get("alice"))
        h1.store(5, X)
        assert bits(h2.fetch(5)) == bits(X)

    def test_duplicate_worker(self):
        reg = VirtualRegistry()
        reg.create("alice", 0)
        with pytest.raises(DuplicateObject):
            reg.create("alice", 0)

    def test_tap_counts(self):
        tap = TransportTap()
        fed, _ = virtual_federation(["alice"], 0, tap)
        h = fed.worker("alice")
        h.store(1, local([1.0]))
        h.fetch(1)
        h.store(2, local([2.0]))
        h.execute(eval_cmd("add", Command.obj(1), Command.obj(2)))
        assert tap.count("store") == 2
        assert tap.count("fetch") == 1
        assert tap.count("execute") == 1
        assert (1,) in tap.transferred_shapes()

    def test_tap_counts_inline_tensors(self):
        tap = TransportTap()
        fed, _ = virtual_federation(["alice"], 0, tap)
        h = fed.worker("alice")
        h.store(1, local([[1.0, 2.0, 3.0]]))
        inline = Tensor(np.ones((1, 3)), Dtype.FLOAT64)
        h.execute(eval_cmd("add", Command.obj(1), ("tensor", inline)), 2)
        event = tap.events[-1]
        assert (event.op, event.oid) == ("execute", 2)
        assert event.shapes == ((1, 3),)
        assert event.nbytes == len(protocol.serialize_tensor(inline))
        h.delete(1)
        assert tap.messages == 3


class TestSocketWorker:
    def test_store_get_roundtrip(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        t = local([1.0, 2.0, 3.0])
        store(c, 11, t)
        assert bits(fetch(c, 11)) == bits(t)
        c.close()

    def test_execute_remote(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        store(c, 1, local([1.0, 2.0]))
        store(c, 2, local([3.0, 4.0]))
        # a stored execute's RESULT frame is empty on the wire
        reply = c.request(protocol.MSG_EXECUTE, struct.pack("<Q", 3) + protocol.serialize_command(
            eval_cmd("add", Command.obj(1), Command.obj(2))))
        assert reply.payload == b""
        assert np.array_equal(fetch(c, 3).data, [4.0, 6.0])
        c.close()

    def test_error_replies_in_band(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        with pytest.raises(ObjectNotFound):
            fetch(c, 999)
        store(c, 1, X)
        with pytest.raises(DuplicateObject):
            store(c, 1, Y)
        # connection still works after errors
        assert bits(fetch(c, 1)) == bits(X)
        c.close()

    def test_malformed_store_replied_in_band(self, server):
        """A store whose inline tensor does not decode is refused in-band;
        nothing is stored and the connection stays usable."""
        host, port = server.server_address
        c = SocketClient(host, port)
        for bad in MALFORMED:
            with pytest.raises(MalformedPayload):
                c.request(protocol.MSG_EXECUTE, struct.pack("<Q", 1) + inline_store(bad))
            assert server.worker_core.object_count() == 0
        store(c, 1, X)
        assert bits(fetch(c, 1)) == bits(X)
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
        assert payload[: 1 + payload[0]] == b"\x08BadMagic"
        # now a valid frame on the same connection
        frame = protocol.encode_frame(Message(protocol.MSG_EXECUTE, 5, struct.pack("<Q", 3)
                                              + protocol.serialize_command(identity(("tensor", X)))))
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
        sock.sendall(protocol.MAGIC + struct.pack("<BBQQ", protocol.VERSION, protocol.MSG_EXECUTE,
                                                  9, 1 << 40))
        head = _recv(sock, 22)
        assert head[5] == protocol.MSG_ERROR
        (plen,) = struct.unpack("<Q", head[14:22])
        assert _recv(sock, plen).startswith(b"\x10MalformedPayload")
        assert sock.recv(1) == b""
        sock.close()
        assert server.worker_core.object_count() == 0

    def test_version_1_frame_refused(self, server):
        """A version-1 STORE frame, whose payload is a chain, is answered
        with Malformed from its header alone and stores nothing; the
        connection then closes, since its payload length is not trusted."""
        host, port = server.server_address
        sock = socket.create_connection((host, port), timeout=10)
        payload = struct.pack("<Q", 3) + bytes([1, 0]) + XB
        sock.sendall(protocol.MAGIC + struct.pack("<BBQQ", 1, 1, 4, len(payload)) + payload)
        head = _recv(sock, 22)
        assert head[5] == protocol.MSG_ERROR
        (plen,) = struct.unpack("<Q", head[14:22])
        assert b"unsupported version 1" in _recv(sock, plen)
        assert sock.recv(1) == b""
        sock.close()
        assert server.worker_core.object_count() == 0

    def test_type_7_frame_refused(self, server):
        """msg_types 1 and 2, the STORE and GET of wire version 3, and 7,
        the by-value EXECUTE of version 2, are each refused with Malformed
        from the header alone; nothing runs or is stored and the connection
        closes."""
        host, port = server.server_address
        payload = struct.pack("<Q", 3) + protocol.serialize_command(identity(("tensor", X)))
        frame = protocol.encode_frame(Message(protocol.MSG_EXECUTE, 4, payload))
        for msg_type in (1, 2, 7):
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(frame[:5] + bytes([msg_type]) + frame[6:])
            head = _recv(sock, 22)
            assert head[5] == protocol.MSG_ERROR
            (plen,) = struct.unpack("<Q", head[14:22])
            assert f"unknown msg_type {msg_type}".encode() in _recv(sock, plen)
            assert sock.recv(1) == b""
            sock.close()
        assert server.worker_core.object_count() == 0

    def test_multi_id_delete(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        for oid in (1, 2, 3):
            store(c, oid, X)
        c.delete(1, 3)
        assert server.worker_core.object_count() == 1
        with pytest.raises(ObjectNotFound):
            c.delete(2, 3)  # all or nothing
        assert bits(fetch(c, 2)) == bits(X)
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
                    store(c, base + i, local([float(i)]))
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
        cmd = protocol.serialize_command(identity(("tensor", X)))
        for rid in (10, 11, 12):
            sock.sendall(protocol.encode_frame(
                Message(protocol.MSG_EXECUTE, rid, struct.pack("<Q", 100 + rid) + cmd)))
        for rid in (10, 11, 12):
            head = _recv(sock, 22)
            (plen,) = struct.unpack("<Q", head[14:22])
            _recv(sock, plen)
            assert head[5] == protocol.MSG_RESULT
            assert struct.unpack("<Q", head[6:14])[0] == rid
        sock.close()

    def test_client_times_out_on_a_silent_worker(self):
        """The client's timeout is the kernel's, so a call polls nothing
        first: a worker that accepts and never replies raises TransportError
        once the timeout has passed."""
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            c = SocketClient(*listener.getsockname(), timeout=0.2)
            try:
                assert c.sock.gettimeout() is None
                t0 = time.monotonic()
                with pytest.raises(TransportError, match="timed out"):
                    store(c, 1, X)
                assert 0.15 < time.monotonic() - t0 < 10
            finally:
                c.close()


class TestFrameReader:
    """A frame is read whole however its bytes arrive, with one recv when
    they arrive together, and memory follows the bytes that arrive."""

    class Chunks:
        """A socket whose recv returns the given chunks in turn, then b""."""

        def __init__(self, chunks):
            self.chunks = list(chunks)
            self.asked = []

        def recv(self, n):
            self.asked.append(n)
            chunk = self.chunks.pop(0) if self.chunks else b""
            assert len(chunk) <= n
            return chunk

    FRAMES = [Message(protocol.MSG_EXECUTE, 1), Message(protocol.MSG_RESULT, 2, b"abc"),
              Message(protocol.MSG_EXECUTE, 3, bytes(range(256)) * 40)]

    def test_one_recv_per_frame(self):
        sock = self.Chunks([protocol.encode_frame(m) for m in self.FRAMES])
        reader = _FrameReader(sock)
        assert [reader.read() for _ in self.FRAMES] == self.FRAMES
        assert len(sock.asked) == len(self.FRAMES)
        assert reader._rest == b""  # no frame's bytes held between frames

    def test_any_split(self):
        """Frames cut at every byte, cut at odd places or run together in
        one recv all read the same."""
        raw = b"".join(protocol.encode_frame(m) for m in self.FRAMES)
        for chunks in ([raw], [raw[i:i + 1] for i in range(len(raw))],
                       [raw[:5], raw[5:30], raw[30:31], raw[31:]]):
            reader = _FrameReader(self.Chunks(chunks))
            assert [reader.read() for _ in self.FRAMES] == self.FRAMES
            with pytest.raises(ConnectionError):
                reader.read()

    def test_memory_follows_arrival(self):
        """A header claiming MAX_PAYLOAD bytes asks for at most _RECV_CHUNK
        a call, and a peer that closes mid-payload raises ConnectionError."""
        head = protocol.MAGIC + struct.pack("<BBQQ", protocol.VERSION, protocol.MSG_EXECUTE,
                                            1, protocol.MAX_PAYLOAD)
        sock = self.Chunks([head, b"x" * 100, b"y" * 100])
        with pytest.raises(ConnectionError):
            _FrameReader(sock).read()
        assert len(sock.asked) == 4
        assert max(sock.asked) <= workers._RECV_CHUNK

    def test_bad_header_consumes_only_the_header(self):
        """After bad magic the reader stands at the next frame, as the
        worker's resync needs."""
        good = protocol.encode_frame(self.FRAMES[1])
        reader = _FrameReader(self.Chunks([b"JUNK" + b"\x00" * 18 + good]))
        with pytest.raises(BadMagic):
            reader.read()
        assert reader.read() == self.FRAMES[1]


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
    """An execute with destination 0 replies with its result."""

    def test_reply_is_the_tensor_and_nothing_is_stored(self, handle_and_core):
        """The reply is the result tensor; the worker keeps no result and
        deletes a take argument."""
        h, core = handle_and_core
        h.store(1, local([65536], Dtype.RING64))
        h.store(2, local([1.0, 2.0]))
        reply = h.execute(eval_cmd("add", Command.obj(1), Command.obj(1)))
        assert bits(reply) == bits(local([131072], Dtype.RING64))
        inline = Tensor(np.array([10.0, 20.0]), Dtype.FLOAT64)
        reply = h.execute(eval_cmd("add", ("take", 2), ("tensor", inline)))
        assert reply.data.tolist() == [11.0, 22.0]
        assert core.object_count() == 1
        with pytest.raises(ObjectNotFound):
            h.fetch(2)

    def test_tap_records_reply_on_the_execute(self, handle_and_core):
        h, _ = handle_and_core
        h.store(1, local([[1.0, 2.0, 3.0]]))
        inline = Tensor(np.ones((1, 3)), Dtype.FLOAT64)
        reply = h.execute(eval_cmd("add", Command.obj(1), ("tensor", inline)))
        event = h.tap.events[-1]
        assert (event.op, event.oid) == ("execute", 0)
        assert event.shapes == ((1, 3), (1, 3))
        assert event.nbytes == (len(protocol.serialize_tensor(inline))
                                + len(protocol.serialize_tensor(reply)))
        assert h.tap.messages == 2

    def test_failure_keeps_take_objects(self, handle_and_core):
        h, core = handle_and_core
        h.store(1, local([1.0, 2.0]))
        h.store(2, local([3.0]))
        with pytest.raises(ShapeMismatch):
            h.execute(eval_cmd("add", ("take", 1), Command.obj(2)))
        with pytest.raises(ObjectNotFound):
            h.execute(eval_cmd("add", ("take", 1), Command.obj(99)))
        assert core.object_count() == 2  # a failed command consumes nothing
        assert bits(h.fetch(1)) == bits(local([1.0, 2.0]))

    def test_socket_error_in_band(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        store(c, 1, local([1.0, 2.0]))
        with pytest.raises(ObjectNotFound):
            c.execute(eval_cmd("neg", Command.obj(99)))
        with pytest.raises(UnknownCommand):
            c.execute(Command("frobnicate", ()))
        reply = c.execute(eval_cmd("neg", Command.obj(1)))
        assert reply.data.tolist() == [-1.0, -2.0]
        assert server.worker_core.object_count() == 1
        c.close()

    def test_truncated_payload_is_malformed(self, server):
        host, port = server.server_address
        c = SocketClient(host, port)
        store(c, 1, X)
        payload = struct.pack("<Q", 0) + protocol.serialize_command(eval_cmd("neg", ("take", 1)))
        for cut in (0, 1, 7, 8, 9, 16, len(payload) - 1):
            with pytest.raises(MalformedPayload):
                c.request(protocol.MSG_EXECUTE, payload[:cut])
        assert server.worker_core.object_count() == 1
        assert c.request(protocol.MSG_EXECUTE, payload).payload == protocol.serialize_tensor(
            local([-1.0]))
        assert server.worker_core.object_count() == 0
        c.close()


class TestExecuteDestination:
    """An execute with a nonzero destination stores its result under that
    leader id and replies empty."""

    def test_stored_under_the_leader_id(self, handle_and_core):
        h, core = handle_and_core
        h.store(1, local([1.0, 2.0]))
        inline = Tensor(np.array([10.0, 20.0]), Dtype.FLOAT64)
        assert h.execute(eval_cmd("add", ("take", 1), ("tensor", inline)), 1 << 40) is None
        assert h.fetch(1 << 40).data.tolist() == [11.0, 22.0]
        assert core.object_count() == 1
        event = h.tap.events[-2]
        assert (event.op, event.oid, event.shapes) == ("execute", 1 << 40, ((2,),))
        assert event.nbytes == len(protocol.serialize_tensor(inline))

    def test_duplicate_destination_consumes_nothing(self, handle_and_core):
        """A destination that is already stored raises DuplicateObject
        before the command runs: the take argument and the stored object
        both stay as they were."""
        h, core = handle_and_core
        h.store(1, local([1.0, 2.0]))
        h.store(2, local([5.0]))
        with pytest.raises(DuplicateObject):
            h.execute(eval_cmd("neg", ("take", 1)), 2)
        assert core.object_count() == 2
        assert bits(h.fetch(1)) == bits(local([1.0, 2.0]))
        assert bits(h.fetch(2)) == bits(local([5.0]))

    def test_short_payload_is_malformed(self, server):
        """A socket EXECUTE payload under 8 bytes has no destination: it is
        refused with Malformed, nothing is stored, and the connection stays
        usable."""
        host, port = server.server_address
        c = SocketClient(host, port)
        store(c, 1, X)
        for payload in (b"", b"\x00", b"\x05" * 7):
            with pytest.raises(MalformedPayload, match="short execute payload"):
                c.request(protocol.MSG_EXECUTE, payload)
        assert server.worker_core.object_count() == 1
        c.execute(eval_cmd("neg", ("take", 1)), 5)
        assert bits(fetch(c, 5)) == bits(local([-1.0]))
        assert server.worker_core.object_count() == 1
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
            h.store(201, local([[1.0, 2.0], [3.0, 4.0]]))
            h.store(202, local([[5.0, 6.0], [7.0, 8.0]]))
            h.execute(eval_cmd("matmul", Command.obj(201), Command.obj(202)), 203)
            out = h.fetch(203, delete=True)
            h.delete(201)
            return out

        assert bits(script(fed_s)) == bits(script(fed_v))
        fed_s.close()


# A 4x3 partition under ids 1 (X) and 2 (y), and the 11 parameters of dims
# (3, 2, 1) inline, for the training commands.
PARAMS = ("tensor", local(np.linspace(-0.5, 0.5, 11)))


def train_cmd(name, params=PARAMS, **kwargs):
    base = {"dims": [3, 2, 1], "task": "regression"}
    if name == "fb_batch":
        base["indices"] = [0, 2]
    else:
        base.update(lot_size=2, clip_norm=1.0, sigma=1.0)
    return Command(name, (params, Command.obj(1), Command.obj(2)), {**base, **kwargs})


def shares_cmd(**kwargs):
    base = {"parties": "alice,alice", "ids": [50, 51], "prog": [OPS["ref"][0], 0]}
    return Command("make_shares", (("tensor", local([1, 2], Dtype.RING64)),), {**base, **kwargs})


def triples_cmd(**kwargs):
    base = {"kind": "elementwise", "shape": [2], "count": 1, "parties": "alice,alice",
            "ids": [50, 51]}
    return Command("gen_triples", (), {**base, **kwargs})


def parts_cmd(values=(1, 2, 3, 4, 5), dtype=Dtype.RING64, **kwargs):
    """store_parts of a 5-element tensor as a (2, 2) part under 50 and a
    (1,) part under 51."""
    base = {"ids": [50, 51], "ranks": [2, 1], "dims": [2, 2, 1]}
    return Command("store_parts", (("tensor", local(values, dtype)),), {**base, **kwargs})


BATCH = "batch indices must be a nonempty list in [0, 4)"
SAME_ERROR = {
    "not_found": (lambda h: h.fetch(99), ObjectNotFound, "object 99 not on alice"),
    "duplicate": (lambda h: h.store(1, X), DuplicateObject, "object 1 already stored on alice"),
    "unknown": (lambda h: h.execute(Command("frobnicate", ())), UnknownCommand, "frobnicate"),
    "no_prog": (lambda h: h.execute(Command("eval_expr", (Command.obj(1),))),
                MalformedPayload, "command has no 'prog' kwarg"),
    "shapes": (lambda h: h.execute(eval_cmd("add", Command.obj(1), Command.obj(2))),
               ShapeMismatch, "(4, 3) vs (4,)"),
    "config": (lambda h: h.execute(triples_cmd(count=0)), ConfigError, "count must be >= 1"),
    # gen_triples refuses repeated ids, and a triple no frame can carry,
    # before it allocates or pushes anything
    "repeated_ids": (lambda h: h.execute(triples_cmd(ids=[50, 50])), ConfigError,
                     "need 2 distinct object ids, got 1 of 2"),
    "huge_triple": (lambda h: h.execute(triples_cmd(shape=[1 << 24])), ConfigError,
                    "no frame fits the elementwise triple of shapes (16777216,), (16777216,), "
                    "(16777216,)"),
    "negative_dim": (lambda h: h.execute(triples_cmd(kind="matmul", shape=[-2, 3, -2])),
                     ConfigError, "no frame fits the matmul triple of shapes (-2, 3), (3, -2), "
                     "(-2, -2)"),
    "empty_lot": (lambda h: h.execute(train_cmd("dp_phase", lot_size=0)),
                  EmptyLot, "lot_size must be >= 1"),
    # training commands check their inputs
    "row_past_end": (lambda h: h.execute(train_cmd("fb_batch", indices=[0, 9])),
                     MalformedPayload, BATCH),
    "negative_row": (lambda h: h.execute(train_cmd("fb_batch", indices=[-1])),
                     MalformedPayload, BATCH),
    "no_rows": (lambda h: h.execute(train_cmd("fb_batch", indices=[])), MalformedPayload, BATCH),
    **{f"{name}_{case}": (lambda h, name=name, dims=dims: h.execute(train_cmd(name, dims=dims)),
                          cls, msg)
       for name in ("fb_batch", "dp_phase")
       for case, dims, cls, msg in [
           ("wide", [5, 2, 1], ShapeMismatch,
            "partition X (4, 3), y (4,) does not fit dims (5, 2, 1)"),
           ("two_dims", [3, 2], MalformedPayload, "dims (3, 2) must be (input, hidden >= 1, 1)"),
           ("two_outputs", [3, 2, 2], MalformedPayload,
            "dims (3, 2, 2) must be (input, hidden >= 1, 1)")]},
    "fb_batch_two_args": (lambda h: h.execute(Command("fb_batch", (PARAMS, Command.obj(1)))),
                          MalformedPayload, "fb_batch takes 3 arguments, not 2"),
    # training commands refuse non-finite parameters, and a result that
    # overflowed (parameters of 1e200 gave a reply of infs and NaNs)
    **{f"{name}_{case}": (lambda h, name=name, v=v: h.execute(
        train_cmd(name, params=("tensor", local(np.full(11, v))))), OverflowRangeError, msg)
       for name in ("fb_batch", "dp_phase")
       for case, v, msg in [("nan_params", np.nan, f"{name} parameters are not all finite"),
                            ("inf_params", -np.inf, f"{name} parameters are not all finite"),
                            ("overflow", 1e200, f"{name} result is not finite")]},
    # a command's pushes and its stored result land all or none: an id that
    # collides is refused before the first push
    "triples_dest_pushed": (lambda h: h.execute(triples_cmd(), 50), DuplicateObject,
                            "object 50 is both pushed and the destination"),
    "shares_dest_pushed": (lambda h: h.execute(shares_cmd(), 51), DuplicateObject,
                           "object 51 is both pushed and the destination"),
    "push_id_held": (lambda h: h.execute(triples_cmd(ids=[51, 1])), DuplicateObject,
                     "object 1 already stored on alice"),
    "push_id_zero": (lambda h: h.execute(shares_cmd(ids=[51, 0])), MalformedPayload,
                     "push id 0 is outside [1, 2**64)"),
    # store_parts stores all of its parts or none
    "parts_ids_count": (lambda h: h.execute(parts_cmd(ids=[50])), MalformedPayload,
                        "1 ids for 2 parts"),
    "parts_ranks": (lambda h: h.execute(parts_cmd(ranks=[2, 2])), MalformedPayload,
                    "ranks [2, 2] do not cover 3 dims"),
    "parts_sizes": (lambda h: h.execute(parts_cmd(dims=[2, 2, 2])), ShapeMismatch,
                    "part sizes [4, 2] do not sum to 5 elements"),
    "parts_negative_dim": (lambda h: h.execute(parts_cmd(dims=[-2, -2, 1])), ShapeMismatch,
                           "part shapes [(-2, -2), (1,)] have a negative dimension"),
    "parts_float": (lambda h: h.execute(parts_cmd(dtype=Dtype.FLOAT64)), DtypeMismatch,
                    "store_parts expects a Ring64 tensor"),
    "parts_two_args": (lambda h: h.execute(Command("store_parts", (
        ("tensor", local([1], Dtype.RING64)), Command.obj(1)), {})),
                       MalformedPayload, "store_parts takes 1 argument, not 2"),
    "parts_repeated_id": (lambda h: h.execute(parts_cmd(ids=[50, 50])), DuplicateObject,
                          "object ids [50, 50] repeat"),
    "parts_held_id": (lambda h: h.execute(parts_cmd(ids=[50, 2])), DuplicateObject,
                      "object 2 already stored on alice"),
    "parts_dest_pushed": (lambda h: h.execute(parts_cmd(), 51), DuplicateObject,
                          "object 51 is both pushed and the destination"),
    # dp_phase refuses a noise setting it cannot honour
    "negative_sigma": (lambda h: h.execute(train_cmd("dp_phase", sigma=-1.0)),
                       ConfigError, "sigma -1.0 must be >= 0"),
    "nan_sigma": (lambda h: h.execute(train_cmd("dp_phase", sigma=float("nan"))),
                  ConfigError, "sigma nan must be >= 0"),
    "nan_clip_norm": (lambda h: h.execute(train_cmd("dp_phase", clip_norm=float("nan"))),
                      ConfigError, "clip_norm nan must be positive"),
    # Beaver commands refuse a wrong argument count
    "open_no_args": (lambda h: h.execute(Command("beaver_open", (), {
        "kind": "elementwise", "shape": [2], "prog": [], "keep": 60})),
                     MalformedPayload, "beaver_open takes its triple object as its last argument"),
    "combine_no_args": (lambda h: h.execute(Command("beaver_combine", (), {
        "kind": "elementwise", "shape": [2]})),
                        MalformedPayload, "beaver_combine takes 3 arguments, not 0"),
}


class TestSameErrorEitherTransport:
    """A failing command raises the same class with the same message on a
    virtual and on a socket handle, and leaves the worker's objects as they
    were."""

    @pytest.mark.parametrize("case", list(SAME_ERROR))
    def test_same_class_and_message(self, handle_and_core, case):
        h, core = handle_and_core
        h.store(1, local(np.arange(12.0).reshape(4, 3)))
        h.store(2, local([1.0, 0.0, -1.0, 2.0]))
        call, cls, msg = SAME_ERROR[case]
        with pytest.raises(cls) as info:
            call(h)
        assert type(info.value) is cls
        assert str(info.value) == msg
        assert core.object_count() == 2

    def test_other_faults_arrive_as_remote_error(self, handle_and_core, monkeypatch):
        """A worker fault that is no FedringError is itself in-process; a
        socket client gets RemoteError headed by the fault's type name."""
        def boom(ctx, args, kwargs):
            raise IndexError("index 9 is out of bounds")

        monkeypatch.setitem(commands.REGISTRY, "boom", (boom, False))
        h, _ = handle_and_core
        with pytest.raises((IndexError, RemoteError)) as info:
            h.execute(Command("boom", ()))
        if isinstance(h, VirtualHandle):
            assert type(info.value) is IndexError
        else:
            assert type(info.value) is RemoteError
            assert str(info.value) == "IndexError: index 9 is out of bounds"


class TestStoreParts:
    def test_parts_land_under_the_leader_ids(self, handle_and_core):
        """A virtual and a socket worker store the same objects: views of
        the one inline tensor, cut in order, with their shapes; the reply
        is an empty tensor."""
        h, core = handle_and_core
        reply = h.execute(parts_cmd(values=[1, 2, 3, 4, 5], ids=[50, 51, 52],
                                    ranks=[2, 1, 0], dims=[2, 2, 0]))
        assert bits(reply) == bits(local(np.zeros(0), Dtype.RING64))
        assert sorted(core._objects) == [50, 51, 52]
        assert bits(fetch(core, 50)) == bits(local([[1, 2], [3, 4]], Dtype.RING64))
        assert bits(fetch(core, 51)) == bits(local(np.zeros(0), Dtype.RING64))
        assert bits(fetch(core, 52)) == bits(local(np.array(5), Dtype.RING64))


@pytest.fixture(params=["virtual", "socket"])
def pusher_and_peer(request):
    """Workers a and b, both with a leader handle, where a pushes to b in
    process or through a socket peer."""
    if request.param == "virtual":
        fed, registry = virtual_federation(["a", "b"], 0)
        yield fed, registry.get("a"), registry.get("b")
        return
    b = WorkerCore("b", 0)
    b_srv = make_server("127.0.0.1", 0, b)
    peer = _LazySocketPeer(*b_srv.server_address)
    a = WorkerCore("a", 0, {"b": peer})
    a_srv = make_server("127.0.0.1", 0, a)
    for srv in (a_srv, b_srv):
        threading.Thread(target=srv.serve_forever, daemon=True).start()
    fed = socket_federation({"a": a_srv.server_address, "b": b_srv.server_address})
    try:
        yield fed, a, b
    finally:
        fed.close()
        peer.close()
        for srv in (a_srv, b_srv):
            srv.shutdown()
            srv.server_close()


class TestPushesAllOrNothing:
    """A command that pushes to peers either lands every push and its
    result, or leaves every worker's objects as they were."""

    SECRET = local([5, 6], Dtype.RING64)

    def shares(self, fed, dest=0, ids=(20, 21)):
        fed.worker("a").store(1, self.SECRET)
        return fed.worker("a").execute(Command("make_shares", (Command.obj(1),), {
            "parties": "a,b", "ids": list(ids), "prog": [OPS["ref"][0], 0]}), dest)

    def test_destination_among_the_pushes(self, pusher_and_peer):
        """Before: a pushed 20 and b 21, then the result's store under 20
        failed, leaving both shares behind."""
        fed, a, b = pusher_and_peer
        with pytest.raises(DuplicateObject, match="object 20 is both pushed and the destination"):
            self.shares(fed, dest=20)
        assert (a.object_count(), b.object_count()) == (1, 0)

    def test_failed_peer_push_deletes_earlier_pushes(self, pusher_and_peer):
        fed, a, b = pusher_and_peer
        fed.worker("b").store(21, X)
        with pytest.raises(DuplicateObject, match="object 21 already stored on b"):
            self.shares(fed)
        assert (a.object_count(), b.object_count()) == (1, 1)
        assert bits(fetch(a, 1)) == bits(self.SECRET)
        assert bits(fetch(b, 21)) == bits(X)

    def test_failed_triple_push_deletes_earlier_triples(self, pusher_and_peer):
        """Triple 0 lands on both parties, then triple 1's push to b
        collides: triple 0 and triple 1's push to a are deleted again."""
        fed, a, b = pusher_and_peer
        fed.worker("b").store(33, X)
        with pytest.raises(DuplicateObject, match="object 33 already stored on b"):
            fed.worker("a").execute(Command("gen_triples", (), {
                "kind": "elementwise", "shape": [2], "count": 2, "parties": "a,b",
                "ids": [30, 31, 32, 33]}))
        assert (a.object_count(), b.object_count()) == (0, 1)

    def test_served_pushes_land(self, pusher_and_peer):
        fed, a, b = pusher_and_peer
        shape = self.shares(fed, dest=22)
        assert shape is None and a.object_count() == 3 and b.object_count() == 1
        total = (fetch(a, 20).data + fetch(b, 21).data) & tc.RING_MASK
        assert np.array_equal(total, self.SECRET.data)
