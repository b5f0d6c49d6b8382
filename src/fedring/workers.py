"""Workers and transports.

A worker owns an object store (ObjectId -> decoded chain node list), a
seeded RNG, a reusable generator for expanding Beaver triples and a command
executor. Bytes exist only where a chain crosses a transport: `store_object`
decodes (and so validates) a payload once on arrival, and `fetch_object`
and a by-value `execute` encode on the way out. Commands read and write
node lists with no codec, and so do worker-to-worker pushes between
in-process workers; a socket peer encodes them for the wire.

Virtual workers live in a process-local registry; socket workers serve the
same operations over TCP with the FTNS framing. Both expose one handle
interface (store / fetch / delete / execute) so the leader code is
transport-agnostic. An execute either stores its result and returns the
new id, or, by value, returns the result chain and stores nothing: one
message where an execute and a fetch-delete would be two.

Object ids: the leader allocates session ids below 2**32; each worker
allocates internal ids above a name-derived base so the two ranges never
collide across parties.
"""

from __future__ import annotations

import itertools
import socket
import socketserver
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .commands import TriplePRG, lookup
from .errors import (
    BadMagic,
    BindError,
    DuplicateObject,
    KindMismatch,
    MalformedPayload,
    ObjectNotFound,
    TransportError,
    WorkerUnknown,
)
from .protocol import Command, Message
from .tensor import Tensor

LEADER_ID_SPAN = 1 << 32


def _validate_name(name: str):
    raw = name.encode("utf-8")
    if not 0 < len(raw) <= 64:
        raise WorkerUnknown(f"invalid worker name {name!r}")


def worker_rng(seed: int, name: str) -> np.random.Generator:
    """Per-worker stream: independent of the leader's streams, stable across
    transports so virtual and socket runs stay bit-identical."""
    return np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])


# ---------------------------------------------------------------------------
# transport tap

@dataclass
class TapEvent:
    op: str  # store | fetch | delete | execute
    worker: str
    oid: int
    nbytes: int
    shapes: tuple = ()


class TransportTap:
    """Observes every leader-side protocol message plus protocol-level
    opening events; tests assert communication patterns against it."""

    def __init__(self):
        self.events: list[TapEvent] = []
        self.openings = 0

    def record(self, op: str, worker: str, oid: int = 0, chain_bytes: bytes = b"",
               tensors=()):
        """One message; `tensors` are the inline tensor arguments of an
        execute, counted like the chain payload of a store, a fetch or a
        by-value execute's reply. Sizes and shapes come from tensor shapes
        and chain headers: nothing is encoded or decoded."""
        shapes = tuple(t.shape for t in tensors)
        nbytes = len(chain_bytes) + sum(protocol.tensor_nbytes(t) for t in tensors)
        if chain_bytes:
            try:
                shapes += protocol.chain_shapes(chain_bytes)
            except MalformedPayload:
                pass  # the worker refuses it; the message is still counted
        self.events.append(TapEvent(op, worker, oid, nbytes, shapes))

    def note_opening(self, count: int = 1):
        self.openings += count

    def count(self, op: str) -> int:
        return sum(1 for e in self.events if e.op == op)

    @property
    def messages(self) -> int:
        return len(self.events)

    def transferred_shapes(self):
        """Shapes of every tensor that crossed the leader's transport."""
        out = []
        for e in self.events:
            out.extend(e.shapes)
        return out


class _TappedHandle:
    """The leader's view of one worker, for any transport: store / fetch /
    delete / execute go to the transport's calls and each is recorded on
    the tap, if there is one. Subclasses only choose the transport."""

    def __init__(self, name: str, tap: TransportTap | None, ops):
        self.name = name
        self.tap = tap
        self._store, self._fetch, self._delete, self._execute = ops

    def _record(self, op: str, *args, **kwargs):
        if self.tap is not None:
            self.tap.record(op, self.name, *args, **kwargs)

    def store(self, oid: int, payload: bytes):
        self._record("store", oid, payload)
        self._store(oid, payload)

    def fetch(self, oid: int, delete: bool = False) -> bytes:
        payload = self._fetch(oid, delete)
        self._record("fetch", oid, payload)
        return payload

    def delete(self, *oids: int):
        self._record("delete", oids[0] if oids else 0)
        self._delete(*oids)

    def execute(self, cmd: Command, by_value: bool = False):
        """The stored result's id; by value, the result chain's encoding,
        recorded with the execute that brought it."""
        tensors = [val for tag, val in cmd.args if tag == "tensor"]
        if not by_value:
            self._record("execute", tensors=tensors)
            return self._execute(cmd)
        payload = self._execute(cmd, True)
        self._record("execute", 0, payload, tensors=tensors)
        return payload


# ---------------------------------------------------------------------------
# worker core (shared by virtual and socket servers)

class WorkerCore:
    """One worker: object store, RNG, id allocator and command executor."""

    def __init__(self, name: str, seed: int, peers: dict | None = None):
        _validate_name(name)
        self.name = name
        self.seed = seed
        self.rng = worker_rng(seed, name)
        self.triple_prg = TriplePRG()
        self._objects: dict[int, list] = {}
        self._lock = threading.RLock()
        base = (1 + (zlib.crc32(name.encode("utf-8")) & 0xFFFF)) << 32
        self._counter = itertools.count(base)
        self.peers = dict(peers or {})

    # -- store ----------------------------------------------------------
    def store_object(self, oid: int, payload: bytes):
        """Decode a chain arriving from a transport and store it; a
        malformed payload raises MalformedPayload and stores nothing."""
        self.push(oid, protocol.deserialize_chain(payload))

    def fetch_object(self, oid: int, delete: bool = False) -> bytes:
        """The stored chain, encoded for a transport."""
        return protocol.serialize_chain(self._get(oid, delete))

    def push(self, oid: int, nodes: list):
        """Store a decoded node list: a chain that arrived, a command's
        result, or a share a peer (or this worker's own command) pushes."""
        with self._lock:
            if oid in self._objects:
                raise DuplicateObject(f"object {oid} already stored on {self.name}")
            self._objects[oid] = nodes

    def _get(self, oid: int, delete: bool = False) -> list:
        with self._lock:
            if oid not in self._objects:
                raise ObjectNotFound(f"object {oid} not on {self.name}")
            if delete:
                return self._objects.pop(oid)
            return self._objects[oid]

    def delete_object(self, *oids: int):
        """Delete every listed object, or none if one is missing."""
        if not oids:
            raise MalformedPayload("delete needs at least one object id")
        with self._lock:
            missing = [oid for oid in oids if oid not in self._objects]
            if missing:
                raise ObjectNotFound(f"objects {missing} not on {self.name}")
            for oid in oids:
                self._objects.pop(oid, None)

    def object_count(self) -> int:
        with self._lock:
            return len(self._objects)

    # -- command context --------------------------------------------------
    def allocate_id(self) -> int:
        return next(self._counter)

    def peer(self, name: str):
        """Where a command pushes an object for `name`: this worker itself,
        or a peer, which has the same `push`."""
        if name == self.name:
            return self
        if name not in self.peers:
            raise WorkerUnknown(f"{self.name} has no peer {name!r}")
        return self.peers[name]

    # -- execution --------------------------------------------------------
    def _resolve(self, oid: int):
        nodes = self._get(oid)
        frac_bits = None
        for node in nodes:
            if node[0] == "fixed_precision":
                frac_bits = node[1]
        tail = nodes[-1]
        if tail[0] != "local":
            raise KindMismatch(f"object {oid} on {self.name} has no local payload")
        return tail[1], frac_bits

    def execute(self, cmd: Command, by_value: bool = False):
        """Run a command and store its result under a fresh id, returned;
        by value, return the result chain encoded for a transport and store
        nothing. Take arguments are deleted only once the command has
        succeeded."""
        fn, preserve = lookup(cmd.name)
        resolved = []
        taken = []
        first_frac = None
        for tag, val in cmd.args:
            if tag in ("obj", "take"):
                t, frac = self._resolve(val)
                if first_frac is None and frac is not None and not resolved:
                    first_frac = frac
                resolved.append(t)
                if tag == "take":
                    taken.append(val)
            else:
                resolved.append(val)
        result = fn(self, tuple(resolved), cmd.kwargs)
        nodes = []
        if preserve and first_frac is not None:
            nodes.append(("fixed_precision", first_frac))
        nodes.append(("local", result))
        if by_value:
            out = protocol.serialize_chain(nodes)
        else:
            out = self.allocate_id()
            self.push(out, nodes)
        if taken:
            self.delete_object(*taken)
        return out


# ---------------------------------------------------------------------------
# virtual transport

class VirtualRegistry:
    """Process-local worker registry; virtual workers resolve peers here."""

    def __init__(self):
        self.workers: dict[str, WorkerCore] = {}

    def create(self, name: str, seed: int) -> WorkerCore:
        if name in self.workers:
            raise DuplicateObject(f"worker {name!r} already registered")
        w = WorkerCore(name, seed)
        w.peers = self.workers  # live: peers may be created in any order
        self.workers[name] = w
        return w

    def get(self, name: str) -> WorkerCore:
        if name not in self.workers:
            raise WorkerUnknown(name)
        return self.workers[name]


class VirtualHandle(_TappedHandle):
    """Leader-side handle over an in-process worker."""

    def __init__(self, core: WorkerCore, tap: TransportTap | None = None):
        self.core = core
        super().__init__(core.name, tap, (core.store_object, core.fetch_object,
                                          core.delete_object, core.execute))

    def close(self):
        pass


# ---------------------------------------------------------------------------
# socket transport

_RECV_CHUNK = 1 << 20


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    # recv(n) allocates n bytes up front; bounded chunks make memory follow
    # the bytes that actually arrive
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, _RECV_CHUNK))
        if not chunk:
            raise ConnectionError("peer closed")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _read_frame(sock: socket.socket) -> Message:
    """Read one frame; a bad header raises MalformedPayload (BadMagic for a
    wrong magic) before any payload byte is read."""
    msg_type, request_id, payload_len = protocol.decode_header(
        _recv_exact(sock, protocol.HEADER_LEN))
    payload = _recv_exact(sock, payload_len) if payload_len else b""
    return Message(msg_type, request_id, payload)


class SocketClient:
    """Persistent connection to one socket worker; one request in flight."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise TransportError(f"connect {host}:{port}: {e}") from None
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._req = itertools.count(1)
        self._lock = threading.Lock()

    def request(self, msg_type: int, payload: bytes) -> Message:
        rid = next(self._req)
        frame = protocol.encode_frame(Message(msg_type, rid, payload))
        with self._lock:
            try:
                self.sock.sendall(frame)
                reply = _read_frame(self.sock)
            except (OSError, ConnectionError) as e:
                raise TransportError(str(e)) from None
        if reply.request_id != rid:
            raise TransportError(f"reply id {reply.request_id} != request id {rid}")
        if reply.msg_type == protocol.MSG_ERROR:
            protocol.raise_error_payload(reply.payload)
        if reply.msg_type != protocol.MSG_RESULT:
            raise TransportError(f"unexpected reply type {reply.msg_type}")
        return reply

    def store(self, oid: int, payload: bytes):
        self.request(protocol.MSG_STORE, struct.pack("<Q", oid) + payload)

    def fetch(self, oid: int, delete: bool = False) -> bytes:
        reply = self.request(protocol.MSG_GET, struct.pack("<QB", oid, int(delete)))
        return reply.payload

    def delete(self, *oids: int):
        self.request(protocol.MSG_DELETE, struct.pack(f"<{len(oids)}Q", *oids))

    def execute(self, cmd: Command, by_value: bool = False):
        msg_type = protocol.MSG_EXECUTE_VALUE if by_value else protocol.MSG_EXECUTE
        reply = self.request(msg_type, protocol.serialize_command(cmd))
        if by_value:
            return reply.payload
        if len(reply.payload) != 8:
            raise TransportError("bad execute reply")
        return struct.unpack("<Q", reply.payload)[0]

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class SocketHandle(_TappedHandle):
    """Leader-side handle over a remote socket worker."""

    def __init__(self, name: str, host: str, port: int, tap: TransportTap | None = None):
        _validate_name(name)
        self.client = SocketClient(host, port)
        c = self.client
        super().__init__(name, tap, (c.store, c.fetch, c.delete, c.execute))

    def close(self):
        self.client.close()


class _LazySocketPeer:
    """Deferred peer connection for worker-to-worker share pushes; encodes
    each pushed node list for the wire."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._client = None
        self._lock = threading.Lock()

    def push(self, oid: int, nodes: list):
        payload = protocol.serialize_chain(nodes)
        with self._lock:
            if self._client is None:
                self._client = SocketClient(self.host, self.port)
            self._client.store(oid, payload)

    def close(self):
        with self._lock:
            if self._client is not None:
                self._client.close()
                self._client = None


class _WorkerServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _WorkerHandler(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        core: WorkerCore = self.server.worker_core
        while True:
            try:
                msg = _read_frame(self.request)
            except (ConnectionError, OSError):
                return
            except MalformedPayload as e:
                # Replied in-band. After bad magic exactly one header was
                # consumed and the client resyncs on its next frame; after
                # any other bad header the payload length cannot be trusted
                # (nor skipped), so the connection closes.
                reply = Message(protocol.MSG_ERROR, 0, protocol.encode_error(e))
                if self._reply(reply) and isinstance(e, BadMagic):
                    continue
                return
            try:
                reply = self._dispatch(core, msg)
            except Exception as e:  # replied in-band, never crashes the server
                reply = Message(protocol.MSG_ERROR, msg.request_id, protocol.encode_error(e))
            if not self._reply(reply):
                return

    def _reply(self, msg: Message) -> bool:
        try:
            self.request.sendall(protocol.encode_frame(msg))
            return True
        except (OSError, ConnectionError):
            return False

    @staticmethod
    def _dispatch(core: WorkerCore, msg: Message) -> Message:
        if msg.msg_type == protocol.MSG_STORE:
            if len(msg.payload) < 8:
                raise MalformedPayload("short store payload")
            (oid,) = struct.unpack_from("<Q", msg.payload)
            core.store_object(oid, msg.payload[8:])
            return Message(protocol.MSG_RESULT, msg.request_id)
        if msg.msg_type == protocol.MSG_GET:
            if len(msg.payload) != 9:
                raise MalformedPayload("bad get payload")
            oid, delete = struct.unpack("<QB", msg.payload)
            return Message(protocol.MSG_RESULT, msg.request_id,
                           core.fetch_object(oid, bool(delete)))
        if msg.msg_type == protocol.MSG_DELETE:
            k, ragged = divmod(len(msg.payload), 8)
            if k == 0 or ragged:
                raise MalformedPayload("delete payload must be one or more u64 ids")
            core.delete_object(*struct.unpack(f"<{k}Q", msg.payload))
            return Message(protocol.MSG_RESULT, msg.request_id)
        if msg.msg_type == protocol.MSG_EXECUTE:
            cmd = protocol.deserialize_command(msg.payload)
            oid = core.execute(cmd)
            return Message(protocol.MSG_RESULT, msg.request_id, struct.pack("<Q", oid))
        if msg.msg_type == protocol.MSG_EXECUTE_VALUE:
            payload = core.execute(protocol.deserialize_command(msg.payload), by_value=True)
            return Message(protocol.MSG_RESULT, msg.request_id, payload)
        raise MalformedPayload(f"unserviceable msg_type {msg.msg_type}")


def make_server(host: str, port: int, core: WorkerCore) -> _WorkerServer:
    """Bound, not yet serving; raises BindError if the port is taken."""
    try:
        server = _WorkerServer((host, port), _WorkerHandler)
    except OSError as e:
        raise BindError(f"bind {host}:{port}: {e}") from None
    server.worker_core = core
    return server


# ---------------------------------------------------------------------------
# federation: the leader's view of its workers

class Federation:
    """Named worker handles plus the leader-session id allocator."""

    def __init__(self, handles, tap: TransportTap | None = None):
        self.handles = {h.name: h for h in handles}
        self.tap = tap
        self._counter = itertools.count(1)

    @property
    def names(self):
        return list(self.handles)

    def worker(self, name: str):
        if name not in self.handles:
            raise WorkerUnknown(name)
        return self.handles[name]

    def fetch_tensor(self, name: str, oid: int, delete: bool = False) -> Tensor:
        """Fetch an object and decode the tensor at its leaf."""
        return protocol.deserialize_chain(self.worker(name).fetch(oid, delete))[-1][1]

    def execute_tensor(self, name: str, cmd: Command) -> Tensor:
        """Run a command by value, one message, and decode the tensor at
        the leaf of its result; the worker keeps nothing of the result."""
        return protocol.deserialize_chain(self.worker(name).execute(cmd, by_value=True))[-1][1]

    def allocate_id(self) -> int:
        oid = next(self._counter)
        if oid >= LEADER_ID_SPAN:
            raise MalformedPayload("leader session id space exhausted")
        return oid

    def close(self):
        for h in self.handles.values():
            h.close()


def virtual_federation(names, seed: int, tap: TransportTap | None = None):
    """Create a registry of virtual workers and a federation over them."""
    registry = VirtualRegistry()
    handles = [VirtualHandle(registry.create(n, seed), tap) for n in names]
    return Federation(handles, tap), registry


def socket_federation(endpoints: dict, tap: TransportTap | None = None) -> Federation:
    """endpoints: worker name -> (host, port) of running socket workers."""
    handles = [SocketHandle(name, host, port, tap) for name, (host, port) in endpoints.items()]
    return Federation(handles, tap)
