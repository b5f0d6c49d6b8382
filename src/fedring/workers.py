"""Workers and transports.

A worker owns an object store (ObjectId -> Tensor), a seeded RNG, a
reusable generator for expanding Beaver triples and a command executor. A
worker holds tensors, not chains: the chain above each tensor (pointer,
fixed precision, shares) is the leader's. Bytes exist only inside the
socket transport: a socket client encodes an execute's inline tensors and
decodes a by-value result, and a socket worker decodes (and so validates)
inline tensors once on arrival and encodes a result on the way out.
Commands, handles, the tap and pushes between in-process workers pass
tensors with no codec; a socket peer encodes a push for the wire.

A worker serves two requests: execute and delete. An execute names a
destination: 0 returns the result tensor and stores nothing, one message
where an execute and a fetch-delete would be two; any other id stores the
result under it. A store is the identity program over an inline tensor
with the new id as destination, and a fetch the identity program over the
object by value.

Virtual workers live in a process-local registry; socket workers serve the
same operations over TCP with the FTNS framing. Both expose one handle
interface (store / fetch / delete / execute) that takes and returns
tensors, so the leader code is transport-agnostic.

Object ids: the leader names every object. `Federation.allocate_id` hands
out session ids below LEADER_ID_SPAN, and commands that push objects to
other workers (share and triple generation) push them under ids the leader
sent; a worker allocates none of its own.
"""

from __future__ import annotations

import contextlib
import itertools
import socket
import socketserver
import struct
import threading
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .commands import TriplePRG, identity, lookup
from .errors import (
    BadMagic,
    BindError,
    DuplicateObject,
    FedringError,
    MalformedPayload,
    ObjectNotFound,
    TransportError,
    WorkerUnknown,
)
from .protocol import Command, Message
from .tensor import Tensor

LEADER_ID_SPAN = 1 << 32


def _validate_name(name: str):
    """1 to 64 UTF-8 bytes, and no ',' or '=': they separate the names in a
    command's `parties` and in the CLI's name=host:port endpoints."""
    raw = name.encode("utf-8")
    if not 0 < len(raw) <= 64 or "," in name or "=" in name:
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

    def record(self, op: str, worker: str, oid: int = 0, tensors=()):
        """One message and every tensor it carries: a store's tensor, an
        execute's inline tensor arguments and then its by-value result, a
        fetch's result. Each counts as the length of its encoding, from its
        shape: nothing is encoded or decoded."""
        nbytes = sum(protocol.tensor_nbytes(t) for t in tensors)
        self.events.append(TapEvent(op, worker, oid, nbytes, tuple(t.shape for t in tensors)))

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
    """The leader's view of one worker, for any transport: delete and
    execute go to the transport's calls, store and fetch are executes of
    the identity program, and each is recorded on the tap, if there is
    one. Subclasses only choose the transport."""

    def __init__(self, name: str, tap: TransportTap | None, ops):
        self.name = name
        self.tap = tap
        self._delete, self._execute = ops

    def _record(self, op: str, oid: int, tensors=()):
        if self.tap is not None:
            self.tap.record(op, self.name, oid, tensors)

    def store(self, oid: int, t: Tensor):
        """Store t on the worker under oid."""
        self._record("store", oid, (t,))
        self._execute(identity(("tensor", t)), oid)

    def fetch(self, oid: int, delete: bool = False) -> Tensor:
        """The object; with delete, the worker drops it."""
        t = self._execute(identity(("take" if delete else "obj", oid)))
        self._record("fetch", oid, (t,))
        return t

    def delete(self, *oids: int):
        self._record("delete", oids[0] if oids else 0)
        self._delete(*oids)

    def execute(self, cmd: Command, dest: int = 0) -> Tensor | None:
        """With dest 0, the result tensor, recorded with the execute that
        brought it; otherwise the worker stores the result under dest and
        this returns None."""
        result = self._execute(cmd, dest)
        if self.tap is not None:
            carried = [val for tag, val in cmd.args if tag == "tensor"]
            self._record("execute", dest, carried if result is None else carried + [result])
        return result


# ---------------------------------------------------------------------------
# worker core (shared by virtual and socket servers)

class WorkerCore:
    """One worker: object store, RNG and command executor."""

    def __init__(self, name: str, seed: int, peers: dict | None = None):
        _validate_name(name)
        self.name = name
        self.seed = seed
        self.rng = worker_rng(seed, name)
        self.triple_prg = TriplePRG()
        self._objects: dict[int, Tensor] = {}
        self._lock = threading.RLock()
        self.peers = dict(peers or {})

    # -- store ----------------------------------------------------------
    def push(self, oid: int, t: Tensor):
        """Store a tensor: a command's result, or a share a peer (or this
        worker's own command) pushes."""
        with self._lock:
            if oid in self._objects:
                raise DuplicateObject(f"object {oid} already stored on {self.name}")
            self._objects[oid] = t

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
    def peer(self, name: str):
        """Where a command pushes an object for `name`: this worker itself,
        or a peer, which has the same `push`."""
        if name == self.name:
            return self
        if name not in self.peers:
            raise WorkerUnknown(f"{self.name} has no peer {name!r}")
        return self.peers[name]

    def _push_all(self, pushes):
        """Push a command's objects, [(peer, id, tensor), ...], all or none:
        an id outside [1, 2**64), where a socket peer would read 0 as a
        by-value execute, or one this worker already holds is refused
        before the first push, and a failed push deletes the ones before
        it, then raises."""
        bad = [oid for _, oid, _ in pushes if not 0 < oid < 1 << 64]
        if bad:
            raise MalformedPayload(f"push id {bad[0]} is outside [1, 2**64)")
        held = [oid for peer, oid, _ in pushes if peer is self and oid in self._objects]
        if held:
            raise DuplicateObject(f"object {held[0]} already stored on {self.name}")
        done: dict = {}
        try:
            for peer, oid, t in pushes:
                peer.push(oid, t)
                done.setdefault(peer, []).append(oid)
        except Exception:
            for peer, oids in done.items():
                with contextlib.suppress(FedringError):  # the push's own error is the one raised
                    peer.delete_object(*oids)
            raise

    # -- execution --------------------------------------------------------
    def execute(self, cmd: Command, dest: int = 0) -> Tensor | None:
        """Run a command. With dest 0, return the result tensor and store
        nothing; otherwise store the result under the leader's id dest and
        return None. A dest already stored is refused before the command
        runs, and one the command also pushes before anything is pushed; a
        command's pushes and the stored result land all or none. Take
        arguments are deleted only once the command has succeeded."""
        fn = lookup(cmd.name)
        objects = self._objects
        with self._lock:  # once for the whole argument list
            if dest and dest in objects:
                raise DuplicateObject(f"object {dest} already stored on {self.name}")
            args = []
            for tag, val in cmd.args:
                if tag in ("obj", "take"):
                    if val not in objects:
                        raise ObjectNotFound(f"object {val} not on {self.name}")
                    val = objects[val]
                args.append(val)
        try:
            result = fn(self, args, cmd.kwargs)
        except KeyError as e:  # a command's only lookups that can miss are its kwargs
            raise MalformedPayload(f"command has no {e} kwarg") from None
        if type(result) is tuple:  # (result, pushes) from a command that pushes
            result, pushes = result
            if dest and any(oid == dest for _, oid, _ in pushes):
                raise DuplicateObject(f"object {dest} is both pushed and the destination")
            self._push_all(pushes + [(self, dest, result)] if dest else pushes)
        elif dest:
            self.push(dest, result)
        taken = [val for tag, val in cmd.args if tag == "take"]
        if taken:
            self.delete_object(*taken)
        return None if dest else result


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
        super().__init__(core.name, tap, (core.delete_object, core.execute))

    def close(self):
        pass


# ---------------------------------------------------------------------------
# socket transport

_RECV_CHUNK = 1 << 20
_RECV_MIN = 1 << 16


class _FrameReader:
    """Reads frames off one socket. Each recv asks for at least _RECV_MIN
    bytes, so a small frame, header and payload, arrives in one call; bytes
    past the frame wait here for the next read. A long payload arrives in
    chunks of at most _RECV_CHUNK, so memory follows the bytes that actually
    arrive, not the length a header claims."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._rest = b""  # received bytes not yet read start at _pos
        self._pos = 0

    def _take(self, n: int) -> bytes:
        rest, pos = self._rest, self._pos
        have = len(rest) - pos
        if have < n:
            chunks = [rest[pos:]] if have else []
            while have < n:
                chunk = self.sock.recv(min(max(n - have, _RECV_MIN), _RECV_CHUNK))
                if not chunk:
                    raise ConnectionError("peer closed")
                chunks.append(chunk)
                have += len(chunk)
            rest, pos = chunks[0] if len(chunks) == 1 else b"".join(chunks), 0
        end = pos + n
        if end == len(rest):  # hold no bytes between frames
            self._rest, self._pos = b"", 0
        else:
            self._rest, self._pos = rest, end
        return rest[pos:end]

    def read(self) -> Message:
        """One frame; a bad header raises MalformedPayload (BadMagic for a
        wrong magic) before any of its payload is consumed."""
        msg_type, request_id, payload_len = protocol.decode_header(self._take(protocol.HEADER_LEN))
        return Message(msg_type, request_id, self._take(payload_len))


class SocketClient:
    """Persistent connection to one socket worker; one request in flight."""

    def __init__(self, host: str, port: int, timeout: float = 60.0):
        try:
            self.sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as e:
            raise TransportError(f"connect {host}:{port}: {e}") from None
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # The kernel times out a send or recv that waits too long; a Python
        # timeout would poll before every call, two system calls for one.
        self.sock.settimeout(None)
        whole, frac = divmod(timeout, 1.0)
        limit = struct.pack("ll", int(whole), int(frac * 1e6))
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, limit)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, limit)
        self._reader = _FrameReader(self.sock)
        self._req = itertools.count(1)
        self._lock = threading.Lock()

    def request(self, msg_type: int, payload: bytes) -> Message:
        rid = next(self._req)
        frame = protocol.encode_frame(Message(msg_type, rid, payload))
        with self._lock:
            try:
                self.sock.sendall(frame)
                reply = self._reader.read()
            except BlockingIOError:  # the kernel's send or recv timeout
                raise TransportError("timed out") from None
            except (OSError, ConnectionError) as e:
                raise TransportError(str(e)) from None
        if reply.request_id != rid:
            raise TransportError(f"reply id {reply.request_id} != request id {rid}")
        if reply.msg_type == protocol.MSG_ERROR:
            protocol.raise_error_payload(reply.payload)
        if reply.msg_type != protocol.MSG_RESULT:
            raise TransportError(f"unexpected reply type {reply.msg_type}")
        return reply

    def delete(self, *oids: int):
        self.request(protocol.MSG_DELETE, struct.pack(f"<{len(oids)}Q", *oids))

    def execute(self, cmd: Command, dest: int = 0) -> Tensor | None:
        """As `WorkerCore.execute`: a by-value reply is decoded strictly."""
        payload = struct.pack("<Q", dest) + protocol.serialize_command(cmd)
        reply = self.request(protocol.MSG_EXECUTE, payload)
        return None if dest else protocol.deserialize_chain(reply.payload)

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
        super().__init__(name, tap, (c.delete, c.execute))

    def close(self):
        self.client.close()


class _LazySocketPeer:
    """Deferred peer connection for worker-to-worker share pushes: each
    push is a store, the identity execute over the tensor inline, and
    `delete_object` undoes pushes, as on a WorkerCore."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._client = None
        self._lock = threading.Lock()

    def push(self, oid: int, t: Tensor):
        with self._lock:
            if self._client is None:
                self._client = SocketClient(self.host, self.port)
            self._client.execute(identity(("tensor", t)), oid)

    def delete_object(self, *oids: int):
        """Undo pushes: called only after a push, so connected."""
        with self._lock:
            self._client.delete(*oids)

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
        reader = _FrameReader(self.request)
        while True:
            try:
                msg = reader.read()
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
        if msg.msg_type == protocol.MSG_DELETE:
            k, ragged = divmod(len(msg.payload), 8)
            if k == 0 or ragged:
                raise MalformedPayload("delete payload must be one or more u64 ids")
            core.delete_object(*struct.unpack(f"<{k}Q", msg.payload))
            return Message(protocol.MSG_RESULT, msg.request_id)
        if msg.msg_type == protocol.MSG_EXECUTE:
            if len(msg.payload) < 8:
                raise MalformedPayload("short execute payload")
            (dest,) = struct.unpack_from("<Q", msg.payload)
            result = core.execute(protocol.deserialize_command(msg.payload, 8), dest)
            payload = b"" if result is None else protocol.serialize_chain(result)
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
    """Named worker handles plus the one object-id allocator."""

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
