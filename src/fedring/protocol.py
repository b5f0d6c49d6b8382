"""Binary wire protocol: framing plus tensor / object / command codecs.

Frame layout (little-endian throughout):

    magic    4 bytes  b"FTNS"
    version  u8       5
    msg_type u8       3=DELETE 4=EXECUTE 5=RESULT 6=ERROR
    request_id  u64
    payload_len u64     at most MAX_PAYLOAD
    payload     payload_len bytes

Types 1 and 2, the STORE and GET of earlier versions, are refused like
any unknown type: a store and a fetch are executes. Request payloads:
DELETE one or more oids, u64 each; EXECUTE a destination oid u64 then a
command. An EXECUTE with destination 0 runs by value: its RESULT carries
the result object and the worker stores nothing. With any other
destination the worker stores the result under that id, which the leader
chose, and the RESULT is empty; a destination already stored is refused
with DuplicateObject before the command runs. Either way the worker
deletes the command's take arguments only once it has succeeded. Every
object id is the leader's: a worker allocates none.

A store is the identity program (`commands.identity`) over an inline
tensor, with the new object's id as destination; a fetch is the same
program over ('obj', oid), or over ('take', oid) to delete the object as
it is read, with destination 0.

An object payload is exactly one tensor: a worker object is a tensor, and
the chain above it stays on the leader. A worker decodes an EXECUTE's
inline tensors on arrival, so a malformed one, or a command followed by
trailing bytes, is refused with MalformedPayload before anything runs or
is stored.

Tensor payload: dtype u8 (0=Float64, 1=Ring64), ndim u8, dims u32 each,
elements 8 bytes each (Float64 as IEEE-754 bits, Ring64 as u64).

ERROR payload: name length u8, the ASCII name of the error's class in
`fedring.errors`, then a UTF-8 message. An exception that is no
FedringError crosses as RemoteError, headed by its type's name.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .tensor import Dtype, Tensor

MAGIC = b"FTNS"
VERSION = 5
HEADER_LEN = 22
MAX_PAYLOAD = 1 << 28

MSG_DELETE = 3
MSG_EXECUTE = 4
MSG_RESULT = 5
MSG_ERROR = 6
_VALID_TYPES = frozenset((MSG_DELETE, MSG_EXECUTE, MSG_RESULT, MSG_ERROR))


@dataclass(frozen=True)
class Message:
    msg_type: int
    request_id: int
    payload: bytes = b""


def encode_frame(m: Message) -> bytes:
    if m.msg_type not in _VALID_TYPES:
        raise errors.MalformedPayload(f"bad msg_type {m.msg_type}")
    if len(m.payload) > MAX_PAYLOAD:
        raise errors.MalformedPayload(f"payload of {len(m.payload)} bytes exceeds {MAX_PAYLOAD}")
    return (
        MAGIC
        + struct.pack("<BBQQ", VERSION, m.msg_type, m.request_id, len(m.payload))
        + m.payload
    )


def decode_header(buf: bytes) -> tuple[int, int, int]:
    """Validate the frame header at the head of buf; returns (msg_type,
    request_id, payload_len). Raises before any payload byte is needed."""
    if len(buf) < HEADER_LEN:
        raise errors.MalformedPayload("short header")
    if buf[:4] != MAGIC:
        raise errors.BadMagic("bad magic")
    version, msg_type, request_id, payload_len = struct.unpack_from("<BBQQ", buf, 4)
    if version != VERSION:
        raise errors.MalformedPayload(f"unsupported version {version}")
    if msg_type not in _VALID_TYPES:
        raise errors.MalformedPayload(f"unknown msg_type {msg_type}")
    if payload_len > MAX_PAYLOAD:
        raise errors.MalformedPayload(f"payload_len {payload_len} exceeds {MAX_PAYLOAD}")
    return msg_type, request_id, payload_len


def decode_frame(buf: bytes) -> tuple[Message, int]:
    """Decode one frame from the head of buf; returns (message, bytes consumed)."""
    msg_type, request_id, payload_len = decode_header(buf)
    end = HEADER_LEN + payload_len
    if len(buf) < end:
        raise errors.MalformedPayload("short payload")
    return Message(msg_type, request_id, bytes(buf[HEADER_LEN:end])), end


def encode_error(exc: Exception) -> bytes:
    if isinstance(exc, errors.FedringError):
        name, msg = type(exc).__name__, str(exc)
    else:
        name, msg = "RemoteError", f"{type(exc).__name__}: {exc}"
    raw = name.encode("ascii", "replace")[:255]
    return bytes([len(raw)]) + raw + msg.encode("utf-8")


def raise_error_payload(payload: bytes):
    """Raise the FedringError an ERROR payload names; a name that is not
    one raises RemoteError."""
    end = 1 + payload[0] if payload else 1
    if len(payload) < end:
        raise errors.MalformedPayload("short error payload")
    cls = getattr(errors, payload[1:end].decode("ascii", "replace"), None)
    if not (isinstance(cls, type) and issubclass(cls, errors.FedringError)):
        cls = errors.RemoteError
    raise cls(payload[end:].decode("utf-8", "replace"))


# ---------------------------------------------------------------------------
# tensor codec

_DTYPE_TO_BYTE = {Dtype.FLOAT64: 0, Dtype.RING64: 1}
_BYTE_TO_DTYPE = {0: Dtype.FLOAT64, 1: Dtype.RING64}


def _tensor_parts(t: Tensor) -> tuple[bytes, np.ndarray]:
    """The tensor's header and its elements in wire order, uncopied on a
    little-endian host; joining the two is the encoding's one copy."""
    head = struct.pack(f"<BB{t.ndim}I", _DTYPE_TO_BYTE[t.dtype], t.ndim, *t.shape)
    wire = "<f8" if t.dtype is Dtype.FLOAT64 else "<u8"
    return head, np.ascontiguousarray(t.data).astype(wire, copy=False)


def serialize_tensor(t: Tensor) -> bytes:
    return b"".join(_tensor_parts(t))


def tensor_nbytes(t: Tensor) -> int:
    """Length of the tensor's encoding, from its shape."""
    return 2 + 4 * t.ndim + 8 * t.size


def deserialize_tensor(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Decode a tensor starting at offset, once its header is valid and its
    elements follow; returns (tensor, next offset)."""
    try:
        dtype_b, ndim = struct.unpack_from("<BB", buf, offset)
    except struct.error as e:
        raise errors.MalformedPayload(str(e)) from None
    if dtype_b not in _BYTE_TO_DTYPE:
        raise errors.MalformedPayload(f"unknown dtype byte {dtype_b}")
    pos = offset + 2
    if len(buf) < pos + 4 * ndim:
        raise errors.MalformedPayload("truncated dims")
    dims = struct.unpack_from(f"<{ndim}I", buf, pos)
    pos += 4 * ndim
    count = 1
    for d in dims:
        count *= d
    if len(buf) < pos + 8 * count:
        raise errors.MalformedPayload("truncated data")
    dtype = _BYTE_TO_DTYPE[dtype_b]
    wire = "<f8" if dtype is Dtype.FLOAT64 else "<u8"
    try:  # a zero dim lets the other dims pass the length check above
        data = np.frombuffer(buf, dtype=wire, count=count, offset=pos).reshape(dims)
    except ValueError as e:
        raise errors.MalformedPayload(f"dims {dims}: {e}") from None
    return Tensor._own(data.copy(), dtype), pos + 8 * count


# ---------------------------------------------------------------------------
# object codec: a socket worker's reply to an EXECUTE with destination 0 is
# one tensor; only the socket transport encodes or decodes it. The chain
# names stay because perfbench/spans.py wraps them (ROADMAP item 3(c)).

def serialize_chain(t: Tensor) -> bytes:
    """An object payload: the tensor's encoding."""
    return serialize_tensor(t)


def deserialize_chain(buf: bytes) -> Tensor:
    """Decode an object payload strictly: any malformed input, trailing
    bytes included, raises MalformedPayload. A socket client decodes
    by-value replies with it."""
    t, end = deserialize_tensor(buf)
    if end != len(buf):
        raise errors.MalformedPayload("trailing bytes after object")
    return t


# ---------------------------------------------------------------------------
# command codec

ARG_OBJECT = 0  # tags 1 and 2 are unused: a decoder rejects them
ARG_TENSOR = 3
ARG_TAKE = 4

KW_FLOAT = 1
KW_INT = 2
KW_STR = 3
KW_INT_LIST = 4


@dataclass(frozen=True)
class Command:
    """A named operation over worker-resident objects and inline tensors;
    scalars and programs travel as kwargs. A ('take', oid) argument is read
    like ('obj', oid) and deleted by the worker once the command has
    succeeded."""

    name: str
    args: tuple = ()  # each: ('obj'|'take', oid) | ('tensor', Tensor)
    kwargs: dict = field(default_factory=dict)

    @staticmethod
    def obj(oid: int):
        return ("obj", oid)


def serialize_command(cmd: Command) -> bytes:
    raw_name = cmd.name.encode("utf-8")
    out = [struct.pack("<B", len(raw_name)), raw_name, struct.pack("<B", len(cmd.args))]
    for tag, val in cmd.args:
        if tag == "obj":
            out.append(struct.pack("<BQ", ARG_OBJECT, val))
        elif tag == "tensor":
            out.append(struct.pack("<B", ARG_TENSOR))
            out.extend(_tensor_parts(val))
        elif tag == "take":
            out.append(struct.pack("<BQ", ARG_TAKE, val))
        else:
            raise errors.MalformedPayload(f"bad arg tag {tag!r}")
    out.append(struct.pack("<H", len(cmd.kwargs)))
    for key, val in cmd.kwargs.items():
        raw_key = key.encode("utf-8")
        out.append(struct.pack("<B", len(raw_key)))
        out.append(raw_key)
        if isinstance(val, int):  # a bool too: True packs as 1
            out.append(struct.pack("<Bq", KW_INT, val))
        elif isinstance(val, float):
            out.append(struct.pack("<Bd", KW_FLOAT, val))
        elif isinstance(val, str):
            raw = val.encode("utf-8")
            out.append(struct.pack("<BH", KW_STR, len(raw)))
            out.append(raw)
        elif isinstance(val, (list, tuple)):
            try:  # struct refuses an element that is not an integer in int64 range
                out.append(struct.pack(f"<BI{len(val)}q", KW_INT_LIST, len(val), *val))
            except struct.error:
                raise errors.MalformedPayload(f"unsupported kwarg type for {key!r}") from None
        else:
            raise errors.MalformedPayload(f"unsupported kwarg type for {key!r}")
    return b"".join(out)


def deserialize_command(buf: bytes, offset: int = 0) -> Command:
    """Decode the command that fills buf from offset to its end."""
    try:
        pos = offset
        n = buf[pos]
        pos += 1
        name = buf[pos : pos + n].decode("utf-8")
        pos += n
        nargs = buf[pos]
        pos += 1
        args = []
        for _ in range(nargs):
            tag = buf[pos]
            pos += 1
            if tag == ARG_OBJECT:
                (v,) = struct.unpack_from("<Q", buf, pos)
                pos += 8
                args.append(("obj", v))
            elif tag == ARG_TENSOR:
                t, pos = deserialize_tensor(buf, pos)
                args.append(("tensor", t))
            elif tag == ARG_TAKE:
                (v,) = struct.unpack_from("<Q", buf, pos)
                pos += 8
                args.append(("take", v))
            else:
                raise errors.MalformedPayload(f"bad arg tag {tag}")
        (nkw,) = struct.unpack_from("<H", buf, pos)
        pos += 2
        kwargs = {}
        for _ in range(nkw):
            n = buf[pos]
            pos += 1
            key = buf[pos : pos + n].decode("utf-8")
            pos += n
            tag = buf[pos]
            pos += 1
            if tag == KW_FLOAT:
                (v,) = struct.unpack_from("<d", buf, pos)
                pos += 8
                kwargs[key] = v
            elif tag == KW_INT:
                (v,) = struct.unpack_from("<q", buf, pos)
                pos += 8
                kwargs[key] = v
            elif tag == KW_STR:
                (sl,) = struct.unpack_from("<H", buf, pos)
                pos += 2
                kwargs[key] = buf[pos : pos + sl].decode("utf-8")
                pos += sl
            elif tag == KW_INT_LIST:
                (cnt,) = struct.unpack_from("<I", buf, pos)
                pos += 4
                kwargs[key] = list(struct.unpack_from(f"<{cnt}q", buf, pos))
                pos += 8 * cnt
            else:
                raise errors.MalformedPayload(f"bad kwarg tag {tag}")
        if pos != len(buf):
            raise errors.MalformedPayload("trailing bytes after command")
        return Command(name, tuple(args), kwargs)
    except (IndexError, struct.error, UnicodeDecodeError) as e:
        raise errors.MalformedPayload(f"bad command payload: {e}") from None
