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

import math
import struct
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

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

_HEADER = struct.Struct("<4sBBQQ")
_U64 = struct.Struct("<Q")
_WIRE_IS_NATIVE = sys.byteorder == "little"


class Message(NamedTuple):
    """One frame's contents: a tuple, cheaper to build than a frozen
    dataclass, and a round trip builds four."""

    msg_type: int
    request_id: int
    payload: bytes = b""


def encode_frame(m: Message) -> bytes:
    if m.msg_type not in _VALID_TYPES:
        raise errors.MalformedPayload(f"bad msg_type {m.msg_type}")
    if len(m.payload) > MAX_PAYLOAD:
        raise errors.MalformedPayload(f"payload of {len(m.payload)} bytes exceeds {MAX_PAYLOAD}")
    return _HEADER.pack(MAGIC, VERSION, m.msg_type, m.request_id, len(m.payload)) + m.payload


def decode_header(buf: bytes) -> tuple[int, int, int]:
    """Validate the frame header at the head of buf; returns (msg_type,
    request_id, payload_len). Raises before any payload byte is needed."""
    if len(buf) < HEADER_LEN:
        raise errors.MalformedPayload("short header")
    magic, version, msg_type, request_id, payload_len = _HEADER.unpack_from(buf)
    if magic != MAGIC:
        raise errors.BadMagic("bad magic")
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
_WIRE = {Dtype.FLOAT64: np.dtype("<f8"), Dtype.RING64: np.dtype("<u8")}
_TENSOR_HEAD = struct.Struct("<BB")
_DIMS = [struct.Struct(f"<{n}I") for n in range(256)]


def _tensor_parts(t: Tensor) -> tuple[bytes, np.ndarray]:
    """The tensor's header and its elements in wire order, uncopied on a
    little-endian host, where a tensor's frozen C-contiguous array already
    is; joining the two is the encoding's one copy."""
    head = _TENSOR_HEAD.pack(_DTYPE_TO_BYTE[t.dtype], t.ndim) + _DIMS[t.ndim].pack(*t.shape)
    return head, t.data if _WIRE_IS_NATIVE else t.data.astype(_WIRE[t.dtype])


def serialize_tensor(t: Tensor) -> bytes:
    return b"".join(_tensor_parts(t))


def tensor_nbytes(t: Tensor) -> int:
    """Length of the tensor's encoding, from its shape."""
    return 2 + 4 * t.ndim + 8 * t.size


def deserialize_tensor(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Decode a tensor starting at offset, once its header is valid and its
    elements follow; returns (tensor, next offset)."""
    try:
        dtype_b, ndim = _TENSOR_HEAD.unpack_from(buf, offset)
    except struct.error as e:
        raise errors.MalformedPayload(str(e)) from None
    dtype = _BYTE_TO_DTYPE.get(dtype_b)
    if dtype is None:
        raise errors.MalformedPayload(f"unknown dtype byte {dtype_b}")
    pos = offset + 2 + 4 * ndim
    if len(buf) < pos:
        raise errors.MalformedPayload("truncated dims")
    dims = _DIMS[ndim].unpack_from(buf, offset + 2)
    end = pos + 8 * math.prod(dims)
    if len(buf) < end:
        raise errors.MalformedPayload("truncated data")
    data = np.frombuffer(buf, _WIRE[dtype], (end - pos) >> 3, pos)
    if ndim != 1:
        try:  # a zero dim lets the other dims pass the length check above
            data = data.reshape(dims)
        except ValueError as e:
            raise errors.MalformedPayload(f"dims {dims}: {e}") from None
    return Tensor._own(data.copy(), dtype), end


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


_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_ARG_ID = struct.Struct("<BQ")
_KW_INT = struct.Struct("<Bq")
_KW_FLOAT = struct.Struct("<Bd")
_KW_STR = struct.Struct("<BH")
_ARG_ID_TAGS = {"obj": ARG_OBJECT, "take": ARG_TAKE}
_ID_ARG_NAMES = {ARG_OBJECT: "obj", ARG_TAKE: "take"}
_ARG_TENSOR_BYTE = _U8.pack(ARG_TENSOR)


def serialize_command(cmd: Command) -> bytes:
    raw_name = cmd.name.encode("utf-8")
    out = [_U8.pack(len(raw_name)), raw_name, _U8.pack(len(cmd.args))]
    for tag, val in cmd.args:
        if tag == "tensor":
            out.append(_ARG_TENSOR_BYTE)
            out.extend(_tensor_parts(val))
        elif tag in _ARG_ID_TAGS:
            out.append(_ARG_ID.pack(_ARG_ID_TAGS[tag], val))
        else:
            raise errors.MalformedPayload(f"bad arg tag {tag!r}")
    out.append(_U16.pack(len(cmd.kwargs)))
    for key, val in cmd.kwargs.items():
        raw_key = key.encode("utf-8")
        out.append(_U8.pack(len(raw_key)))
        out.append(raw_key)
        if isinstance(val, int):  # a bool too: True packs as 1
            out.append(_KW_INT.pack(KW_INT, val))
        elif isinstance(val, float):
            out.append(_KW_FLOAT.pack(KW_FLOAT, val))
        elif isinstance(val, str):
            raw = val.encode("utf-8")
            out.append(_KW_STR.pack(KW_STR, len(raw)))
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
        name = buf[pos + 1 : pos + 1 + n].decode("utf-8")
        pos += 1 + n
        nargs = buf[pos]
        pos += 1
        args = []
        for _ in range(nargs):
            tag = buf[pos]
            if tag == ARG_TENSOR:
                t, pos = deserialize_tensor(buf, pos + 1)
                args.append(("tensor", t))
            elif tag in _ID_ARG_NAMES:
                args.append((_ID_ARG_NAMES[tag], _U64.unpack_from(buf, pos + 1)[0]))
                pos += 9
            else:
                raise errors.MalformedPayload(f"bad arg tag {tag}")
        (nkw,) = _U16.unpack_from(buf, pos)
        pos += 2
        kwargs = {}
        for _ in range(nkw):
            n = buf[pos]
            key = buf[pos + 1 : pos + 1 + n].decode("utf-8")
            pos += 1 + n
            tag = buf[pos]
            pos += 1
            if tag == KW_INT:
                kwargs[key] = _I64.unpack_from(buf, pos)[0]
                pos += 8
            elif tag == KW_FLOAT:
                kwargs[key] = _F64.unpack_from(buf, pos)[0]
                pos += 8
            elif tag == KW_STR:
                (sl,) = _U16.unpack_from(buf, pos)
                pos += 2
                kwargs[key] = buf[pos : pos + sl].decode("utf-8")
                pos += sl
            elif tag == KW_INT_LIST:
                (cnt,) = _U32.unpack_from(buf, pos)
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
