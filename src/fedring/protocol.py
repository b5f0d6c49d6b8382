"""Binary wire protocol: framing plus tensor / chain / command codecs.

Frame layout (little-endian throughout):

    magic    4 bytes  b"FTNS"
    version  u8       1
    msg_type u8       1=STORE 2=GET 3=DELETE 4=EXECUTE 5=RESULT 6=ERROR
    request_id  u64
    payload_len u64     at most MAX_PAYLOAD
    payload     payload_len bytes

Request payloads: STORE oid u64 then a chain; GET oid u64 then a delete
flag u8; DELETE one or more oids, u64 each; EXECUTE a command. An EXECUTE
RESULT carries the new object's oid u64, a GET RESULT the chain. A worker
decodes a STORE chain on arrival, so a malformed one is refused with
Malformed and nothing is stored.

Chain payload: node count u8, then per node, top-down, a kind u8 (0=Local
then a tensor, 1=Pointer then a name and an oid u64, 2=FixedPrecision then
frac_bits u8). A name is its UTF-8 length u8 then its bytes.

Tensor payload: dtype u8 (0=Float64, 1=Ring64), ndim u8, dims u32 each,
elements 8 bytes each (Float64 as IEEE-754 bits, Ring64 as u64).

ERROR payload: code u32 then a UTF-8 message. Codes: 1 NotFound,
2 Duplicate, 3 UnknownCommand, 4 Malformed, 5 Internal.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .tensor import Dtype, Tensor

MAGIC = b"FTNS"
VERSION = 1
HEADER_LEN = 22
MAX_PAYLOAD = 1 << 28

MSG_STORE = 1
MSG_GET = 2
MSG_DELETE = 3
MSG_EXECUTE = 4
MSG_RESULT = 5
MSG_ERROR = 6
_VALID_TYPES = frozenset((MSG_STORE, MSG_GET, MSG_DELETE, MSG_EXECUTE, MSG_RESULT, MSG_ERROR))

ERR_NOT_FOUND = 1
ERR_DUPLICATE = 2
ERR_UNKNOWN_COMMAND = 3
ERR_MALFORMED = 4
ERR_INTERNAL = 5

_CODE_TO_EXC = {
    ERR_NOT_FOUND: errors.ObjectNotFound,
    ERR_DUPLICATE: errors.DuplicateObject,
    ERR_UNKNOWN_COMMAND: errors.UnknownCommand,
    ERR_MALFORMED: errors.MalformedPayload,
    ERR_INTERNAL: errors.RemoteError,
}

_EXC_TO_CODE = {
    errors.ObjectNotFound: ERR_NOT_FOUND,
    errors.DuplicateObject: ERR_DUPLICATE,
    errors.UnknownCommand: ERR_UNKNOWN_COMMAND,
    errors.MalformedPayload: ERR_MALFORMED,
    errors.BadMagic: ERR_MALFORMED,
}


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
    code = _EXC_TO_CODE.get(type(exc), ERR_INTERNAL)
    return struct.pack("<I", code) + str(exc).encode("utf-8")


def raise_error_payload(payload: bytes):
    if len(payload) < 4:
        raise errors.MalformedPayload("short error payload")
    (code,) = struct.unpack("<I", payload[:4])
    msg = payload[4:].decode("utf-8", "replace")
    raise _CODE_TO_EXC.get(code, errors.RemoteError)(msg)


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


def _tensor_header(buf: bytes, offset: int) -> tuple[Dtype, tuple, int, int]:
    """Validate the tensor header at offset and that its elements follow;
    returns (dtype, dims, offset of the elements, next offset)."""
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
    return _BYTE_TO_DTYPE[dtype_b], dims, pos, pos + 8 * count


def deserialize_tensor(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Decode a tensor starting at offset; returns (tensor, next offset)."""
    dtype, dims, pos, end = _tensor_header(buf, offset)
    wire = "<f8" if dtype is Dtype.FLOAT64 else "<u8"
    data = np.frombuffer(buf, dtype=wire, count=(end - pos) // 8, offset=pos).reshape(dims)
    return Tensor._own(data.copy(), dtype), end


def _tensor_shape(buf: bytes, offset: int) -> tuple[tuple, int]:
    _, dims, _, end = _tensor_header(buf, offset)
    return dims, end


# ---------------------------------------------------------------------------
# chain codec (node kinds top-down, head implied)

NODE_LOCAL = 0
NODE_POINTER = 1
NODE_FIXED_PRECISION = 2


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if not 0 < len(raw) <= 64:
        raise errors.MalformedPayload(f"bad worker name {name!r}")
    return struct.pack("<B", len(raw)) + raw


def _unpack_name(buf: bytes, pos: int) -> tuple[str, int]:
    if len(buf) < pos + 1:
        raise errors.MalformedPayload("truncated name")
    n = buf[pos]
    if len(buf) < pos + 1 + n:
        raise errors.MalformedPayload("truncated name")
    return buf[pos + 1 : pos + 1 + n].decode("utf-8"), pos + 1 + n


def serialize_chain(nodes: list) -> bytes:
    """nodes: list of ('local', Tensor) | ('pointer', name, oid) |
    ('fixed_precision', frac_bits). A shared chain holds a leader-side
    ShareVector and is never serialized."""
    out = [struct.pack("<B", len(nodes))]
    for node in nodes:
        tag = node[0]
        if tag == "local":
            out.append(struct.pack("<B", NODE_LOCAL))
            out.extend(_tensor_parts(node[1]))
        elif tag == "pointer":
            out.append(struct.pack("<B", NODE_POINTER))
            out.append(_pack_name(node[1]) + struct.pack("<Q", node[2]))
        elif tag == "fixed_precision":
            out.append(struct.pack("<BB", NODE_FIXED_PRECISION, node[1]))
        else:
            raise errors.MalformedPayload(f"unknown node tag {tag!r}")
    return b"".join(out)


def deserialize_chain(buf: bytes) -> list:
    """Decode and validate a chain; any malformed input raises
    MalformedPayload. Workers decode STORE payloads with it on arrival."""
    return _read_chain(buf, deserialize_tensor)


def chain_shapes(buf: bytes) -> tuple:
    """Shapes of a chain's local tensors, read from their headers without
    decoding or copying the elements."""
    return tuple(node[1] for node in _read_chain(buf, _tensor_shape) if node[0] == "local")


def _read_chain(buf: bytes, read_tensor) -> list:
    """The chain parser; `read_tensor(buf, offset)` gives each local node's
    value and the next offset."""
    if not buf or not buf[0]:
        raise errors.MalformedPayload("empty chain")
    try:
        count = buf[0]
        pos = 1
        nodes = []
        for _ in range(count):
            kind = buf[pos]
            pos += 1
            if kind == NODE_LOCAL:
                t, pos = read_tensor(buf, pos)
                nodes.append(("local", t))
            elif kind == NODE_POINTER:
                name, pos = _unpack_name(buf, pos)
                (oid,) = struct.unpack_from("<Q", buf, pos)
                pos += 8
                nodes.append(("pointer", name, oid))
            elif kind == NODE_FIXED_PRECISION:
                nodes.append(("fixed_precision", buf[pos]))
                pos += 1
            else:
                raise errors.MalformedPayload(f"unknown node kind {kind}")
    except (IndexError, struct.error, UnicodeDecodeError) as e:
        raise errors.MalformedPayload(f"truncated chain: {e}") from None
    if pos != len(buf):
        raise errors.MalformedPayload("trailing bytes after chain")
    return nodes


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
        if isinstance(val, bool):
            out.append(struct.pack("<Bq", KW_INT, int(val)))
        elif isinstance(val, int):
            out.append(struct.pack("<Bq", KW_INT, val))
        elif isinstance(val, float):
            out.append(struct.pack("<Bd", KW_FLOAT, val))
        elif isinstance(val, str):
            raw = val.encode("utf-8")
            out.append(struct.pack("<BH", KW_STR, len(raw)))
            out.append(raw)
        elif isinstance(val, (list, tuple)) and all(isinstance(v, int) for v in val):
            out.append(struct.pack("<BI", KW_INT_LIST, len(val)))
            out.append(struct.pack(f"<{len(val)}q", *val))
        else:
            raise errors.MalformedPayload(f"unsupported kwarg type for {key!r}")
    return b"".join(out)


def deserialize_command(buf: bytes) -> Command:
    try:
        pos = 0
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
