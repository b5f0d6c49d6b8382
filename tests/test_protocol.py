import struct

import numpy as np
import pytest

from fedring import errors, protocol
from fedring.protocol import (
    Command,
    Message,
    decode_frame,
    decode_header,
    deserialize_chain,
    deserialize_command,
    deserialize_tensor,
    encode_error,
    encode_frame,
    raise_error_payload,
    serialize_chain,
    serialize_command,
    serialize_tensor,
)
from fedring.tensor import Dtype, Tensor


def rand_tensor(rng):
    ndim = int(rng.integers(0, 4))
    shape = tuple(int(s) for s in rng.integers(1, 5, size=ndim))
    if rng.random() < 0.5:
        return Tensor(rng.normal(size=shape), Dtype.FLOAT64)
    return Tensor(rng.integers(0, 1 << 62, size=shape, dtype=np.uint64), Dtype.RING64)


class TestFrames:
    def test_roundtrip_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = Message(
                int(rng.integers(3, 7)),
                int(rng.integers(0, 1 << 63)),
                bytes(rng.integers(0, 256, size=rng.integers(0, 64), dtype=np.uint8)),
            )
            decoded, used = decode_frame(encode_frame(m))
            assert decoded == m
            assert used == protocol.HEADER_LEN + len(m.payload)

    def test_header_layout(self):
        frame = encode_frame(Message(protocol.MSG_EXECUTE, 7, b"xy"))
        assert frame[:4] == b"FTNS"
        assert frame[4] == 4
        assert frame[5] == 4
        assert len(frame) == 24

    def test_type_7_refused(self):
        """EXECUTE is the one request that runs a command: msg_types 1 and
        2, version 3's STORE and GET, and 7, version 2's by-value EXECUTE,
        are each refused on encode and on decode."""
        payload = struct.pack("<Q", 0) + serialize_command(
            Command("eval_expr", (Command.obj(3),), {"prog": [0, 0]}))
        frame = encode_frame(Message(protocol.MSG_EXECUTE, 5, payload))
        assert frame[5] == 4
        for msg_type in (1, 2, 7):
            with pytest.raises(errors.MalformedPayload, match=f"bad msg_type {msg_type}"):
                encode_frame(Message(msg_type, 5, payload))
            with pytest.raises(errors.MalformedPayload, match=f"unknown msg_type {msg_type}"):
                decode_frame(frame[:5] + bytes([msg_type]) + frame[6:])

    def test_bad_magic(self):
        frame = bytearray(encode_frame(Message(protocol.MSG_EXECUTE, 1)))
        frame[0] = 0
        with pytest.raises(errors.MalformedPayload):
            decode_frame(bytes(frame))

    def test_unknown_type_and_version(self):
        with pytest.raises(errors.MalformedPayload):
            encode_frame(Message(9, 1))
        frame = bytearray(encode_frame(Message(protocol.MSG_EXECUTE, 1)))
        # 1: chain payloads; 2: worker-chosen ids and a second execute type;
        # 3: STORE and GET requests
        for version in (1, 2, 3, 5):
            frame[4] = version
            with pytest.raises(errors.MalformedPayload, match="unsupported version"):
                decode_frame(bytes(frame))

    def test_short_payload(self):
        frame = encode_frame(Message(protocol.MSG_EXECUTE, 1, b"abcd"))
        with pytest.raises(errors.MalformedPayload):
            decode_frame(frame[:-1])

    def test_payload_bound(self, monkeypatch):
        """A header claiming more than MAX_PAYLOAD is rejected from the header
        alone; the encoder refuses to build such a frame."""
        head = protocol.MAGIC + struct.pack("<BBQQ", protocol.VERSION, protocol.MSG_EXECUTE, 3,
                                            1 << 40)
        with pytest.raises(errors.MalformedPayload, match="exceeds"):
            decode_header(head)
        assert decode_header(encode_frame(Message(protocol.MSG_EXECUTE, 3, b"ab"))) == (4, 3, 2)
        monkeypatch.setattr(protocol, "MAX_PAYLOAD", 8)
        with pytest.raises(errors.MalformedPayload):
            encode_frame(Message(protocol.MSG_EXECUTE, 1, b"x" * 9))
        encode_frame(Message(protocol.MSG_EXECUTE, 1, b"x" * 8))

    def test_bad_magic_is_its_own_kind(self):
        with pytest.raises(errors.BadMagic):
            decode_header(b"JUNK" + b"\x00" * 18)
        assert encode_error(errors.BadMagic("x"))[0] == protocol.ERR_MALFORMED


class TestTensorCodec:
    def test_scalar_zero_layout(self):
        raw = serialize_tensor(Tensor(np.array(0.0), Dtype.FLOAT64))
        assert raw == bytes([0, 0]) + b"\x00" * 8
        assert len(raw) == 10

    def test_roundtrip_property(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            t = rand_tensor(rng)
            back, used = deserialize_tensor(serialize_tensor(t))
            assert back == t
            assert used == len(serialize_tensor(t))

    def test_truncated(self):
        raw = serialize_tensor(Tensor(np.arange(4.0), Dtype.FLOAT64))
        with pytest.raises(errors.MalformedPayload):
            deserialize_tensor(raw[:-3])

    def test_unknown_dtype(self):
        with pytest.raises(errors.MalformedPayload):
            deserialize_tensor(bytes([9, 0]) + b"\x00" * 8)

    def test_zero_dim_beside_huge_dims(self):
        """A zero dim makes the element count 0, so the length check
        passes; numpy then refuses the shape (2^31)^2, which is malformed,
        not a bare ValueError."""
        with pytest.raises(errors.MalformedPayload):
            deserialize_tensor(bytes([0, 3]) + struct.pack("<3I", 0, 1 << 31, 1 << 31))

    def test_decoded_tensor_owns_its_data(self):
        payload = bytearray(serialize_tensor(Tensor(np.arange(4.0), Dtype.FLOAT64)))
        t, _ = deserialize_tensor(payload)
        assert not t.data.flags.writeable
        assert not np.shares_memory(t.data, np.frombuffer(payload, dtype=np.uint8))
        payload[-8:] = b"\xff" * 8
        assert np.array_equal(t.data, np.arange(4.0))

    def test_ring_decoding_masks_residues(self):
        raw = bytes([1, 1]) + struct.pack("<I", 2) + struct.pack("<2Q", (1 << 64) - 1, 1 << 62)
        t, _ = deserialize_tensor(raw)
        assert t.data.tolist() == [(1 << 62) - 1, 0]


class TestObjectCodec:
    """The object codec, under the chain names perfbench wraps: an object
    payload is exactly one tensor's encoding."""

    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            t = rand_tensor(rng)
            raw = serialize_chain(t)
            assert raw == serialize_tensor(t)
            assert deserialize_chain(raw) == t

    def test_truncated_object_is_malformed(self):
        """Every cut of a payload, through the dims or the data, is refused."""
        raw = serialize_chain(Tensor(np.arange(6.0).reshape(2, 3), Dtype.FLOAT64))
        for cut in range(len(raw)):
            with pytest.raises(errors.MalformedPayload):
                deserialize_chain(raw[:cut])

    def test_trailing_bytes(self):
        raw = serialize_chain(Tensor(np.array([1.0]), Dtype.FLOAT64))
        with pytest.raises(errors.MalformedPayload, match="trailing"):
            deserialize_chain(raw + b"x")
        with pytest.raises(errors.MalformedPayload, match="trailing"):
            deserialize_chain(bytes([1, 0]) + raw)  # a version-1 one-node Local chain

    def test_empty(self):
        for raw in (b"", b"\x00"):  # no bytes, or a dtype with no ndim
            with pytest.raises(errors.MalformedPayload):
                deserialize_chain(raw)

    def test_unknown_dtype(self):
        with pytest.raises(errors.MalformedPayload, match="dtype"):
            deserialize_chain(bytes([2, 0]) + b"\x00" * 8)


class TestCommandCodec:
    def test_roundtrip(self):
        cmd = Command(
            "fb_batch",
            (Command.obj(3),),
            {"dims": [13, 32, 1], "task": "regression", "lr": 0.01,
             "indices": [1, 2, 3]},
        )
        back = deserialize_command(serialize_command(cmd))
        assert back.name == cmd.name
        assert back.args == cmd.args
        assert back.kwargs == cmd.kwargs

    def test_int_list_kwarg_refuses_non_integers(self):
        for bad in ([1, 2.5], [1, "2"], [[1]], [1 << 63]):
            with pytest.raises(errors.MalformedPayload):
                serialize_command(Command("x", (), {"indices": bad}))
        back = deserialize_command(serialize_command(Command("x", (), {"t": (True, -(1 << 63))})))
        assert back.kwargs == {"t": [1, -(1 << 63)]}

    def test_missing_kwarg_is_malformed(self):
        """A kwarg the command reads and the payload lacks is refused as
        MalformedPayload, not a bare KeyError."""
        cmd = deserialize_command(serialize_command(Command("eval_expr", (Command.obj(1),))))
        with pytest.raises(errors.MalformedPayload, match="prog"):
            cmd.kwargs["prog"]

    def test_empty_command(self):
        cmd = Command("neg", (Command.obj(1),))
        assert deserialize_command(serialize_command(cmd)) == cmd

    def test_truncated(self):
        raw = serialize_command(Command("add", (Command.obj(1), Command.obj(2))))
        with pytest.raises(errors.MalformedPayload):
            deserialize_command(raw[:-1])

    def test_decoded_at_an_offset(self):
        """A command that starts after a prefix, as an EXECUTE's does after
        its destination, decodes in place and still fills the buffer."""
        t = Tensor(np.arange(6.0).reshape(2, 3), Dtype.FLOAT64)
        cmd = Command("eval_expr", (("tensor", t), ("take", 3)), {"prog": [0, 0]})
        buf = struct.pack("<Q", 7) + serialize_command(cmd)
        assert deserialize_command(buf, 8) == cmd
        with pytest.raises(errors.MalformedPayload, match="trailing"):
            deserialize_command(buf + b"\x00", 8)
        with pytest.raises(errors.MalformedPayload):
            deserialize_command(buf[:-1], 8)

    def test_inline_tensor_and_take_roundtrip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rand_tensor(rng)
            cmd = Command("beaver_combine", (("take", 1 << 40), ("tensor", t), Command.obj(2)),
                          {"prog": []})
            back = deserialize_command(serialize_command(cmd))
            assert back.args[0] == ("take", 1 << 40)
            assert back.args[1][0] == "tensor" and back.args[1][1] == t
            assert back.args[2] == ("obj", 2)
            assert back.kwargs == {"prog": []}

    def test_inline_tensor_malformed(self):
        t = Tensor(np.arange(6, dtype=np.uint64).reshape(2, 3), Dtype.RING64)
        raw = serialize_command(Command("x", (("tensor", t),)))
        tag_at = 1 + 1 + 1  # name length, name, arg count
        assert raw[tag_at] == protocol.ARG_TENSOR
        for bad in (raw[:-1], raw[: tag_at + 1],
                    raw[: tag_at + 1] + bytes([9]) + raw[tag_at + 2:]):  # unknown dtype
            with pytest.raises(errors.MalformedPayload):
                deserialize_command(bad)
        # a dims header claiming ~2^64 elements with no data behind it
        huge = raw[: tag_at + 1] + struct.pack("<BBII", 1, 2, 0xFFFFFFFF, 0xFFFFFFFF) + raw[-2:]
        with pytest.raises(errors.MalformedPayload):
            deserialize_command(huge)
        raw = serialize_command(Command("x", (("take", 5),)))
        with pytest.raises(errors.MalformedPayload):
            deserialize_command(raw[:-3])


class TestErrorCodec:
    @pytest.mark.parametrize("exc,code", [
        (errors.ObjectNotFound("x"), 1),
        (errors.DuplicateObject("x"), 2),
        (errors.UnknownCommand("x"), 3),
        (errors.MalformedPayload("x"), 4),
        (errors.ShapeMismatch("x"), 5),  # anything else maps to Internal
    ])
    def test_code_mapping(self, exc, code):
        payload = encode_error(exc)
        assert payload[0] == code

    def test_raise_roundtrip(self):
        with pytest.raises(errors.ObjectNotFound, match="gone"):
            raise_error_payload(encode_error(errors.ObjectNotFound("gone")))
        with pytest.raises(errors.RemoteError):
            raise_error_payload(encode_error(ValueError("boom")))
