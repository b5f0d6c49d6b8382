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
                int(rng.integers(1, 7)),
                int(rng.integers(0, 1 << 63)),
                bytes(rng.integers(0, 256, size=rng.integers(0, 64), dtype=np.uint8)),
            )
            decoded, used = decode_frame(encode_frame(m))
            assert decoded == m
            assert used == protocol.HEADER_LEN + len(m.payload)

    def test_header_layout(self):
        frame = encode_frame(Message(protocol.MSG_STORE, 7, b"xy"))
        assert frame[:4] == b"FTNS"
        assert frame[4] == 1
        assert frame[5] == 1
        assert len(frame) == 24

    def test_bad_magic(self):
        frame = bytearray(encode_frame(Message(1, 1)))
        frame[0] = 0
        with pytest.raises(errors.MalformedPayload):
            decode_frame(bytes(frame))

    def test_unknown_type_and_version(self):
        with pytest.raises(errors.MalformedPayload):
            encode_frame(Message(9, 1))
        frame = bytearray(encode_frame(Message(1, 1)))
        frame[4] = 2
        with pytest.raises(errors.MalformedPayload):
            decode_frame(bytes(frame))

    def test_short_payload(self):
        frame = encode_frame(Message(1, 1, b"abcd"))
        with pytest.raises(errors.MalformedPayload):
            decode_frame(frame[:-1])

    def test_payload_bound(self, monkeypatch):
        """A header claiming more than MAX_PAYLOAD is rejected from the header
        alone; the encoder refuses to build such a frame."""
        head = protocol.MAGIC + struct.pack("<BBQQ", 1, protocol.MSG_STORE, 3, 1 << 40)
        with pytest.raises(errors.MalformedPayload, match="exceeds"):
            decode_header(head)
        assert decode_header(encode_frame(Message(1, 3, b"ab"))) == (1, 3, 2)
        monkeypatch.setattr(protocol, "MAX_PAYLOAD", 8)
        with pytest.raises(errors.MalformedPayload):
            encode_frame(Message(protocol.MSG_STORE, 1, b"x" * 9))
        encode_frame(Message(protocol.MSG_STORE, 1, b"x" * 8))

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


class TestChainCodec:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        nodes = [
            ("fixed_precision", 16),
            ("local", rand_tensor(rng)),
        ]
        assert deserialize_chain(serialize_chain(nodes)) == nodes
        nodes = [("pointer", "alice", 42)]
        assert deserialize_chain(serialize_chain(nodes)) == nodes

    def test_shared_node_rejected(self):
        """Shared chains hold a leader-side ShareVector and have no wire
        form: kind 3 is an unknown node kind."""
        with pytest.raises(errors.MalformedPayload, match="unknown node tag"):
            serialize_chain([("fixed_precision", 8), ("shared", [("alice", 1), ("bob", 2)])])
        raw = bytes([2, protocol.NODE_FIXED_PRECISION, 8, 3, 2])
        raw += bytes([5]) + b"alice" + struct.pack("<Q", 1)
        raw += bytes([3]) + b"bob" + struct.pack("<Q", 2)
        with pytest.raises(errors.MalformedPayload, match="unknown node kind 3"):
            deserialize_chain(raw)

    def test_truncated_node_is_malformed(self):
        raw = serialize_chain([("fixed_precision", 8), ("pointer", "alice", 42)])
        for cut in range(1, len(raw)):
            with pytest.raises(errors.MalformedPayload):
                deserialize_chain(raw[:cut])

    def test_trailing_bytes(self):
        raw = serialize_chain([("pointer", "a", 1)]) + b"x"
        with pytest.raises(errors.MalformedPayload):
            deserialize_chain(raw)

    def test_empty(self):
        for raw in (b"", b"\x00"):  # no bytes, or a count of zero nodes
            with pytest.raises(errors.MalformedPayload):
                deserialize_chain(raw)

    def test_bad_name(self):
        with pytest.raises(errors.MalformedPayload):
            serialize_chain([("pointer", "x" * 65, 1)])


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

    def test_empty_command(self):
        cmd = Command("neg", (Command.obj(1),))
        assert deserialize_command(serialize_command(cmd)) == cmd

    def test_truncated(self):
        raw = serialize_command(Command("add", (Command.obj(1), Command.obj(2))))
        with pytest.raises(errors.MalformedPayload):
            deserialize_command(raw[:-1])

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
