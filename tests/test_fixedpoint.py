import numpy as np
import pytest

from fedring.errors import OverflowRangeError
from fedring.fixedpoint import (
    DEFAULT_CONFIG,
    FixedPointConfig,
    Q,
    decode,
    encode,
    to_signed,
    truncate,
    truncate_share,
)
from fedring.tensor import Dtype, Tensor, mul


def f64(values):
    return Tensor(np.asarray(values, dtype=np.float64), Dtype.FLOAT64)


class TestEncode:
    def test_zero(self):
        assert encode(f64([0.0])).data[0] == 0

    def test_one(self):
        assert encode(f64([1.0])).data[0] == 65536

    def test_minus_one(self):
        assert encode(f64([-1.0])).data[0] == Q - 65536

    def test_negation_symmetry(self):
        xs = np.random.default_rng(0).uniform(0.001, 1000, size=200)
        pos = encode(f64(xs)).data
        negs = encode(f64(-xs)).data
        assert np.all((pos + negs) % Q == 0)

    def test_overflow(self):
        with pytest.raises(OverflowRangeError):
            encode(f64([2.0**45]))
        with pytest.raises(OverflowRangeError):
            encode(Tensor(np.array([1], dtype=np.uint64), Dtype.RING64))

    def test_half_away_from_zero(self):
        cfg = FixedPointConfig(frac_bits=1)  # grid of halves
        assert encode(f64([0.25]), cfg).data[0] == 1  # 0.5 rounds up
        assert encode(f64([-0.25]), cfg).data[0] == Q - 1  # -0.5 rounds down


class TestDecode:
    def test_zero(self):
        assert decode(Tensor(np.array([0], dtype=np.uint64), Dtype.RING64)).data[0] == 0.0

    def test_minus_one(self):
        t = Tensor(np.array([Q - 65536], dtype=np.uint64), Dtype.RING64)
        assert decode(t).data[0] == -1.0

    def test_roundtrip_error_bound(self):
        xs = np.random.default_rng(1).uniform(-1000, 1000, size=1000)
        back = decode(encode(f64(xs))).data
        assert np.max(np.abs(back - xs)) <= 2.0**-17

    def test_identity_on_grid(self):
        ints = np.random.default_rng(2).integers(-(2**20), 2**20, size=500)
        xs = ints / 2.0**16
        assert np.array_equal(decode(encode(f64(xs))).data, xs)

    def test_encode_injective_on_grid(self):
        xs = np.arange(-500, 500) / 2.0**16
        codes = encode(f64(xs)).data
        assert len(np.unique(codes)) == len(xs)


class TestTruncate:
    def test_one_times_one(self):
        e1 = encode(f64([1.0]))
        raw = mul(e1, e1)
        out = truncate(raw)
        assert abs(int(out.data[0]) - 65536) <= 1

    def test_zero(self):
        assert truncate(Tensor(np.array([0], dtype=np.uint64), Dtype.RING64)).data[0] == 0

    def test_half_times_minus_half(self):
        raw = mul(encode(f64([0.5])), encode(f64([-0.5])))
        val = decode(truncate(raw)).data[0]
        assert abs(val - (-0.25)) <= 2.0**-16

    def test_multiplication_error_property(self):
        # sampled on the representable grid: for off-grid reals the encoding
        # error alone is ~|x| * 2**-17, which dwarfs the truncation ulp
        rng = np.random.default_rng(3)
        xs = rng.integers(-(2**26), 2**26, size=1000) / 2.0**16
        ys = rng.integers(-(2**26), 2**26, size=1000) / 2.0**16
        got = decode(truncate(mul(encode(f64(xs)), encode(f64(ys))))).data
        assert np.max(np.abs(got - xs * ys)) <= 2.0**-15


class TestHomomorphism:
    def test_additive(self):
        rng = np.random.default_rng(4)
        xs = rng.uniform(-1e4, 1e4, size=500)
        ys = rng.uniform(-1e4, 1e4, size=500)
        enc_sum = Tensor((encode(f64(xs)).data + encode(f64(ys)).data) % Q, Dtype.RING64)
        assert np.max(np.abs(decode(enc_sum).data - (xs + ys))) <= 2.0**-16

    def test_to_signed(self):
        t = Tensor(np.array([0, 1, Q - 1, Q // 2], dtype=np.uint64), Dtype.RING64)
        assert np.array_equal(to_signed(t), [0, 1, -1, -(Q // 2)])


class TestTruncateShare:
    @pytest.mark.parametrize("role", [0, 1])
    def test_result_read_only_and_unaliased(self, role):
        rng = np.random.default_rng(4)
        share = Tensor(rng.integers(0, Q, size=(4, 3), dtype=np.uint64), Dtype.RING64)
        out = truncate_share(share, 16, role)
        assert out.dtype is Dtype.RING64
        assert not out.data.flags.writeable
        assert not np.shares_memory(out.data, share.data)
        assert int(out.data.max()) < Q

    def test_zero_d_share(self):
        share = Tensor(np.array(Q - 1, dtype=np.uint64), Dtype.RING64)
        assert truncate_share(share, 16, 1).data.shape == ()
