import numpy as np
import pytest

from fedring.chain import TensorChain
from fedring.errors import OverflowRangeError
from fedring.fixedpoint import (
    FRAC_BITS,
    Q,
    decode,
    encode,
    encode_scalar,
    to_signed,
    truncate,
    truncate_share,
)
from fedring.tensor import Dtype, Tensor, mul


def f64(values):
    return Tensor(np.asarray(values, dtype=np.float64), Dtype.FLOAT64)


ULP = 2.0**-FRAC_BITS
TOP = 2.0**45 - 2.0**-7  # the largest float below 2**45


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
        for bad in ([float("nan")], [1.0, float("nan")]):
            with pytest.raises(OverflowRangeError):
                encode(f64(bad))
        with pytest.raises(OverflowRangeError):
            TensorChain.local([float("nan"), 2.0]).fix_precision()

    def test_half_away_from_zero(self):
        half_ulp = 2.0 ** -(FRAC_BITS + 1)
        assert encode(f64([half_ulp])).data[0] == 1  # 0.5 rounds up
        assert encode(f64([-half_ulp])).data[0] == Q - 1  # -0.5 rounds down

    def test_encode_scalar_matches_encode(self):
        """Python-float rounding gives encode's residue bit for bit, on
        random values, the constants of the shared sigmoid and ties."""
        rng = np.random.default_rng(8)
        values = list(rng.uniform(-1e3, 1e3, 500)) + list(rng.normal(0.0, 1e-5, 100))
        values += [0.0, -0.0, 0.25, -1.0 / 48.0, 0.5, 2.0**-17, -(2.0**-17), 3 * 2.0**-17]
        for v in values:
            assert encode_scalar(v) == int(encode(f64(v)).data), v
        c = np.float32(-1.0 / 48.0)
        assert encode_scalar(c) == int(encode(f64(c)).data)

    @pytest.mark.parametrize("x,want", [
        *[(s * (k + 0.5) * ULP, s * (k + 1)) for k in (0, 1, 2, 7) for s in (1, -1)],
        *[(s * 0.49 * ULP, 0) for s in (1, -1)],
        # just under a tie rounds down: the float sum |s| + 0.5 would itself
        # round up to 1.0
        *[(np.nextafter(s * 0.5 * ULP, 0.0), 0) for s in (1, -1)],
        # an odd integer s in [2**52, 2**53) is exact: s + 0.5 would be a
        # float tie, rounded to the even s + 1
        *[(s * (2**52 + 1) * ULP, s * (2**52 + 1)) for s in (1, -1)],
        *[(s * np.nextafter(2.5 * ULP, 3.0), s * 3) for s in (1, -1)],
        (-0.0, 0),
        *[(s * TOP, s * (2**61 - 2**9)) for s in (1, -1)],
    ])
    def test_rounding_table(self, x, want):
        """Ties round away from zero (2.5 ulp to 3, not to even), -0.0 is
        0, and the largest accepted magnitude encodes exactly, as 0-d and
        1-d tensors alike, and encode_scalar rounds the same way."""
        for shape in ((), (1,)):
            out = encode(f64(np.full(shape, x)))
            assert out.dtype is Dtype.RING64 and out.shape == shape
            assert int(out.data.ravel()[0]) == want % Q
        assert encode_scalar(x) == want % Q

    def test_empty(self):
        out = encode(f64(np.zeros((0, 3))))
        assert out.dtype is Dtype.RING64 and out.shape == (0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0**45, -(2.0**45)])
    def test_refusals(self, bad):
        for values in ([bad], [1.0, bad], bad):
            with pytest.raises(OverflowRangeError, match=r"^magnitude >= 2\*\*45 not representable$"):
                encode(f64(values))

    def test_encode_scalar_overflow(self):
        for bad in (2.0**45, -(2.0**45), float("inf"), float("nan")):
            with pytest.raises(OverflowRangeError):
                encode_scalar(bad)


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

    def test_product_range_edge(self):
        """Just under |x*y| = 2**29, the top of the plaintext product range
        the module states, truncation still lands within one ulp of the
        encoded product."""
        rng = np.random.default_rng(5)
        xs = rng.integers(2**29, 2**31, size=1000) / 2.0**16
        ys = np.floor((2.0**29 - 1) / xs * 2.0**16) / 2.0**16 * rng.choice([-1, 1], size=1000)
        assert np.all(np.abs(xs * ys) < 2.0**29) and np.all(np.abs(xs * ys) > 2.0**29 - 2)
        got = to_signed(truncate(mul(encode(f64(xs)), encode(f64(ys)))))
        assert np.max(np.abs(got - to_signed(encode(f64(xs * ys))))) <= 1


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
