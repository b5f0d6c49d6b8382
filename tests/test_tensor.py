import numpy as np
import pytest

from fedring.errors import DtypeMismatch, ShapeMismatch
from fedring.tensor import (
    Dtype,
    RING_MODULUS,
    Tensor,
    add,
    matmul,
    mul,
    neg,
    offset,
    scale,
    sigmoid_poly,
    sub,
)

Q = RING_MODULUS


def f64(values):
    return Tensor(np.asarray(values, dtype=np.float64), Dtype.FLOAT64)


def r64(values):
    return Tensor(np.asarray(values, dtype=np.uint64), Dtype.RING64)


class TestMatmul:
    def test_identity(self):
        m = f64([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        eye = f64(np.eye(3))
        assert matmul(eye, m) == m

    def test_hand_expansion(self):
        a = f64([[1, 2], [3, 4]])
        b = f64([[5, 6], [7, 8]])
        assert np.array_equal(matmul(a, b).data, [[19, 22], [43, 50]])

    def test_ring_wrap(self):
        a = r64([[1 << 61]])
        b = r64([[4]])
        assert matmul(a, b).data[0, 0] == 0

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        af = rng.normal(size=(5, 5))
        bf = rng.normal(size=(5, 5))
        want = np.array([[sum(af[i, k] * bf[k, j] for k in range(5))
                          for j in range(5)] for i in range(5)])
        got = matmul(f64(af), f64(bf)).data
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-12)) < 1e-9

        ar = rng.integers(0, Q, size=(5, 5), dtype=np.uint64)
        br = rng.integers(0, Q, size=(5, 5), dtype=np.uint64)
        want_r = np.array([[sum(int(ar[i, k]) * int(br[k, j]) for k in range(5)) % Q
                            for j in range(5)] for i in range(5)], dtype=np.uint64)
        assert np.array_equal(matmul(r64(ar), r64(br)).data, want_r)

    def test_shape_and_dtype_errors(self):
        with pytest.raises(ShapeMismatch):
            matmul(f64([[1.0, 2.0]]), f64([[1.0, 2.0]]))
        with pytest.raises(ShapeMismatch):
            matmul(f64([1.0, 2.0]), f64([1.0, 2.0]))
        with pytest.raises(DtypeMismatch):
            matmul(f64([[1.0]]), r64([[1]]))


class TestElementwise:
    def test_additive_identity(self):
        assert np.array_equal(add(f64([1, 2, 3]), f64([0, 0, 0])).data, [1, 2, 3])

    def test_mul_oracle(self):
        assert np.array_equal(mul(f64([2, 3]), f64([4, 5])).data, [8, 15])

    def test_ring_add_wrap(self):
        assert add(r64([Q - 1]), r64([1])).data[0] == 0

    def test_no_broadcasting(self):
        with pytest.raises(ShapeMismatch):
            add(f64([1.0, 2.0]), f64([1.0]))

    def test_commutative_associative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 3)))
            a, b, c = (r64(rng.integers(0, Q, size=shape, dtype=np.uint64)) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            af, bf = f64(rng.normal(size=shape)), f64(rng.normal(size=shape))
            assert np.allclose(add(af, bf).data, add(bf, af).data, rtol=0, atol=0)

    def test_sub(self):
        assert sub(r64([1]), r64([3])).data[0] == Q - 2


class TestScalarOps:
    def test_scale_offset_neg_float(self):
        t = f64([1.0, -2.0])
        assert np.array_equal(scale(t, 3.0).data, [3.0, -6.0])
        assert np.array_equal(offset(t, 1.0).data, [2.0, -1.0])
        assert np.array_equal(neg(t).data, [-1.0, 2.0])

    def test_scale_offset_neg_ring(self):
        t = r64([5])
        assert scale(t, 3).data[0] == 15
        assert offset(t, Q - 1).data[0] == 4
        assert neg(t).data[0] == Q - 5
        assert neg(r64([0])).data[0] == 0


class TestSigmoidPoly:
    def test_zero(self):
        assert sigmoid_poly(f64([0.0])).data[0] == 0.5

    def test_one(self):
        assert np.isclose(sigmoid_poly(f64([1.0])).data[0], 0.5 + 0.25 - 1.0 / 48.0)

    def test_symmetry(self):
        x = np.random.default_rng(4).uniform(-10, 10, size=50)
        s = sigmoid_poly(f64(x)).data
        s_neg = sigmoid_poly(f64(-x)).data
        assert np.allclose(s_neg, 1.0 - s)

    def test_range_inside_valid_band(self):
        # the cubic exits [0, 1] at the root of x^3 - 12x - 24, ~4.208
        x = np.linspace(-4.2, 4.2, 1001)
        s = sigmoid_poly(f64(x)).data
        assert np.all((s >= 0.0) & (s <= 1.0))
        assert sigmoid_poly(f64([4.3])).data[0] < 0.0  # unclamped past the root


class TestTensorType:
    def test_ring_mask_on_construction(self):
        t = Tensor(np.array([Q + 5], dtype=np.uint64), Dtype.RING64)
        assert t.data[0] == 5

    def test_immutable(self):
        t = f64([1.0])
        with pytest.raises(ValueError):
            t.data[0] = 2.0

    def test_constructor_copies_callers_array(self):
        for arr, dtype in ((np.array([1.0, 2.0]), Dtype.FLOAT64),
                           (np.array([1, Q + 2], dtype=np.uint64), Dtype.RING64)):
            t = Tensor(arr, dtype)
            before = t.data.copy()
            arr[:] = 7
            assert np.array_equal(t.data, before)
            assert arr.flags.writeable  # the caller's array is left as it was
        assert Tensor(np.array([Q + 2], dtype=np.uint64), Dtype.RING64).data[0] == 2


_KERNELS = {
    "add": add, "sub": sub, "mul": mul, "matmul": matmul,
    "scale": lambda x: scale(x, 3), "offset": lambda x: offset(x, 5), "neg": neg,
}


class TestKernelResults:
    """Kernels wrap their fresh result without a copy: it is read-only,
    reduced mod Q, and shares no memory with an operand."""

    @staticmethod
    def check(out, *operands):
        assert not out.data.flags.writeable
        assert out.data.flags["C_CONTIGUOUS"]
        for x in operands:
            assert not np.shares_memory(out.data, x.data)
        if out.dtype is Dtype.RING64:
            assert int(out.data.max()) < Q

    @pytest.mark.parametrize("dtype", list(Dtype))
    @pytest.mark.parametrize("name", list(_KERNELS))
    def test_read_only_and_unaliased(self, name, dtype):
        rng = np.random.default_rng(3)
        if dtype is Dtype.FLOAT64:
            a, b = f64(rng.normal(size=(3, 3))), f64(rng.normal(size=(3, 3)))
        else:
            a, b = (r64(rng.integers(0, Q, size=(3, 3), dtype=np.uint64)) for _ in range(2))
        fn = _KERNELS[name]
        unary = name in ("scale", "offset", "neg")
        operands = (a,) if unary else (a, b)
        self.check(fn(*operands), *operands)

    def test_sigmoid_and_zero_d(self):
        a = f64(np.linspace(-2, 2, 5))
        self.check(sigmoid_poly(a), a)
        z = r64(np.array(Q - 1, dtype=np.uint64))
        out = add(z, z)
        self.check(out, z)
        assert out.shape == () and int(out.data) == Q - 2
