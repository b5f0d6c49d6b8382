"""Dense tensor type and the numeric kernels everything else dispatches onto.

Two dtypes exist: Float64 (plaintext path) and Ring64, residues modulo
Q = 2**62 stored in uint64. Q is a power of two, so reduction is a mask and
uint64 wraparound composes correctly with it (x mod 2**64 mod 2**62 ==
x mod 2**62).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DtypeMismatch, ShapeMismatch

RING_MODULUS = 1 << 62
RING_MASK = np.uint64(RING_MODULUS - 1)


class Dtype(enum.Enum):
    FLOAT64 = "float64"
    RING64 = "ring64"


def _numpy_dtype(dtype: Dtype):
    return np.float64 if dtype is Dtype.FLOAT64 else np.uint64


@dataclass(frozen=True)
class Tensor:
    """Immutable dense row-major array, Float64 or Ring64.

    `Tensor(arr, dtype)` copies `arr`, so the caller may keep and mutate it.
    Kernels wrap the fresh arrays they compute with `Tensor._own` instead,
    which allocates nothing.
    """

    data: np.ndarray
    dtype: Dtype

    @classmethod
    def _own(cls, arr, dtype: Dtype) -> "Tensor":
        """Wrap an array that nobody else holds: Ring64 is masked in place
        and the array is frozen, with no defensive copy."""
        if not (isinstance(arr, np.ndarray) and arr.dtype == _numpy_dtype(dtype)
                and arr.flags["C_CONTIGUOUS"]):
            return cls(arr, dtype)  # e.g. a 0-d ufunc result is a numpy scalar
        if dtype is Dtype.RING64:
            np.bitwise_and(arr, RING_MASK, out=arr)
        arr.flags.writeable = False
        t = object.__new__(cls)
        object.__setattr__(t, "data", arr)
        object.__setattr__(t, "dtype", dtype)
        return t

    def __post_init__(self):
        want = _numpy_dtype(self.dtype)
        # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
        arr = np.asarray(self.data, dtype=want)
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        if arr.base is not None or arr is self.data:
            arr = arr.copy()
        if self.dtype is Dtype.RING64:
            arr = np.asarray(arr & RING_MASK)  # asarray: 0-d & scalar gives a numpy scalar
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.dtype is other.dtype
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self):
        return f"Tensor({self.dtype.value}, shape={self.shape})"


def _check_same_dtype(a: Tensor, b: Tensor):
    if a.dtype is not b.dtype:
        raise DtypeMismatch(f"{a.dtype.value} vs {b.dtype.value}")


def _pointwise(ufunc, a: Tensor, b: Tensor) -> Tensor:
    """A numpy ufunc over two tensors of one dtype and one shape (no
    broadcasting)."""
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    return Tensor._own(ufunc(a.data, b.data), a.dtype)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _pointwise(np.add, a, b)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _pointwise(np.subtract, a, b)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _pointwise(np.multiply, a, b)


def _public(a: Tensor, c):
    """A public scalar in a's dtype: a ring residue or a float."""
    return np.uint64(int(c) % RING_MODULUS) if a.dtype is Dtype.RING64 else float(c)


def scale(a: Tensor, c) -> Tensor:
    """Multiply every element by a public scalar."""
    return Tensor._own(a.data * _public(a, c), a.dtype)


def offset(a: Tensor, c) -> Tensor:
    """Add a public scalar to every element."""
    return Tensor._own(a.data + _public(a, c), a.dtype)


def neg(a: Tensor) -> Tensor:
    return Tensor._own(np.negative(a.data), a.dtype)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Rank-2 matrix product; Ring64 accumulations wrap mod Q."""
    _check_same_dtype(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    # uint64 matmul wraps mod 2**64 (C semantics), which reduces correctly.
    out = a.data @ b.data
    return Tensor._own(out, a.dtype)


def random_ring(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform residues in [0, Q) as uint64."""
    return rng.integers(0, RING_MODULUS, size=shape, dtype=np.uint64)


def split_shares(rng: np.random.Generator, secret: np.ndarray, n: int) -> list:
    """n additive shares of a Ring64 array: n-1 uniform draws, taken from rng
    in party order, then the residue that completes the sum."""
    shares = [random_ring(rng, secret.shape) for _ in range(n - 1)]
    total = np.zeros(secret.shape, dtype=np.uint64)
    for s in shares:
        total = (total + s) & RING_MASK
    return shares + [(secret - total) & RING_MASK]


def sigmoid_poly(t: Tensor) -> Tensor:
    """sigma(x) ~= 1/2 + x/4 - x**3/48, elementwise (nn.sigmoid_poly)."""
    if t.dtype is not Dtype.FLOAT64:
        raise DtypeMismatch("sigmoid_poly operates on Float64")
    return Tensor._own(nn.sigmoid_poly(t.data), Dtype.FLOAT64)
