"""Dense tensor type and the numeric kernels everything else dispatches onto.

Two dtypes exist: Float64 (plaintext path) and Ring64, residues modulo
Q = 2**62 stored in uint64. Q is a power of two, so reduction is a mask and
uint64 wraparound composes correctly with it (x mod 2**64 mod 2**62 ==
x mod 2**62). So a chain of ring ops may skip the reduction between them:
every kernel takes `reduce=False`, which leaves a Ring64 result unreduced
and writable, and `reduced` finishes such an intermediate in place. The
program interpreter (commands._run_prog) does this: a command reduces only
what it stores or replies with, and a truncation its input, the one ring
op that reads the residue's bits rather than its class.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import DtypeMismatch, ShapeMismatch

RING_MODULUS = 1 << 62
RING_MASK = np.uint64(RING_MODULUS - 1)


class Dtype(enum.Enum):
    FLOAT64 = "float64"
    RING64 = "ring64"


_NUMPY_DTYPES = {Dtype.FLOAT64: np.dtype(np.float64), Dtype.RING64: np.dtype(np.uint64)}
_U64, _F64 = _NUMPY_DTYPES[Dtype.RING64], _NUMPY_DTYPES[Dtype.FLOAT64]


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
    def _own(cls, arr, dtype: Dtype, reduce: bool = True) -> "Tensor":
        """Wrap an array that nobody else holds: Ring64 is masked in place
        and the array is frozen, with no defensive copy. With reduce=False a
        Ring64 array is wrapped as it is, unreduced and writable: a ring
        intermediate of a program, which `reduced` finishes in place."""
        ring = dtype is Dtype.RING64  # an identity test: hashing the enum costs more
        if not (type(arr) is np.ndarray and arr.dtype == (_U64 if ring else _F64)
                and arr.flags.c_contiguous):
            return cls(arr, dtype)  # e.g. a 0-d ufunc result is a numpy scalar
        if ring:
            if not reduce:
                return cls._wrap(arr, dtype)
            np.bitwise_and(arr, RING_MASK, arr)  # out= by position: half the call cost
        arr.setflags(write=False)
        return cls._wrap(arr, dtype)

    @classmethod
    def _wrap(cls, arr: np.ndarray, dtype: Dtype) -> "Tensor":
        """A tensor over an array of dtype's elements, checked by the
        caller: frozen and, for Ring64, reduced mod Q, unless it is a ring
        intermediate (`_own`)."""
        t = object.__new__(cls)
        fields = t.__dict__  # frozen: no __setattr__
        fields["data"] = arr
        fields["dtype"] = dtype
        return t

    def __post_init__(self):
        want = _NUMPY_DTYPES[self.dtype]
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

    def parts(self, shapes) -> list:
        """This tensor's elements in row-major order, cut into consecutive
        tensors of the given shapes, whose sizes must sum to its own. Each
        part is a view of the frozen data: nothing is copied or reduced
        again."""
        shapes = [tuple(map(int, s)) for s in shapes]
        if min(itertools.chain.from_iterable(shapes), default=0) < 0:
            raise ShapeMismatch(f"part shapes {shapes} have a negative dimension")
        sizes = [math.prod(s) for s in shapes]
        if sum(sizes) != self.size:
            raise ShapeMismatch(f"part sizes {sizes} do not sum to {self.size} elements")
        flat, dtype, wrap = self.data.reshape(-1), self.dtype, Tensor._wrap
        out, pos = [], 0
        for shape, n in zip(shapes, sizes):
            out.append(wrap(flat[pos:pos + n].reshape(shape), dtype))
            pos += n
        return out

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


def reduced(t: Tensor) -> Tensor:
    """t, with a ring intermediate (a kernel's result under reduce=False)
    reduced mod Q and frozen in place; a finished tensor is frozen already
    and returned as it is."""
    if t.data.flags.writeable:
        np.bitwise_and(t.data, RING_MASK, t.data)
        t.data.setflags(write=False)
    return t


def _pointwise(ufunc, a: Tensor, b: Tensor, reduce: bool) -> Tensor:
    """A numpy ufunc over two tensors of one dtype and one shape (no
    broadcasting)."""
    _check_same_dtype(a, b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    return Tensor._own(ufunc(a.data, b.data), a.dtype, reduce)


def add(a: Tensor, b: Tensor, reduce: bool = True) -> Tensor:
    return _pointwise(np.add, a, b, reduce)


def sub(a: Tensor, b: Tensor, reduce: bool = True) -> Tensor:
    return _pointwise(np.subtract, a, b, reduce)


def mul(a: Tensor, b: Tensor, reduce: bool = True) -> Tensor:
    return _pointwise(np.multiply, a, b, reduce)


def _public(a: Tensor, c):
    """A public scalar in a's dtype: a ring residue or a float."""
    return np.uint64(int(c) % RING_MODULUS) if a.dtype is Dtype.RING64 else float(c)


def scale(a: Tensor, c, reduce: bool = True) -> Tensor:
    """Multiply every element by a public scalar."""
    return Tensor._own(a.data * _public(a, c), a.dtype, reduce)


def offset(a: Tensor, c, reduce: bool = True) -> Tensor:
    """Add a public scalar to every element."""
    return Tensor._own(a.data + _public(a, c), a.dtype, reduce)


def neg(a: Tensor, reduce: bool = True) -> Tensor:
    return Tensor._own(np.negative(a.data), a.dtype, reduce)


def matmul(a: Tensor, b: Tensor, reduce: bool = True) -> Tensor:
    """Rank-2 matrix product; Ring64 accumulations wrap mod Q."""
    _check_same_dtype(a, b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeMismatch(f"matmul needs rank-2 operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    # uint64 matmul wraps mod 2**64 (C semantics), which reduces correctly.
    return Tensor._own(a.data @ b.data, a.dtype, reduce)


def random_ring(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform residues in [0, Q) as uint64: the top 62 bits of one raw
    64-bit word each. Q is a power of two, so these are the values
    rng.integers(0, Q) draws, and rng ends in the same state."""
    raw = rng.bit_generator.random_raw(shape)
    return np.right_shift(raw, 2, raw)


def split_shares(rng: np.random.Generator, secret: np.ndarray, n: int) -> list:
    """n additive shares of a Ring64 array: n-1 uniform draws, taken from rng
    in party order, then the residue that completes the sum."""
    shares = [random_ring(rng, secret.shape) for _ in range(n - 1)]
    last = secret.copy()
    for s in shares:
        np.subtract(last, s, last)
    np.bitwise_and(last, RING_MASK, last)
    return shares + [last]


def sigmoid_poly(t: Tensor, reduce: bool = True) -> Tensor:
    """sigma(x) ~= 1/2 + x/4 - x**3/48, elementwise (nn.sigmoid_poly);
    Float64 only, so `reduce` changes nothing."""
    if t.dtype is not Dtype.FLOAT64:
        raise DtypeMismatch("sigmoid_poly operates on Float64")
    return Tensor._own(nn.sigmoid_poly(t.data), Dtype.FLOAT64)
