"""Fixed-precision codec between Float64 and the Ring64 domain.

Values are scaled by 2**FRAC_BITS, rounded half-away-from-zero and reduced
mod Q = 2**62. Negatives occupy the upper half (Q/2, Q). Rounding symmetric
about zero gives encode(-x) == Q - encode(x) exactly, which the share
arithmetic relies on.

Ranges. encode accepts |x| < MAX_MAGNITUDE = 2**45, so every encoding lies
in the signed range (-Q/2, Q/2). A product of two encodings carries
2 * FRAC_BITS fractional bits, so a plaintext product
truncate(encode(x) * encode(y)) is right only while |x*y| < MAX_PRODUCT =
2**29; above that the raw product wraps (1e5 * 1e5 would read 3.36e8), so
chain dispatch refuses such a local fixed-precision product. A shared
product is tighter: local truncation of a secret with l = 32 + log2|x*y|
raw bits misses by more than one ulp with probability ~2**(l+1-62). Over
200,000 random two-party secrets that was 0 at l = 41, 1.35e-4 at l = 50,
1.2% at l = 56 and 19% at l = 60.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, OverflowRangeError
from .tensor import Dtype, RING_MODULUS, Tensor

Q = RING_MODULUS
FRAC_BITS = 16
SCALE = 1 << FRAC_BITS
MAX_MAGNITUDE = float(1 << (61 - FRAC_BITS))
MAX_PRODUCT = float(1 << (61 - 2 * FRAC_BITS))
_RANGE = f"magnitude >= 2**{61 - FRAC_BITS} not representable"


def encode(x: Tensor) -> Tensor:
    """Float64 tensor -> Ring64 tensor of round(x * SCALE) mod Q."""
    if x.dtype is not Dtype.FLOAT64:
        raise OverflowRangeError("encode expects a Float64 tensor")
    # flat, so that a 0-d input stays an array through the in-place steps;
    # scaling by a power of two is exact, so the bound applies after it
    scaled = x.data.reshape(-1) * SCALE
    mag = np.abs(scaled)
    if not (mag < MAX_MAGNITUDE * SCALE).all():  # NaN is refused too
        raise OverflowRangeError(_RANGE)
    # round half away from zero, unlike np.round's banker's rounding:
    # trunc(s + copysign(0.5, s)) is sign(s) * floor(|s| + 0.5)
    scaled += np.copysign(0.5, scaled, mag)
    np.trunc(scaled, scaled)
    # two's complement: a negative int64 read as uint64 is it mod 2**64,
    # which _own's mask reduces mod Q
    ints = scaled.astype(np.int64).view(np.uint64)
    return Tensor._own(ints.reshape(x.shape), Dtype.RING64)


def encode_scalar(x: float) -> int:
    """One float as its ring residue, with encode's rounding in Python
    floats: encode_scalar(x) == int(encode(x)) for a 0-d x."""
    x = float(x)
    if not abs(x) < MAX_MAGNITUDE:  # NaN is refused too
        raise OverflowRangeError(_RANGE)
    scaled = x * SCALE
    n = math.floor(abs(scaled) + 0.5)
    return (-n if scaled < 0 else n) % Q


def decode(r: Tensor) -> Tensor:
    """Ring64 tensor -> Float64; residues above Q/2 read as negative."""
    return Tensor._own(np.true_divide(to_signed(r), SCALE), Dtype.FLOAT64)


def to_signed(r: Tensor) -> np.ndarray:
    """Residues in [0, Q) -> signed int64 in [-Q/2, Q/2): shifted up by the
    2 bits above the ring, then arithmetically back down, which copies bit
    61, the sign of the signed range, into them."""
    out = np.empty(r.shape, dtype=np.uint64)  # an out array keeps a 0-d result an array
    np.left_shift(r.data, np.uint64(2), out)
    signed = out.view(np.int64)
    return np.right_shift(signed, 2, signed)


def truncate(r: Tensor) -> Tensor:
    """Arithmetic shift of the signed value right by FRAC_BITS, re-encoded.

    Applied to a raw product (2 * FRAC_BITS fractional bits) this restores
    FRAC_BITS: for x and y on the 2**-FRAC_BITS grid,
    truncate(encode(x) * encode(y)) == encode(x*y) within one ulp while
    |x*y| < 2**29.
    """
    signed = to_signed(r)
    np.right_shift(signed, FRAC_BITS, signed)  # arithmetic shift == floor division
    return Tensor._own(signed.view(np.uint64), Dtype.RING64)  # masked mod Q in place


def truncate_share(share: Tensor, frac_bits: int, role: int) -> Tensor:
    """One party's half of two-party local truncation by 2**frac_bits.

    Role 0 shifts its share down; role 1 shifts the ring complement of its
    share. The two results reconstruct to the truncated secret within one
    ulp, except with probability ~2**(l+1-62) for an l-bit secret (SecureML,
    Mohassel & Zhang 2017). With three or more parties the wrap of the share
    sum is no longer a single carry, so errors reach 2**46 on ordinary
    inputs; any other role is rejected.
    """
    if role not in (0, 1):
        raise ConfigError(f"local share truncation is sound for two parties only (role {role})")
    p = np.uint64(frac_bits)
    v = share.data  # shares are < Q = 2^62, so Q - v and its shift fit in uint64
    if role == 0:
        return Tensor._own(v >> p, Dtype.RING64)
    q = np.uint64(Q)
    return Tensor._own(q - ((q - v) >> p), Dtype.RING64)  # masked mod Q in place
