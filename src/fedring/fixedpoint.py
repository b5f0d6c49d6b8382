"""Fixed-precision codec between Float64 and the Ring64 domain.

Values are scaled by 2**frac_bits, rounded half-away-from-zero and reduced
mod Q = 2**62. Negatives occupy the upper half (Q/2, Q). Rounding symmetric
about zero gives encode(-x) == Q - encode(x) exactly, which the share
arithmetic relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, OverflowRangeError
from .tensor import Dtype, RING_MODULUS, Tensor

Q = RING_MODULUS


@dataclass(frozen=True)
class FixedPointConfig:
    frac_bits: int = 16

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @property
    def max_magnitude(self) -> float:
        # one bit of headroom below Q/2 so products of encodings stay sound
        return float(1 << (61 - self.frac_bits))


DEFAULT_CONFIG = FixedPointConfig()


def encode(x: Tensor, cfg: FixedPointConfig = DEFAULT_CONFIG) -> Tensor:
    """Float64 tensor -> Ring64 tensor of round(x * 2**p) mod Q."""
    if x.dtype is not Dtype.FLOAT64:
        raise OverflowRangeError("encode expects a Float64 tensor")
    vals = x.data
    if np.any(np.abs(vals) >= cfg.max_magnitude):
        raise OverflowRangeError(
            f"magnitude >= 2**{61 - cfg.frac_bits} not representable"
        )
    scaled = vals * cfg.scale
    # round half away from zero, unlike np.round's banker's rounding
    ints = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    return Tensor(ints.astype(np.int64) % Q, Dtype.RING64)


def decode(r: Tensor, cfg: FixedPointConfig = DEFAULT_CONFIG) -> Tensor:
    """Ring64 tensor -> Float64; residues above Q/2 read as negative."""
    signed = to_signed(r)
    return Tensor(signed / cfg.scale, Dtype.FLOAT64)


def to_signed(r: Tensor) -> np.ndarray:
    """Residues in [0, Q) -> signed int64 in [-Q/2, Q/2)."""
    vals = r.data.astype(np.int64)  # safe: residues < 2**62 < 2**63
    return np.where(vals >= Q // 2, vals - Q, vals)


def truncate(r: Tensor, cfg: FixedPointConfig = DEFAULT_CONFIG) -> Tensor:
    """Arithmetic shift of the signed value right by frac_bits, re-encoded.

    Applied to a raw product (2p fractional bits) this restores p bits:
    truncate(encode(x) * encode(y)) == encode(x*y) within one ulp.
    """
    signed = to_signed(r)
    shifted = signed >> cfg.frac_bits  # arithmetic shift == floor division
    return Tensor(shifted % Q, Dtype.RING64)


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
