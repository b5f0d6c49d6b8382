"""Correctness gates of the benchmark, its failure tally, and a self-test
showing that each gate rejects a corrupted output.

Run `python3 perfbench/gates.py` to print the self-test; every benchmark run
also runs it before measuring and refuses to measure if a gate is broken.
"""

from __future__ import annotations

import numpy as np

# criterion 2's setting and floor, criterion 5's bound, criterion 6's step
DP_TARGET_EPS = 0.5
DP_DELTA = 1e-5
DP_ACCURACY_FLOOR = 0.55
DP_TIGHTNESS_STEP = 2e-3
MPC_MAX_ERR = 2.0 ** -10


class Tally:
    """Operations attempted and failed. An operation is one step (SGD step,
    DP phase, MPC pass) or one job-level gate check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool, count: int = 1):
        self.attempted += count
        if not ok:
            self.failed += count


def weights_identical(got: np.ndarray, want: np.ndarray) -> bool:
    """Bit-for-bit equality of two float64 weight vectors."""
    got, want = np.asarray(got, np.float64), np.asarray(want, np.float64)
    return got.shape == want.shape and bool(np.array_equal(got.view(np.uint64),
                                                           want.view(np.uint64)))


def epsilon_within(eps: float) -> bool:
    return eps <= DP_TARGET_EPS


def sigma_tight(eps_at_smaller_sigma: float) -> bool:
    """epsilon_for(sigma - 2e-3) must exceed the target: sigma is the
    smallest noise to the search tolerance, not an over-estimate."""
    return eps_at_smaller_sigma > DP_TARGET_EPS


def accuracy_ok(acc: float) -> bool:
    return acc >= DP_ACCURACY_FLOOR


def mpc_err(shared: np.ndarray, fixed: np.ndarray) -> float:
    return float(np.max(np.abs(np.asarray(shared) - np.asarray(fixed))))


def mpc_within(shared: np.ndarray, fixed: np.ndarray) -> bool:
    return mpc_err(shared, fixed) < MPC_MAX_ERR


def selftest() -> list[str]:
    """Feed each gate one good and one corrupted output; returns report lines
    and raises RuntimeError if a gate accepts the corrupted one or a
    rejection is not tallied as a failed operation."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=481)
    flipped = w.copy()
    flipped.view(np.uint64)[7] ^= np.uint64(1)  # lowest mantissa bit
    fixed = rng.normal(size=101)
    off = fixed.copy()
    off[50] += 2.0 ** -9
    cases = [
        ("fedsgd-socket weights", weights_identical(w, w.copy()),
         weights_identical(w, flipped), "one flipped weight bit"),
        ("dp-calibrated epsilon", epsilon_within(DP_TARGET_EPS),
         epsilon_within(DP_TARGET_EPS + 1e-9), "epsilon 1e-9 above target"),
        ("dp-calibrated tightness", sigma_tight(DP_TARGET_EPS + 1e-9),
         sigma_tight(DP_TARGET_EPS), "sigma - 2e-3 still meets target"),
        ("dp-calibrated accuracy", accuracy_ok(DP_ACCURACY_FLOOR),
         accuracy_ok(DP_ACCURACY_FLOOR - 1e-3), "accuracy 1e-3 below floor"),
        ("mpc-infer error", mpc_within(fixed.copy(), fixed),
         mpc_within(off, fixed), "one output off by 2^-9"),
    ]
    lines = []
    for name, accepts_good, accepts_bad, corruption in cases:
        tally = Tally()
        tally.op(accepts_bad)
        ok = accepts_good and not accepts_bad and (tally.attempted, tally.failed) == (1, 1)
        lines.append(f"{name}: {'ok' if ok else 'BROKEN'} "
                     f"(accepts good output: {accepts_good}; {corruption} rejected: "
                     f"{not accepts_bad}; tally attempted={tally.attempted} "
                     f"failed={tally.failed})")
        if not ok:
            raise RuntimeError("gate self-test failed: " + lines[-1])
    return lines


if __name__ == "__main__":
    print("\n".join(selftest()))
