"""Differential privacy machinery: clipping, Gaussian sanitization and the
moments accountant for the subsampled Gaussian mechanism.

The ledger uses the exact integer-order log-moment of the mechanism with
mixture density mu = (1-q) N(0, s^2) + q N(1, s^2): a finite binomial sum
(Mironov, Talwar & Zhang 2019; Abadi et al. 2016, section 3.2), evaluated
for all orders at once in log space (`log_moments`; `log_moment` reads one
order). Its log-binomials log C(n, k) are differences of log-factorials
read from a table of math.lgamma(i + 1), i = 0..max n, and its terms are
summed by a max-shifted log-sum-exp in numpy, so the accountant needs no
scipy. Epsilon follows from the standard tail bound
eps = min_lambda (alpha_total(lambda) + ln(1/delta)) / lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyLedger, EmptyLot, Unachievable
from .nn import clip_rows

DEFAULT_ORDERS = tuple(range(1, 33))


@dataclass(frozen=True)
class PrivacySpec:
    """DP hyperparameters: sampling ratio q, noise multiplier sigma,
    clipping norm, target delta and number of phases."""

    q: float
    sigma: float
    clip_norm: float
    delta: float
    steps: int

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ConfigError(f"sampling ratio q={self.q} outside (0, 1]")
        if self.sigma < 0.0:
            raise ConfigError(f"sigma={self.sigma} must be nonnegative")
        if self.clip_norm <= 0.0:
            raise ConfigError(f"clip_norm={self.clip_norm} must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta={self.delta} outside (0, 1)")


def sanitize_lot(
    per_example_grads,
    clip_norm: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sum of clipped gradients plus N(0, (sigma*C)^2 I) noise."""
    G = np.asarray(per_example_grads, dtype=np.float64)
    if len(G) == 0:
        raise EmptyLot("sanitize_lot needs at least one gradient")
    if not sigma >= 0.0:  # NaN too: it would release the sum with no noise
        raise ConfigError(f"sigma {sigma} must be >= 0")
    total = clip_rows(G, clip_norm).sum(axis=0)
    if sigma > 0.0:
        total = total + rng.normal(0.0, sigma * clip_norm, total.shape)
    return total


def log_moment(q: float, sigma: float, lam: int) -> float:
    """Log-moment alpha(lambda) at one integer order (see `log_moments`)."""
    return float(log_moments(q, sigma, (lam,))[0])


def log_moments(q: float, sigma: float, orders) -> np.ndarray:
    """Exact log-moments alpha(lambda) of the subsampled Gaussian mechanism
    for every integer order in `orders`.

    With n = lambda + 1, alpha = log sum_{k=0}^{n} C(n,k) (1-q)^(n-k) q^k
    e^((k^2-k)/(2 sigma^2)). The k=0 and k=1 terms cancel exactly against
    the 1 of log1p(sum_{k>=2} C(n,k) (1-q)^(n-k) q^k expm1((k^2-k)/(2 sigma^2))),
    so moments near 1e-9 keep full relative precision. The terms are
    positive and summed in log space, so exponents in the thousands (sigma
    0.5, lambda 32) do not overflow. q = 1 is the plain Gaussian mechanism,
    alpha = lambda (lambda + 1) / (2 sigma^2).
    """
    lams = np.asarray(orders, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0 or np.any((lams < 1) | (lams != np.floor(lams))):
        raise ConfigError(f"orders {orders!r} must be a non-empty sequence of integers >= 1")
    if not 0.0 < q <= 1.0 or sigma <= 0.0:
        raise ConfigError(f"invalid (q={q}, sigma={sigma})")
    if q == 1.0:
        return lams * (lams + 1.0) / (2.0 * sigma * sigma)
    n = lams.astype(np.int64)[:, None] + 1
    k = np.arange(2, n.max() + 1)[None, :]
    n_k = np.maximum(n - k, 0)  # k > n is masked out below
    log_fact = np.array([math.lgamma(i + 1.0) for i in range(n.max() + 1)])
    x = (k * k - k) / (2.0 * sigma * sigma)
    if not x.all():
        # sigma past ~1.3e154: sigma^2 overflows, every x is 0 and every term
        # (a multiple of expm1(0) = 0) vanishes, so the log is never taken
        return np.zeros(len(lams))
    log_terms = (
        log_fact[n] - log_fact[k] - log_fact[n_k]
        + n_k * np.log1p(-q) + k * np.log(q)
        + x + np.log(-np.expm1(-x))  # log expm1(x), exact for small and large x
    )
    log_terms = np.where(k <= n, log_terms, -np.inf)
    top = log_terms.max(axis=1)
    return np.logaddexp(0.0, top + np.log(np.exp(log_terms - top[:, None]).sum(axis=1)))


@dataclass
class MomentLedger:
    """Accumulated log-moments per order across recorded steps."""

    orders: tuple = DEFAULT_ORDERS
    totals: np.ndarray = None
    steps: int = 0

    def __post_init__(self):
        if self.totals is None:
            self.totals = np.zeros(len(self.orders))

    def record(self, q: float, sigma: float, count: int = 1):
        self.totals = self.totals + count * log_moments(q, sigma, self.orders)
        self.steps += count

    def epsilon(self, delta: float) -> float:
        return compose_eps(self, delta)


def compose_eps(ledger: MomentLedger, delta: float) -> float:
    """eps = min over lambda of (alpha_total + ln(1/delta)) / lambda."""
    if ledger.steps < 1:
        raise EmptyLedger("no steps recorded")
    if not 0.0 < delta < 1.0:
        raise ConfigError(f"delta={delta} outside (0, 1)")
    lams = np.array(ledger.orders, dtype=float)
    return float(np.min((ledger.totals + np.log(1.0 / delta)) / lams))


def epsilon_for(q: float, sigma: float, steps: int, delta: float) -> float:
    ledger = MomentLedger()
    ledger.record(q, sigma, count=steps)
    return compose_eps(ledger, delta)


SIGMA_SEARCH_LO = 0.5
SIGMA_SEARCH_HI = 64.0
SIGMA_TOLERANCE = 1e-3


def calibrate_sigma(target_eps: float, delta: float, q: float, steps: int) -> float:
    """Smallest sigma (to 1e-3) in [0.5, 64] with epsilon <= target_eps."""
    if target_eps <= 0.0:
        raise ConfigError("target_eps must be positive")
    lo, hi = SIGMA_SEARCH_LO, SIGMA_SEARCH_HI
    if epsilon_for(q, hi, steps, delta) > target_eps:
        raise Unachievable(
            f"epsilon {target_eps} unreachable with sigma <= {hi} at (q={q}, T={steps})"
        )
    if epsilon_for(q, lo, steps, delta) <= target_eps:
        return lo
    while hi - lo > SIGMA_TOLERANCE:
        mid = 0.5 * (lo + hi)
        if epsilon_for(q, mid, steps, delta) <= target_eps:
            hi = mid
        else:
            lo = mid
    return hi
