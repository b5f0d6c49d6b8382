"""Differential privacy machinery: clipping, Gaussian sanitization and the
moments accountant for the subsampled Gaussian mechanism.

The ledger uses the exact integer-order log-moment of the mechanism with
mixture density mu = (1-q) N(0, s^2) + q N(1, s^2): a finite binomial sum
(Mironov, Talwar & Zhang 2019; Abadi et al. 2016, section 3.2), evaluated
for all orders at once in log space (`log_moments`). `log_moment` is the
windowed quadrature of the same moment, kept as an independent reference;
its window [-20 s, 1 + 20 s] under-reports at small sigma and large lambda,
so nothing on the accounting path calls it. Epsilon follows from the
standard tail bound eps = min_lambda (alpha_total(lambda) + ln(1/delta)) /
lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, logsumexp, ndtr

from .errors import (
    ConfigError,
    EmptyLedger,
    EmptyLot,
    NumericalError,
    Unachievable,
)
from .nn import clip_rows

DEFAULT_ORDERS = tuple(range(1, 33))
INTEGRATION_POINTS = 200_001
INTEGRATION_HALF_WIDTHS = 20.0


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
    total = clip_rows(G, clip_norm).sum(axis=0)
    if sigma > 0.0:
        total = total + rng.normal(0.0, sigma * clip_norm, total.shape)
    return total


def log_moment(
    q: float,
    sigma: float,
    lam: int,
    n_points: int = INTEGRATION_POINTS,
) -> float:
    """Log-moment alpha(lambda) of the subsampled Gaussian mechanism by
    windowed quadrature: the reference for `log_moments`, not used by the
    ledger.

    Max over both privacy-loss directions, trapezoid rule on
    z in [-20 sigma, 1 + 20 sigma]. Both moments have the form
    E_{mu0}[e^(a d) - 1] with d = log(mu / mu0): a = -lambda for the
    mu0-vs-mu direction and a = lambda + 1 for the other (since
    mu dz = mu0 e^d dz). The O(q) linear part a * E_{mu0}[d] is split off
    and its dominant piece integrated in closed form (it is
    a q * Int(mu1 - mu0), a normal-CDF expression over the window), so the
    quadrature only sees O(q^2) integrands and tiny moments (alpha ~ q^2)
    keep full relative precision. Exponents too large for linear space are
    accumulated through log-sum-exp.
    """
    if lam < 1:
        raise ConfigError(f"lambda={lam} must be >= 1")
    if not 0.0 < q <= 1.0 or sigma <= 0.0:
        raise ConfigError(f"invalid (q={q}, sigma={sigma})")
    lo = -INTEGRATION_HALF_WIDTHS * sigma
    hi = 1.0 + INTEGRATION_HALF_WIDTHS * sigma
    z = np.linspace(lo, hi, n_points)
    w = np.full(n_points, z[1] - z[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    log_mu0 = -0.5 * np.log(2.0 * np.pi * sigma * sigma) - 0.5 * (z / sigma) ** 2
    log_w_mu0 = np.log(w) + log_mu0
    w_mu0 = np.exp(log_w_mu0)
    s = (2.0 * z - 1.0) / (2.0 * sigma * sigma)  # log(mu1 / mu0)
    u = q * np.expm1(s)  # mu/mu0 - 1
    d = np.log1p(u)
    # d = u - r with r = O(u^2); Int mu0 u = q * Int (mu1 - mu0), closed form
    r_sum = float(np.sum(w_mu0 * (u - d)))
    lin = q * float(
        (ndtr((hi - 1.0) / sigma) - ndtr((lo - 1.0) / sigma))
        - (ndtr(hi / sigma) - ndtr(lo / sigma))
    )

    def expectation_minus_one(a: float) -> float:
        """E_mu0[e^(a d)] - 1 over the window, as log1p-ready float."""
        x = a * d
        big = x > 300.0
        # e^x - 1 - x is O(x^2) where x is small and ~e^x where x is big
        small = float(np.sum(w_mu0[~big] * (np.expm1(x[~big]) - x[~big])))
        total = a * (lin - r_sum) + small
        if np.any(big):
            tail = float(logsumexp(log_w_mu0[big] + x[big]))
            if tail > 700.0:  # exp would overflow; the tail dominates alpha
                return np.inf
            total += np.exp(tail)
        return total

    def log1p_or_log(a: float) -> float:
        x = a * d
        big = x > 300.0
        i = expectation_minus_one(a)
        if np.isfinite(i):
            return float(np.log1p(i)) if i > -1.0 else -np.inf
        # tail too large for linear space: alpha equals the tail log-sum
        return float(logsumexp(log_w_mu0[big] + x[big]))

    alpha = max(log1p_or_log(-float(lam)), log1p_or_log(float(lam + 1)))
    if not np.isfinite(alpha):
        raise NumericalError(f"log-moment overflowed at (q={q}, sigma={sigma}, lam={lam})")
    # quadrature jitter can leave a tiny negative value at q -> 0
    return float(max(alpha, 0.0))


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
    n = lams[:, None] + 1.0
    k = np.arange(2.0, n.max() + 1.0)[None, :]
    n_k = np.maximum(n - k, 0.0)  # k > n is masked out below
    x = (k * k - k) / (2.0 * sigma * sigma)
    log_terms = (
        gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n_k + 1.0)
        + n_k * np.log1p(-q) + k * np.log(q)
        + x + np.log(-np.expm1(-x))  # log expm1(x), exact for small and large x
    )
    log_terms = np.where(k <= n, log_terms, -np.inf)
    return np.logaddexp(0.0, logsumexp(log_terms, axis=1))


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
