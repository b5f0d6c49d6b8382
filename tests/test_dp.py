import math

import numpy as np
import pytest

from fedring.dp import (
    DEFAULT_ORDERS,
    MomentLedger,
    PrivacySpec,
    calibrate_sigma,
    compose_eps,
    epsilon_for,
    log_moment,
    log_moments,
    sanitize_lot,
)
from fedring.errors import ConfigError, EmptyLedger, EmptyLot, Unachievable
from fedring.nn import clip_rows

from dp_oracle import oracle_log_moment


def clip_one(g, clip_norm):
    return clip_rows(np.asarray(g, dtype=np.float64)[None, :], clip_norm)[0]


class TestClip:
    def test_short_vector_untouched(self):
        g = np.array([0.3, 0.4])  # norm 0.5
        assert np.array_equal(clip_one(g, 1.0), g)

    def test_long_vector_scaled_to_c(self):
        g = np.array([3.0, 4.0])  # norm 5
        out = clip_one(g, 1.0)
        assert np.isclose(np.linalg.norm(out), 1.0)
        assert np.allclose(out, g / 5.0)  # direction preserved

    def test_boundary(self):
        g = np.array([1.0, 0.0])
        assert np.array_equal(clip_one(g, 1.0), g)

    def test_never_increases_norm(self):
        rng = np.random.default_rng(0)
        G = rng.normal(size=(50, 10)) * rng.uniform(0, 5, size=(50, 1))
        out = clip_rows(G, 1.0)
        assert np.all(np.linalg.norm(out, axis=1) <= 1.0 + 1e-12)
        assert np.all(np.linalg.norm(out, axis=1) <= np.linalg.norm(G, axis=1) + 1e-12)

    def test_bad_clip_norm(self):
        with pytest.raises(ConfigError):
            clip_rows(np.ones((1, 2)), 0.0)
        with pytest.raises(ConfigError):
            sanitize_lot([np.ones(2)], -1.0, 1.0, np.random.default_rng(0))


class TestSanitize:
    def test_zero_sigma_is_clipped_sum(self):
        grads = [np.array([3.0, 4.0]), np.array([0.3, 0.4])]
        out = sanitize_lot(grads, 1.0, 0.0, np.random.default_rng(1))
        assert np.allclose(out, np.array([0.6, 0.8]) + np.array([0.3, 0.4]))

    def test_matches_row_loop(self):
        """The vectorised clip-and-sum equals clipping row by row and
        summing in a loop, up to float64 rounding."""
        rng = np.random.default_rng(4)
        G = rng.normal(size=(32, 50)) * rng.uniform(0, 0.4, size=(32, 1))
        want = np.zeros(50)
        for g in G:
            want += g * min(1.0, 1.0 / np.linalg.norm(g))
        assert np.allclose(sanitize_lot(G, 1.0, 0.0, rng), want, rtol=1e-13, atol=1e-13)

    def test_noise_statistics(self):
        """Monte Carlo: noise added to a zero lot is N(0, (sigma C)^2) iid."""
        rng = np.random.default_rng(2)
        sigma, c = 2.0, 0.5
        samples = np.array([
            sanitize_lot([np.zeros(4)], c, sigma, rng) for _ in range(20_000)
        ]).ravel()
        assert abs(samples.mean()) < 0.02
        assert abs(samples.std() - sigma * c) < 0.01

    def test_deterministic_given_rng(self):
        grads = [np.ones(3), 2 * np.ones(3)]
        a = sanitize_lot(grads, 1.0, 4.0, np.random.default_rng(3))
        b = sanitize_lot(grads, 1.0, 4.0, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_empty_lot(self):
        with pytest.raises(EmptyLot):
            sanitize_lot([], 1.0, 1.0, np.random.default_rng(0))


class TestLogMoment:
    """Properties of the exact log-moments the ledger records."""

    def test_nonnegative(self):
        for q in (1e-3, 1e-2, 0.1):
            for sigma in (1.0, 4.0):
                assert np.all(log_moments(q, sigma, (1, 8, 32)) >= 0.0)

    def test_monotone_in_lambda(self):
        assert np.all(np.diff(log_moments(0.01, 2.0, DEFAULT_ORDERS)) > 0.0)

    def test_decreasing_in_sigma(self):
        a = [log_moments(0.01, sigma, (8,))[0] for sigma in (1.0, 2.0, 4.0)]
        assert a[0] > a[1] > a[2]

    def test_increasing_in_q(self):
        a = [log_moments(q, 2.0, (8,))[0] for q in (0.001, 0.01, 0.1)]
        assert a[0] < a[1] < a[2]

    def test_small_q_quadratic_regime(self):
        """For small q the leading term is lam (lam+1) q^2 (e^(1/sigma^2) - 1) / 2."""
        q, sigma, lam = 1e-3, 4.0, 4
        approx = lam * (lam + 1) * q * q * (np.exp(1.0 / sigma**2) - 1.0) / 2.0
        assert log_moments(q, sigma, (lam,))[0] == pytest.approx(approx, rel=1e-2)

    def test_q_equals_one(self):
        """q=1 is the plain Gaussian mechanism, alpha = lam (lam+1) / (2 sigma^2);
        the binomial sum approaches it as q -> 1."""
        sigma = 2.0
        lams = np.array(DEFAULT_ORDERS, dtype=float)
        want = lams * (lams + 1) / (2.0 * sigma * sigma)
        assert np.allclose(log_moments(1.0 - 1e-9, sigma, DEFAULT_ORDERS), want, rtol=1e-6)

    def test_huge_sigma_is_zero(self):
        """Past sigma ~1.34e154, sigma^2 overflows, every (k^2-k)/(2 sigma^2)
        is 0 and no term of the sum is left: the moment is 0, not NaN, and
        no RuntimeWarning is raised (pytest turns one into an error)."""
        assert log_moments(0.01, 1e155, (1, 32)).tolist() == [0.0, 0.0]
        assert epsilon_for(0.01, 1e155, 100, 1e-5) == math.log(1e5) / 32

    def test_one_order(self):
        for q, sigma, lam in ((1e-3, 1.0, 32), (0.01, 4.0, 1), (0.3, 0.5, 17), (1.0, 2.0, 6)):
            assert log_moment(q, sigma, lam) == log_moments(q, sigma, (lam,))[0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            log_moment(0.01, 2.0, 0)
        with pytest.raises(ConfigError):
            log_moment(0.01, 2.0, 2.5)
        with pytest.raises(ConfigError):
            log_moment(0.0, 2.0, 1)
        with pytest.raises(ConfigError):
            log_moment(0.01, 0.0, 1)


def binomial_moment(q, sigma, lam):
    """Direct linear-space binomial sum; exact enough where e^((k^2-k)/2s^2)
    fits in a float."""
    n = lam + 1
    return math.log(math.fsum(
        math.comb(n, k) * (1 - q) ** (n - k) * q**k * math.exp((k * k - k) / (2 * sigma * sigma))
        for k in range(n + 1)
    ))


class TestClosedForm:
    @pytest.mark.parametrize("q", [1e-3, 1e-2, 1e-1])
    def test_matches_quadrature(self, q):
        """The closed form agrees with the 30-digit quadrature oracle to 1e-9
        relative, down to the alpha ~ 2.4e-10 corner (q=1e-3, sigma=64)."""
        lams = (1, 8, 32)
        for sigma in (4.0, 8.0, 12.7, 64.0):
            got = log_moments(q, sigma, lams)
            ref = np.array([oracle_log_moment(q, sigma, lam, 30) for lam in lams])
            assert np.all(np.abs(got - ref) <= 1e-9 * ref), (q, sigma)

    def test_large_order_small_sigma_pinned(self):
        """At q=1e-3, sigma=1, lambda=32 the integrand peaks near z=33; a
        quadrature over the window [-20, 21] cuts it off and reports 224.6.
        The ledger carries the exact moment."""
        led = MomentLedger(orders=(32,))
        led.record(1e-3, 1.0)
        assert led.totals[0] == pytest.approx(300.044, abs=1e-3)
        assert led.totals[0] == pytest.approx(binomial_moment(1e-3, 1.0, 32), rel=1e-12)
        assert log_moment(1e-3, 1.0, 32) == pytest.approx(300.044, abs=1e-3)

    def test_matches_direct_sum(self):
        for q, sigma in ((0.052, 2.0), (0.3, 1.0), (0.9, 4.0)):
            want = [binomial_moment(q, sigma, lam) for lam in DEFAULT_ORDERS]
            assert np.allclose(log_moments(q, sigma, DEFAULT_ORDERS), want, rtol=1e-12)

    def test_large_exponent_finite(self):
        """At sigma=0.5, lambda=32 the exponent reaches ~2100."""
        alphas = log_moments(0.3, 0.5, DEFAULT_ORDERS)
        assert np.all(np.isfinite(alphas))
        assert np.all(np.diff(alphas) > 0)

    def test_q_equals_one(self):
        sigma = 2.0
        lams = np.array(DEFAULT_ORDERS, dtype=float)
        assert np.array_equal(log_moments(1.0, sigma, DEFAULT_ORDERS),
                              lams * (lams + 1) / (2.0 * sigma * sigma))

    def test_non_integer_orders(self):
        with pytest.raises(ConfigError):
            log_moments(0.01, 2.0, (1, 2.5))
        with pytest.raises(ConfigError):
            MomentLedger(orders=(1.5,)).record(0.01, 2.0)
        with pytest.raises(ConfigError):
            log_moments(0.01, 2.0, (0,))

    def test_validation(self):
        with pytest.raises(ConfigError):
            log_moments(0.0, 2.0, DEFAULT_ORDERS)
        with pytest.raises(ConfigError):
            log_moments(0.01, 0.0, DEFAULT_ORDERS)


class TestLedger:
    def test_additivity(self):
        """Recording T steps at once equals T single records."""
        one = MomentLedger()
        one.record(0.01, 2.0, count=100)
        many = MomentLedger()
        for _ in range(4):
            many.record(0.01, 2.0, count=25)
        assert many.steps == one.steps == 100
        assert np.allclose(many.totals, one.totals)
        assert compose_eps(many, 1e-5) == pytest.approx(compose_eps(one, 1e-5))

    def test_epsilon_monotone_in_steps(self):
        eps = [epsilon_for(0.01, 2.0, t, 1e-5) for t in (100, 1000, 10_000)]
        assert eps[0] < eps[1] < eps[2]

    def test_epsilon_monotone_in_delta(self):
        assert epsilon_for(0.01, 2.0, 1000, 1e-7) > epsilon_for(0.01, 2.0, 1000, 1e-3)

    def test_reference_point(self):
        """q=0.01, sigma=4, T=10^4, delta=1e-5 composes to eps ~ 1.26."""
        assert epsilon_for(0.01, 4.0, 10_000, 1e-5) == pytest.approx(1.2586, abs=2e-3)

    def test_heterogeneous_steps(self):
        led = MomentLedger()
        led.record(0.01, 2.0, count=10)
        led.record(0.05, 4.0, count=5)
        assert led.steps == 15
        assert compose_eps(led, 1e-5) > 0.0

    def test_empty_ledger(self):
        with pytest.raises(EmptyLedger):
            compose_eps(MomentLedger(), 1e-5)

    def test_bad_delta(self):
        led = MomentLedger()
        led.record(0.01, 2.0)
        with pytest.raises(ConfigError):
            compose_eps(led, 0.0)


class TestCalibration:
    def test_tightness(self):
        """Calibrated sigma meets the target; sigma - tol does not (unless
        the search floor was hit)."""
        for eps in (0.5, 2.0, 8.0):
            q, steps, delta = 0.01, 1000, 1e-5
            sigma = calibrate_sigma(eps, delta, q, steps)
            assert epsilon_for(q, sigma, steps, delta) <= eps
            if sigma > 0.5:
                assert epsilon_for(q, sigma - 2e-3, steps, delta) > eps

    @pytest.mark.parametrize("q,sigma", [(32 / 615, 12.701774597167969),
                                         (32 / 405, 19.237228393554688)])
    def test_acceptance_sigma_pinned(self, q, sigma):
        """The sigma at eps 0.5 that criteria 2 (Pima) and 3 (Boston) train
        with, and that the perfbench DP gates check, to the last bit: a
        change to the accountant's arithmetic must not move the bisection."""
        assert calibrate_sigma(0.5, 1e-5, q, 500) == sigma

    def test_unachievable(self):
        with pytest.raises(Unachievable):
            calibrate_sigma(1e-4, 1e-5, 0.5, 100_000)

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            calibrate_sigma(0.0, 1e-5, 0.01, 100)


class TestPrivacySpec:
    def test_valid(self):
        spec = PrivacySpec(q=0.01, sigma=4.0, clip_norm=1.0, delta=1e-5, steps=100)
        assert spec.sigma == 4.0

    def test_sigma_zero_allowed(self):
        # sigma=0 means "no noise" and is used by the plain-SGD equivalence path
        PrivacySpec(q=0.01, sigma=0.0, clip_norm=1.0, delta=1e-5, steps=1)

    @pytest.mark.parametrize("kw", [
        {"q": 0.0}, {"q": 1.5}, {"sigma": -1.0}, {"clip_norm": 0.0},
        {"delta": 0.0}, {"delta": 1.0},
    ])
    def test_invalid(self, kw):
        base = dict(q=0.01, sigma=4.0, clip_norm=1.0, delta=1e-5, steps=100)
        base.update(kw)
        with pytest.raises(ConfigError):
            PrivacySpec(**base)
