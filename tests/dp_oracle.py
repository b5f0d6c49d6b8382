"""Arbitrary-precision oracle for the log-moments of the subsampled Gaussian
mechanism, shared by the DP unit tests and acceptance criterion 6.

It integrates the moment directly, independently of the binomial closed form
in `fedring.dp.log_moments`, and over the whole real line: no window cuts off
the integrand's peak, which sits near z = lambda + 1 for the lambda + 1
direction when sigma is small.
"""


def oracle_log_moment(q: float, sigma: float, lam: int, dps: int) -> float:
    """alpha(lambda) = log max(E_mu0[r^(lambda+1)], E_mu0[r^(-lambda)]) with
    mu0 = N(0, sigma^2) and r = mu/mu0 = 1 - q + q e^((2z-1)/(2 sigma^2)),
    both expectations by `mpmath.quad` at `dps` digits over (-inf, inf),
    split at 0, 1/2, 1 and lambda + 1."""
    # imported here so that a missing mpmath fails only the oracle's callers,
    # not the collection of every test in their modules
    import mpmath

    with mpmath.workdps(dps):
        q, s = mpmath.mpf(q), mpmath.mpf(sigma)
        c = 1 / (2 * s * s)
        norm = 1 / (s * mpmath.sqrt(2 * mpmath.pi))
        cuts = [-mpmath.inf, 0, mpmath.mpf(1) / 2, 1, lam + 1, mpmath.inf]

        def expectation_minus_one(a):
            def f(z):
                r = 1 - q + q * mpmath.exp(c * (2 * z - 1))
                return norm * mpmath.exp(-c * z * z) * mpmath.powm1(r, a)
            return mpmath.quad(f, cuts)

        return float(mpmath.log1p(max(expectation_minus_one(lam + 1),
                                      expectation_minus_one(-lam))))
