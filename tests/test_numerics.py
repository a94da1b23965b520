"""Special functions against independent oracles, and stream determinism."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest

try:
    import mpmath
except ImportError:  # the quantile oracle then bisects the double-precision erfc
    mpmath = None

from depscore import (
    bisect_root,
    reg_gamma_upper,
    si_threshold,
    substream,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def chi2_1_survival_quadrature(x0: float) -> float:
    """P(chi2_1 > x0) by Simpson quadrature of the density on [x0, x0 + 60]."""
    def pdf(x):
        return math.exp(-x / 2.0) / math.sqrt(2.0 * math.pi * x)

    a, b, m = x0, x0 + 60.0, 60_001
    xs = np.linspace(a, b, m)
    ys = np.array([pdf(x) for x in xs])
    h = (b - a) / (m - 1)
    return h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1:-1:2].sum() + 2.0 * ys[2:-1:2].sum())


def erf_series(x: float) -> float:
    """Maclaurin series for erf, accurate to ~1e-15 for |x| <= 3."""
    total, term = 0.0, x
    n = 0
    while abs(term) > 1e-18:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(z: float) -> float:
    return 0.5 * (1.0 + erf_series(z / math.sqrt(2.0)))


def erfc_root(target: float) -> float:
    """The c with erfc(c) = target, for target in (0, 2), by bisection: on
    mpmath's erfc at 40 digits where mpmath is installed, else on math.erfc."""
    num, erfc = (mpmath.mpf, mpmath.erfc) if mpmath else (float, math.erfc)
    with mpmath.workdps(40) if mpmath else contextlib.nullcontext():
        lo, hi, t = num(-6), num(27), num(target)   # erfc(27) ~ 5e-319 still > 0
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if erfc(mid) > t else (lo, mid)
        return float((lo + hi) / 2)


# ---------------------------------------------------------------------------
# regularized upper incomplete gamma
# ---------------------------------------------------------------------------

def test_reg_gamma_upper_at_zero():
    q, lq = reg_gamma_upper(2.0, 0.0)
    assert q == 1.0 and lq == 0.0


def test_reg_gamma_upper_exponential_case():
    q, lq = reg_gamma_upper(1.0, 1.0)
    assert q == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert lq == pytest.approx(-1.0, abs=1e-12)


def test_reg_gamma_upper_chi2_oracle():
    # Q(0.5, 0.5) = P(chi2_1 > 1), checked against Simpson quadrature
    q, _ = reg_gamma_upper(0.5, 0.5)
    assert q == pytest.approx(chi2_1_survival_quadrature(1.0), rel=1e-9)
    assert q == pytest.approx(0.3173105078629141, rel=1e-10)


def test_reg_gamma_upper_monotone_and_limits():
    for s in (0.5, 1.0, 4.5, 12.0):
        xs = np.linspace(0.0, 8.0 * s + 20.0, 60)
        qs = [reg_gamma_upper(s, x)[0] for x in xs]
        assert qs[0] == 1.0
        assert all(a > b for a, b in zip(qs, qs[1:]))
        assert reg_gamma_upper(s, 500.0 * (s + 1.0))[0] < 1e-12


def test_reg_gamma_upper_log_consistency():
    # exp(log q) must track q wherever q is representable
    for s in (0.5, 1.0, 2.5, 4.5, 10.0):
        for x in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 120.0, 400.0):
            q, lq = reg_gamma_upper(s, x)
            if q >= 1e-290:
                assert math.exp(lq) == pytest.approx(q, rel=1e-9)


def test_reg_gamma_upper_log_survives_underflow():
    q, lq = reg_gamma_upper(4.5, 2000.0)
    assert q == 0.0
    assert math.isfinite(lq) and lq < -1900.0


def _log_q_reference(s: float, x: float) -> float:
    """ln Q(s, x) from scipy: chi2.logsf, or in the deep tail, where that
    underflows, x^(s-1) e^(-x) / Gamma(s) times a quadrature of the
    integrand scaled by its value at x."""
    from scipy.integrate import quad
    from scipy.stats import chi2

    v = float(chi2.logsf(2.0 * x, 2.0 * s))
    if math.isfinite(v) and v > -700.0:
        return v

    def log_f(u):
        return (s - 1.0) * math.log(u) - u

    tail, _ = quad(lambda u: math.exp(log_f(u) - log_f(x)), x, math.inf,
                   epsabs=0.0, epsrel=1e-10, limit=200)
    return log_f(x) - math.lgamma(s) + math.log(tail)


def test_reg_gamma_upper_large_shape_oracle():
    # both expansions need O(sqrt(s)) steps near x = s; a fixed cap made the
    # series raise RuntimeError at s ~ 1e4 (a 142x142 table's dof / 2)
    pytest.importorskip("scipy")
    for s in np.geomspace(0.5, 1e5, 40):
        for x in s * np.linspace(0.5, 10.0, 20):
            ref = _log_q_reference(float(s), float(x))
            _, lq = reg_gamma_upper(s, x)
            assert abs(lq - ref) <= 1e-9 * max(1.0, abs(ref)), (s, x, lq, ref)


def test_reg_gamma_upper_domain():
    with pytest.raises(ValueError):
        reg_gamma_upper(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_upper(1.0, -0.5)


@pytest.mark.parametrize("s", [0.5, 1.0, 4.5, 1e6])
def test_reg_gamma_upper_at_infinite_x(s):
    # Q(s, x) falls to 0 as x grows; the continued fraction never converged at x = inf
    assert reg_gamma_upper(s, math.inf) == (0.0, -math.inf)


@pytest.mark.parametrize("s", [math.inf, -math.inf, math.nan])
def test_reg_gamma_upper_rejects_a_shape_that_is_not_finite(s):
    # an infinite s overflowed the iteration cap
    with pytest.raises(ValueError, match=r"^reg_gamma_upper requires a finite s > 0, got"):
        reg_gamma_upper(s, 1.0)


# ---------------------------------------------------------------------------
# inverse normal CDF, as the library uses it: si_threshold(alpha) is
# Phi^-1(1 - alpha) / sqrt(2), so Phi^-1(p) = sqrt(2) * si_threshold(1 - p)
# ---------------------------------------------------------------------------

def test_inv_std_normal_cdf_center():
    assert si_threshold(0.5) == 0.0


def test_inv_std_normal_cdf_oracle():
    # bisection against the erf-series CDF
    target = 0.975
    z = bisect_root(lambda v: normal_cdf_series(v) - target, 0.0, 3.0, xtol=1e-13)
    assert math.sqrt(2.0) * si_threshold(0.025) == pytest.approx(z, abs=1e-12)
    assert math.sqrt(2.0) * si_threshold(0.025) == pytest.approx(1.959963984540054, abs=1e-12)


@pytest.mark.parametrize("p", [0.01, 0.1, 0.3, 0.42, 0.77, 0.95, 0.999])
def test_inv_std_normal_cdf_symmetry(p):
    assert si_threshold(p) == pytest.approx(-si_threshold(1.0 - p), abs=1e-12)


def test_inv_std_normal_cdf_roundtrip_extremes():
    # Phi(sqrt(2) c) = 1 - alpha is 0.5 * erfc(c) = alpha; alpha = 1e-17 has
    # 1 - alpha == 1.0 in double precision
    for alpha in (1e-12, 1e-17, 1e-300, 1.0 - 1e-12):
        assert 0.5 * math.erfc(si_threshold(alpha)) == pytest.approx(alpha, rel=1e-12)


def test_si_threshold_matches_erfc_oracle():
    # 0.5 * erfc(c) = alpha, from alpha = 1e-300 up to 0.999
    alphas = [10.0 ** -k for k in range(300, 0, -7)] + [0.05, 0.3, 0.5, 0.7, 0.9, 0.999]
    for alpha in alphas:
        assert si_threshold(alpha) == pytest.approx(erfc_root(2.0 * alpha), abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_inv_std_normal_cdf_domain(bad):
    with pytest.raises(ValueError):
        si_threshold(bad)


# ---------------------------------------------------------------------------
# random streams and sampling
# ---------------------------------------------------------------------------

def test_stream_determinism():
    a = substream(1234, 0)
    b = substream(1234, 0)
    assert isinstance(a, np.random.Generator)
    assert a.random(20).tolist() == b.random(20).tolist()
    # stream (seed, index) is PCG64 on SeedSequence(seed, spawn_key=(index,))
    ref = np.random.Generator(np.random.PCG64(np.random.SeedSequence(1234, spawn_key=(0,))))
    assert substream(1234, 0).random(20).tolist() == ref.random(20).tolist()


# a non-integer seed or index is an error, not truncated to seed 1 or index 0
@pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1), (1.5, 0), (1, -0.5),
                                         (1, 0.5)])
def test_substream_rejects_bad_seed_or_index(seed, index):
    # each case has one bad argument: the seed where the index is 0
    with pytest.raises(ValueError, match="seed must be" if index == 0 else "index must be"):
        substream(seed, index)


def test_substream_determinism_and_separation():
    a = substream(99, 3)
    b = substream(99, 3)
    c = substream(99, 4)
    seq_a = a.random(10).tolist()
    assert seq_a == b.random(10).tolist()
    assert seq_a != c.random(10).tolist()


# ---------------------------------------------------------------------------
# bisection
# ---------------------------------------------------------------------------

def test_bisect_root_finds_root():
    root = bisect_root(lambda x: x * x - 2.0, 0.0, 2.0, xtol=1e-12)
    assert root == pytest.approx(math.sqrt(2.0), abs=1e-10)
    # a root at an endpoint comes back as that endpoint
    assert bisect_root(lambda x: x, 0.0, 1.0) == 0.0
    assert bisect_root(lambda x: x - 1.0, 0.0, 1.0) == 1.0
    # three halvings of [0, 1] toward 1/3 leave [0.25, 0.375]; its midpoint comes back
    assert bisect_root(lambda x: x - 1 / 3, 0.0, 1.0, xtol=0.0, max_iter=3) == 0.3125


def test_bisect_root_requires_sign_change():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)
