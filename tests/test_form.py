"""Direct and sigma-side quadratic forms, the central identity, witnesses."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from hankelsigma import form
from hankelsigma.form import (ExpPoly, FormDomainError, Indicator,
                              LaplaceImage, dilate, dilation_check,
                              form_direct, form_sigma, identity_residual,
                              laguerre_test, laplace_convolution,
                              min_monomial_order, spectral_witnesses)
from hankelsigma.kernel import carleman, finite_rank, quasi_carleman
from hankelsigma.special import FPoly, FPow, FProd


def test_convolution_of_exponentials():
    f = ExpPoly(((1.0, 0, 1.0),))
    conv = laplace_convolution(f, f)
    assert conv.terms == ((1.0, 1, 1.0),)  # t e^{-t}


def test_convolution_of_ground_laguerre():
    e0 = laguerre_test([1.0])
    conv = laplace_convolution(e0, e0)
    assert conv.terms == ((1.0, 1, 0.5),)  # t e^{-t/2}
    # symbolic-integral oracle at a few points
    for t in (0.5, 1.0, 3.0):
        val, _ = quad(lambda s: math.exp(-s / 2) * math.exp(-(t - s) / 2), 0, t)
        assert conv(t) == pytest.approx(val, rel=1e-12)


def test_convolution_mixed_rates_matches_quadrature():
    f1 = ExpPoly(((1.0, 1, 0.6), (0.3, 0, 1.7)))
    f2 = ExpPoly(((-0.4, 2, 1.1),))
    conv = laplace_convolution(f1, f2)
    for t in (0.4, 1.3, 4.0):
        val, _ = quad(lambda s: np.real(f1(s)) * np.real(f2(t - s)), 0, t, limit=200)
        assert np.real(conv(t)) == pytest.approx(val, rel=1e-9, abs=1e-13)


def test_convolution_of_indicators():
    conv = laplace_convolution(Indicator(0, 1), Indicator(0, 1))
    ts = np.array([0.5, 1.0, 1.5, 2.5])
    assert np.allclose(conv(ts), [0.5, 1.0, 0.5, 0.0])


def test_form_direct_examples():
    assert form_direct(carleman(), ExpPoly(((1.0, 0, 1.0),))) == pytest.approx(1.0)
    kern = quasi_carleman(1, 2, 1, 0)
    f = ExpPoly(((1.0, 1, 1.0),))
    d = form_direct(kern, f)
    s = form_sigma(kern, f)
    assert d > 0 and abs(d - s) < 1e-6 * (1 + abs(d))
    # rank one: |w(1)|^2 with w = 1/(lam+1)
    assert form_direct(finite_rank([1.0], 1.0), ExpPoly(((1.0, 0, 1.0),))) == pytest.approx(0.25)


def test_vanishing_order_runs_once_per_exp_poly(monkeypatch):
    runs = []
    body = ExpPoly._vanishing_order.func

    def counted(self):
        runs.append(self)
        return body(self)

    memo = functools.cached_property(counted)
    memo.__set_name__(ExpPoly, "_vanishing_order")
    monkeypatch.setattr(ExpPoly, "_vanishing_order", memo)
    f = ExpPoly(((1.0, 1, 1.0), (-1.0, 1, 2.0)))  # t (e^{-t} - e^{-2t}) ~ t^2
    twin = ExpPoly(f.terms)
    kern = quasi_carleman(1.0, 3.0)  # r = 0: the direct side checks the order
    for _ in range(2):
        form_direct(kern, f)
        form_sigma(kern, f)
    assert f.vanishing_order() == 2
    assert len(runs) == 1 and runs[0] is f
    # the memo is no field: equality and hashing still see only the terms
    assert f == twin and hash(f) == hash(twin) and repr(f) == repr(twin)


def test_exp_poly_refuses_fractional_powers():
    # int() used to truncate t^1.5 e^{-t} to t e^{-t}, whose Carleman form is
    # 1/3 where that of t^1.5 e^{-t} is 0.4418
    with pytest.raises(ValueError, match="integer m"):
        ExpPoly(((1.0, 1.5, 1.0),))
    f = ExpPoly(((1.0, 2.0, 1.0),))
    assert f.terms == ((1.0, 2, 1.0),) and isinstance(f.terms[0][1], int)


def test_form_sigma_examples():
    assert form_sigma(carleman(), laguerre_test([1.0])) == pytest.approx(2.0, abs=1e-9)
    kern = quasi_carleman(1, -0.5, 1, 0)
    f = laguerre_test([1.0])
    assert abs(form_sigma(kern, f) - form_direct(kern, f)) < 1e-6
    assert form_sigma(carleman(), ExpPoly(((0.0, 0, 1.0),))) == 0.0


def test_form_sigma_accepts_laplace_image_tests():
    # sigma-side-only test functions carry just their image w(lam)
    from hankelsigma.form import LaplaceImage
    wrapped = LaplaceImage(laguerre_test([1.0]).laplace_image())
    assert form_sigma(carleman(), wrapped) == pytest.approx(2.0, abs=1e-9)


def test_min_monomial_order_rule():
    # smallest m with 2m + 1 - q > -1
    assert min_monomial_order(0.5) == 0
    assert min_monomial_order(1.0) == 0
    assert min_monomial_order(2.0) == 1  # 2m+1-2 > -1 fails at m=0 (log divergence)
    assert min_monomial_order(3.0) == 1
    assert min_monomial_order(4.0) == 2


def test_form_direct_divergence_diagnostic():
    with pytest.raises(FormDomainError):
        form_direct(quasi_carleman(1, 2, 0, 0), ExpPoly(((1.0, 0, 1.0),)))
    with pytest.raises(FormDomainError):
        form_direct(quasi_carleman(1, 3, 1, 0), ExpPoly(((1.0, 0, 1.0),)))


def _rational_image(num, *poles):
    """num(lam) / prod (lam + g) as one rational Laplace image."""
    return LaplaceImage(FProd([FPoly(num)] + [FPow(FPoly([g, 1.0]), -1) for g in poles]))


def test_form_direct_finite_part_at_gamma_poles():
    # every monomial pair has p = m + n + 2 - q = 0, a pole of Gamma; the
    # residues cancel because f(0) = 0, and the finite parts add up
    f = ExpPoly(((1.0, 0, 1.0), (-1.0, 0, 2.0)))
    val = form_direct(quasi_carleman(1, 2, 0, 0), f)
    assert val == pytest.approx(3 * math.log(2) - 2, abs=1e-13)
    # complex rates or coefficients: the residues of pairs (i, j) and (j, i)
    # are conjugate and cancel only over all pairs.  The sigma side gets Lf
    # as one rational function, whose decay shows the vanishing order.
    for q, f, w in ((3, ExpPoly(((1.0, 0, 1 + 1j), (1.0, 0, 1 - 1j), (-2.0, 0, 1.0))),
                     _rational_image([-2.0], 1.0, 1 + 1j, 1 - 1j)),
                    (2, ExpPoly(((1.0, 0, 1.0), (1j, 0, 2.0), (-1 - 1j, 0, 3.0))),
                     _rational_image([4 + 1j, 2 + 1j], 1.0, 2.0, 3.0))):
        kern = quasi_carleman(1, q, 0, 0)
        val = form_direct(kern, f)
        assert val == pytest.approx(form_sigma(kern, w, atol=1e-14), rel=1e-13)


def test_form_direct_uncancelled_residues():
    # f2(0) = -1e-11 is below the vanishing-order threshold, so only the
    # residues at Gamma's pole show that <t^-2, f1 star f2> diverges
    f1 = ExpPoly(((1.0, 0, 1.0),))
    f2 = ExpPoly(((1.0, 0, 1.0), (-(1.0 + 1e-11), 0, 2.0)))
    with pytest.raises(FormDomainError):
        form_direct(quasi_carleman(1, 2, 0, 0), f1, f2)


# the close-rate slice of the benchmark's identity workload, as (q, alpha, r),
# and decay-rate gaps where the convolution closed form loses every digit
CLOSE_KERNELS = ((1.0, 0.0, 0.0), (3.0, 0.0, 0.0), (2.0, 1.0, 0.0),
                 (-1.5, 1.0, 0.0), (0.5, 0.0, 1.0))
CLOSE_GAPS = (1e-1, 1e-2, 10 ** -3.5, 1e-5, 10 ** -6.5, 1e-8)


def _close_rate_residuals(kern):
    return [identity_residual(kern, ExpPoly(((1.0, 3, 1.0), (-0.7, 3, 1.0 + d))))
            for d in CLOSE_GAPS]


@pytest.mark.parametrize("q, a, r", CLOSE_KERNELS)
def test_identity_at_close_rates(q, a, r):
    assert max(_close_rate_residuals(quasi_carleman(1.0, q, a, r))) <= 1e-10


@pytest.mark.parametrize("kern", [finite_rank([1.0, -0.6, 0.3], 0.9),
                                  carleman() + finite_rank([0.8 + 0.4j, 0.2 - 0.1j], 0.7 + 0.5j)],
                         ids=["real", "carleman+pair"])
def test_finite_rank_identity_at_close_rates(kern):
    assert max(_close_rate_residuals(kern)) <= 1e-10


@pytest.mark.parametrize("q, a, r", [(1.0, 0.0, 0.0), (3.0, 0.0, 0.0), (2.0, 1.0, 0.0),
                                     (-1.5, 1.0, 0.0), (0.5, 0.0, 1.0), (2.0, 1.0, 1.0)])
def test_form_direct_wide_rate_ratios(q, a, r):
    # the zero of the Euler integrand's G(x) comes within ~1e-3 of [0, 1]
    kern = quasi_carleman(1.0, q, a, r)
    m = min_monomial_order(q) if r == 0 else 0
    for g1, g2 in ((0.1, 10.0), (0.02, 50.0)):
        f = ExpPoly(((1.0, m, g1), (-0.7, m + 1, g2)))
        direct = form_direct(kern, f)
        assert abs(direct - form_sigma(kern, f, atol=1e-13)) <= 1e-12 * abs(direct)


def test_form_direct_raises_on_cancelling_euler_integral():
    # G(x) runs from 0.63+1.34i to 0.66-1.70i, turning by ~134 degrees, so
    # G^-24 oscillates and the integral is ~2e-11 of its integrand's magnitude
    f1 = ExpPoly(((1.0, 8, 0.66 + 1.70j),))
    f2 = ExpPoly(((1.0, 10, 0.63 + 1.34j),))
    with pytest.raises(ArithmeticError):
        form_direct(quasi_carleman(1, -4, 0, 0), f1, f2)


def test_finite_rank_closed_form_where_euler_integral_cancels():
    # the same pair on t^4 e^{-0.3 t}: its finite sum cancels by a factor of
    # only ~16, against a 40-digit Gamma(p) int_0^1 x^m (1-x)^n G^-p dx
    mp = pytest.importorskip("mpmath")
    m, n, p = 8, 10, 24
    with mp.workdps(40):
        g1, g2, beta = mp.mpc(0.66, -1.70), mp.mpc(0.63, 1.34), mp.mpf(0.3)
        ref = complex(mp.gamma(p) * mp.quad(lambda x: x ** m * (1 - x) ** n
                                            * (g1 * x + g2 * (1 - x) + beta) ** -p, [0, 0.5, 1]))
    f1 = ExpPoly(((1.0, m, 0.66 + 1.70j),))
    f2 = ExpPoly(((1.0, n, 0.63 + 1.34j),))
    val = form_direct(finite_rank([0, 0, 0, 0, 1], 0.3), f1, f2)
    assert abs(val - ref) <= 1e-13 * abs(ref)


def test_form_direct_raises_on_cancelling_finite_rank_sum():
    # P(t) = L_K(2 beta t) against f = e^{-beta t}: the form is
    # int L_K(s) s e^{-s} ds / (4 beta^2) = 0 for K >= 2, a finite sum of
    # terms up to ~1e8 that cancels to rounding noise
    beta, K = 0.8, 24
    lag = [math.comb(K, k) * (-2 * beta) ** k / math.factorial(k) for k in range(K + 1)]
    with pytest.raises(ArithmeticError):
        form_direct(finite_rank(lag, beta), ExpPoly(((1.0, 0, beta),)))


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_form_sigma_on_image_that_decays_by_cancellation(q):
    # L(e^{-t} - e^{-2t}) = 1/((lam+1)(lam+2)) ~ lam^-2, though each term is
    # ~lam^-1: the image declares the decay of f's vanishing order
    f = ExpPoly(((1.0, 0, 1.0), (-1.0, 0, 2.0)))
    kern = quasi_carleman(1, q, 0, 0)
    assert f.laplace_image().decay() == (0.0, -2.0)
    assert abs(form_sigma(kern, f) - form_direct(kern, f)) < 1e-10


@pytest.mark.parametrize("kern", [finite_rank([1.0, -0.6, 0.3], 0.9),
                                  finite_rank([0.8 + 0.4j, 0.2 - 0.1j], 0.7 + 0.5j)
                                  + finite_rank([0.8 - 0.4j, 0.2 + 0.1j], 0.7 - 0.5j)],
                         ids=["real", "pair"])
def test_finite_rank_terms_skip_the_euler_integral(kern, monkeypatch):
    def euler(*args):
        raise AssertionError("finite-rank term reached _euler_pairing")

    monkeypatch.setattr(form, "_euler_pairing", euler)
    f = ExpPoly(((1.0, 0, 1.0), (-0.7, 2, 1.3 + 0.4j), (0.5, 1, 0.8)))
    direct = form_direct(kern, f)
    assert abs(direct - form_sigma(kern, f)) <= 1e-10 * (1 + abs(direct))


def test_identity_residual_spot_grid():
    rng = np.random.default_rng(4)
    for q, a, r in ((1.0, 0.0, 0.0), (3.0, 1.0, 1.0), (-1.5, 1.0, 0.0), (0.5, 0.0, 1.0)):
        kern = quasi_carleman(1.0, q, a, r)
        mmin = min_monomial_order(q) if r == 0 else 0
        for _ in range(5):
            f = ExpPoly(((rng.normal(), int(mmin + rng.integers(0, 3)),
                          float(rng.choice([0.5, 1.0, 1.5, 2.0]))),
                         (rng.normal(), int(mmin + rng.integers(0, 3)),
                          float(rng.choice([0.5, 1.0, 1.5, 2.0])))))
            assert identity_residual(kern, f) <= 1e-6


def test_positivity_for_positive_exponent():
    rng = np.random.default_rng(9)
    for q in (0.5, 1.0, 2.0, 3.0):
        for a in (0.0, 1.0):
            kern = quasi_carleman(1.0, q, a, 0.0)
            mmin = min_monomial_order(q)
            for _ in range(20):
                f = ExpPoly(((rng.normal(), int(mmin + rng.integers(0, 3)),
                              float(rng.choice([0.5, 1.0, 2.0]))),))
                assert form_sigma(kern, f) >= -1e-10


def test_polarized_form_sesquilinear_and_hermitian():
    kern = finite_rank([0.5, 1.0], 1.2) + carleman()
    f1 = laguerre_test([1.0, 0.3])
    f2 = laguerre_test([0.0, 1.0])
    f3 = laguerre_test([0.2, -0.5, 1.0])
    a = form_sigma(kern, f1, f2)
    b = form_sigma(kern, f2, f1)
    assert abs(a - np.conj(b)) < 1e-12 * max(1, abs(a))
    # linear in the second slot: exact on the jet-evaluated delta part,
    # quadrature-limited on the density part
    combo = ExpPoly(f2.terms + f3.terms)
    kd = finite_rank([0.5, 1.0], 1.2)
    lhs_d = form_sigma(kd, f1, combo)
    rhs_d = form_sigma(kd, f1, f2) + form_sigma(kd, f1, f3)
    assert abs(lhs_d - rhs_d) < 1e-12 * max(1, abs(lhs_d))
    lhs = form_sigma(kern, f1, combo)
    rhs = form_sigma(kern, f1, f2) + form_sigma(kern, f1, f3)
    assert abs(lhs - rhs) < 1e-9 * max(1, abs(lhs))


def test_dilation_unitary():
    f = ExpPoly(((1.0, 1, 1.0),))
    g = dilate(f, 2.0)
    assert f.norm_sq() == pytest.approx(g.norm_sq(), rel=1e-13)


def test_dilation_covariance_grid():
    for q in (0.5, 2.0, 3.0):
        f = ExpPoly(((1.0, min_monomial_order(q) + 1, 1.0),))
        for gam in (0.5, 2.0, 5.0):
            assert dilation_check(q, f, gam) <= 1e-8
    # q = 1 is exactly invariant; gamma = 1 is exactly zero
    f = ExpPoly(((1.0, 0, 1.0),))
    assert dilation_check(1.0, f, 3.0) <= 1e-8
    assert dilation_check(2.0, ExpPoly(((1.0, 1, 1.0),)), 1.0) == 0.0


def test_zero_in_spectrum_witness():
    qs = spectral_witnesses(carleman(), "zero_in_spectrum", {"count": 8})
    assert all(a > b > 0 for a, b in zip(qs, qs[1:]))


def test_unbounded_witness_growth():
    qs = spectral_witnesses(quasi_carleman(1, 2, 0, 0), "unbounded",
                            {"l_values": (10.0, 100.0, 1000.0)})
    assert qs[-1] >= 10 * qs[0]


def test_carleman_witness_bounded_by_pi():
    qs = spectral_witnesses(carleman(), "unbounded",
                            {"l_values": (10.0, 100.0, 1000.0)})
    assert all(v < math.pi for v in qs)


@pytest.mark.parametrize("q", [1.7, 1.9])
def test_slow_algebraic_tails_are_not_read_as_divergent(q):
    # h = t^{-q} e^{-t/2}, f = e^{-t}: the form is Gamma(2-q) 1.5^{q-2}
    # (2.6489..., 9.1354...), and sigma's pairing integrand goes like
    # lam^{q-3} on the tail
    kern, f = quasi_carleman(1.0, q, 0.5), ExpPoly(((1.0, 0, 1.0),))
    direct = form_direct(kern, f)
    assert direct == pytest.approx(math.gamma(2 - q) * 1.5 ** (q - 2), rel=1e-12)
    assert abs(form_sigma(kern, f) - direct) <= 1e-12 * direct
