"""Gamma, Laguerre, jets, and the expression language."""

import math
from contextlib import contextmanager

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval
from scipy.integrate import quad

from hankelsigma.form import ExpPoly
from hankelsigma.galerkin import (_end_spec, _interpolation_ends, _sign_directions,
                                  gaussian_trial, window_trials)
from hankelsigma.kernel import finite_rank
from hankelsigma.special import (FExp, FIndicatorImage, FPoly, FPow,
                                 FProd, FSum, PoleError, NonAnalyticError,
                                 Jet, _as_spec, _jet_mul, _shift_poly, _var_jet,
                                 fs_affine, fs_var, gamma,
                                 laguerre, laguerre_e, laguerre_image,
                                 log_gamma)


def test_gamma_classical_values():
    assert abs(gamma(5.0) - 24.0) < 1e-12 * 24
    assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-12


def test_gamma_on_critical_line_modulus():
    # |Gamma(1/2 + i)| equals sqrt(pi / cosh(pi)); evaluate the target
    oracle = math.sqrt(math.pi / math.cosh(math.pi))
    assert abs(abs(gamma(0.5 + 1j)) - oracle) < 1e-12


def test_gamma_recurrence():
    rng = np.random.default_rng(11)
    z = rng.uniform(-4, 4, 40) + 1j * rng.uniform(-6, 6, 40)
    z = z[np.abs(z.imag) > 1e-3]
    rel = np.abs(gamma(z + 1) - z * gamma(z)) / np.abs(gamma(z + 1))
    assert np.max(rel) < 1e-12


def test_gamma_reflection():
    rng = np.random.default_rng(5)
    z = rng.uniform(-5, 5, 50) + 1j * rng.uniform(-5, 5, 50)
    z = z + 1j * 1e-3 * (np.abs(z.imag) < 1e-3)
    lhs = gamma(z) * gamma(1 - z)
    rhs = np.pi / np.sin(np.pi * z)
    assert np.max(np.abs(lhs - rhs) / np.abs(rhs)) < 1e-10


def test_gamma_critical_line_identity_grid():
    xi = np.linspace(-10, 10, 401)
    vals = np.abs(gamma(0.5 + 1j * xi)) ** 2 * np.cosh(np.pi * xi) / np.pi
    assert np.max(np.abs(vals - 1)) < 1e-10


def test_gamma_pole_error():
    with pytest.raises(PoleError):
        gamma(0.0)
    with pytest.raises(PoleError):
        gamma(-3.0)


def test_log_gamma_consistency():
    z = 0.5 + 1j * np.linspace(-30, 30, 61)
    assert np.max(np.abs(np.exp(log_gamma(z)) - gamma(z))) < 1e-10


def test_laguerre_values():
    assert laguerre(0, 7.3) == 1.0
    assert laguerre(1, 0.0) == 1.0
    # recurrence gives L2(t) = 1 - 2t + t^2/2
    assert abs(laguerre(2, 1.0) - (-0.5)) < 1e-14


def test_laguerre_basis_orthonormal():
    for n, m in ((0, 0), (2, 2), (5, 5), (1, 3), (0, 4)):
        val, _ = quad(lambda t: laguerre_e(n, t) * laguerre_e(m, t), 0, 120, limit=300)
        assert abs(val - (1.0 if n == m else 0.0)) < 1e-8


def test_jet_exp_at_zero():
    j = FExp(FPoly([0, 1])).jet(0j, 2)
    assert np.allclose(j.coeffs, [1.0, 1.0, 0.5], atol=1e-15)


def test_jet_rational_value():
    spec = FProd([fs_affine(1, -0.5), FPow(fs_affine(1, 0.5), -2)])
    assert abs(spec.jet(1 + 0j, 0).coeffs[0] - 2 / 9) < 1e-14


def test_jet_exponential_polynomial_coeffs():
    # e^{rho mu / 2} has Taylor coefficients (rho/2)^p / p!
    rho = 1.7
    j = FExp(FPoly([0, rho / 2])).jet(0j, 6)
    expect = [(rho / 2) ** p / math.factorial(p) for p in range(7)]
    assert np.allclose(j.coeffs, expect, rtol=1e-14)
    # and R(mu) e^{-rho mu/2} = 1 + O(mu^{n+1}) when R truncates the series
    n = 4
    rpoly = FPoly(expect[: n + 1])
    theta = FProd([rpoly, FExp(FPoly([0, -rho / 2]))]).jet(0j, n)
    assert np.allclose(theta.coeffs, [1.0] + [0.0] * n, atol=1e-14)


def test_jet_matches_finite_differences():
    # polynomial fit through sampled values approximates the Taylor data
    spec = FProd([fs_affine(1, -0.5), FPow(fs_affine(1, 0.5), -2),
                  FExp(FPoly([0, -0.4]))])
    center, order, h = 1.3, 3, 0.05
    xs = center + h * np.cos(np.linspace(0, np.pi, 24))
    fit = np.polynomial.polynomial.polyfit(xs - center, spec(xs).real, order + 4)
    j = spec.jet(complex(center), order)
    for p in range(order + 1):
        assert abs(fit[p] - j.coeffs[p].real) < 1e-6 * max(1, abs(j.coeffs[p]))


def test_jet_product_rule_random():
    rng = np.random.default_rng(0)
    center = 0.8 + 0.3j
    for _ in range(100):
        f = FProd([FPoly(rng.normal(size=3)), FExp(FPoly([0, rng.uniform(-1, 0)]))])
        g = FSum([FPoly(rng.normal(size=4)), FPow(fs_affine(1.0, 2.0), -1)])
        order = int(rng.integers(1, 9))
        jf = f.jet(center, order)
        jg = g.jet(center, order)
        jfg = FProd([f, g]).jet(center, order)
        err = np.abs((jf * jg).coeffs - jfg.coeffs)
        assert np.max(err / np.maximum(np.abs(jfg.coeffs), 1e-12)) < 1e-12


def test_jet_mul_matches_loop_reference():
    # the Cauchy-product loop np.convolve replaced, kept as the reference
    def mul_ref(a, b):
        return np.array([np.dot(a[: p + 1], b[p::-1]) for p in range(len(a))])

    rng = np.random.default_rng(1)
    for n in (1, 2, 9, 40):
        a = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = np.array([mul_ref(row, b) for row in a])
        tol = 1e-13 * np.max(np.abs(ref))
        for row, want in zip(a, ref):
            assert np.max(np.abs(_jet_mul(row, b) - want)) <= tol


def test_jet_log_matches_loop_reference():
    # the double-loop recurrence that the reciprocal rule replaced, kept as the reference
    def log_ref(a):
        out = np.zeros(len(a), dtype=complex)
        out[0] = np.log(a[0])
        for p in range(1, len(a)):
            acc = a[p]
            for k in range(1, p):
                acc -= (k / p) * out[k] * a[p - k]
            out[p] = acc / a[0]
        return out

    rng = np.random.default_rng(2)
    for order in (0, 1, 2, 9, 40):
        for _ in range(5):
            a = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
            a[0] += 2.0
            got = Jet(0.3 - 0.7j, a).log()
            want = log_ref(a)
            assert got.center == 0.3 - 0.7j and len(got.coeffs) == order + 1
            assert np.max(np.abs(got.coeffs - want)) <= 1e-13 * np.max(np.abs(want))


def test_shift_poly_matches_binomial_sum():
    # P(z + s) = sum_i z^i sum_j C(j, i) s^{j-i} c_j, the loop that Horner's rule replaced
    rng = np.random.default_rng(3)
    for deg in range(9):
        for s in (0.0, 1.7, -0.4, 0.6 - 1.3j):
            c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
            terms = np.array([[math.comb(j, i) * s ** (j - i) * c[j] if j >= i else 0.0
                               for j in range(deg + 1)] for i in range(deg + 1)])
            got = _shift_poly(c, s)
            assert len(got) == deg + 1
            assert np.max(np.abs(got - terms.sum(axis=1))) <= 1e-14 * np.max(np.abs(terms))


def test_fpoly_jet_is_horner_over_jets():
    # bitwise the Horner loop over Jet products that FPoly.jet used to run
    def jet_ref(poly, center, order):
        out = Jet(center, np.zeros(order + 1, complex))
        zj = _var_jet(center, order)
        if poly.center != 0:
            zj = zj - poly.center
        for c in poly.coeffs[::-1]:
            out = out * zj + c
        return out

    rng = np.random.default_rng(4)
    for _ in range(200):
        deg, order = rng.integers(0, 6), rng.integers(0, 7)
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1) * rng.integers(0, 2)
        pc = rng.choice([0.0, rng.normal(), rng.normal() + 1j * rng.normal()])
        center = rng.choice([rng.normal(), rng.normal() + 1j * rng.normal()])
        poly = FPoly(coeffs, pc)
        got, want = poly.jet(center, order), jet_ref(poly, center, order)
        assert got.center == want.center and np.array_equal(got.coeffs, want.coeffs)


def test_jet_reciprocal_of_zero_raises():
    with pytest.raises(NonAnalyticError):
        FPow(FPoly([0, 1.0]), -1).jet(0j, 3)


def test_jet_non_integer_power():
    j = FPow(fs_affine(1.0, 1.0), -0.5).jet(0j, 3)
    # (1+z)^{-1/2} = 1 - z/2 + 3z^2/8 - 5z^3/16
    assert np.allclose(j.coeffs, [1.0, -0.5, 0.375, -0.3125], rtol=1e-13)


def test_function_spec_conj_mirror():
    # the mirrored jet of spec at conj(z) is the Taylor expansion at z of
    # g(u) = conj(spec(conj u)): check its center and its series near z
    spec = FProd([FPoly([1.0 + 2.0j, 0.5]), FExp(FPoly([0, -1.0 + 0.3j]))])
    z = 1.2 + 0.4j
    mirror = spec.jet(np.conj(z), 10).conj_mirror()
    assert mirror.center == z
    for h in (0.0, 0.05, -0.03 + 0.04j):
        series = np.sum(mirror.coeffs * h ** np.arange(11))
        assert abs(series - np.conj(spec(np.conj(z + h)))) < 1e-13


def test_indicator_image_stable_near_zero():
    img = FIndicatorImage(1.0, 2.0)
    lam = np.array([1e-250, 1e-30, 1e-8])
    vals = img(lam)
    # limit at 0 is b - a = 1
    assert np.all(np.isfinite(vals))
    assert abs(vals[0] - 1.0) < 1e-6
    assert abs(img(1.0) - (math.exp(-1) - math.exp(-2))) < 1e-14


def test_laguerre_image_against_quadrature():
    for n in (0, 3, 6):
        img = laguerre_image(n)
        for lam in (0.3, 1.0, 4.0):
            val, _ = quad(lambda t: math.exp(-lam * t) * laguerre_e(n, t), 0, 80, limit=300)
            assert abs(img(lam) - val) < 1e-9


def test_decay_metadata():
    assert laguerre_image(2).decay() == (0.0, -1.0)
    rate, power = FProd([FPoly([0, 0, 1.0]), FExp(FPoly([0, -0.7]))]).decay()
    assert rate == pytest.approx(0.7) and power == 2.0
    assert FIndicatorImage(0.5, 1.0).decay()[0] == 0.5


# ---------------------------------------------------------------------------
# Construction-time folding against an unfolded reference
# ---------------------------------------------------------------------------

def _unfolded_init(self, parts):
    self.scale, self.parts = 1.0, [_as_spec(p) for p in parts]


@contextmanager
def _unfolded():
    """Build and evaluate trees as plain nested products and sums, with
    every constant its own FPoly node evaluated by numpy's polyval."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FProd, "__init__", _unfolded_init)
        mp.setattr(FSum, "__init__", _unfolded_init)
        mp.setattr(FPoly, "__call__",
                   lambda self, z: polyval(np.asarray(z, dtype=complex) - self.center, self.coeffs))
        yield


def _interpolation_directions():
    v = finite_rank([0, 1.0, 0.5], 0.8) + finite_rank([1.0, 0.5j], 1 + 1j)
    return _sign_directions(v.conjugate_groups())


def _interpolation_trials():
    kappas, directions = _interpolation_directions()
    return [_end_spec(_interpolation_ends(kind, ends, kappas, 0.2))
            for _, kind, ends in directions]


_TREES = {
    "gaussian": (lambda: [gaussian_trial(1.3, 0.05), gaussian_trial(2.0, 0.3),
                          gaussian_trial(1.3, 0.05) - 2.0 * gaussian_trial(2.0, 0.3)],
                 (1.25, 1.3 + 0.05j)),
    "window": (lambda: window_trials(1.0, 0.7, 3, 3, 0.2), (1.0, 1.1 - 0.1j)),
    "interpolation": (_interpolation_trials, (0.2, -np.log(1 + 1j))),
    "laguerre": (lambda: [laguerre_image(0), laguerre_image(5)], (0.7, 2.0 + 1.0j)),
    "exppoly": (lambda: [ExpPoly(((1 + 0.5j, 2, 0.7 - 0.3j), (-0.4, 0, 1.1),
                                  (0.3j, 1, 0.5), (0.4, 0, 1.1))).laplace_image()], (0.9, 1.0 + 1.0j)),
    "arithmetic": (lambda: [laguerre_image(1) - 2.0 * laguerre_image(2) + fs_var() + 0.5,
                            -laguerre_image(3) - 1j],
                   (0.6, 1.5 - 0.5j)),
}


@pytest.mark.parametrize("name", sorted(_TREES))
def test_folded_trees_match_unfolded_reference(name):
    build, centers = _TREES[name]
    lam = np.linspace(0.05, 6.0, 97)
    with _unfolded():
        ref = build()
        ref_vals = [w(lam) for w in ref]
        ref_jets = [[w.jet(c, 12).coeffs for c in centers] for w in ref]
    for w, vals, jets, w_ref in zip(build(), ref_vals, ref_jets, ref):
        assert np.max(np.abs(w(lam) - vals)) <= 1e-15 * np.max(np.abs(vals))
        for c, jet in zip(centers, jets):
            assert np.max(np.abs(w.jet(c, 12).coeffs - jet)) <= 1e-15 * np.max(np.abs(jet))
        assert _decay(w) == _decay(w_ref)
        # flattening keeps every leaf's knots (the log windows and the
        # gaussian windows of interpolation ends, real and pair, carry them)
        assert sorted(w.knots) == sorted(k for n in _nodes(w_ref) for k in n.knots)
    # the windows and mu^n (n >= 1) of laguerre_image(n) are narrow; e_0 and
    # the exppoly image are not
    narrow = {"laguerre": [False, True], "exppoly": [False]}.get(name, [True] * len(ref))
    assert [bool(w.knots) for w in build()] == narrow


def _decay(spec):
    try:
        return spec.decay()
    except ValueError as exc:  # no bound known, e.g. the interpolation windows
        return str(exc)


def _nodes(spec):
    yield spec
    for child in getattr(spec, "parts", []) + [getattr(spec, "child", None)]:
        if child is not None:
            yield from _nodes(child)


def test_subtraction_and_negation_fold_their_sign():
    a, b = laguerre_image(1), FExp(FPoly([0, -0.5]))
    for spec in (a - b, -a, -(a - b), b - 3.0):
        assert not any(isinstance(n, FPoly) and len(n.coeffs) == 1 and n.coeffs[0] == -1
                       for n in _nodes(spec))
    assert (-a).scale == -1 and (-a).parts == a.parts
    merged = a - b + fs_var() + 0.5  # one polynomial part, 0.5 + z
    assert [p.coeffs.tolist() for p in merged.parts if isinstance(p, FPoly)] == [[0.5, 1.0]]
    assert isinstance(-(-a), FProd) and (-(-a)).scale == 1
    z = np.array([0.4, 2.5])
    assert np.allclose((a - b)(z), a(z) - b(z), rtol=1e-15, atol=0)


def test_centered_polynomial():
    # 1 + 2 (z - c) - 3 (z - c)^2 with c = 0.5 - 0.2i: values and jets are
    # those of the expanded polynomial, and a sum keeps it apart from the
    # polynomials in powers of z
    c = 0.5 - 0.2j
    p = FPoly([1.0, 2.0, -3.0], c)
    expanded = FPoly([1.0 - 2.0 * c - 3.0 * c * c, 2.0 + 6.0 * c, -3.0])
    z = np.array([0.1, 0.5, 2.0])
    assert np.allclose(p(z), expanded(z), rtol=1e-15, atol=0)
    for center in (0.5 - 0.2j, 1.0):
        assert np.allclose(p.jet(center, 4).coeffs, expanded.jet(center, 4).coeffs, rtol=1e-15, atol=1e-15)
    assert p.decay() == expanded.decay()
    total = p + fs_var() + 1.0
    assert len(total.parts) == 2 and np.allclose(total(z), p(z) + z + 1.0, rtol=1e-15, atol=0)
