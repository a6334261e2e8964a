"""Sigma distributions, pairings, and sign-matrices."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hankelsigma.form import ExpPoly, form_direct
from hankelsigma.galerkin import gaussian_trial
from hankelsigma.kernel import carleman, finite_rank, quasi_carleman
from hankelsigma.sigma import (DecayError, DeltaCombo, NonHermitianError, RegularDensity,
                               RegularizedPower, SigmaDistribution, _SpecProduct,
                               matrix_inertia, sigma_of_kernel, sigma_pair, sigma_pair_real,
                               sign_matrix, sign_matrix_tilde)
from hankelsigma.special import (FExp, FLog, FPoly, FPow, FProd, FunctionSpec,
                                 fs_const, fs_var, laguerre_image)
from hankelsigma.kernel import UndefinableKernelError


# ---------------------------------------------------------------------------
# sigma_of_kernel
# ---------------------------------------------------------------------------

def test_carleman_density_is_one():
    sig = sigma_of_kernel(carleman())
    lam = np.array([0.1, 1.0, 7.0, 300.0])
    assert np.allclose(sig.density(lam), 1.0, atol=1e-12)


def test_pure_exponential_gives_delta():
    sig = sigma_of_kernel(finite_rank([1.0], 2.0))
    (part,) = sig.parts
    assert isinstance(part, DeltaCombo)
    assert part.beta == 2.0 and part.coeffs == (1.0,)
    # exponential-variable representation: beta^{-1} delta(x - kappa)
    assert np.allclose(part.diffop(), [0.5])
    assert part.kappa == pytest.approx(-math.log(2.0))


def test_fractional_negative_exponent_is_regularized():
    sig = sigma_of_kernel(quasi_carleman(1.0, -0.5, 1.0, 0.0))
    (part,) = sig.parts
    assert isinstance(part, RegularizedPower)
    assert part.order == 0 and part.q == -0.5
    sig2 = sigma_of_kernel(quasi_carleman(1.0, -1.5, 1.0, 0.0))
    assert sig2.parts[0].order == 1


def test_undefinable_kernel_raises():
    with pytest.raises(UndefinableKernelError):
        sigma_of_kernel(quasi_carleman(1.0, -0.5, 0.0, 0.0))


def test_diffop_against_derivative_transport():
    # the exponential-variable coefficients of t^j e^{-beta t} must reproduce
    # the lambda-side pairing after the change of variables u(x) = e^{-x/2} w(e^{-x})
    for j in range(5):
        beta = 1.3
        combo = DeltaCombo(beta, (0.0,) * j + (1.0,))
        d = combo.diffop()
        kappa = -math.log(beta)
        w = laguerre_image(min(j, 3)) + fs_const(0.2) * laguerre_image(0)
        # x-side: sum_p d_p (-1)^p (d/dx)^p [ |u|^2 ] at kappa, by divided differences
        def u_sq(x):
            lam = np.exp(-x)
            return np.exp(-x) * np.asarray(w(lam)) ** 2

        h = 1e-2
        xs = kappa + h * np.cos(np.linspace(0, np.pi, 40))
        fit = np.polynomial.polynomial.polyfit(xs - kappa, u_sq(xs), j + 6)
        x_side = sum(d[p] * (-1) ** p * fit[p] * math.factorial(p) for p in range(j + 1))
        lam_side = sigma_pair(sigma_of_kernel(finite_rank([0.0] * j + [1.0], beta)), w, w)
        assert abs(x_side - lam_side) < 1e-6 * max(1.0, abs(lam_side)), j


# ---------------------------------------------------------------------------
# pairings
# ---------------------------------------------------------------------------

def test_pair_constant_density_with_ground_laguerre():
    # oracle: int_0^inf (lam + 1/2)^{-2} dlam = 2 by quadrature
    oracle, _ = quad(lambda lam: (lam + 0.5) ** -2, 0, np.inf)
    sig = sigma_of_kernel(carleman())
    val = sigma_pair_real(sig, laguerre_image(0))
    assert abs(oracle - 2.0) < 1e-12
    assert abs(val - 2.0) < 1e-9


def test_pair_delta_is_point_evaluation():
    sig = sigma_of_kernel(finite_rank([1.0], 2.0))
    w = laguerre_image(1)
    assert sigma_pair_real(sig, w) == pytest.approx(w(2.0) ** 2, rel=1e-13)


def test_pair_regularized_matches_direct_oracle():
    # <h, conj(f) star f> with h = t^{1/2} e^{-t}, f = e_0: the convolution is
    # t e^{-t/2}, so the oracle is the plain integral of t^{3/2} e^{-3t/2}
    oracle, _ = quad(lambda t: t ** 1.5 * np.exp(-1.5 * t), 0, np.inf)
    sig = sigma_of_kernel(quasi_carleman(1.0, -0.5, 1.0, 0.0))
    val = sigma_pair_real(sig, laguerre_image(0))
    assert abs(val - oracle) < 1e-9


def test_finite_part_sees_a_bump_inside_half_a_unit_of_alpha():
    # A gaussian trial this close to alpha = 1 has jets ~e^{-128} or smaller
    # there, so no check at the series radius's edge sees it: only the
    # trial's own knots keep the series piece below the bump.  Reference:
    # both densities times |w|^2 by quad.
    sig = sigma_of_kernel(carleman() + quasi_carleman(-1.0, -1.5, 1.0, 0.0))
    for center, eps, want in ((1.12, 0.01, -106.0555742556), (1.05, 0.005, -958.9032894235),
                              (1.3, 0.02, -9.588321170517)):
        w = gaussian_trial(center, eps)
        val = sigma_pair(sig, w, w, atol=1e-11)

        def density_times_w2(lam):
            w2 = math.exp(-2 * math.log(lam / center) ** 2 / eps ** 2) / (eps * lam)
            return (1.0 - (lam - 1.0) ** -2.5 / math.gamma(-1.5)) * w2
        ref, _ = quad(density_times_w2, 1.0, 1.6, points=[center], epsabs=0, epsrel=1e-13,
                      limit=400)
        assert ref == pytest.approx(want, rel=1e-10)
        assert abs(val - ref) <= 1e-10 * abs(ref)


@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("center, eps", [(20.0, 0.002), (3.0, 0.003), (1.3, 0.01)])
def test_narrow_gaussian_trial_pairs_through_its_own_knots(q, center, eps):
    # <lam^{q-1}/Gamma(q), |w|^2> is a gaussian integral in x = ln(lam/center):
    # center^{q-1} sqrt(pi/2) e^{(q-1)^2 eps^2 / 8} / Gamma(q).  The trial's
    # knots alone let the quadrature see a bump this narrow.
    sig = sigma_of_kernel(quasi_carleman(1.0, q, 0.0, 0.0))
    w = gaussian_trial(center, eps)
    want = (center ** (q - 1) * math.sqrt(math.pi / 2) * math.exp((q - 1) ** 2 * eps ** 2 / 8)
            / math.gamma(q))
    assert abs(sigma_pair(sig, w, w) - want) <= 1e-12 * want


@pytest.mark.parametrize("q", [0.2, 0.5, 1.5])
@pytest.mark.parametrize("center, eps", [(1.06, 1e-3), (1.3, 2e-4)])
def test_narrow_gaussian_pairs_near_the_edge_of_a_power_law(q, center, eps):
    # the singular-end piece of a non-integer q stops at the trial's first
    # knot; run over [alpha, alpha + 1] it stepped over the bump and
    # returned ~1e-78 (q = 0.5, center 1.06) or 0
    mp = pytest.importorskip("mpmath")
    w = gaussian_trial(center, eps)
    val = sigma_pair(SigmaDistribution((RegularDensity(1.0, q, 1.0, 0.0),)), w, w)
    with mp.workdps(30):
        ref = float(mp.quad(lambda lam: (lam - 1) ** (q - 1) / mp.gamma(q) / (eps * lam)
                            * mp.exp(-2 * mp.log(lam / center) ** 2 / eps ** 2),
                            [1, center * mp.exp(-8 * eps), center, center * mp.exp(8 * eps), 3,
                             mp.inf]))
    assert abs(val - ref) <= 1e-12 * ref


def test_gaussian_fexp_pairs_through_its_own_knots():
    # exp(-(lam-20)^2/1e-4) declares no knots by hand: FExp finds its peak
    # and width from the exponent.  |w|^2 against density 1 pairs to
    # 0.01 sqrt(pi/2); without knots the quadrature never saw the bump.
    w = FExp(FPoly([-400 / 1e-4, 40 / 1e-4, -1 / 1e-4]))
    assert w.knots == pytest.approx((19.96, 20.0, 20.04), abs=1e-12)
    want = 0.01 * math.sqrt(math.pi / 2)
    got = sigma_pair(sigma_of_kernel(quasi_carleman(1, 1, 0, 0)), w, w)
    assert abs(got - want) <= 1e-10 * want


def test_pair_hermitian_symmetry():
    sig = sigma_of_kernel(quasi_carleman(1.0, -1.5, 1.0, 0.0) + carleman())
    w1, w2 = laguerre_image(0), laguerre_image(2)
    a = sigma_pair(sig, w1, w2)
    b = sigma_pair(sig, w2, w1)
    assert abs(a - np.conj(b)) < 1e-10 * max(1, abs(a))


def test_pair_decay_error():
    sig = sigma_of_kernel(quasi_carleman(1.0, 3.0, 1.0, 0.0))
    with pytest.raises(DecayError):
        sigma_pair(sig, laguerre_image(0), laguerre_image(0))


def test_pairing_consistency_with_direct_form():
    # sigma pairings of t^j e^{-beta t} agree with the double-integral form
    rng = np.random.default_rng(19)
    for j in range(5):
        kern = finite_rank([0.0] * j + [1.0], 1.1)
        sig = sigma_of_kernel(kern)
        for _ in range(10):
            f = ExpPoly(((rng.normal(), int(rng.integers(0, 3)),
                          float(rng.choice([0.5, 0.8, 1.3]))),))
            direct = form_direct(kern, f)
            viasigma = sigma_pair_real(sig, f.laplace_image())
            assert abs(direct - viasigma) < 1e-8 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# sign-matrices
# ---------------------------------------------------------------------------

def test_sign_matrix_rank_one():
    sm = sign_matrix([1.0], 2.0)
    assert np.allclose(sm.entries, [[0.5]])
    assert sm.inertia == (1, 0, 0)


def test_sign_matrix_antidiagonal_binomials():
    sm = sign_matrix([0, 0, 1.0], 1.0)
    anti = [sm.entries[0, 2], sm.entries[1, 1], sm.entries[2, 0]]
    assert np.allclose(anti, [1.0, 2.0, 1.0])


def test_sign_matrix_full_entries_against_pairing_oracle():
    # independent oracle: pair the distribution against the test functions
    # w_l(lam) = lam^{-1/2} ln(beta/lam)^l, whose exponential-variable jet
    # data at kappa is the unit derivative vector; S recovers entrywise
    beta = 1.0
    kern = finite_rank([0, 0, 1.0], beta)
    sig = sigma_of_kernel(kern)

    def w_mono(ell):
        if ell == 0:
            return FPow(fs_var(), -0.5)
        lnb = FProd([fs_const(-1.0), FLog(FProd([fs_var(), fs_const(1.0 / beta)]))])
        return FProd([FPow(fs_var(), -0.5), FPow(lnb, ell)]) if ell > 1 else \
            FProd([FPow(fs_var(), -0.5), lnb])

    oracle = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            val = sigma_pair(sig, w_mono(a), w_mono(b))
            oracle[a, b] = val.real / (math.factorial(a) * math.factorial(b))
    expected = np.array([[2.0, 3.0, 1.0], [3.0, 2.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.allclose(oracle, expected, atol=1e-10)
    assert np.allclose(sign_matrix([0, 0, 1.0], beta).entries.real, expected)


def test_sign_matrix_skew_triangular_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        K = int(rng.integers(0, 7))
        coeffs = rng.uniform(-3, 3, K + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.2 else 1.0
        sm = sign_matrix(coeffs, float(rng.uniform(0.3, 2.5)))
        for a in range(K + 1):
            for b in range(K + 1):
                if a + b > K:
                    assert abs(sm.entries[a, b]) < 1e-12


def test_sign_matrix_inertia_parity_table():
    rng = np.random.default_rng(29)
    for _ in range(50):
        K = int(rng.integers(0, 7))
        coeffs = rng.uniform(-3, 3, K + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.2 else -1.0
        sm = sign_matrix(coeffs, float(rng.uniform(0.3, 2.5)))
        npos, nneg, nzero = sm.inertia
        assert nzero == 0
        lead = coeffs[-1] * math.factorial(K)
        if K % 2 == 1:
            assert (npos, nneg) == ((K + 1) // 2, (K + 1) // 2)
        elif lead > 0:
            assert (npos, nneg) == (K // 2 + 1, K // 2)
        else:
            assert (npos, nneg) == (K // 2, K // 2 + 1)


def test_sign_matrix_conjugation_symmetry():
    rng = np.random.default_rng(31)
    for _ in range(20):
        K = int(rng.integers(0, 5))
        coeffs = rng.uniform(-2, 2, K + 1) + 1j * rng.uniform(-2, 2, K + 1)
        if abs(coeffs[-1]) < 0.2:
            coeffs[-1] = 1.0
        beta = complex(rng.uniform(0.4, 2.0), rng.uniform(-1.5, 1.5))
        a = sign_matrix(coeffs, beta).entries
        b = sign_matrix(np.conj(coeffs), np.conj(beta)).entries
        assert np.max(np.abs(b - a.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_sign_matrix_tilde():
    st = sign_matrix_tilde([1.0], 1 + 1j)
    assert st.entries.shape == (2, 2)
    assert st.entries[1, 0] == pytest.approx(1.0 / (1 + 1j))
    assert st.inertia == (1, 1, 0)
    st2 = sign_matrix_tilde([0.3, -1.0, 2.0], 2 + 1j)
    assert st2.inertia == (3, 3, 0)
    with pytest.raises(ValueError):
        sign_matrix_tilde([1.0], 2.0)
    # blocks match the base matrix and its adjoint
    s = sign_matrix([0.3, -1.0, 2.0], 2 + 1j).entries
    assert np.allclose(st2.entries[3:, :3], s)
    assert np.allclose(st2.entries[:3, 3:], s.conj().T)


def test_matrix_inertia():
    assert matrix_inertia(np.diag([1.0, -2.0, 0.0])) == (1, 1, 1)
    assert sign_matrix([0, 0, 1.0], 1.0).inertia == (2, 1, 0)
    assert sign_matrix([0, -1.0], 1.0).inertia == (1, 1, 0)
    assert sign_matrix([0.3, -1.0, 2.0], 2 + 1j).inertia is None  # not Hermitian
    with pytest.raises(NonHermitianError):
        matrix_inertia(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# the test product w1* w2
# ---------------------------------------------------------------------------

class _Counting(FunctionSpec):
    """A FunctionSpec that counts its evaluations."""

    def __init__(self, spec):
        self.spec, self.calls, self.jets = spec, 0, 0

    def __call__(self, z):
        self.calls += 1
        return self.spec(z)

    def jet(self, center, order):
        self.jets += 1
        return self.spec.jet(center, order)

    def decay(self):
        return self.spec.decay()


def test_spec_product_diagonal_evaluates_once():
    w = _Counting(gaussian_trial(1.3, 0.1))
    other = gaussian_trial(1.3, 0.1)  # the same test, a second object
    diag, pair = _SpecProduct(w, w), _SpecProduct(w, other)
    lam = np.linspace(0.5, 3.0, 48)
    assert np.array_equal(diag(lam), pair(lam)) and w.calls == 2
    for center in (1.2, 1.2 + 0.3j):
        assert np.array_equal(diag.jet(center, 8), pair.jet(center, 8))
    # diagonal, then the pair: one jet each at the real center, two and one
    # at the complex one
    assert w.jets == (1 + 1) + (2 + 1)
    assert diag.decay() == pair.decay()


def test_spec_product_jets_at_a_conjugate_pair():
    # the mirror rule against the image of the conjugated ExpPoly, whose
    # tree carries conj(c) and conj(g) by hand
    f1 = ExpPoly(((0.7 - 0.4j, 1, 0.9 + 0.6j), (0.3j, 0, 1.4 - 0.2j)))
    f2 = ExpPoly(((1.0, 2, 0.8 - 0.5j),))
    w1, w2 = f1.laplace_image(), f2.laplace_image()
    kern = finite_rank([0.6 + 0.2j, -0.3j, 0.25], 1.0 + 0.7j)
    by_hand, prod = FProd([f1.conj().laplace_image(), w2]), _SpecProduct(w1, w2)
    for part in sigma_of_kernel(kern).parts:
        ref = by_hand.jet(part.beta, part.degree).coeffs
        got = prod.jet(part.beta, part.degree)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
    assert prod.decay() == by_hand.decay() == (0.0, -4.0)
    direct = form_direct(kern, f1, f2)
    assert abs(sigma_pair(sigma_of_kernel(kern), w1, w2) - direct) < 1e-12 * abs(direct)
