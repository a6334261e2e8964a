"""Sigma distributions, pairings, and sign-matrices."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hankelsigma import sigma
from hankelsigma.form import ExpPoly, form_direct
from hankelsigma.galerkin import _power_law_moments, gaussian_trial
from hankelsigma.kernel import carleman, finite_rank, quasi_carleman
from hankelsigma.sigma import (DecayError, DeltaCombo, NonHermitianError, RegularDensity,
                               RegularizedPower, SigmaDistribution, _SpecProduct,
                               group_sign_matrix, matrix_inertia, sigma_of_kernel,
                               sigma_pair, sign_matrix)
from hankelsigma.special import (FExp, FLog, FPoly, FPow, FProd, FunctionSpec,
                                 _jet_mul, fs_affine, fs_const, fs_var, laguerre_image)
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
    val = sigma_pair(sig, laguerre_image(0), laguerre_image(0)).real
    assert abs(oracle - 2.0) < 1e-12
    assert abs(val - 2.0) < 1e-9


def test_pair_delta_is_point_evaluation():
    sig = sigma_of_kernel(finite_rank([1.0], 2.0))
    w = laguerre_image(1)
    assert sigma_pair(sig, w, w).real == pytest.approx(w(2.0) ** 2, rel=1e-13)


def test_pair_regularized_matches_direct_oracle():
    # <h, conj(f) star f> with h = t^{1/2} e^{-t}, f = e_0: the convolution is
    # t e^{-t/2}, so the oracle is the plain integral of t^{3/2} e^{-3t/2}
    oracle, _ = quad(lambda t: t ** 1.5 * np.exp(-1.5 * t), 0, np.inf)
    sig = sigma_of_kernel(quasi_carleman(1.0, -0.5, 1.0, 0.0))
    val = sigma_pair(sig, laguerre_image(0), laguerre_image(0)).real
    assert abs(val - oracle) < 1e-9


def test_undamped_finite_part_skips_the_damping_jet(monkeypatch):
    # the engine folds e^{-r(lam - alpha)} into the test product's values and
    # jets itself; at r = 0 it evaluates no exp, and the values and jets that
    # reach the quadrature are the product's own
    exps, seen = [], []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            exps.append(x)
            return np.exp(x)

    def spy(part, psi, jets, atol, d0):
        seen.append((psi, jets))
        return engine(part, psi, jets, atol, d0)

    engine = sigma._regularized_pair_engine
    monkeypatch.setattr(sigma, "np", CountingNumpy())
    monkeypatch.setattr(sigma, "_regularized_pair_engine", spy)
    w = laguerre_image(2)
    prod, lam = _SpecProduct(w, w), 1.0 + np.geomspace(1e-6, 50.0, 64)
    val = sigma_pair(sigma_of_kernel(quasi_carleman(1.0, -1.5, 1.0, 0.0)), w, w)
    (psi, jets), = seen
    assert exps == []
    assert psi(lam).tobytes() == prod(lam).tobytes()
    assert jets.tobytes() == np.asarray(prod.jet(1.0, len(jets) - 1)).tobytes()
    # r > 0 damps the values, and multiplies the jets by (-r)^k/k!, the jet of the damping
    r = 0.5
    sigma_pair(sigma_of_kernel(quasi_carleman(1.0, -1.5, 1.0, r)), w, w)
    psi, jets = seen[1]
    assert exps
    assert psi(lam).tobytes() == (np.exp(-r * (lam - 1.0)) * prod(lam)).tobytes()
    k = np.arange(len(jets))
    damp = (-r) ** k / np.array([math.factorial(i) for i in k], dtype=float)
    want = _jet_mul(prod.jet(1.0, len(jets) - 1), damp)
    assert np.max(np.abs(jets - want)) <= 1e-14 * np.max(np.abs(want))
    # bitwise the pairing whose test-product jets were multiplied by the unit jet
    jet = _SpecProduct.jet

    def times_unit(self, center, order):
        return _jet_mul(jet(self, center, order), np.eye(1, order + 1, dtype=complex)[0])

    monkeypatch.setattr(_SpecProduct, "jet", times_unit)
    ref = sigma_pair(sigma_of_kernel(quasi_carleman(1.0, -1.5, 1.0, 0.0)), w, w)
    assert np.array(val).tobytes() == np.array(ref).tobytes()


@pytest.mark.parametrize("q", [-3.5, -2.5, -1.5, -0.5, 0.5, 1.0, 1.5, 2.5])
@pytest.mark.parametrize("alpha, r, s1, s2", [(0.5, 0.0, 0.3, 0.7), (2.0, 1.0, 0.1, 0.25),
                                              (0.1, 0.05, 1.5, 2.5), (1.0, 5.0, 0.5, 1.0)])
def test_power_law_pairs_exponentials_in_closed_form(q, alpha, r, s1, s2):
    # <c/Gamma(q) (lam-alpha)_+^{q-1} e^{-r(lam-alpha)}, e^{-s lam}> = c e^{-s alpha} (r+s)^{-q},
    # s = s1 + s2, for q < 0 too: Gamma(q) b^{-q} continues analytically in q
    c = 0.7
    part = (RegularDensity if q > 0 else RegularizedPower)(c, q, alpha, r)
    want = c * math.exp(-(s1 + s2) * alpha) * (r + s1 + s2) ** -q
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigma_pair(SigmaDistribution((part,)), FExp(FPoly([0, -s1])), FExp(FPoly([0, -s2])),
                         atol=1e-14 * want)
    assert abs(got - want) <= 1e-13 * want


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


@pytest.mark.parametrize("kern, q, alpha, r, center, eps", [
    (carleman(), 1.0, 0.0, 0.0, 30 + 0.002j, 0.01),
    (quasi_carleman(1.0, 0.5), 0.5, 0.0, 0.0, 7 + 0.001j, 0.005),
    (quasi_carleman(1.0, 1.5, 1.0, 0.3), 1.5, 1.0, 0.3, 2.2 - 0.001j, 0.003),
], ids=["carleman", "q0.5", "q1.5-alpha-r"])
def test_complex_centred_gaussian_pairs_through_its_own_knots(kern, q, alpha, r, center, eps):
    # exp(-(lam-A)^2/eps^2) with a complex A peaks on the real line at Re A,
    # where FExp puts its knots; without them these pairings read 0, 7.2e-77
    # and 8.7e-15
    mp = pytest.importorskip("mpmath")
    w = FExp(FPoly([0.0, 0.0, -eps ** -2.0], center))
    assert w.knots == pytest.approx((center.real - 4 * eps, center.real, center.real + 4 * eps),
                                    abs=1e-12)
    got = sigma_pair(sigma_of_kernel(kern), w, w, 1e-12)
    with mp.workdps(30):
        a, m = mp.mpc(center.real, center.imag), center.real

        def integrand(lam):
            u, window = lam - alpha, mp.exp(-(lam - a) ** 2 / eps ** 2)
            return u ** (q - 1) / mp.gamma(q) * mp.exp(-r * u) * abs(window) ** 2
        ref = float(mp.quad(integrand, [alpha, m - 10 * eps, m, m + 10 * eps, m + 1, mp.inf]))
    assert abs(got - ref) <= 1e-12 * ref


def test_far_mass_is_not_missed():
    # mu^2046 (lam+1/2)^{-2} against a slowly damped density: the Laguerre
    # entry of index 2046, 1.19e-6 by the four-term moment recurrence (and
    # by mpmath).  mu^2046 e^{-lam/1000} is below 1e-300 on the first tail
    # panels and peaks near lam = 1430, so the tail must not stop on three
    # tiny panels that are still growing
    part = RegularDensity(1, 0.5, 1, 1e-3)
    rden = FPow(fs_affine(1.0, 0.5), -1)
    mu = FProd([fs_affine(1.0, -0.5), rden])
    got = sigma_pair(SigmaDistribution((part,)), rden, FProd([FPow(mu, 2046), rden]), 1e-12)
    want = _power_law_moments(part, 2046)[-1]
    assert want == pytest.approx(1.194e-6, rel=1e-3)
    assert abs(got - want) <= 1e-6 * want


@pytest.mark.parametrize("n", [23, 200, 1023])
def test_high_index_laguerre_images_pair_without_overflow(n):
    # Carleman: <e_n, e_n> = 2/(2n+1); mu^n (lam+1/2)^{-1} has no factor that
    # overflows, and the far panels reach the mass near lam ~ 2n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigma_pair(sigma_of_kernel(carleman()), laguerre_image(n), laguerre_image(n), 1e-12)
    assert abs(got - 2 / (2 * n + 1)) <= 1e-9 * 2 / (2 * n + 1)


@pytest.mark.parametrize("n", [4000, 8000, 100000])
def test_laguerre_image_past_the_underflow_of_its_first_panels(n):
    # mu^{2n} (lam+1/2)^{-2} underflows to exactly 0 at the start of the
    # tail and peaks near lam = n; near lam = 0 the leaf mu^n ~ e^{-4n lam}
    # is a layer, marked by its knot 4/n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigma_pair(sigma_of_kernel(carleman()), laguerre_image(n), laguerre_image(n), 1e-12)
    assert abs(got - 2 / (2 * n + 1)) <= 1e-9 * 2 / (2 * n + 1)


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
            w = f.laplace_image()
            viasigma = sigma_pair(sig, w, w).real
            assert abs(direct - viasigma) < 1e-8 * max(1.0, abs(direct))


# ---------------------------------------------------------------------------
# sign-matrices
# ---------------------------------------------------------------------------

def test_sign_matrix_rank_one():
    sm = sign_matrix([1.0], 2.0)
    assert np.allclose(sm, [[0.5]])
    assert matrix_inertia(sm) == (1, 0, 0)


def test_sign_matrix_antidiagonal_binomials():
    sm = sign_matrix([0, 0, 1.0], 1.0)
    anti = [sm[0, 2], sm[1, 1], sm[2, 0]]
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
    assert np.allclose(sign_matrix([0, 0, 1.0], beta).real, expected)


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
                    assert abs(sm[a, b]) < 1e-12


def test_sign_matrix_inertia_parity_table():
    rng = np.random.default_rng(29)
    for _ in range(50):
        K = int(rng.integers(0, 7))
        coeffs = rng.uniform(-3, 3, K + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.2 else -1.0
        sm = sign_matrix(coeffs, float(rng.uniform(0.3, 2.5)))
        npos, nneg, nzero = matrix_inertia(sm)
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
        a = sign_matrix(coeffs, beta)
        b = sign_matrix(np.conj(coeffs), np.conj(beta))
        assert np.max(np.abs(b - a.conj().T)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def _group(coeffs, beta):
    (group,) = finite_rank(coeffs, beta).conjugate_groups()
    return group_sign_matrix(*group)


def test_group_sign_matrix():
    kappas, st = _group([1.0], 1 + 1j)
    assert kappas == pytest.approx((-np.log(1 + 1j), -np.log(1 - 1j)))
    assert st.shape == (2, 2)
    assert st[1, 0] == pytest.approx(1.0 / (1 + 1j))
    assert matrix_inertia(st) == (1, 1, 0)
    _, st2 = _group([0.3, -1.0, 2.0], 2 + 1j)
    assert matrix_inertia(st2) == (3, 3, 0)
    # blocks match the base matrix and its adjoint
    s = sign_matrix([0.3, -1.0, 2.0], 2 + 1j)
    assert np.allclose(st2[3:, :3], s)
    assert np.allclose(st2[:3, 3:], s.conj().T)
    # a real group: its one exponent and the real sign-matrix
    kappas, sr = _group([0, 0, 1.0], 0.5)
    assert kappas == pytest.approx((math.log(2.0),))
    assert sr.dtype == float
    assert np.array_equal(sr, sign_matrix([0, 0, 1.0], 0.5).real)
    assert matrix_inertia(sr) == (2, 1, 0)


def test_matrix_inertia():
    assert matrix_inertia(np.diag([1.0, -2.0, 0.0])) == (1, 1, 1)
    assert matrix_inertia(sign_matrix([0, 0, 1.0], 1.0)) == (2, 1, 0)
    assert matrix_inertia(sign_matrix([0, -1.0], 1.0)) == (1, 1, 0)
    with pytest.raises(NonHermitianError):
        matrix_inertia(sign_matrix([0.3, -1.0, 2.0], 2 + 1j))
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
