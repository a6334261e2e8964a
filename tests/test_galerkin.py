"""Finite sections, stabilized counts, spectrum study, certificates."""

import importlib.util
import json
import math
import os
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from hankelsigma import _quad, galerkin, sigma
from hankelsigma.form import FormDomainError
from hankelsigma.galerkin import (_GH_CLEAR, _GH_NODES, _INTERPOLATION_EPS, _ROUNDS,
                                  CertificateInputError, FiniteSection, _certify_gaussian,
                                  _certify_interpolation, _certify_window,
                                  _end_moment, _end_spec, _first_success, _gauss_moment,
                                  _delta_moments, _gaussian_end,
                                  _gram, _interpolation_ends, _power_law_moments, _s0_pair_x,
                                  _section_spectra, _sign_directions, assemble,
                                  certificate, section_inertia, stabilized_negcount)
from hankelsigma.kernel import (FiniteRankTerm, Kernel, NonSelfAdjointError, QuasiCarlemanTerm,
                                carleman, finite_rank, quasi_carleman)
from hankelsigma.predict import predict_finite_rank
from hankelsigma.sigma import (DeltaCombo, RegularDensity, RegularizedPower, SigmaDistribution,
                               _delta_pair_engine, _inertia, sigma_of_kernel, sigma_pair)
from hankelsigma.special import FPow, FProd, _jet_mul, _jet_recip, fs_affine, laguerre_image


def _closed_form_carleman(n):
    j = np.arange(n)
    s = j[:, None] + j[None, :]
    return (1 + (-1.0) ** s) / (s + 1)


def test_carleman_section_closed_form():
    sec = assemble(carleman(), 32)
    assert np.max(np.abs(sec.matrix - _closed_form_carleman(32))) < 1e-10
    assert np.allclose(sec.matrix[:2, :2], [[2.0, 0.0], [0.0, 2.0 / 3.0]], atol=1e-10)


@pytest.mark.parametrize("kern", [
    carleman() + quasi_carleman(0.5, -1.5, 1.0, 0.0),
    carleman() + quasi_carleman(-0.9, 1.0, 1.0, 1.0),     # density with r > 0
    quasi_carleman(1.0, -2.5, 1.0, 1.0),                  # finite part with r > 0
    carleman() + finite_rank([1.0, -0.4], 0.9) + finite_rank([0.3, 0.2], 0.7 + 0.5j),
], ids=["fractional", "density-r", "finite-part-r", "deltas"])
def test_entries_match_scalar_pairings(kern):
    sec = assemble(kern, 12)
    sig = sigma_of_kernel(kern)
    for j, k in ((0, 0), (3, 5), (11, 2)):
        val = sigma_pair(sig, laguerre_image(j), laguerre_image(k))
        assert abs(sec.matrix[j, k] - val.real) < 1e-9


def _products_jet_loop(smax, center, order):
    # the jets of mu^s (lam+1/2)^{-2} at center by a step loop, the reference
    # of the delta moments
    num = np.zeros(order + 1, dtype=complex)
    num[:2] = center, 1.0
    den = num.copy()
    num[0] -= 0.5
    den[0] += 0.5
    mu = _jet_mul(num, _jet_recip(den))
    cur = _jet_mul(_jet_recip(den), _jet_recip(den))
    out = np.empty((smax + 1, order + 1), dtype=complex)
    for s in range(smax + 1):
        out[s] = cur
        cur = _jet_mul(cur, mu)
    return out


@pytest.mark.parametrize("center", [0.05, 0.3, 0.5, 1.0, 2.0, 1.4 + 0.6j,  # mu(0.5) = 0
                                    0.05 + 0.3j])
@pytest.mark.parametrize("order", [1, 4, 33])
def test_laguerre_product_jets_match_step_loop(center, order):
    # the delta moments of degree ``order`` at ``center`` against the step
    # loop's jets contracted by the delta engine, also at smax below the degree
    part = DeltaCombo(center, tuple(1.0 / (1.0 + j) for j in range(order + 1)))
    for smax in (0, 1, 3, 15, 2046):
        ref = _delta_pair_engine(part, _products_jet_loop(smax, center, order))
        got = _delta_moments(part, smax)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("center, order", [(0.3, 33), (2.0, 4), (1.4 + 0.6j, 33)])
def test_laguerre_product_jets_match_mpmath(center, order):
    # (lam+1/2)^{-2} mu^s in 40-digit series arithmetic, mu^s by squaring,
    # contracted by the delta part's c_j (-1)^j j!
    mp = pytest.importorskip("mpmath")
    coeffs = [1.0 / (1.0 + j) for j in range(order + 1)]
    got = _delta_moments(DeltaCombo(center, tuple(coeffs)), 2046)
    top = np.max(np.abs(got))

    def mul(a, b):
        return [mp.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in range(order + 1)]

    with mp.workdps(40):
        d = mp.mpc(center) + 0.5
        rden = [(-1) ** k / d ** (k + 1) for k in range(order + 1)]
        for s in (0, 1, 45, 46, 1000, 2046):
            want, e = mul(rden, rden), s
            sq = [1 - rden[0]] + [-c for c in rden[1:]]  # mu = 1 - 1/(lam+1/2)
            while e:
                if e & 1:
                    want = mul(want, sq)
                sq, e = mul(sq, sq), e >> 1
            want = mp.fsum(c * (-1) ** j * mp.factorial(j) * w
                           for j, (c, w) in enumerate(zip(coeffs, want)))
            assert abs(got[s] - complex(want)) <= 1e-14 * top


def test_laguerre_jets_take_blocked_powers(monkeypatch):
    # the saving is fewer jet products: ~2 sqrt(2N) at N = 1024, not 2N - 1
    calls = []

    def counting(a, b):
        calls.append(1)
        return _jet_mul(a, b)

    monkeypatch.setattr(galerkin, "_jet_mul", counting)
    assemble(carleman() + finite_rank([1.0, -0.4], 0.9), 1024)
    assert 0 < len(calls) <= 3 * math.ceil(math.sqrt(2047))


def test_delta_degree_above_the_section():
    # a degree K = 3 above smax = 0 and 2
    kern = finite_rank([1.0, 0.0, 0.0, 0.3], 2.0)
    sec = assemble(kern, 1)
    val = sigma_pair(sigma_of_kernel(kern), laguerre_image(0), laguerre_image(0))
    assert sec.matrix.shape == (1, 1)
    assert abs(sec.matrix[0, 0] - val.real) <= 1e-14 * abs(val)
    sec = assemble(kern, 2)
    for j, k in ((0, 1), (1, 1)):
        val = sigma_pair(sigma_of_kernel(kern), laguerre_image(j), laguerre_image(k))
        assert abs(sec.matrix[j, k] - val.real) <= 1e-14 * np.max(np.abs(sec.matrix))


def _scalar_entries(part, smax):
    """<part, mu^s (lam+1/2)^{-2}>, s = 0..smax, one ``sigma_pair`` each, the
    power of mu taken of mu itself so that no factor overflows."""
    sig = SigmaDistribution((part,))
    rden = FPow(fs_affine(1.0, 0.5), -1)
    mu = FProd([fs_affine(1.0, -0.5), rden])
    return np.array([sigma_pair(sig, rden, FProd([FPow(mu, s), rden]), 1e-12)
                     for s in range(smax + 1)]).real


@pytest.mark.parametrize("q", [1.0, 0.5, 0.3, -0.5, -1.5, -3.5])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 5.0, 100.0])
def test_moment_recurrence_matches_batched_pairing(q, alpha):
    # the r = 0 entries against scalar pairings, which no section takes
    n = 24
    part = RegularDensity(1.3, q, alpha) if q > 0 else RegularizedPower(1.3, q, alpha)
    ref = _scalar_entries(part, 2 * n - 2)
    got = _power_law_moments(part, 2 * n - 2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


def _damped_mpmath(mp, q, alpha, r, s):
    """<(lam-alpha)_+^{q-1} e^{-r(lam-alpha)}/Gamma(q), mu^s (lam+1/2)^{-2}> at 30
    digits.  For q < 0 the finite part: below u = lam-alpha = 1 the Taylor
    polynomial of order floor(-q) at alpha is subtracted and integrated in
    closed form, and below u = 1e-6 the rest is its Taylor series."""
    q, alpha, r = mp.mpf(q), mp.mpf(alpha), mp.mpf(r)

    def psi(u):
        lam = alpha + u
        return mp.exp(-r * u) * ((lam - 0.5) / (lam + 0.5)) ** s / (lam + 0.5) ** 2

    peak = mp.sqrt(s / r)  # of mu^s e^{-r lam}
    far = mp.quad(lambda u: u ** (q - 1) * psi(u),
                  [1] + [p for p in (peak / 4, peak, 4 * peak) if p > 1] + [mp.inf])
    if q > 0:
        return (mp.quad(lambda u: u ** (q - 1) * psi(u), [0, 1]) + far) / mp.gamma(q)
    n, d = int(-q), mp.mpf("1e-6")
    t = mp.taylor(psi, 0, n + 8)
    near = mp.quad(lambda u: u ** (q - 1) * (psi(u) - mp.polyval(t[n::-1], u)), [d, 1])
    near += sum(t[k] * d ** (q + k) / (q + k) for k in range(n + 1, n + 9))
    near += sum(t[k] / (q + k) for k in range(n + 1))
    return (near + far) / mp.gamma(q)


@pytest.mark.parametrize("q", [0.5, -2.5])
@pytest.mark.parametrize("r", [1e-3, 1.0])  # forward and boundary-value at N = 1024
def test_damped_moments_match_mpmath(q, r):
    mp = pytest.importorskip("mpmath")
    part = (RegularDensity if q > 0 else RegularizedPower)(1.0, q, 1.0, r)
    got = _power_law_moments(part, 2046).real
    top = np.max(np.abs(got))
    with mp.workdps(45):
        for s in (0, 1, 40, 2046):
            assert abs(got[s] - float(_damped_mpmath(mp, q, 1.0, r, s))) <= 1e-14 * top


@pytest.mark.parametrize("q", [2.5, 0.5, -0.5, -2.5])
@pytest.mark.parametrize("alpha", [0.1, 5.0])
@pytest.mark.parametrize("r", [1e-3, 0.05, 1.0, 5.0])
def test_damped_moments_match_scalar_pairings(q, alpha, r):
    # n = 24: r (2n-2) <= 16 runs forward for r <= 0.05, the others solve
    # the boundary-value problem
    n = 24
    part = (RegularDensity if q > 0 else RegularizedPower)(0.7, q, alpha, r)
    ref = _scalar_entries(part, 2 * n - 2)
    got = _power_law_moments(part, 2 * n - 2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("r, pairings", [(1.0, 1), (1e-3, 2)])
def test_damped_sections_pair_only_their_normalisers(monkeypatch, r, pairings):
    # the 2N-1 entries of an r > 0 part take one quadrature pairing (m_0) when
    # they solve the boundary-value problem and two (m_0, d_0) forward
    calls = []

    def counting(*args):
        calls.append(1)
        return engine(*args)

    engine = sigma._regularized_pair_engine
    monkeypatch.setattr(sigma, "_regularized_pair_engine", counting)
    h = assemble(quasi_carleman(1.0, -2.5, 1.0, r), 1024).matrix
    assert len(calls) == pairings and np.all(np.isfinite(h))


@pytest.mark.parametrize("q, alpha", [(1.2, 3.0), (1.3, 1.0), (1.4, 0.0), (1.5, 0.5)])
def test_moment_recurrence_matches_mpmath(q, alpha):
    # 1 < q < 2, where the quadrature path is 2.6e-13 to 1.9e-12 off; mpmath's
    # tanh-sinh converges here at 30 digits (not for q near 2)
    mp = pytest.importorskip("mpmath")
    got = _power_law_moments(RegularDensity(1.0, q, alpha), 40)
    with mp.workdps(30):
        for s in (0, 1, 5, 40):
            def entry(lam):
                mu = (lam - 0.5) / (lam + 0.5)
                return (lam - alpha) ** (q - 1) * mu ** s / (lam + 0.5) ** 2
            want = mp.quad(entry, [alpha, alpha + 1, mp.inf]) / mp.gamma(q)
            assert abs(got[s] - float(want)) <= 1e-14 * max(1.0, abs(got[s]))


@pytest.mark.parametrize("q, alpha", [(1.55, 0.0), (1.7, 1.0), (1.99, 0.5)])
def test_moment_recurrence_near_q_2_matches_jacobi_weight_quadrature(q, alpha):
    # the moments of (mu-a)^{q-1} (1-mu)^{1-q} by QUADPACK's algebraic-weight rule
    integrate = pytest.importorskip("scipy.integrate")
    a = (alpha - 0.5) / (alpha + 0.5)
    got = _power_law_moments(RegularDensity(1.0, q, alpha), 40)
    for s in (0, 1, 7, 40):
        m, _ = integrate.quad(lambda mu: mu ** s, a, 1.0, weight="alg", wvar=(q - 1, 1 - q),
                              epsabs=1e-15, epsrel=1e-14)
        want = m * (alpha + 0.5) ** (q - 1) / math.gamma(q)
        assert abs(got[s] - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("q, alpha", [(1.9, 20.0), (1.5, 20.0), (1.9, 3.0), (1.0, 20.0),
                                      (0.5, 20.0), (-1.5, 20.0)])
def test_moment_recurrence_matches_hypergeometric_closed_form(q, alpha):
    # m_s = c (alpha+1/2)^{q-1} b Gamma(2-q) a^s 2F1(-s, q; 2; -b/a), b = 1/(alpha+1/2),
    # a = (alpha-1/2) b: at large alpha a three-term recurrence on m_s drifts to
    # 2.6e-12 of max|m| by s = 2046
    mp = pytest.importorskip("mpmath")
    part = (RegularDensity if q > 0 else RegularizedPower)(1.3, q, alpha)
    got = _power_law_moments(part, 2046).real
    top = np.max(np.abs(got))
    with mp.workdps(50):
        b = 1 / (mp.mpf(alpha) + 0.5)
        a = (mp.mpf(alpha) - 0.5) * b
        m0 = mp.mpf(1.3) * (mp.mpf(alpha) + 0.5) ** (q - 1) * b * mp.gamma(2 - mp.mpf(q))
        for s in (1, 7, 60, 400, 1200, 2046):
            want = m0 * a ** s * mp.hyp2f1(-s, q, 2, -b / a)
            assert abs(got[s] - float(want)) <= 2e-13 * top


def _reference_power_law_moments(part, smax):
    """``_power_law_moments`` with its loop reading the row coefficients
    from s, the loop the coefficient lists must reproduce bit for bit."""
    q, r = part.q, part.r
    b = 1.0 / (part.alpha + 0.5)
    a = (part.alpha - 0.5) * b
    c1, rb = b * (q - 1.0) + r, r * b
    if r:
        sig = SigmaDistribution((part,))
        e0, e00 = galerkin._NORMALISERS
        f0 = sigma_pair(sig, e0, e0, 1e-13)
        if r * smax > galerkin._FORWARD_RS:
            return f0 * _reference_minimal_moment_ratios((a, c1, c1 - rb), smax)
        d = (sigma_pair(sig, e0, e00, 1e-13) / f0).real
    else:
        f0 = part.c * (part.alpha + 0.5) ** (q - 1.0) * b * math.gamma(2.0 - q)
        d = b * (1.0 - 0.5 * q)
    m, mc, dprev = [1.0], 1.0, 0.0
    for s in range(smax):
        dnext = ((s + 1 + a * (s + 2) + c1) * d - s * a * dprev - rb * mc) / (s + 3)
        mc, dprev, d = mc - d, d, dnext
        m.append(mc)
    return f0 * np.array(m)


def _reference_minimal_moment_ratios(coeffs, smax):
    """``_minimal_moment_ratios`` with its elimination reading the row
    coefficients from s."""
    a, c1, c2 = coeffs
    eps = np.finfo(float).eps
    u, y, prod = [], [], 1.0
    for s in range(64 * (smax + 64)):
        diag = -((s + 2) * (2.0 + a) + c1)
        sub1 = (s + 1) * (1.0 + 2.0 * a) + c2
        if s == 0:
            rhs, sub1 = -sub1, 0.0
        elif s == 1:
            rhs = a
        else:
            l2 = -s * a / u[s - 2]
            sub1 -= l2 * (s + 1)
            rhs = -l2 * y[s - 2]
        if s:
            l1 = sub1 / u[s - 1]
            diag -= l1 * (s + 2)
            rhs -= l1 * y[s - 1]
        u.append(diag)
        y.append(rhs)
        if s >= smax - 1:
            prod *= abs((s + 3) / diag)
            if s >= smax and abs(rhs / diag) * prod <= eps:
                break
    else:
        raise ArithmeticError("no decaying solution")
    m = np.empty(s + 3)
    m[0], m[s + 2] = 1.0, 0.0
    for k in range(s, -1, -1):
        m[k + 1] = (y[k] - (k + 3) * m[k + 2]) / u[k]
    return m[:smax + 1]


@pytest.mark.parametrize("q, alpha, r", [
    (0.5, 0.0, 0.0), (1.9, 20.0, 0.0), (-1.5, 1.0, 0.0), (-2.5, 0.3, 0.0),  # closed-form starts
    (0.5, 1.0, 1e-3), (-2.5, 1.0, 0.005),  # forward from quadrature starts, r smax <= 16
    (2.5, 0.1, 1.0), (-2.5, 1.0, 1.0), (0.5, 5.0, 0.05),  # boundary-value problem
])
def test_moment_loops_match_their_per_row_references_bitwise(q, alpha, r):
    # the coefficient lists round each row's coefficients as the row did
    part = (RegularDensity if q > 0 else RegularizedPower)(0.7, q, alpha, r)
    for smax in (0, 1, 2, 46, 2046):
        got, ref = _power_law_moments(part, smax), _reference_power_law_moments(part, smax)
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("q, alpha, r", [
    (0.5, 1.0, 0.01),  # runs past the first smax + 64 rows at every smax
    (2.5, 0.1, 1.0), (-2.5, 1.0, 0.1),
    (0.5, 1.0, 0.0),  # no decaying solution: the row cap
])
def test_olver_elimination_matches_its_per_row_reference_bitwise(q, alpha, r):
    b = 1.0 / (alpha + 0.5)
    c1 = b * (q - 1.0) + r
    coeffs = ((alpha - 0.5) * b, c1, c1 - r * b)
    for smax in (5, 200, 2046) if r else (5, 200):
        try:
            ref = _reference_minimal_moment_ratios(coeffs, smax)
        except ArithmeticError:
            with pytest.raises(ArithmeticError, match="no decaying solution"):
                galerkin._minimal_moment_ratios(coeffs, smax)
            continue
        assert galerkin._minimal_moment_ratios(coeffs, smax).tobytes() == ref.tobytes()


def test_assemble_single_entry():
    kern = carleman() + quasi_carleman(0.5, -1.5, 1.0, 0.0)
    sec = assemble(kern, 1)
    assert sec.matrix.shape == (1, 1)
    assert sec.matrix[0, 0] == assemble(kern, 4).matrix[0, 0]


def test_assemble_q_below_2_is_a_positive_section():
    # q = 1.7 diverged in the quadrature path; its form is finite and nonnegative
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sec = assemble(quasi_carleman(1.0, 1.7, 1.0, 0.0), 64)
    assert np.all(np.isfinite(sec.matrix))
    assert section_inertia(sec)[1] == 0


def test_assemble_holds_no_subnormal_entry():
    # Carleman's odd entries are exactly 0, so the odd entries here are the
    # delta part alone, which decays geometrically below the normal range
    tiny = np.finfo(float).tiny
    fr = finite_rank([0.6, -1.0], 0.8)
    deltas = _delta_moments(sigma_of_kernel(fr).parts[0], 2046).real
    assert np.any((deltas != 0) & (np.abs(deltas) < tiny))
    h = assemble(carleman() + fr, 1024).matrix
    assert not np.any((h != 0) & (np.abs(h) < tiny))


def test_section_symmetric():
    sec = assemble(finite_rank([1.0, -0.4], 0.9) + carleman(), 24)
    assert np.max(np.abs(sec.matrix - sec.matrix.T)) < 1e-12
    # Hankel: the gather H[j, k] = f[j + k] of its first row and last column
    f = np.concatenate([sec.matrix[0], sec.matrix[1:, -1]])
    idx = np.arange(24)
    assert np.array_equal(sec.matrix, f[idx[:, None] + idx[None, :]])


def test_section_inertia_basics():
    sec = assemble(carleman(), 64)
    npos, nneg = section_inertia(sec)
    assert nneg == 0
    neg = assemble(quasi_carleman(-1.0, 1.0, 0.0, 0.0), 8)
    assert section_inertia(neg) == (0, 8)
    rank1 = assemble(finite_rank([1.0], 1.0), 6)
    assert section_inertia(rank1) == (1, 0)


def test_small_fractional_section_inertia():
    # one positive direction from the finite part, three visible negatives
    sec = assemble(quasi_carleman(1.0, -0.5, 1.0, 0.0), 4)
    assert section_inertia(sec) == (1, 3)


def test_stabilized_finite_branch():
    h = carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0)
    est = stabilized_negcount(h, (16, 32, 64, 128))
    assert est.kind == "finite" and est.value == 1


def test_stabilized_infinite_branch():
    est = stabilized_negcount(quasi_carleman(1.0, -0.5, 1.0, 0.0), (8, 16, 32, 64, 128))
    assert est.kind == "infinite-suspected"
    assert all(h[2] == 1 for h in est.history)  # one positive direction, pinned


def test_stabilized_undecided_is_reported():
    h = carleman() + quasi_carleman(-1.0, -1.5, 1.0, 0.0)
    est = stabilized_negcount(h, (8, 16, 32))
    assert est.kind == "undecided"


def test_stabilized_zero_kernel():
    est = stabilized_negcount(Kernel(()), (8, 16, 32))
    assert est.kind == "finite" and est.value == 0


def test_stabilized_max_eigs_are_section_tops():
    kern = carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0)
    sizes = (16, 32, 64)
    est = stabilized_negcount(kern, sizes)
    top = assemble(kern, 64)
    assert len(est.max_eigs) == len(sizes)
    for n, mx in zip(sizes, est.max_eigs):
        assert mx == float(np.linalg.eigvalsh(top.matrix[:n, :n])[-1])
    doc = est.to_json()
    assert set(doc) == {"kind", "value", "history"}
    assert doc["history"] == [[n, *section_inertia(FiniteSection(n, top.matrix[:n, :n]))[::-1]] for n in sizes]
    assert all(h[1] == 1 for h in doc["history"])


def test_stabilized_rejects_repeated_sizes():
    # three copies of one section would "agree" on a finite count, though
    # N- of this kernel is infinite
    kern = quasi_carleman(1.0, -0.5, 1.0, 0.0)
    for sizes in ((64, 64, 64), (16, 32, 32)):
        with pytest.raises(ValueError, match="distinct"):
            stabilized_negcount(kern, sizes)
    est = stabilized_negcount(kern, (16, 32, 32, 64))
    assert [h[0] for h in est.history] == [16, 32, 64]
    assert est.kind == "infinite-suspected"


@pytest.mark.parametrize("sizes", [(-1, 1, 2), (0, 1, 2)])
def test_stabilized_rejects_sizes_below_1(sizes):
    # -1 read h[:-1, :-1], a block of another size; 0 failed inside numpy
    with pytest.raises(ValueError, match=r"positive integers, got \[%d, 1, 2\]" % sizes[0]):
        stabilized_negcount(carleman(), sizes)


def test_stabilized_sizes_are_plain_integers():
    kern = quasi_carleman(1.0, -0.5, 1.0, 0.0)
    with pytest.raises(TypeError, match="integer"):
        stabilized_negcount(kern, (16, 32, 64.0))
    with pytest.raises(ValueError, match="bool"):
        stabilized_negcount(kern, (True, 2, 3))  # not the sizes 1, 2, 3
    est = stabilized_negcount(kern, np.array([16, 32, 64]))
    assert all(type(h[0]) is int for h in est.history)
    assert json.loads(json.dumps(est.to_json()))["history"][0][0] == 16


@pytest.mark.parametrize("sizes", [(16, 32, 64), (128, 256, 512)])  # dense and sketched
def test_overflowing_entries_are_a_numerical_failure(sizes):
    # v0 = 1e308 times Gamma(3/2)/Gamma(1/2) (alpha + 1/2)^{-3/2}: every entry is inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an unbounded positive form
        warnings.simplefilter("error", RuntimeWarning)  # no inf reaches a matmul
        with pytest.raises(ArithmeticError, match=r"not finite: H\[j, k\] for %d of the %d"
                           % (2 * sizes[-1] - 1, 2 * sizes[-1] - 1)):
            stabilized_negcount(quasi_carleman(1e308, 0.5, 0.0, 0.0), sizes)


@pytest.mark.parametrize("n", [0, -3])
def test_assemble_rejects_sizes_below_1(n):
    with pytest.raises(ValueError, match="positive integer, got %d" % n):
        assemble(carleman(), n)


@pytest.fixture
def eigvalsh_shapes(monkeypatch):
    """Records the shape of every matrix handed to ``np.linalg.eigvalsh``."""
    shapes, real = [], np.linalg.eigvalsh

    def recording(a):
        shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return shapes


LARGE_SIZES = (128, 256, 512, 1024)


@pytest.mark.parametrize("kern", [
    carleman(),
    carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0),
    carleman() + finite_rank([1.0 + 0.5j, -0.3 + 0.2j], 1.0 + 0.7j),
    quasi_carleman(1.0, -2.5, 1.0, 1.0),
], ids=["carleman", "fractional", "carleman+pair", "qc(1,-2.5,1,1)"])
def test_compressed_sections_match_dense(kern, eigvalsh_shapes):
    est = stabilized_negcount(kern, LARGE_SIZES)
    # every eigvalsh on a reduced matrix: no dense fallback
    assert max(shape[0] for shape in eigvalsh_shapes) <= 64
    top = assemble(kern, LARGE_SIZES[-1]).matrix
    for (n, nneg, npos), mx, margin in zip(est.history, est.max_eigs, est.margins):
        ev = np.linalg.eigvalsh(top[:n, :n])
        assert _inertia(ev)[1::-1] == (nneg, npos)
        assert abs(mx - ev[-1]) <= 1e-13 * abs(ev[-1])
        assert margin > 0


def _reference_section_spectra(h, sizes):
    """(spectra, counts) of the sketch with a QR per block: Q = qr(H Omega),
    and the block of size s read from U^T H_s U, U = qr(Q[:s])."""
    n, eps = len(h), np.finfo(float).eps
    omega = np.random.default_rng(galerkin._SEED).standard_normal((n, galerkin._RANK))
    q = np.linalg.qr(h @ omega)[0]
    spectra = []
    for s in sizes:
        u = np.linalg.qr(q[:s])[0]
        theta = np.linalg.eigvalsh(u.T @ (h[:s, :s] @ u))
        spectra.append(np.sort(np.concatenate([theta, np.zeros(s - len(theta))])))
    return spectra, [_inertia(ev, s * eps * np.max(np.abs(ev))) for s, ev in zip(sizes, spectra)]


@pytest.mark.parametrize("kern", [
    carleman(),
    carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0),
    carleman() + finite_rank([1.0 + 0.5j, -0.3 + 0.2j], 1.0 + 0.7j),
    quasi_carleman(1.0, -2.5, 1.0, 1.0),
], ids=["carleman", "fractional", "carleman+pair", "qc(1,-2.5,1,1)"])
def test_section_sweep_matches_a_qr_per_block(kern):
    # the TSQR basis U_s spans range(Y[:s]), as qr(Q[:s]) does, also for
    # blocks below _RANK rows, where U_s is square
    h = assemble(kern, 1024).matrix
    dense = {}
    for sizes in (LARGE_SIZES, (16, 48, 100, 300, 1024)):
        spectra, counts, saturated = _section_spectra(h, sizes)
        assert not saturated
        for s, ev, c, ref_ev, ref_c in zip(sizes, spectra, counts,
                                           *_reference_section_spectra(h, sizes)):
            if s not in dense:
                dense[s] = _inertia(np.linalg.eigvalsh(h[:s, :s]))
            assert c[:3] == ref_c[:3]
            assert c[0] <= dense[s][0] and c[1] <= dense[s][1]
            assert np.max(np.abs(ev - ref_ev)) <= 1e-13 * np.max(np.abs(ref_ev))


@pytest.mark.parametrize("sizes", [LARGE_SIZES, (16, 48, 100, 300, 1024)])
def test_section_sweep_work(monkeypatch, sizes):
    # one QR row per section row plus at most _RANK rows of R per block
    # (1,216 at LARGE_SIZES, where a QR of Q and one per block took 1,920),
    # and one Gaussian draw per section size
    qr_rows, draws = [], []
    qr, default_rng = np.linalg.qr, np.random.default_rng
    monkeypatch.setattr(np.linalg, "qr", lambda a: (qr_rows.append(len(a)), qr(a))[1])
    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: (draws.append(seed), default_rng(seed))[1])
    galerkin._gaussian_sketch.cache_clear()
    h = _closed_form_carleman(sizes[-1])
    first = _section_spectra(h, sizes)
    assert sum(qr_rows) <= sizes[-1] + len(sizes) * galerkin._RANK
    if sizes == LARGE_SIZES:
        assert sum(qr_rows) == 1216
    assert len(qr_rows) == len(sizes)
    second = _section_spectra(h, sizes)
    assert draws == [galerkin._SEED]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first[0], second[0]))
    assert not galerkin._gaussian_sketch(sizes[-1]).flags.writeable


def test_full_rank_matrix_falls_back_to_dense(eigvalsh_shapes):
    a = np.random.default_rng(7).standard_normal((512, 512))
    h = a + a.T
    sizes = (128, 256, 512)
    # a full-rank matrix saturates the sketch: all 64 Ritz values beyond tau
    spectra, _, dense = _section_spectra(h, sizes)
    assert dense
    assert [shape[0] for shape in eigvalsh_shapes[-3:]] == list(sizes)
    for s, ev in zip(sizes, spectra):
        assert np.array_equal(ev, np.linalg.eigvalsh(h[:s, :s]))


def _with_spectrum(n, eigenvalues):
    """An n x n symmetric matrix with these nonzero eigenvalues."""
    u = np.linalg.qr(np.random.default_rng(3).standard_normal((n, len(eigenvalues))))[0]
    return (u * eigenvalues) @ u.T


def test_eigenvalue_near_threshold_keeps_the_sketch(eigvalsh_shapes):
    # eigenvalues (-1/2)^k down to 2e-12 on either side of the threshold
    # tau = 1e-10 (max|ev| = 1): Ritz values, with room to spare
    decaying = [(-0.5) ** k for k in range(40)]
    sizes = (128, 256, 512)
    _, counts, dense = _section_spectra(_with_spectrum(512, decaying), sizes)
    assert max(shape[0] for shape in eigvalsh_shapes) <= 64 and min(c[3] for c in counts) > 0
    assert not dense
    # one more eigenvalue 1e-19 from tau, far inside the rounding error: its
    # margin is negative and reported, and nothing falls back
    _, counts, dense = _section_spectra(_with_spectrum(512, decaying + [1e-10 * (1 + 1e-9)]),
                                        sizes)
    assert max(shape[0] for shape in eigvalsh_shapes) <= 64 and not dense
    assert counts[-1][3] < 0


def test_carleman_counts_at_large_sizes_stay_on_the_sketch(eigvalsh_shapes):
    # one margin of Carleman's lies within rounding of tau at N = 2048; the
    # counts are Ritz lower bounds, so it costs no dense eigvalsh
    start = time.perf_counter()
    est = stabilized_negcount(carleman(), (256, 512, 1024, 2048))
    elapsed = time.perf_counter() - start
    assert est.history[-1] == (2048, 0, 38)
    assert max(shape[0] for shape in eigvalsh_shapes) <= 64 and not est.dense_fallback
    assert elapsed < 1.0


def test_section_spectra_memory():
    # the sketch makes no N x N temporary
    n = LARGE_SIZES[-1]
    h = _closed_form_carleman(n)
    tracemalloc.start()
    try:
        _section_spectra(h, LARGE_SIZES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n


def test_nested_counts_monotone():
    kern = quasi_carleman(1.0, -0.5, 1.0, 0.0)
    top = assemble(kern, 128)
    prev_neg, prev_max = -1, -np.inf
    for n in (8, 16, 32, 64, 128):
        sub = FiniteSection(n, top.matrix[:n, :n])
        _, nneg = section_inertia(sub)
        mx = float(np.linalg.eigvalsh(sub.matrix)[-1])
        assert nneg >= prev_neg and mx >= prev_max - 1e-12
        prev_neg, prev_max = nneg, mx


def _spectrum_ends(n, q=1.0):
    """(min_eig, max_eig) of the section of t^{-q}, by the dense eigvalsh: the
    compression of ``_section_spectra`` does not resolve the smallest one."""
    ev = np.linalg.eigvalsh(assemble(quasi_carleman(1.0, q), n).matrix)
    return float(ev[0]), float(ev[-1])


def test_carleman_spectrum_study():
    mn, mx = _spectrum_ends(1)
    assert mx == pytest.approx(2.0, abs=1e-10)
    prev = 0.0
    for n in (64, 128, 256):
        mn, mx = _spectrum_ends(n)
        assert mn > -1e-12
        assert prev < mx < math.pi
        prev = mx
    # eigenvalue oracle pins the floor at N = 64
    assert _spectrum_ends(64)[1] > 2.65


def test_homogeneous_non_carleman_sections_grow():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tops = [_spectrum_ends(n, q=0.5)[1] for n in (16, 64, 256)]
    assert tops[0] < tops[1] < tops[2]
    assert tops[2] > 10  # no visible bound, unlike the q = 1 case


def test_assemble_unbounded_warns():
    with pytest.warns(UserWarning):
        assemble(quasi_carleman(1.0, 0.5, 0.0, 0.0), 8)


def test_assemble_non_integer_q_above_1_takes_the_singular_end_rule():
    # q = 1.5, r = 1: Gauss-Legendre from alpha capped a panel at 6e4 x budget
    # and was 9.8e-13 off; tanh-sinh on the singular end is not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assemble(carleman() + quasi_carleman(0.2, 1.5, 1.0, 1.0), 8)


def test_assemble_form_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # with r = 0, every q >= 2 diverges, not only Gamma(2-q)'s poles
        for kern in (quasi_carleman(1.0, 3.0, 1.0, 0.0), quasi_carleman(1.0, 2.0, 0.0, 0.0),
                     quasi_carleman(1.0, 2.5, 1.0, 0.0), carleman() + quasi_carleman(0.1, 2.5, 0.5)):
            with pytest.raises(FormDomainError):
                assemble(kern, 8)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_gaussian_certificate_infinite_branch():
    cert = certificate(carleman(), quasi_carleman(-1.0, -1.5, 1.0, 0.0), 4)
    assert cert.kind == "gaussian-family" and cert.success
    # diagonal matches the small-eps limit of the singular pairing
    from math import gamma as rgamma, sqrt, pi
    for a_j, g_jj in zip(cert.params["centers"], np.diag(cert.gram).real):
        limit = -1.0 / rgamma(-1.5) * sqrt(pi / 2) * (a_j - 1.0) ** -2.5
        assert g_jj < 0 and abs(g_jj - limit) < 0.25 * abs(limit) + 2.0


def test_gaussian_certificate_sees_a_positive_density_at_beta(monkeypatch):
    # sigma is positive near beta = 1, so no trial there pairs negatively; with
    # the near piece blind to the trials' knots this certified 3.  Every
    # entry of all 12 rounds is Gauss-Hermite in z: through the adaptive
    # pairing in lam the windows' rounding, ~1e-16/eps, capped 17 panels
    calls = []
    adaptive_gl = _quad.adaptive_gl

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return adaptive_gl(*args, **kwargs)

    monkeypatch.setattr(_quad, "adaptive_gl", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certificate(quasi_carleman(1.0, 0.5, 1.0, 0.0),
                           quasi_carleman(-0.01, 1.0, 1.0, 0.0), 3)
    assert cert.achieved == 0 and not cert.success
    assert np.all(np.diag(cert.gram).real > 0)
    assert calls == []


def test_gaussian_certificate_shallow_well():
    cert = certificate(carleman(), quasi_carleman(-1.1, 1.0, 1.0, 1.0), 3)
    assert cert.success and cert.achieved >= 3


def test_window_certificate_finite_branch():
    cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.0), 1)
    assert cert.kind == "polynomial-window" and cert.success


def test_window_certificate_with_shift():
    # rho > 0 exercises the series polynomial R
    cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.5), 1)
    assert cert.kind == "polynomial-window" and cert.success


def test_window_certificate_cannot_exceed_dimension():
    # every round fails, so eps halves down to 1.2e-4.  From eps = 4.9e-4 on,
    # the finite part's middle piece caps panels at max_depth: the window,
    # evaluated at the rounded lam = alpha + u, carries relative noise in u of
    # up to 5.3e-12 (eps = 4.9e-4) to 2.2e-11 (eps = 1.2e-4), far above the
    # 50 eps floor of 1.1e-14.  The predicted count is 1, so ``certificate``
    # itself takes the gaussian family
    sig = sigma_of_kernel(carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0))
    with pytest.warns(RuntimeWarning, match="max_depth"):
        cert = _first_success(_certify_window(sig, 1.0, 0.0, 1, 2))
    assert not cert.success and cert.achieved <= 1


def test_interpolation_certificate_single_term():
    cert = certificate(Kernel(()), finite_rank([0, 0, 1.0], 1.0), 1)
    assert cert.kind == "interpolation" and cert.success and cert.achieved == 1


def test_interpolation_certificate_mixed_kernel():
    v = finite_rank([0, 1.0, 0.5], 0.8) + finite_rank([1.0, 0.5j], 1 + 1j)
    target = predict_finite_rank(v).n_minus.n
    cert = certificate(carleman(), v, target)
    assert cert.success and cert.achieved >= target


def _derivatives(trial, kappa, order):
    jet = trial.jet(kappa, order)
    return jet.coeffs * np.array([math.factorial(l) for l in range(order + 1)])


def test_interpolation_trials_carry_the_sign_block():
    # The interpolation Gram takes its finite-rank block as diag of the
    # negative sign-matrix eigenvalues.  That holds because every trial's
    # jets at the exponents are its eigenvector: check it on the trials.
    v = finite_rank([0, 1.0, 0.5], 0.8) + finite_rank([1.0, 0.5j], 1 + 1j)
    kappas, directions = _sign_directions(v.conjugate_groups())
    assert len(directions) == predict_finite_rank(v).n_minus.n
    lams = np.array([lam for lam, _, _ in directions])
    assert np.all(lams < 0)
    trials = [_end_spec(_interpolation_ends(kind, ends, kappas, 0.2))
              for _, kind, ends in directions]
    for trial, (_, _, ends) in zip(trials, directions):
        own = [kap for kap, _ in ends]
        for kap, a in ends:
            assert np.max(np.abs(_derivatives(trial, kap, len(a) - 1) - a)) < 1e-12
        for kap, order in kappas:
            if kap not in own:
                assert np.max(np.abs(_derivatives(trial, kap, order))) < 1e-12
    m = len(trials)
    g = np.zeros((m, m), dtype=complex)
    for term in v.fr_terms:
        s = DeltaCombo(term.beta, term.coeffs).sign_entries()
        kap, kap_bar = -np.log(term.beta), -np.log(np.conj(term.beta))
        for i in range(m):
            for j in range(m):
                g[i, j] += (np.conj(_derivatives(trials[i], kap_bar, term.degree)) @ s
                            @ _derivatives(trials[j], kap, term.degree))
    assert np.max(np.abs(g - np.diag(lams))) < 1e-10 * np.max(np.abs(lams))
    # without an s0 part the certificate is that block, built in one round
    cert = certificate(Kernel(()), v, len(directions))
    assert cert.success and cert.eps == 0.2
    assert np.array_equal(cert.gram, np.diag(lams).astype(complex))


def test_interpolation_certificate_decomposes_each_matrix_once(monkeypatch, eigvalsh_shapes):
    # one eigh per conjugate group's sign-matrix (a real exponent, then the
    # 4 x 4 block of a pair) and one eigvalsh per round: no sign-matrix
    # inertia is computed on the side
    eigh_shapes, real = [], np.linalg.eigh

    def recording(a):
        eigh_shapes.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    v = finite_rank([0, 1.0, 0.5], 0.8) + finite_rank([1.0, 0.5j], 1 + 1j)
    cert = certificate(Kernel(()), v, 1)
    assert cert.success
    assert eigh_shapes == [(3, 3), (4, 4)]
    assert eigvalsh_shapes == [(len(cert.gram),) * 2]


def test_interpolation_certificate_rejects_what_it_cannot_pair():
    v = finite_rank([-1.0], 1.0)
    # the construction pairs the trials with a density part of h0 only
    for h0 in (quasi_carleman(1.0, -1.5, 1.0, 0.0) + finite_rank([2.0], 3.0),
               quasi_carleman(1.0, -1.5, 1.0, 0.0), finite_rank([2.0], 3.0)):
        with pytest.raises(ValueError, match="h0"):
            certificate(h0, v, 1)
    # a real exponent with a complex coefficient has no conjugate partner
    with pytest.raises(NonSelfAdjointError):
        certificate(Kernel(()), Kernel((FiniteRankTerm((-1.0 + 0.5j,), 1.0),)), 1)


def test_certificate_soundness_on_finite_branches():
    # on finite-count operators the variational lower bound cannot exceed
    # the section count at a sufficient size
    h0 = carleman()
    v = quasi_carleman(1.0, -1.5, 1.0, 0.0)
    cert = certificate(h0, v, 1)
    est = stabilized_negcount(h0 + v, (64, 128, 256))
    assert cert.achieved <= est.history[-1][1]
    v2 = finite_rank([0, 1.0], 1.0)
    cert2 = certificate(Kernel(()), v2, 1)
    est2 = stabilized_negcount(v2, (64, 128, 256))
    assert cert2.achieved <= est2.history[-1][1]


def test_gaussian_certificate_refuses_alpha_0():
    # the gaussian family centres above beta = alpha; at alpha = 0 it used
    # to stop in math.log(0) with a bare "math domain error"
    with pytest.raises(CertificateInputError, match="alpha = 0"):
        certificate(carleman(), quasi_carleman(-2.0, 1.0, 0.0, 0.0), 1)


def test_certificate_accepts_a_bare_term():
    # as predict_perturbed does: a fractional term takes the gaussian family,
    # an integer q = -k <= 0 term is finite rank and takes interpolation
    cert = certificate(carleman(), QuasiCarlemanTerm(-1.0, -1.5, 1.0, 0.0), 2)
    assert cert.success and cert.kind == "gaussian-family" and cert.achieved >= 2
    cert = certificate(carleman(), QuasiCarlemanTerm(-1.0, -2.0, 1.0, 0.0), 1)
    assert cert.success and cert.kind == "interpolation" and cert.achieved >= 1


def test_certificate_target_validation():
    with pytest.raises(ValueError):
        certificate(carleman(), finite_rank([-1.0], 1.0), 0)


# ---------------------------------------------------------------------------
# closed-form certificate Gram matrices (gaussian moments)
# ---------------------------------------------------------------------------

def _eps_schedule(eps0):
    return [eps0 * 0.5 ** r for r in range(_ROUNDS)]


def test_gaussian_gram_matches_the_log_gaussian_formula():
    # on c/Gamma(q) lam^{q-1}, <w_i, w_j> = c/Gamma(q) sqrt(pi/2)
    # exp(-d^2/(2 eps^2) + (q-1) S/2 + (q-1)^2 eps^2/8), d and S the
    # difference and sum of ln A_i, ln A_j: every entry, every round
    parts = ((1.0, 1.0), (0.5, 0.5))
    sig = sigma_of_kernel(carleman() + quasi_carleman(0.5, 0.5))
    rounds = list(_certify_gaussian(sig, 1.0, 3))
    assert len(rounds) == _ROUNDS
    for cert in rounds:
        x = np.log(cert.params["centers"])
        d, s = x[:, None] - x[None, :], x[:, None] + x[None, :]
        eps = cert.eps
        exact = sum(c / math.gamma(q) * math.sqrt(math.pi / 2)
                    * np.exp(-d ** 2 / (2 * eps ** 2) + (q - 1) * s / 2 + (q - 1) ** 2 * eps ** 2 / 8)
                    for c, q in parts)
        err = np.abs(cert.gram - exact)
        # entries as small as exp(-100) keep 1e-13 of their own size
        assert np.all(err <= 1e-12 * np.abs(exact)) and np.max(err) <= 2e-15 * np.max(exact)
        assert cert.gram_err == pytest.approx(3 * np.finfo(float).eps * np.max(np.abs(cert.gram)))


def test_degree_zero_interpolation_trial_in_closed_form():
    # a real degree-0 trial is a exp(-(x-kappa)^2/eps^2); against
    # s0 = w e^{(1-q) x} its square pairs to
    # w a^2 e^{-(q-1) kappa} eps sqrt(pi/2) e^{(q-1)^2 eps^2/8}
    v = finite_rank([-1.0], 0.6)
    (lam, _, ((kappa, a),)), = _sign_directions(v.conjugate_groups())[1]
    c, q = 0.7, 0.5
    w = c / math.gamma(q)
    sig0 = sigma_of_kernel(quasi_carleman(c, q))
    rounds = list(_certify_interpolation(sig0, v, 1))
    assert [cert.eps for cert in rounds] == _eps_schedule(_INTERPOLATION_EPS)
    for cert in rounds:
        eps = cert.eps
        exact = (w * abs(a[0]) ** 2 * math.exp(-(q - 1) * kappa.real) * eps * math.sqrt(math.pi / 2)
                 * math.exp((q - 1) ** 2 * eps ** 2 / 8))
        end, = _interpolation_ends("real", ((kappa, a),), [(kappa, 0)], eps)
        s0, err = _end_moment(sig0.parts[0], end, end)
        assert abs(s0 - exact) <= 1e-14 * exact and err == 0.0
        # the certificate adds the sign block -1/beta
        assert cert.gram[0, 0] == lam + s0 and lam == pytest.approx(-1 / 0.6)


def test_s0_quadrature_sees_narrow_real_trials():
    # alpha = 0.01 keeps the background on the quadrature path, with
    # s0(x) = 1 below x = -ln 0.01.  A real degree-0 trial is
    # a exp(-(x-kappa)^2/eps^2) and pairs to a^2 sqrt(pi/2) eps; its window's
    # knots let the quadrature see it at every eps (without them it read
    # 1.4e-174 at eps = 7.8e-4).  The rounding of the nodes' positions,
    # ~1e-16 against a width of 1e-4, bounds the agreement near 1e-12.
    sig0 = sigma_of_kernel(quasi_carleman(1.0, 1.0, 0.01, 0.0))
    kappas, directions = _sign_directions(finite_rank([-1.0], 0.6).conjugate_groups())
    (_, kind, ends), = directions
    a = ends[0][1][0]
    for eps in _eps_schedule(0.2):
        u = _end_spec(_interpolation_ends(kind, ends, kappas, eps))
        exact = abs(a) ** 2 * math.sqrt(math.pi / 2) * eps
        assert abs(_s0_pair_x(sig0.parts, u, u, 1e-12) - exact) <= 1e-11 * exact, eps


def test_conjugate_pair_ends_split_s0_quadrature_at_their_own_knots(monkeypatch):
    # a pair end's window exp(-i sg y/eps - (z - Re kappa)^2) declares its
    # peak and +-4 widths, so _s0_pair_x needs no fixed grid: 3,312
    # integrand nodes for this certificate in lam = e^{-x} (1,728 on the
    # former x-side window [-40, 40], 5,616 with a 25-point grid on
    # [-12, 12]).  Only _s0_pair_x reaches adaptive quadrature here
    nodes = []
    segment = _quad._adaptive_segment

    def counted(f, a, b, atol):
        def g(x):
            nodes.append(len(x))
            return f(x)
        return segment(g, a, b, atol)

    monkeypatch.setattr(_quad, "_adaptive_segment", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certificate(quasi_carleman(1.0, 1.0, 0.0, 1.0), finite_rank([1.0, 0.5j], 1 + 1j), 2)
    assert cert.success and cert.eps == _INTERPOLATION_EPS
    assert 0 < sum(nodes) <= 3800
    # the Gram diagonal as the grid computed it
    assert np.real(np.diag(cert.gram)) == pytest.approx([-0.9655436157682001, -0.06467130842928011],
                                                        rel=1e-10)


def test_s0_block_matches_mpmath_at_a_density_edge():
    # s0(x) = c/Gamma(q) (e^{-x} - alpha)^{q-1} is singular at x = -ln alpha,
    # where no end declares a knot; the s0 block pairs in lam = e^{-x} through
    # the density engine's tanh-sinh at alpha (the former window [-40, 40] in x
    # was 6.6e-7 off here, with gram_err 2e-12)
    mp = pytest.importorskip("mpmath")
    part, = parts = sigma_of_kernel(quasi_carleman(1.0, 0.7, 0.2, 0.0)).parts
    kappas, directions = _sign_directions(finite_rank([1.0, 0.5j], 0.9 + 0.6j).conjugate_groups())
    specs = [_end_spec(_interpolation_ends(kind, e, kappas, 0.2)) for _, kind, e in directions]
    edge = -math.log(part.alpha)
    with mp.workdps(20):
        for i, u in enumerate(specs):
            for w in specs[i:]:
                prod = sigma._SpecProduct(u, w)

                def f(x):
                    return (part.weight * (mp.exp(-x) - part.alpha) ** (part.q - 1)
                            * complex(prod(np.array([float(x)]))[0]))

                knots = sorted(k for k in prod.knots if -40.0 < k < edge)
                ref = complex(mp.quad(f, [-40.0] + knots + [edge]))
                assert abs(_s0_pair_x(parts, u, w, 1e-12) - ref) <= 1e-12


@pytest.mark.parametrize("h0, v, target", [
    (quasi_carleman(0.5, 1.6, 1.3, 0.0), finite_rank([1.0, 0.5j], 1 + 1j), 2),
    (quasi_carleman(1.0, 1.0, 0.0, 1.0) + quasi_carleman(0.5, 1.6, 1.3, 0.0),
     finite_rank([0.7, 0.4j, 0.2], 1.1 + 0.5j), 3),
], ids=["edge", "edge+damped"])
def test_interpolation_certificates_at_a_density_edge_cap_no_panel(h0, v, target):
    # the x-side window accepted 3 and 17 panels at max_depth on these
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certificate(h0, v, target)
    assert cert.success and cert.margin > 0


# ---------------------------------------------------------------------------
# Gauss-Hermite certificate entries
# ---------------------------------------------------------------------------

def _mp_gaussian_entry(mp, part, c1, c2, eps):
    """integral sigma_part(e^{-z}) conj(end1) end2 dz of two gaussian ends in
    mpmath, in t = (z - m)/w about their centre m, w = eps/sqrt(2), over
    t in [-9, 9] in steps of 1/2.  For q < 0 the range stops 1 width short
    of z_alpha: beyond, the finite part adds less than e^{-49} of the peak."""
    c1, c2, eps, a = mp.mpf(c1), mp.mpf(c2), mp.mpf(eps), mp.mpf(part.alpha)
    m, w = (c1 + c2) / 2, eps / mp.sqrt(2)
    top = min(9, (-mp.log(a) - m) / w - (1 if part.q < 0 else 0))
    weight = mp.mpf(part.c) / mp.gamma(part.q)

    def f(t):
        z = m + w * t
        u = mp.exp(-z) - a
        return (w * weight * u ** (part.q - 1) / eps
                * mp.exp(-part.r * u - ((z - c1) ** 2 + (z - c2) ** 2) / eps ** 2))

    return complex(mp.quad(f, mp.linspace(-9, top, 37), method="gauss-legendre"))


@pytest.mark.parametrize("v", [quasi_carleman(-1.1, 1.0, 1.0, 1.0),
                               quasi_carleman(-1.0, -1.5, 1.0, 0.0)],
                         ids=["density-r", "finite-part"])
def test_gauss_hermite_gram_entries_match_mpmath(v):
    # the perturbations of the benchmark's gaussian ops on Carleman, paired
    # with the trials of every round: a diagonal entry and the off-diagonal
    # one, which falls from 3e-7 to below 1e-300 as eps shrinks.  Rounding
    # of the exponent, up to ~275 eps relative, bounds the off-diagonal
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 20
    sig = sigma_of_kernel(carleman() + v)
    part = sig.parts[1]
    rounds = list(_certify_gaussian(sig, 1.0, 2))
    assert len(rounds) == _ROUNDS
    for cert in rounds:
        ends = [_gaussian_end(a, cert.eps) for a in cert.params["centers"]]
        for (i, j), rtol in (((0, 0), 2e-15), ((0, 1), 1e-13)):
            value, err = _end_moment(part, ends[i], ends[j])
            ref = _mp_gaussian_entry(mp, part, ends[i][0], ends[j][0], cert.eps)
            assert abs(value - ref) <= rtol * abs(ref) + 1e-300, (cert.eps, i, j)
            assert err <= 1e-15 * abs(ref) + 1e-300
        # the closed-form Carleman block plus these entries is the Gram matrix
        assert cert.gram[0, 0] == (_end_moment(sig.parts[0], ends[0], ends[0])[0]
                                   + _end_moment(part, ends[0], ends[0])[0])


def test_gauss_hermite_gram_entry_of_a_real_interpolation_end():
    # alpha = 0.01 puts z_alpha = 4.6 about 30 widths or more from kappa =
    # -ln 0.6, so the real degree-0 trial a exp(-(x-kappa)^2/eps^2) takes the
    # rule: its square pairs to a^2 sqrt(pi/2) eps on s0 = 1 below z_alpha
    sig0 = sigma_of_kernel(quasi_carleman(1.0, 1.0, 0.01, 0.0))
    kappas, directions = _sign_directions(finite_rank([-1.0], 0.6).conjugate_groups())
    (_, kind, ends), = directions
    a = ends[0][1][0]
    for eps in _eps_schedule(0.2):
        end, = _interpolation_ends(kind, ends, kappas, eps)
        value, err = _end_moment(sig0.parts[0], end, end)
        exact = abs(a) ** 2 * math.sqrt(math.pi / 2) * eps
        assert abs(value - exact) <= 1e-14 * exact and err <= 1e-14 * exact, eps
        u = _end_spec([end])
        assert abs(value - _s0_pair_x(sig0.parts, u, u, 1e-12)) <= 1e-11 * exact, eps


def test_gauss_hermite_gram_route():
    # alpha = 1 puts z_alpha at 0; the 40-point rule of two ends of width
    # eps = 0.01 spans 8.10 widths 0.01/sqrt(2) about their centre
    part = RegularDensity(1.0, 0.5, 1.0)
    reach = (np.polynomial.hermite.hermgauss(2 * _GH_NODES)[0][-1] + _GH_CLEAR) * 0.01 / math.sqrt(2)

    def moment(centre):
        end = _gaussian_end(math.exp(-centre), 0.01)
        return _end_moment(part, end, end)

    assert moment(-0.999 * reach) is None and moment(0.999 * reach) is None
    assert moment(-1.001 * reach)[0] > 0  # on the density's side of z_alpha
    assert moment(1.001 * reach) == (0.0, 0.0)  # where the density vanishes
    # delta parts and conjugate-pair ends stay on the adaptive pairing, even
    # on a part with no branch point (alpha = 0) and where a pair end's
    # product with itself has a real centre
    end = _gaussian_end(1.1, 0.01)
    assert _end_moment(DeltaCombo(1.0, (1.0,)), end, end) is None
    kappas, directions = _sign_directions(finite_rank([1.0, 0.5j], 1 + 1j).conjugate_groups())
    _, kind, ends = directions[0]
    real_end, = _interpolation_ends("real", ((kappas[0][0].real, ends[0][1]),), [], 0.2)
    for pair_end in _interpolation_ends(kind, ends, kappas, 0.2):
        for e1, e2 in ((pair_end, pair_end), (pair_end, real_end), (real_end, pair_end)):
            assert _end_moment(RegularDensity(1.0, 1.0, 0.0, 1.0), e1, e2) is None
    assert _end_moment(RegularDensity(1.0, 1.0, 0.0, 1.0), real_end, real_end) is not None
    # alpha = 0 and r = 0 take the closed form before any check of the ends,
    # so conjugate-pair ends (complex centres and exponents) get it too.  The
    # pair block is ~exp(-2 |Im kappa|/eps) ~ 3e-8, below the quadrature's
    # usual atol 1e-12: at atol 1e-16 the reference agrees to ~2.4e-11 of it
    part = RegularDensity(0.7, 0.5)
    e1, e2 = _interpolation_ends(kind, ends, kappas, 0.2)
    assert np.imag(e1[0]) != 0 and np.any(np.imag(e1[3]))
    for u, w in ((e1, e1), (e1, e2), (e2, e1)):
        value, err = _end_moment(part, u, w)
        assert err == 0.0 and value == part.weight * _gauss_moment(u, w, 1.0 - part.q)
        ref = _s0_pair_x((part,), _end_spec([u]), _end_spec([w]), 1e-16)
        assert abs(value - ref) <= 1e-10 * abs(ref)



def test_gaussian_certificate_gram_err_by_route():
    # Gauss-Hermite entries carry their node-doubling difference, far below
    # the adaptive pairing's atol 1e-11; a delta part of h0 takes every entry
    # through sigma_pair on that part (exact jets, here ~0 as beta = 3 sits
    # far from the trials), which adds m atol
    v = quasi_carleman(-1.1, 1.0, 1.0, 1.0)
    cert = certificate(carleman(), v, 3)
    assert cert.success and cert.gram_err < 1e-14
    with_delta = certificate(carleman() + finite_rank([0.05], 3.0), v, 3)
    assert with_delta.success and with_delta.eps == cert.eps
    assert 3e-11 <= with_delta.gram_err < 3e-11 + 1e-14
    assert np.max(np.abs(with_delta.gram - cert.gram)) <= 1e-15


def _workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("background", ["carleman", "qc(0.7,0.5)", "qc(1.3,1.6)+carleman"])
def test_interpolation_gram_matches_the_s0_quadrature(background):
    # every finite-rank shape of the benchmark, closed form against the
    # adaptive pairing of the same trials, at every eps of the schedule
    h0 = {"carleman": carleman(), "qc(0.7,0.5)": quasi_carleman(0.7, 0.5),
          "qc(1.3,1.6)+carleman": quasi_carleman(1.3, 1.6) + carleman()}[background]
    parts = sigma_of_kernel(h0).parts
    wl = _workloads()
    rng = np.random.default_rng(0)
    for shape in wl.INTERP_SHAPES:
        v = wl._fr_kernel(wl._draw_finite_rank(rng, shape))
        kappas, directions = _sign_directions(v.conjugate_groups())
        for eps in _eps_schedule(0.2):
            ends = [_interpolation_ends(kind, e, kappas, eps) for _, kind, e in directions]
            g, err = _gram(ends, parts, lambda i: _end_spec(ends[i]), _s0_pair_x, 1e-12)
            # trials with no ends take the quadrature on every part
            ref = _gram([()] * len(ends), parts, lambda i: _end_spec(ends[i]), _s0_pair_x, 1e-12)[0]
            assert err == 0.0
            # the scale is the certificate's Gram, sign block included: the
            # s0 block of a pair is ~exp(-2 |Im kappa|/eps), below the
            # quadrature's tolerance from eps = 0.0125 on
            scale = np.max(np.abs(np.diag([lam for lam, _, _ in directions]) + ref))
            assert np.max(np.abs(g - ref)) <= 1e-12 * scale, (shape, eps)


def test_certificate_margin():
    # closed form: the error is m eps max|G|, so the margin is nearly the
    # relative gap of the Gram spectrum to the threshold
    cert = certificate(carleman(), finite_rank([0, 1.0, 0.5], 0.8), 1)
    ev = np.linalg.eigvalsh(cert.gram)
    assert cert.gram_err == pytest.approx(len(ev) * np.finfo(float).eps * np.max(np.abs(cert.gram)))
    assert cert.margin == pytest.approx(np.min(np.abs(ev)) / np.max(np.abs(ev)), rel=1e-6)
    assert cert.margin > 0
    # quadrature entries add m atol
    cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.0), 1)
    assert cert.gram_err >= 1e-11 and 0 < cert.margin < 1
