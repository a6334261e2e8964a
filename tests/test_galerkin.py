"""Finite sections, stabilized counts, spectrum study, certificates."""

import contextlib
import importlib.util
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from hankelsigma import galerkin
from hankelsigma.form import FormDomainError
from hankelsigma.galerkin import (_ROUNDS, _certify_gaussian, _certify_interpolation,
                                  _compression_bound, _end_spec, _gauss_gram, _hermitian_gram,
                                  _interpolation_ends, _LaguerreProducts,
                                  _power_law_moments, _s0_pair_x, _section_spectra,
                                  _sign_directions, assemble, carleman_spectrum_study,
                                  certificate, section_inertia, stabilized_negcount)
from hankelsigma.kernel import (FiniteRankTerm, Kernel, NonSelfAdjointError,
                                carleman, finite_rank, quasi_carleman)
from hankelsigma.predict import predict_finite_rank
from hankelsigma.sigma import (DeltaCombo, RegularDensity, RegularizedPower, SigmaDistribution,
                               _eig_inertia, _pair_product, sigma_of_kernel, sigma_pair)
from hankelsigma.special import _jet_mul, _jet_recip, laguerre_image


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


def test_laguerre_products_match_loop_reference():
    # the row-by-row loop np.cumprod replaced, kept as the reference
    def products_ref(smax, lams):
        mu = (lams - 0.5) / (lams + 0.5)
        out = np.empty((smax + 1, len(lams)))
        cur = (lams + 0.5) ** -2.0
        for s in range(smax + 1):
            out[s] = cur
            cur = cur * mu
        return out

    lams = np.concatenate([0.5 + np.array([-1e-9, 0.0, 1e-12, 1e-6]),
                           np.geomspace(1e-8, 1e8, 61), [1e12, 1e300]])
    for smax in (0, 1, 2046):
        got = _LaguerreProducts(smax)(lams)
        assert got.shape == (smax + 1, len(lams))
        assert np.array_equal(got, products_ref(smax, lams))


def _products_jet_loop(smax, center, order):
    # the step loop the blocked powers replaced, kept as the reference
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


@pytest.mark.parametrize("center", [0.05, 0.3, 0.5, 1.0, 2.0, 1.4 + 0.6j])  # mu(0.5) = 0
@pytest.mark.parametrize("order", [1, 4, 33])
def test_laguerre_product_jets_match_step_loop(center, order):
    for smax in (0, 1, 3, 15, 2046):
        ref = _products_jet_loop(smax, center, order)
        got = _LaguerreProducts(smax).jet(center, order)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("center, order", [(0.3, 33), (2.0, 4), (1.4 + 0.6j, 33)])
def test_laguerre_product_jets_match_mpmath(center, order):
    # (lam+1/2)^{-2} mu^s in 40-digit series arithmetic, mu^s by squaring
    mp = pytest.importorskip("mpmath")
    got = _LaguerreProducts(2046).jet(center, order)
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
            assert np.max(np.abs(got[s] - np.array([complex(c) for c in want]))) <= 1e-14 * top


def test_laguerre_jets_take_blocked_powers(monkeypatch):
    # the saving is fewer jet products: ~2 sqrt(2N) at N = 1024, not 2N - 1
    calls = []

    def counting(a, b):
        calls.append(1)
        return _jet_mul(a, b)

    monkeypatch.setattr(galerkin, "_jet_mul", counting)
    assemble(carleman() + finite_rank([1.0, -0.4], 0.9), 1024)
    assert 0 < len(calls) <= 3 * math.ceil(math.sqrt(2047))


@pytest.mark.parametrize("q", [1.0, 0.5, 0.3, -0.5, -1.5, -3.5])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 5.0, 100.0])
def test_moment_recurrence_matches_batched_pairing(q, alpha):
    # the r = 0 entries against the quadrature path they replace in assemble.
    # At (q, alpha) = (-3.5, 0.05) the finite part's Taylor-subtracted
    # integrand cancels, so the error estimates there are the rounding noise
    # of the terms it subtracts; that path caps panels at max_depth and says so
    n = 24
    part = RegularDensity(1.3, q, alpha) if q > 0 else RegularizedPower(1.3, q, alpha)
    capped = (q, alpha) == (-3.5, 0.05)
    with pytest.warns(RuntimeWarning, match="max_depth") if capped else contextlib.nullcontext():
        ref = _pair_product(SigmaDistribution((part,)), _LaguerreProducts(2 * n - 2),
                            1e-12).real
    got = _power_law_moments(part, 2 * n - 2)
    assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))


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
    deltas = _pair_product(sigma_of_kernel(fr), _LaguerreProducts(2046), 1e-12).real
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
        assert mx == float(np.linalg.eigvalsh(top.leading(n).matrix)[-1])
    doc = est.to_json()
    assert set(doc) == {"kind", "value", "history"}
    assert doc["history"] == [[n, *section_inertia(top.leading(n))[::-1]] for n in sizes]
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
        assert _eig_inertia(ev)[1::-1] == (nneg, npos)
        assert abs(mx - ev[-1]) <= 1e-13 * abs(ev[-1])
        assert margin > 0


def test_full_rank_matrix_falls_back_to_dense(eigvalsh_shapes):
    a = np.random.default_rng(7).standard_normal((512, 512))
    h = a + a.T
    sizes = (128, 256, 512)
    spectra, _ = _section_spectra(h, sizes)
    assert [shape[0] for shape in eigvalsh_shapes[-3:]] == list(sizes)
    for s, ev in zip(sizes, spectra):
        assert np.array_equal(ev, np.linalg.eigvalsh(h[:s, :s]))


def _with_spectrum(n, eigenvalues):
    """An n x n symmetric matrix with these nonzero eigenvalues."""
    u = np.linalg.qr(np.random.default_rng(3).standard_normal((n, len(eigenvalues))))[0]
    return (u * eigenvalues) @ u.T


def test_eigenvalue_near_threshold_falls_back(eigvalsh_shapes):
    # eigenvalues (-1/2)^k down to 2e-12 on either side of the threshold
    # tau = 1e-10 (max|ev| = 1): compressed, with room to spare
    decaying = [(-0.5) ** k for k in range(40)]
    sizes = (128, 256, 512)
    _, margins = _section_spectra(_with_spectrum(512, decaying), sizes)
    assert max(shape[0] for shape in eigvalsh_shapes) <= 64 and min(margins) > 0
    # one more eigenvalue 1e-19 from tau, far inside the error of the compression
    _, margins = _section_spectra(_with_spectrum(512, decaying + [1e-10 * (1 + 1e-9)]), sizes)
    assert [shape[0] for shape in eigvalsh_shapes[-3:]] == list(sizes)
    assert margins[-1] < 0


def test_compression_bound_covers_both_sides():
    # H - PHP = (I-P)H + PH(I-P).  For P = e1 e1^T and H = [[0, 1], [1, 1]]
    # its norm (1 + sqrt 5)/2 exceeds ||(I-P)H||_F = sqrt 2: one side is not enough
    h = np.array([[0.0, 1.0], [1.0, 1.0]])
    q = np.array([[1.0], [0.0]])
    for h, q in ((h, q), (_with_spectrum(300, np.linspace(-1, 1, 300)),
                          np.linalg.qr(np.random.default_rng(5).standard_normal((300, 20)))[0])):
        p = q @ q.T
        assert _compression_bound(h, q)[0] >= np.linalg.norm(h - p @ h @ p, 2)


def test_section_spectra_memory():
    # the residual is summed over row blocks: no N x N temporary
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
        sub = top.leading(n)
        _, nneg = section_inertia(sub)
        mx = float(np.linalg.eigvalsh(sub.matrix)[-1])
        assert nneg >= prev_neg and mx >= prev_max - 1e-12
        prev_neg, prev_max = nneg, mx


def test_carleman_spectrum_study():
    mn, mx = carleman_spectrum_study(1)
    assert mx == pytest.approx(2.0, abs=1e-10)
    prev = 0.0
    for n in (64, 128, 256):
        mn, mx = carleman_spectrum_study(n)
        assert mn > -1e-12
        assert prev < mx < math.pi
        prev = mx
    # eigenvalue oracle pins the floor at N = 64
    assert carleman_spectrum_study(64)[1] > 2.65


def test_homogeneous_non_carleman_sections_grow():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        tops = [carleman_spectrum_study(n, q=0.5)[1] for n in (16, 64, 256)]
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


@pytest.mark.filterwarnings("ignore:adaptive_gl:RuntimeWarning")
def test_gaussian_certificate_sees_a_positive_density_at_beta():
    # sigma is positive near beta = 1, so no trial there pairs negatively; with
    # the near piece blind to the trials' knots this certified 3
    cert = certificate(quasi_carleman(1.0, 0.5, 1.0, 0.0), quasi_carleman(-0.01, 1.0, 1.0, 0.0), 3)
    assert cert.achieved == 0 and not cert.success
    assert np.all(np.diag(cert.gram).real > 0)


def test_gaussian_certificate_shallow_well():
    cert = certificate(carleman(), quasi_carleman(-1.1, 1.0, 1.0, 1.0), 3)
    assert cert.success and cert.achieved >= 3


def test_window_certificate_finite_branch():
    cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.0), 1)
    assert cert.kind == "polynomial-window" and cert.success


def test_window_certificate_with_shift():
    # rho > 0 exercises the series polynomial R
    cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.5), 1,
                       kind="window")
    assert cert.success


def test_window_certificate_cannot_exceed_dimension():
    # every round fails, so eps halves down to 1.2e-4; from eps = 0.002 on,
    # the finite part's subtracted integrand caps panels at max_depth
    with pytest.warns(RuntimeWarning, match="max_depth"):
        cert = certificate(carleman(), quasi_carleman(1.0, -1.5, 1.0, 0.0), 2,
                           kind="window")
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
    return np.array([jet.derivative(l) for l in range(order + 1)])


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


def test_interpolation_certificate_rejects_what_it_cannot_pair():
    v = finite_rank([-1.0], 1.0)
    # the construction pairs the trials with a density part of h0 only
    for h0 in (quasi_carleman(1.0, -1.5, 1.0, 0.0) + finite_rank([2.0], 3.0),
               quasi_carleman(1.0, -1.5, 1.0, 0.0), finite_rank([2.0], 3.0)):
        with pytest.raises(ValueError, match="h0"):
            certificate(h0, v, 1)
    with pytest.raises(ValueError, match="finite-rank v"):
        certificate(Kernel(()), v + quasi_carleman(1.0, 1.0, 1.0, 0.0), 1,
                    kind="interpolation")
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
    rounds = list(_certify_gaussian(sig, 1.0, 3, eps0=0.01, delta0=0.06))
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
    rounds = list(_certify_interpolation(sigma_of_kernel(quasi_carleman(c, q)), v, 1, 0.2))
    assert [cert.eps for cert in rounds] == _eps_schedule(0.2)
    for cert in rounds:
        eps = cert.eps
        exact = (w * abs(a[0]) ** 2 * math.exp(-(q - 1) * kappa.real) * eps * math.sqrt(math.pi / 2)
                 * math.exp((q - 1) ** 2 * eps ** 2 / 8))
        s0 = _gauss_gram([_interpolation_ends("real", ((kappa, a),), [(kappa, 0)], eps)],
                         [(w, 1.0 - q)])
        assert abs(s0[0, 0] - exact) <= 1e-14 * exact
        # the certificate adds the sign block -1/beta
        assert cert.gram[0, 0] == lam + s0[0, 0] and lam == pytest.approx(-1 / 0.6)


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
        assert abs(_s0_pair_x(sig0.parts, u, u) - exact) <= 1e-11 * exact, eps


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
    weights = [(p.weight, 1.0 - p.q) for p in parts]
    wl = _workloads()
    rng = np.random.default_rng(0)
    for shape in wl.INTERP_SHAPES:
        v = wl._fr_kernel(wl._draw_finite_rank(rng, shape))
        kappas, directions = _sign_directions(v.conjugate_groups())
        for eps in _eps_schedule(0.2):
            ends = [_interpolation_ends(kind, e, kappas, eps) for _, kind, e in directions]
            g = _gauss_gram(ends, weights)
            ref = _hermitian_gram(lambda u, w: _s0_pair_x(parts, u, w), [_end_spec(e) for e in ends])
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
