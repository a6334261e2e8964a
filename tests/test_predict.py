"""Closed-form count predictions and the critical coupling."""

import math

import numpy as np
import pytest

from hankelsigma.kernel import (FiniteRankTerm, Kernel, NonSelfAdjointError,
                                QuasiCarlemanTerm, carleman, finite_rank, quasi_carleman)
from hankelsigma.predict import (AssumptionViolation, IntegerExponentError,
                                 NegCount, assumption_hfree, critical_coupling,
                                 finite_rank_inertia_check,
                                 predict_finite_rank, predict_kernel, predict_perturbed,
                                 predict_quasi_carleman)
from hankelsigma.sigma import sigma_of_kernel


def test_pure_kernel_counts():
    p = predict_quasi_carleman(0.5)
    assert p.n_minus == NegCount.of(0)
    p = predict_quasi_carleman(-0.5)
    assert p.n_plus == NegCount.of(1) and not p.n_minus.finite
    p = predict_quasi_carleman(-1.5)
    assert p.n_minus == NegCount.of(1) and not p.n_plus.finite
    p = predict_quasi_carleman(-2.5)
    assert p.n_plus == NegCount.of(2) and not p.n_minus.finite


def test_pure_kernel_sign_flip():
    p = predict_quasi_carleman(0.5, v0=-1.0)
    assert p.n_plus == NegCount.of(0) and not p.n_minus.finite


def test_integer_exponent_error():
    with pytest.raises(IntegerExponentError):
        predict_quasi_carleman(-2.0)
    with pytest.raises(IntegerExponentError):
        predict_quasi_carleman(0.0)


def test_critical_coupling_carleman_values():
    sig0 = sigma_of_kernel(carleman())
    assert critical_coupling(sig0, -1.0, 1.0, 1.0) == pytest.approx(1.0)
    assert critical_coupling(sig0, -1.0, 5.0, 0.25) == pytest.approx(1.0)
    assert critical_coupling(sig0, -2.0, 1.0, 1.0) == pytest.approx(math.e)
    assert critical_coupling(sig0, -3.0, 2.0, 2.0) == pytest.approx(2 * math.e ** 2)


def test_critical_coupling_monotone_in_rho():
    sig0 = sigma_of_kernel(carleman())
    vals = [critical_coupling(sig0, -2.0, 1.0, rho) for rho in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_critical_coupling_grid_route():
    # non-Carleman density: sigma0 = lam on lam > 0 (q = 2)
    sig0 = sigma_of_kernel(quasi_carleman(1.0, 2.0, 0.0, 0.0))
    nu = critical_coupling(sig0, -1.0, 1.0, 0.0)
    # essinf over lam >= 1 of sigma0 = 1
    assert nu == pytest.approx(1.0, rel=1e-6)


def test_critical_coupling_preconditions():
    sig0 = sigma_of_kernel(carleman())
    with pytest.raises(ValueError):
        critical_coupling(sig0, -2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        critical_coupling(sig0, -0.5, 1.0, 1.0)


@pytest.mark.parametrize("r", [1.0, 1.01, 1.1])
def test_critical_coupling_is_zero_when_phi_decays(r):
    # sigma0 = e^{-r lam}, k = -1.5, beta = rho = 1: phi ~ (lam-1)^{-1/2} e^{(1-r) lam}
    # tends to 0, at lam -> inf or at beta+, so nu = 0
    assert critical_coupling(sigma_of_kernel(quasi_carleman(1, 1, 0, r)), -1.5, 1.0, 1.0) == 0.0


def test_coupling_below_minus_nu_zero_is_infinite():
    p = predict_perturbed(quasi_carleman(1, 1, 0, 1), QuasiCarlemanTerm(-0.02, 1.5, 1, 1))
    assert p.critical_coupling == 0.0 and not p.n_minus.finite


def test_critical_coupling_interior_minimum():
    # sigma0 = e^{-0.9 lam}, k = -1.5, beta = rho = 1: phi = (lam-1)^{-1/2} e^{0.1 lam}
    # is least at lam = 6
    nu = critical_coupling(sigma_of_kernel(quasi_carleman(1, 1, 0, 0.9)), -1.5, 1.0, 1.0)
    want = math.gamma(1.5) * math.exp(-1) * 5 ** -0.5 * math.exp(0.6)
    assert want == pytest.approx(0.2656697736585567, rel=1e-15)
    assert abs(nu - want) <= 1e-14 * want


def test_critical_coupling_support_above_beta_is_zero():
    # sigma0 vanishes on (beta, alpha) = (1, 2)
    assert critical_coupling(sigma_of_kernel(quasi_carleman(1, 1.5, 2, 0)), -1.0, 1.0, 0.5) == 0.0


def test_critical_coupling_refuses_two_parts():
    sig0 = sigma_of_kernel(carleman() + quasi_carleman(1, 2, 0, 1))
    with pytest.raises(AssumptionViolation, match="2 parts"):
        critical_coupling(sig0, -1.0, 1.0, 1.0)


def test_critical_coupling_against_a_dense_log_grid():
    # a grid minimum of phi can only overestimate the essinf; where it is
    # interior it sits next to the exact minimiser
    rng = np.random.default_rng(28)
    u = np.logspace(-8, 4, 100001)
    interior = 0
    for _ in range(200):
        alpha = float(rng.choice([0.0, rng.uniform(0, 2)]))
        q = float(rng.uniform(1, 3) if alpha > 0 else rng.uniform(0.05, 3))
        r = float(rng.choice([0.0, rng.uniform(0, 2)]))
        k = float(rng.choice([-1.0, rng.uniform(-3, -1)]))
        beta = alpha if alpha > 0 and rng.uniform() < 0.2 else float(rng.uniform(0.05, 3))
        rho = float(rng.uniform(0.05, 3)) if k < -1 or rng.uniform() < 0.5 else 0.0
        nu = critical_coupling(sigma_of_kernel(quasi_carleman(1, q, alpha, r)), k, beta, rho)
        lam = beta + u
        above = lam > alpha
        log_phi = np.full(len(u), -np.inf)
        log_phi[above] = ((k + 1) * np.log(u[above]) + rho * lam[above]
                          + (q - 1) * np.log(lam[above] - alpha) - r * (lam[above] - alpha))
        j = int(np.argmin(log_phi))
        grid = math.gamma(-k) / math.gamma(q) * math.exp(log_phi[j] - beta * rho)
        assert nu <= grid * (1 + 1e-12), (alpha, q, r, k, beta, rho)
        if 0 < j < len(u) - 1:
            interior += 1
            assert abs(nu - grid) <= 1e-5 * grid, (alpha, q, r, k, beta, rho)
    assert interior >= 50


def test_perturbed_fractional_table():
    c = carleman()
    assert predict_perturbed(c, QuasiCarlemanTerm(1.0, -1.5, 1.0, 0.0)).n_minus == NegCount.of(1)
    assert predict_perturbed(c, QuasiCarlemanTerm(-1.0, -0.5, 1.0, 0.0)).n_minus == NegCount.of(1)
    assert not predict_perturbed(c, QuasiCarlemanTerm(1.0, -0.5, 1.0, 0.0)).n_minus.finite


def test_perturbed_negative_exponent_branches():
    c = carleman()
    p = predict_perturbed(c, QuasiCarlemanTerm(-0.9, 1.0, 1.0, 1.0))
    assert p.n_minus == NegCount.of(0) and p.critical_coupling == pytest.approx(1.0)
    p = predict_perturbed(c, QuasiCarlemanTerm(-1.1, 1.0, 1.0, 1.0))
    assert not p.n_minus.finite
    p = predict_perturbed(c, QuasiCarlemanTerm(0.3, 0.5, 1.0, 0.0))   # k=-0.5, v0>0
    assert p.n_minus == NegCount.of(0)
    p = predict_perturbed(c, QuasiCarlemanTerm(-0.3, 0.5, 1.0, 0.0))  # k=-0.5, v0<0
    assert not p.n_minus.finite


def test_perturbed_integer_exponent_routes_to_finite_rank():
    c = carleman()
    p = predict_perturbed(c, QuasiCarlemanTerm(-1.0, 0.0, 1.0, 0.0))  # -e^{-t}
    assert p.source == "FDH1" and p.n_minus == NegCount.of(1)
    p = predict_perturbed(c, QuasiCarlemanTerm(1.0, -1.0, 1.0, 0.0))  # t e^{-t}
    assert p.n_minus == NegCount.of(1) and p.rank == 2


def test_perturbed_assumption_violation():
    bad = finite_rank([1.0], 1.0)  # singular sigma
    with pytest.raises(AssumptionViolation):
        predict_perturbed(bad, QuasiCarlemanTerm(1.0, -1.5, 1.0, 0.0))


def test_consistency_fractional_vs_pure():
    # perturbed counts with k > 0 match the pure-kernel table with the
    # perturbation's sign, over a fine exponent sweep
    c = carleman()
    for k10 in range(3, 48, 2):
        k = k10 / 10.0
        if float(k).is_integer():
            continue
        for v0 in (1.0, -1.0):
            a = predict_perturbed(c, QuasiCarlemanTerm(v0, -k, 1.0, 0.0)).n_minus
            b = predict_quasi_carleman(-k, v0=v0).n_minus
            assert a == b, (k, v0)


def test_finite_rank_examples():
    assert predict_finite_rank(finite_rank([-1.0], 1.0)).n_minus == NegCount.of(1)
    assert predict_finite_rank(finite_rank([0, 1.0], 1.0)).n_minus == NegCount.of(1)
    p = predict_finite_rank(finite_rank([1.0], 1 - 1j))
    assert p.n_minus == NegCount.of(1) and p.rank == 2


def test_finite_rank_remark_case():
    v = finite_rank([-1.0], 1.0)
    h = finite_rank([2.0], 1.0) + v
    assert predict_finite_rank(v).n_minus == NegCount.of(1)
    assert predict_finite_rank(h).n_minus == NegCount.of(0)


def test_finite_rank_inertia_sums_to_rank():
    rng = np.random.default_rng(3)
    for _ in range(50):
        k = Kernel(())
        for _ in range(int(rng.integers(1, 3))):
            deg = int(rng.integers(0, 4))
            cf = np.round(rng.uniform(-3, 3, deg + 1), 2)
            if abs(cf[-1]) < 0.2:
                cf[-1] = 1.0
            k = k + finite_rank(tuple(cf), float(rng.uniform(0.4, 2.5)))
        if rng.random() < 0.5:
            deg = int(rng.integers(0, 3))
            cf = np.round(rng.uniform(-2, 2, deg + 1), 2) + 1j * np.round(rng.uniform(-2, 2, deg + 1), 2)
            if abs(cf[-1]) < 0.2:
                cf[-1] = 1.0 + 0.5j
            k = k + finite_rank(tuple(cf), complex(rng.uniform(0.5, 2), rng.uniform(0.3, 2)))
        pred = predict_finite_rank(k)
        npos, nneg = finite_rank_inertia_check(k)
        assert nneg == pred.n_minus.n
        assert npos + nneg == pred.rank


def test_finite_rank_inertia_check_names_an_eigenvalue_at_the_threshold():
    # degree 5 with leading coefficient 0.008: the sign-matrix is nonsingular
    # in exact arithmetic, but one eigenvalue lies ~1e-17 below the largest,
    # inside the relative threshold, so the counts cannot sum to the rank
    v = finite_rank([1.6859, -0.052, 0.3944, 0.4119, 1.5261, 0.008], 2.4023)
    with pytest.raises(ArithmeticError, match=r"real group at beta = 2.4023 has 1 eigenvalue"
                                              r".* smallest/largest \|eigenvalue\| = "):
        finite_rank_inertia_check(v)


def test_finite_rank_inertia_rejects_non_self_adjoint_kernels():
    # a complex exponent without its conjugate partner, and a real exponent
    # with a complex coefficient: both predictors refuse them alike
    for v in (Kernel((FiniteRankTerm((1.0,), 1 + 1j),)),
              Kernel((FiniteRankTerm((1 + 1j, 0.5), 1.0),))):
        with pytest.raises(NonSelfAdjointError):
            predict_finite_rank(v)
        with pytest.raises(NonSelfAdjointError):
            finite_rank_inertia_check(v)


def test_assumption_hfree():
    assert assumption_hfree(sigma_of_kernel(carleman())) is True
    assert assumption_hfree(sigma_of_kernel(quasi_carleman(1, 0.5, 0, 0))) is True
    assert assumption_hfree(sigma_of_kernel(finite_rank([1.0], 1.0))) is False
    # blowup at an interior point: alpha > 0 with q < 1
    assert assumption_hfree(sigma_of_kernel(quasi_carleman(1, 0.5, 1, 0))) is False
    assert assumption_hfree(sigma_of_kernel(quasi_carleman(1, 1.0, 1, 0))) is True


INF = "infinite"


@pytest.mark.parametrize("kern, want", [
    (quasi_carleman(1.0, -1.5, 1.0, 0.0), (1, INF, "HKL")),
    (carleman() + quasi_carleman(-1.1, 1.0, 1.0, 1.0), (INF, INF, "HKC")),
    (carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0), (1, INF, "FDH")),
    # the background is the term of largest q, whatever the order of the sum
    (quasi_carleman(1.0, -1.5, 1.0, 0.0) + carleman(), (1, INF, "FDH")),
    (carleman() + finite_rank([0.0, 0.0, -1.0], 1.0), (2, INF, "FDH1")),
    (finite_rank([-1.0], 1.0) + finite_rank([1.0], 1 + 1j), (2, 1, "FDH1")),
], ids=["HKL", "HKC", "FDH", "FDH-background-last", "FDH1-on-background", "finite-rank"])
def test_predict_kernel_routes(kern, want):
    p = predict_kernel(kern)
    assert (p.n_minus.to_json(), p.n_plus.to_json(), p.source) == want


@pytest.mark.parametrize("kern", [
    carleman() + quasi_carleman(1.0, -1.5, 1.0, 0.0) + finite_rank([-5.0], 1.0)
    + finite_rank([-5.0], 2.0) + finite_rank([-5.0], 3.0),
    carleman() + quasi_carleman(1.0, 2.0),
], ids=["two-qc-plus-finite-rank", "background-perturbed-by-beta-0"])
def test_predict_kernel_refuses_shapes_without_a_theorem(kern):
    with pytest.raises(ValueError):
        predict_kernel(kern)


def test_predict_perturbed_integer_k_is_the_finite_rank_route():
    # (t + 1/2)^2 e^{-t}: the term and its expansion as a finite-rank Kernel
    term = QuasiCarlemanTerm(-1.0, -2.0, 1.0, 0.5)
    expanded = finite_rank([-0.25, -1.0, -1.0], 1.0)
    p = predict_perturbed(carleman(), term)
    assert p == predict_perturbed(carleman(), expanded)
    assert (p.n_minus, p.source, p.rank) == (NegCount.of(2), "FDH1", 3)
