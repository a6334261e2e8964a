"""Kernel evaluation, classification, and the measure-growth cross-check."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from hankelsigma.kernel import (Classification, FiniteRankTerm, Kernel,
                                NonSelfAdjointError, carleman,
                                carleman_condition, classify, finite_rank,
                                kernel_eval, quasi_carleman)
from hankelsigma.galerkin import stabilized_negcount
from hankelsigma.predict import NegCount, predict_kernel
from hankelsigma.sigma import sigma_of_kernel


def test_eval_examples():
    assert kernel_eval(carleman(), 2.0) == pytest.approx(0.5)
    assert kernel_eval(quasi_carleman(1, 2, 1, 0), 1.0) == pytest.approx(math.exp(-1))
    pair = finite_rank([1.0], 1 + 1j)
    assert kernel_eval(pair, math.pi) == pytest.approx(-2 * math.exp(-math.pi))


def test_eval_real_for_random_points():
    kern = finite_rank([1.0, 0.5j], 0.7 + 1.3j) + quasi_carleman(0.3, 1.5, 0.2, 0.1)
    rng = np.random.default_rng(2)
    ts = rng.uniform(0.01, 30, 100)
    vals = kernel_eval(kern, ts)
    assert np.isrealobj(vals)


def test_eval_domain_error_at_zero():
    with pytest.raises(ValueError):
        kernel_eval(quasi_carleman(1, 2, 0, 0), 0.0)


def test_classification_table():
    cases = {
        (1.0, 0.0, 0.0): Classification.BOUNDED,       # 1/t
        (2.0, 0.0, 0.0): Classification.UNBOUNDED_POSITIVE_FORM,
        (0.5, 0.0, 0.0): Classification.UNBOUNDED_POSITIVE_FORM,
        (0.5, 0.0, 1.0): Classification.UNBOUNDED_POSITIVE_FORM,
        (1.5, 0.0, 1.0): Classification.BOUNDED,
        (-0.5, 1.0, 0.0): Classification.INDEFINITE_FORM,
        (0.7, 1.0, 0.0): Classification.BOUNDED,
        (3.0, 1.0, 0.0): Classification.UNBOUNDED_POSITIVE_FORM,
        (3.0, 1.0, 1.0): Classification.BOUNDED,
        (-0.5, 0.0, 0.0): Classification.UNDEFINABLE,
        (0.0, 0.0, 1.0): Classification.UNDEFINABLE,
    }
    for (q, a, r), expected in cases.items():
        assert classify(quasi_carleman(1.0, q, a, r)) is expected, (q, a, r)


def test_classification_sum_is_conservative():
    k = quasi_carleman(1, 1, 0, 0) + quasi_carleman(1, 2, 0, 0)
    assert classify(k) is Classification.UNBOUNDED_POSITIVE_FORM
    assert classify(finite_rank([1.0], 2.0)) is Classification.BOUNDED


def test_carleman_condition():
    assert carleman_condition(quasi_carleman(1, 1, 0, 0)) is True
    assert carleman_condition(quasi_carleman(1, 0.4, 0, 1)) is False
    assert carleman_condition(quasi_carleman(1, 0.5, 0, 0)) is False
    assert carleman_condition(quasi_carleman(1, -3, 2, 0)) is True


def test_integer_exponent_normalizes_to_finite_rank():
    k = quasi_carleman(2.0, -2.0, 1.5, 0.5)  # 2 (t+1/2)^2 e^{-1.5 t}
    assert not k.qc_terms and len(k.fr_terms) == 1
    term = k.fr_terms[0]
    assert term.beta == 1.5
    ts = np.array([0.3, 1.0, 2.7])
    assert np.allclose(kernel_eval(k, ts), 2 * (ts + 0.5) ** 2 * np.exp(-1.5 * ts))
    # m = 3, r > 0: the coefficients of v0 (t + r)^m are v0 C(m, i) r^{m-i}
    v0, r = -0.7, 0.3
    term = quasi_carleman(v0, -3.0, 2.0, r).fr_terms[0]
    want = [v0 * math.comb(3, i) * r ** (3 - i) for i in range(4)]
    assert term.beta == 2.0 and len(term.coeffs) == 4
    assert np.max(np.abs(np.array(term.coeffs) - want) / np.abs(want)) <= 1e-15


@pytest.mark.parametrize("make", [
    lambda x: quasi_carleman(x, 1.0), lambda x: quasi_carleman(1.0, x),
    lambda x: quasi_carleman(1.0, 1.0, x), lambda x: quasi_carleman(1.0, 1.0, 0.0, x),
    lambda x: finite_rank([1.0, x], 1.0), lambda x: finite_rank([1.0], x),
    lambda x: finite_rank([1.0], complex(1.0, x))])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_terms_refuse_non_finite_parameters(make, value):
    # a nan alpha used to classify as BOUNDED and fail later in LAPACK
    with pytest.raises(ValueError, match="finite"):
        make(value)


def test_same_beta_terms_merge():
    k = finite_rank([2.0], 1.0) + finite_rank([-1.0], 1.0)
    assert len(k.fr_terms) == 1 and k.fr_terms[0].coeffs == (1.0,)
    cancel = finite_rank([1.0], 2.0) + finite_rank([-1.0], 2.0)
    assert not cancel.terms
    assert not (finite_rank([1, 2], 0.5) + finite_rank([-1, -2], 0.5)).terms


def test_small_finite_rank_terms_are_kept():
    # only a merged term that cancels is dropped, at 1e-12 of its terms' size:
    # a lone term counts whatever its scale, as does a sum of unequal ones
    assert predict_kernel(finite_rank([-1e-13], 1.0)) == predict_kernel(finite_rank([-1e-11], 1.0))
    pred = predict_kernel(finite_rank([-1e-13], 1.0))
    assert pred.n_minus == NegCount(True, 1) and pred.rank == 1
    assert len((finite_rank([2e-13], 1.0) + finite_rank([-1e-13], 1.0)).fr_terms) == 1
    pred = predict_kernel(carleman() + finite_rank([-1e-13], 1.0))
    assert pred.source == "FDH1" and pred.n_minus == NegCount(True, 1)
    for scale in (1.0, 1e13):
        est = stabilized_negcount(quasi_carleman(1e-13 * scale, 1) + finite_rank([-1e-13 * scale], 1))
        assert est.history[-1][:2] == (128, 1) and (est.kind, est.value) == ("finite", 1)


def test_unmatched_complex_term_rejected():
    k = Kernel((FiniteRankTerm((1.0,), 1 + 1j),))
    with pytest.raises(NonSelfAdjointError):
        k.conjugate_groups()


def test_conjugate_groups_checks_the_partner_coefficients():
    mismatched = Kernel((FiniteRankTerm((1.0,), 1 + 1j), FiniteRankTerm((2.0,), 1 - 1j)))
    with pytest.raises(NonSelfAdjointError):
        mismatched.conjugate_groups()
    with pytest.raises(NonSelfAdjointError):
        Kernel((FiniteRankTerm((1j,), 1.0),)).conjugate_groups()
    (kind, t), = finite_rank([1 + 0.5j], 1 - 1j).conjugate_groups()
    assert kind == "pair" and t.beta == 1 + 1j and t.coeffs == (1 - 0.5j,)


def _measure_ratio(kern, lam):
    """M([0, lam)) / lam for the density sigma of a q > 0 kernel."""
    sig = sigma_of_kernel(kern)
    val, _ = quad(lambda s: float(sig.density(np.array([s]))[0]), 0.0, lam,
                  limit=400, points=[t.alpha for t in kern.qc_terms if t.alpha < lam])
    return val / lam


def test_widom_measure_growth_matches_classification():
    # the linear-growth test of the cumulative sigma measure at 0 and at
    # infinity reproduces the boundedness table on a parameter grid
    grid_q = (0.25, 0.5, 1.0, 1.5, 2.5)
    grid_ar = ((0.0, 0.0), (0.0, 0.7), (0.8, 0.0), (0.8, 0.7))
    count = 0
    for q in grid_q:
        for a, r in grid_ar:
            kern = quasi_carleman(1.0, q, a, r)
            flat_zero = _measure_ratio(kern, 1e-6) <= 3.0 * _measure_ratio(kern, 1e-4) + 1e-30
            flat_inf = _measure_ratio(kern, 1e6) <= 3.0 * _measure_ratio(kern, 1e4) + 1e-30
            bounded = flat_zero and flat_inf
            assert bounded == (classify(kern) is Classification.BOUNDED), (q, a, r)
            count += 1
    assert count == 20
