"""Adaptive Gauss-Legendre stop rule, panel evaluation, the tanh-sinh tail and warnings."""

import math
import warnings

import numpy as np
import pytest

from hankelsigma import _quad
from hankelsigma._quad import DivergentIntegralError, adaptive_gl, semi_infinite, tanh_sinh_left
from hankelsigma.galerkin import gaussian_trial
from hankelsigma.kernel import carleman, quasi_carleman
from hankelsigma.sigma import sigma_of_kernel, sigma_pair


def _counting(f):
    sizes = []

    def g(x):
        sizes.append(len(x))
        return f(x)
    return g, sizes


def _bump(x):
    return 1e-3 * np.exp(-(x - 0.3) ** 2 / 1e-4)


def test_noise_floor_scales_with_the_integrand():
    # a large integrand stops at its rounding floor (7e-5 on [0, 1]) at
    # once, far above atol; a bump 3e-15 of its size has its own floor and
    # is still refined to atol
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g, sizes = _counting(lambda x: 1e10 * np.exp(-x))
        big = adaptive_gl(g, 0.0, 1.0, atol=1e-12)
        assert sizes == [72]
        g, sizes = _counting(_bump)
        bump = adaptive_gl(g, 0.0, 1.0, atol=1e-12)
    exact = 1e-3 * 0.5 * math.sqrt(math.pi) * 0.01 * (math.erf(0.7 / 0.01) + math.erf(0.3 / 0.01))
    assert abs(bump - exact) <= 1e-12
    assert abs(big - 1e10 * (1.0 - math.exp(-1.0))) <= 1e-14 * 1e10
    assert 1 < len(sizes) < 20


def test_one_call_of_72_nodes_per_panel():
    g, sizes = _counting(np.exp)
    adaptive_gl(g, 0.0, 1.0, atol=1e-12)
    assert sizes == [72]
    g, sizes = _counting(np.exp)
    adaptive_gl(g, 0.0, 1.0, atol=1e-12, knots=[0.25, 0.5])
    assert sizes == [72] * 3
    # bisection: a binary tree of panels, each evaluated once
    g, sizes = _counting(_bump)
    adaptive_gl(g, 0.0, 1.0, atol=1e-12)
    assert len(sizes) > 1 and len(sizes) % 2 == 1 and set(sizes) == {72}


def test_gaussian_certificate_entry_stops_at_the_noise_floor(monkeypatch):
    # a diagonal Gram entry of a gaussian certificate: the finite part's
    # subtracted integrand used to bisect to max_depth on 402 panels
    panels = []

    def counted(f, a, b, *args, **kwargs):
        g, sizes = _counting(f)
        out = adaptive_gl(g, a, b, *args, **kwargs)
        panels.extend(sizes)
        return out

    monkeypatch.setattr(_quad, "adaptive_gl", counted)
    sig = sigma_of_kernel(carleman() + quasi_carleman(-1.0, -1.5, 1.0, 0.0))
    w = gaussian_trial(1.06, 0.01)
    val = sigma_pair(sig, w, w, atol=1e-11)
    assert len(panels) <= 10
    # the entry as computed before the noise-floor stop, on 406 panels
    assert abs(val - -621.3429634242686) <= 1e-13 * 621.3429634242686


def test_depth_cap_warns_with_count_and_ratio():
    # a jump at 1/3 never meets its budget; no knot marks it
    with pytest.warns(RuntimeWarning, match=r"1 panel\(s\) accepted at max_depth=11 .* x budget"):
        val = adaptive_gl(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0, atol=1e-12)
    assert abs(val - 1.0 / 3.0) < 1e-2


def test_converged_rules_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(adaptive_gl(np.exp, 0.0, 1.0) - (math.e - 1.0)) < 1e-13
        assert abs(tanh_sinh_left(lambda u: u ** -0.5, 0.0, 1.0) - 2.0) < 1e-12


def test_semi_infinite_raises_on_a_growing_tail():
    calls = []

    def growing(t):
        calls.append(t)
        return np.exp(t)

    # f(1e280) overflows to inf at the first call, before any level
    with np.errstate(over="ignore"), pytest.raises(DivergentIntegralError, match="not decaying"):
        semi_infinite(growing, 1.0)
    assert len(calls) == 1
    with pytest.raises(DivergentIntegralError, match="not decaying"):
        semi_infinite(lambda t: t, 1.0)
    assert abs(semi_infinite(lambda t: np.exp(-t), 1.0) - math.exp(-1.0)) < 1e-15


def test_semi_infinite_integrates_slow_algebraic_tails():
    # x^{-1.05}: 1e-14 of mass beyond the smallest node u = 1e-280
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(semi_infinite(lambda t: t ** -1.05, 1.0) - 20.0) <= 1e-12 * 20.0


def test_semi_infinite_refuses_1_over_x_before_any_level():
    calls = []

    def harmonic(t):
        calls.append(t)
        return 1.0 / t

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergentIntegralError, match="decays too slowly"):
            semi_infinite(harmonic, 1.0)
    assert len(calls) == 1


def test_semi_infinite_counts_zero_times_inf_far_out_as_zero():
    # lam^3 e^{-lam} is inf * 0 = nan at lam ~ 1e280, where both factors leave range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = semi_infinite(lambda t: t ** 3.0 * np.exp(-t), 1.0)
    assert abs(val - 16.0 / math.e) <= 1e-13 * 16.0 / math.e


def test_tanh_sinh_stops_at_the_noise_floor():
    # a tail of size 5e10 changes by rounding noise far above atol = 1e-13
    # once converged; like a panel, a level stops at 50 eps of its mass
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = semi_infinite(lambda t: 1e12 * np.exp(-t) * np.cos(t), 1.0)
    exact = 1e12 * math.exp(-1.0) * (math.cos(1.0) - math.sin(1.0)) / 2
    assert abs(val - exact) <= 1e-14 * abs(exact)


def test_tanh_sinh_warns_when_unconverged():
    # half the mass of u^{-0.999} on [0, 1] lies below u = 1e-280, the
    # smallest node the rule uses
    with pytest.warns(RuntimeWarning, match="10 halvings"):
        val = tanh_sinh_left(lambda u: u ** -0.999, 0.0, 1.0, atol=1e-12)
    assert val < 1000.0


def _reference_tanh_sinh(g, length, atol, where):
    """The tanh-sinh rule with one integrand call per level, level 0 first."""
    total = mass = 0.0
    for j in range(_quad._LEVELS + 1):
        x, w = _quad._ts_level(j)
        vals = np.asarray(g(length * x))
        refined = 0.5 * total + length * (vals @ w)
        mass = 0.5 * mass + length * (np.abs(vals) @ w)
        change, total = abs(refined - total), refined
        if j and change <= max(atol, _quad._NOISE * mass):
            return total
    warnings.warn("%s: %d halvings left a change of %.3g > atol=%g"
                  % (where, _quad._LEVELS, change, atol), RuntimeWarning)
    return total


def _reference_semi_infinite(f, a, atol=1e-13):
    """The tail rule with its probe at u = 1e-280 in a call of its own."""
    def g(u):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(1.0 / u - 0.5)) / u / u
        vals[np.isnan(vals)] = 0.0
        assert np.all(np.isfinite(vals))
        return vals

    assert _quad._TINY * abs(g(np.array([_quad._TINY]))[0]) <= atol
    return _reference_tanh_sinh(g, 1.0 / (a + 0.5), atol, "semi_infinite on [%g, inf)" % a)


def _run(rule, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = rule(*args, **kwargs)
    return np.array(val).tobytes(), [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("f, warns", [(lambda u: u ** -0.5, False), (lambda u: u ** -0.999, True)],
                         ids=["u^-0.5", "u^-0.999"])
def test_left_rule_is_bitwise_the_level_by_level_rule(f, warns):
    new = _run(tanh_sinh_left, f, 0.0, 1.0, atol=1e-12)
    assert new == _run(_reference_tanh_sinh, f, 1.0, 1e-12, "tanh_sinh_left on [0, 1]")
    assert bool(new[1]) == warns  # the unconverged warning is compared too


@pytest.mark.parametrize("f", [lambda t: np.exp(-t), lambda t: t ** -1.05,
                               lambda t: 1e12 * np.exp(-t) * np.cos(t),
                               lambda t: t ** 3.0 * np.exp(-t)],
                         ids=["exp", "t^-1.05", "1e12 exp cos", "t^3 exp"])
def test_tail_rule_is_bitwise_the_level_by_level_rule(f):
    new = _run(semi_infinite, f, 1.0)
    assert new == _run(_reference_semi_infinite, f, 1.0)
    assert new[1] == []


def test_first_call_holds_four_levels_and_the_probe():
    g, sizes = _counting(np.exp)
    tanh_sinh_left(g, 0.0, 1.0)
    assert sizes == [19 + 18 + 37 + 73]
    g, sizes = _counting(lambda t: t ** -2.0)
    semi_infinite(g, 1.0)
    assert sizes == [19 + 18 + 37 + 73 + 1]
    # e^{-t} on [1, inf) stops at level 4: two calls, where one per level made six
    g, sizes = _counting(lambda t: np.exp(-t))
    semi_infinite(g, 1.0)
    assert sizes == [148, 146]
    # a rule that needs level 4 and on calls once per further level
    g, sizes = _counting(lambda u: u ** -0.999)
    with pytest.warns(RuntimeWarning, match="10 halvings"):
        tanh_sinh_left(g, 0.0, 1.0)
    assert sizes[0] == 147 and len(sizes) == 1 + _quad._LEVELS + 1 - 4


def test_degenerate_ranges():
    # a <= -1/2 leaves no u-range 1/(a + 1/2) > 0
    for a in (-0.5, -0.6):
        with pytest.raises(ValueError, match="a > -1/2"):
            semi_infinite(lambda t: 1.0 / (1.0 + t * t), a)
    g, sizes = _counting(lambda u: u ** -0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert tanh_sinh_left(g, 1.0, 1.0) == 0.0
        assert adaptive_gl(g, 1.0, 1.0) == 0.0
    # a reversed range is refused by both rules, before f is called on u < 0
    with pytest.raises(ValueError, match="a <= b"):
        tanh_sinh_left(g, 1.0, 0.0)
    with pytest.raises(ValueError, match="a <= b"):
        adaptive_gl(g, 1.0, 0.0)
    assert sizes == []
