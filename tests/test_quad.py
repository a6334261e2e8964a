"""Adaptive Gauss-Legendre stop rule, panel evaluation and warnings."""

import math
import warnings

import numpy as np
import pytest

from hankelsigma import _quad
from hankelsigma._quad import adaptive_gl, tanh_sinh_left
from hankelsigma.galerkin import gaussian_trial
from hankelsigma.kernel import carleman, quasi_carleman
from hankelsigma.sigma import sigma_of_kernel, sigma_pair


def _counting(f):
    sizes = []

    def g(x):
        sizes.append(len(x))
        return f(x)
    return g, sizes


def _big_and_bump(x):
    return np.stack([1e10 * np.exp(-x), 1e-3 * np.exp(-(x - 0.3) ** 2 / 1e-4)])


def test_noise_floor_is_per_batch_element():
    # the large element stops at its rounding floor (7e-5 on [0, 1]) at
    # once; the bump, 3e-15 of its size, must still be refined to atol
    # rather than stop at the large element's floor
    g, sizes = _counting(_big_and_bump)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big, bump = adaptive_gl(g, 0.0, 1.0, atol=1e-12)
    exact = 1e-3 * 0.5 * math.sqrt(math.pi) * 0.01 * (math.erf(0.7 / 0.01) + math.erf(0.3 / 0.01))
    assert abs(bump - exact) <= 1e-12
    assert abs(big - 1e10 * (1.0 - math.exp(-1.0))) <= 1e-14 * 1e10
    assert len(sizes) < 20


def test_one_call_of_72_nodes_per_panel():
    g, sizes = _counting(np.exp)
    adaptive_gl(g, 0.0, 1.0, atol=1e-12)
    assert sizes == [72]
    g, sizes = _counting(np.exp)
    adaptive_gl(g, 0.0, 1.0, atol=1e-12, knots=[0.25, 0.5])
    assert sizes == [72] * 3
    # bisection: a binary tree of panels, each evaluated once
    g, sizes = _counting(_big_and_bump)
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


def test_tanh_sinh_warns_when_unconverged():
    # half the mass of u^{-0.999} on [0, 1] lies below u = 1e-280, the
    # smallest node the rule uses
    with pytest.warns(RuntimeWarning, match="10 halvings"):
        val = tanh_sinh_left(lambda u: u ** -0.999, 0.0, 1.0, atol=1e-12)
    assert val < 1000.0
