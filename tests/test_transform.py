"""Laplace/Mellin pipeline, reconstruction, mollifiers, sandwiched operators."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hankelsigma.form import ExpPoly, Indicator, form_sigma, laguerre_test
from hankelsigma.kernel import quasi_carleman
from hankelsigma import transform
from hankelsigma.special import gamma, laguerre_e, laguerre_image, log_gamma
from hankelsigma.transform import (DEFAULT_GRID, MOLLIFIER_GRID,
                                   AmplificationError, GridFunction,
                                   GrowthWarning, InsufficientDecayError,
                                   LogGrid, laplace_via_mellin,
                                   mollifier_matrix, mollifier_norm,
                                   mollifier_tn, reconstruct,
                                   sandwiched_apply, u_of_laplace_image)
from hankelsigma.transform import _band_width, _gamma_half, _xi_fft_order


def _mellin_residual(fvals, wtrue, grid=DEFAULT_GRID):
    w = laplace_via_mellin(GridFunction(grid, fvals))
    dif = (w.values - wtrue) * np.exp(grid.xs / 2)
    num = np.sqrt(grid.dx * np.sum(np.abs(dif) ** 2))
    den = np.sqrt(grid.dx * np.sum(np.abs(np.exp(grid.xs / 2) * fvals) ** 2))
    return num / max(den, 1e-300)


def test_laplace_point_examples():
    assert ExpPoly(((1.0, 0, 1.0),)).laplace_image()(1.0) == pytest.approx(0.5)
    ind = Indicator(1.0, 2.0)
    assert ind.laplace_image()(1.0) == pytest.approx(math.exp(-1) - math.exp(-2))
    for n in (0, 2, 6):
        img = laguerre_image(n)
        f = laguerre_test([0.0] * n + [1.0])
        for lam in (0.3, 1.0, 4.0):
            oracle, _ = quad(lambda t: math.exp(-lam * t) * laguerre_e(n, t), 0, 80,
                             limit=300)
            assert abs(f.laplace_image()(lam) - oracle) < 1e-9
            assert abs(img(lam) - oracle) < 1e-9


# not symmetric about x = 0, so the e^{2i x0 xi} phase of the pipeline is not 1
_SHIFTED_GRID = LogGrid(-50.0, 70.0, 16384)


def test_mellin_factorization_simple_targets():
    for grid in (DEFAULT_GRID, _SHIFTED_GRID):
        t = grid.lambdas_pos
        assert _mellin_residual(np.exp(-t), 1 / (1 + t), grid) < 1e-6
        assert _mellin_residual(t * np.exp(-t), (1 + t) ** -2.0, grid) < 1e-6
        assert _mellin_residual(laguerre_e(3, t), laguerre_image(3)(t), grid) < 1e-6


def test_mellin_factorization_benchmark_family():
    # 20 functions in span{t^m e^{-ct}}, m <= 5, c in [0.5, 2]
    rng = np.random.default_rng(77)
    t = DEFAULT_GRID.lambdas_pos
    worst = 0.0
    for _ in range(20):
        m1, m2 = rng.integers(0, 6, 2)
        c1, c2 = rng.uniform(0.5, 2.0, 2)
        a1, a2 = rng.normal(size=2)
        fvals = a1 * t ** m1 * np.exp(-c1 * t) + a2 * t ** m2 * np.exp(-c2 * t)
        wtrue = (a1 * math.factorial(m1) / (t + c1) ** (m1 + 1)
                 + a2 * math.factorial(m2) / (t + c2) ** (m2 + 1))
        worst = max(worst, _mellin_residual(fvals, wtrue))
    assert worst < 1e-6


def test_insufficient_decay_error():
    grid = DEFAULT_GRID
    f = GridFunction(grid, grid.lambdas_pos ** -0.5)  # u(x) = const
    with pytest.raises(InsufficientDecayError):
        laplace_via_mellin(f)


def test_reconstruct_roundtrip_exppoly():
    for grid, terms in (
        (DEFAULT_GRID, ((1.0, 0, 1.0),)),
        (DEFAULT_GRID, ((1.0, 1, 1.0),)),
        (DEFAULT_GRID, ((0.7, 0, 0.5), (-0.2, 2, 1.5))),
        # integral t^{-1/2} f dt = 0, so Phi u vanishes at xi = 0
        (DEFAULT_GRID, ((1.0, 1, 1.0), (-0.5, 0, 1.0))),
        (_SHIFTED_GRID, ((0.7, 0, 0.5), (-0.2, 2, 1.5))),
    ):
        t = grid.lambdas_pos
        fvals = sum(a * t ** m * np.exp(-c * t) for a, m, c in terms)
        fr = reconstruct(u_of_laplace_image(ExpPoly(terms), grid))
        wgt = np.exp(grid.xs / 2)
        err = np.sqrt(grid.dx * np.sum(np.abs((fr.values - fvals) * wgt) ** 2))
        den = np.sqrt(grid.dx * np.sum(np.abs(fvals * wgt) ** 2))
        assert err / den < 1e-5


def test_reconstruct_gaussian_trials_are_square_integrable():
    grid = DEFAULT_GRID
    x = grid.xs
    for eps, a in ((0.5, 0.3), (0.6, -0.8), (0.45, 0.0)):
        u = GridFunction(grid, eps ** -0.5 * np.exp(-(x - a) ** 2 / eps ** 2))
        f = reconstruct(u)
        norm = np.sqrt(grid.dx * np.sum(np.abs(f.values * np.exp(x / 2)) ** 2))
        assert np.isfinite(norm) and norm > 0


def test_reconstruct_zero():
    out = reconstruct(GridFunction(DEFAULT_GRID, np.zeros(DEFAULT_GRID.count)))
    assert np.max(np.abs(out.values)) == 0.0


def test_gamma_half_is_one_read_only_array_per_grid():
    grid = DEFAULT_GRID
    g = _gamma_half(grid)
    assert _gamma_half(grid) is g
    assert np.array_equal(g, gamma(0.5 + 1j * _xi_fft_order(grid)))
    with pytest.raises(ValueError):
        g[0] = 0.0


def test_cached_gamma_leaves_the_pipeline_bitwise_unchanged(monkeypatch):
    grid = DEFAULT_GRID
    t = grid.lambdas_pos
    f = GridFunction(grid, t ** 2 * np.exp(-0.7 * t) - 0.4 * np.exp(-1.3 * t))
    u = u_of_laplace_image(ExpPoly(((0.7, 0, 0.5), (-0.2, 2, 1.5))), grid)
    cached = laplace_via_mellin(f).values, reconstruct(u).values
    monkeypatch.setattr(transform, "_gamma_half",
                        lambda g: gamma(0.5 + 1j * _xi_fft_order(g)))
    assert np.array_equal(laplace_via_mellin(f).values, cached[0])
    assert np.array_equal(reconstruct(u).values, cached[1])


@pytest.mark.parametrize("m1", range(4))
def test_reconstruct_takes_every_mellin_style_input(m1):
    # the corners of the benchmark's round-trip family: two terms a t^m e^{-ct},
    # m <= 3, c in [0.5, 2]; their u reach at most 6.1e-13 of max|u| at the edges
    grid = DEFAULT_GRID
    t, wgt = grid.lambdas_pos, np.exp(grid.xs / 2)
    for c1, c2, a2 in itertools.product((0.5, 2.0), (0.5, 2.0), (1.0, -1.0)):
        terms = ((1.0, m1, c1), (a2, (m1 + 2) % 4, c2))
        fr = reconstruct(u_of_laplace_image(ExpPoly(terms), grid))
        want = sum(a * t ** m * np.exp(-c * t) for a, m, c in terms)
        assert np.linalg.norm((fr.values - want) * wgt) < 1e-4 * np.linalg.norm(want * wgt)


def test_reconstruct_flags_u_cut_off_at_the_grid_edge():
    # u = e^{-x/2} L f(e^{-x}) is ~e^{-22.65}, 2.9e-10 of its peak, at x = -45.3:
    # the jump leaks above the band floor.  _SHIFTED_GRID's 2.1e-11 still passes
    # test_reconstruct_roundtrip_exppoly
    grid = LogGrid(-45.3, 58.1, 8192)
    u = u_of_laplace_image(ExpPoly(((0.7, 0, 0.5), (-0.2, 2, 1.5))), grid)
    with pytest.raises(AmplificationError, match="grid edges"):
        reconstruct(u)


def test_reconstruct_amplification_error():
    grid = DEFAULT_GRID
    # lorentzian: spectrum ~ e^{-0.5 |xi|}, slower than the gamma weight decay
    u = GridFunction(grid, 1.0 / (1.0 + (grid.xs / 0.5) ** 2))
    with pytest.raises(AmplificationError):
        reconstruct(u)


# ---------------------------------------------------------------------------
# mollifiers
# ---------------------------------------------------------------------------

def _q_bound_oracle():
    # sup_xi of the gaussian-smoothed weight ratio at n = 1: numerically
    # integrate chihat_1 against the inverse-squared weight
    xi = np.linspace(-12, 12, 49)
    vals = []
    v2 = lambda s: np.pi / np.cosh(np.pi * s)
    for x in xi:
        val, _ = quad(lambda e: (1 / (2 * math.sqrt(math.pi))) * math.exp(-(x - e) ** 2 / 4.0) / v2(e), -60, 60, limit=400)
        vals.append(v2(x) * val)
    return math.sqrt(max(vals))


def test_mollifier_uniform_norm_bound():
    q_cap = _q_bound_oracle()
    assert q_cap == pytest.approx(math.exp(math.pi ** 2 / 2), rel=1e-6)
    norms = [mollifier_norm(n) for n in range(1, 33)]
    assert all(nm <= q_cap * (1 + 1e-9) for nm in norms)
    # per-n bound from the same oracle shape
    for n in (1, 2, 4, 8, 16):
        assert norms[n - 1] <= math.exp(math.pi ** 2 / (2 * n * n)) * (1 + 1e-9)
    # at n = 32, n dx = 2.5 on this grid, so chihat_32 is under-resolved and
    # the grid norm (1.0059) exceeds the analytic bound (1.0048): check the
    # estimate against the top singular value instead
    top = np.linalg.norm(mollifier_matrix(32, MOLLIFIER_GRID), 2)
    assert top * (1 - 1e-3) <= norms[31] <= top * (1 + 1e-9)


def test_mollifier_norm_warns_at_its_iteration_cap(monkeypatch):
    # after 2 steps the bracket of n = 1 is 1.4e-2 wide, above _NORM_BRACKET;
    # after the 30 of _NORM_ITERS it is 1.8e-3 or less for every n here
    monkeypatch.setattr(transform, "_NORM_ITERS", 2)
    with pytest.warns(RuntimeWarning, match=r"mollifier_norm\(1\).*wider than _NORM_BRACKET"):
        mollifier_norm(1)


def test_mollifier_norm_warns_when_an_iterate_entry_is_0(monkeypatch):
    # the Collatz-Wielandt upper end needs v > 0; a 0 entry makes it
    # infinite, which warns without a numpy divide warning
    conv, lg = transform._mollifier_conv(4, MOLLIFIER_GRID)

    def zeroing(x):
        out = conv(x)
        out[0] = 0.0
        return out

    monkeypatch.setattr(transform, "_mollifier_conv", lambda n, grid: (zeroing, lg))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        mollifier_norm(4)
    assert [w.category for w in rec] == [RuntimeWarning] and "inf]" in str(rec[0].message)


def test_mollifier_norm_silent_when_tol_is_met():
    # the iteration converges in 2 steps here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mollifier_norm(16, LogGrid(-40.0, 40.0, 256)) > 1.0


def _dense_power_norm(n, grid):
    """Power iteration on K^H K with the dense complex matrix from U 1/sqrt(N),
    U = e^{i Im log Gamma(1/2 - i xi)}: 30 iterations, tol 1e-6."""
    k = mollifier_matrix(n, grid)
    v = np.exp(1j * log_gamma(0.5 - 1j * grid.xs).imag) / math.sqrt(grid.count)
    prev = 0.0
    for _ in range(30):
        w = k.conj().T @ (k @ v)
        s = np.linalg.norm(w)
        v = w / s
        if abs(s - prev) <= 1e-6 * s:
            break
        prev = s
    return math.sqrt(s)


# b = 15 at n = 1 on this grid: the convolution is wider than the grid
_TINY_GRID = LogGrid(-2.0, 2.0, 16)


@pytest.mark.parametrize("grid", [MOLLIFIER_GRID, LogGrid(-20.0, 20.0, 256), _TINY_GRID],
                         ids=["mollifier_grid", "coarse_grid", "tiny_grid"])
@pytest.mark.parametrize("n", [1, 2, 7, 32])
def test_banded_norm_is_the_dense_power_iteration(n, grid):
    want = _dense_power_norm(n, grid)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        got = mollifier_norm(n, grid)
    assert abs(got - want) <= 1e-13 * want
    # capped or not, the bracket is within _NORM_BRACKET (<= 2.1e-3 on these grids)
    assert rec == []


@pytest.mark.parametrize("n", [1, 4, 32])
def test_mollifier_matrix_outside_its_band_is_within_the_tail_bound(n):
    grid = MOLLIFIER_GRID
    xi = grid.xs
    idx = np.arange(grid.count)
    outside = np.abs(idx[:, None] - idx[None, :]) > _band_width(n, grid)
    d = xi[:, None] - xi[None, :]
    c_dx = n / (2 * math.sqrt(math.pi)) * grid.dx
    bound = c_dx * np.exp(np.pi * np.abs(d) / 2 - n ** 2 * d ** 2 / 4)
    k = np.where(outside, np.abs(mollifier_matrix(n, grid)), 0.0)
    normal = bound >= np.finfo(float).tiny  # subnormals carry no relative precision
    assert np.all(k[normal] <= bound[normal] * (1 + 1e-12))
    assert np.all(k[~normal] <= 2 * np.finfo(float).tiny)
    assert np.max(k.sum(axis=0)) <= 1e-17 * c_dx
    assert np.max(k.sum(axis=1)) <= 1e-17 * c_dx


@pytest.mark.parametrize("n", [1, 8, 32])
def test_mollifier_tn_through_the_band_matches_the_dense_matrix(n):
    for grid in (MOLLIFIER_GRID, _TINY_GRID):
        xs = grid.xs
        g = np.exp(-(xs - 1.0) ** 2 / 4) * (1 + 0.3j) + 0.2 * np.exp(-np.abs(xs + 3.0))
        want = mollifier_matrix(n, grid) @ g
        got = mollifier_tn(n, GridFunction(grid, g)).values
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), grid


@pytest.mark.parametrize("n", [0, -3])
def test_mollifier_index_below_one_raises(n):
    with pytest.raises(ValueError, match="mollifier index"):
        mollifier_norm(n)
    with pytest.raises(ValueError, match="mollifier index"):
        mollifier_tn(n, GridFunction(MOLLIFIER_GRID, np.ones(MOLLIFIER_GRID.count)))


def test_mollifier_random_vectors_under_bound():
    q_cap = math.exp(math.pi ** 2 / 2)
    rng = np.random.default_rng(123)
    grid = MOLLIFIER_GRID
    for n in (1, 2, 8, 32):
        k = mollifier_matrix(n, grid)
        g = rng.normal(size=(grid.count, 200)) * np.exp(-np.abs(grid.xs[:, None]) / 3)
        ratios = np.linalg.norm(k @ g, axis=0) / np.linalg.norm(g, axis=0)
        assert np.max(ratios) <= q_cap


def test_mollifier_strong_convergence():
    grid = MOLLIFIER_GRID
    g = GridFunction(grid, np.exp(-(grid.xs - 1.0) ** 2 / 4))
    rels = {}
    for n in (8, 16, 32):
        tg = mollifier_tn(n, g)
        rels[n] = np.linalg.norm(tg.values - g.values) / np.linalg.norm(g.values)
    assert rels[32] <= 0.01
    assert rels[16] <= rels[8] + 1e-8
    assert rels[32] <= rels[16] + 1e-8


def test_mollifier_monotone_improvement_gaussian_set():
    grid = MOLLIFIER_GRID
    for center, width in ((0.0, 1.0), (2.0, 0.5), (-3.0, 2.0)):
        g = GridFunction(grid, np.exp(-(grid.xs - center) ** 2 / width ** 2))
        prev = None
        for n in (2, 4, 8, 16, 32):
            tg = mollifier_tn(n, g)
            rel = np.linalg.norm(tg.values - g.values) / np.linalg.norm(g.values)
            if prev is not None:
                assert rel <= prev + 1e-8
            prev = rel


def test_mollifier_zero():
    g = GridFunction(MOLLIFIER_GRID, np.zeros(MOLLIFIER_GRID.count))
    assert np.max(np.abs(mollifier_tn(4, g).values)) == 0.0


def test_indicator_image_identity_exact():
    lam = np.linspace(0.01, 20, 200)
    ind = Indicator(0.7, 2.3)
    img = ind.laplace_image()
    lhs = np.asarray(img(lam)) * lam
    rhs = np.exp(-0.7 * lam) - np.exp(-2.3 * lam)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# sandwiched Fourier operators
# ---------------------------------------------------------------------------

def test_sandwiched_identity_weights_is_plain_inverse_fourier():
    grid = MOLLIFIER_GRID
    f = GridFunction(grid, np.exp(-grid.xs ** 2 / 2))
    out = sandwiched_apply(lambda x: np.ones_like(x), lambda s: np.ones_like(s), f)
    x = out.grid.xs
    assert np.max(np.abs(out.values - np.exp(-x ** 2 / 2))) < 1e-13
    # Phi* is unitary: it keeps the dx-weighted norm
    g = GridFunction(grid, np.exp(-(grid.xs - 1) ** 2) * np.sin(grid.xs) * (1 + 0.5j))
    norm = lambda h: math.sqrt(h.grid.dx * np.sum(np.abs(h.values) ** 2))
    out = sandwiched_apply(lambda x: np.ones_like(x), lambda s: np.ones_like(s), g)
    assert abs(norm(out) - norm(g)) < 1e-12 * norm(g)


def test_sandwiched_against_quadrature_oracle():
    grid = MOLLIFIER_GRID
    f = GridFunction(grid, np.exp(-grid.xs ** 2 / 2))
    out = sandwiched_apply(lambda x: 1 + x ** 2, lambda s: np.exp(-s ** 2), f)
    x = out.grid.xs
    for idx in (300, 512, 700):
        oracle = (1 + x[idx] ** 2) * (2 * np.pi) ** -0.5 * quad(
            lambda s: math.cos(x[idx] * s) * math.exp(-1.5 * s ** 2), -np.inf, np.inf)[0]
        assert abs(out.values[idx].real - oracle) < 1e-6
        assert abs(out.values[idx].imag) < 1e-12


def test_sandwiched_gamma_weight_reproduces_sigma_form():
    # s(x) = sigma(e^{-x}), v = Gamma(1/2 + i xi): the sandwiched operator
    # applied to the Mellin data of f gives s * u, and pairing with u must
    # reproduce the sigma-side quadratic form
    kern = quasi_carleman(1.0, 2.0, 1.0, 1.0)
    f = ExpPoly(((1.0, 1, 1.0),))
    grid = DEFAULT_GRID
    t = grid.lambdas_pos
    # Phi(e^{x/2} f) on the ascending dual grid: the x-grid's bins in fft order
    # are xi_k = 2 pi k / (n dx), each with the phase e^{-i x0 xi_k}
    n, xi = grid.count, _xi_fft_order(grid)
    phi = (2 * np.pi) ** -0.5 * grid.dx * np.exp(-1j * grid.x_min * xi) \
        * np.fft.fft(np.exp(grid.xs / 2) * t * np.exp(-t))
    d = 2 * np.pi / (n * grid.dx)
    mf = GridFunction(LogGrid(-d * (n // 2), d * (n - n // 2), n), np.fft.fftshift(phi))
    u = u_of_laplace_image(f, grid)

    def s_of_x(x):
        lam = np.exp(-x)
        return np.where(lam > 1.0, (lam - 1.0) * np.exp(-(lam - 1.0)), 0.0)

    out = sandwiched_apply(s_of_x, lambda xi: gamma(0.5 + 1j * xi), mf)
    lhs = grid.dx * np.sum(out.values * np.conj(u.values))
    rhs = form_sigma(kern, f)
    assert abs(lhs.real - rhs) <= 1e-5 * (1 + abs(rhs))
    assert abs(lhs.imag) < 1e-8


def test_sandwiched_appendix_mollifier_variant_converges():
    # conjugate-gamma sandwich: same gaussian smoothing, mirrored weight
    grid = MOLLIFIER_GRID
    xi = grid.xs
    lg = log_gamma(0.5 + 1j * xi)
    g = np.exp(-(xi - 1.0) ** 2 / 4)
    prev = None
    for n in (4, 8, 16, 32):
        expo = lg[:, None] - lg[None, :] - (n ** 2 / 4.0) * (xi[:, None] - xi[None, :]) ** 2
        k = n / (2 * math.sqrt(math.pi)) * np.exp(expo) * grid.dx
        rel = np.linalg.norm(k @ g - g) / np.linalg.norm(g)
        if prev is not None:
            assert rel <= prev + 1e-8
        prev = rel
    assert prev <= 0.01


def test_sandwiched_growth_warning():
    grid = MOLLIFIER_GRID
    f = GridFunction(grid, np.exp(-grid.xs ** 2 / 2))
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        sandwiched_apply(lambda x: np.exp(np.abs(x)), lambda s: np.ones_like(s), f)
    assert any(issubclass(w.category, GrowthWarning) for w in rec)


def test_grid_validation():
    with pytest.raises(ValueError):
        LogGrid(0.0, 1.0, 100)  # not a power of two
    g = LogGrid(-2.0, 2.0, 16)
    assert len(g.xs) == 16 and g.dx == 0.25


@pytest.mark.parametrize("x_min, x_max", [(5.0, -5.0), (1.0, 1.0), (math.nan, 1.0),
                                          (-math.inf, 1.0), (0.0, math.inf)])
def test_grid_refuses_an_empty_reversed_or_infinite_range(x_min, x_max):
    # a reversed range had dx < 0, and every transform ran on it
    with pytest.raises(ValueError, match="x_min < x_max"):
        LogGrid(x_min, x_max, 64)
