"""Laplace transform machinery on log grids.

The Laplace transform factorizes through the Mellin transform as
L = M^{-1} J Gamma M, where M = Phi U with (U f)(x) = e^{x/2} f(e^x),
Phi is the unitary Fourier transform with convention
(Phi u)(xi) = (2 pi)^{-1/2} integral u(x) e^{-i x xi} dx,
J is frequency reflection and Gamma multiplies by Gamma(1/2 + i xi).

This module implements that pipeline on uniform grids in x = ln t
(equivalently x = -ln lam), its inverse (reconstruction of f from the
exponential-variable test function u), the gaussian-mollifier sandwich
operators T_n = Gamma* chihat_n (Gamma*)^{-1}, and generic sandwiched
Fourier operators s(x) Phi* v(xi).  On the xi grid, with
lg = log Gamma(1/2 - i xi), T_n g = e^{lg} (chihat_n dx * (e^{-lg} g)): one
gaussian convolution, truncated where its tail falls below 1e-17.

Every grid transform works in fft order.  On an x-grid x_j = x0 + j dx with
fft-order frequencies xi_k = 2 pi k/(n dx),

    (Phi u)(xi_k)  = (2 pi)^{-1/2} dx e^{-i x0 xi_k} FFT(u)[k]
    (Phi* g)(x_j)  = (2 pi)^{1/2} / dx * IFFT(g e^{+i x0 xi})[j]

so Phi* Phi = identity exactly and Parseval is exact in the dx/dxi-weighted
norms.  The two pipelines run on the bare FFTs: J turns the first FFT into
N IFFT, so with u = e^{x/2} f,
L f = e^{-x/2} N IFFT(e^{2i x0 xi} conj Gamma(1/2 + i xi) IFFT(u)), and in
the inverse the x0 phases of Phi and Phi* cancel, so
f = e^{-x/2} IFFT(band FFT(u) / Gamma(1/2 + i xi)), the band being the
xi-span of every bin where |FFT(u)| is at least 1e-12 of its peak.
``sandwiched_apply`` maps a frequency grid to its dual x-grid: one IFFT
with the phase of the input grid's start, then the package's only
reordering from fft order to ascending order, because its output is a
GridFunction on a LogGrid, whose points ascend, and s(x) is sampled there.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .special import gamma, log_gamma

__all__ = [
    "LogGrid",
    "GridFunction",
    "DEFAULT_GRID",
    "MOLLIFIER_GRID",
    "InsufficientDecayError",
    "AmplificationError",
    "GrowthWarning",
    "laplace_via_mellin",
    "reconstruct",
    "u_of_laplace_image",
    "mollifier_matrix",
    "mollifier_tn",
    "mollifier_norm",
    "sandwiched_apply",
]


class InsufficientDecayError(ValueError):
    """Samples do not decay at the grid edges; the FFT would wrap."""


class AmplificationError(ValueError):
    """Dividing by Gamma(1/2+i xi) would amplify noise: Phi u decays too slowly."""


class GrowthWarning(UserWarning):
    """The sandwiching function exceeds its polynomial growth envelope."""


@dataclass(frozen=True)
class LogGrid:
    """Uniform grid in the logarithmic (or frequency) variable."""

    x_min: float
    x_max: float
    count: int

    def __post_init__(self):
        if self.count < 16 or self.count & (self.count - 1):
            raise ValueError("count must be a power of two >= 16")
        if not -np.inf < self.x_min < self.x_max < np.inf:  # false for a nan too
            raise ValueError("grid needs finite x_min < x_max, got [%r, %r]"
                             % (self.x_min, self.x_max))

    @property
    def dx(self):
        return (self.x_max - self.x_min) / self.count

    @property
    def xs(self):
        return self.x_min + self.dx * np.arange(self.count)

    @property
    def lambdas_pos(self):
        """lam = e^{+x}: the t-side / Mellin convention."""
        return np.exp(self.xs)


DEFAULT_GRID = LogGrid(-60.0, 60.0, 16384)
MOLLIFIER_GRID = LogGrid(-40.0, 40.0, 1024)
_NORM_ITERS, _NORM_TOL = 30, 1e-6  # mollifier_norm's power iteration
_NORM_BRACKET = 5e-3  # relative width of its bracket above which mollifier_norm warns


@dataclass(frozen=True)
class GridFunction:
    grid: LogGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != (self.grid.count,):
            raise ValueError("values must match the grid")
        object.__setattr__(self, "values", v)


def _xi_fft_order(grid):
    return 2 * np.pi * np.fft.fftfreq(grid.count, d=grid.dx)


@functools.lru_cache(maxsize=8)
def _gamma_half(grid):
    """Gamma(1/2 + i xi) on the fft-order frequencies of ``grid``.

    Computed once per grid and shared by every call, so it is read-only.
    """
    g = gamma(0.5 + 1j * _xi_fft_order(grid))
    g.flags.writeable = False
    return g


# ---------------------------------------------------------------------------
# Laplace transform
# ---------------------------------------------------------------------------

def laplace_via_mellin(f):
    """Laplace transform of f (sampled at t = e^x) via the Mellin factorization.

    Returns the image sampled at lam = e^x on the same grid; e^{x/2} f(e^x)
    must fall below 1e-8 of its peak at the grid edges.  J turns the FFT
    of Phi into N IFFT, since FFT(u)[-k] = N IFFT(u)[k].
    """
    grid = f.grid
    u = np.exp(grid.xs / 2) * f.values
    peak = np.max(np.abs(u))
    if peak == 0:
        return GridFunction(grid, np.zeros(grid.count, complex))
    edge = max(np.max(np.abs(u[:4])), np.max(np.abs(u[-4:])))
    if edge > 1e-8 * peak:
        raise InsufficientDecayError(
            "weighted samples at grid edges are %.2e of peak (need < 1e-8)" % (edge / peak)
        )
    m = np.exp(2j * grid.x_min * _xi_fft_order(grid)) * np.conj(_gamma_half(grid))
    w = grid.count * np.fft.ifft(m * np.fft.ifft(u))
    return GridFunction(grid, np.exp(-grid.xs / 2) * w)


def u_of_laplace_image(f, grid=DEFAULT_GRID):
    """u(x) = e^{-x/2} w(e^{-x}) of a t-side test function f with a
    closed-form image w = L f."""
    x = grid.xs
    w = np.asarray(f.laplace_image()(np.exp(-x)), dtype=complex)
    return GridFunction(grid, np.exp(-x / 2) * w)


_EDGE_RTOL = 1e-10  # of max|u|, at the grid edges of ``reconstruct``


def reconstruct(u):
    """Recover f (sampled at t = e^x) from u(x) = e^{-x/2} (L f)(e^{-x}).

    Works through (M f)(xi) = Gamma(1/2 + i xi)^{-1} (Phi u)(xi); the x0
    phases of Phi and Phi* cancel, so only the FFTs remain.  The spectrum of u is cut to the xi-span
    [min, max] of every bin where it is at least 1e-12 of its peak, so a
    zero at xi = 0 does not cut it; outside the span only discretization
    junk survives, and dividing that by exponentially small Gamma values
    would destroy everything.  The precondition is that the span ends
    inside the grid and the quotient has turned around and is decaying at
    both ends, to 5% of its peak or below: that is the grid form of
    "Phi u decays faster than Gamma(1/2+i xi)".  u itself must have decayed
    to _EDGE_RTOL of max|u| at both grid edges: the jump of its periodic
    extension leaks into every frequency, and at ~3e-10 of max|u| the leak
    of an 8192-point grid reaches the band floor and reads as slow decay.
    """
    grid = u.grid
    fu = np.fft.fft(u.values)
    absu = np.abs(fu)
    peak = np.max(absu)
    if peak == 0:
        return GridFunction(grid, np.zeros(grid.count, complex))
    edge = max(abs(u.values[0]), abs(u.values[-1])) / np.max(np.abs(u.values))
    if edge > _EDGE_RTOL:
        raise AmplificationError(
            "u at the grid edges is %.2e of its peak (need <= %.0e)" % (edge, _EDGE_RTOL)
        )
    xi = _xi_fft_order(grid)
    kept = xi[absu >= 1e-12 * peak]
    lo, hi = kept.min(), kept.max()
    g = np.where((xi >= lo) & (xi <= hi), fu / _gamma_half(grid), 0.0)
    ends = np.abs(g[(xi == lo) | (xi == hi)])
    if lo == xi.min() or hi == xi.max() or ends.max() > 0.05 * np.max(np.abs(g)):
        raise AmplificationError(
            "Phi u does not decay faster than Gamma(1/2+i xi) on this grid"
        )
    return GridFunction(grid, np.exp(-grid.xs / 2) * np.fft.ifft(g))


# ---------------------------------------------------------------------------
# Mollifier sandwich operators T_n = Gamma* chihat_n (Gamma*)^{-1}
# ---------------------------------------------------------------------------

def mollifier_matrix(n, grid=MOLLIFIER_GRID):
    """Dense xi-grid matrix of T_n with the Gamma ratio folded in log-space.

    The kernel is Gamma(1/2-i xi) / Gamma(1/2-i eta) * chihat_n(xi - eta)
    with chihat_n(s) = n e^{-n^2 s^2 / 4} / (2 sqrt(pi)); combining the
    ratio with the gaussian before exponentiating keeps every entry finite.
    """
    xi = grid.xs
    lg = log_gamma(0.5 - 1j * xi)
    d = xi[:, None] - xi[None, :]
    log_ratio = lg[:, None] - lg[None, :] - (n ** 2 / 4.0) * d ** 2
    return n / (2 * np.sqrt(np.pi)) * np.exp(log_ratio) * grid.dx


def _band_width(n, grid):
    """Half-width b of the convolution kept for T_n: offsets |o| <= b.

    With a = Re log Gamma(1/2 - i xi) = log(pi / cosh(pi xi)) / 2, one has
    a_i - a_j <= pi |d| / 2, so an entry of |K| at offset o is at most
    n dx / (2 sqrt(pi)) e^{pi |o dx| / 2 - n^2 (o dx)^2 / 4}.  b is the
    smallest width whose dropped tail, twice the sum of that envelope over
    o > b, is <= 1e-17: every row and column of the dropped entries then
    sums to <= 1e-17 of the diagonal entry, and so of the norm.
    """
    s = grid.dx * np.arange(grid.count)
    env = np.exp(np.pi * s / 2 - n ** 2 * s ** 2 / 4)
    beyond = np.append(np.cumsum(env[::-1])[-2::-1], 0.0)  # sum over o > b, b = 0..N-1
    return int(np.argmax(2 * beyond <= 1e-17))


def _mollifier_conv(n, grid):
    """The convolution x -> chihat_n dx * x over |o| <= b, and lg on the grid.

    lg = log Gamma(1/2 - i xi), so T_n g = e^{lg} conv(e^{-lg} g).  The sum
    is direct: e^{-lg} reaches ~1e27 at the edges of MOLLIFIER_GRID, and an
    FFT would spread the rounding of those entries over every output.
    """
    if n < 1:
        raise ValueError("mollifier index must be >= 1")
    b = _band_width(n, grid)
    o = grid.dx * np.arange(-b, b + 1)
    kernel = n * grid.dx / (2 * np.sqrt(np.pi)) * np.exp(-(n * o) ** 2 / 4)
    return (lambda x: np.convolve(x, kernel)[b:b + grid.count]), log_gamma(0.5 - 1j * grid.xs)


def mollifier_tn(n, g):
    """Apply T_n to a GridFunction on the xi grid, as e^{lg} (chihat_n dx * (e^{-lg} g))."""
    conv, lg = _mollifier_conv(n, g.grid)
    return GridFunction(g.grid, np.exp(lg) * conv(np.exp(-lg) * g.values))


def mollifier_norm(n, grid=MOLLIFIER_GRID):
    """Grid operator-norm estimate of T_n by power iteration on T*T.

    T = U |K| U^H with U = e^{i Im lg} unitary and diagonal, and
    |K| x = e^a conv(e^{-a} x) with a = Re lg, so the iteration runs in real
    arithmetic on |K|^T |K| v = e^{-a} conv(e^{2a} conv(e^{-a} v)), from the
    vector with every entry 1/sqrt(N).  It stops when the relative change
    of ||T||^2 falls to _NORM_TOL, or after _NORM_ITERS steps.  A = |K|^T |K|
    is entrywise positive, so for the last iterate v > 0 the Collatz-Wielandt
    bound rho(A) <= max_i (A v)_i / v_i gives an upper end of the norm; the
    estimate sqrt||A v|| is below it.  Warns (RuntimeWarning) when the upper
    end exceeds the estimate by more than _NORM_BRACKET relative, or is
    infinite because an entry of v is 0.
    """
    conv, lg = _mollifier_conv(n, grid)
    down, up = np.exp(-lg.real), np.exp(2 * lg.real)
    v = np.full(grid.count, grid.count ** -0.5)
    prev = 0.0
    for _ in range(_NORM_ITERS):
        w = down * conv(up * conv(down * v))
        s = np.linalg.norm(w)
        last, v = v, w / s
        if abs(s - prev) <= _NORM_TOL * s:
            break
        prev = s
    upper = np.sqrt(np.max(w / last)) if np.all(last > 0) else np.inf
    if upper > np.sqrt(s) * (1.0 + _NORM_BRACKET):
        warnings.warn("mollifier_norm(%d): the norm lies in [%.8g, %.8g], wider than "
                      "_NORM_BRACKET=%g relative" % (n, np.sqrt(s), upper, _NORM_BRACKET),
                      RuntimeWarning, stacklevel=2)
    return float(np.sqrt(s))


# ---------------------------------------------------------------------------
# Sandwiched Fourier operators  A = s(x) Phi* v(xi)
# ---------------------------------------------------------------------------

def sandwiched_apply(s, v, f):
    """Compute s(x) Phi*(v(xi) f(xi)).

    ``f`` lives on its own (frequency) grid xi_j = xi0 + j dxi; the result
    lives on the dual x-grid, whose fft-order points x_k = 2 pi k/(n dxi)
    give Phi* g = (2 pi)^{-1/2} dxi e^{i xi0 x} N IFFT(g), shifted to
    ascending order.  ``s`` and ``v`` are callables (FunctionSpecs work).  A
    GrowthWarning is emitted when s grows faster than |x|^12 toward the
    grid edges (the operator theory assumes a polynomial envelope on s).
    """
    grid, n = f.grid, f.grid.count
    vf = np.asarray(v(grid.xs), dtype=complex) * f.values
    phase = np.exp(1j * grid.x_min * _xi_fft_order(grid))
    vals = (2 * np.pi) ** -0.5 * grid.dx * phase * (n * np.fft.ifft(vf))
    d = 2 * np.pi / (n * grid.dx)
    out = LogGrid(-d * (n // 2), d * (n - n // 2), n)
    x = out.xs
    sx = np.asarray(s(x), dtype=complex)
    _check_polynomial_growth(x, sx)
    return GridFunction(out, sx * np.fft.fftshift(vals))


def _check_polynomial_growth(x, sx):
    """Warn when |s| grows faster than |x|^12 toward the grid edges."""
    n = len(x)
    m = max(8, n // 10)
    for sl in (slice(n - m, n), slice(0, m)):
        xa = np.abs(x[sl])
        sa = np.abs(sx[sl])
        good = (sa > 0) & (xa > 1)
        if np.count_nonzero(good) < 4:
            continue
        lx, ls = np.log(xa[good]), np.log(sa[good])
        slope = np.polyfit(lx, ls, 1)[0]
        if slope > 12:
            warnings.warn(
                "sandwiching function grows like |x|^%.1f at the edge (envelope 12)"
                % slope, GrowthWarning)
            return
