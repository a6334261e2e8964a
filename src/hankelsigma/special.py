"""Special functions and truncated-Taylor (jet) arithmetic.

Everything downstream -- distribution pairings, Mellin weights, Galerkin
entries -- reduces to three primitives collected here: the complex gamma
function, Laguerre polynomials, and exact jets of a small closed family
of analytic expressions (rational * exponential * power * log factors).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "gamma",
    "log_gamma",
    "laguerre",
    "laguerre_e",
    "Jet",
    "FunctionSpec",
    "FPoly",
    "FExp",
    "FLog",
    "FPow",
    "FProd",
    "FSum",
    "FIndicatorImage",
    "fs_var",
    "fs_const",
    "fs_affine",
    "laguerre_image",
    "PoleError",
    "NonAnalyticError",
]


class PoleError(ValueError):
    """Gamma evaluated at a non-positive integer."""


class NonAnalyticError(ValueError):
    """Jet requested at a point where the expression is not analytic."""


# ---------------------------------------------------------------------------
# Complex gamma (Lanczos, g=7, 9 coefficients) with reflection for Re z < 1/2.
# ---------------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_C = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])


def _lanczos_series(z):
    s = np.full(np.shape(z), _LANCZOS_C[0], dtype=complex)
    for k in range(1, 9):
        s = s + _LANCZOS_C[k] / (z + (k - 1))
    return s


def _gamma_right(z):
    # valid for Re z >= 0.5
    zm1 = z - 1.0
    t = zm1 + _LANCZOS_G + 0.5
    return np.sqrt(2 * np.pi) * t ** (zm1 + 0.5) * np.exp(-t) * _lanczos_series(z)


def gamma(z):
    """Gamma(z) for complex scalar or array z, ~1e-13 relative accuracy."""
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    on_pole = (z.imag == 0) & (z.real <= 0) & (z.real == np.round(z.real))
    if np.any(on_pole):
        raise PoleError("gamma pole at non-positive integer")
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _gamma_right(z[right])
    if np.any(~right):
        zl = z[~right]
        # reflection: Gamma(z) = pi / (sin(pi z) * Gamma(1-z))
        out[~right] = np.pi / (np.sin(np.pi * zl) * _gamma_right(1.0 - zl))
    return out[0] if scalar else out


def log_gamma(z):
    """Principal log of Gamma(z) for Re z >= 0.5 (enough for the 1/2+i*xi line).

    Stays finite where gamma itself under/overflows, which is what the
    sandwiched-transform ratios need.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(z.real < 0.5):
        raise ValueError("log_gamma implemented for Re z >= 0.5 only")
    zm1 = z - 1.0
    t = zm1 + _LANCZOS_G + 0.5
    return 0.5 * math.log(2 * np.pi) + (zm1 + 0.5) * np.log(t) - t + np.log(_lanczos_series(z))


# ---------------------------------------------------------------------------
# Laguerre polynomials and the orthonormal basis e_n(t) = L_n(t) e^{-t/2}.
# ---------------------------------------------------------------------------

def laguerre(n, t):
    """L_n(t) by the three-term recurrence; t scalar or array, n >= 0."""
    if n < 0:
        raise ValueError("laguerre order must be >= 0")
    t = np.asarray(t, dtype=float)
    p_prev = np.ones_like(t)
    if n == 0:
        return p_prev
    p = 1.0 - t
    for k in range(1, n):
        p, p_prev = ((2 * k + 1 - t) * p - k * p_prev) / (k + 1), p
    return p


def laguerre_e(n, t):
    """Orthonormal basis element e_n(t) = L_n(t) e^{-t/2} of L2(R+)."""
    t = np.asarray(t, dtype=float)
    return laguerre(n, t) * np.exp(-t / 2)


# ---------------------------------------------------------------------------
# Jets: truncated Taylor data, coeffs[p] = f^{(p)}(center) / p!
# ---------------------------------------------------------------------------

def _jet_mul(a, b):
    """Truncated product of two jets' Taylor coefficients, length n = len(b)."""
    return np.convolve(a, b)[:len(b)]


def _jet_recip(a):
    """Taylor coefficients of 1/f from those of f, a[0] != 0."""
    n = len(a)
    out = np.zeros(n, dtype=complex)
    out[0] = 1.0 / a[0]
    for p in range(1, n):
        out[p] = -out[0] * np.dot(a[1: p + 1], out[p - 1:: -1])
    return out


@dataclass(frozen=True)
class Jet:
    """Taylor expansion of an analytic function at ``center`` to ``order``."""

    center: complex
    coeffs: np.ndarray  # length order+1, complex

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=complex))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def _check(self, other):
        if self.center != other.center or self.order != other.order:
            raise ValueError("jet centers/orders must match")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.center, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(self.center, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.center, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(self.center, self.coeffs * other)
        self._check(other)
        return Jet(self.center, _jet_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def reciprocal(self):
        if self.coeffs[0] == 0:
            raise NonAnalyticError("reciprocal of a jet vanishing at center")
        return Jet(self.center, _jet_recip(self.coeffs))

    def exp(self):
        a = self.coeffs
        n = self.order + 1
        out = np.zeros(n, dtype=complex)
        out[0] = np.exp(a[0])
        for p in range(1, n):
            out[p] = np.dot(np.arange(1, p + 1) * a[1: p + 1], out[p - 1:: -1]) / p
        return Jet(self.center, out)

    def log(self):
        """(log f)' = f'/f: the reciprocal rule times the derivative's jet."""
        a = self.coeffs
        if a[0] == 0:
            raise NonAnalyticError("log of a jet vanishing at center")
        out = np.empty(self.order + 1, dtype=complex)
        out[0] = np.log(a[0])
        if self.order:
            k = np.arange(1, self.order + 1)
            out[1:] = _jet_mul(k * a[1:], _jet_recip(a)[:-1]) / k
        return Jet(self.center, out)

    def ipow(self, m):
        """Integer power by repeated multiplication (no branch cuts)."""
        if m < 0:
            return self.reciprocal().ipow(-m)
        result = Jet(self.center, np.concatenate(([1.0], np.zeros(self.order, complex))))
        base = self
        while m > 0:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def pow(self, p):
        """Real (or complex) power via exp(p*log); principal branch."""
        if isinstance(p, (int, np.integer)) or (isinstance(p, float) and p == int(p)):
            return self.ipow(int(p))
        return (self.log() * p).exp()

    def conj_mirror(self):
        """Jet of z -> conj(f(conj z)) at conj(center)."""
        return Jet(np.conj(self.center), np.conj(self.coeffs))


def _fit(coeffs, n):
    """The first n of ``coeffs``, padded with zeros."""
    out = np.zeros(n, dtype=complex)
    out[:min(n, len(coeffs))] = coeffs[:n]
    return out


def _shift_poly(coeffs, shift):
    """Coefficients of P(z + shift) from those of P(z), ascending: Horner in z + shift."""
    out = np.array(coeffs[-1:], dtype=complex)
    for c in coeffs[-2::-1]:
        out = np.convolve(out, [shift, 1.0])
        out[0] += c
    return out


def _var_jet(center, order):
    c = np.zeros(order + 1, dtype=complex)
    c[0] = center
    if order >= 1:
        c[1] = 1.0
    return Jet(center, c)


# ---------------------------------------------------------------------------
# FunctionSpec: a closed expression-tree language so jets are exact.
# Nodes: polynomial, exp, log, power, product, sum, plus the
# stable interval-indicator Laplace image.
# ---------------------------------------------------------------------------

class FunctionSpec:
    """Base class for the closed-form expression language."""

    knots = ()  # real points where it is narrow; products and sums join them

    def __call__(self, z):
        raise NotImplementedError

    def jet(self, center, order):
        raise NotImplementedError

    def decay(self):
        """(rate, power): |f| ~ C lam^power e^{-rate lam} as lam -> +inf.

        rate=inf flags super-exponential decay; raises ValueError when the
        expression grows too irregularly to bound.
        """
        raise NotImplementedError

    def __add__(self, other):
        return FSum([self, _as_spec(other)])

    __radd__ = __add__

    def __mul__(self, other):
        return FProd([self, _as_spec(other)])

    __rmul__ = __mul__

    def __sub__(self, other):
        return FSum([self, -_as_spec(other)])

    def __neg__(self):
        return FProd([-1.0, self])


def _as_spec(x):
    if isinstance(x, FunctionSpec):
        return x
    return FPoly([complex(x)])


class FPoly(FunctionSpec):
    """sum_k coeffs[k] (z - center)^k."""

    def __init__(self, coeffs, center=0.0):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.center = center
        if len(self.coeffs) == 0:
            self.coeffs = np.zeros(1, complex)

    def __call__(self, z):
        # polyval's Horner steps (numpy takes a real z as z + 0j): bitwise equal
        z = np.asarray(z)
        if self.center != 0:
            z = z - self.center
        out = self.coeffs[-1] + z * 0
        for c in self.coeffs[-2::-1]:
            out = c + out * z
        return out

    def jet(self, center, order):
        """The polynomial re-expanded about ``center``, to ``order``."""
        return Jet(center, _fit(_shift_poly(self.coeffs, center - self.center), order + 1))

    @property
    def degree(self):
        return max([k for k, c in enumerate(self.coeffs) if c != 0], default=0)

    def decay(self):
        return (0.0, float(self.degree))


class FExp(FunctionSpec):
    """exp(child).  A gaussian exp(c0 + c1 (z-a) + c2 (z-a)^2), Re c2 < 0, a and c
    complex, is narrow at its real peak m = Re a - Re(c1 - 2i Im(a) c2)/(2 Re c2)
    and where it falls to e^{-16}, m +- 4 w with w = (-Re c2)^{-1/2}."""

    def __init__(self, child):
        self.child = ch = _as_spec(child)
        if isinstance(ch, FPoly) and ch.degree == 2 and ch.coeffs[2].real < 0:
            c1, c2, a = ch.coeffs[1], ch.coeffs[2], ch.center
            m, w = np.real(a - (c1 - 2j * np.imag(a) * c2) / (2 * c2.real)), (-c2.real) ** -0.5
            self.knots = (m - 4 * w, m, m + 4 * w)

    def __call__(self, z):
        return np.exp(self.child(z))

    def jet(self, center, order):
        return self.child.jet(center, order).exp()

    def decay(self):
        ch = self.child
        if isinstance(ch, FPoly):
            deg = ch.degree
            if deg <= 1:
                slope = ch.coeffs[1] if len(ch.coeffs) > 1 else 0.0
                return (-float(np.real(slope)), 0.0)
            lead = ch.coeffs[deg]
            if lead.real < 0:
                return (math.inf, 0.0)
            raise ValueError("exp of a growing polynomial has no decay bound")
        # non-polynomial exponents (log-window forms): probe the real part
        probes = np.real(ch(np.array([1e3, 1e6], dtype=float)))
        if probes[1] < -20 and probes[1] < probes[0]:
            return (math.inf, 0.0)
        raise ValueError("cannot bound decay of this exponential factor")


class FLog(FunctionSpec):
    def __init__(self, child):
        self.child = _as_spec(child)

    def __call__(self, z):
        return np.log(self.child(z))

    def jet(self, center, order):
        return self.child.jet(center, order).log()

    def decay(self):
        # grows slower than any power; 0 is safe inside strict comparisons
        return (0.0, 0.0)


class FPow(FunctionSpec):
    def __init__(self, child, exponent):
        self.child = _as_spec(child)
        self.exponent = exponent

    def __call__(self, z):
        base = self.child(z)
        e = self.exponent
        if isinstance(e, (int, np.integer)) or float(e) == int(e):
            return base ** int(e)
        return np.power(base.astype(complex) if hasattr(base, "astype") else complex(base), e)

    def jet(self, center, order):
        return self.child.jet(center, order).pow(self.exponent)

    def decay(self):
        rate, power = self.child.decay()
        e = float(np.real(self.exponent))
        if rate != 0.0:
            raise ValueError("power of an exponentially varying factor")
        return (0.0, power * e)


class FProd(FunctionSpec):
    """scale * prod(parts), with nested products and constant factors folded."""

    def __init__(self, parts):
        self.scale, self.parts = 1.0 + 0.0j, []
        for p in map(_as_spec, parts):
            if isinstance(p, FProd):
                self.scale *= p.scale
                self.parts += p.parts
            elif isinstance(p, FPoly) and len(p.coeffs) == 1:
                self.scale *= p.coeffs[0]
            else:
                self.parts.append(p)
        if not self.parts:
            self.scale, self.parts = 1.0 + 0.0j, [FPoly([self.scale])]
        self.knots = sum((p.knots for p in self.parts), ())

    def __call__(self, z):
        out = self.parts[0](z)
        for p in self.parts[1:]:
            out = out * p(z)
        return out if self.scale == 1 else self.scale * out

    def jet(self, center, order):
        out = self.parts[0].jet(center, order)
        for p in self.parts[1:]:
            out = out * p.jet(center, order)
        return out if self.scale == 1 else out * self.scale

    def decay(self):
        rate, power = 0.0, 0.0
        for p in self.parts:
            r, pw = p.decay()
            rate, power = rate + r, power + pw
        return (rate, power)


class FSum(FunctionSpec):
    """sum(parts), with nested sums flattened and the polynomial parts in
    powers of z merged."""

    def __init__(self, parts):
        flat = [q for p in map(_as_spec, parts) for q in (p.parts if isinstance(p, FSum) else [p])]
        merge = [isinstance(p, FPoly) and p.center == 0 for p in flat]
        self.parts = [p for p, m in zip(flat, merge) if not m]
        polys = [p.coeffs for p, m in zip(flat, merge) if m]
        if polys:
            self.parts.append(FPoly(functools.reduce(np.polynomial.polynomial.polyadd, polys)))
        self.knots = sum((p.knots for p in self.parts), ())

    def __call__(self, z):
        out = self.parts[0](z)
        for p in self.parts[1:]:
            out = out + p(z)
        return out

    def jet(self, center, order):
        out = self.parts[0].jet(center, order)
        for p in self.parts[1:]:
            out = out + p.jet(center, order)
        return out

    def decay(self):
        # dominant term: smallest rate, then largest power
        infos = [p.decay() for p in self.parts]
        rate = min(r for r, _ in infos)
        power = max(pw for r, pw in infos if r == rate)
        return (rate, power)


class FIndicatorImage(FunctionSpec):
    """(e^{-a lam} - e^{-b lam}) / lam, the Laplace image of 1_(a,b)."""

    def __init__(self, a, b):
        if not (0 <= a < b):
            raise ValueError("need 0 <= a < b")
        self.a = float(a)
        self.b = float(b)

    def __call__(self, z):
        z = np.asarray(z, dtype=float) if np.isrealobj(z) else np.asarray(z, dtype=complex)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = np.exp(-self.a * z) * (-np.expm1(-(self.b - self.a) * z)) / z
        small = np.abs(z) < 1e-300
        if np.any(small):
            out = np.where(small, self.b - self.a, out)
        return out

    def jet(self, center, order):
        if center == 0:
            raise NonAnalyticError("indicator image jet at 0 not supported")
        za = _var_jet(center, order)
        ea = (za * (-self.a)).exp()
        eb = (za * (-self.b)).exp()
        return (ea - eb) * za.reciprocal()

    def decay(self):
        return (self.a, -1.0) if self.a > 0 else (0.0, -1.0)


def fs_var():
    """The identity expression z."""
    return FPoly([0.0, 1.0])


def fs_const(c):
    return FPoly([complex(c)])


def fs_affine(slope, offset):
    """slope*z + offset."""
    return FPoly([complex(offset), complex(slope)])


def laguerre_image(n):
    """Laplace image of e_n: mu^n / (lam + 1/2), mu = (lam - 1/2) / (lam + 1/2).

    Its leaf mu^n, ~ e^{-4n lam} near 0, is narrow at 4/n: the knot sits on
    the leaf, as flattening drops a product's own knots."""
    rden = FPow(fs_affine(1.0, 0.5), -1)
    mu_n = FPow(FProd([fs_affine(1.0, -0.5), rden]), n)
    mu_n.knots = (4.0 / n,) if n else ()
    return FProd([mu_n, rden])
