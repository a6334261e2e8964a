"""Quadratic forms of Hankel kernels on both sides of the main identity.

The direct side evaluates <h, conj(f1) star f2>, (conj(f1) star f2)(t) =
integral_0^t conj(f1(s)) f2(t-s) ds, monomial pair by monomial pair
without dividing by a rate gap: finite-rank terms in closed form,
quasi-Carleman terms through Euler's integral for 2F1.
The sigma side evaluates <sigma, (Lf1)* (Lf2)>.  Equality of the two is
the central identity everything else leans on, so both routes are kept
fully independent: the direct side never touches the sigma machinery.

Test functions live in a small closed family: exponential-polynomial
sums c t^m e^{-g t} (closed under convolution, with rational Laplace
images), interval indicators, and lam-side images such as the
log-gaussian trial family (sigma side only).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _quad
from .kernel import Kernel, QuasiCarlemanTerm
from .sigma import sigma_of_kernel, sigma_pair
from .special import (FIndicatorImage, FPow, FProd, FSum, FunctionSpec,
                      fs_affine, fs_const, gamma)

__all__ = [
    "ExpPoly",
    "Indicator",
    "LaplaceImage",
    "laguerre_test",
    "dilate",
    "FormDomainError",
    "laplace_convolution",
    "form_direct",
    "form_sigma",
    "identity_residual",
    "min_monomial_order",
    "dilation_check",
    "spectral_witnesses",
]


class FormDomainError(ValueError):
    """The form integral diverges for this kernel/test-function pair."""


# ---------------------------------------------------------------------------
# Test functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpPoly:
    """f(t) = sum_i c_i t^{m_i} e^{-g_i t}; terms as (c, m, g), Re g > 0."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((complex(c), int(m), complex(g)) for c, m, g in self.terms)
        for (c, m, g), given in zip(terms, self.terms):
            if m != given[1] or m < 0 or g.real <= 0:  # int() would truncate a fractional m
                raise ValueError("ExpPoly needs integer m >= 0 and Re g > 0")
        object.__setattr__(self, "terms", terms)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape, dtype=complex)
        for c, m, g in self.terms:
            out = out + c * t ** m * np.exp(-g * t)
        return out

    def conj(self):
        return ExpPoly(tuple((np.conj(c), m, np.conj(g)) for c, m, g in self.terms))

    def vanishing_order(self):
        """True vanishing order at t = 0: Taylor coefficients below 1e-10 of
        the summed magnitudes of their contributions cancel to zero.
        Computed once per ExpPoly; equality and hashing see only ``terms``."""
        return self._vanishing_order

    @functools.cached_property
    def _vanishing_order(self):
        count = max(m for _, m, _ in self.terms) + 8
        coeffs = np.zeros(count, dtype=complex)
        scales = np.zeros(count)
        for c, m, g in self.terms:
            for j in range(m, count):
                contrib = c * (-g) ** (j - m) / math.factorial(j - m)
                coeffs[j] += contrib
                scales[j] += abs(contrib)
        nonzero = np.abs(coeffs) > 1e-10 * np.maximum(scales, 1e-300)
        return int(np.argmax(nonzero)) if nonzero.any() else count

    def laplace_image(self):
        """L f as a FunctionSpec: sum c m! / (lam + g)^{m+1}."""
        return _ExpPolyImage(self)

    def norm_sq(self):
        """L2(R+) norm squared, in closed form."""
        total = 0.0
        for c1, m1, g1 in self.terms:
            for c2, m2, g2 in self.terms:
                gg = np.conj(g1) + g2
                total += np.conj(c1) * c2 * math.factorial(m1 + m2) / gg ** (m1 + m2 + 1)
        return float(np.real(total))


class _ExpPolyImage(FSum):
    """L f of an ExpPoly f; decays like lam^-(o+1), o = f.vanishing_order()."""

    def __init__(self, f):
        super().__init__([FProd([fs_const(c * math.factorial(m)), FPow(fs_affine(1.0, g), -(m + 1))])
                          for c, m, g in f.terms])
        self.f = f

    def decay(self):
        return (0.0, -(self.f.vanishing_order() + 1.0))


@dataclass(frozen=True)
class Indicator:
    """1 on (a, b), 0 elsewhere."""

    a: float
    b: float

    def __post_init__(self):
        if not 0 <= self.a < self.b:
            raise ValueError("need 0 <= a < b")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return ((t > self.a) & (t < self.b)).astype(float)

    def laplace_image(self):
        return FIndicatorImage(self.a, self.b)

    def norm_sq(self):
        return self.b - self.a


@dataclass(frozen=True)
class LaplaceImage:
    """A test function known only through its Laplace image w(lam).

    Forms on these are evaluated on the sigma side exclusively (the
    log-gaussian trial family, reconstructed members, ...).
    """

    w: FunctionSpec

    def laplace_image(self):
        return self.w


def laguerre_test(coeffs):
    """sum_n coeffs[n] e_n(t) as an ExpPoly (e_n = L_n(t) e^{-t/2})."""
    terms = []
    for n, cn in enumerate(coeffs):
        if cn == 0:
            continue
        for k in range(n + 1):
            lag = (-1) ** k * math.comb(n, k) / math.factorial(k)
            terms.append((cn * lag, k, 0.5))
    return ExpPoly(tuple(terms))


def dilate(f, gam):
    """(D(gam) f)(t) = gam^{1/2} f(gam t), a unitary dilation."""
    if isinstance(f, ExpPoly):
        return ExpPoly(tuple((c * gam ** (0.5 + m), m, g * gam) for c, m, g in f.terms))
    if isinstance(f, Indicator):
        raise TypeError("dilated indicators are rescaled intervals; build directly")
    raise TypeError("cannot dilate %r" % (f,))


# ---------------------------------------------------------------------------
# Laplace convolution (conj(f1) star f2)
# ---------------------------------------------------------------------------

def _conv_monomials(m1, g1, m2, g2):
    """t^{m1} e^{-g1 t} star t^{m2} e^{-g2 t} as ExpPoly terms."""
    if abs(g1 - g2) < 1e-9:
        c = math.factorial(m1) * math.factorial(m2) / math.factorial(m1 + m2 + 1)
        return [(c, m1 + m2 + 1, g1)]
    d = g1 - g2
    terms = []
    # int_0^t s^{m1} e^{-d s} (t-s)^{m2} ds, expanded by the binomial theorem
    for i in range(m2 + 1):
        pref = math.comb(m2, i) * (-1.0) ** i
        mm = m1 + i
        # int_0^t s^mm e^{-d s} ds = mm!/d^{mm+1} (1 - e^{-d t} sum_l (d t)^l / l!)
        base = math.factorial(mm) / d ** (mm + 1)
        terms.append((pref * base, m2 - i, g2))
        for el in range(mm + 1):
            terms.append((-pref * base * d ** el / math.factorial(el), m2 - i + el, g1))
    return terms


def laplace_convolution(f1, f2):
    """(conj(f1) star f2): a closed form within the ExpPoly family.

    Mixed rates divide by powers of the gap d and lose ~(m + n + 1) log10(1/|d|)
    digits, all of them for gaps ~1e-8 to ~1e-2 (``form_direct`` avoids this).
    Indicator pairs give a piecewise-linear callable; others raise TypeError.
    """
    if isinstance(f1, ExpPoly) and isinstance(f2, ExpPoly):
        out = []
        for c1, m1, g1 in f1.conj().terms:
            for c2, m2, g2 in f2.terms:
                out.extend((c1 * c2 * c, m, g) for c, m, g in _conv_monomials(m1, g1, m2, g2))
        merged = {}
        for c, m, g in out:
            key = (m, round(g.real, 12), round(g.imag, 12))
            merged[key] = merged.get(key, 0.0) + c
        return ExpPoly(tuple((c, m, complex(gre, gim)) for (m, gre, gim), c in merged.items()))
    if isinstance(f1, Indicator) and isinstance(f2, Indicator):
        a1, b1, a2, b2 = f1.a, f1.b, f2.a, f2.b

        def conv(t):
            t = np.asarray(t, dtype=float)
            lo = np.maximum(a1, t - b2)
            hi = np.minimum(b1, t - a2)
            return np.maximum(hi - lo, 0.0)

        return conv
    raise TypeError("cannot convolve %r with %r" % (f1, f2))


# ---------------------------------------------------------------------------
# Direct side  <h, conj(f1) star f2>
# ---------------------------------------------------------------------------

def min_monomial_order(q):
    """Smallest vanishing order m of f at 0 so that <(t)^{-q}, conj(f) star f>
    converges at t=0: needs 2m + 1 - q > -1."""
    return max(0, int(math.floor((q - 2.0) / 2.0)) + 1)


def _monomial_pairs(f1, f2):
    """(C, m, n, conj(g1), g2) per monomial pair of conj(f1) star f2."""
    pairs = [(np.conj(c1) * c2, m1, m2, np.conj(g1), g2)
             for c1, m1, g1 in f1.terms for c2, m2, g2 in f2.terms]
    return tuple(np.array(a) for a in zip(*pairs))


def _separable_pairing(coef, m, n, g1, g0, coeffs, beta):
    """sum_k p_k <t^k e^{-beta t}, conj(f1) star f2> from its monomial pairs.

    (s+u)^k = sum_j C(k,j) s^j u^{k-j} splits a pair into Gamma integrals,
    C sum_k p_k sum_j C(k,j) (m+j)! (n+k-j)! / (a^{m+j+1} b^{n+k-j+1}) with
    a = g1 + beta, b = g0 + beta: no x-rule, Gamma pole or rate gap.
    """
    kj = [(k, j) for k in range(len(coeffs)) for j in range(k + 1)]
    weight = np.array([coeffs[k] * math.comb(k, j) for k, j in kj])
    k, j = np.array(kj).T
    e1, e2 = m[:, None] + j, n[:, None] + (k - j)
    fact = np.array([math.factorial(i) for i in range(max(e1.max(), e2.max()) + 1)], float)
    a, b = (g1 + beta)[:, None], (g0 + beta)[:, None]
    terms = fact[e1] * fact[e2] / (a ** (e1 + 1) * b ** (e2 + 1))
    parts = coef * (terms @ weight)
    if np.sum(np.abs(coef) * (np.abs(terms) @ np.abs(weight))) > 1e6 * np.sum(np.abs(parts)):
        raise ArithmeticError("finite-rank terms cancel below 1e-6 of their magnitudes")
    return np.sum(parts)


def _euler_pairing(coef, m, n, g1, g0, v0, q, alpha, r):
    """v0 <(t+r)^{-q} e^{-alpha t}, conj(f1) star f2> from its monomial pairs.

    For r = 0 a pair is C Gamma(p) int_0^1 x^m (1-x)^n G^{-p} dx, G = g1 x +
    g0 (1-x) + alpha, p = m + n + 2 - q (DLMF 15.6.1), or its finite part at
    a pole p = -k, whose residues must cancel; r > 0 takes the tail rule on
    all of t >= 0, its smooth end t = 0 at u = 2, where tanh-sinh clusters too.
    The x-rule is good to 1e-12 of the integrands' magnitude; complex rates
    that make the integrals cancel below 1e-6 of it raise ArithmeticError.
    Nodes x = c + d sinh(s) cluster at c, the point of [0, 1] nearest G's
    zero x0, on its distance d (Johnston and Elliott); the Bernstein ellipse
    through x0's image sets their count.
    """
    g1, g0, p = g1 + alpha, g0 + alpha, m + n + 2.0 - q
    x0 = g0 / np.where(g0 == g1, 1e-300, g0 - g1)  # equal rates: x0 far out
    c = np.clip(x0.real, 0.0, 1.0)
    d = np.minimum(np.abs(x0 - c), 1e8)
    lo, hi = np.arcsinh(-c / d), np.arcsinh((1.0 - c) / d)
    z = (2.0 * np.arcsinh((x0 - c) / d) - lo - hi) / (hi - lo)
    a = 0.5 * (np.abs(z - 1.0) + np.abs(z + 1.0))  # the ellipse's semi-major axis
    need = 4 + (m + n) / 2 + (33 + 4 * np.maximum(p - 1, 0)) / (2 * np.arccosh(a))
    s, w = _quad._gl(int(np.ceil(np.max(need))))
    half = (0.5 * (hi - lo))[:, None]
    shift = d[:, None] * np.sinh(lo[:, None] + half * (s + 1.0))
    x, y = c[:, None] + shift, (1.0 - c)[:, None] - shift  # dx/ds = d cosh s = hypot(d, shift)
    base = coef[:, None] * w * half * np.hypot(d[:, None], shift) * x ** m[:, None] * y ** n[:, None]
    G = g1[:, None] * x + g0[:, None] * y
    if r == 0:
        vals = base * G ** -p[:, None]
        pole = (p <= 0) & (p == np.round(p))
        k = np.where(pole, -p, 0).astype(int)
        inv = 1.0 / np.arange(1.0, k.max() + 2)
        sign = (-1.0) ** k * np.cumprod(inv)[k] * (k + 1)  # (-1)^k / k!
        residue = np.where(pole, sign * vals.sum(-1), 0.0)
        if np.abs(residue.sum()) > 1e-12 * np.abs(residue).sum():
            raise FormDomainError("residues at the Gamma poles do not cancel")
        psi = (np.cumsum(inv) - inv)[k] - np.euler_gamma  # digamma(k + 1)
        # at a pole the finite part integrates vals (psi(k+1) - log G) instead
        terms = vals * np.where(pole[:, None], psi[:, None] - np.log(G), 1.0)
        weight = np.where(pole, sign, gamma(np.where(pole, 0.5, p))) * v0
        parts = weight * terms.sum(-1)
        if np.sum(np.abs(weight) * np.abs(terms).sum(-1)) > 1e6 * np.sum(np.abs(parts)):
            raise ArithmeticError("Euler integrals cancel below 1e-6 of their integrands")
        return np.sum(parts)
    if not (np.any(G.imag) or np.any(base.imag)):
        G, base = G.real, base.real
    power = (m + n + 1)[:, None, None]

    def integrand(t):
        conv = np.einsum("pk,pkt->t", base, np.exp(power * np.log(t) - G[..., None] * t))
        return v0 * (t + r) ** -q * conv

    return _quad.semi_infinite(integrand, 0.0, atol=1e-13)


def form_direct(kernel, f1, f2=None):
    """<h, conj(f1) star f2> from the monomials of f1 and f2; f2 defaults to f1."""
    f2 = f1 if f2 is None else f2
    if not (isinstance(f1, ExpPoly) and isinstance(f2, ExpPoly)):
        raise TypeError("form_direct needs ExpPoly test functions")
    # domain check: conj(f1) star f2 vanishes to order o1 + o2 + 1 at 0
    singular = [term.q for term in kernel.qc_terms if term.r == 0]
    if singular:
        order = f1.vanishing_order()
        m_conv = order + (order if f2 is f1 else f2.vanishing_order()) + 1
        if m_conv - max(singular) <= -1:
            raise FormDomainError("convolution vanishes to order %d at 0, kernel singularity "
                                  "t^-%g" % (m_conv, max(singular)))
    pairs = _monomial_pairs(f1, f2)
    total = sum((_euler_pairing(*pairs, t.v0, t.q, t.alpha, t.r) for t in kernel.qc_terms), 0j)
    total += sum((_separable_pairing(*pairs, t.coeffs, t.beta) for t in kernel.fr_terms), 0j)
    if f2 is f1 and abs(total.imag) > 1e-9 * max(1.0, abs(total.real)):
        raise ArithmeticError("diagonal direct form came out complex: %r" % total)
    return float(total.real) if f2 is f1 else total


# ---------------------------------------------------------------------------
# Sigma side and the identity residual
# ---------------------------------------------------------------------------

def form_sigma(kernel, f1, f2=None, atol=1e-10):
    """<sigma(h), (Lf1)* (Lf2)>; f2 defaults to f1 (then returns a float)."""
    sig = sigma_of_kernel(kernel)
    w1 = f1.laplace_image()
    w2 = w1 if f2 is None else f2.laplace_image()
    val = sigma_pair(sig, w1, w2, atol=atol)
    if f2 is None:
        if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
            raise ArithmeticError("diagonal sigma form came out complex: %r" % val)
        return float(val.real)
    return val


def identity_residual(kernel, f):
    """|direct - sigma| / (1 + |direct|) for the diagonal form on f."""
    d = form_direct(kernel, f)
    s = form_sigma(kernel, f)
    return abs(d - s) / (1.0 + abs(d))


def dilation_check(q, f, gam):
    """Relative covariance defect of h(t)=t^{-q} under t -> gam t.

    The form on D(gam) f must equal gam^{q-1} times the form on f.
    """
    kern = Kernel((QuasiCarlemanTerm(1.0, q, 0.0, 0.0),))
    base = form_sigma(kern, f)
    moved = form_sigma(kern, dilate(f, gam))
    return abs(moved - gam ** (q - 1) * base) / abs(base)


# ---------------------------------------------------------------------------
# Spectral witnesses from indicator test functions
# ---------------------------------------------------------------------------

def spectral_witnesses(kernel, kind, params=None):
    """Rayleigh-quotient sequences witnessing 0 in the spectrum / unboundedness.

    kind="zero_in_spectrum": quotients on 1_(n, n+1), n = 1..N, which tend
    to 0.  kind="unbounded": quotients on 1_(1/l^2, 1/l) along the given l
    values; they grow without bound exactly when the measure fails the
    linear-growth boundedness test at infinity.
    """
    params = params or {}
    sig = sigma_of_kernel(kernel)
    if kind == "zero_in_spectrum":
        tests = [Indicator(float(n), float(n + 1)) for n in range(1, params.get("count", 8) + 1)]
    elif kind == "unbounded":
        tests = [Indicator(el ** -2, el ** -1) for el in params.get("l_values", (10.0, 100.0, 1000.0))]
    else:
        raise ValueError("unknown witness kind %r" % (kind,))
    return [sigma_pair(sig, w := f.laplace_image(), w).real / f.norm_sq() for f in tests]
