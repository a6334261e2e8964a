"""Laguerre finite sections and variational trial-subspace certificates.

The Galerkin basis is e_n(t) = L_n(t) e^{-t/2}, whose Laplace images are
mu(lam)^n / (lam + 1/2) with mu = (lam-1/2)/(lam+1/2).  Every section
entry is therefore a sigma pairing against mu^{j+k} (lam+1/2)^{-2}: the
matrix is Hankel in j+k.  Since (lam+1/2)^{-2} dlam = dmu, the entries of a
power-law part with r = 0 are moments of a Jacobi weight in mu, and
``assemble`` takes them from their three-term recurrence.  The other parts
(r > 0 and delta combinations) get all 2N-1 products from the sigma pairing
dispatch as one test product with a batch axis (values, Taylor coefficients
and a decay bound, see ``sigma``), so they cost one pass over those parts.
The Taylor coefficients of those 2N-1 products come in blocked powers,
mu^{ib+r} = mu^r mu^{ib} with b ~ sqrt(2N): two short step loops and one
batched truncated product, about 2 sqrt(2N) jet products in all.

The counts of nested sections come from their spectra (``_section_spectra``).
Sections up to 4 * 64 get a dense ``eigvalsh``.  Larger ones are compressed
once by a seeded rank-64 range finder, H ~ Q M Q^T, and each leading block is
read from a 64 x 64 matrix.  The a-posteriori bound 2 ||H - H Q Q^T||_F and
Weyl's inequality certify every count; when one is not certified, all sizes
fall back to the dense ``eigvalsh``.

Certificates build explicit trial subspaces on which the full quadratic
form is negative definite, which witnesses N_minus >= dim by the
variational definition of the counts.  Three constructions are used:

* gaussian family   w_eps(lam; A) = (eps lam)^{-1/2} e^{-ln^2(lam/A)/eps^2}
                    with centers A_j just above the singular point beta
                    (the infinite-count branches);
* polynomial window (lam-beta)^i R(lam-beta) e^{-eps^{-2m} ln^{2m}(lam/beta)}
                    where R neutralizes the e^{-rho mu} weight to the
                    subtraction order (finite counts of fractional-power
                    perturbations);
* interpolation     jet-prescribed functions at kappa = -ln beta driven by
                    the negative eigenvectors of the sign-matrices
                    (finite-rank perturbations).

Every trial is one FunctionSpec, so its values and its jets come from the
same expression.  Each construction yields one Certificate per eps of its
shrinking schedule and ``certificate`` keeps the first success.  For the
interpolation trials the finite-rank part of the Gram matrix is, in closed
form, the diagonal of the negative sign-matrix eigenvalues (the trials'
jets at the exponents are the orthonormal eigenvectors); only the pairing
with h0's density depends on eps.

The gaussian and interpolation trials are sums of "ends", a polynomial times
a gaussian in z = -ln lam, the exponential variable of the sign-matrices (a
gaussian trial is lam^{-1/2} times its end), and a density sigma pairs two
of them as the integral of sigma(e^{-z}) conj(u1) u2 dz.  On a power-law
part c/Gamma(q) lam^{q-1} with alpha = 0 and r = 0, such as Carleman's, that
measure is c/Gamma(q) e^{(1-q) z} dz, so their Gram entries are sums of
gaussian moments, exact up to rounding (``_gauss_moment``); the other parts
go through adaptive quadrature (``_closed_form_split``).  A
Certificate's ``margin`` bounds how far its count is from changing under
the entries' error: their quadrature tolerance plus eps max|G| of rounding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _quad
from .form import FormDomainError
from .kernel import Classification, Kernel, QuasiCarlemanTerm, classify
from .predict import predict_quasi_carleman
from .sigma import (DecayError, RegularDensity, SigmaDistribution, _PowerLaw, _SpecProduct,
                    _eig_inertia, _margin, _pair_product, sigma_of_kernel, sigma_pair,
                    sign_matrix, sign_matrix_tilde)
from .special import (FExp, FLog, FPoly, FPow, FProd, FSum, Jet, _var_jet, fs_affine, fs_const,
                      fs_var)
# Imported by name and called through this module's globals: the benchmark's
# tracer (perfbench/tracing.py) wraps the jet helpers as galerkin attributes.
from .special import _jet_mul, _jet_recip

__all__ = [
    "FiniteSection",
    "NegCountEstimate",
    "Certificate",
    "CertificateInputError",
    "assemble",
    "section_inertia",
    "stabilized_negcount",
    "certificate",
    "carleman_spectrum_study",
    "gaussian_trial",
    "window_trials",
]


# ---------------------------------------------------------------------------
# Finite sections
# ---------------------------------------------------------------------------

class _LaguerreProducts:
    """The test products mu^s (lam+1/2)^{-2}, s = 0..smax, batched along
    the leading axis.

    Their jets come in blocked powers: with b = ceil(sqrt(smax+1)) and
    s = i b + r, the jet of index s is the truncated product of the base row
    mu^r (r < b) and the block row (lam+1/2)^{-2} mu^{i b}, i < m =
    ceil((smax+1)/b).  The base rows and mu^b come from the step loop, the
    block rows from a second loop in steps of mu^b, and all smax+1 products
    from one batched ``_jet_mul``: about 2 sqrt(smax) jet products instead
    of smax, with the same rounding as the loop to a few eps of the largest
    jet.  A binomial closed form of mu^s loses up to 6e-10 of it at order
    33, and Miller's power recurrence divides by mu(center), 0 at 1/2.
    """

    knots = ()

    def __init__(self, smax):
        self.smax = smax

    def __call__(self, lams):
        out = np.empty((self.smax + 1, len(lams)))
        out[0] = (lams + 0.5) ** -2.0
        out[1:] = (lams - 0.5) / (lams + 0.5)
        return np.cumprod(out, axis=0, out=out)

    def jet(self, center, order):
        n = order + 1
        lam = _var_jet(center, order)
        rden = _jet_recip((lam + 0.5).coeffs)
        mu = _jet_mul((lam - 0.5).coeffs, rden)
        b = math.isqrt(self.smax) + 1  # ceil(sqrt(smax+1))
        m = -(-(self.smax + 1) // b)
        base = np.zeros((b + 1, n), dtype=complex)
        base[0, 0] = 1.0
        for r in range(b):
            base[r + 1] = _jet_mul(base[r], mu)
        blocks = np.empty((m, n), dtype=complex)
        blocks[0] = _jet_mul(rden, rden)
        for i in range(1, m):
            blocks[i] = _jet_mul(blocks[i - 1], base[b])
        return _jet_mul(base[:b], blocks).reshape(m * b, n)[:self.smax + 1]

    def decay(self):
        return (0.0, -2.0)  # mu -> 1 as lam -> inf


def _power_law_moments(part, smax):
    """<part, mu^s (lam+1/2)^{-2}>, s = 0..smax, of a power-law part with r = 0.

    With a = (alpha-1/2)/(alpha+1/2) the substitution mu = (lam-1/2)/(lam+1/2)
    makes the entries c (alpha+1/2)^{q-1}/Gamma(q) m_s, with m_s the moments
    of the Jacobi weight (mu-a)^{q-1} (1-mu)^{1-q} on [a, 1].  Integrating
    mu^s (mu-a)(1-mu) times the weight's derivative by parts gives

        (s+2) m_{s+1} = [s(1+a) + q + a(2-q)] m_s - s a m_{s-1},

    from m_0 = (1-a) Gamma(q) Gamma(2-q) and m_1 = (a + (1-a) q/2) m_0.
    The recurrence is run on m_s/Gamma(q).  It is stable forward: its roots
    are 1 and a, |a| <= 1, and the moments follow the root 1.  For q < 0 the
    formulas are the analytic continuation in q, which is the finite part.
    The moments exist for q < 2 only; DecayError otherwise.
    """
    q = part.q
    if q >= 2:
        raise DecayError("pairing integrand ~ lam^%g with no exponential decay" % (q - 3))
    b = 1.0 / (part.alpha + 0.5)  # 1 - a
    a = (part.alpha - 0.5) * b
    m = [b * math.gamma(2.0 - q)]
    if smax:
        m.append((a + 0.5 * b * q) * m[0])
    for s in range(1, smax):
        m.append(((s * (1.0 + a) + q + a * (2.0 - q)) * m[s] - s * a * m[s - 1]) / (s + 2))
    return part.c * (part.alpha + 0.5) ** (q - 1.0) * np.array(m)


@dataclass(frozen=True)
class FiniteSection:
    size: int
    matrix: np.ndarray
    kernel: Kernel

    def leading(self, n):
        return FiniteSection(n, self.matrix[:n, :n], self.kernel)


def assemble(kernel, n):
    """N x N Laguerre finite section of the kernel's quadratic form.

    Entries come from the sigma side: H[j,k] = <sigma, (Le_j)* (Le_k)>, in
    closed form for power-law parts with r = 0 (``_power_law_moments``) and
    from the batched pairing at atol 1e-12 for the others.  Subnormal entries
    are flushed to 0.  Unbounded-positive kernels are allowed with a warning
    as long as every entry integral is finite; otherwise FormDomainError.
    """
    cls = classify(kernel)
    if cls is Classification.UNBOUNDED_POSITIVE_FORM:
        warnings.warn("assembling finite sections of an unbounded positive form")
    sig = sigma_of_kernel(kernel)
    closed = [p for p in sig.parts if isinstance(p, _PowerLaw) and p.r == 0]
    rest = SigmaDistribution(tuple(p for p in sig.parts if p not in closed))
    try:
        f = sum((_power_law_moments(p, 2 * n - 2) for p in closed), np.zeros(2 * n - 1))
        if rest.parts:
            f = f + _pair_product(rest, _LaguerreProducts(2 * n - 2), 1e-12)
    except DecayError as exc:
        raise FormDomainError("Laguerre entries diverge: %s" % exc) from exc
    scale = max(np.max(np.abs(f)), 1e-300)
    if np.max(np.abs(f.imag)) > 1e-8 * scale:
        raise ArithmeticError("section entries came out complex; kernel not self-adjoint?")
    fr = f.real
    fr[np.abs(fr) < np.finfo(float).tiny] = 0.0  # subnormals slow down LAPACK
    h = np.lib.stride_tricks.sliding_window_view(fr, n).copy()
    return FiniteSection(n, h, kernel)


_RANK = 64  # columns of the range finder of ``_section_spectra``
_SEED = 0  # of its Gaussian test matrix, so that reruns are byte-identical
_BLOCK = 128  # rows per block of its residual


def _compression_bound(h, q):
    """(2 ||H - H Q Q^T||_F, H Q).  The first is a bound on ||H - P H P||_2
    for symmetric H and P = Q Q^T: H - PHP = (I-P)H + PH(I-P), and both terms
    have 2-norm at most ||(I-P)H||_2 = ||H(I-P)||_2.  It is summed over row
    blocks, so that no N x N temporary is made."""
    hq = h @ q
    sq = 0.0
    for i in range(0, len(h), _BLOCK):
        r = hq[i:i + _BLOCK] @ q.T
        r -= h[i:i + _BLOCK]
        sq += float(r.ravel() @ r.ravel())
    return 2.0 * math.sqrt(sq), hq


def _section_spectra(h, sizes):
    """(spectra, margins) of the leading blocks h[:s, :s], s in ``sizes``
    (ascending, the last one len(h)).

    Up to 4 _RANK rows every block gets a dense ``eigvalsh``.  Larger
    sections are compressed once: Q = qr(H Omega) with a seeded Gaussian
    Omega of _RANK columns, M = Q^T H Q, and the block of size s is read as
    E_s^T P H P E_s = Q_s M Q_s^T, whose spectrum is that of T M T^T
    (T the R factor of Q_s = Q[:s]) padded with zeros; the whole section
    reads M itself, as T = diag(+-1) there up to rounding.  By Weyl's inequality
    each eigenvalue of the block lies within ||E_s^T (H - PHP) E_s|| <=
    ||H - PHP|| <= delta (``_compression_bound``) of the compressed one, and
    len(h) eps max|theta| more covers rounding.  A size is decided when its
    ``_margin`` with that error is positive; if any size is undecided,
    every block gets the dense ``eigvalsh``.  There the margins use the
    error s eps max|ev|, and may be negative.
    """
    n, eps = len(h), np.finfo(float).eps
    if n > 4 * _RANK:
        omega = np.random.default_rng(_SEED).standard_normal((n, _RANK))
        q = np.linalg.qr(h @ omega)[0]
        delta, hq = _compression_bound(h, q)
        m = q.T @ hq
        spectra = []
        for s in sizes:
            if s < n:
                t = np.linalg.qr(q[:s], mode="r")
                theta = np.linalg.eigvalsh(t @ m @ t.T)
            else:
                theta = np.linalg.eigvalsh(m)
            spectra.append(np.sort(np.concatenate([theta, np.zeros(s - len(theta))])))
        margins = [_margin(ev, delta + n * eps * np.max(np.abs(ev))) for ev in spectra]
        if min(margins) > 0:
            return spectra, margins
    spectra = [np.linalg.eigvalsh(h[:s, :s]) for s in sizes]
    return spectra, [_margin(ev, s * eps * np.max(np.abs(ev))) for s, ev in zip(sizes, spectra)]


def section_inertia(section):
    """(n_plus, n_minus) of the section, by the rule of ``sigma.matrix_inertia``
    on the spectrum of ``_section_spectra``."""
    return _eig_inertia(_section_spectra(section.matrix, [section.size])[0][0])[:2]


@dataclass(frozen=True)
class NegCountEstimate:
    kind: str  # "finite" | "infinite-suspected" | "undecided"
    value: int | None
    history: tuple  # (size, n_minus, n_plus) triples
    max_eigs: tuple  # largest eigenvalue of each section in ``history``
    margins: tuple  # each section's ``_margin``: > 0 when its count is certified

    def to_json(self):
        return {"kind": self.kind, "value": self.value,
                "history": [list(h) for h in self.history]}


DEFAULT_SIZES = (16, 32, 64, 128)  # of ``stabilized_negcount``, ``--sizes`` and sweep cases


def stabilized_negcount(kernel, sizes=DEFAULT_SIZES):
    """Estimate N_minus from a nested family of finite sections.

    Finite(n) when the last three sizes agree; infinite-suspected when the
    count strictly increases across every listed size; undecided otherwise.
    Repeated sizes count once, and fewer than 3 distinct sizes raise
    ValueError.  Only the largest section is assembled, the others are its
    leading blocks, and their spectra come from ``_section_spectra``;
    ``max_eigs`` and ``margins`` follow ``history``'s order.
    """
    sizes = sorted(set(sizes))
    if len(sizes) < 3:
        raise ValueError("need at least 3 distinct section sizes")
    top = assemble(kernel, sizes[-1])
    spectra, margins = _section_spectra(top.matrix, sizes)
    history = tuple((n,) + _eig_inertia(ev)[1::-1] for n, ev in zip(sizes, spectra))
    max_eigs = tuple(float(ev[-1]) for ev in spectra)
    negs = [h[1] for h in history]
    if negs[-1] == negs[-2] == negs[-3]:
        kind, value = "finite", negs[-1]
    elif all(b > a for a, b in zip(negs, negs[1:])):
        kind, value = "infinite-suspected", None
    else:
        kind, value = "undecided", None
    return NegCountEstimate(kind, value, history, max_eigs, tuple(margins))


def carleman_spectrum_study(n, q=1.0):
    """(min_eig, max_eig) of the section of h(t) = t^{-q}.  Dense
    ``eigvalsh`` at every size: the compression of ``_section_spectra``
    resolves only the eigenvalues of largest modulus, not the smallest one."""
    if n < 1:
        raise ValueError("need n >= 1")
    sec = assemble(Kernel((QuasiCarlemanTerm(1.0, q, 0.0, 0.0),)), n)
    ev = np.linalg.eigvalsh(sec.matrix)
    return float(ev[0]), float(ev[-1])


# ---------------------------------------------------------------------------
# Trial functions
# ---------------------------------------------------------------------------

def _log_window(center, eps, m, knots):
    """exp(-eps^{-2m} ln^{2m}(lam/center)) as a FunctionSpec narrow at ``knots``."""
    lnratio = FLog(FProd([fs_var(), fs_const(1.0 / center)]))
    window = FExp(FProd([fs_const(-eps ** (-2.0 * m)), FPow(lnratio, 2 * m)]))
    window.knots = tuple(knots)
    return window


def gaussian_trial(center, eps):
    """w(lam) = (eps lam)^{-1/2} e^{-ln^2(lam/center)/eps^2} as a FunctionSpec."""
    window = _log_window(center, eps, 1, [center * math.exp(f) for f in (-4 * eps, 0.0, 4 * eps)])
    return FProd([fs_const(eps ** -0.5), FPow(fs_var(), -0.5), window])


def window_trials(beta, rho, n_sub, ell, eps):
    """Polynomial-window trials (lam-beta)^i R(lam-beta) W(lam), i < ell.

    R is the degree-n_sub Taylor polynomial of e^{rho mu / 2}, so that
    R(mu) e^{-rho mu / 2} = 1 + O(mu^{n_sub+1}); W is the log-power window
    exp(-eps^{-2m} ln^{2m}(lam/beta)) with 2m > n_sub.
    """
    m = n_sub // 2 + 1
    rcoeffs = [(rho / 2.0) ** p / math.factorial(p) for p in range(n_sub + 1)]
    rpoly = FPoly(rcoeffs, beta)
    window = _log_window(beta, eps, m, [beta * math.exp(-2 * eps), beta * math.exp(2 * eps),
                                        beta + 1.0])
    return [FProd([FPoly([0.0] * i + [1.0], beta) if i else 1.0, rpoly, window])
            for i in range(ell)]


def _shift_poly(coeffs, shift):
    """Coefficients of P(z + shift) given those of P(z) (ascending)."""
    out = np.zeros(len(coeffs), dtype=complex)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += c * math.comb(j, i) * shift ** (j - i)
    return out


# -- gaussian ends -------------------------------------------------------------
#
# An end (c, Q, zeros, E) is the function Q(x - c) prod (x - rho)^m
# exp(E(x - c)) of a real variable x, with Q a polynomial and E = (e0, e1, e2)
# a quadratic, both in the local variable x - c, (rho, m) running over
# ``zeros``, and Re e2 < 0.

def _closed_form_split(parts):
    """(weights, rest) of sigma ``parts`` against ends in z = -ln lam: the
    (c/Gamma(q), 1 - q) of ``_gauss_gram`` for each RegularDensity with
    alpha = 0 and r = 0, whose measure is c/Gamma(q) e^{(1-q) z} dz, and the
    other parts, which go through quadrature."""
    closed = [p for p in parts if isinstance(p, RegularDensity) and p.alpha == 0 and p.r == 0]
    return [(p.weight, 1.0 - p.q) for p in closed], tuple(p for p in parts if p not in closed)


def _end_poly(end, d):
    """Coefficients of an end's polynomial in powers of x - (c + d)."""
    c, q, zeros, _ = end
    out = _shift_poly(q, d)
    for rho, m in zeros:
        out = np.convolve(out, _shift_poly([0.0] * m + [1.0], c + d - rho))
    return out


def _gauss_moment(end1, end2, k):
    """integral over the real line of conj(end1(x)) end2(x) e^{kx} dx.

    With s = -(conj e1_2 + e2_2) the exponent is F(x0) - s (x-x0)^2 about its
    stationary point x0, possibly complex.  Both polynomials are expanded in
    u = x - x0, and the even coefficients r_2j of their product are summed
    against integral u^{2j} e^{-s u^2} du = Gamma(j+1/2) s^{-j-1/2}; moving
    the contour from the real line to x0 + R is exact, as the integrand is
    entire and decays in the strip between them.
    """
    c1, q1, zeros1, e1 = end1
    c2, e2 = end2[0], end2[3]
    c1, e1 = np.conj(c1), np.conj(e1)  # conj end1(x) on real x is the mirrored end
    mirror = (c1, np.conj(q1), [(np.conj(rho), m) for rho, m in zeros1], e1)
    s = -(e1[2] + e2[2])
    d1 = (e1[1] + e2[1] + 2.0 * e2[2] * (c1 - c2) + k) / (2.0 * s)
    d2 = d1 + (c1 - c2)
    f0 = e1[0] + (e1[1] + e1[2] * d1) * d1 + e2[0] + (e2[1] + e2[2] * d2) * d2 + k * (c1 + d1)
    r = np.convolve(_end_poly(mirror, d1), _end_poly(end2, d2))[::2]
    moments = np.sqrt(np.pi / s) * np.cumprod(np.r_[1.0, (np.arange(1, len(r)) - 0.5) / s])
    return np.exp(f0) * (r @ moments)


def _gauss_gram(trials, weights):
    """Gram matrix of trials given as lists of ends against the weight
    sum_p w_p e^{k_p x} dx, ``weights`` the (w_p, k_p)."""
    return _hermitian_gram(lambda t1, t2: sum(w * _gauss_moment(e1, e2, k) for w, k in weights
                                              for e1 in t1 for e2 in t2), trials)


def _end_spec(ends):
    """The sum of ``ends`` as a FunctionSpec of x.  The window of an end with
    a real center is a real gaussian, so ``FExp`` gives it its knots."""
    parts = [FProd([FPoly(q, c)] + [FPow(fs_affine(1.0, -rho), m) for rho, m in zeros]
                   + [FExp(FPoly(e, c))]) for c, q, zeros, e in ends]
    return parts[0] if len(parts) == 1 else FSum(parts)


def _gaussian_end(center, eps):
    """The end of ``gaussian_trial``, lam^{1/2} (eps lam)^{-1/2} e^{-ln^2(lam/A)/eps^2}
    = eps^{-1/2} exp(-(z + ln A)^2/eps^2) in z = -ln lam."""
    return (-math.log(center), np.array([eps ** -0.5]), (), np.array([0.0, 0.0, -eps ** -2.0]))


def _fit(coeffs, n):
    """The first n of ``coeffs``, padded with zeros."""
    out = np.zeros(n, dtype=complex)
    out[:min(n, len(coeffs))] = coeffs[:n]
    return out


def _interpolation_ends(kind, ends, kappas, eps):
    """The ends of one interpolation trial, one per (kappa, a) of ``ends``.

    The end at kappa is Q(z - kappa) phi(z): phi is the product of
    (z - kappa_n)^{K_n + 1} over the other (kappa_n, K_n) of ``kappas`` and
    a window, exp(-(z-kappa)^2/eps^2) for a real group, exp(-i sg
    (z-kappa)/eps - (z - Re kappa)^2) for a pair (sg = sign Im kappa); Q is
    the Taylor polynomial at kappa of sum_l a_l (z-kappa)^l / l! over phi.
    So the trial's l-th derivative at kappa is a_l, l <= K.  In the local
    variable y = z - kappa the pair window's exponent is
    -y^2 - (i sg/eps + 2 i b) y + b^2, b = Im kappa.
    """
    out = []
    for kap, a in ends:
        zeros = [(k, d + 1) for k, d in kappas if abs(k - kap) > 1e-14]
        if kind == "real":
            e = np.array([0.0, 0.0, -eps ** -2.0], dtype=complex)
        else:
            sg, b = (1.0 if kap.imag > 0 else -1.0), kap.imag
            e = np.array([b * b, -1j * sg / eps - 2j * b, -1.0])
        n = len(a)
        phi = _jet_mul(_fit(_end_poly((kap, [1.0], zeros, e), 0.0), n),
                       Jet(kap, _fit(e, n)).exp().coeffs)
        taylor = a / np.array([math.factorial(l) for l in range(n)])
        out.append((kap, _jet_mul(taylor, _jet_recip(phi)), zeros, e))
    return out


class CertificateInputError(ValueError):
    """``certificate`` has no trial construction for these kernels or target."""


@dataclass(frozen=True)
class Certificate:
    kind: str
    eps: float
    params: dict
    gram: np.ndarray
    achieved: int
    target: int
    gram_err: float = math.nan  # bound on ||gram - exact Gram||_2; nan if unknown
    margin: float = math.nan  # ``_margin`` at gram_err: > 0 when ``achieved`` is certified

    @property
    def success(self):
        return self.achieved >= self.target


_ROUNDS = 12  # eps values each construction tries


def _first_success(certs):
    """The first successful Certificate of ``certs``, else the first one
    with the largest ``achieved``."""
    best = None
    for cert in certs:
        if cert.success:
            return cert
        if best is None or cert.achieved > best.achieved:
            best = cert
    return best


def _neg_inertia(g, err):
    """(n_minus, margin) of the hermitian part of ``g``, from one spectrum,
    with ``err`` the error of that spectrum for the margin."""
    ev = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
    return _eig_inertia(ev)[1], _margin(ev, err)


def _gram_certificate(kind, eps, params, g, target, atol):
    """Certificate of the Gram matrix ``g``.  Each entry is within ``atol``
    (its quadrature tolerance, 0 in closed form) plus rounding, eps max|G|,
    of the exact pairing, so by Weyl the spectrum is within m times that."""
    err = float(len(g) * (atol + np.finfo(float).eps * np.max(np.abs(g))))
    achieved, margin = _neg_inertia(g, err)
    return Certificate(kind, eps, params, g, achieved, target, err, margin)


def _hermitian_gram(pair, trials):
    """G[i, j] = pair(trials[i], trials[j]) for j >= i, mirrored below."""
    m = len(trials)
    g = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            g[i, j] = pair(trials[i], trials[j])
            g[j, i] = np.conj(g[i, j])
    return g


# -- gaussian-family certificate --------------------------------------------

def _certify_gaussian(sig, beta, target, eps0, delta0):
    """Gram = closed-form block of the ends (``_closed_form_split``) +
    adaptive pairings of the trials with the other parts."""
    weights, rest = _closed_form_split(sig.parts)
    rest = SigmaDistribution(rest)
    atol = 1e-11 if rest.parts else 0.0
    delta, eps = delta0, min(eps0, delta0 / 6.0)
    for rd in range(_ROUNDS):
        centers = [beta * (1.0 + (j + 1) * delta) for j in range(target)]
        g = _gauss_gram([[_gaussian_end(a, eps)] for a in centers], weights)
        if rest.parts:
            g += _hermitian_gram(lambda u, v: sigma_pair(rest, u, v, atol=atol),
                                 [gaussian_trial(a, eps) for a in centers])
        yield _gram_certificate("gaussian-family", eps, {"delta": delta, "centers": centers},
                                g, target, atol)
        if rd % 2 == 0:
            delta *= 0.5
        eps = min(eps * 0.5, delta / 6.0)


# -- polynomial-window certificate -------------------------------------------

def _certify_window(sig, beta, rho, n_sub, target, eps0):
    eps = eps0
    for _ in range(_ROUNDS):
        trials = window_trials(beta, rho, n_sub, target, eps)
        g = _hermitian_gram(lambda u, v: sigma_pair(sig, u, v, atol=1e-11), trials)
        yield _gram_certificate("polynomial-window", eps, {"rho": rho, "order": n_sub},
                                g, target, 1e-11)
        eps *= 0.5


# -- interpolation certificate ------------------------------------------------

def _sign_directions(groups):
    """(kappas, directions) of ``Kernel.conjugate_groups()``: (kappa, K) per
    exponent kappa = -ln beta of degree K, and (eigenvalue, kind, ends) per
    negative eigenpair of a group's sign-matrix (block matrix for a pair),
    the eigenvector split into one (kappa, a) end per exponent."""
    kappas, directions = [], []
    for kind, t in groups:
        kap = -np.log(t.beta)
        if kind == "real":
            ends = (kap,)
            s = sign_matrix(np.real(np.asarray(t.coeffs)), t.beta.real).entries.real
        else:
            ends = (kap, -np.log(np.conj(t.beta)))
            s = sign_matrix_tilde(np.asarray(t.coeffs), t.beta).entries
        kappas += [(e, t.degree) for e in ends]
        lams, vecs = np.linalg.eigh(s)
        for lam, a in zip(lams, vecs.T):
            if lam < 0:
                directions.append((lam, kind, tuple(zip(ends, np.split(a, len(ends))))))
    return kappas, directions


def _certify_interpolation(h0_sigma, v_kernel, target, eps0):
    """Gram = sign block + s0 block.  Each trial's jets at the exponents are
    its sign-matrix eigenvector, so the finite-rank part of the form is
    a_i^H S a_j = diag of the negative eigenvalues, for every eps; only the
    pairing with s0 (h0's density) depends on eps.  The s0 block is closed
    form on the parts that ``_closed_form_split`` allows and ``_s0_pair_x``
    on the others."""
    groups = v_kernel.conjugate_groups()
    kappas, directions = _sign_directions(groups)
    if not directions:
        raise CertificateInputError("perturbation has no negative directions to certify")
    block = np.diag([lam for lam, _, _ in directions]).astype(complex)
    params = {"groups": len(groups)}
    s0_parts = h0_sigma.regular_parts
    if not s0_parts:
        yield _gram_certificate("interpolation", eps0, params, block, target, 0.0)
        return
    weights, rest = _closed_form_split(s0_parts)
    atol = 1e-12 if rest else 0.0
    eps = eps0
    for _ in range(_ROUNDS):
        ends = [_interpolation_ends(kind, e, kappas, eps) for _, kind, e in directions]
        g = block + _gauss_gram(ends, weights)
        if rest:
            g += _hermitian_gram(lambda u, w: _s0_pair_x(rest, u, w), [_end_spec(e) for e in ends])
        yield _gram_certificate("interpolation", eps, params, g, target, atol)
        eps *= 0.5


def _s0_pair_x(s0_parts, u1, u2):
    """integral s0(x) conj(u1) u2 dx with s0(x) = sigma0(e^{-x}), on
    [-40, 40] with the tests' knots added to 25 fixed ones."""
    prod = _SpecProduct(u1, u2)
    s0 = SigmaDistribution(tuple(s0_parts))
    return _quad.adaptive_gl(lambda x: s0.density(np.exp(-x)) * prod(x), -40.0, 40.0,
                             atol=1e-12, knots=list(np.linspace(-12, 12, 25)) + list(prod.knots))


# ---------------------------------------------------------------------------
# Certificate driver
# ---------------------------------------------------------------------------

def certificate(h0, v, target, kind="auto"):
    """Certify N_minus(h0 + v) >= target by an explicit negative subspace.

    Picks the trial construction from the perturbation type unless ``kind``
    forces one; returns the first successful Certificate along the
    shrinking-eps schedule, else the one with the largest count (check
    ``.success``).  The interpolation construction needs a finite-rank,
    self-adjoint ``v`` and an ``h0`` whose sigma is a density (q > 0 parts
    only); other inputs raise CertificateInputError.
    """
    if target < 1:
        raise CertificateInputError("target must be >= 1")
    if kind == "auto" and v.fr_terms and not v.qc_terms:
        kind = "interpolation"
    elif kind == "auto":
        if len(v.qc_terms) != 1:
            raise CertificateInputError("certificate needs a single-term perturbation")
        term = v.qc_terms[0]
        kind = "gaussian"
        if -term.q > 0 and not float(-term.q).is_integer():
            pred = predict_quasi_carleman(term.q, v0=term.v0)
            if pred.n_minus.finite and target <= pred.n_minus.n:
                kind = "window"

    if kind == "interpolation":
        sig0 = sigma_of_kernel(h0)
        if v.qc_terms or not all(isinstance(p, RegularDensity) for p in sig0.parts):
            raise CertificateInputError("an interpolation certificate needs a finite-rank v "
                                        "and an h0 whose sigma is a density (quasi-Carleman q > 0)")
        return _first_success(_certify_interpolation(sig0, v, target, eps0=0.2))
    if kind not in ("gaussian", "window"):
        raise CertificateInputError("unknown certificate kind %r" % (kind,))
    term, sig = v.qc_terms[0], sigma_of_kernel(h0 + v)
    if kind == "gaussian":
        return _first_success(_certify_gaussian(sig, term.alpha, target,
                                                eps0=0.01, delta0=0.06))
    return _first_success(_certify_window(sig, term.alpha, term.r, int(math.floor(-term.q)),
                                          target, eps0=0.25))
