"""Laguerre finite sections and variational trial-subspace certificates.

The Galerkin basis is e_n(t) = L_n(t) e^{-t/2}, whose Laplace images are
mu(lam)^n / (lam + 1/2) with mu = (lam-1/2)/(lam+1/2).  Every section
entry is therefore a sigma pairing against mu^{j+k} (lam+1/2)^{-2}: the
matrix is Hankel in j+k.  Since (lam+1/2)^{-2} dlam = dmu, the entries of
every part are its moments in mu, and ``assemble`` picks one moment rule per
kind of part: a power-law part runs one four-term recurrence in the
differences of its moments, started in closed form with r = 0 and from one
or two quadrature entries with r > 0, and a delta combination of order K at
beta pairs the order-K jets of mu^s (lam+1/2)^{-2} there, products of about
2 sqrt(2N) anchor and power jets.

The counts of nested sections come from their spectra (``_section_spectra``).
A section is the form compressed onto span{e_0..e_{N-1}}, so by min-max each
eigenvalue beyond its error is one more dimension of N_-+: the counts are
lower bounds, and a lower bound is all they need to be.  Sections up to
4 * 64 get a dense ``eigvalsh``.  Larger ones are sketched by a seeded
rank-64 range finder in one sweep down the row blocks of the sizes: each
block's sketch rows extend an orthonormal basis by one TSQR step, its
64 x 64 compression grows by the products of the block's rows only, and the
block is read from the Rayleigh-Ritz values of that compression, which by
Cauchy interlacing count no more than the block.  Only a saturated sketch,
all 64 Ritz values of the whole section beyond the threshold, sends every
size to the dense ``eigvalsh``.

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
shrinking schedule, and ``certificate`` keeps the first success.  For the
interpolation trials the finite-rank part of the Gram matrix is, in closed
form, the diagonal of the negative sign-matrix eigenvalues (the trials'
jets at the exponents are the orthonormal eigenvectors).

The gaussian and interpolation trials are sums of "ends", a polynomial
times a gaussian in z = -ln lam (a gaussian trial is lam^{-1/2} times its
end); a window trial has none.  One builder, ``_gram``, makes the Gram
matrix of all three.  ``_end_moment`` picks the route of each end pair and
density part: a gaussian moment in closed form (alpha = 0, r = 0), a
Gauss-Hermite rule in z (the branch point z_alpha = -ln alpha far away),
else a pairing of the whole trials in lam = e^{-z}.  A Certificate's
``margin`` bounds how far its count is from changing under the entries'
error: node doubling for Gauss-Hermite entries, the tolerance for quadrature
ones, plus eps max|G| of rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from . import _quad
from .form import FormDomainError
from .kernel import Classification, Kernel, QuasiCarlemanTerm, classify
from .predict import predict_quasi_carleman
from .sigma import (DecayError, DeltaCombo, RegularDensity, SigmaDistribution, _PowerLaw,
                    _SpecProduct, _inertia, group_sign_matrix, sigma_of_kernel, sigma_pair)
from .special import (FExp, FLog, FPoly, FPow, FProd, FSum, Jet, _fit, _shift_poly, _var_jet,
                      fs_affine, fs_const, fs_var, laguerre_image)
# Imported by name and called through this module's globals: the benchmark's
# tracer (perfbench/tracing.py) wraps the jet helpers and the pairing engines as
# galerkin attributes.
from .sigma import _delta_pair_engine, _density_pair_engine
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
    "gaussian_trial",
    "window_trials",
]


# ---------------------------------------------------------------------------
# Finite sections
# ---------------------------------------------------------------------------

_FORWARD_RS = 16.0  # r smax up to which the r > 0 moments run forward
# (lam+1/2)^{-1} and (lam+1/2)^{-2}: their pairings are the entries m_0 and d_0
_NORMALISERS = (laguerre_image(0), FPow(fs_affine(1.0, 0.5), -2))


def _power_law_moments(part, smax):
    """<part, mu^s (lam+1/2)^{-2}>, s = 0..smax, of a power-law part, r >= 0.

    With a = (alpha-1/2)/(alpha+1/2), b = 1-a and rho = r (alpha+1/2) the
    substitution mu = (lam-1/2)/(lam+1/2) makes the entries multiples of the
    moments m_s of w(mu) = (mu-a)^{q-1} (1-mu)^{1-q} e^{-rho (mu-a)/(1-mu)} on
    [a, 1].  Integrating mu^s (mu-a) (1-mu)^2 w' by parts gives

        (s+3) m_{s+2} - [(s+2)(2+a) + b(q-1+rho)] m_{s+1}
            + [(s+1)(1+2a) + b(q-1+rho a)] m_s - s a m_{s-1} = 0,

    whose s = 0 row has no m_{-1}: m_0 and d_0 = m_0 - m_1 fix the solution,
    and it runs forward in the differences d_s = m_s - m_{s+1}:

        (s+3) d_{s+1} = [s+1 + a(s+2) + b(q-1+rho)] d_s - s a d_{s-1} - r b m_s.

    Its characteristic roots are 1, 1 and a up to O(r).  On the m_s each step
    cancels against the double root: at r = 1e-3, N = 1024 and q = 2.5 that
    lost up to 5e-10 of max|m|, against 1e-13 in the differences.

    With r = 0 the starts are closed forms, m_0 = c (alpha+1/2)^{q-1} b
    Gamma(2-q) and d_0 = b (1 - q/2) m_0, for q < 0 the analytic continuation
    in q, which is the finite part; for q >= 2 DecayError.  Against a 50-digit
    2F1 closed form up to s = 2046 the differences are better than the
    three-term recurrence on the m_s at large alpha, where that one drifts:
    7.9e-14 against 2.6e-12 of max|m| at (q, alpha) = (1.9, 20).  They are
    worse at alpha = 0 (a = -1): 3.6e-14 against 4.4e-17 at q = 0.5, and
    Carleman entries 1.4e-15 off their closed form against 1.1e-17.

    With r > 0 two solutions go like e^{-+2 sqrt(r s)} (rho b = r), and the
    moments are the decaying one (Gautschi, SIAM Review 9, 1967; Wimp, 1984).
    Up to r smax = _FORWARD_RS the other one grows by at most e^8 over the
    section, and the entries run forward from the quadrature entries m_0 and
    d_0 = <part, (lam+1/2)^{-3}> at atol 1e-13, whose error the recurrence
    carries along.  Beyond it they solve the recurrence as a boundary-value
    problem from m_0 and m_S = 0 (``_minimal_moment_ratios``).
    """
    q, r = part.q, part.r
    b = 1.0 / (part.alpha + 0.5)
    a = (part.alpha - 0.5) * b
    c1, rb = b * (q - 1.0) + r, r * b  # b (q-1+rho), r b
    if r:
        sig = SigmaDistribution((part,))
        e0, e00 = _NORMALISERS
        f0 = sigma_pair(sig, e0, e0, 1e-13)
        if r * smax > _FORWARD_RS:
            return f0 * _minimal_moment_ratios((a, c1, c1 - rb), smax)
        d = (sigma_pair(sig, e0, e00, 1e-13) / f0).real
    elif q >= 2:
        raise DecayError("pairing integrand ~ lam^%g with no exponential decay" % (q - 3))
    else:
        f0 = part.c * (part.alpha + 0.5) ** (q - 1.0) * b * math.gamma(2.0 - q)
        d = b * (1.0 - 0.5 * q)
    m, mc, dprev = array("d", [1.0]), 1.0, 0.0
    sf = np.arange(smax, dtype=float)  # the coefficients of row s, rounded as in the row
    for cd, cp, den in zip(*map(memoryview, (((sf + 1) + a * (sf + 2)) + c1, sf * a, sf + 3))):
        dnext = (cd * d - cp * dprev - rb * mc) / den
        mc, dprev, d = mc - d, d, dnext
        m.append(mc)
    return f0 * np.array(m)


def _minimal_moment_ratios(coeffs, smax):
    """m_s / m_0, s = 0..smax, of the decaying solution of the recurrence of
    ``_power_law_moments``, coeffs = (a, b(q-1+rho), b(q-1+rho a)).

    With m_0 = 1 and m_S = 0, rows s = 0..S-2 are a banded system in m_1..m_{S-1}
    (two diagonals below, one above), solved by elimination without pivoting:
    row s reduces to u_s m_{s+1} + (s+3) m_{s+2} = y_s.  By back substitution,
    cutting at S moves m_smax by m_S prod_{k=smax-1}^{S-2} (k+3)/u_k, so S grows
    (Olver, J. Res. NBS 71B, 1967) until that product, with m_S read as y/u of
    the last row, is below eps; ArithmeticError if it never is.
    """
    a, c1, c2 = coeffs
    eps = np.finfo(float).eps
    u, y = array("d"), array("d")  # 8 bytes a row, no float objects
    prod, step = 1.0, smax + 64
    # the coefficients of rows s, step at a time, rounded as in the row
    rows = itertools.chain.from_iterable(
        zip(*map(memoryview, (-((sf + 2) * (2.0 + a) + c1), (sf + 1) * (1.0 + 2.0 * a) + c2,
                              -sf * a, sf + 1, sf + 2, sf + 3)))
        for sf in (np.arange(lo, lo + step, dtype=float) for lo in range(0, 64 * step, step)))
    for s, (diag, sub1, sa, s1, s2, s3) in enumerate(rows):
        if s == 0:
            rhs, sub1 = -sub1, 0.0
        elif s == 1:
            rhs = a  # -(-s a) m_0
        else:
            l2 = sa / u[s - 2]  # eliminates m_{s-1} with row s-2
            sub1 -= l2 * s1
            rhs = -l2 * y[s - 2]
        if s:
            l1 = sub1 / u[s - 1]  # eliminates m_s with row s-1
            diag -= l1 * s2
            rhs -= l1 * y[s - 1]
        u.append(diag)
        y.append(rhs)
        if s >= smax - 1:
            prod *= abs(s3 / diag)
            if s >= smax and abs(rhs / diag) * prod <= eps:
                break
    else:
        raise ArithmeticError("moment recurrence: no decaying solution within %d rows" % (s + 2))
    m = np.empty(s + 3)
    m[0], m[s + 2] = 1.0, 0.0
    for k in range(s, -1, -1):
        m[k + 1] = (y[k] - (k + 3) * m[k + 2]) / u[k]
    return m[:smax + 1]


def _delta_moments(part, smax):
    """<part, mu^s (lam+1/2)^{-2}>, s = 0..smax, of a DeltaCombo part.

    A delta combination of order K at beta reads the order-K jets of
    mu^s (lam+1/2)^{-2} there.  With b = ceil(sqrt(smax+1)) and s = i b + t,
    t < b, each is the truncated product of the anchor mu^{ib} (lam+1/2)^{-2}
    and the power mu^t, both from step loops: about 2 sqrt(smax) jet
    products, and the step loop's rounding, a few eps of max|f|, at any K.
    The binomial sum f_s = sum_{p <= K} C(s,p) mu(beta)^{s-p} w_p, w_p from
    the jets of (mu - mu(beta))^p (lam+1/2)^{-2}, takes K+1 products, but
    its terms outgrow max|f| with K: it loses 2e-9 of it at K = 33.
    """
    lam = _var_jet(part.beta, part.degree)
    rden = _jet_recip((lam + 0.5).coeffs)
    mu = _jet_mul((lam - 0.5).coeffs, rden)
    n, b = len(mu), math.isqrt(smax) + 1
    powers = np.zeros((b + 1, n), dtype=complex)  # mu^t, t = 0..b
    powers[0, 0] = 1.0
    for t in range(b):
        powers[t + 1] = _jet_mul(powers[t], mu)
    anchors = [_jet_mul(rden, rden)]  # mu^{ib} (lam+1/2)^{-2}
    for _ in range(smax // b):
        anchors.append(_jet_mul(anchors[-1], powers[b]))
    # toep[t, n-1-l, k] = powers[t, k-l]: anchor[::-1] @ toep[t] is a product jet
    toep = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([np.zeros((b, n - 1)), powers[:b]], axis=1), n, axis=1)
    prods = np.array(anchors)[:, ::-1] @ toep  # [t, i]: the jet of index i b + t
    return _delta_pair_engine(part, prods).T.ravel()[:smax + 1]


@dataclass(frozen=True)
class FiniteSection:
    size: int
    matrix: np.ndarray


def assemble(kernel, n):
    """N x N Laguerre finite section of the kernel's quadratic form.

    Entries come from the sigma side: H[j,k] = <sigma, (Le_j)* (Le_k)>, the
    moments in mu of each part.  A power-law part takes them from one moment
    recurrence (``_power_law_moments``), started in closed form with r = 0
    and from one or two scalar pairings at atol 1e-13 with r > 0; a delta
    part from the jets of mu^s (lam+1/2)^{-2} at beta (``_delta_moments``).
    Subnormal entries are flushed to 0.  Unbounded-positive kernels are
    allowed with a warning as long as every entry integral is finite;
    otherwise FormDomainError.  Entries that overflow to inf or nan are an
    ArithmeticError, and a size below 1 is a ValueError.
    """
    if n < 1:
        raise ValueError("section size must be a positive integer, got %r" % (n,))
    if classify(kernel) is Classification.UNBOUNDED_POSITIVE_FORM:
        warnings.warn("assembling finite sections of an unbounded positive form")
    try:
        f = sum(((_delta_moments if isinstance(p, DeltaCombo) else _power_law_moments)
                 (p, 2 * n - 2) for p in sigma_of_kernel(kernel).parts), np.zeros(2 * n - 1))
    except DecayError as exc:
        raise FormDomainError("Laguerre entries diverge: %s" % exc) from exc
    bad = np.flatnonzero(~np.isfinite(f))
    if len(bad):
        raise ArithmeticError("section entries are not finite: H[j, k] for %d of the %d values "
                              "of j + k, %s%s" % (len(bad), len(f), bad[:8].tolist(),
                                                  " ..." if len(bad) > 8 else ""))
    scale = max(np.max(np.abs(f)), 1e-300)
    if np.max(np.abs(f.imag)) > 1e-8 * scale:
        raise ArithmeticError("section entries came out complex; kernel not self-adjoint?")
    fr = f.real
    fr[np.abs(fr) < np.finfo(float).tiny] = 0.0  # subnormals slow down LAPACK
    h = np.lib.stride_tricks.sliding_window_view(fr, n).copy()
    return FiniteSection(n, h)


_RANK = 64  # columns of the range finder of ``_section_spectra``
_SEED = 0  # of its Gaussian test matrix, so that reruns are byte-identical


@functools.lru_cache(maxsize=8)
def _gaussian_sketch(n):
    """The read-only n x _RANK test matrix of ``_section_spectra``, one draw per n."""
    omega = np.random.default_rng(_SEED).standard_normal((n, _RANK))
    omega.flags.writeable = False
    return omega


def _section_spectra(h, sizes):
    """(spectra, counts, dense_fallback) of the leading blocks H_s = h[:s, :s],
    s in ``sizes`` (ascending, the last one len(h)), each count the
    ``_inertia`` of its spectrum at the error s eps max|theta|.

    Up to 4 _RANK rows every block gets a dense ``eigvalsh``.  Larger
    sections sketch Y = H Omega, Omega seeded Gaussian of _RANK columns, in
    one sweep down the row blocks [prev, s) (TSQR; Demmel et al., SIAM J. Sci.
    Comput. 34, 2012): [A; B] R = qr([R_prev; Y[prev:s]]) makes U_s = [U_prev A;
    B] an orthonormal basis of range(Y[:s]), and T_s = U_s^T H_s U_s is
    A^T T_prev A + F + F^T + B^T H[prev:s, prev:s] B, F = B^T H[prev:s, :prev]
    U_s[:prev]: H is symmetric, so only the block's rows are multiplied.
    Block s reads the spectrum of T_s, padded with zeros.  That is a true
    compression of H_s, so by Cauchy interlacing #{theta < -x} <=
    #{lambda(H_s) < -x} for every x >= 0, and the same for the positive side:
    each count is a lower bound on the block's, and so on the form's N_-+.
    Its margin may be negative, and is only reported.  When all _RANK Ritz
    values of the whole section lie beyond tau the sketch cannot hold the
    section's numerical rank, and every block gets the dense ``eigvalsh``;
    dense_fallback says so.
    """
    n, eps = len(h), np.finfo(float).eps
    saturated = False
    if n > 4 * _RANK:
        omega, spectra = _gaussian_sketch(n), []
        r, u, t = np.empty((0, _RANK)), np.empty((0, 0)), np.empty((0, 0))
        for prev, s in zip([0, *sizes[:-1]], sizes):
            qt, r = np.linalg.qr(np.vstack([r, h[prev:s] @ omega]))
            a, b = qt[:len(t)], qt[len(t):]  # len(T_prev): the rows of R_prev
            u = np.vstack([u @ a, b])
            f = b.T @ (h[prev:s, :prev] @ u[:prev])
            t = a.T @ t @ a + f + f.T + b.T @ (h[prev:s, prev:s] @ b)
            spectra.append(np.sort(np.concatenate([np.linalg.eigvalsh(t), np.zeros(s - len(t))])))
        saturated = sum(_inertia(spectra[-1])[:2]) == _RANK
    if n <= 4 * _RANK or saturated:
        spectra = [np.linalg.eigvalsh(h[:s, :s]) for s in sizes]
    counts = [_inertia(ev, s * eps * np.max(np.abs(ev))) for s, ev in zip(sizes, spectra)]
    return spectra, counts, saturated


def section_inertia(section):
    """(n_plus, n_minus) of the section, from the counts of ``_section_spectra``."""
    return _section_spectra(section.matrix, [section.size])[1][0][:2]


@dataclass(frozen=True)
class NegCountEstimate:
    kind: str  # "finite" | "infinite-suspected" | "undecided"
    value: int | None
    history: tuple  # (size, n_minus, n_plus) triples
    max_eigs: tuple  # largest eigenvalue of each section in ``history``
    # ``_inertia`` margins: > 0 when eigensolver rounding cannot move a count (entry errors aside)
    margins: tuple
    dense_fallback: bool  # the sketch of ``_section_spectra`` saturated: every size is dense

    def to_json(self):
        return {"kind": self.kind, "value": self.value,
                "history": [list(h) for h in self.history]}


DEFAULT_SIZES = (16, 32, 64, 128)  # of ``stabilized_negcount``, ``--sizes`` and sweep cases


def stabilized_negcount(kernel, sizes=DEFAULT_SIZES):
    """Estimate N_minus from a nested family of finite sections.

    Finite(n) when the last three sizes agree; infinite-suspected when the
    count strictly increases across every listed size; undecided otherwise.
    Sizes are integers (``operator.index``, a bool is refused) and repeated
    ones count once; fewer than 3 distinct sizes, or a size below 1, raise
    ValueError.  Only the largest section is assembled, the others are its
    leading blocks, and their spectra come from ``_section_spectra``;
    ``max_eigs`` and ``margins`` follow ``history``'s order.
    """
    sizes = tuple(sizes)
    if any(isinstance(n, bool) for n in sizes):
        raise ValueError("section sizes must be integers, not bools, got %r" % (sizes,))
    sizes = sorted(set(map(operator.index, sizes)))
    if len(sizes) < 3:
        raise ValueError("need at least 3 distinct section sizes")
    if sizes[0] < 1:
        raise ValueError("section sizes must be positive integers, got %r" % (sizes,))
    top = assemble(kernel, sizes[-1])
    spectra, counts, dense_fallback = _section_spectra(top.matrix, sizes)
    history = tuple((n, c[1], c[0]) for n, c in zip(sizes, counts))
    max_eigs = tuple(float(ev[-1]) for ev in spectra)
    negs = [h[1] for h in history]
    if negs[-1] == negs[-2] == negs[-3]:
        kind, value = "finite", negs[-1]
    elif all(b > a for a, b in zip(negs, negs[1:])):
        kind, value = "infinite-suspected", None
    else:
        kind, value = "undecided", None
    return NegCountEstimate(kind, value, history, max_eigs, tuple(c[3] for c in counts),
                            dense_fallback)


# ---------------------------------------------------------------------------
# Trial functions
# ---------------------------------------------------------------------------

def _log_window(center, eps, m):
    """exp(-eps^{-2m} ln^{2m}(lam/center)), narrow at its peak and where it falls to e^{-16}."""
    lnratio = FLog(FProd([fs_var(), fs_const(1.0 / center)]))
    window = FExp(FProd([fs_const(-eps ** (-2.0 * m)), FPow(lnratio, 2 * m)]))
    window.knots = tuple(center * math.exp(f * 16 ** (0.5 / m) * eps) for f in (-1, 0, 1))
    return window


def gaussian_trial(center, eps):
    """w(lam) = (eps lam)^{-1/2} e^{-ln^2(lam/center)/eps^2} as a FunctionSpec."""
    return FProd([fs_const(eps ** -0.5), FPow(fs_var(), -0.5), _log_window(center, eps, 1)])


def window_trials(beta, rho, n_sub, ell, eps):
    """Polynomial-window trials (lam-beta)^i R(lam-beta) W(lam), i < ell.

    R is the degree-n_sub Taylor polynomial of e^{rho mu / 2}, so that
    R(mu) e^{-rho mu / 2} = 1 + O(mu^{n_sub+1}); W is the log-power window
    exp(-eps^{-2m} ln^{2m}(lam/beta)) with 2m > n_sub.
    """
    m = n_sub // 2 + 1
    rcoeffs = [(rho / 2.0) ** p / math.factorial(p) for p in range(n_sub + 1)]
    rpoly = FPoly(rcoeffs, beta)
    window = _log_window(beta, eps, m)
    return [FProd([FPoly([0.0] * i + [1.0], beta) if i else 1.0, rpoly, window])
            for i in range(ell)]


# -- gaussian ends -------------------------------------------------------------
#
# An end (c, Q, zeros, E) is the function Q(x - c) prod (x - rho)^m
# exp(E(x - c)) of a real variable x, with Q a polynomial and E = (e0, e1, e2)
# a quadratic, both in the local variable x - c, (rho, m) running over
# ``zeros``, and Re e2 < 0.

def _end_poly(end, d):
    """Coefficients of an end's polynomial in powers of x - (c + d)."""
    c, q, zeros, _ = end
    out = _shift_poly(q, d)
    for rho, m in zeros:
        out = np.convolve(out, _shift_poly([0.0] * m + [1.0], c + d - rho))
    return out


def _end_product(end1, end2, k):
    """(f0, x0, s, r) with conj(end1(x)) end2(x) e^{kx} = e^{f0 - s u^2} r(u),
    u = x - x0: s = -(conj e1_2 + e2_2), x0 the stationary point of the
    exponent, possibly complex, and r the coefficients of the product of
    both polynomials in powers of u."""
    c1, q1, zeros1, e1 = end1
    c2, e2 = end2[0], end2[3]
    c1, e1 = np.conj(c1), np.conj(e1)  # conj end1(x) on real x is the mirrored end
    mirror = (c1, np.conj(q1), [(np.conj(rho), m) for rho, m in zeros1], e1)
    s = -(e1[2] + e2[2])
    d1 = (e1[1] + e2[1] + 2.0 * e2[2] * (c1 - c2) + k) / (2.0 * s)
    d2 = d1 + (c1 - c2)
    f0 = e1[0] + (e1[1] + e1[2] * d1) * d1 + e2[0] + (e2[1] + e2[2] * d2) * d2 + k * (c1 + d1)
    return f0, c1 + d1, s, np.convolve(_end_poly(mirror, d1), _end_poly(end2, d2))


def _gauss_moment(end1, end2, k):
    """integral over the real line of conj(end1(x)) end2(x) e^{kx} dx.

    The even coefficients r_2j of ``_end_product`` are summed against
    integral u^{2j} e^{-s u^2} du = Gamma(j+1/2) s^{-j-1/2}; moving the
    contour from the real line to x0 + R is exact, as the integrand is
    entire and decays in the strip between them.
    """
    f0, _, s, r = _end_product(end1, end2, k)
    r = r[::2]
    moments = np.sqrt(np.pi / s) * np.cumprod(np.r_[1.0, (np.arange(1, len(r)) - 0.5) / s])
    return np.exp(f0) * (r @ moments)


_GH_NODES = 20  # n of the Gauss-Hermite entries, whose error is |G_n - G_2n|
_GH_CLEAR = 0.1  # K: widths from z_alpha to the nearest node of the 2n-point rule


def _end_moment(part, end1, end2):
    """(value, error) of integral sigma_part(e^{-x}) conj(end1(x)) end2(x) dx,
    or None where neither route applies.

    Closed form first: a RegularDensity with alpha = 0 and r = 0 is
    c/Gamma(q) e^{(1-q) x} dx, so the entry is a gaussian moment with error
    0, for real and complex ends alike.  Otherwise Gauss-Hermite: the
    product of the ends is r(u) e^{f0 - s u^2} about its centre x0
    (``_end_product``), so with width w = s^{-1/2} the rule integrates
    r(w t) sigma(e^{-x0 - w t}) against e^{-t^2}; the value is the 2n-point
    rule's and the error its distance from the n-point one.  The rule
    applies to a power-law part when both ends are real (a conjugate pair's
    ends oscillate at 1/eps) and every node of the 2n-point rule lies on
    x0's side of z_alpha = -ln alpha, at least _GH_CLEAR widths from it.
    The outermost node is at 8.10 widths, so z_alpha is then 8.2 widths or
    more from x0: the density is analytic on that disk, and the n-point
    error is of the order of Gamma(n + 1/2) 8.2^{-2n} ~ 1e-19 relative.  The
    gaussian family's schedule eps <= delta/6 keeps its nearest centre
    ln(1 + delta) >= 5.8 eps = 8.24 widths from z_alpha.  Where the density
    vanishes every node reads 0: the entry is 0, short by a tail below
    e^{-67} of the peak.
    """
    if isinstance(part, RegularDensity) and part.alpha == 0 and part.r == 0:
        return part.weight * _gauss_moment(end1, end2, 1.0 - part.q), 0.0
    if not isinstance(part, _PowerLaw) or any(np.imag(e[0]) or np.any(np.imag(e[3]))
                                              for e in (end1, end2)):
        return None
    f0, x0, s, r = _end_product(end1, end2, 0.0)
    x0, w = float(np.real(x0)), float(np.real(s)) ** -0.5
    (t1, w1), (t2, w2) = _quad._gh(_GH_NODES), _quad._gh(2 * _GH_NODES)
    u = np.concatenate([t1, t2]) * w  # the nodes' offsets from x0
    if part.alpha > 0:
        d = -math.log(part.alpha) - x0
        if abs(d) < (t2[-1] + _GH_CLEAR) * w:
            return None
        if d < 0:
            return 0.0, 0.0
        lam_a = part.alpha * np.expm1(d - u)  # lam - alpha, no cancellation
    else:
        lam_a = np.exp(-x0 - u)
    vals = (part.weight * lam_a ** (part.q - 1.0) * np.exp(-part.r * lam_a)
            * np.polynomial.polynomial.polyval(u, r))
    scale = np.exp(f0) * w
    coarse, fine = scale * (vals[:_GH_NODES] @ w1), scale * (vals[_GH_NODES:] @ w2)
    return fine, float(abs(fine - coarse))


def _end_spec(ends):
    """The sum of ``ends`` as a FunctionSpec of x.  Every end's window is a
    gaussian, real or of a conjugate pair, so ``FExp`` gives it its knots."""
    parts = [FProd([FPoly(q, c)] + [FPow(fs_affine(1.0, -rho), m) for rho, m in zeros]
                   + [FExp(FPoly(e, c))]) for c, q, zeros, e in ends]
    return parts[0] if len(parts) == 1 else FSum(parts)


def _gaussian_end(center, eps):
    """The end of ``gaussian_trial``, lam^{1/2} (eps lam)^{-1/2} e^{-ln^2(lam/A)/eps^2}
    = eps^{-1/2} exp(-(z + ln A)^2/eps^2) in z = -ln lam."""
    return (-math.log(center), np.array([eps ** -0.5]), (), np.array([0.0, 0.0, -eps ** -2.0]))


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
    margin: float = math.nan  # ``_inertia`` margin at gram_err: > 0 when ``achieved`` is certified

    @property
    def success(self):
        return self.achieved >= self.target


_ROUNDS = 12  # eps values each construction tries
_GAUSSIAN_EPS, _GAUSSIAN_DELTA = 0.01, 0.06  # the gaussian family's first eps (<= delta/6) and delta
_WINDOW_EPS = 0.25  # first eps of the polynomial window
_INTERPOLATION_EPS = 0.2  # first eps of the interpolation trials


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
    _, n_minus, _, margin = _inertia(np.linalg.eigvalsh(0.5 * (g + g.conj().T)), err)
    return n_minus, margin


def _gram_certificate(kind, eps, params, g, target, entry_err):
    """Certificate of the Gram matrix ``g``.  Each entry is within
    ``entry_err`` (quadrature tolerance or Gauss-Hermite node doubling, 0 in
    closed form) plus rounding, eps max|G|, of the exact pairing, so by Weyl
    the spectrum is within m times that."""
    err = float(len(g) * (entry_err + np.finfo(float).eps * np.max(np.abs(g))))
    achieved, margin = _neg_inertia(g, err)
    return Certificate(kind, eps, params, g, achieved, target, err, margin)


def _gram(ends, parts, spec, pair, atol):
    """(G, err) of the trials whose ends are ``ends`` against the sigma
    ``parts``; err bounds the error of every entry.  Each trial pair and part
    takes one route: the sum of ``_end_moment`` over the pair's ends where
    it applies to all of them, else ``pair(left, spec(i), spec(j), atol)`` on
    the parts left, with ``spec(i)`` trial i as a FunctionSpec.
    A trial with no ends takes ``pair`` on every part.  G[i, j] is computed
    for j >= i and mirrored below."""
    spec = functools.cache(spec)
    m = len(ends)
    g = np.zeros((m, m), dtype=complex)
    worst = 0.0
    for i in range(m):
        for j in range(i, m):
            total, err, left = 0.0, 0.0, []
            for part in parts:
                moments = [_end_moment(part, e1, e2) for e1 in ends[i] for e2 in ends[j]]
                if not moments or any(mo is None for mo in moments):
                    left.append(part)
                    continue
                for value, e in moments:
                    total, err = total + value, err + e
            if left:
                total, err = total + pair(tuple(left), spec(i), spec(j), atol), err + atol
            g[i, j] = total
            g[j, i] = np.conj(g[i, j])
            worst = max(worst, err)
    return g, worst


def _sigma_pair(parts, u1, u2, atol):
    """``sigma_pair`` of the gaussian and window trials."""
    return sigma_pair(SigmaDistribution(parts), u1, u2, atol=atol)


# -- gaussian-family certificate --------------------------------------------

def _certify_gaussian(sig, beta, target):
    """Trials ``gaussian_trial(A_j, eps)``, A_j = beta (1 + j delta), from
    eps = _GAUSSIAN_EPS and delta = _GAUSSIAN_DELTA; delta halves every
    other round and eps = min(eps/2, delta/6).  The Gram matrix is one
    ``_gram`` of their single ends, ``_sigma_pair`` where ``_end_moment``
    does not apply."""
    delta, eps = _GAUSSIAN_DELTA, _GAUSSIAN_EPS
    for rd in range(_ROUNDS):
        centers = [beta * (1.0 + (j + 1) * delta) for j in range(target)]
        g, err = _gram([[_gaussian_end(a, eps)] for a in centers], sig.parts,
                       lambda i: gaussian_trial(centers[i], eps), _sigma_pair, 1e-11)
        yield _gram_certificate("gaussian-family", eps, {"delta": delta, "centers": centers},
                                g, target, err)
        if rd % 2 == 0:
            delta *= 0.5
        eps = min(eps * 0.5, delta / 6.0)


# -- polynomial-window certificate -------------------------------------------

def _certify_window(sig, beta, rho, n_sub, target):
    """``window_trials`` from eps = _WINDOW_EPS, halved each round.  They
    have no ends, so ``_gram`` takes ``_sigma_pair`` on every part."""
    eps = _WINDOW_EPS
    for _ in range(_ROUNDS):
        trials = window_trials(beta, rho, n_sub, target, eps)
        g, err = _gram([()] * target, sig.parts, trials.__getitem__, _sigma_pair, 1e-11)
        yield _gram_certificate("polynomial-window", eps, {"rho": rho, "order": n_sub},
                                g, target, err)
        eps *= 0.5


# -- interpolation certificate ------------------------------------------------

def _sign_directions(groups):
    """(kappas, directions) of ``Kernel.conjugate_groups()``: (kappa, K) per
    exponent kappa = -ln beta of degree K, and (eigenvalue, kind, ends) per
    negative eigenpair of a group's ``group_sign_matrix``, the eigenvector
    split into one (kappa, a) end per exponent."""
    kappas, directions = [], []
    for kind, t in groups:
        ends, s = group_sign_matrix(kind, t)
        kappas += [(e, t.degree) for e in ends]
        lams, vecs = np.linalg.eigh(s)
        for lam, a in zip(lams, vecs.T):
            if lam < 0:
                directions.append((lam, kind, tuple(zip(ends, np.split(a, len(ends))))))
    return kappas, directions


def _certify_interpolation(h0_sigma, v_kernel, target):
    """Gram = s0 block + sign block, from eps = _INTERPOLATION_EPS, halved
    each round.  Each trial's jets at the exponents are its sign-matrix
    eigenvector, so the finite-rank part of the form is a_i^H S a_j = diag
    of the negative eigenvalues, for every eps; only the pairing with s0
    (h0's density) depends on eps.  The s0 block is one ``_gram`` of the
    trials' ends, ``_s0_pair_x`` (in lam = e^{-x}) where ``_end_moment`` has no route."""
    groups = v_kernel.conjugate_groups()
    kappas, directions = _sign_directions(groups)
    if not directions:
        raise CertificateInputError("perturbation has no negative directions to certify")
    block = np.diag([lam for lam, _, _ in directions]).astype(complex)
    params = {"groups": len(groups)}
    s0_parts = h0_sigma.regular_parts
    eps = _INTERPOLATION_EPS
    if not s0_parts:
        yield _gram_certificate("interpolation", eps, params, block, target, 0.0)
        return
    for _ in range(_ROUNDS):
        ends = [_interpolation_ends(kind, e, kappas, eps) for _, kind, e in directions]
        g, err = _gram(ends, s0_parts, lambda i: _end_spec(ends[i]), _s0_pair_x, 1e-12)
        yield _gram_certificate("interpolation", eps, params, g + block, target, err)
        eps *= 0.5


def _s0_pair_x(s0_parts, u1, u2, atol):
    """integral sigma0(e^{-x}) conj(u1) u2 dx at ``atol``, paired in lam = e^{-x} (dx = -dlam/lam)
    by each part's ``_density_pair_engine``: tanh-sinh at alpha, the ends' knots at e^{-knot}."""
    prod = _SpecProduct(u1, u2)
    knots = np.exp(-np.asarray(prod.knots))
    return sum(_density_pair_engine(p, lambda lam: prod(-np.log(lam)) / lam, knots, atol)
               for p in s0_parts)


# ---------------------------------------------------------------------------
# Certificate driver
# ---------------------------------------------------------------------------

def certificate(h0, v, target):
    """Certify N_minus(h0 + v) >= target by an explicit negative subspace.

    ``v`` is a Kernel or one QuasiCarlemanTerm, wrapped as ``Kernel((v,))``.
    It picks the trial construction: interpolation for a finite-rank ``v``
    (an integer q <= 0 with alpha > 0 too); for one quasi-Carleman term,
    the polynomial window when q < 0 is fractional and its predicted finite
    count reaches ``target``, else the gaussian family.  Returns the first successful
    Certificate along the shrinking-eps schedule, else the one with the
    largest count (check ``.success``).  The interpolation construction
    needs an ``h0`` whose sigma is a density (q > 0 parts only), and the
    gaussian trials centre above beta = alpha > 0; other inputs raise
    CertificateInputError.
    """
    if target < 1:
        raise CertificateInputError("target must be >= 1")
    if isinstance(v, QuasiCarlemanTerm):
        v = Kernel((v,))
    if v.fr_terms and not v.qc_terms:
        sig0 = sigma_of_kernel(h0)
        if not all(isinstance(p, RegularDensity) for p in sig0.parts):
            raise CertificateInputError("an interpolation certificate needs an h0 whose sigma "
                                        "is a density (quasi-Carleman q > 0)")
        return _first_success(_certify_interpolation(sig0, v, target))
    if len(v.qc_terms) != 1:
        raise CertificateInputError("certificate needs a single-term perturbation")
    term, sig = v.qc_terms[0], sigma_of_kernel(h0 + v)
    if term.alpha == 0:  # sigma refuses alpha = 0 with q <= 0, so this is the gaussian family
        raise CertificateInputError("the gaussian trials centre above beta = alpha, "
                                    "and the perturbation has alpha = 0")
    if -term.q > 0 and not float(-term.q).is_integer():
        pred = predict_quasi_carleman(term.q, v0=term.v0)
        if pred.n_minus.finite and target <= pred.n_minus.n:
            return _first_success(_certify_window(sig, term.alpha, term.r,
                                                  int(math.floor(-term.q)), target))
    return _first_success(_certify_gaussian(sig, term.alpha, target))
