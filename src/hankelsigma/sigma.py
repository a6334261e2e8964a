"""Sigma distributions of Hankel kernels and their pairings.

The sigma distribution of a kernel comes in three part-kinds:

* RegularDensity     c/Gamma(q) (lam-alpha)_+^{q-1} e^{-r(lam-alpha)}, q > 0;
* RegularizedPower   the same formula with q < 0 non-integer, read as a
                     finite-part distribution: pairings subtract the Taylor
                     polynomial of the test function at alpha to order
                     n = floor(|q|);
* DeltaCombo         sum_j c_j delta^{(j)}(lam - beta), Re beta > 0, the
                     sigma distribution of P(t) e^{-beta t}.

Pairings ``<sigma, w1* w2>`` are sesquilinear (antilinear in w1).  Both
power-law kinds pair through one engine, which folds the exponential into
the test product's values and jets; only its piece near alpha depends on
q, and for a RegularizedPower that piece is an analytic series, with the
Taylor polynomial subtracted beyond it.  DeltaCombo pairings are exact jet
arithmetic at beta.

Sign-matrices of finite-rank kernels are assembled from the exponential-
variable representation beta^{-1-j} (1-d)...(j-d) delta(x-kappa) of the
same distribution, with kappa = -ln beta, one matrix per real exponent or
conjugate pair (``group_sign_matrix``).  Every count (sections, certificate
Gram matrices, sign-matrices) comes from one rule, ``_inertia``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .kernel import Kernel, QuasiCarlemanTerm, FiniteRankTerm, UndefinableKernelError
from .special import _jet_mul

__all__ = [
    "RegularDensity",
    "RegularizedPower",
    "DeltaCombo",
    "SigmaDistribution",
    "sigma_of_kernel",
    "sigma_pair",
    "sign_matrix",
    "group_sign_matrix",
    "matrix_inertia",
    "NonHermitianError",
    "DecayError",
]


class NonHermitianError(ValueError):
    pass


class DecayError(ValueError):
    """Test functions decay too slowly for the pairing integral."""


# ---------------------------------------------------------------------------
# Part types
# ---------------------------------------------------------------------------

class _PowerLaw:
    """Shared function part of the two power-type sigma parts."""

    @functools.cached_property
    def weight(self):
        """c/Gamma(q); q is real and off Gamma's poles by construction."""
        return self.c / math.gamma(self.q)

    def density(self, lam):
        """c/Gamma(q) (lam-alpha)_+^{q-1} e^{-r(lam-alpha)}, pointwise away
        from alpha (a RegularizedPower distribution is more than this)."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        m = lam > self.alpha
        u = lam[m] - self.alpha
        out[m] = self.weight * u ** (self.q - 1) * np.exp(-self.r * u)
        return out


@dataclass(frozen=True)
class RegularDensity(_PowerLaw):
    c: float
    q: float
    alpha: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("RegularDensity needs q > 0")


@dataclass(frozen=True)
class RegularizedPower(_PowerLaw):
    c: float
    q: float
    alpha: float
    r: float = 0.0

    def __post_init__(self):
        if self.q >= 0 or float(self.q).is_integer():
            raise ValueError("RegularizedPower needs non-integer q < 0")
        if self.alpha <= 0:
            raise ValueError("RegularizedPower needs alpha > 0")

    @property
    def order(self):
        """Taylor-subtraction order n with -n-1 < q < -n."""
        return int(math.floor(-self.q))


@dataclass(frozen=True)
class DeltaCombo:
    """sigma = sum_j coeffs[j] * delta^{(j)}(lam - beta)."""

    beta: complex
    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "beta", complex(self.beta))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if self.beta.real <= 0:
            raise ValueError("DeltaCombo needs Re beta > 0")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def diffop(self):
        """x-variable representation: sum_p d_p (d/dx)^p delta(x - kappa)."""
        d = np.zeros(len(self.coeffs), dtype=complex)
        falling = np.array([1.0 + 0j])  # (1-X)(2-X)...(j-X), ascending in X
        for j, cj in enumerate(self.coeffs):
            if j:
                falling = np.convolve(falling, np.array([j, -1.0], dtype=complex))
            if cj != 0:
                d[: j + 1] += cj * self.beta ** (-1 - j) * falling
        return d

    def sign_entries(self):
        """Sign-matrix S[a, b] = (-1)^{a+b} binom(a+b, a) d_{a+b}, zero for
        a+b > K, with d the x-variable representation."""
        d = self.diffop()
        K = self.degree
        S = np.zeros((K + 1, K + 1), dtype=complex)
        for a in range(K + 1):
            for b in range(K + 1 - a):
                S[a, b] = (-1) ** (a + b) * math.comb(a + b, a) * d[a + b]
        return S


@dataclass(frozen=True)
class SigmaDistribution:
    parts: tuple = field(default_factory=tuple)

    def density(self, lam):
        """Pointwise sum of the locally integrable / function parts."""
        lam = np.asarray(lam, dtype=float)
        out = np.zeros_like(lam)
        for p in self.parts:
            if isinstance(p, _PowerLaw):
                out = out + p.density(lam)
        return out

    @property
    def regular_parts(self):
        return [p for p in self.parts if isinstance(p, RegularDensity)]


def sigma_of_kernel(kernel: Kernel) -> SigmaDistribution:
    """Exact sigma distribution of a kernel; error if undefinable."""
    parts = []
    for term in kernel.terms:
        if isinstance(term, QuasiCarlemanTerm):
            if term.alpha == 0 and term.q <= 0:
                raise UndefinableKernelError(
                    "alpha=0 with q<=0 admits no sigma distribution"
                )
            if term.q > 0:
                parts.append(RegularDensity(term.v0, term.q, term.alpha, term.r))
            else:
                parts.append(RegularizedPower(term.v0, term.q, term.alpha, term.r))
        elif isinstance(term, FiniteRankTerm):
            parts.append(DeltaCombo(term.beta, term.coeffs))
        else:
            raise TypeError("unknown kernel term %r" % (term,))
    return SigmaDistribution(tuple(parts))


# ---------------------------------------------------------------------------
# Pairing engines.  Every pairing goes through one dispatch, sigma_pair,
# which walks sigma's parts against the test product prod = w1* w2
# (_SpecProduct) offering
#
#   prod(lam)                values on a real lambda array, shape (len(lam),);
#   prod.jet(center, order)  Taylor coefficients at center, shape (order+1,);
#   prod.decay()             (rate, power): |prod| <~ lam^power e^{-rate lam},
#                            ValueError when no such bound is known;
#   prod.knots               real points where prod is narrow.
#
# A delta part reads only the jets.  The dispatch hands each power-law part the
# undamped product's values, knots and jet method; the one power-law engine
# folds e^{-r(lam-alpha)} into values and jets itself, places the split
# points, and asks for the jets at alpha only for a finite part.  The
# Laguerre sections of ``galerkin`` take their entries as moments in mu and
# call the delta engine on their own jets.
# ---------------------------------------------------------------------------

_SERIES_EXTRA = 30


def _check_density_decay(q, r, prod):
    try:
        rate, power = prod.decay()
    except ValueError:
        return  # no structural bound; the tail quadrature will police it
    rate = r + rate
    if rate == math.inf or rate > 0:
        return
    if rate < 0 or (q - 1) + power >= -1:
        raise DecayError(
            "pairing integrand ~ lam^%g with no exponential decay" % ((q - 1) + power)
        )


def _density_pair_engine(part, prod, knots, atol, jet=None):
    """c/Gamma(q) integral_0^inf u^{q-1} e^{-ru} prod(alpha+u) du, for q < 0 its finite part.

    ``prod``: the undamped test product's values on a lambda array; ``knots``:
    lambda points where it is narrow; ``jet(alpha, order)``, asked for only
    when q < 0: its Taylor coefficients.  The engine folds e^{-r(lam-alpha)}
    into both (no factor at r = 0).  The knots above alpha end the near piece
    at u = min(1, nearest), start the tail at max(1, twice the farthest) and
    bound a finite part's series radius by min(0.5, nearest / 4).  Only the
    near piece depends on q: tanh-sinh for q > 0, singular at 0 or not; for
    q < 0 the series of _regularized_pair_engine, past which the Taylor
    polynomial T of order floor(-q) is subtracted up to far_start, and the
    finite part of u^{q-1} T(u) on [0, far_start] added back in closed form.
    """
    a, q, r = part.alpha, part.q, part.r
    hs = sorted(h - a for h in knots if h > a)
    near_end = min([1.0] + hs[:1])
    far_start = max([1.0] + [2.0 * h for h in hs])
    psi = prod if r == 0 else (lambda lam: np.exp(-r * (lam - a)) * prod(lam))

    def g(u):
        return u ** (q - 1) * psi(a + u)

    g_mid, back = g, 0.0
    if q < 0:
        ps = np.arange(part.order + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # _regularized_pair_engine names an overflow
            jets = np.asarray(jet(a, part.order + _SERIES_EXTRA))
            if r:
                damp = np.ones(len(jets))  # (-r)^k/k!, the jet of e^{-r(lam-alpha)}
                for k in range(1, len(jets)):
                    damp[k] = damp[k - 1] * -r / k
                jets = _jet_mul(jets, damp)
        d0 = min([0.5] + [0.25 * h for h in hs[:1]])
        near, near_end = _regularized_pair_engine(part, psi, jets, atol, d0)
        taylor = jets[: len(ps)]

        def g_mid(u):
            return u ** (q - 1) * (psi(a + u) - np.sum(taylor[:, None] * u[None, :] ** ps[:, None], axis=0))

        back = np.sum(taylor * (far_start ** (q + ps) / (q + ps)))
    else:
        near = _quad.tanh_sinh_left(g, 0.0, near_end, atol=atol)
    mid = _quad.adaptive_gl(g_mid, near_end, far_start, atol=atol, knots=hs)
    # the tail in lam, the variable in which the tests decay
    far = _quad.semi_infinite(lambda lam: g(lam - a), a + far_start, atol=atol * 0.1)
    return part.weight * (near + mid + far + back)


def _regularized_pair_engine(part, psi, jets, atol, d0):
    """(value, radius d) of the finite part's series near piece without c/Gamma(q),
    sum_{p > n} c_p d^{q+p}/(q+p) over the Taylor coefficients c_p of psi at
    alpha, n = part.order.  d starts at ``d0`` and is halved until the
    truncated tail is negligible and the series reproduces psi at alpha + d:
    a check at the radius's edge that misses features inside.
    """
    a, q, n = part.alpha, part.q, part.order
    if not np.all(np.isfinite(jets)):
        raise ArithmeticError("Taylor coefficients of the test product at alpha overflow; "
                              "the finite part has no series split")

    ps_hi = np.arange(n + 1, len(jets))
    d_min = min(d0, 1e-9)  # halve down to 1e-9, but try a smaller first radius once
    while d0 >= d_min:
        terms = jets[n + 1:] * (d0 ** (q + ps_hi) / (q + ps_hi))
        last = np.max(np.abs(terms[-3:]))
        series_val = np.sum(jets * d0 ** np.arange(len(jets)))
        direct_val = psi(np.array([a + d0]))[0]
        mismatch = abs(series_val - direct_val)
        if last <= atol * 1e-2 and mismatch <= max(1e-8 * abs(direct_val), atol * 1e-2):
            return np.sum(terms), d0
        d0 *= 0.5
    raise ArithmeticError("series split for the finite part did not converge")


def _delta_pair_engine(part, jets):
    """sum_j c_j (-1)^j d^j/dlam^j [w1* w2](beta), exact from the K+1 Taylor
    coefficients of w1* w2 at beta."""
    j = np.arange(part.degree + 1)
    fact = np.array([math.factorial(i) for i in j], dtype=float)
    return jets @ (np.asarray(part.coeffs) * (-1.0) ** j * fact)


class _SpecProduct:
    """The test product w1* w2 of two FunctionSpec tests, w1* the mirror
    z -> conj(w1(conj z)) (the conjugate on real lam); a diagonal product
    (w2 is w1) evaluates its test once."""

    def __init__(self, w1, w2):
        self.w1, self.w2 = w1, w2
        self.knots = w1.knots + w2.knots

    def __call__(self, lam):
        v1 = self.w1(lam)
        return np.conj(v1) * (v1 if self.w2 is self.w1 else self.w2(lam))

    def jet(self, center, order):
        j1 = self.w1.jet(np.conj(center), order).conj_mirror()
        same = self.w2 is self.w1 and center == np.conj(center)
        return (j1 * (j1.conj_mirror() if same else self.w2.jet(center, order))).coeffs

    def decay(self):
        (r1, p1), (r2, p2) = self.w1.decay(), self.w2.decay()
        return (r1 + r2, p1 + p2)


def sigma_pair(sig, w1, w2, atol=1e-10):
    """<sigma, w1* w2>: antilinear in w1, linear in w2.

    w1, w2 are FunctionSpec tests analytic on Re lam > 0 with enough decay.
    Their ``knots`` become quadrature breakpoints and bound the series radius
    of a q < 0 finite part (``_density_pair_engine``): a feature within 0.5
    of alpha that no knot marks goes unseen.
    """
    prod = _SpecProduct(w1, w2)
    total = 0.0 + 0.0j
    for part in sig.parts:
        if isinstance(part, DeltaCombo):
            total = total + _delta_pair_engine(part, prod.jet(part.beta, part.degree))
            continue
        if not isinstance(part, _PowerLaw):
            raise TypeError("unknown sigma part %r" % (part,))
        _check_density_decay(part.q, part.r, prod)
        total = total + _density_pair_engine(part, prod, prod.knots, atol, prod.jet)
    return total


# ---------------------------------------------------------------------------
# Sign-matrices and inertia
# ---------------------------------------------------------------------------

_INERTIA_RTOL = 1e-10  # eigenvalues within this times max|ev| count as zero


def _inertia(ev, err=0.0):
    """(n_plus, n_minus, n_zero, margin) of the eigenvalues ``ev``: the signs
    of those beyond tau = _INERTIA_RTOL max|ev|, the rest counted as zero, and
    (distance of the nearest of ``ev`` from +-tau, minus ``err``) / max|ev|.
    When every eigenvalue of a matrix lies within ``err`` of ``ev``, a positive
    margin means their inertias agree: tau itself moves by at most _INERTIA_RTOL err."""
    top = max(np.max(np.abs(ev)), 1e-300)
    tau = _INERTIA_RTOL * top
    gap = np.min(np.abs(np.abs(ev) - tau))
    return (int(np.sum(ev > tau)), int(np.sum(ev < -tau)), int(np.sum(np.abs(ev) <= tau)),
            float((gap - (1.0 + _INERTIA_RTOL) * err) / top))


def matrix_inertia(a):
    """(n_plus, n_minus, n_zero) of a hermitian matrix by eigenvalue signs."""
    a = np.asarray(a, dtype=complex)
    scale = max(np.max(np.abs(a)), 1e-300)
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
        raise NonHermitianError("matrix is not hermitian within 1e-12")
    return _inertia(np.linalg.eigvalsh(a))[:3]


def sign_matrix(pcoeffs, beta):
    """S(P, beta): the (K+1)x(K+1) matrix of the finite-rank sigma-form on
    jet data at kappa = -ln beta.

    Skew triangular (entries vanish for a+b > K); anti-diagonal entries are
    binom(K, a) beta^{-1-K} times the leading coefficient of P; the matrix
    of the conjugated data is the adjoint.
    """
    return DeltaCombo(beta, tuple(pcoeffs)).sign_entries()


def group_sign_matrix(kind, term):
    """(kappas, S) of one ``Kernel.conjugate_groups()`` entry, kappa = -ln beta.

    A real group has the one exponent of ``term`` and the real part of
    S(P, beta); a pair has the exponents at beta and conj beta and the
    hermitian block matrix [[0, S*], [S, 0]] on their jet data.
    """
    kap = -np.log(term.beta)
    if kind == "real":
        return (kap,), sign_matrix(np.real(np.asarray(term.coeffs)), term.beta.real).real
    s = sign_matrix(term.coeffs, term.beta)
    zero = np.zeros_like(s)
    return (kap, -np.log(np.conj(term.beta))), np.block([[zero, s.conj().T], [s, zero]])
