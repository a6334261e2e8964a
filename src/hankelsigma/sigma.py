"""Sigma distributions of Hankel kernels and their pairings.

The sigma distribution of a kernel comes in three part-kinds:

* RegularDensity     c/Gamma(q) (lam-alpha)_+^{q-1} e^{-r(lam-alpha)}, q > 0;
* RegularizedPower   the same formula with q < 0 non-integer, read as a
                     finite-part distribution: pairings subtract the Taylor
                     polynomial of the test function at alpha to order
                     n = floor(|q|);
* DeltaCombo         sum_j c_j delta^{(j)}(lam - beta), Re beta > 0, the
                     sigma distribution of P(t) e^{-beta t}.

Pairings ``<sigma, w1* w2>`` are sesquilinear (antilinear in w1).  A
RegularizedPower pairing folds the exponential into the test function
before subtracting, splits off an analytic series piece near alpha, and
integrates the remainder directly; DeltaCombo pairings are exact jet
arithmetic at beta.

Sign-matrices of finite-rank kernels are assembled from the exponential-
variable representation beta^{-1-j} (1-d)...(j-d) delta(x-kappa) of the
same distribution, with kappa = -ln beta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .kernel import Kernel, QuasiCarlemanTerm, FiniteRankTerm, UndefinableKernelError
from .special import Jet, _jet_mul

__all__ = [
    "RegularDensity",
    "RegularizedPower",
    "DeltaCombo",
    "SigmaDistribution",
    "SignMatrix",
    "sigma_of_kernel",
    "sigma_pair",
    "sign_matrix",
    "sign_matrix_tilde",
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


def _falling_diffop(j):
    """Coefficients of (1-X)(2-X)...(j-X) in ascending powers of X."""
    poly = np.array([1.0 + 0j])
    for i in range(1, j + 1):
        poly = np.convolve(poly, np.array([i, -1.0], dtype=complex))
    return poly


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

    @property
    def kappa(self):
        """-ln beta, the support point in the exponential variable."""
        return -np.log(self.beta)

    def diffop(self):
        """x-variable representation: sum_p d_p (d/dx)^p delta(x - kappa)."""
        d = np.zeros(len(self.coeffs), dtype=complex)
        for j, cj in enumerate(self.coeffs):
            if cj == 0:
                continue
            d[: j + 1] += cj * self.beta ** (-1 - j) * _falling_diffop(j)
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
# Pairing engines.  Every pairing goes through one dispatch, _pair_product,
# which walks sigma's parts against a test product prod = w1* w2 offering
#
#   prod(lam)                values on a real lambda array, shape (..., len(lam));
#   prod.jet(center, order)  Taylor coefficients at center, shape (..., order+1);
#   prod.decay()             (rate, power): |prod| <~ lam^power e^{-rate lam},
#                            ValueError when no such bound is known;
#   prod.knots               real points where prod is narrow.
#
# The leading batch shape is () for the FunctionSpec tests of sigma_pair and
# (2N-1,) for the Laguerre products of a Galerkin section; the engines
# broadcast over it.  The dispatch folds each part's e^{-r(lam-alpha)} into
# the product before handing it to an engine.
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


def _splits(alpha, knots):
    """(knots, near_end, far_start, d0) of the power-law engines, offsets from
    alpha: the knots above alpha, the end of a density's singular-end piece
    min(1, nearest knot), the start of the tail (1, or twice the farthest
    knot) and the finite part's series radius min(0.5, nearest knot / 4)."""
    knots = sorted(h - alpha for h in knots if h > alpha)
    near_end = min([1.0] + knots[:1])
    far_start = max([1.0] + [2.0 * h for h in knots])
    d0 = min([0.5] + [0.25 * h for h in knots[:1]])
    return knots, near_end, far_start, d0


def _density_pair_engine(part, psi, atol, splits):
    """integral_alpha^inf u^{q-1} psi(alpha+u) du * c/Gamma(q), q > 0.

    ``psi`` maps a lambda array to values with any leading batch shape and
    must already contain the e^{-r(lam-alpha)} factor; ``splits``: _splits.
    A non-integer q takes tanh-sinh on its singular end, up to near_end.
    """
    a, q = part.alpha, part.q
    hs, near_end, far_start, _ = splits

    def g(lam):
        return (lam - a) ** (q - 1) * psi(lam)

    if float(q).is_integer():  # no singular end: Gauss-Legendre from alpha
        near, near_end = 0.0, 0.0
    else:
        near = _quad.tanh_sinh_left(lambda u: u ** (q - 1) * psi(a + u), 0.0, near_end, atol=atol)
    mid = _quad.adaptive_gl(g, a + near_end, a + far_start, atol=atol, knots=[a + h for h in hs])
    far = _quad.semi_infinite(g, a + far_start, atol=atol * 0.1)
    return part.weight * (mid + far + near)


def _regularized_pair_engine(part, psi, psi_jets, atol, splits):
    """Finite-part pairing for q < 0 non-integer.

    psi_jets: Taylor coefficients of psi at alpha, shape (..., n+EXTRA+1);
    psi(lam array) -> (..., m).  The series radius d0 of ``splits`` is halved
    until the truncated tail is negligible and the series reproduces psi at
    alpha + d0: a check at the radius's edge that misses features inside.
    """
    a, q, n = part.alpha, part.q, part.order
    jets = np.asarray(psi_jets)
    extra = jets.shape[-1] - (n + 1)
    if extra < 8:
        raise ValueError("need at least 8 spare jet orders")

    hs, _, far_start, d0 = splits
    ps_hi = np.arange(n + 1, n + extra + 1)
    for _ in range(60):
        terms = jets[..., n + 1:] * (d0 ** (q + ps_hi) / (q + ps_hi))
        last = np.max(np.abs(terms[..., -3:]))
        series_val = np.sum(jets * d0 ** np.arange(jets.shape[-1]), axis=-1)
        direct_val = psi(np.array([a + d0]))[..., 0]
        mismatch = np.abs(series_val - direct_val)
        ok = mismatch <= np.maximum(1e-8 * np.abs(direct_val), atol * 1e-2)
        if last <= atol * 1e-2 and np.all(ok):
            break
        d0 *= 0.5
        if d0 < 1e-9:
            raise ArithmeticError("series split for the finite part did not converge")
    near = np.sum(terms, axis=-1)

    ps_lo = np.arange(n + 1)
    taylor = jets[..., : n + 1]

    def g_sub(u):
        tay = np.sum(taylor[..., :, None] * u[None, :] ** ps_lo[:, None], axis=-2)
        return u ** (q - 1) * (psi(a + u) - tay)

    mid = _quad.adaptive_gl(g_sub, d0, far_start, atol=atol, knots=hs)

    def g_raw(lam):
        return (lam - a) ** (q - 1) * psi(lam)

    far = _quad.semi_infinite(g_raw, a + far_start, atol=atol * 0.1)
    tail_corr = np.sum(taylor * (far_start ** (q + ps_lo) / (-q - ps_lo)), axis=-1)
    return part.weight * (near + mid + far - tail_corr)


def _delta_pair_engine(part, jets):
    """sum_j c_j (-1)^j d^j/dlam^j [w1* w2](beta), exact from the Taylor
    coefficients of w1* w2 at beta, shape (..., K+1)."""
    j = np.arange(part.degree + 1)
    fact = np.array([math.factorial(i) for i in j], dtype=float)
    return jets @ (np.asarray(part.coeffs) * (-1.0) ** j * fact)


def _pair_product(sig, prod, atol):
    """<sigma, prod> for a test product (see above)."""
    total = 0.0 + 0.0j
    for part in sig.parts:
        if isinstance(part, DeltaCombo):
            total = total + _delta_pair_engine(part, prod.jet(part.beta, part.degree))
            continue
        if not isinstance(part, _PowerLaw):
            raise TypeError("unknown sigma part %r" % (part,))
        _check_density_decay(part.q, part.r, prod)
        splits = _splits(part.alpha, prod.knots)

        def psi(lam, _p=part):
            return np.exp(-_p.r * (lam - _p.alpha)) * prod(lam)

        if isinstance(part, RegularDensity):
            total = total + _density_pair_engine(part, psi, atol, splits)
        else:
            order = part.order + _SERIES_EXTRA
            damp = np.zeros(order + 1, complex)
            damp[1] = -part.r
            jets = _jet_mul(prod.jet(part.alpha, order), Jet(part.alpha, damp).exp().coeffs)
            total = total + _regularized_pair_engine(part, psi, jets, atol, splits)
    return total


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
    of a q < 0 finite part (``_splits``): a feature within 0.5 of alpha that
    no knot marks goes unseen.
    """
    return _pair_product(sig, _SpecProduct(w1, w2), atol)


def sigma_pair_real(sig, w):
    """Diagonal pairing <sigma, w* w> for a self-adjoint sigma; returns float."""
    val = sigma_pair(sig, w, w)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise NonHermitianError("diagonal pairing came out complex: %r" % val)
    return float(val.real)


# ---------------------------------------------------------------------------
# Sign-matrices and inertia
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignMatrix:
    entries: np.ndarray
    inertia: tuple | None

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))


_INERTIA_RTOL = 1e-10  # eigenvalues within this times max|ev| count as zero


def _eig_inertia(ev):
    """(n_plus, n_minus, n_zero) of the eigenvalues ``ev``: the signs of
    those beyond _INERTIA_RTOL max|ev|, the rest counted as zero."""
    t = _INERTIA_RTOL * max(np.max(np.abs(ev)), 1e-300)
    return (int(np.sum(ev > t)), int(np.sum(ev < -t)), int(np.sum(np.abs(ev) <= t)))


def _margin(ev, err):
    """(distance of the nearest of ``ev`` from +-tau, minus ``err``) / max|ev|,
    tau = _INERTIA_RTOL max|ev| the threshold of ``_eig_inertia``.  When
    every eigenvalue of a matrix lies within ``err`` of ``ev``, a positive
    margin means their inertias agree: tau itself then moves by at most
    _INERTIA_RTOL err."""
    top = max(np.max(np.abs(ev)), 1e-300)
    gap = np.min(np.abs(np.abs(ev) - _INERTIA_RTOL * top))
    return float((gap - (1.0 + _INERTIA_RTOL) * err) / top)


def matrix_inertia(a):
    """(n_plus, n_minus, n_zero) of a hermitian matrix by eigenvalue signs."""
    a = np.asarray(a, dtype=complex)
    scale = max(np.max(np.abs(a)), 1e-300)
    if np.max(np.abs(a - a.conj().T)) > 1e-12 * scale:
        raise NonHermitianError("matrix is not hermitian within 1e-12")
    return _eig_inertia(np.linalg.eigvalsh(a))


def sign_matrix(pcoeffs, beta):
    """S(P, beta): the (K+1)x(K+1) matrix of the finite-rank sigma-form on
    jet data at kappa = -ln beta.

    Skew triangular (entries vanish for a+b > K); anti-diagonal entries are
    binom(K, a) beta^{-1-K} times the leading coefficient of P; the matrix
    of the conjugated data is the adjoint.
    """
    S = DeltaCombo(beta, tuple(pcoeffs)).sign_entries()
    try:
        return SignMatrix(S, matrix_inertia(S))
    except NonHermitianError:
        return SignMatrix(S, None)


def sign_matrix_tilde(pcoeffs, beta):
    """Block sign-matrix [[0, S*], [S, 0]] for a conjugate pair, Im beta != 0."""
    beta = complex(beta)
    if beta.imag == 0:
        raise ValueError("sign_matrix_tilde needs Im beta != 0")
    S = sign_matrix(pcoeffs, beta).entries
    K1 = S.shape[0]
    T = np.zeros((2 * K1, 2 * K1), dtype=complex)
    T[:K1, K1:] = S.conj().T
    T[K1:, :K1] = S
    return SignMatrix(T, matrix_inertia(T))
