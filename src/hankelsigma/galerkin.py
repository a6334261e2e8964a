"""Laguerre finite sections and variational trial-subspace certificates.

The Galerkin basis is e_n(t) = L_n(t) e^{-t/2}, whose Laplace images are
mu(lam)^n / (lam + 1/2) with mu = (lam-1/2)/(lam+1/2).  Every section
entry is therefore a sigma pairing against mu^{j+k} (lam+1/2)^{-2}: the
matrix is Hankel in j+k.  ``assemble`` hands all 2N-1 of these products to
the sigma pairing dispatch as one test product with a batch axis (values,
Taylor coefficients and a decay bound, see ``sigma``), so a whole section
costs one pass over the sigma parts.

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
from .sigma import (DecayError, DeltaCombo, SigmaDistribution, _pair_product,
                    matrix_inertia, sigma_of_kernel, sigma_pair, sign_matrix,
                    sign_matrix_tilde)
from .special import FExp, FLog, FPow, FProd, Jet, fs_const, fs_var
# Imported by name and called through this module's globals: the benchmark's
# tracer (perfbench/tracing.py) wraps the jet helpers as galerkin attributes.
from .special import _jet_mul, _jet_recip

__all__ = [
    "FiniteSection",
    "NegCountEstimate",
    "Certificate",
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
    the leading axis."""

    def __init__(self, smax):
        self.smax = smax

    def __call__(self, lams):
        out = np.empty((self.smax + 1, len(lams)))
        out[0] = (lams + 0.5) ** -2.0
        out[1:] = (lams - 0.5) / (lams + 0.5)
        return np.cumprod(out, axis=0, out=out)

    def jet(self, center, order):
        n = order + 1
        lam = np.zeros(n, dtype=complex)
        lam[0] = center
        if n > 1:
            lam[1] = 1.0
        num = lam.copy()
        num[0] -= 0.5
        den = lam.copy()
        den[0] += 0.5
        mu = _jet_mul(num, _jet_recip(den))
        cur = _jet_mul(_jet_recip(den), _jet_recip(den))
        jets = np.empty((self.smax + 1, n), dtype=complex)
        for s in range(self.smax + 1):
            jets[s] = cur
            cur = _jet_mul(cur, mu)
        return jets

    def decay(self):
        return (0.0, -2.0)  # mu -> 1 as lam -> inf


@dataclass(frozen=True)
class FiniteSection:
    size: int
    matrix: np.ndarray
    kernel: Kernel

    def leading(self, n):
        return FiniteSection(n, self.matrix[:n, :n], self.kernel)


def assemble(kernel, n, atol=1e-12):
    """N x N Laguerre finite section of the kernel's quadratic form.

    Entries come from the sigma side: H[j,k] = <sigma, (Le_j)* (Le_k)>.
    Unbounded-positive kernels are allowed with a warning as long as every
    entry integral is finite; otherwise FormDomainError.
    """
    cls = classify(kernel)
    if cls is Classification.UNBOUNDED_POSITIVE_FORM:
        warnings.warn("assembling finite sections of an unbounded positive form")
    sig = sigma_of_kernel(kernel)
    try:
        f = _pair_product(sig, _LaguerreProducts(2 * n - 2), atol, hints=None,
                          near_radius=0.5, max_depth=16)
    except DecayError as exc:
        raise FormDomainError("Laguerre entries diverge: %s" % exc) from exc
    f = np.broadcast_to(f, 2 * n - 1)  # a kernel without parts pairs to a scalar 0
    scale = max(np.max(np.abs(f)), 1e-300)
    if np.max(np.abs(f.imag)) > 1e-8 * scale:
        raise ArithmeticError("section entries came out complex; kernel not self-adjoint?")
    fr = f.real
    idx = np.arange(n)
    h = fr[idx[:, None] + idx[None, :]]
    return FiniteSection(n, h, kernel)


def _inertia(ev, tol):
    """(n_plus, n_minus) of the eigenvalues ``ev`` at relative tolerance ``tol``."""
    t = tol * max(np.max(np.abs(ev)), 1e-300)
    return int(np.sum(ev > t)), int(np.sum(ev < -t))


def section_inertia(section, tol=1e-10):
    """(n_plus, n_minus) of the section at relative tolerance ``tol``."""
    return _inertia(np.linalg.eigvalsh(section.matrix), tol)


@dataclass(frozen=True)
class NegCountEstimate:
    kind: str  # "finite" | "infinite-suspected" | "undecided"
    value: int | None
    history: tuple  # (size, n_minus, n_plus) triples
    max_eigs: tuple  # largest eigenvalue of each section in ``history``

    def to_json(self):
        return {"kind": self.kind, "value": self.value,
                "history": [list(h) for h in self.history]}


def stabilized_negcount(kernel, sizes=(16, 32, 64, 128), tol=1e-10):
    """Estimate N_minus from a nested family of finite sections.

    Finite(n) when the last three sizes agree; infinite-suspected when the
    count strictly increases across every listed size; undecided otherwise.
    Only the largest section is assembled, the others are its leading blocks;
    ``max_eigs`` holds each section's largest eigenvalue, in ``history``'s order.
    """
    sizes = sorted(sizes)
    if len(sizes) < 3:
        raise ValueError("need at least 3 section sizes")
    top = assemble(kernel, sizes[-1])
    spectra = [np.linalg.eigvalsh(top.leading(n).matrix) for n in sizes]
    history = tuple((n,) + _inertia(ev, tol)[::-1] for n, ev in zip(sizes, spectra))
    max_eigs = tuple(float(ev[-1]) for ev in spectra)
    negs = [h[1] for h in history]
    if negs[-1] == negs[-2] == negs[-3]:
        return NegCountEstimate("finite", negs[-1], history, max_eigs)
    if all(b > a for a, b in zip(negs, negs[1:])):
        return NegCountEstimate("infinite-suspected", None, history, max_eigs)
    return NegCountEstimate("undecided", None, history, max_eigs)


def carleman_spectrum_study(n, q=1.0):
    """(min_eig, max_eig) of the section of h(t) = t^{-q}."""
    if n < 1:
        raise ValueError("need n >= 1")
    sec = assemble(Kernel((QuasiCarlemanTerm(1.0, q, 0.0, 0.0),)), n)
    ev = np.linalg.eigvalsh(sec.matrix)
    return float(ev[0]), float(ev[-1])


# ---------------------------------------------------------------------------
# Trial functions
# ---------------------------------------------------------------------------

def gaussian_trial(center, eps):
    """w(lam) = (eps lam)^{-1/2} e^{-ln^2(lam/center)/eps^2} as a FunctionSpec."""
    lnratio = FLog(FProd([fs_var(), fs_const(1.0 / center)]))
    window = FExp(FProd([fs_const(-1.0 / eps ** 2), FPow(lnratio, 2)]))
    return FProd([fs_const(eps ** -0.5), FPow(fs_var(), -0.5), window])


def window_trials(beta, rho, n_sub, ell, eps):
    """Polynomial-window trials (lam-beta)^i R(lam-beta) W(lam), i < ell.

    R is the degree-n_sub Taylor polynomial of e^{rho mu / 2}, so that
    R(mu) e^{-rho mu / 2} = 1 + O(mu^{n_sub+1}); W is the log-power window
    exp(-eps^{-2m} ln^{2m}(lam/beta)) with 2m > n_sub.
    """
    from .special import FPoly

    m = n_sub // 2 + 1
    rcoeffs = [(rho / 2.0) ** p / math.factorial(p) for p in range(n_sub + 1)]
    rpoly = FPoly(_shift_poly(rcoeffs, -beta))
    lnratio = FLog(FProd([fs_var(), fs_const(1.0 / beta)]))
    window = FExp(FProd([fs_const(-eps ** (-2.0 * m)), FPow(lnratio, 2 * m)]))
    out = []
    for i in range(ell):
        mono = FPoly(_shift_poly([0.0] * i + [1.0], -beta)) if i else fs_const(1.0)
        out.append(FProd([mono, rpoly, window]))
    return out


def _shift_poly(coeffs, shift):
    """Coefficients of P(z + shift) given those of P(z) (ascending)."""
    out = np.zeros(len(coeffs), dtype=complex)
    for j, c in enumerate(coeffs):
        for i in range(j + 1):
            out[i] += c * math.comb(j, i) * shift ** (j - i)
    return out


@dataclass(frozen=True)
class Certificate:
    kind: str
    eps: float
    params: dict
    gram: np.ndarray
    achieved: int
    target: int

    @property
    def success(self):
        return self.achieved >= self.target


def _neg_inertia(g):
    gh = 0.5 * (g + g.conj().T)
    return matrix_inertia(gh)[1]


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

def _gaussian_gram(sig, beta, centers, eps, atol=1e-11):
    trials = [gaussian_trial(a, eps) for a in centers]
    hints = []
    for a in centers:
        hints.extend([a * math.exp(-4 * eps), a, a * math.exp(4 * eps)])
    nr = min(0.25 * (min(centers) - beta), 0.1)
    return _hermitian_gram(
        lambda u, v: sigma_pair(sig, u, v, atol=atol, hints=hints, near_radius=nr), trials)


def _certify_gaussian(sig, beta, target, eps0, delta0, rounds=12):
    delta, eps = delta0, min(eps0, delta0 / 6.0)
    best = None
    for rd in range(rounds):
        centers = [beta * (1.0 + (j + 1) * delta) for j in range(target)]
        g = _gaussian_gram(sig, beta, centers, eps)
        achieved = _neg_inertia(g)
        cert = Certificate("gaussian-family", eps,
                           {"delta": delta, "centers": centers}, g, achieved, target)
        if cert.success:
            return cert
        best = cert if best is None or cert.achieved > best.achieved else best
        if rd % 2 == 0:
            delta *= 0.5
        eps = min(eps * 0.5, delta / 6.0)
    return best


# -- polynomial-window certificate -------------------------------------------

def _certify_window(sig, beta, rho, n_sub, target, eps0, rounds=12):
    eps = eps0
    best = None
    for _ in range(rounds):
        trials = window_trials(beta, rho, n_sub, target, eps)
        hints = [beta * math.exp(-2 * eps), beta * math.exp(2 * eps), beta + 1.0]
        nr = min(0.1, eps / 2)
        g = _hermitian_gram(
            lambda u, v: sigma_pair(sig, u, v, atol=1e-11, hints=hints, near_radius=nr), trials)
        achieved = _neg_inertia(g)
        cert = Certificate("polynomial-window", eps, {"rho": rho, "order": n_sub},
                           g, achieved, target)
        if cert.success:
            return cert
        best = cert if best is None or cert.achieved > best.achieved else best
        eps *= 0.5
    return best


# -- interpolation certificate ------------------------------------------------

class _PsiTrial:
    """Q(z) omega(z) * localizing factor, jet-built around one kappa."""

    def __init__(self, kappa, q_coeffs, omega_roots, kind, eps):
        self.kappa = kappa
        self.q_coeffs = np.asarray(q_coeffs, dtype=complex)
        self.omega_roots = tuple(omega_roots)  # (root, multiplicity)
        self.kind = kind  # "real" | "complex"
        self.eps = eps

    def __call__(self, x):
        z = np.asarray(x, dtype=complex)
        val = np.polynomial.polynomial.polyval(z - self.kappa, self.q_coeffs)
        for root, mult in self.omega_roots:
            val = val * (z - root) ** mult
        if self.kind == "real":
            val = val * np.exp(-(z - self.kappa) ** 2 / self.eps ** 2)
        else:
            sg = 1.0 if self.kappa.imag > 0 else -1.0
            val = val * np.exp(-1j * sg * (z - self.kappa) / self.eps)
            val = val * np.exp(-(z - self.kappa.real) ** 2)
        return val


def _phi_jet(kappa, omega_roots, kind, eps, order):
    """Jet at kappa of the localizing factor omega(z) * gaussian/phase."""
    zc = np.zeros(order + 1, dtype=complex)
    zc[0] = kappa
    if order >= 1:
        zc[1] = 1.0
    zj = Jet(kappa, zc)
    oc = np.zeros(order + 1, dtype=complex)
    oc[0] = 1.0
    one = Jet(kappa, oc)
    om = one
    for root, mult in omega_roots:
        om = om * (zj + (-root)).ipow(mult)
    if kind == "real":
        expo = np.zeros(order + 1, dtype=complex)  # -(z-kappa)^2/eps^2
        if order >= 2:
            expo[2] = -1.0 / eps ** 2
        return om * Jet(kappa, expo).exp()
    sg = 1.0 if kappa.imag > 0 else -1.0
    e1 = np.zeros(order + 1, dtype=complex)  # -i sg (z-kappa)/eps
    if order >= 1:
        e1[1] = -1j * sg / eps
    e2 = np.zeros(order + 1, dtype=complex)  # -(z-kappa')^2 around kappa
    c0 = kappa - kappa.real
    e2[0] = -c0 ** 2
    if order >= 1:
        e2[1] = -2 * c0
    if order >= 2:
        e2[2] = -1.0
    return om * Jet(kappa, e1).exp() * Jet(kappa, e2).exp()


def _interp_trials_for_group(kappa, K, other_roots, kind, eps):
    """psi_0..psi_K with psi_k^{(l)}(kappa) = delta_{kl}, vanishing to order
    K_n at every other kappa_n."""
    phi = _phi_jet(kappa, other_roots, kind, eps, K)
    inv = phi.reciprocal()
    trials = []
    for k in range(K + 1):
        target = np.zeros(K + 1, dtype=complex)
        target[k] = 1.0 / math.factorial(k)  # Taylor coeff for psi^{(k)} = 1
        q = _jet_mul(target, inv.coeffs)
        trials.append(_PsiTrial(kappa, q, other_roots, kind, eps))
    return trials


def _certify_interpolation(h0_sigma, v_kernel, target, eps0, rounds=12):
    groups = v_kernel.conjugate_groups()
    kappas = []
    for kind, t in groups:
        kappas.append((-np.log(t.beta), t.degree))
        if kind == "pair":
            kappas.append((-np.log(np.conj(t.beta)), t.degree))

    s0_parts = h0_sigma.regular_parts if h0_sigma is not None else []

    eps = eps0
    best = None
    for _ in range(rounds):
        trial_funs = []      # callables u_i
        jet_data = []        # per trial: {kappa: derivative-vector}
        for kind, t in groups:
            K = t.degree
            kap = -np.log(t.beta)
            others = [(k, d + 1) for k, d in kappas if abs(k - kap) > 1e-14]
            if kind == "real":
                psis = _interp_trials_for_group(kap, K, others, "real", eps)
                sm = sign_matrix(np.real(np.asarray(t.coeffs)), t.beta.real)
                evals, evecs = np.linalg.eigh(sm.entries.real)
                for idx in np.where(evals < 0)[0]:
                    a = evecs[:, idx]
                    trial_funs.append(_combine(psis, a))
                    jet_data.append({_key(kap): a.astype(complex)})
            else:
                kap2 = -np.log(np.conj(t.beta))
                others2 = [(k, d + 1) for k, d in kappas if abs(k - kap2) > 1e-14]
                psis1 = _interp_trials_for_group(kap, K, others, "complex", eps)
                psis2 = _interp_trials_for_group(kap2, K, others2, "complex", eps)
                st = sign_matrix_tilde(np.asarray(t.coeffs), t.beta)
                evals, evecs = np.linalg.eigh(st.entries)
                for idx in np.where(evals < 0)[0]:
                    a = evecs[:, idx]
                    a1, a2 = a[: K + 1], a[K + 1:]
                    trial_funs.append(_combine(psis1 + psis2, np.concatenate([a1, a2])))
                    jet_data.append({_key(kap): a1, _key(kap2): a2})

        m = len(trial_funs)
        if m == 0:
            raise ValueError("perturbation has no negative directions to certify")
        g = np.zeros((m, m), dtype=complex)
        # exact sign-matrix part
        for term in v_kernel.fr_terms:
            smat = DeltaCombo(term.beta, term.coeffs).sign_entries()
            kap_t = -np.log(term.beta)
            kap_c = -np.log(np.conj(term.beta))
            for i in range(m):
                di = jet_data[i].get(_key(kap_c))
                if di is None:
                    continue
                for j in range(m):
                    dj = jet_data[j].get(_key(kap_t))
                    if dj is None:
                        continue
                    g[i, j] += np.conj(di) @ smat @ dj
        # s0 part by real-line quadrature
        if s0_parts:
            g += _hermitian_gram(lambda u, v: _s0_pair_x(s0_parts, u, v), trial_funs)
        achieved = _neg_inertia(g)
        cert = Certificate("interpolation", eps, {"groups": len(groups)}, g,
                           achieved, target)
        if cert.achieved >= target:
            return cert
        best = cert if best is None or cert.achieved > best.achieved else best
        eps *= 0.5
    return best


def _key(kappa):
    return (round(float(np.real(kappa)), 12), round(float(np.imag(kappa)), 12))


def _combine(psis, coeffs):
    def u(x, _psis=psis, _c=np.asarray(coeffs, dtype=complex)):
        acc = 0.0
        for ck, pk in zip(_c, _psis):
            acc = acc + ck * pk(x)
        return acc
    return u


def _s0_pair_x(s0_parts, u1, u2):
    """integral s0(x) conj(u1) u2 dx with s0(x) = sigma0(e^{-x})."""
    def s0(x):
        lam = np.exp(-x)
        total = np.zeros_like(lam)
        for p in s0_parts:
            total = total + p.density(lam)
        return total

    def integrand(x):
        return s0(x) * np.conj(u1(x)) * u2(x)

    return _quad.adaptive_gl(integrand, -40.0, 40.0,
                             atol=1e-12, knots=list(np.linspace(-12, 12, 25)))


# ---------------------------------------------------------------------------
# Certificate driver
# ---------------------------------------------------------------------------

def certificate(h0, v, target, eps=None, kind="auto"):
    """Certify N_minus(h0 + v) >= target by an explicit negative subspace.

    Picks the trial construction from the perturbation type unless ``kind``
    forces one; returns the best Certificate found along the shrinking-eps
    schedule (check ``.success``).
    """
    if target < 1:
        raise ValueError("target must be >= 1")
    sig0 = sigma_of_kernel(h0) if h0.terms else SigmaDistribution(())
    if kind == "auto":
        if v.fr_terms and not v.qc_terms:
            kind = "interpolation"
        else:
            qc = v.qc_terms
            if len(qc) != 1:
                raise ValueError("certificate needs a single-term perturbation")
            term = qc[0]
            k_exp = -term.q
            if k_exp > 0 and not float(k_exp).is_integer():
                pred = predict_quasi_carleman(term.q, v0=term.v0)
                if pred.n_minus.finite and target <= pred.n_minus.n:
                    kind = "window"
                else:
                    kind = "gaussian"
            else:
                kind = "gaussian"

    sig_full = sigma_of_kernel(h0 + v)
    if kind == "gaussian":
        term = v.qc_terms[0]
        beta = term.alpha
        return _certify_gaussian(sig_full, beta, target,
                                 eps0=eps or 0.01, delta0=0.06)
    if kind == "window":
        term = v.qc_terms[0]
        n_sub = int(math.floor(-term.q))
        return _certify_window(sig_full, term.alpha, term.r, n_sub, target,
                               eps0=eps or 0.25)
    if kind == "interpolation":
        return _certify_interpolation(sig0, v, target, eps0=eps or 0.2)
    raise ValueError("unknown certificate kind %r" % (kind,))
