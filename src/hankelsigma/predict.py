"""Closed-form predictions for the numbers of negative/positive eigenvalues.

``predict_kernel`` picks the theorem from the kernel's shape.  The
background is the quasi-Carleman term of largest q; the perturbation is
one more term v0 (t+rho)^k e^{-beta t} (q = -k) or the finite-rank part:

* one quasi-Carleman term alone (HKL): positivity for q > 0; for q < 0
  and non-integer |q| the finite count sits on one side and infinity on
  the other, by the parity of [|q|];
* background + k < 0 (HKC): sign-definite regular sigma perturbation;
  for k <= -1 the closed-form nu of a one-part background decides nonnegativity;
* background + non-integer k > 0 (FDH): the three-branch parity table,
  independent of the unperturbed operator;
* finite rank, alone or on a background, integer k >= 0 included (FDH1):
  inertia of the sign-matrices, summed over real exponents and conjugate
  pairs.

Other shapes raise NoTheoremError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import (Classification, Kernel, QuasiCarlemanTerm,
                     UndefinableKernelError, classify)
from .sigma import RegularDensity, group_sign_matrix, matrix_inertia, sigma_of_kernel

__all__ = [
    "NegCount",
    "FINITE_ZERO",
    "INFINITE",
    "Prediction",
    "AssumptionViolation",
    "IntegerExponentError",
    "NoTheoremError",
    "predict_kernel",
    "predict_quasi_carleman",
    "critical_coupling",
    "predict_perturbed",
    "predict_finite_rank",
    "finite_rank_inertia_check",
    "assumption_hfree",
]


class AssumptionViolation(ValueError):
    """The unperturbed sigma density fails the regularity assumption."""


class IntegerExponentError(ValueError):
    """Integer |q|: the kernel is finite rank; use predict_finite_rank."""


class NoTheoremError(ValueError):
    """The kernel's shape is outside the theorem table of ``predict_kernel``."""


@dataclass(frozen=True)
class NegCount:
    """A spectral count: Finite(n) or Infinite."""

    finite: bool
    n: int = 0

    def __post_init__(self):
        if self.finite and self.n < 0:
            raise ValueError("finite count must be >= 0")

    @staticmethod
    def of(n):
        return NegCount(True, int(n))

    def __str__(self):
        return str(self.n) if self.finite else "infinite"

    def to_json(self):
        return self.n if self.finite else "infinite"


FINITE_ZERO = NegCount.of(0)
INFINITE = NegCount(False)


@dataclass(frozen=True)
class Prediction:
    n_minus: NegCount
    n_plus: NegCount
    source: str
    critical_coupling: float | None = None
    rank: int | None = None

    def to_json(self):
        out = {"n_minus": self.n_minus.to_json(), "n_plus": self.n_plus.to_json(),
               "source": self.source}
        if self.critical_coupling is not None:
            out["critical_coupling"] = self.critical_coupling
        if self.rank is not None:
            out["rank"] = self.rank
        return out


def predict_quasi_carleman(q, v0=1.0):
    """Counts for the kernel v0 (t+r)^{-q} e^{-alpha t}; independent of alpha, r.

    q > 0: the form is sign-definite (nonnegative for v0 > 0).  q < 0 with
    |q| non-integer: parity of [|q|] gives a finite count on one side and
    infinity on the other.
    """
    if q == 0:
        raise IntegerExponentError("q = 0 is finite rank (or undefinable)")
    if q > 0:
        nm, np_ = FINITE_ZERO, INFINITE
    else:
        aq = -q
        if float(aq).is_integer():
            raise IntegerExponentError(
                "integer |q| = %d is the finite-rank family" % int(aq))
        fl = int(math.floor(aq))
        if fl % 2 == 0:
            np_, nm = NegCount.of(fl // 2 + 1), INFINITE
        else:
            nm, np_ = NegCount.of((fl + 1) // 2), INFINITE
    if v0 < 0:
        nm, np_ = np_, nm
    return Prediction(nm, np_, "HKL")


def assumption_hfree(sigma0):
    """Regularity of the unperturbed sigma: nonnegative locally bounded
    density on [0, inf) with sigma0 = O(lam^{-l+}) at 0 for some l+ < 1.

    Only RegularDensity parts can qualify; any singular part disqualifies.
    """
    parts = sigma0.parts
    if not parts or any(not isinstance(p, RegularDensity) for p in parts):
        return False
    for p in parts:
        if p.c < 0:
            return False
        if p.alpha > 0:
            # supported away from 0; local boundedness needs q >= 1
            if p.q < 1:
                return False
        else:
            # l+ = 1 - q must be < 1, automatic for q > 0; blowup at 0 allowed
            if p.q <= 0:
                return False
    return True


def critical_coupling(sigma0, k, beta, rho):
    """nu = Gamma(-k) e^{-beta rho} essinf_{lam>=beta} (lam-beta)^{k+1} e^{rho lam} sigma0(lam)
    for k = -1 or (k < -1, rho > 0) and one part sigma0 = c/Gamma(q) (lam-alpha)_+^{q-1}
    e^{-r(lam-alpha)}: 0 if d = beta-alpha < 0, else Gamma(-k) c/Gamma(q) e^{-rd} inf_{u>0}
    g(u), g = u^a (u+d)^b e^{su}, a = k+1, b = q-1 (k+q and 0 if d = 0), s = rho-r."""
    if k > -1:
        raise ValueError("critical coupling is defined for k <= -1")
    if k < -1 and rho <= 0:
        raise ValueError("k < -1 requires rho > 0")
    if not assumption_hfree(sigma0):
        raise AssumptionViolation("critical coupling needs a regular sigma0")
    if len(sigma0.parts) != 1:
        raise AssumptionViolation("critical coupling needs a one-part sigma0, not %d parts"
                                  % len(sigma0.parts))
    (p,) = sigma0.parts
    d, s = beta - p.alpha, rho - p.r
    if d < 0:  # sigma0 vanishes on (beta, alpha)
        return 0.0
    a, b = (k + 1, p.q - 1) if d > 0 else (k + p.q, 0.0)
    # log g at u -> 0+ (~ u^a), at u -> inf (~ e^{su}, then u^{a+b}) and at the
    # positive roots of g'/g, those of s u^2 + (a + b + s d) u + a d
    logs = [math.copysign(math.inf, -a) if a else (b * math.log(d) if b else 0.0),
            math.copysign(math.inf, s) if s else (math.copysign(math.inf, a + b) if a + b else 0.0)]
    lin, disc = a + b + s * d, (a + b + s * d) ** 2 - 4 * s * a * d
    h = -0.5 * (lin + math.copysign(math.sqrt(max(disc, 0.0)), lin))
    roots = [a * d / h] + ([h / s] if s else []) if h and disc >= 0 else []
    logs += [a * math.log(u) + b * math.log(u + d) + s * u for u in roots if u > 0]
    return math.gamma(-k) * p.weight * math.exp(min(logs) - p.r * d)


def predict_perturbed(h0, v):
    """Counts of H0 + V for ``h0`` satisfying the regularity assumption
    (checked) and ``v`` one QuasiCarlemanTerm (q = -k, alpha = beta > 0)
    or a finite-rank Kernel; ``Kernel`` turns an integer k >= 0 into
    finite rank."""
    sigma0 = sigma_of_kernel(h0)
    if not assumption_hfree(sigma0):
        raise AssumptionViolation(
            "unperturbed kernel violates the sigma-regularity assumption")
    if isinstance(v, QuasiCarlemanTerm) and Kernel((v,)).fr_terms:
        v = Kernel((v,))
    if isinstance(v, Kernel):
        pred = predict_finite_rank(v)
        return Prediction(pred.n_minus, INFINITE, "FDH1", rank=pred.rank)
    k, beta, rho, v0 = -v.q, v.alpha, v.r, v.v0
    if beta <= 0:
        raise ValueError("perturbation needs beta > 0")

    if k < 0:
        if k > -1:
            if v0 >= 0:
                return Prediction(FINITE_ZERO, INFINITE, "HKC")
            return Prediction(INFINITE, INFINITE, "HKC")
        nu = critical_coupling(sigma0, k, beta, rho)
        if v0 >= -nu:
            return Prediction(FINITE_ZERO, INFINITE, "HKC", critical_coupling=nu)
        return Prediction(INFINITE, INFINITE, "HKC", critical_coupling=nu)

    base = predict_quasi_carleman(-k, v0=v0)
    return Prediction(base.n_minus, INFINITE, "FDH")


def predict_kernel(kernel):
    """Closed-form counts of ``kernel``, by the shape table of this module;
    other shapes raise NoTheoremError, failed preconditions other ValueErrors."""
    qc, fr = kernel.qc_terms, kernel.fr_terms
    if not qc:
        return predict_finite_rank(kernel)
    if classify(kernel) is Classification.UNDEFINABLE:
        raise UndefinableKernelError("kernel is undefinable")
    if len(qc) == 1 and not fr:
        return predict_quasi_carleman(qc[0].q, v0=qc[0].v0)
    if len(qc) + bool(fr) == 2:
        base, *rest = sorted(qc, key=lambda t: t.q, reverse=True)
        return predict_perturbed(Kernel((base,)), rest[0] if rest else Kernel(tuple(fr)))
    raise NoTheoremError("no closed-form count for %d quasi-Carleman terms%s"
                     % (len(qc), " plus finite rank" if fr else ""))


def _neg_count_real(K, lead_deriv):
    """Negative inertia of a real sign-matrix from the parity table."""
    if K % 2 == 1:
        return (K + 1) // 2
    return K // 2 if lead_deriv > 0 else K // 2 + 1


def predict_finite_rank(v):
    """N_minus of a self-adjoint finite-rank kernel, and its Kronecker rank.

    Real exponents contribute the parity-table count of their sign-matrix;
    each conjugate pair contributes K_m + 1.
    """
    if v.qc_terms:
        raise ValueError("predict_finite_rank expects a finite-rank kernel")
    rank = sum(t.degree + 1 for t in v.fr_terms)
    total = 0
    for kind, t in v.conjugate_groups():
        if kind == "real":
            lead = t.coeffs[-1].real * math.factorial(t.degree)  # P^{(K)}
            total += _neg_count_real(t.degree, lead)
        else:
            total += t.degree + 1
    n_minus = NegCount.of(total)
    return Prediction(n_minus, NegCount.of(rank - total), "FDH1", rank=rank)


def finite_rank_inertia_check(v):
    """Sum of the inertias of the ``group_sign_matrix`` of every conjugate
    group, a pair's block matrix included; positive+negative must equal the
    rank.  Raises NonSelfAdjointError like ``predict_finite_rank``, and
    ArithmeticError when a sign-matrix eigenvalue falls within the inertia
    threshold, so that the sum would miss the rank."""
    n_plus = n_minus = 0
    for kind, t in v.conjugate_groups():
        s = group_sign_matrix(kind, t)[1]
        p, m, z = matrix_inertia(s)
        if z:
            ev = np.abs(np.linalg.eigvalsh(s))
            raise ArithmeticError(
                "sign-matrix of the %s group at beta = %s has %d eigenvalue(s) within the "
                "inertia threshold: smallest/largest |eigenvalue| = %.3g"
                % (kind, t.beta.real if kind == "real" else t.beta, z, ev.min() / ev.max()))
        n_plus += p
        n_minus += m
    return n_plus, n_minus
