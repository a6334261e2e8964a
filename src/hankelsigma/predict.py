"""Closed-form predictions for the numbers of negative/positive eigenvalues.

``predict_kernel`` picks the theorem from the kernel's shape.  The
background is the quasi-Carleman term of largest q; the perturbation is
one more term v0 (t+rho)^k e^{-beta t} (q = -k) or the finite-rank part:

* one quasi-Carleman term alone (HKL): positivity for q > 0; for q < 0
  and non-integer |q| the finite count sits on one side and infinity on
  the other, by the parity of [|q|];
* background + k < 0 (HKC): sign-definite regular sigma perturbation;
  for k <= -1 a critical coupling nu decides nonnegativity;
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
from .sigma import RegularDensity, sigma_of_kernel, sign_matrix
from .special import gamma

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
    """nu = Gamma(-k) e^{-beta rho} essinf_{lam >= beta} (lam-beta)^{k+1}
    e^{rho lam} sigma0(lam), for k = -1 or (k < -1 and rho > 0)."""
    if k > -1:
        raise ValueError("critical coupling is defined for k <= -1")
    if k < -1 and rho <= 0:
        raise ValueError("k < -1 requires rho > 0")
    if not assumption_hfree(sigma0):
        raise AssumptionViolation("critical coupling needs a regular sigma0")

    parts = sigma0.regular_parts
    if len(parts) == 1 and parts[0].q == 1.0 and parts[0].alpha == 0.0 and parts[0].r == 0.0:
        # scaled Carleman density sigma0 = c: closed forms
        c = parts[0].c
        if k == -1:
            return float(c)
        return float(c * gamma(-k).real * math.exp(-k - 1) * (rho / (-k - 1)) ** (-k - 1))

    # grid essential infimum with a monotone tail check
    lam = beta + np.concatenate(([0.0], np.logspace(-8, math.log10(50.0), 10000)))
    lam[0] = beta + 1e-12
    vals = (lam - beta) ** (k + 1) * np.exp(rho * lam) * sigma0.density(lam)
    ess = float(np.min(vals))
    if rho == 0.0:
        # k = -1 here; the weight is 1 and the density may keep decreasing
        tail = sigma0.density(np.logspace(math.log10(beta + 50.0), 8, 200))
        ess = min(ess, float(np.min(tail)))
    return float(gamma(-k).real * math.exp(-beta * rho) * ess)


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
    """Sum of sign-matrix inertias; positive+negative must equal the rank.
    Raises NonSelfAdjointError like ``predict_finite_rank``."""
    n_plus = n_minus = 0
    for kind, t in v.conjugate_groups():
        if kind == "real":
            sm = sign_matrix(np.real(np.asarray(t.coeffs)), t.beta.real)
            p, m, z = sm.inertia
            n_plus += p
            n_minus += m
            assert z == 0
        else:
            n_plus += t.degree + 1
            n_minus += t.degree + 1
    return n_plus, n_minus
