"""Symbolic Hankel kernels h(t) and their boundedness classification.

A kernel is a sum of quasi-Carleman terms v0*(t+r)^{-q}*e^{-alpha t} and
finite-rank (Kronecker) terms P(t)*e^{-beta t} with Re beta > 0.  Integer
q <= 0 with alpha > 0 is normalized into the finite-rank family at
construction, so every surviving quasi-Carleman term has genuinely
power-type behaviour.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field

import numpy as np

from .special import _shift_poly

__all__ = [
    "QuasiCarlemanTerm",
    "FiniteRankTerm",
    "Kernel",
    "Classification",
    "UndefinableKernelError",
    "NonSelfAdjointError",
    "kernel_eval",
    "classify",
    "carleman_condition",
    "carleman",
    "quasi_carleman",
    "finite_rank",
]


class UndefinableKernelError(ValueError):
    """alpha = 0 with q <= 0: h(t) does not tend to 0, no operator exists."""


class NonSelfAdjointError(ValueError):
    """Complex finite-rank terms must appear in conjugate pairs."""


@dataclass(frozen=True)
class QuasiCarlemanTerm:
    """v0 * (t + r)^{-q} * e^{-alpha t}."""

    v0: float
    q: float
    alpha: float = 0.0
    r: float = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.v0, self.q, self.alpha, self.r))):
            raise ValueError("quasi-Carleman term needs finite parameters, got %r" % (self,))
        if self.alpha < 0 or self.r < 0:
            raise ValueError("alpha and r must be >= 0")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return self.v0 * (t + self.r) ** (-self.q) * np.exp(-self.alpha * t)


@dataclass(frozen=True)
class FiniteRankTerm:
    """P(t) * e^{-beta t} with Re beta > 0; coeffs ascending in t."""

    coeffs: tuple
    beta: complex

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coeffs)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "beta", complex(self.beta))
        if not all(map(cmath.isfinite, (self.beta,) + coeffs)):
            raise ValueError("finite-rank term needs finite coeffs and beta, got %r" % (self,))
        if self.beta.real <= 0:
            raise ValueError("finite-rank term needs Re beta > 0")
        if all(c == 0 for c in self.coeffs):
            raise ValueError("zero polynomial in finite-rank term")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval(self, t):
        t = np.asarray(t, dtype=complex)
        return np.polynomial.polynomial.polyval(t, np.asarray(self.coeffs)) * np.exp(-self.beta * t)


def _normalize_term(term):
    """Integer q <= 0 with alpha > 0 becomes a finite-rank term."""
    if isinstance(term, QuasiCarlemanTerm) and term.q <= 0 and float(term.q).is_integer() and term.alpha > 0:
        m = int(-term.q)
        return FiniteRankTerm(tuple(_shift_poly([0.0] * m + [term.v0], term.r)), term.alpha)
    return term


def _merge_finite_rank(terms):
    """Combine finite-rank terms with equal beta (Kronecker form needs distinct
    exponents); drop those that cancel to 1e-12 of their terms' summed max|coeffs|."""
    out = []
    merged = []
    for t in terms:
        if not isinstance(t, FiniteRankTerm):
            out.append(t)
            continue
        size = max(abs(c) for c in t.coeffs)
        for entry in merged:
            if abs(entry["beta"] - t.beta) <= 1e-12:
                n = max(len(entry["coeffs"]), len(t.coeffs))
                c = np.zeros(n, dtype=complex)
                c[: len(entry["coeffs"])] += entry["coeffs"]
                c[: len(t.coeffs)] += t.coeffs
                entry["coeffs"] = c
                entry["size"] += size
                break
        else:
            merged.append({"beta": t.beta, "coeffs": np.asarray(t.coeffs, dtype=complex),
                           "size": size})
    for entry in merged:
        if np.max(np.abs(entry["coeffs"])) > 1e-12 * entry["size"]:
            out.append(FiniteRankTerm(tuple(entry["coeffs"]), entry["beta"]))
    return out


@dataclass(frozen=True)
class Kernel:
    """A sum of quasi-Carleman and finite-rank terms."""

    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        normalized = [_normalize_term(t) for t in self.terms]
        object.__setattr__(self, "terms", tuple(_merge_finite_rank(normalized)))

    @property
    def qc_terms(self):
        return [t for t in self.terms if isinstance(t, QuasiCarlemanTerm)]

    @property
    def fr_terms(self):
        return [t for t in self.terms if isinstance(t, FiniteRankTerm)]

    def __add__(self, other):
        return Kernel(self.terms + other.terms)

    def conjugate_groups(self):
        """Finite-rank terms grouped as the sign-matrix counts see them:
        ("real", term) for each real beta, and ("pair", term) once per
        conjugate pair, with the Im beta > 0 member as ``term``.

        Raises NonSelfAdjointError unless every real beta has real
        coefficients and every complex beta has a partner at conj beta
        with the conjugate coefficients."""
        terms = self.fr_terms
        used = [False] * len(terms)
        groups = []
        for i, t in enumerate(terms):
            if used[i]:
                continue
            used[i] = True
            if abs(t.beta.imag) <= 1e-12:
                if not _close(t.coeffs, np.real(t.coeffs)):
                    raise NonSelfAdjointError("finite-rank term with real beta has a complex coefficient")
                groups.append(("real", t))
                continue
            mate = next((j for j in range(i + 1, len(terms))
                         if not used[j] and abs(terms[j].beta - np.conj(t.beta)) <= 1e-12), None)
            if mate is None or not _close(np.conj(t.coeffs), terms[mate].coeffs):
                raise NonSelfAdjointError("complex finite-rank term lacks its conjugate partner")
            used[mate] = True
            if t.beta.imag < 0:
                t = FiniteRankTerm(tuple(np.conj(np.asarray(t.coeffs))), np.conj(t.beta))
            groups.append(("pair", t))
        return groups


def _close(a, b):
    """Coefficient tuples equal to 1e-12, relative to each entry of ``a``."""
    return len(a) == len(b) and all(abs(x - y) <= 1e-12 * max(1.0, abs(x)) for x, y in zip(a, b))


class Classification(enum.Enum):
    BOUNDED = "Bounded"
    UNBOUNDED_POSITIVE_FORM = "UnboundedPositiveForm"
    INDEFINITE_FORM = "IndefiniteForm"
    UNDEFINABLE = "Undefinable"


def kernel_eval(kernel, t):
    """Pointwise h(t), t > 0; self-adjoint kernels give real values."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr <= 0):
        for term in kernel.qc_terms:
            if term.r == 0 and term.q > 0:
                raise ValueError("kernel singular at t = 0")
        if np.any(t_arr < 0):
            raise ValueError("kernel defined for t > 0")
    total = np.zeros_like(t_arr, dtype=complex)
    for term in kernel.terms:
        total = total + term.eval(t_arr)
    scale = np.max(np.abs(total)) if total.size else 0.0
    if np.max(np.abs(total.imag)) > 1e-13 * max(1.0, scale):
        raise NonSelfAdjointError("kernel evaluates to a complex value")
    out = total.real
    return float(out) if np.ndim(t) == 0 else out


def _classify_single(term):
    q, alpha, r = term.q, term.alpha, term.r
    if alpha == 0 and q <= 0:
        return Classification.UNDEFINABLE
    if q < 0:
        return Classification.INDEFINITE_FORM
    if alpha > 0:
        bounded = r > 0 or q <= 1
    else:
        bounded = (r > 0 and q >= 1) or (r == 0 and q == 1)
    return Classification.BOUNDED if bounded else Classification.UNBOUNDED_POSITIVE_FORM


_SEVERITY = {
    Classification.BOUNDED: 0,
    Classification.UNBOUNDED_POSITIVE_FORM: 1,
    Classification.INDEFINITE_FORM: 2,
    Classification.UNDEFINABLE: 3,
}


def classify(kernel):
    """Boundedness/definability class; finite-rank terms never matter.

    Sums of quasi-Carleman terms take the most pessimistic single-term
    verdict (the join), since mixed-parameter sums are not classified
    more finely.
    """
    verdicts = [_classify_single(t) for t in kernel.qc_terms]
    if not verdicts:
        return Classification.BOUNDED
    return max(verdicts, key=lambda v: _SEVERITY[v])


def carleman_condition(kernel):
    """Square-integrability of h on every (t, inf): alpha>0, or alpha=0 and q>1/2.

    Kernels whose only terms decay exponentially (finite rank, including
    integer q <= 0 with alpha > 0 after normalization) always satisfy it.
    """
    qc = kernel.qc_terms
    if len(qc) == 0:
        return True
    if len(qc) > 1:
        raise ValueError("carleman_condition expects a single quasi-Carleman term")
    term = qc[0]
    return term.alpha > 0 or term.q > 0.5


def carleman():
    """The Carleman kernel 1/t."""
    return Kernel((QuasiCarlemanTerm(1.0, 1.0, 0.0, 0.0),))


def quasi_carleman(v0, q, alpha=0.0, r=0.0):
    return Kernel((QuasiCarlemanTerm(v0, q, alpha, r),))


def finite_rank(coeffs, beta):
    """P(t) e^{-beta t}; complex beta adds the conjugate partner automatically."""
    beta = complex(beta)
    terms = [FiniteRankTerm(tuple(coeffs), beta)]
    if abs(beta.imag) > 0:
        terms.append(FiniteRankTerm(tuple(np.conj(np.asarray(coeffs, dtype=complex))), np.conj(beta)))
    return Kernel(tuple(terms))
