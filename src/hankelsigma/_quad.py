"""Shared quadrature engine.

Three workhorses, each calling its integrand on a whole node array of shape
(m,) for values of shape (m,), real or complex:

* adaptive Gauss-Legendre panels with optional user knots,
* tanh-sinh panels for an integrable singularity at the left endpoint,
* geometric panel doubling for [a, inf) with divergence detection.

An adaptive panel evaluates the integrand once, on the 72 nodes of the 24-
and 48-point Gauss-Legendre rules together, and is accepted when |G48 - G24|
<= max(budget, 50 eps M), where M, the 48-point rule applied to |f|, is the
panel's absolute mass.  That floor is the roundoff stop of QUADPACK
(Piessens et al., 1983): bisection never chases rounding noise.

Two ``RuntimeWarning``s say when a rule returns short of its tolerance:
``adaptive_gl`` when it accepts panels at ``_MAX_DEPTH`` above both budget
and floor, and ``tanh_sinh_left`` when its halvings end unconverged.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

__all__ = ["DivergentIntegralError", "adaptive_gl", "tanh_sinh_left", "semi_infinite"]


class DivergentIntegralError(ArithmeticError):
    """Tail contributions failed to decay; the integral looks divergent."""


@functools.cache
def _gl(n):
    return np.polynomial.legendre.leggauss(n)


@functools.cache
def _gh(n):
    """Nodes and weights of the n-point Gauss-Hermite rule, weight e^{-x^2}."""
    return np.polynomial.hermite.hermgauss(n)


@functools.cache
def _gl_pair():
    """The 72 nodes of the 24- and 48-point rules, with the weights of each."""
    (x24, w24), (x48, w48) = _gl(24), _gl(48)
    return np.concatenate([x24, x48]), w24, w48


# relative size of the rounding noise in a panel's value (QUADPACK's 50 eps)
_NOISE = 50 * np.finfo(float).eps
_MAX_DEPTH = 11  # bisections of an adaptive panel


def _panel(f, a, b, n):
    x, w = _gl(n)
    nodes = 0.5 * (a + b) + 0.5 * (b - a) * x
    vals = np.asarray(f(nodes))
    return 0.5 * (b - a) * (vals @ w)


def adaptive_gl(f, a, b, atol=1e-12, knots=None):
    """Integrate f over [a, b] by bisection-adaptive Gauss-Legendre.

    ``knots`` seeds extra breakpoints (e.g. at sharp bump locations) so the
    error estimator cannot miss narrow features that fall between nodes.
    Error budgets halve with each bisection so accepted-panel errors sum to
    about ``atol``.  A panel is accepted once |G48 - G24| is within its
    budget or within the rounding floor 50 eps times the 48-point rule of
    |f| on the panel.  Panels still above both at depth ``_MAX_DEPTH`` are
    accepted too, and a call that accepts any raises one ``RuntimeWarning``
    with their number and worst error/budget ratio.
    """
    if b <= a:
        return 0.0
    pts = [a, b]
    if knots is not None:
        pts.extend(k for k in knots if a < k < b)
    pts = sorted(set(pts))
    total = None
    capped, worst = 0, 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        part, n, ratio = _adaptive_segment(f, lo, hi, atol / max(1, len(pts) - 1))
        total = part if total is None else total + part
        capped, worst = capped + n, max(worst, ratio)
    if capped:
        warnings.warn("adaptive_gl on [%g, %g]: %d panel(s) accepted at max_depth=%d "
                      "with error up to %.3g x budget" % (a, b, capped, _MAX_DEPTH, worst),
                      RuntimeWarning, stacklevel=2)
    return total


def _adaptive_segment(f, a, b, atol):
    """Value of one segment, with the number of panels accepted at the depth
    cap above budget and floor, and their worst error/budget ratio."""
    x, w24, w48 = _gl_pair()
    stack = [(a, b, atol, 0)]
    total = None
    capped, worst = 0, 0.0
    while stack:
        lo, hi, budget, depth = stack.pop()
        half = 0.5 * (hi - lo)
        vals = np.asarray(f(0.5 * (lo + hi) + half * x))
        coarse = half * (vals[:24] @ w24)
        fine = half * (vals[24:] @ w48)
        err = abs(fine - coarse)
        miss = err > max(budget, _NOISE * half * (np.abs(vals[24:]) @ w48))
        if not miss or depth >= _MAX_DEPTH:
            total = fine if total is None else total + fine
            if miss:
                capped += 1
                worst = max(worst, float(err / budget))
        else:
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid, 0.5 * budget, depth + 1))
            stack.append((mid, hi, 0.5 * budget, depth + 1))
    return total, capped, worst


def tanh_sinh_left(f, a, b, atol=1e-12):
    """Integrate f over [a, b] with an integrable singularity allowed at a.

    The integrand is called as f(u) with u = x - a computed stably, so
    factors like u^{q-1} can be evaluated without cancellation right down
    to u ~ 1e-280.  The step starts at 0.5 and halves at most 10 times; a
    ``RuntimeWarning`` says when the last halving still changed the value
    by more than ``atol``.
    """
    half = 0.5 * (b - a)
    piq = np.pi / 2

    def nodes_weights(h, only_odd):
        kmax = int(np.ceil(6.5 / h))
        k = np.arange(-kmax, kmax + 1)
        if only_odd:
            k = k[k % 2 != 0]
        t = k * h
        s = piq * np.sinh(t)
        # log-space weights avoid cosh overflow at the grid extremes
        logcosh_s = np.logaddexp(s, -s) - np.log(2.0)
        w = np.exp(np.log(h * half * piq) + np.log(np.cosh(t)) - 2.0 * logcosh_s)
        # distance from the left endpoint, stable for x -> -1
        u = np.where(s >= 0,
                     2.0 * half / (1.0 + np.exp(-2.0 * np.abs(s))),
                     2.0 * half * np.exp(-2.0 * np.abs(s)) / (1.0 + np.exp(-2.0 * np.abs(s))))
        keep = (u > 1e-280) & (w > 1e-300) & (u < b - a)
        return u[keep], w[keep]

    h = 0.5
    u, w = nodes_weights(h, only_odd=False)
    total = np.asarray(f(u)) @ w
    for _ in range(10):
        h /= 2
        u, w = nodes_weights(h, only_odd=True)
        refined = 0.5 * total + np.asarray(f(u)) @ w
        change = abs(refined - total)
        total = refined
        if change <= atol:
            break
    else:
        warnings.warn("tanh_sinh_left on [%g, %g]: 10 halvings left a change of %.3g > atol=%g"
                      % (a, b, change, atol), RuntimeWarning, stacklevel=2)
    return total


def semi_infinite(f, a, atol=1e-13):
    """Integrate f over [a, inf) by up to 90 GL panels doubling from length 1,
    until the last three are below atol max(1, |total|) and not increasing.

    Divergence is reported at the first panel whose value is not finite,
    when per-panel contributions grow persistently, or when they are still
    essentially flat once the panels span far beyond any decay scale in
    this package (tails flatter than ~x^{-1.1} count as divergent).
    """
    total = None
    lo = a
    length = 1.0
    history = []
    for _ in range(90):
        part = _panel(f, lo, lo + length, 48)
        total = part if total is None else total + part
        mag = float(abs(part))
        history.append(mag)
        scale = max(1.0, float(abs(total)))
        if (len(history) >= 3 and history[-3] < atol * scale
                and history[-1] <= history[-2] <= history[-3]):
            return total
        if not np.isfinite(mag) or (len(history) >= 45 and history[-1] > 0.9 ** 10 * history[-11]
                                    and mag > atol * scale):
            raise DivergentIntegralError("tail contributions are not decaying on [%g, inf)" % a)
        lo += length
        length *= 2.0
    raise DivergentIntegralError("tail did not converge within panel budget")
