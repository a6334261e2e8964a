"""Shared quadrature engine.

Two rules, each calling its integrand on a whole node array of shape (m,)
for values of shape (m,), real or complex:

* adaptive Gauss-Legendre panels with optional user knots, for the middle
  of a range;
* tanh-sinh for both ends: ``tanh_sinh_left`` for an integrable
  singularity at the left endpoint, and ``semi_infinite`` for [a, inf),
  the same rule in u = 1/(lam + 1/2).

An adaptive panel evaluates the integrand once, on the 72 nodes of the 24-
and 48-point Gauss-Legendre rules together, and is accepted when |G48 - G24|
<= max(budget, 50 eps M), where M, the 48-point rule applied to |f|, is the
panel's absolute mass.  That floor is the roundoff stop of QUADPACK
(Piessens et al., 1983): bisection never chases rounding noise.  A
tanh-sinh halving stops on the same floor.  A tanh-sinh rule's first
integrand call evaluates levels 0 to 3 together, 147 nodes (148 with the
probe of ``semi_infinite``), and each level's sum and mass read only its
own slice, so value and stop are those of one call per level.  A call
costs more in overhead than in nodes, and most rules stop by level 3;
every later level is one call.

Two ``RuntimeWarning``s say when a rule returns short of its tolerance:
``adaptive_gl`` when it accepts panels at ``_MAX_DEPTH`` above both budget
and floor, and either tanh-sinh rule when its halvings end unconverged.
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
_TINY = 1e-280  # least tanh-sinh node on [0, 1]: u^{q-1} and 1/u/u stay in range
_LEVELS = 10  # halvings of the tanh-sinh step
_FIRST_LEVELS = 4  # tanh-sinh levels evaluated together in a rule's first call


# unused by the rules; perfbench/tracing.py rebinds it, as tests/test_tracing.py checks
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
    with their number and worst error/budget ratio.  An empty range, b == a,
    gives 0.0 with no call of f; a reversed one, b < a, raises ``ValueError``.
    """
    if b < a:
        raise ValueError("adaptive_gl needs a <= b, got [%g, %g]" % (a, b))
    if b == a:
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


@functools.cache
def _ts_level(j):
    """Nodes in (0, 1) and weights on [0, 1] of tanh-sinh level j, step
    h = 2^-(j+1): every k at level 0, the odd k that halving adds after."""
    h = 0.5 ** (j + 1)
    k = np.arange(-int(6.5 / h), int(6.5 / h) + 1)
    t = k[k % 2 != 0] * h if j else k * h
    s = 0.5 * np.pi * np.sinh(t)
    # log-space weights avoid cosh overflow; x = 1/(1 + e^{-2s}) stably at both ends
    e = np.exp(-2.0 * np.abs(s))
    w = np.exp(np.log(0.25 * np.pi * h * np.cosh(t)) - 2.0 * (np.logaddexp(s, -s) - np.log(2.0)))
    x = np.where(s >= 0, 1.0, e) / (1.0 + e)
    keep = (x > _TINY) & (w > 1e-300) & (x < 1.0)
    return x[keep], w[keep]


@functools.cache
def _ts_first():
    """Nodes of tanh-sinh levels 0 to _FIRST_LEVELS - 1 concatenated, and
    the offsets where each level starts and the last one ends."""
    xs = [_ts_level(j)[0] for j in range(_FIRST_LEVELS)]
    return np.concatenate(xs), np.cumsum([0] + [len(x) for x in xs]).tolist()


def _tanh_sinh(g, length, atol, where, probe=None):
    """Integral of g over [0, length]: level 0, then up to ``_LEVELS``
    halvings until one changes the value by at most atol or by rounding
    noise (50 eps times the rule applied to |g|), else a warning that
    names ``where``.

    The first call of g evaluates levels 0 to _FIRST_LEVELS - 1 together,
    each level's sum and mass read from its own slice; every later level
    is one call.  ``probe(v)``, when given, receives v = g(_TINY), taken at
    the end of the first call, before any level's sum is used.
    """
    x, starts = _ts_first()
    nodes = length * x
    if probe is not None:
        nodes = np.append(nodes, _TINY)
    head = np.asarray(g(nodes))
    if probe is not None:
        probe(head[-1])
    total = mass = 0.0
    for j in range(_LEVELS + 1):
        x, w = _ts_level(j)
        if j < _FIRST_LEVELS:
            vals = head[starts[j]:starts[j + 1]]
        else:
            vals = np.asarray(g(length * x))
        refined = 0.5 * total + length * (vals @ w)
        mass = 0.5 * mass + length * (np.abs(vals) @ w)
        change, total = abs(refined - total), refined
        if j and change <= max(atol, _NOISE * mass):
            return total
    warnings.warn("%s: %d halvings left a change of %.3g > atol=%g"
                  % (where, _LEVELS, change, atol), RuntimeWarning, stacklevel=3)
    return total


def tanh_sinh_left(f, a, b, atol=1e-12):
    """Integrate f over [a, b] with an integrable singularity allowed at a.

    f is called on u = x - a, stable down to u ~ 1e-280, so factors like
    u^{q-1} keep their digits.  The step starts at 0.5 and halves at most 10
    times; a ``RuntimeWarning`` says when the last halving still changed the
    value by more than ``atol`` and its rounding floor.  Ranges as in
    ``adaptive_gl``: b == a gives 0.0 with no call of f, b < a raises.
    """
    if b < a:
        raise ValueError("tanh_sinh_left needs a <= b, got [%g, %g]" % (a, b))
    if b == a:
        return 0.0
    return _tanh_sinh(f, b - a, atol, "tanh_sinh_left on [%g, %g]" % (a, b))


def semi_infinite(f, a, atol=1e-13):
    """Integrate f over [a, inf), a > -1/2, as g(u) = f(1/u - 1/2)/u^2 on
    (0, 1/(a + 1/2)] by the tanh-sinh rule of ``tanh_sinh_left``.

    An algebraic tail becomes an integrable singularity at u = 0, a peak far
    out a layer there.  A nan of f (0 * inf, as lam^{q-1} e^{-r lam} at lam
    ~ 1e280) counts as 0; an infinite value raises ``DivergentIntegralError``,
    and so does u |g(u)|, about the mass below u, above atol at the smallest
    node u = 1e-280, evaluated in the first call and checked before any
    level's sum is used: 1/x raises, x^{-1.05} integrates to 20.  A start
    a <= -1/2 raises ``ValueError``.
    """
    if not a > -0.5:
        raise ValueError("semi_infinite needs a > -1/2, got a = %g" % a)

    def g(u):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(f(1.0 / u - 0.5)) / u / u
        vals[np.isnan(vals)] = 0.0
        if not np.all(np.isfinite(vals)):
            raise DivergentIntegralError("tail contributions are not decaying on [%g, inf)" % a)
        return vals

    def probe(v):
        edge = _TINY * abs(v)
        if edge > atol:
            raise DivergentIntegralError("tail on [%g, inf) decays too slowly: mass ~%.3g "
                                         "beyond lam = 1e280" % (a, edge))

    return _tanh_sinh(g, 1.0 / (a + 0.5), atol, "semi_infinite on [%g, inf)" % a, probe)
