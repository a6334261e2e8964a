"""Closed-form eigenvalue counts, checked against Laguerre finite sections.

The headline: the number of negative eigenvalues of H0 + V depends only on
the perturbation V, never on the (nonnegative, singular) background H0.
Sections see the finite counts immediately; the infinite branches hide
their directions at super-exponentially small eigenvalues, which is what
the certificates in demo 03 are for.

Run:  python demos/02_predictions_and_sections.py
"""

import numpy as np

from hankelsigma import (carleman, finite_rank, predict_finite_rank, predict_kernel,
                         predict_perturbed, predict_quasi_carleman,
                         quasi_carleman, stabilized_negcount)
from hankelsigma.kernel import QuasiCarlemanTerm

print("=" * 72)
print("Pure kernels (t+r)^{-q} e^{-alpha t}: counts depend on q alone")
for q in (0.5, -0.5, -1.5, -2.5, -3.5):
    p = predict_quasi_carleman(q)
    print("   q=%5.1f   N- = %-9s N+ = %s" % (q, p.n_minus, p.n_plus))

print()
print("=" * 72)
print("Carleman + v0 (t)^{3/2} e^{-t}: the three-branch parity table")
for v0 in (1.0, -1.0):
    pred = predict_perturbed(carleman(), QuasiCarlemanTerm(v0, -1.5, 1.0, 0.0))
    est = stabilized_negcount(carleman() + quasi_carleman(v0, -1.5, 1.0, 0.0),
                              (16, 32, 64, 128))
    print("   v0=%+g   predicted N- = %-9s sections say %s %s"
          % (v0, pred.n_minus, est.kind, [h[1] for h in est.history]))

print()
print("=" * 72)
print("Critical coupling: Carleman + v0 e^{-(t+rho) style} turns negative")
print("exactly below -nu")
for v0 in (-0.9, -1.1):
    pred = predict_perturbed(carleman(), QuasiCarlemanTerm(v0, 1.0, 1.0, 1.0))
    print("   v0=%+.1f   nu=%.3f   predicted N- = %s"
          % (v0, pred.critical_coupling, pred.n_minus))

print()
print("=" * 72)
print("Finite-rank perturbations count by sign-matrix inertia; adding the")
print("Carleman background changes nothing")
v = finite_rank([0, 0, 1.0], 1.0) + finite_rank([1.0], 1 + 1j)
pred = predict_finite_rank(v)
print("   V = t^2 e^{-t} + 2 Re e^{-(1+i)t}: rank %d, N- = %s" % (pred.rank, pred.n_minus))
for kern, name in ((v, "V alone"), (carleman() + v, "C + V")):
    est = stabilized_negcount(kern, (16, 32, 64, 128))
    print("   sections (%s): %s %s" % (name, est.kind, est.value))

print()
print("=" * 72)
print("The regularity caveat: 2e^{-t} - e^{-t} = e^{-t} is positive, so the")
print("sum has no negative spectrum even though -e^{-t} alone has one")
vneg = finite_rank([-1.0], 1.0)
h = finite_rank([2.0], 1.0) + vneg
print("   N-(V) =", predict_finite_rank(vneg).n_minus,
      "  N-(sum) =", predict_finite_rank(h).n_minus)

print()
print("=" * 72)
print("predict_kernel picks the theorem from the kernel's shape: the term of")
print("largest q is the background, the other piece the perturbation")
kern = carleman() + finite_rank([0, 0, 1.0], 1.0) + finite_rank([1.0], 1 + 1j)
pred = predict_kernel(kern)
print("   C + V: N- = %s, N+ = %s (source %s)" % (pred.n_minus, pred.n_plus, pred.source))
