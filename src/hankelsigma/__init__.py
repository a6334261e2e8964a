"""Sigma-function calculus for quasi-Carleman Hankel operators.

A Hankel operator with kernel h(t) pairs with test functions through a
sigma distribution whose two-sided Laplace transform is h.  This package
computes those distributions exactly for the quasi-Carleman and
finite-rank families, evaluates the quadratic forms on both sides of the
factorization identity, predicts negative-eigenvalue counts in closed
form, and verifies the predictions with Laguerre finite sections and
explicit variational certificates.
"""

__version__ = "0.1.0"

from .kernel import (Classification, FiniteRankTerm, Kernel,
                     QuasiCarlemanTerm, carleman, carleman_condition,
                     classify, finite_rank, kernel_eval, quasi_carleman)
from .sigma import (DeltaCombo, RegularDensity, RegularizedPower,
                    SigmaDistribution, group_sign_matrix, matrix_inertia,
                    sigma_of_kernel, sigma_pair, sign_matrix)
from .form import (ExpPoly, Indicator, LaplaceImage, dilation_check,
                   form_direct, form_sigma, identity_residual,
                   laguerre_test, laplace_convolution, spectral_witnesses)
from .predict import (NegCount, Prediction, assumption_hfree,
                      critical_coupling, predict_finite_rank, predict_kernel,
                      predict_perturbed, predict_quasi_carleman)
from .galerkin import (Certificate, FiniteSection, assemble, certificate,
                       section_inertia, stabilized_negcount)
from .transform import (GridFunction, LogGrid, laplace_via_mellin,
                        mollifier_tn, reconstruct, sandwiched_apply)

__all__ = [name for name in dir() if not name.startswith("_")]
