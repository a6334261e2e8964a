"""The benchmark tracer still finds every name it wraps.

``perfbench/tracing.py`` rebinds private names of the package (the sigma
pairing engines, galerkin's jet helpers, ``_quad._panel``, ...).  Installing
it here makes a rename of any of them fail this suite, not only a traced
benchmark run.
"""

import importlib.util
import os

import numpy as np

from hankelsigma import _quad, galerkin, sigma, special
from hankelsigma.kernel import carleman, finite_rank, quasi_carleman

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _some_traced():
    return (sigma.sigma_pair, sigma._delta_pair_engine, galerkin._jet_mul,
            galerkin._neg_inertia, vars(special.Jet)["__mul__"], np.linalg.eigvalsh)


def test_benchmark_tracer_installs_and_undoes():
    tracing = _load_tracing()
    before = _some_traced()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert all(a is not b for a, b in zip(_some_traced(), before))
        # r = 1: assemble takes r = 0 power-law parts in closed form, and
        # only r > 0 parts reach the power-law engine and, for q < 0, its
        # finite-part series near piece
        galerkin.assemble(quasi_carleman(1.0, 1.0, 0.0, 1.0) + quasi_carleman(1.0, -1.5, 1.0, 1.0)
                          + finite_rank([1.0, -0.4], 0.9), 4)
    finally:
        undo()
    assert _some_traced() == before
    seen = {tracing.NAMES[i] for i in tracer.name}
    assert {"galerkin.assemble", "sigma.density", "sigma.regularized",
            "sigma.delta", "special.jet"} <= seen


def _traced_names(call):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        out = call()
    finally:
        undo()
    return out, {tracing.NAMES[i] for i in tracer.name}


def test_benchmark_tracer_sees_an_interpolation_certificate():
    # the spans of an interpolation certificate whose s0 block takes
    # quadrature (a conjugate pair's ends on an r = 1 background): the s0
    # pairing and the per-round inertia
    cert, seen = _traced_names(lambda: galerkin.certificate(quasi_carleman(1.0, 1.0, 0.0, 1.0),
                                                            finite_rank([1.0, 0.5j], 1 + 1j), 2))
    assert cert.success
    assert {"galerkin.certificate", "galerkin.s0_pair", "galerkin.round"} <= seen
    # a real exponent pairs by Gauss-Hermite on that background and in closed
    # form on Carleman: no s0 quadrature
    for h0 in (quasi_carleman(1.0, 1.0, 0.0, 1.0), carleman()):
        cert, seen = _traced_names(lambda: galerkin.certificate(h0, finite_rank([-1.0], 1.0), 1))
        assert cert.success
        assert "galerkin.s0_pair" not in seen
        assert {"galerkin.certificate", "galerkin.round"} <= seen


def test_benchmark_tracer_counts_adaptive_panel_evaluations():
    # quad.evals counts the integrand values of every rule, including an
    # adaptive panel's single call on the 72 nodes of its two rules
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        val = _quad.adaptive_gl(np.exp, 0.0, 1.0)
    finally:
        undo()
    assert np.isclose(val, np.e - 1.0)
    assert tracer.evals == 72
    seen = [tracing.NAMES[i] for i in tracer.name]
    assert seen == ["quad.adaptive_gl", "quad.integrand"]
