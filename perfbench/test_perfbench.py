"""Tests of the benchmark itself: oracles, failure counting, tracing, tail rule,
per-op medians and the reference speed.

    python3 -m pytest -q perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hankelsigma.galerkin import Certificate  # noqa: E402
from hankelsigma.transform import GridFunction  # noqa: E402


# ---------------------------------------------------------------------------
# independent oracles against known values
# ---------------------------------------------------------------------------

def test_pure_counts_parity_table():
    assert workloads.pure_counts(1.0) == (0, None)
    assert workloads.pure_counts(-0.5) == (None, 1)
    assert workloads.pure_counts(-1.5) == (1, None)
    assert workloads.pure_counts(-2.5) == (None, 2)
    assert workloads.pure_counts(-3.5) == (2, None)
    assert workloads.pure_counts(-2.5, v0=-1.0) == (2, None)


def test_finite_rank_negcount_sign_matrix_rules():
    count = workloads.finite_rank_negcount
    assert count([((1.0,), 1.0)]) == 0
    assert count([((-1.0,), 1.0)]) == 1
    assert count([((0.5, -1.0), 1.0)]) == 1
    assert count([((0.5, -1.0, 0.4), 1.0)]) == 1
    assert count([((0.5, -1.0, -0.4), 1.0)]) == 2
    assert count([((1.0 + 1j, 0.5), 1.0 + 0.5j)]) == 2
    assert count([((-1.0,), 0.6), ((1.0 + 1j,), 1.0 + 0.8j)]) == 2


def test_monomial_form_known_values():
    # <1/t, e^-t * e^-t> = 1; <t^-1/2, ...> = Gamma(3/2); <e^-t, ...> = 1/4
    assert workloads.monomial_form([(1.0, 1.0, 0.0)], [], 1.0, 0, 1.0) == pytest.approx(1.0)
    assert workloads.monomial_form([(1.0, 0.5, 0.0)], [], 1.0, 0, 1.0) == pytest.approx(
        math.sqrt(math.pi) / 2)
    assert workloads.monomial_form([], [((1.0,), 1.0)], 1.0, 0, 1.0) == pytest.approx(0.25)
    # t e^{-t}: conj(f) * f = t^3/6 e^{-t}, against 1/t gives Gamma(3)/6
    assert workloads.monomial_form([(1.0, 1.0, 0.0)], [], 1.0, 1, 1.0) == pytest.approx(1 / 3)


def test_carleman_oracle_closed_form():
    h, top = workloads.carleman_oracle()
    assert h[:2, :2] == pytest.approx(np.array([[2.0, 0.0], [0.0, 2.0 / 3.0]]))
    assert 2.84 < top < math.pi


# ---------------------------------------------------------------------------
# wrong outputs count as failed
# ---------------------------------------------------------------------------

def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


def test_wrong_identity_output_is_failed(tmp_path):
    w = workloads.Identity()
    op = w.build(3, str(tmp_path))[0]
    failed, unexpected = harness.count_failures(
        w, [(op, 1e-3, None), (op, 1e-12, None), (op, None, "ArithmeticError: x")])
    assert failed == 2 and len(unexpected) == 2


def test_close_rate_slice_fails_as_expected(tmp_path):
    w = workloads.Identity()
    ops = [op for op in w.build(3, str(tmp_path)) if op.expect_fail]
    assert len(ops) == len(workloads.CLOSE_KERNELS)
    failed, unexpected = harness.count_failures(w, [(ops[0], 0.9, None)])
    assert failed == 1 and unexpected == []


def test_wrong_mellin_outputs_are_failed(tmp_path):
    w = workloads.Mellin()
    ops = w.build(3, str(tmp_path))
    lap = _first(ops, "laplace_via_mellin")
    good = w.run(lap)
    assert w.check(lap, good) is None
    bad = GridFunction(good.grid, good.values * 1.001)
    assert w.check(lap, bad) is not None
    assert w.check(_first(ops, "mollifier_norm"), 1e3) is not None


def test_wrong_certificate_is_failed(tmp_path):
    w = workloads.Certificates()
    op = _first(w.build(3, str(tmp_path)), "window")
    cert = w.run(op)
    assert w.check(op, cert) is None
    short = Certificate(cert.kind, cert.eps, cert.params, cert.gram, 0, cert.target)
    assert w.check(op, short) is not None
    flipped = Certificate(cert.kind, cert.eps, cert.params, -cert.gram, cert.achieved,
                          cert.target)
    assert w.check(op, flipped) is not None


def test_wrong_section_outputs_are_failed(tmp_path):
    w = workloads.Sections()
    ops = w.build(3, str(tmp_path))
    assert w.check(ops[0], (3, str(tmp_path))) is not None
    w.carleman_max_eig = [workloads.carleman_oracle()[1] + 1e-6]
    assert len(w.final_checks(ops)) == 1


# ---------------------------------------------------------------------------
# tracing: every wrapped name is hit where the layer mapping says
# ---------------------------------------------------------------------------

MUST_HIT = {
    "identity": ("quad.adaptive_gl", "quad.tanh_sinh_left", "quad.semi_infinite",
                 "quad.integrand", "form.direct", "form.sigma", "form.convolution",
                 "sigma.pair", "sigma.density", "sigma.regularized", "sigma.delta",
                 "special.jet", "special.fspec", "special.gamma"),
    "sections": ("cli.command", "galerkin.assemble", "galerkin.inertia", "linalg.eigvalsh",
                 "sigma.density", "sigma.regularized", "special.jet",
                 "quad.adaptive_gl", "quad.semi_infinite"),
    "certificates": ("galerkin.certificate", "galerkin.round", "galerkin.s0_pair",
                     "galerkin.inertia", "sigma.pair", "special.fspec", "special.jet",
                     "linalg.eigvalsh", "quad.adaptive_gl"),
    "mellin": ("transform.mellin", "transform.reconstruct", "transform.mollifier_matrix",
               "transform.mollifier_norm", "special.gamma"),
}
# a small slice of each op list that reaches every layer the workload uses
SLICE = {
    "identity": ("grid q=1 a=0 r=0 #1", "grid q=0.5 a=0 r=0 #0", "grid q=-1.5 a=1 r=0 #0",
                 "fr-pair #0"),
    "sections": ("fractional",),
    "certificates": ("gaussian q=1 v0=-1.1 target 2", "window q=-1.5 v0=1",
                     "interpolation real0 +carleman"),
    "mellin": ("laplace m=0,3", "roundtrip m=0,2", "mollifier_norm n=32"),
}


def _traced_counts(name, tmp_path):
    w = workloads.WORKLOADS[name]()
    ops = [op for op in w.build(5, str(tmp_path)) if op.label in SLICE[name]]
    ops = list({op.label: op for op in ops}.values())
    tracer = tracing.Tracer()
    _, _, failed, unexpected, rounds = harness.timed_rounds(w, ops, 0.0, tracer)
    assert (failed, unexpected) == (0, [])
    metrics, counts = tracing.layer_metrics(tracer, rounds)
    return tracer, metrics, counts


@pytest.mark.parametrize("name", sorted(MUST_HIT))
def test_every_wrapped_name_is_hit(name, tmp_path):
    tracer, metrics, counts = _traced_counts(name, tmp_path)
    missed = [n for n in MUST_HIT[name] if counts[tracing.NAME_ID[n]] == 0]
    assert missed == []
    if name == "identity":
        assert tracer.panels > 0 and tracer.evals > 0
        assert 0 < metrics["form.direct_quad_share"][1] <= 1
    if name == "sections":
        assert metrics["cli.assembles_per_verify"][1] == 2
    if name == "certificates":
        assert metrics["galerkin.rounds_per_certificate"][1] >= 1
        assert metrics["galerkin.gram_entries"][1] > 0


def test_mapping_covers_every_span_name():
    assert set(tracing.NAMES) == set().union(*MUST_HIT.values())


def test_traced_counts_repeat_and_install_is_undone(tmp_path):
    from hankelsigma import _quad, form, sigma

    before = (_quad.adaptive_gl, form.sigma_pair, sigma.sigma_pair, np.linalg.eigvalsh)
    _, first, _ = _traced_counts("identity", tmp_path)
    _, second, _ = _traced_counts("identity", tmp_path)
    assert (_quad.adaptive_gl, form.sigma_pair, sigma.sigma_pair, np.linalg.eigvalsh) == before
    for key, (unit, value) in first.items():
        if unit == "count":
            assert second[key][1] == value, key


# ---------------------------------------------------------------------------
# the tail percentile needs forty ops
# ---------------------------------------------------------------------------

def test_tail_percentile_only_from_forty_ops():
    assert harness.tail_percentile(7) is None
    assert harness.tail_percentile(39) is None
    for n in (40, 50, 67, 80, 100, 1000):
        p = harness.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10 > n * (100 - p - 1) / 100
    assert harness.tail_percentile(40) == 75


# ---------------------------------------------------------------------------
# per-op medians and the reference speed
# ---------------------------------------------------------------------------

def test_one_slow_round_moves_no_metric():
    base = np.array([[1.0, 2.0, 30.0]] * 3)
    slow = base.copy()
    slow[1] *= 5  # one round under a burst of load on the host
    assert harness.latency_metrics(slow) == harness.latency_metrics(base)
    ops_per_s, p50, tail, tail_op = harness.latency_metrics(base)
    assert (ops_per_s, p50, tail, tail_op) == (3e3 / 33.0, 2.0, 30.0, 2)


def test_reference_speed_cancels_a_slower_machine():
    rng = np.random.default_rng(0)
    lat = rng.uniform(1e-3, 1.0, (4, 50))
    ref = np.full((4, 51), harness.REFERENCE_S)
    fast = harness.calibrated_ms(lat, ref)
    np.testing.assert_allclose(fast, lat * 1e3)
    # the host at another speed in each round: ops and reference alike
    speed = np.array([[1.0], [1.8], [1.3], [2.0]])
    np.testing.assert_allclose(harness.calibrated_ms(speed * lat, speed * ref), fast)
    assert 0 < harness.reference() < 1.0
