"""Spans around the public functions of each layer, from outside the package.

``install`` rebinds every traced function in every ``hankelsigma`` module
that holds it (``form`` and ``galerkin`` keep their own ``sigma_pair``,
the CLI its own ``assemble``), plus the class attributes of ``Jet`` and
the ``FunctionSpec`` node types and ``numpy.linalg.eigvalsh``.  Nothing
under ``src/`` changes.  Spans (name, start, end, parent, op) stay in
memory in flat arrays and are written out once, at the end.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# span names, grouped by layer
QUAD_RULES = ("quad.adaptive_gl", "quad.tanh_sinh_left", "quad.semi_infinite")
NAMES = QUAD_RULES + (
    "quad.integrand",
    "form.direct", "form.sigma", "form.convolution",
    "sigma.pair", "sigma.density", "sigma.regularized", "sigma.delta",
    "special.jet", "special.fspec", "special.gamma",
    "galerkin.assemble", "galerkin.inertia", "galerkin.certificate",
    "galerkin.round", "galerkin.s0_pair",
    "linalg.eigvalsh",
    "transform.mellin", "transform.reconstruct", "transform.mollifier_matrix",
    "transform.mollifier_norm",
    "cli.command",
)
NAME_ID = {n: i for i, n in enumerate(NAMES)}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.name = array("b")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.evals = 0
        self.panels = 0
        self.fspec_depth = 0

    def call(self, name_id, fn, *args, **kwargs):
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[i] = time.perf_counter()
            self.stack.pop()

    def save(self, path):
        np.savez_compressed(path, names=np.array(NAMES), name=np.frombuffer(self.name, np.int8),
                            parent=np.frombuffer(self.parent, np.int64),
                            op=np.frombuffer(self.op, np.int64),
                            start=np.frombuffer(self.start), end=np.frombuffer(self.end))


def _span(tracer, name, fn):
    nid = NAME_ID[name]

    def wrapper(*args, **kwargs):
        return tracer.call(nid, fn, *args, **kwargs)
    return wrapper


def _quad_rule(tracer, name, fn):
    nid, iid = NAME_ID[name], NAME_ID["quad.integrand"]

    def rule(f, *args, **kwargs):
        def integrand(x):
            out = tracer.call(iid, f, x)
            tracer.evals += np.size(out)
            return out
        return tracer.call(nid, fn, integrand, *args, **kwargs)
    return rule


def _panel_counter(tracer, fn):
    def panel(f, a, b, n):
        if n == 48:  # adaptive panels evaluate 24 and 48 nodes, tails 48
            tracer.panels += 1
        return fn(f, a, b, n)
    return panel


def _outermost_fspec(tracer, fn):
    nid = NAME_ID["special.fspec"]

    def call(self, z):
        if tracer.fspec_depth:
            return fn(self, z)
        tracer.fspec_depth += 1
        try:
            return tracer.call(nid, fn, self, z)
        finally:
            tracer.fspec_depth -= 1
    return call


def install(tracer):
    """Wrap every traced name; returns a function that undoes it."""
    from hankelsigma import _quad, cli, form, galerkin, sigma, special, transform

    modules = [m for k, m in sys.modules.items()
               if k == "hankelsigma" or k.startswith("hankelsigma.")]
    undo = []

    def rebind(owners, fn, wrapper):
        hit = 0
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                if val is fn:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, fn))
                    hit += 1
        if not hit:
            raise LookupError("nothing to wrap for %r" % (fn,))

    for name, fn in (("quad.adaptive_gl", _quad.adaptive_gl),
                     ("quad.tanh_sinh_left", _quad.tanh_sinh_left),
                     ("quad.semi_infinite", _quad.semi_infinite)):
        rebind(modules, fn, _quad_rule(tracer, name, fn))
    rebind(modules, _quad._panel, _panel_counter(tracer, _quad._panel))
    spans = [
        ("form.direct", form.form_direct), ("form.sigma", form.form_sigma),
        ("form.convolution", form.laplace_convolution),
        ("sigma.pair", sigma.sigma_pair),
        ("sigma.density", sigma._density_pair_engine),
        ("sigma.regularized", sigma._regularized_pair_engine),
        ("sigma.delta", sigma._delta_pair_engine),
        ("special.gamma", special.gamma),
        ("special.jet", galerkin._jet_mul), ("special.jet", galerkin._jet_recip),
        ("galerkin.assemble", galerkin.assemble),
        ("galerkin.inertia", galerkin.section_inertia),
        ("galerkin.inertia", sigma.matrix_inertia),
        ("galerkin.certificate", galerkin.certificate),
        ("galerkin.round", galerkin._neg_inertia),
        ("galerkin.s0_pair", galerkin._s0_pair_x),
        ("transform.mellin", transform.laplace_via_mellin),
        ("transform.reconstruct", transform.reconstruct),
        ("transform.mollifier_matrix", transform.mollifier_matrix),
        ("transform.mollifier_norm", transform.mollifier_norm),
        ("cli.command", cli.main),
    ]
    for name, fn in spans:
        rebind(modules, fn, _span(tracer, name, fn))
    rebind([np.linalg], np.linalg.eigvalsh, _span(tracer, "linalg.eigvalsh", np.linalg.eigvalsh))
    jet = special.Jet
    for attr in ("__mul__", "reciprocal", "exp", "log"):
        rebind([jet], vars(jet)[attr], _span(tracer, "special.jet", vars(jet)[attr]))
    for cls in vars(special).values():
        if isinstance(cls, type) and issubclass(cls, special.FunctionSpec) and "__call__" in vars(cls):
            fn = vars(cls)["__call__"]
            if cls is not special.FunctionSpec:
                rebind([cls], fn, _outermost_fspec(tracer, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
    return uninstall


def layer_metrics(tracer, rounds):
    """Per-layer metrics from the spans and counters of a traced run.

    Counts and seconds are per round of the op list, so they repeat
    whatever the number of rounds; ratios are over the whole run.  A
    layer's seconds count only its outermost spans; ``quad.self_s`` is
    the time inside the rules not covered by integrand callbacks.
    """
    n = len(tracer.start)
    name, parent = tracer.name, tracer.parent
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    child = np.zeros(n)
    anc = [0] * n  # bit mask of span names above each span
    count = [0] * len(NAMES)
    top_s = [0.0] * len(NAMES)
    bit = {k: 1 << v for k, v in NAME_ID.items()}
    quad_bits = sum(bit[r] for r in QUAD_RULES)
    fell_back = set()
    cert_pairs = 0
    verify_assembles = 0
    for i in range(n):
        p = parent[i]
        nm = name[i]
        if p >= 0:
            anc[i] = anc[p] | (1 << name[p])
            child[p] += dur[i]
        count[nm] += 1
        if not anc[i] >> nm & 1:
            top_s[nm] += dur[i]
        if (1 << nm) & quad_bits and anc[i] & bit["form.direct"]:
            j = p
            while NAMES[name[j]] != "form.direct":
                j = parent[j]
            fell_back.add(j)
        if nm == NAME_ID["sigma.pair"] and anc[i] & bit["galerkin.certificate"]:
            cert_pairs += 1
        if nm == NAME_ID["galerkin.assemble"] and anc[i] & bit["cli.command"]:
            verify_assembles += 1
    rule = np.isin(np.frombuffer(name, np.int8), [NAME_ID[r] for r in QUAD_RULES])
    quad_self = float(np.sum(dur[rule] - child[rule]))

    def c(k):
        return count[NAME_ID[k]]

    def s(k):
        return top_s[NAME_ID[k]]

    def ratio(a, b):
        return a / b if b else 0.0

    per_round = {
        "quad.calls": ("count", sum(c(r) for r in QUAD_RULES)),
        "quad.panels": ("count", tracer.panels),
        "quad.evals": ("count", tracer.evals),
        "quad.self_s": ("s", quad_self),
        "quad.integrand_s": ("s", s("quad.integrand")),
        "form.direct_calls": ("count", c("form.direct")),
        "form.direct_s": ("s", s("form.direct")),
        "form.sigma_s": ("s", s("form.sigma")),
        "form.convolution_s": ("s", s("form.convolution")),
        "sigma.pair_calls": ("count", c("sigma.pair")),
        "sigma.pair_s": ("s", s("sigma.pair")),
        "sigma.density_calls": ("count", c("sigma.density")),
        "sigma.density_s": ("s", s("sigma.density")),
        "sigma.regularized_calls": ("count", c("sigma.regularized")),
        "sigma.regularized_s": ("s", s("sigma.regularized")),
        "sigma.delta_calls": ("count", c("sigma.delta")),
        "sigma.delta_s": ("s", s("sigma.delta")),
        "special.jet_ops": ("count", c("special.jet")),
        "special.jet_s": ("s", s("special.jet")),
        "special.fspec_calls": ("count", c("special.fspec")),
        "special.fspec_s": ("s", s("special.fspec")),
        "special.gamma_calls": ("count", c("special.gamma")),
        "special.gamma_s": ("s", s("special.gamma")),
        "galerkin.assemble_calls": ("count", c("galerkin.assemble")),
        "galerkin.assemble_s": ("s", s("galerkin.assemble")),
        "galerkin.inertia_s": ("s", s("galerkin.inertia")),
        "galerkin.certificate_s": ("s", s("galerkin.certificate")),
        "galerkin.gram_entries": ("count", cert_pairs + c("galerkin.s0_pair")),
        "linalg.eigvalsh_calls": ("count", c("linalg.eigvalsh")),
        "linalg.eigvalsh_s": ("s", s("linalg.eigvalsh")),
        "transform.mellin_s": ("s", s("transform.mellin")),
        "transform.reconstruct_s": ("s", s("transform.reconstruct")),
        "transform.mollifier_matrix_s": ("s", s("transform.mollifier_matrix")),
        "transform.mollifier_norm_s": ("s", s("transform.mollifier_norm")),
        "cli.command_s": ("s", s("cli.command")),
    }
    out = {k: (u, v / rounds) for k, (u, v) in per_round.items()}
    out["form.direct_quad_share"] = ("ratio", ratio(len(fell_back), c("form.direct")))
    out["galerkin.rounds_per_certificate"] = ("ratio", ratio(c("galerkin.round"),
                                                             c("galerkin.certificate")))
    out["cli.assembles_per_verify"] = ("ratio", ratio(verify_assembles, c("cli.command")))
    out["trace.spans"] = ("count", n / rounds)
    return out, count
