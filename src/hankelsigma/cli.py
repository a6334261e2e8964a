"""Batch front end: kernel spec files in, JSON/CSV reports out.

Kernel spec schema (version "1"):

    {"schema": "1", "type": "quasi_carleman", "v0": 1.0, "q": 1.0,
     "alpha": 0.0, "r": 0.0}
    {"schema": "1", "type": "finite_rank",
     "terms": [{"coeffs": [[re, im], ...], "beta": [re, im]}]}
    {"schema": "1", "type": "sum", "parts": [ ... ]}

Commands: sigma, predict, verify {identity|galerkin|factorization|witness},
certificate, sweep.  Exit codes: 0 success, 2 validation/precondition
failure, 3 numerical tolerance failure.  HS_LOG sets the log level.

predict, verify galerkin and sweep count through ``predict_kernel``, which
picks the theorem by the kernel's shape (background = the quasi-Carleman
term of largest q):  finite rank alone -> sign-matrix inertia (FDH1);
one quasi-Carleman term -> parity of [|q|] (HKL); background + one term
with k = -q < 0 -> critical coupling (HKC), with non-integer k > 0 ->
parity table (FDH); background + finite rank -> sign-matrix inertia (FDH1).
Other shapes get no prediction: predict exits 2, verify galerkin and sweep
write "prediction": null; a failed theorem precondition exits 2.  A sum is
checked for self-adjointness as a whole.  ``_exit_code`` maps failures
for commands and sweep cases alike: any ValueError or a missing file exits
2 (malformed specs, sweep cases without a name or a kernel, fewer than 3,
repeated or non-positive section sizes, non-self-adjoint or empty kernels,
failed preconditions, diverging sections), any ArithmeticError exits 3
(a divergent integral, cancelling terms, an unconverged series split).
A sweep records either as the case's "error" and goes on.

Reports with section counts (verify galerkin, sweep cases with
"galerkin": true; sizes default to ``galerkin.DEFAULT_SIZES``) carry a
"diagnostics" block with each size's margin from the inertia threshold.
Only "timings" changes between reruns.

Run as ``python -m hankelsigma <command> ...``.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import operator
import os
import sys
import time

import numpy as np

from . import __version__
from .form import ExpPoly, identity_residual, min_monomial_order, spectral_witnesses
from .galerkin import DEFAULT_SIZES, certificate, stabilized_negcount
from .kernel import Classification, FiniteRankTerm, Kernel, QuasiCarlemanTerm, classify
from .predict import NoTheoremError, predict_kernel
from .sigma import RegularizedPower, DeltaCombo, sigma_of_kernel
from .special import laguerre_e, laguerre_image
from .transform import DEFAULT_GRID, GridFunction, laplace_via_mellin

log = logging.getLogger("hankelsigma")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_TOLERANCE = 3

SCHEMA = "1"


class SpecError(ValueError):
    pass


# the failures a command or a sweep case reports; any other exception is a
# fault of the program and propagates
_FAILURES = (ValueError, FileNotFoundError, ArithmeticError)


def _exit_code(exc):
    """The exit code of one of ``_FAILURES``: 2 for a refused input
    (ValueError, FileNotFoundError), 3 for a numerical failure."""
    return EXIT_TOLERANCE if isinstance(exc, ArithmeticError) else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# Kernel spec parsing
# ---------------------------------------------------------------------------

def _parse_complex(v):
    if isinstance(v, (int, float)):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(v[0], v[1])
    raise SpecError("complex numbers are [re, im] pairs, got %r" % (v,))


def _spec_terms(doc):
    """The terms of a kernel-spec document, a sum's parts concatenated."""
    if not isinstance(doc, dict):
        raise SpecError("kernel spec must be a JSON object")
    if str(doc.get("schema", SCHEMA)) != SCHEMA:
        raise SpecError("unsupported schema %r" % doc.get("schema"))
    ktype = doc.get("type")
    if ktype == "quasi_carleman":
        return (QuasiCarlemanTerm(float(doc["v0"]), float(doc["q"]),
                                  float(doc.get("alpha", 0.0)), float(doc.get("r", 0.0))),)
    if ktype == "finite_rank":
        return tuple(FiniteRankTerm(tuple(_parse_complex(c) for c in entry["coeffs"]),
                                    _parse_complex(entry["beta"]))
                     for entry in doc.get("terms", []))
    if ktype == "sum":
        return sum((_spec_terms(part) for part in doc.get("parts", [])), ())
    raise SpecError("unknown kernel type %r" % (ktype,))


def parse_kernel(doc):
    """Parse a kernel-spec JSON document into a validated Kernel.  A sum is
    checked for self-adjointness as a whole, so its parts may split a pair."""
    try:
        kern = Kernel(_spec_terms(doc))
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError("bad kernel spec (%s: %s)" % (type(exc).__name__, exc)) from exc
    if not kern.terms:
        raise SpecError("kernel spec has no terms")
    kern.conjugate_groups()
    return kern


def load_kernel(path):
    with open(path) as fh:
        return parse_kernel(json.load(fh))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def _report_skeleton(command, args):
    return {
        "schema": SCHEMA,
        "command": command,
        "seed": args.seed,
        "tolerance": args.tol,
        "timings": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")},
    }


def _write_report(report, args, name):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s", path)


def _write_csv(args, name, header, rows):
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    log.info("wrote %s", path)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_sigma(args):
    sig = sigma_of_kernel(load_kernel(args.spec))
    lam = np.exp(np.linspace(np.log(args.lam_min), np.log(args.lam_max), args.points))
    dens = sig.density(lam)
    rows = [["density", "%.17g" % lv, "%.17g" % dv, "", "", "", ""]
            for lv, dv in zip(lam, dens)]
    for p in sig.parts:
        if isinstance(p, RegularizedPower):
            rows.append(["regularized_power", "", "", "%.17g" % (p.q - 1),
                         str(p.order), "%.17g" % p.alpha, ""])
        elif isinstance(p, DeltaCombo):
            rows.append(["delta_combo", "", "", "", str(p.degree),
                         "%.17g" % p.beta.real, "%.17g" % p.beta.imag])
    _write_csv(args, "sigma.csv",
               ["kind", "lambda", "value", "exponent", "order", "center_re", "center_im"],
               rows)
    return EXIT_OK


def cmd_predict(args):
    kern = load_kernel(args.spec)
    report = _report_skeleton("predict", args)
    report["prediction"] = predict_kernel(kern).to_json()
    _write_report(report, args, "predict.json")
    return EXIT_OK


def _random_tests(kern, count, seed):
    """Random ExpPoly test functions admissible for the kernel's direct form."""
    rng = np.random.default_rng(seed)
    mmin = 0
    for t in kern.qc_terms:
        if t.r == 0:
            mmin = max(mmin, min_monomial_order(t.q))
    out = []
    rates = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5)
    for _ in range(count):
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            terms.append((float(rng.normal()), int(mmin + rng.integers(0, 4)),
                          float(rng.choice(rates))))
        out.append(ExpPoly(tuple(terms)))
    return out


def _section_sizes(items):
    """Section sizes of ``--sizes`` (split at commas) or of a sweep case:
    at least 3 distinct positive integers."""
    try:
        sizes = tuple(int(s) if isinstance(s, str) else operator.index(s) for s in items)
    except (TypeError, ValueError):
        raise SpecError("section sizes must be integers, got %r" % (items,)) from None
    if len(sizes) < 3 or min(sizes) < 1:
        raise SpecError("need at least 3 positive section sizes, got %r" % (items,))
    if len(set(sizes)) < len(sizes):
        raise SpecError("section sizes repeat, got %r" % (items,))
    return sizes


def _section_report(report, kern, sizes):
    """Write ``kern``'s prediction (null for a shape with no theorem; a failed
    precondition raises first) and, unless ``sizes`` (``_section_sizes``
    items) is None, its section counts with each size's margin from the
    inertia threshold (> 0 when certified); returns the estimate."""
    try:
        report["prediction"] = predict_kernel(kern).to_json()
    except NoTheoremError:
        report["prediction"] = None
    if sizes is None:
        return None
    est = stabilized_negcount(kern, _section_sizes(sizes))
    report["counts"] = est.to_json()
    report["diagnostics"] = {"margins": list(est.margins)}
    return est


def cmd_verify(args):
    kern = load_kernel(args.spec)
    report = _report_skeleton("verify-" + args.mode, args)
    start = time.time()
    code = EXIT_OK
    if args.mode == "identity":
        tests = _random_tests(kern, args.count, args.seed)
        residuals = [identity_residual(kern, f) for f in tests]
        report["residuals"] = residuals
        report["max_residual"] = max(residuals)
        if report["max_residual"] > args.tol:
            code = EXIT_TOLERANCE
    elif args.mode == "galerkin":
        est = _section_report(report, kern, args.sizes.split(","))
        report["max_eig"] = est.max_eigs[-1]
        rows = [[n, nneg, npos, "%.12g" % ev]
                for (n, nneg, npos), ev in zip(est.history, est.max_eigs)]
        _write_csv(args, "galerkin.csv", ["N", "n_minus", "n_plus", "max_eig"], rows)
        if report["prediction"] is not None and est.kind == "finite":
            pn = report["prediction"]["n_minus"]
            if pn != "infinite" and est.value != pn:
                code = EXIT_TOLERANCE
    elif args.mode == "factorization":
        grid = DEFAULT_GRID
        t = grid.lambdas_pos
        worst = 0.0
        for n in range(6):
            f = GridFunction(grid, laguerre_e(n, t))
            w = laplace_via_mellin(f)
            truth = laguerre_image(n)(t)
            dif = (w.values - truth) * np.exp(grid.xs / 2)
            num = np.sqrt(grid.dx * np.sum(np.abs(dif) ** 2))
            worst = max(worst, float(num))
        report["residual"] = worst
        if worst > args.tol:
            code = EXIT_TOLERANCE
    elif args.mode == "witness":
        cls = classify(kern)
        report["classification"] = cls.value
        report["zero_in_spectrum"] = spectral_witnesses(kern, "zero_in_spectrum")
        if cls is not Classification.BOUNDED:
            report["unbounded"] = spectral_witnesses(kern, "unbounded")
    report["timings"]["runtime_sec"] = time.time() - start
    _write_report(report, args, "verify_%s.json" % args.mode)
    return code


def cmd_certificate(args):
    h0 = load_kernel(args.h0) if args.h0 else Kernel(())
    v = load_kernel(args.spec)
    report = _report_skeleton("certificate", args)
    start = time.time()
    cert = certificate(h0, v, args.target)
    report["certificate"] = {
        "kind": cert.kind,
        "eps": cert.eps,
        "achieved": cert.achieved,
        "target": cert.target,
        "success": bool(cert.success),
        "margin": cert.margin,
    }
    report["timings"]["runtime_sec"] = time.time() - start
    _write_report(report, args, "certificate.json")
    return EXIT_OK if cert.success else EXIT_TOLERANCE


def _sweep_case(index, case, args):
    """One case's report; a case without a name or a kernel, and any
    failure that ``_exit_code`` maps, is its ``error``.  A case without a
    name reports to ``case-<index>``."""
    name = case.get("name") if isinstance(case, dict) else None
    if not isinstance(name, str) or not name:
        name = None
    sub = argparse.Namespace(**vars(args))
    sub.out = os.path.join(args.out, name or "case-%d" % index)
    report = _report_skeleton("sweep-case", sub)
    report["prediction"] = None
    code = EXIT_OK
    try:
        if name is None or "kernel" not in case:
            raise SpecError("sweep case %d needs a \"name\" string and a \"kernel\"" % index)
        _section_report(report, parse_kernel(case["kernel"]),
                        case.get("sizes", DEFAULT_SIZES) if case.get("galerkin") else None)
    except _FAILURES as exc:
        code = _exit_code(exc)
        report["error"] = str(exc)
    _write_report(report, sub, "report.json")
    return code


def cmd_sweep(args):
    with open(args.config) as fh:
        config = json.load(fh)
    cases = config.get("cases", [])
    os.makedirs(args.out, exist_ok=True)
    return max((_sweep_case(i, case, args) for i, case in enumerate(cases)), default=EXIT_OK)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hankelsigma",
        description="sigma-function calculus for quasi-Carleman Hankel operators")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--tol", type=float, default=1e-6)
        p.add_argument("--seed", type=int, default=1234)

    p = sub.add_parser("sigma", help="sample the sigma distribution to CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--lam-min", type=float, default=1e-3)
    p.add_argument("--lam-max", type=float, default=1e3)
    p.add_argument("--points", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("predict", help="closed-form spectral counts")
    p.add_argument("--spec", required=True)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="numerical verification")
    p.add_argument("mode", choices=("identity", "galerkin", "factorization", "witness"))
    p.add_argument("--spec", required=True)
    p.add_argument("--sizes", default=",".join(map(str, DEFAULT_SIZES)))
    p.add_argument("--count", type=int, default=20)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certificate", help="variational negative-subspace certificate")
    p.add_argument("--spec", required=True, help="perturbation kernel V")
    p.add_argument("--h0", default=None, help="unperturbed kernel H0 (optional)")
    p.add_argument("--target", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_certificate)

    p = sub.add_parser("sweep", help="run a batch of prediction/verification cases")
    p.add_argument("--config", required=True)
    common(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    logging.basicConfig(level=os.environ.get("HS_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _FAILURES as exc:
        log.error("%s", exc)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
