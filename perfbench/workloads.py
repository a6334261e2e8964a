"""The four benchmark workloads: seeded inputs, the timed op, and its checks.

A workload builds one round of ops from the seed.  The timed phase runs
whole rounds, so every run does the same mix of work in the same
proportions whatever the seed and however long the run.  The seed moves
coefficients, couplings and decay rates inside fixed ranges; it never
changes which branch of the program an op takes, so the cost of a round
does not depend on the seed.

Every check compares an output with a value computed here, apart from
the program (Gamma-function closed forms, the paper's count formulas,
closed-form Hankel entries, an SVD), or with a property the method must
have.  No check compares with a stored copy of an earlier output.
"""

from __future__ import annotations

import functools
import json
import math
import os
from typing import NamedTuple

import numpy as np

# timed calls go through the module attributes, which a traced run rebinds
from hankelsigma import cli, form, galerkin, transform
from hankelsigma.form import ExpPoly, min_monomial_order
from hankelsigma.kernel import Kernel, carleman, finite_rank, quasi_carleman
from hankelsigma.transform import DEFAULT_GRID, MOLLIFIER_GRID, GridFunction

IDENTITY_TOL = 1e-6
SECTION_SIZES = "128,256,512,1024"


class Op(NamedTuple):
    """One timed call.  ``kind`` names the public function (or construction)
    it exercises; set-up runs one warm-up op of each kind."""

    kind: str
    label: str
    args: tuple
    expect_fail: bool = False


def _signed(rng, lo=0.5, hi=1.5):
    return float(rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi))


def spread(*groups):
    """One round with the ops of each group spread evenly over it, in
    order within the group.  Each kind of op then samples the speed of the
    machine over the whole run instead of in one burst."""
    keyed = [((j + 0.5) / len(g), k, op) for k, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda item: item[:2])]


# ---------------------------------------------------------------------------
# Closed-form counts of the paper, written out independently of
# hankelsigma.predict.
# ---------------------------------------------------------------------------

def pure_counts(q, v0=1.0):
    """(N_minus, N_plus) of v0 (t+r)^{-q} e^{-alpha t}; None means infinite.

    q > 0: the form is nonnegative.  q < 0 non-integer with f = [|q|]:
    f even gives N_plus = f/2 + 1 and N_minus infinite, f odd gives
    N_minus = (f+1)/2 and N_plus infinite; v0 < 0 swaps the two.
    """
    if q > 0:
        nm, npl = 0, None
    else:
        fl = int(math.floor(-q))
        nm, npl = (None, fl // 2 + 1) if fl % 2 == 0 else ((fl + 1) // 2, None)
    return (npl, nm) if v0 < 0 else (nm, npl)


def finite_rank_negcount(terms):
    """N_minus of sum P_m(t) e^{-beta_m t}: a real beta with degree K adds
    (K+1)/2 for odd K, and K/2 or K/2+1 for even K as P^{(K)} is > 0 or < 0;
    each conjugate pair adds K+1.  ``terms`` lists (coeffs, beta) with one
    representative per conjugate pair."""
    total = 0
    for coeffs, beta in terms:
        k = len(coeffs) - 1
        if complex(beta).imag != 0:
            total += k + 1
        elif k % 2 == 1:
            total += (k + 1) // 2
        else:
            total += k // 2 if complex(coeffs[-1]).real > 0 else k // 2 + 1
    return total


def _fr_kernel(terms):
    k = Kernel(())
    for coeffs, beta in terms:
        k = k + finite_rank(tuple(coeffs), beta)
    return k


# ---------------------------------------------------------------------------
# identity: direct form against sigma form
# ---------------------------------------------------------------------------

# (q, alpha, r) of the acceptance grid for the main identity
QC_GRID = ([(q, a, r) for q in (3.0, 2.0, 1.0, 0.5) for a in (0.0, 1.0) for r in (0.0, 1.0)]
           + [(q, 1.0, r) for q in (-0.5, -1.5, -2.5) for r in (0.0, 1.0)])
# decay-rate pairs, equal or at least 0.5 apart; the convolution closed
# form is exact there
RATE_PAIRS = ((1.0, 1.0), (0.5, 1.5), (2.0, 1.0), (1.5, 2.5), (2.5, 2.5), (1.0, 2.0))
# runs into the depth cap of adaptive quadrature on ~8000 panels
CAPPED = (((3.0, 0.0, 0.0), (4, 2.0), (4, 2.5)),
          ((3.0, 0.0, 0.0), (4, 1.0), (3, 0.5)))
# the close-rate slice: its kernels and the gap between its two rates on
# each; fixed, not seeded, so that the slice fails in every run whatever
# the seed
CLOSE_KERNELS = ((1.0, 0.0, 0.0), (3.0, 0.0, 0.0), (2.0, 1.0, 0.0),
                 (-1.5, 1.0, 0.0), (0.5, 0.0, 1.0))
CLOSE_GAPS = (1e-2, 10 ** -3.5, 1e-5, 10 ** -6.5, 1e-8)
FR_REAL = (((1.0, -0.6, 0.3), 0.9),)
FR_PAIR = (((0.8 + 0.4j, 0.2 - 0.1j), 0.7 + 0.5j),)


def _kernel_mmin(kernel):
    return max([min_monomial_order(t.q) for t in kernel.qc_terms if t.r == 0] + [0])


def monomial_form(qc, fr, c, m, g):
    """<h, conj(f) * f> for f = c t^m e^{-g t}, g > 0, in closed form.

    conj(f) * f = |c|^2 m!^2/(2m+1)! t^{2m+1} e^{-g t}; a term
    v0 t^{-q} e^{-alpha t} pairs to v0 Gamma(2m+2-q) (g+alpha)^{q-2m-2},
    and p_j t^j e^{-beta t} to p_j (j+2m+1)! (beta+g)^{-(j+2m+2)}.
    ``qc`` lists (v0, q, alpha) with r = 0; ``fr`` lists (coeffs, beta),
    conjugate partners included.
    """
    scale = abs(c) ** 2 * math.factorial(m) ** 2 / math.factorial(2 * m + 1)
    total = 0.0 + 0.0j
    for v0, q, alpha in qc:
        s = 2 * m + 2 - q
        total += v0 * math.gamma(s) / (g + alpha) ** s
    for coeffs, beta in fr:
        for j, p in enumerate(coeffs):
            total += p * math.factorial(j + 2 * m + 1) / (beta + g) ** (j + 2 * m + 2)
    return scale * total


class Identity:
    """One op is ``identity_residual`` on one seeded ExpPoly test."""

    name = "identity"

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        grid, mixed, monos, capped, close = [], [], [], [], []
        for i, (q, a, r) in enumerate(QC_GRID):
            kern = quasi_carleman(1.0, q, a, r)
            mmin = min_monomial_order(q) if r == 0 else 0
            for j in range(2):
                g1, g2 = RATE_PAIRS[(2 * i + j) % len(RATE_PAIRS)]
                f = ExpPoly(((_signed(rng), mmin + (i + j) % 3, g1),
                             (_signed(rng), mmin + (i + 2 * j + 1) % 3, g2)))
                grid.append(Op("identity_residual", "grid q=%g a=%g r=%g #%d" % (q, a, r, j),
                               (kern, f, None)))
        kernels = {"fr-real": _fr_kernel(FR_REAL), "fr-pair": _fr_kernel(FR_PAIR),
                   "carleman+fr": carleman() + _fr_kernel(FR_REAL),
                   "qc-sum": quasi_carleman(1.0, 0.5) + quasi_carleman(1.0, -1.5, 1.0, 1.0)}
        for k, (name, kern) in enumerate(kernels.items()):
            mmin = _kernel_mmin(kern)
            for j in range(2):
                g1, g2 = RATE_PAIRS[(2 * k + j) % len(RATE_PAIRS)]
                f = ExpPoly(((_signed(rng), mmin + j, g1), (_signed(rng), mmin + 2, g2)))
                mixed.append(Op("identity_residual", "%s #%d" % (name, j), (kern, f, None)))
        # single monomials: the form has a Gamma closed form
        mono_kernels = [("q=%g a=%g" % (q, a), quasi_carleman(1.0, q, a), [(1.0, q, a)], [])
                        for q, a in ((3.0, 0.0), (2.0, 1.0), (1.0, 0.0), (0.5, 1.0),
                                     (-0.5, 1.0), (-1.5, 1.0))]
        pair_terms = FR_PAIR + tuple((tuple(np.conj(c)), np.conj(b)) for c, b in FR_PAIR)
        mono_kernels += [("fr-real", _fr_kernel(FR_REAL), [], list(FR_REAL)),
                         ("fr-pair", _fr_kernel(FR_PAIR), [], list(pair_terms)),
                         ("carleman+fr", carleman() + _fr_kernel(FR_REAL), [(1.0, 1.0, 0.0)],
                          list(FR_REAL))]
        for j, (name, kern, qc, fr) in enumerate(mono_kernels):
            m = _kernel_mmin(kern) + j % 2
            g = float(rng.uniform(0.5, 2.0))
            c = _signed(rng)
            monos.append(Op("identity_residual", "monomial %s" % name,
                            (kern, ExpPoly(((c, m, g),)), (qc, fr, c, m, g))))
        for (q, a, r), (m1, g1), (m2, g2) in CAPPED:
            f = ExpPoly(((_signed(rng), m1, g1), (_signed(rng), m2, g2)))
            capped.append(Op("identity_residual", "capped q=%g m=%d,%d" % (q, m1, m2),
                             (quasi_carleman(1.0, q, a, r), f, None)))
        for (q, a, r), d in zip(CLOSE_KERNELS, CLOSE_GAPS):
            f = ExpPoly(((1.0, 3, 1.0), (-0.7, 3, 1.0 + d)))
            close.append(Op("identity_residual", "close-rate q=%g a=%g r=%g" % (q, a, r),
                            (quasi_carleman(1.0, q, a, r), f, None), expect_fail=True))
        return spread(grid, mixed, monos, capped, close)

    def run(self, op):
        kern, f, _ = op.args
        return form.identity_residual(kern, f)

    def check(self, op, out):
        if not (math.isfinite(out) and out <= IDENTITY_TOL):
            return "residual %.3g above %g" % (out, IDENTITY_TOL)
        return None

    def final_checks(self, ops):
        """Diagonal forms are real (from the sesquilinear forms on two equal
        tests), and single monomials match their Gamma closed form."""
        errors = []
        for op in ops:
            if op.expect_fail or op.label.startswith("capped"):
                continue  # a recheck would repeat ~1 s of capped quadrature
            kern, f, closed = op.args
            twin = ExpPoly(f.terms)
            for side, val in (("direct", form.form_direct(kern, f, twin)),
                              ("sigma", form.form_sigma(kern, f, twin))):
                if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
                    errors.append("%s: %s form not real: %r" % (op.label, side, val))
            if closed is not None:
                want = monomial_form(*closed)
                for side, val in (("direct", form.form_direct(kern, f)),
                                  ("sigma", form.form_sigma(kern, f))):
                    if abs(val - want) > 1e-8 * abs(want):
                        errors.append("%s: %s form %.15g, closed form %.15g"
                                      % (op.label, side, val, want.real))
        return errors


# ---------------------------------------------------------------------------
# sections: `verify galerkin` through the CLI, in process
# ---------------------------------------------------------------------------

def _qc(v0, q, alpha=0.0, r=0.0):
    return {"type": "quasi_carleman", "v0": v0, "q": q, "alpha": alpha, "r": r}


def _fr_spec(terms):
    out = []
    for coeffs, beta in terms:
        beta = complex(beta)
        out.append({"coeffs": [[complex(c).real, complex(c).imag] for c in coeffs],
                    "beta": [beta.real, beta.imag]})
        if beta.imag != 0:
            out.append({"coeffs": [[complex(c).real, -complex(c).imag] for c in coeffs],
                        "beta": [beta.real, -beta.imag]})
    return {"type": "finite_rank", "terms": out}


class Sections:
    """One op is ``verify galerkin --sizes 128,256,512,1024`` on one spec."""

    name = "sections"

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        carl = _qc(1.0, 1.0)
        sub = -float(rng.uniform(0.6, 0.95))
        frac = float(rng.uniform(0.7, 1.3))
        real = [((0.5 * rng.uniform(0.9, 1.1), -rng.uniform(0.9, 1.1), 0.4 * rng.uniform(0.9, 1.1)),
                 rng.uniform(0.95, 1.05))]
        pair = [((complex(1.0, 0.5) * rng.uniform(0.9, 1.1), complex(-0.3, 0.2) * rng.uniform(0.9, 1.1)),
                 complex(1.0, 0.7 * rng.uniform(0.95, 1.05)))]
        mixed = [((0.6 * rng.uniform(0.9, 1.1), -rng.uniform(0.9, 1.1)), 0.8 * rng.uniform(0.95, 1.05)),
                 ((complex(-0.8, 0.3) * rng.uniform(0.9, 1.1),), complex(1.4, 0.6 * rng.uniform(0.95, 1.05)))]
        # (label, spec, closed-form count, formula)
        specs = [
            ("carleman", carl, ("n_minus", 0), "q = 1 > 0: the form is nonnegative"),
            ("subcritical", {"type": "sum", "parts": [carl, _qc(sub, 1.0, 1.0, 1.0)]},
             ("n_minus", 0), "k = -1, |v0| < nu = 1 for sigma0 = 1: N- = 0"),
            ("fractional", {"type": "sum", "parts": [carl, _qc(frac, -1.5, 1.0, 0.0)]},
             ("n_minus", pure_counts(-1.5, frac)[0]), "k = 3/2, [k] odd: N- = ([k]+1)/2 = 1"),
            ("carleman+real", {"type": "sum", "parts": [carl, _fr_spec(real)]},
             ("n_minus", finite_rank_negcount(real)), "real beta, K = 2, P'' > 0: N- = K/2 = 1"),
            ("carleman+pair", {"type": "sum", "parts": [carl, _fr_spec(pair)]},
             ("n_minus", finite_rank_negcount(pair)), "conjugate pair, K = 1: N- = K+1 = 2"),
            ("carleman+real+pair", {"type": "sum", "parts": [carl, _fr_spec(mixed)]},
             ("n_minus", finite_rank_negcount(mixed)), "K = 1 real: 1, K = 0 pair: 1; N- = 2"),
            ("qc(1,-2.5,1,1)", _qc(1.0, -2.5, 1.0, 1.0),
             ("n_plus", pure_counts(-2.5)[1]), "[|q|] = 2 even: N+ = [|q|]/2+1 = 2, N- infinite"),
        ]
        os.makedirs(os.path.join(workdir, "specs"), exist_ok=True)
        ops = []
        for i, (label, spec, expect, formula) in enumerate(specs):
            path = os.path.join(workdir, "specs", "%d.json" % i)
            with open(path, "w") as fh:
                json.dump(dict(spec, schema="1"), fh)
            ops.append(Op("verify galerkin", label, (path, expect, formula)))
        self.workdir = workdir
        self.seed = seed
        self.attempt = 0
        self.carleman_max_eig = []
        return ops

    def run(self, op):
        self.attempt += 1
        out = os.path.join(self.workdir, "runs", str(self.attempt))
        code = cli.main(["verify", "galerkin", "--spec", op.args[0], "--sizes", SECTION_SIZES,
                         "--out", out, "--seed", str(self.seed)])
        return code, out

    def check(self, op, out):
        code, outdir = out
        if code != 0:
            return "exit code %d" % code
        with open(os.path.join(outdir, "verify_galerkin.json")) as fh:
            report = json.load(fh)
        side, want = op.args[1]
        history = report["counts"]["history"]
        col = 1 if side == "n_minus" else 2
        got = [h[col] for h in history]
        if any(n != want for n in got):
            return "%s %s, closed form %d (%s)" % (side, got, want, op.args[2])
        if side == "n_plus" and min(h[1] for h in history) < 1:
            return "N- is infinite but a section shows no negative eigenvalue"
        if op.label == "carleman":
            self.carleman_max_eig.append(report["max_eig"])
        return None

    def final_checks(self, ops):
        """Carleman against its closed-form section, once the peak memory of
        the timed rounds has been read."""
        h, top = carleman_oracle()
        errors = ["Carleman max_eig %.12g, closed-form matrix %.12g, pi %.12g" % (got, top, math.pi)
                  for got in self.carleman_max_eig
                  if not (got < math.pi and abs(got - top) < 1e-9)]
        entries = galerkin.assemble(carleman(), len(h)).matrix
        err = float(np.max(np.abs(entries - h)))
        if err > 1e-10:
            errors.append("Carleman entries off closed form by %.2e" % err)
        return errors


@functools.cache
def carleman_oracle():
    """(H, top eigenvalue) of the N=1024 Carleman section from its closed
    form H[j,k] = (1 + (-1)^{j+k}) / (j+k+1)."""
    j = np.arange(int(SECTION_SIZES.split(",")[-1]))
    s = j[:, None] + j[None, :]
    h = (1 + (-1.0) ** s) / (s + 1)
    return h, float(np.linalg.eigvalsh(h)[-1])


# ---------------------------------------------------------------------------
# certificates: variational lower bounds on N_minus
# ---------------------------------------------------------------------------

# finite-rank shapes of the interpolation draws: ("real"|"pair", degree)
INTERP_SHAPES = ((("real", 0),), (("real", 1),), (("real", 2),), (("pair", 0),),
                 (("pair", 1),), (("real", 1), ("pair", 0)), (("real", 0), ("real", 1)))


def _draw_finite_rank(rng, shape):
    """Seeded coefficients on a fixed shape.  Real coefficients alternate in
    sign with magnitudes in [0.8, 1.2]; real exponents sit near 0.6 and 1.6
    and pairs near 1 +- 0.8i, so the exponents stay apart."""
    terms = []
    for i, (kind, deg) in enumerate(shape):
        mag = rng.uniform(0.8, 1.2, deg + 1)
        if kind == "real":
            coeffs = tuple(float(m * (-1.0) ** (j + 1)) for j, m in enumerate(mag))
            terms.append((coeffs, (0.6, 1.6)[i % 2] * float(rng.uniform(0.95, 1.05))))
        else:
            coeffs = tuple(complex(m * np.exp(1j * rng.uniform(-0.5, 0.5))) for m in mag)
            terms.append((coeffs, complex(rng.uniform(0.95, 1.05), 0.8 * rng.uniform(0.95, 1.05))))
    return terms


class Certificates:
    """One op is ``certificate(h0, v, target)`` from a seeded list."""

    name = "certificates"

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        empty = Kernel(())
        gauss, window, interp = [], [], []
        # gaussian family: infinite N_minus, so any target is admissible
        for v0, q, alpha, r, target, why in (
                (-1.1, 1.0, 1.0, 1.0, 3, "supercritical coupling, |v0| > nu = 1"),
                (-1.0, -1.5, 1.0, 0.0, 4, "k = 3/2, v0 < 0: N- infinite"),
                (-1.1, 1.0, 1.0, 1.0, 2, "supercritical coupling, |v0| > nu = 1"),
                (-1.0, -1.5, 1.0, 0.0, 2, "k = 3/2, v0 < 0: N- infinite")):
            gauss.append(Op("gaussian", "gaussian q=%g v0=%g target %d" % (q, v0, target),
                            (carleman(), quasi_carleman(v0, q, alpha, r), target, None)))
        # polynomial window: fractional q with a finite count
        for h0, v0, q, target in ((carleman(), 1.0, -1.5, 1), (carleman(), 1.0, -3.5, 2),
                                  (empty, -1.0, -2.5, 2), (empty, 1.0, -3.5, 2)):
            bound = pure_counts(q, v0)[0]
            window.append(Op("window", "window q=%g v0=%g%s" % (q, v0, "" if h0.terms else " alone"),
                             (h0, quasi_carleman(v0, q, 1.0, 0.0), target, bound)))
        # interpolation: seeded finite-rank draws, with and without Carleman
        for background, copies in ((empty, 4), (carleman(), 2)):
            for shape in INTERP_SHAPES:
                for _ in range(copies):
                    terms = _draw_finite_rank(rng, shape)
                    count = finite_rank_negcount(terms)
                    interp.append(Op("interpolation", "interpolation %s%s" % (
                        "+".join("%s%d" % s for s in shape), " +carleman" if background.terms else ""),
                        (background, _fr_kernel(terms), count, count)))
        return spread(gauss, window, interp)

    def run(self, op):
        h0, v, target, _ = op.args
        return galerkin.certificate(h0, v, target)

    def check(self, op, cert):
        target, bound = op.args[2], op.args[3]
        if bound is not None and target > bound:
            return "target %d above the closed-form count %d" % (target, bound)
        if cert.achieved < target:
            return "achieved %d < target %d" % (cert.achieved, target)
        g = np.asarray(cert.gram)
        if np.max(np.abs(g - g.conj().T)) > 1e-9 * np.max(np.abs(g)):
            return "Gram matrix not Hermitian"
        ev = np.linalg.eigvalsh(0.5 * (g + g.conj().T))
        if not ev[cert.achieved - 1] < 0:
            return "counted Gram eigenvalues are not all negative: %r" % ev[:cert.achieved]
        return None

    def final_checks(self, ops):
        return []


# ---------------------------------------------------------------------------
# mellin: Laplace via Mellin, reconstruction, mollifier norms
# ---------------------------------------------------------------------------

def _exp_terms(rng, m1, m2):
    return ((_signed(rng), m1, float(rng.uniform(0.5, 2.0))),
            (_signed(rng), m2, float(rng.uniform(0.5, 2.0))))


def _weighted_rel(err, ref, grid):
    wgt = np.exp(grid.xs / 2)
    return float(np.linalg.norm(err * wgt) / np.linalg.norm(ref * wgt))


class Mellin:
    """Ops are ``laplace_via_mellin``, a ``reconstruct`` round trip and
    ``mollifier_norm(n)`` for n = 1..32."""

    name = "mellin"
    count = 24

    def build(self, seed, workdir):
        rng = np.random.default_rng(seed)
        t = DEFAULT_GRID.lambdas_pos
        laplace, roundtrip = [], []
        for i in range(self.count):
            terms = _exp_terms(rng, i % 6, (i + 3) % 6)
            fvals = sum(a * t ** m * np.exp(-c * t) for a, m, c in terms)
            laplace.append(Op("laplace_via_mellin", "laplace m=%d,%d" % (i % 6, (i + 3) % 6),
                              (GridFunction(DEFAULT_GRID, fvals), terms)))
        for i in range(self.count):
            terms = _exp_terms(rng, i % 4, (i + 2) % 4)
            roundtrip.append(Op("reconstruct", "roundtrip m=%d,%d" % (i % 4, (i + 2) % 4),
                                (ExpPoly(terms), terms)))
        norms = [Op("mollifier_norm", "mollifier_norm n=%d" % n, (n,)) for n in range(1, 33)]
        self.svd_n = int(rng.integers(1, 33))
        return spread(laplace, roundtrip, norms)

    def run(self, op):
        if op.kind == "laplace_via_mellin":
            return transform.laplace_via_mellin(op.args[0])
        if op.kind == "reconstruct":
            return transform.reconstruct(transform.u_of_laplace_image(op.args[0], DEFAULT_GRID))
        return transform.mollifier_norm(op.args[0])

    def check(self, op, out):
        t = DEFAULT_GRID.lambdas_pos
        if op.kind == "laplace_via_mellin":
            want = sum(a * math.factorial(m) / (t + c) ** (m + 1) for a, m, c in op.args[1])
            rel = _weighted_rel(out.values - want, op.args[0].values, DEFAULT_GRID)
            return None if rel <= 1e-6 else "Laplace image off c m!/(lam+g)^(m+1) by %.2e" % rel
        if op.kind == "reconstruct":
            want = sum(a * t ** m * np.exp(-c * t) for a, m, c in op.args[1])
            rel = _weighted_rel(out.values - want, want, DEFAULT_GRID)
            return None if rel <= 1e-4 else "round trip off f by %.2e" % rel
        cap = math.exp(math.pi ** 2 / 2)
        return None if 0 < out <= cap * (1 + 1e-9) else "norm %.6g above e^(pi^2/2)" % out

    def final_checks(self, ops):
        errors = []
        n = self.svd_n
        top = float(np.linalg.svd(transform.mollifier_matrix(n), compute_uv=False)[0])
        est = transform.mollifier_norm(n)
        if not top * (1 - 1e-2) <= est <= top * (1 + 1e-9):
            errors.append("mollifier_norm(%d) = %.8g, SVD top singular value %.8g" % (n, est, top))
        xs = MOLLIFIER_GRID.xs
        for center, width in ((1.0, 2.0), (0.0, 1.0), (-2.0, 3.0)):
            g = GridFunction(MOLLIFIER_GRID, np.exp(-(xs - center) ** 2 / width ** 2))
            rel = np.linalg.norm(transform.mollifier_tn(32, g).values - g.values) / np.linalg.norm(g.values)
            if rel > 0.01:
                errors.append("T_32 moves a gaussian by %.3g > 1%%" % rel)
        return errors


WORKLOADS = {w.name: w for w in (Identity, Sections, Certificates, Mellin)}
