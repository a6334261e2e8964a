"""Command-line front end: spec parsing, reports, exit codes."""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from hankelsigma import cli, galerkin
from hankelsigma._quad import DivergentIntegralError
from hankelsigma.cli import (EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION,
                             SpecError, main, parse_kernel)


CARLEMAN = {"schema": "1", "type": "quasi_carleman", "v0": 1.0, "q": 1.0,
            "alpha": 0.0, "r": 0.0}
FDH_SUM = {"schema": "1", "type": "sum", "parts": [
    {"type": "quasi_carleman", "v0": 1.0, "q": 1.0, "alpha": 0.0, "r": 0.0},
    {"type": "quasi_carleman", "v0": 1.0, "q": -1.5, "alpha": 1.0, "r": 0.0}]}
RANK_ONE = {"schema": "1", "type": "finite_rank",
            "terms": [{"coeffs": [[-1.0, 0.0]], "beta": [1.0, 0.0]}]}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_kernel_variants():
    k = parse_kernel(CARLEMAN)
    assert len(k.qc_terms) == 1
    k = parse_kernel(FDH_SUM)
    assert len(k.qc_terms) == 2
    k = parse_kernel({"schema": "1", "type": "finite_rank",
                      "terms": [{"coeffs": [[0, 0], [1, 0]], "beta": [1, 2]},
                                {"coeffs": [[0, 0], [1, -0.0]], "beta": [1, -2]}]})
    assert len(k.fr_terms) == 2


def test_parse_kernel_rejects_bad_specs():
    for doc in (
        {"type": "nope"},
        {"schema": "9", "type": "quasi_carleman", "v0": 1, "q": 1},
        {"type": "quasi_carleman", "v0": 1.0},  # missing q
        {"type": "finite_rank", "terms": [{"coeffs": [[1, 0]], "beta": [-1, 0]}]},
        {"type": "finite_rank", "terms": []},
        {"type": "sum", "parts": []},
        {"type": "finite_rank", "terms": [{"coeffs": [1.0]}]},  # missing beta
        {"type": "quasi_carleman", "v0": [1, 2], "q": 1.0},
        {"type": "finite_rank", "terms": "x"},
        # every spec number is a finite int or float, not a bool or a string
        {"type": "quasi_carleman", "v0": math.nan, "q": 1.0},
        json.loads('{"type": "quasi_carleman", "v0": 1e400, "q": 1.0}'),
        {"type": "quasi_carleman", "v0": 1.0, "q": 1.0, "alpha": -math.inf},
        {"type": "quasi_carleman", "v0": True, "q": "1.5", "alpha": "inf"},
        {"type": "quasi_carleman", "v0": 1.0, "q": "1.5"},
        {"type": "quasi_carleman", "v0": 1.0, "q": 1.0, "r": "inf"},
        {"type": "quasi_carleman", "v0": 10 ** 400, "q": 1.0},
        {"type": "finite_rank", "terms": [{"coeffs": [[math.nan, 0.0]], "beta": [1.0, 0.0]}]},
        {"type": "finite_rank", "terms": [{"coeffs": [1.0], "beta": [1.0, math.inf]}]},
        {"type": "finite_rank", "terms": [{"coeffs": [True], "beta": 1.0}]},
        {"type": "finite_rank", "terms": [{"coeffs": ["1"], "beta": 1.0}]},
    ):
        with pytest.raises(SpecError):
            parse_kernel(doc)
    from hankelsigma.kernel import NonSelfAdjointError
    with pytest.raises(NonSelfAdjointError):
        parse_kernel({"type": "finite_rank",
                      "terms": [{"coeffs": [[1, 0]], "beta": [1, 2]}]})


def test_sigma_command_constant_density(tmp_path):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    out = str(tmp_path / "out")
    assert main(["sigma", "--spec", spec, "--out", out]) == EXIT_OK
    with open(tmp_path / "out" / "sigma.csv") as fh:
        rows = list(csv.DictReader(fh))
    dens = [float(r["value"]) for r in rows if r["kind"] == "density"]
    assert len(dens) == 200 and np.allclose(dens, 1.0, atol=1e-12)


def test_sigma_command_shifted_linear_density(tmp_path):
    spec = _write(tmp_path, "k.json", {"schema": "1", "type": "quasi_carleman",
                                       "v0": 1.0, "q": 2.0, "alpha": 1.0, "r": 0.0})
    out = str(tmp_path / "out")
    assert main(["sigma", "--spec", spec, "--out", out]) == EXIT_OK
    with open(tmp_path / "out" / "sigma.csv") as fh:
        rows = list(csv.DictReader(fh))
    for r in rows:
        if r["kind"] != "density":
            continue
        lam, val = float(r["lambda"]), float(r["value"])
        assert abs(val - max(lam - 1.0, 0.0)) < 1e-9 * max(1.0, lam)


def test_sigma_command_finite_rank_symbolic_rows(tmp_path):
    spec = _write(tmp_path, "k.json", RANK_ONE)
    out = str(tmp_path / "out")
    assert main(["sigma", "--spec", spec, "--out", out]) == EXIT_OK
    with open(tmp_path / "out" / "sigma.csv") as fh:
        rows = list(csv.DictReader(fh))
    kinds = {r["kind"] for r in rows}
    assert "delta_combo" in kinds
    assert all(float(r["value"]) == 0.0 for r in rows if r["kind"] == "density")


def test_sigma_command_undefinable_exits_2(tmp_path):
    spec = _write(tmp_path, "k.json", {"schema": "1", "type": "quasi_carleman",
                                       "v0": 1.0, "q": -0.5, "alpha": 0.0, "r": 0.0})
    assert main(["sigma", "--spec", spec, "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_predict_command(tmp_path):
    spec = _write(tmp_path, "k.json", FDH_SUM)
    out = str(tmp_path / "out")
    assert main(["predict", "--spec", spec, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert report["prediction"]["n_minus"] == 1
    assert report["prediction"]["n_plus"] == "infinite"


def test_predict_command_finite_rank_perturbation(tmp_path):
    # Carleman plus -t^2 e^{-t}: N- = 2 from the sign-matrix (K = 2, P'' < 0);
    # N+ stays infinite from the Carleman part, not rank 3 - 2
    doc = {"schema": "1", "type": "sum", "parts": [
        CARLEMAN, {"type": "finite_rank", "terms": [
            {"coeffs": [[0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]], "beta": [1.0, 0.0]}]}]}
    spec = _write(tmp_path, "k.json", doc)
    assert main(["predict", "--spec", spec, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert report["prediction"]["n_minus"] == 2
    assert report["prediction"]["n_plus"] == "infinite"


def test_predict_command_critical_coupling_from_the_tail(tmp_path):
    # background (t+1.01)^{-2}, sigma0 = lam e^{-1.01 lam}, perturbed by
    # -0.5 (t+1)^{-1.5} e^{-t}: rho = 1 < r = 1.01, so phi -> 0 and nu = 0
    doc = {"schema": "1", "type": "sum", "parts": [
        {"type": "quasi_carleman", "v0": 1.0, "q": 2.0, "alpha": 0.0, "r": 1.01},
        {"type": "quasi_carleman", "v0": -0.5, "q": 1.5, "alpha": 1.0, "r": 1.0}]}
    spec = _write(tmp_path, "k.json", doc)
    assert main(["predict", "--spec", spec, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert report["prediction"]["source"] == "HKC"
    assert report["prediction"]["critical_coupling"] == 0.0
    assert report["prediction"]["n_minus"] == "infinite"


# Carleman + t^{3/2} e^{-t} + finite rank: no theorem covers two quasi-Carleman
# terms plus finite rank, and the sections see 3 negative eigenvalues
TWO_QC_PLUS_RANK = {"schema": "1", "type": "sum", "parts": FDH_SUM["parts"] + [
    {"type": "finite_rank", "terms": [{"coeffs": [[-5.0, 0.0]], "beta": [b, 0.0]}
                                      for b in (1.0, 2.0, 3.0)]}]}
# Carleman + t^{-2}: the background t^{-2} perturbed by a term with beta = 0
BETA_ZERO = {"schema": "1", "type": "sum", "parts": [
    CARLEMAN, {"type": "quasi_carleman", "v0": 1.0, "q": 2.0}]}
DIVERGENT = {"schema": "1", "type": "quasi_carleman", "v0": 1.0, "q": 3.0}


def test_verify_galerkin_without_a_theorem_writes_null(tmp_path):
    spec = _write(tmp_path, "k.json", TWO_QC_PLUS_RANK)
    out = tmp_path / "out"
    assert main(["verify", "galerkin", "--spec", spec, "--out", str(out),
                 "--sizes", "32,64,128"]) == EXIT_OK
    report = json.loads((out / "verify_galerkin.json").read_text())
    assert report["prediction"] is None
    assert report["counts"]["value"] == 3


THREE_QC = {"schema": "1", "type": "sum", "parts": [
    CARLEMAN, {"type": "quasi_carleman", "v0": 0.5, "q": 0.5},
    {"type": "quasi_carleman", "v0": 0.2, "q": 1.5, "alpha": 1.0, "r": 1.0}]}
# a background with v0 < 0 violates the regularity assumption of FDH
BAD_BACKGROUND = {"schema": "1", "type": "sum", "parts": [dict(CARLEMAN, v0=-1.0),
                                                         FDH_SUM["parts"][1]]}


def test_sweep_case_without_a_theorem_writes_null_and_counts(tmp_path):
    # the rule of verify galerkin; the case used to be an error with no counts
    cfg = _write(tmp_path, "sweep.json", {"cases": [
        {"name": "a", "kernel": THREE_QC, "galerkin": True, "sizes": [8, 16, 32]}]})
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="unbounded positive form"):
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "a" / "report.json").read_text())
    assert report["prediction"] is None and "error" not in report
    assert [h[0] for h in report["counts"]["history"]] == [8, 16, 32]


def test_verify_galerkin_failed_precondition_exits_2(tmp_path, monkeypatch):
    # a failed precondition is not a shape without a theorem: no null
    # prediction, and no section is assembled
    monkeypatch.setattr(cli, "stabilized_negcount", None)
    spec = _write(tmp_path, "k.json", BAD_BACKGROUND)
    out = tmp_path / "out"
    assert main(["verify", "galerkin", "--spec", spec, "--out", str(out),
                 "--sizes", "8,16,32"]) == EXIT_VALIDATION
    assert not (out / "verify_galerkin.json").exists()


def test_default_section_sizes_are_one_constant(tmp_path, monkeypatch):
    seen = []

    def negcount(kern, sizes):
        seen.append(sizes)
        return galerkin.stabilized_negcount(kern, sizes)

    monkeypatch.setattr(cli, "stabilized_negcount", negcount)
    spec = _write(tmp_path, "k.json", CARLEMAN)
    cfg = _write(tmp_path, "sweep.json", {"cases": [{"name": "a", "kernel": CARLEMAN,
                                                     "galerkin": True}]})
    assert main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_OK
    assert seen == [galerkin.DEFAULT_SIZES] * 2
    assert galerkin.stabilized_negcount.__defaults__ == (galerkin.DEFAULT_SIZES,)


def test_sum_spec_may_split_a_conjugate_pair(tmp_path):
    half = [{"type": "finite_rank", "terms": [{"coeffs": [[1.0, s * 0.5]], "beta": [1.0, s]}]}
            for s in (1.0, -1.0)]
    spec = _write(tmp_path, "k.json", {"schema": "1", "type": "sum", "parts": half})
    assert main(["predict", "--spec", spec, "--out", str(tmp_path / "out")]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "predict.json").read_text())
    assert report["prediction"]["n_minus"] == 1 and report["prediction"]["n_plus"] == 1


def test_verify_identity_command(tmp_path):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    out = str(tmp_path / "out")
    assert main(["verify", "identity", "--spec", spec, "--out", out,
                 "--count", "5"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_identity.json").read_text())
    assert report["max_residual"] <= 1e-6
    assert len(report["residuals"]) == 5


def test_verify_identity_tolerance_exit(tmp_path):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    out = str(tmp_path / "out")
    code = main(["verify", "identity", "--spec", spec, "--out", out,
                 "--count", "3", "--tol", "1e-30"])
    assert code == EXIT_TOLERANCE


def test_verify_identity_nan_residual_exits_3(tmp_path, monkeypatch):
    # nan > tol is false, so the check reads "not residual <= tol"
    monkeypatch.setattr(cli, "identity_residual", lambda kern, f: math.nan)
    spec = _write(tmp_path, "k.json", CARLEMAN)
    assert main(["verify", "identity", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--count", "3"]) == EXIT_TOLERANCE
    # the report stays strict JSON: the nan is written as null, not as a bare NaN
    text = (tmp_path / "o" / "verify_identity.json").read_text()
    assert json.loads(text, parse_constant=pytest.fail)["max_residual"] is None


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_tol_flag_must_be_finite(tmp_path, tol):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    assert main(["verify", "identity", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--count", "3", "--tol", tol]) == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_sigma_lam_min_must_be_positive_and_finite(tmp_path, value):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    assert main(["sigma", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--lam-min", value]) == EXIT_VALIDATION


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_sigma_lam_max_must_be_positive_and_finite(tmp_path, value):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    assert main(["sigma", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--lam-max", value]) == EXIT_VALIDATION


def test_verify_identity_cancelling_finite_rank_form_exits_3(tmp_path, caplog):
    # P(t) = L_24(2 beta t), beta = 1/2: the finite-rank sum cancels to 0 from
    # terms ~1e8, and form_direct raises ArithmeticError
    coeffs = [[(-1) ** k * math.comb(24, k) / math.factorial(k), 0.0] for k in range(25)]
    spec = _write(tmp_path, "k.json", {"schema": "1", "type": "finite_rank",
                                       "terms": [{"coeffs": coeffs, "beta": [0.5, 0.0]}]})
    code = main(["verify", "identity", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_TOLERANCE
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "cancel" in caplog.records[0].getMessage()


def test_verify_galerkin_command(tmp_path):
    spec = _write(tmp_path, "k.json", FDH_SUM)
    out = str(tmp_path / "out")
    assert main(["verify", "galerkin", "--spec", spec, "--out", out,
                 "--sizes", "16,32,64"]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_galerkin.json").read_text())
    assert report["counts"]["kind"] == "finite" and report["counts"]["value"] == 1
    # sections of 256 or fewer are dense: no sketch to saturate
    assert set(report["diagnostics"]) == {"margins", "dense_fallback"}
    assert report["diagnostics"]["dense_fallback"] is False
    with open(tmp_path / "out" / "galerkin.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["N"]) for r in rows] == [16, 32, 64]
    assert all(int(r["n_minus"]) == 1 for r in rows)


# q = 1.7 with r = 0: finite sections, once out of reach of the quadrature path
Q17 = {"schema": "1", "type": "quasi_carleman", "v0": 1.0, "q": 1.7, "alpha": 1.0, "r": 0.0}


def test_verify_galerkin_q_below_2(tmp_path):
    spec = _write(tmp_path, "k.json", Q17)
    with pytest.warns(UserWarning, match="unbounded positive form"):
        code = main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o"),
                     "--sizes", "16,32,64"])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "o" / "verify_galerkin.json").read_text())
    assert [h[1] for h in report["counts"]["history"]] == [0, 0, 0]
    assert report["prediction"]["n_minus"] == 0


def test_verify_galerkin_r0_q_2_5_exits_2(tmp_path):
    spec = _write(tmp_path, "k.json", dict(Q17, q=2.5))
    with pytest.warns(UserWarning, match="unbounded positive form"):
        code = main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize("sizes", ["16,32", "16,32,6x", "16,32.5,64", "0,16,32", "64,64,64"])
def test_verify_galerkin_bad_sizes_exit_2(tmp_path, sizes):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    assert main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o"),
                 "--sizes", sizes]) == EXIT_VALIDATION


# N- infinite: three copies of one section would "agree" on a finite count
QC_HALF = {"schema": "1", "type": "quasi_carleman", "v0": 1.0, "q": -0.5, "alpha": 1.0, "r": 0.0}


def test_verify_galerkin_assembles_once(tmp_path, monkeypatch):
    real = galerkin.assemble
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in (galerkin, cli):  # wherever the command can reach assemble
        if getattr(mod, "assemble", None) is real:
            monkeypatch.setattr(mod, "assemble", counting)
    spec = _write(tmp_path, "k.json", FDH_SUM)
    out = str(tmp_path / "out")
    assert main(["verify", "galerkin", "--spec", spec, "--out", out,
                 "--sizes", "16,32,64"]) == EXIT_OK
    assert len(calls) == 1
    top = real(parse_kernel(FDH_SUM), 64)
    tops = {n: np.linalg.eigvalsh(top.matrix[:n, :n])[-1] for n in (16, 32, 64)}
    with open(tmp_path / "out" / "galerkin.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["max_eig"] for r in rows] == ["%.12g" % tops[n] for n in (16, 32, 64)]
    report = json.loads((tmp_path / "out" / "verify_galerkin.json").read_text())
    assert report["max_eig"] == float(tops[64])


def test_verify_factorization_command(tmp_path):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    out = str(tmp_path / "out")
    assert main(["verify", "factorization", "--spec", spec, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_factorization.json").read_text())
    assert report["residual"] <= 1e-6


def test_verify_witness_command(tmp_path):
    spec = _write(tmp_path, "k.json", {"schema": "1", "type": "quasi_carleman",
                                       "v0": 1.0, "q": 2.0, "alpha": 0.0, "r": 0.0})
    out = str(tmp_path / "out")
    assert main(["verify", "witness", "--spec", spec, "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "verify_witness.json").read_text())
    assert report["unbounded"][-1] >= 10 * report["unbounded"][0]


@pytest.mark.parametrize("sizes", ["16,32,64", "128,256,512"])
def test_verify_galerkin_overflowing_entries_exit_3(tmp_path, caplog, sizes):
    # v0 = 1e308 overflows every section entry: a numerical failure, named
    # by assemble before any inf reaches a matmul or an eigensolver
    spec = _write(tmp_path, "k.json", dict(CARLEMAN, v0=1e308, q=0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an unbounded positive form
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o"),
                     "--sizes", sizes])
    assert code == EXIT_TOLERANCE
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "section entries are not finite" in caplog.records[0].getMessage()


def test_verify_witness_unconverged_series_split_exits_3(tmp_path, caplog):
    # alpha = 1e-12: the Taylor coefficients at alpha overflow (the largest
    # finite one is ~4e283), a numerical failure named as such before the
    # series split starts halving its radius
    spec = _write(tmp_path, "k.json", dict(QC_HALF, q=-1.5, alpha=1e-12))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # the overflow is named, not warned
        code = main(["verify", "witness", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_TOLERANCE
    assert [r.getMessage() for r in caplog.records] == [
        "Taylor coefficients of the test product at alpha overflow; "
        "the finite part has no series split"]


def test_certificate_command(tmp_path):
    spec = _write(tmp_path, "v.json", RANK_ONE)
    out = str(tmp_path / "out")
    assert main(["certificate", "--spec", spec, "--target", "1",
                 "--out", out]) == EXIT_OK
    report = json.loads((tmp_path / "out" / "certificate.json").read_text())
    assert report["certificate"]["success"] is True
    # gram_err and margin sit in the diagnostics block, not with the timings;
    # the rank-one Gram matrix is closed form, so its error is rounding
    diag = report["diagnostics"]
    assert set(diag) == {"gram_err", "margin"} and "margin" not in report["certificate"]
    assert 0 < diag["gram_err"] < 1e-14 and 0 < diag["margin"] < 1


def test_certificate_of_an_alpha_0_perturbation_exits_2(tmp_path, caplog):
    # the gaussian trials centre above beta = alpha, so alpha = 0 has none
    spec = _write(tmp_path, "v.json", dict(CARLEMAN, v0=-2.0))
    h0 = _write(tmp_path, "h0.json", CARLEMAN)
    code = main(["certificate", "--spec", spec, "--h0", h0, "--target", "1",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert [r.levelname for r in caplog.records] == ["ERROR"]
    assert "alpha = 0" in caplog.records[0].getMessage()


UNPAIRED = {"schema": "1", "type": "finite_rank",
            "terms": [{"coeffs": [[1.0, 0.0]], "beta": [1.0, 2.0]}]}


@pytest.mark.parametrize("argv", [
    ["certificate", "--spec", "rank_one.json", "--h0", "fdh_sum.json", "--target", "1"],
    ["certificate", "--spec", "fdh_sum.json", "--target", "1"],
    ["predict", "--spec", "unpaired.json"],
    ["predict", "--spec", "two_qc_plus_rank.json"],
    ["predict", "--spec", "beta_zero.json"],
], ids=["interpolation-h0-not-a-density", "two-term-v", "unpaired-complex-beta",
        "no-theorem-for-the-shape", "perturbation-with-beta-0"])
def test_input_errors_exit_2(tmp_path, argv):
    for name, doc in (("rank_one.json", RANK_ONE), ("fdh_sum.json", FDH_SUM),
                      ("unpaired.json", UNPAIRED), ("two_qc_plus_rank.json", TWO_QC_PLUS_RANK),
                      ("beta_zero.json", BETA_ZERO)):
        _write(tmp_path, name, doc)
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_sweep_command(tmp_path):
    config = {"cases": [
        {"name": "a", "kernel": CARLEMAN},
        {"name": "b", "kernel": FDH_SUM, "galerkin": True, "sizes": [16, 32, 64]},
    ]}
    cfg = _write(tmp_path, "sweep.json", config)
    out = str(tmp_path / "out")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK
    rb = json.loads((tmp_path / "out" / "b" / "report.json").read_text())
    assert rb["counts"]["value"] == 1


def test_verify_galerkin_divergent_sections_exit_2(tmp_path):
    spec = _write(tmp_path, "k.json", DIVERGENT)
    with pytest.warns(UserWarning, match="unbounded positive form"):
        code = main(["verify", "galerkin", "--spec", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION


def test_sweep_records_refused_cases_and_goes_on(tmp_path):
    config = {"cases": [
        {"name": "a", "kernel": BETA_ZERO},
        {"name": "b", "kernel": DIVERGENT, "galerkin": True, "sizes": [16, 32, 64]},
        {"name": "c", "kernel": CARLEMAN},
    ]}
    cfg = _write(tmp_path, "sweep.json", config)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="unbounded positive form"):
        code = main(["sweep", "--config", cfg, "--out", str(out)])
    assert code == EXIT_VALIDATION
    ra, rb, rc = (json.loads((out / n / "report.json").read_text()) for n in "abc")
    assert ra["prediction"] is None and "beta > 0" in ra["error"]
    assert "diverge" in rb["error"]
    assert rc["prediction"]["n_minus"] == 0 and "error" not in rc


def test_sweep_case_without_a_kernel_is_its_error(tmp_path):
    config = {"cases": [{"name": "a"}, {"kernel": CARLEMAN},
                        {"name": "b", "kernel": CARLEMAN, "galerkin": True, "sizes": [16, None, 64]},
                        {"name": "r", "kernel": QC_HALF, "galerkin": True, "sizes": [16, 32, 32]},
                        {"name": "c", "kernel": CARLEMAN}]}
    cfg = _write(tmp_path, "sweep.json", config)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_VALIDATION
    ra, r1, rb, rr, rc = (json.loads((out / n / "report.json").read_text())
                          for n in ("a", "case-1", "b", "r", "c"))
    assert "kernel" in ra["error"] and "name" in r1["error"]
    assert "sizes" in rb["error"] and "counts" not in rb
    assert "repeat" in rr["error"] and "counts" not in rr
    assert rc["prediction"]["n_minus"] == 0 and "error" not in rc


def test_sweep_refuses_json_booleans_as_sizes(tmp_path, monkeypatch):
    # operator.index(True) == 1: a true once ran a section of size 1, while
    # a float such as 16.0 was refused
    calls = []

    def negcount(kern, sizes):
        calls.append(sizes)
        return galerkin.stabilized_negcount(kern, sizes)

    monkeypatch.setattr(cli, "stabilized_negcount", negcount)
    config = {"cases": [{"name": n, "kernel": CARLEMAN, "galerkin": True, "sizes": s}
                        for n, s in (("t", [True, 2, 3]), ("f", [16, False, 64]),
                                     ("x", [16.0, 32, 64]))]}
    out = tmp_path / "out"
    assert main(["sweep", "--config", _write(tmp_path, "sweep.json", config),
                 "--out", str(out)]) == EXIT_VALIDATION
    for name in "tfx":
        report = json.loads((out / name / "report.json").read_text())
        assert "must be integers" in report["error"] and "counts" not in report
    assert calls == []


def test_sweep_records_a_numerical_failure_and_goes_on(tmp_path, monkeypatch):
    # no known spec reaches an ArithmeticError in a sweep, so the first
    # case's sections raise one
    calls = []

    def negcount(kern, sizes):
        calls.append(sizes)
        if len(calls) == 1:
            raise DivergentIntegralError("tail contributions are not decaying on [1, inf)")
        return galerkin.stabilized_negcount(kern, sizes)

    monkeypatch.setattr(cli, "stabilized_negcount", negcount)
    config = {"cases": [{"name": "a", "kernel": CARLEMAN, "galerkin": True, "sizes": [8, 16, 32]},
                        {"name": "b", "kernel": CARLEMAN, "galerkin": True, "sizes": [8, 16, 32]}]}
    cfg = _write(tmp_path, "sweep.json", config)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_TOLERANCE
    ra, rb = (json.loads((out / n / "report.json").read_text()) for n in "ab")
    assert "not decaying on [1, inf)" in ra["error"] and "counts" not in ra
    assert rb["counts"]["value"] == 0 and "error" not in rb
    assert len(calls) == 2


def test_sweep_galerkin_q_below_2_writes_counts(tmp_path):
    config = {"cases": [{"name": "a", "kernel": Q17, "galerkin": True, "sizes": [16, 32, 64]}]}
    cfg = _write(tmp_path, "sweep.json", config)
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="unbounded positive form"):
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "a" / "report.json").read_text())
    assert report["counts"]["kind"] == "finite" and report["counts"]["value"] == 0
    assert "error" not in report


def test_sweep_empty_config(tmp_path):
    cfg = _write(tmp_path, "sweep.json", {"cases": []})
    out = str(tmp_path / "out_empty")
    assert main(["sweep", "--config", cfg, "--out", out]) == EXIT_OK


def test_missing_spec_file_exits_2(tmp_path):
    assert main(["predict", "--spec", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == EXIT_VALIDATION


def test_reports_reproducible_modulo_timestamp(tmp_path):
    spec = _write(tmp_path, "k.json", CARLEMAN)
    reports = []
    for sub in ("o1", "o2"):
        out = str(tmp_path / sub)
        assert main(["verify", "identity", "--spec", spec, "--out", out,
                     "--count", "4", "--seed", "99"]) == EXIT_OK
        report = json.loads((tmp_path / sub / "verify_identity.json").read_text())
        assert set(report.pop("timings")) == {"timestamp", "runtime_sec"}
        reports.append(report)
    assert reports[0] == reports[1]


def test_section_reports_carry_margins_and_rerun_byte_identical(tmp_path):
    # the diagnostics block is deterministic: only timings differ between reruns
    spec = _write(tmp_path, "k.json", FDH_SUM)
    cfg = _write(tmp_path, "sweep.json", {"cases": [
        {"name": "a", "kernel": FDH_SUM, "galerkin": True, "sizes": [128, 256, 512]}]})
    texts = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["verify", "galerkin", "--spec", spec, "--out", str(out),
                     "--sizes", "128,256,512", "--seed", "7"]) == EXIT_OK
        assert main(["sweep", "--config", cfg, "--out", str(out / "sweep"),
                     "--seed", "7"]) == EXIT_OK
        reports = [json.loads((out / "verify_galerkin.json").read_text()),
                   json.loads((out / "sweep" / "a" / "report.json").read_text())]
        for report in reports:
            assert set(report.pop("timings")) <= {"timestamp", "runtime_sec"}
            margins = report["diagnostics"]["margins"]
            assert len(margins) == len(report["counts"]["history"]) == 3
            assert min(margins) > 0  # every count certified
            # N = 512 is read from Ritz values: the sketch does not saturate
            assert report["diagnostics"]["dense_fallback"] is False
        texts.append(json.dumps(reports, indent=2, sort_keys=True)
                     + (out / "galerkin.csv").read_text())
    assert texts[0] == texts[1]


def test_edge_inputs_exit_cleanly(tmp_path, capsys):
    # malformed and edge inputs end in an exit code, never in a traceback
    specs = {"qc_half": QC_HALF, "carleman": CARLEMAN, "t3": DIVERGENT,
             "r0_q2_5": dict(Q17, q=2.5), "beta_zero": BETA_ZERO, "rank_one": RANK_ONE}
    for name, doc in specs.items():
        _write(tmp_path, name + ".json", doc)
    configs = {
        "no_kernel": {"cases": [{"name": "a"}, {"name": "b", "kernel": CARLEMAN}]},
        "repeated": {"cases": [{"name": "a", "kernel": QC_HALF, "galerkin": True,
                                "sizes": [64, 64, 64]}]},
        "bad_sizes": {"cases": [{"name": "a", "kernel": CARLEMAN, "galerkin": True,
                                 "sizes": "16,32,64"}]},
        "not_a_case": {"cases": [7, None, {"name": "b", "kernel": {"type": "sum"}}]},
    }
    for name, doc in configs.items():
        _write(tmp_path, name + ".cfg", doc)
    cases = [  # (argv, exit code)
        (["verify", "galerkin", "--spec", "qc_half.json", "--sizes", "64,64,64"], 2),
        (["verify", "galerkin", "--spec", "carleman.json", "--sizes", "16,32"], 2),
        (["verify", "galerkin", "--spec", "carleman.json", "--sizes", "x"], 2),
        (["verify", "galerkin", "--spec", "carleman.json", "--sizes", "x,16,32"], 2),
        (["verify", "galerkin", "--spec", "carleman.json", "--sizes=-16,32,64"], 2),
        (["verify", "galerkin", "--spec", "carleman.json", "--sizes", ""], 2),
        (["verify", "galerkin", "--spec", "t3.json"], 2),
        (["verify", "galerkin", "--spec", "r0_q2_5.json"], 2),
        (["verify", "galerkin", "--spec", "beta_zero.json"], 2),
        (["verify", "galerkin", "--spec", "rank_one.json", "--sizes", "8,16,32"], 0),
        (["predict", "--spec", "t3.json"], 0),
        (["predict", "--spec", "r0_q2_5.json"], 0),
        (["sweep", "--config", "no_kernel.cfg"], 2),
        (["sweep", "--config", "repeated.cfg"], 2),
        (["sweep", "--config", "bad_sizes.cfg"], 2),
        (["sweep", "--config", "not_a_case.cfg"], 2),
    ]
    for i, (argv, want) in enumerate(cases):
        argv = [str(tmp_path / a) if a.endswith((".json", ".cfg")) else a for a in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv + ["--out", str(tmp_path / ("o%d" % i))])
        assert code == want, argv
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err, argv
