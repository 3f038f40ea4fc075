import random

import numpy as np
import pytest

from hofa import analysis as an
from hofa import cli
from hofa import mforms as mf
from hofa import serialize as sz
from hofa.cyclotomic import ring
from hofa.instances import corner_witness, planted_instance
from hofa.mforms import MultilinearForm, total_derivative
from hofa.ncpoly import Monomial, NcPoly, random_poly
from hofa.torus import TorusValue


def run_cli(args):
    return cli.cli_main(args)


def test_norm_on_constant_one(tmp_path, capsys):
    f = an.BoundedFunction.ones(2, 3)
    path = tmp_path / "ones.fn"
    path.write_text(sz.dump_function(f))
    assert run_cli(["norm", "--input", str(path), "--d", "4"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1"


def test_norm_nontrivial(tmp_path, capsys):
    P = NcPoly.from_classical(2, 2, {(1, 1): 1})
    path = tmp_path / "quad.fn"
    path.write_text(sz.dump_function(an.BoundedFunction.from_poly_phase(P)))
    assert run_cli(["norm", "--input", str(path), "--d", "2"]) == 0
    out = capsys.readouterr().out
    assert "0.7071" in out  # (1/4)^(1/4)


def test_norm_of_a_fifth_root_phase(tmp_path, capsys):
    f = an.random_unimodular_exact(random.Random(5), 5, 2, 1)
    path = tmp_path / "p5.fn"
    path.write_text(sz.dump_function(f))
    assert path.read_text().startswith("5 2 exact m=1 den=1\n")
    assert run_cli(["norm", "--input", str(path), "--d", "3"]) == 0
    want = an.direct_gowers_power(f, 3)
    num, den = capsys.readouterr().out.splitlines()[1].split(": ")[1].split(" / ")
    num = np.array([int(c) for c in num.strip("()").split(",")], dtype=object)
    assert np.array_equal(num * want.power_den, np.array(want.power_num, dtype=object) * int(den))


def test_norm_of_a_huge_denominator_at_d5(tmp_path, capsys):
    # Z[i] values (a + b i) / (4 * 10^9): the U^5 power's numerator and
    # denominator pass the float range, its value does not
    den = 4 * 10**9
    rng = random.Random(3)
    pts = []
    while len(pts) < 4:
        a, b = rng.randrange(-den, den + 1), rng.randrange(-den, den + 1)
        if a * a + b * b <= den * den:
            pts.append((a, b))
    f = an.BoundedFunction(2, 2, ring(2, 2), np.array(pts, dtype=object).T, den)
    path = tmp_path / "zi.fn"
    path.write_text(sz.dump_function(f))
    assert run_cli(["norm", "--input", str(path), "--d", "5"]) == 0
    want = an.direct_gowers_power(f, 5)
    assert want.power_den.bit_length() > 1024
    out = capsys.readouterr().out.splitlines()
    assert float(out[0]) == pytest.approx(float(want.power_surd()) ** (1 / 32), rel=1e-11)


def test_norm_on_a_float_file_is_an_error_line(tmp_path, capsys):
    path = tmp_path / "float.fn"
    path.write_text("2 1 float\n1 0\n0 1\n")
    assert run_cli(["norm", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p n exact m=<m> den=<den>" in err


def test_rank_subcommand(tmp_path, capsys):
    T = MultilinearForm.from_entries(2, 2, 3, {(0, 0, 0): 1})
    path = tmp_path / "form.mf"
    path.write_text(sz.dump_form(T))
    assert run_cli(["rank", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bias = 3/4" in out
    assert "prank = 1" in out


def test_integrate_subcommand(tmp_path, capsys):
    rng = random.Random(0)
    T = mf.random_ncsm_form(rng, 2, 2, 3)
    path = tmp_path / "ncsm.mf"
    out_path = tmp_path / "poly.np"
    path.write_text(sz.dump_form(T))
    assert run_cli(["integrate", "--input", str(path), "--output", str(out_path)]) == 0
    P = sz.load_poly(out_path.read_text())
    assert total_derivative(P, 3) == T


def test_symmetrize_subcommand(tmp_path, capsys):
    inst = planted_instance(2, 2, seed=505, style="general")
    bundle = sz.dump_witness_bundle(inst.T, inst.witness.bs)
    path = tmp_path / "witness.wb"
    report = tmp_path / "report.txt"
    path.write_text(bundle)
    code = run_cli(["symmetrize", "--witness", str(path), "--report", str(report)])
    assert code == 0
    text = report.read_text()
    assert "certificate verifies: True" in text


def test_pipeline_subcommand(tmp_path, capsys):
    P0 = NcPoly.make(2, 3, TorusValue.zero(2), [Monomial((1, 0, 0), 2, 1)])
    f = an.BoundedFunction.from_poly_phase(P0)
    fpath = tmp_path / "f.fn"
    ppath = tmp_path / "p0.np"
    rpath = tmp_path / "report.txt"
    fpath.write_text(sz.dump_function(f))
    ppath.write_text(sz.dump_poly(P0))
    code = run_cli(
        [
            "pipeline",
            "--input",
            str(fpath),
            "--strategy",
            "from-poly",
            "--poly",
            str(ppath),
            "--report",
            str(rpath),
        ]
    )
    assert code == 0
    text = rpath.read_text()
    assert "final correlation: 1.00000000" in text
    assert "FAIL" not in text


def test_pipeline_report_is_deterministic(tmp_path):
    P0 = NcPoly.make(2, 2, TorusValue.zero(2), [Monomial((1, 0), 2, 1)])
    f = an.BoundedFunction.from_poly_phase(P0)
    fpath = tmp_path / "f.fn"
    ppath = tmp_path / "p0.np"
    fpath.write_text(sz.dump_function(f))
    ppath.write_text(sz.dump_poly(P0))
    outs = []
    for name in ("a.txt", "b.txt"):
        rpath = tmp_path / name
        assert (
            run_cli(
                [
                    "pipeline",
                    "--input",
                    str(fpath),
                    "--strategy",
                    "from-poly",
                    "--poly",
                    str(ppath),
                    "--report",
                    str(rpath),
                ]
            )
            == 0
        )
        outs.append(rpath.read_bytes())
    assert outs[0] == outs[1]


def test_pipeline_on_a_nonclassical_p3_cubic(tmp_path):
    # P0 = |x_1| / 9 + x_1 x_2 / 3: ninth-root values, so every ledger
    # comparison past stage 6 is one in Z[zeta_9]
    P0 = NcPoly.make(3, 2, TorusValue.zero(3), [Monomial((1, 0), 1, 1), Monomial((1, 1), 0, 1)])
    fpath, ppath, rpath = tmp_path / "f.fn", tmp_path / "p0.np", tmp_path / "report.txt"
    fpath.write_text(sz.dump_function(an.BoundedFunction.from_poly_phase(P0)))
    ppath.write_text(sz.dump_poly(P0))
    args = ["pipeline", "--input", str(fpath), "--strategy", "from-poly", "--poly", str(ppath)]
    assert run_cli(args + ["--report", str(rpath)]) == 0
    text = rpath.read_text()
    assert "final correlation: 0.84402963" in text and "final polynomial classical: True" in text
    assert "FAIL" not in text


def test_pipeline_on_integer_valued_file(tmp_path):
    """A constant written with m=0 gives the report of the same function
    written with m=1, apart from the input digest."""
    reports = []
    for m in (0, 1):
        fpath, rpath = tmp_path / f"ones{m}.fn", tmp_path / f"report{m}.txt"
        fpath.write_text(f"2 2 exact m={m} den=1\n1\n1\n1\n1\n")
        assert run_cli(["pipeline", "--input", str(fpath), "--strategy", "random", "--report", str(rpath)]) == 0
        reports.append([ln for ln in rpath.read_text().splitlines() if not ln.startswith("input digest:")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("cmd", ["rank", "integrate"])
def test_empty_form_file_is_an_error_line(tmp_path, capsys, cmd):
    path = tmp_path / "empty.mf"
    path.write_text("")
    assert run_cli([cmd, "--input", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_error_exit_code():
    assert run_cli(["pipeline", "--strategy", "bogus"]) == 2
    assert run_cli(["norm"]) == 2


def test_selftest_quick():
    assert run_cli(["selftest", "--quick"]) == 0


def test_pipeline_on_an_f2_4_file(tmp_path):
    P0 = random_poly(2, 4, 3, True, seed=1)
    fpath, ppath, rpath = tmp_path / "f.fn", tmp_path / "p0.np", tmp_path / "report.txt"
    fpath.write_text(sz.dump_function(an.BoundedFunction.from_poly_phase(P0)))
    ppath.write_text(sz.dump_poly(P0))
    args = ["pipeline", "--input", str(fpath), "--strategy", "from-poly", "--poly", str(ppath)]
    assert run_cli(args + ["--report", str(rpath)]) == 0
    text = rpath.read_text()
    assert "pipeline report  p=2 n=4" in text and "final correlation: 1.00000000" in text
    assert "FAIL" not in text


def test_pipeline_has_no_classical_only_flag(tmp_path):
    fpath = tmp_path / "f.fn"
    fpath.write_text(sz.dump_function(an.BoundedFunction.ones(3, 2)))
    assert run_cli(["pipeline", "--input", str(fpath), "--strategy", "random", "--classical-only"]) == 2


def _valid_files(tmp_path):
    """One valid file of each kind the path cases read: a function, a cubic
    guess, a triaffine form and a witness bundle."""
    f = tmp_path / "ones.fn"
    f.write_text(sz.dump_function(an.BoundedFunction.ones(2, 2)))
    poly = tmp_path / "p0.np"
    poly.write_text(sz.dump_poly(NcPoly.zero(2, 2)))
    form = tmp_path / "form.mf"
    form.write_text(sz.dump_form(mf.random_ncsm_form(random.Random(0), 2, 2, 3)))
    inst = planted_instance(2, 2, seed=505, style="general")
    wb = tmp_path / "witness.wb"
    wb.write_text(sz.dump_witness_bundle(inst.T, inst.witness.bs))
    return {"fn": str(f), "poly": str(poly), "form": str(form), "wb": str(wb)}


MISSING = "{tmp}/missing/file"
DIRECTORY = "{tmp}"
BINARY = "{tmp}/binary.fn"


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["norm", "--input", MISSING], MISSING),
        (["norm", "--input", DIRECTORY], DIRECTORY),
        (["norm", "--input", BINARY], BINARY),
        (["integrate", "--input", "{form}", "--output", MISSING], MISSING),
        (["symmetrize", "--witness", MISSING], MISSING),
        (["symmetrize", "--witness", "{wb}", "--report", MISSING], MISSING),
        (["pipeline", "--input", "{fn}", "--strategy", "random", "--report", DIRECTORY], DIRECTORY),
        (["pipeline", "--input", "{fn}", "--strategy", "from-poly", "--poly", MISSING], MISSING),
        (["pipeline", "--input", "{fn}", "--strategy", "supplied", "--phi", DIRECTORY], DIRECTORY),
    ],
    ids=["input-missing", "input-directory", "input-binary", "output", "witness", "symmetrize-report",
         "pipeline-report", "poly", "phi"],
)
def test_an_unusable_path_is_one_error_line(tmp_path, capsys, argv, bad):
    names = dict(_valid_files(tmp_path), tmp=str(tmp_path))
    (tmp_path / "binary.fn").write_bytes(bytes(range(256)))
    assert run_cli([a.format(**names) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and bad.format(**names) in err


@pytest.mark.parametrize("threshold", ["abc", "1/0", ""])
def test_a_malformed_threshold_is_a_usage_error(tmp_path, capsys, threshold):
    names = _valid_files(tmp_path)
    assert run_cli(["pipeline", "--input", names["fn"], "--strategy", "random", "--threshold", threshold]) == 2
    assert "argument --threshold" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "--quick", "--budget", "1", "--seed", "9"],
        ["selftest", "--quick", "--seed", "9"],
        ["integrate", "--input", "{form}", "--budget", "5"],
        ["norm", "--input", "{fn}", "--seed", "1"],
        ["rank", "--input", "{form}", "--seed", "1"],
        ["symmetrize", "--witness", "{wb}", "--seed", "1"],
    ],
    ids=["selftest-budget", "selftest-seed", "integrate-budget", "norm-seed", "rank-seed", "symmetrize-seed"],
)
def test_an_option_a_subcommand_does_not_read_is_a_usage_error(tmp_path, argv):
    names = _valid_files(tmp_path)
    assert run_cli([a.format(**names) for a in argv]) == 2


def test_pipeline_reads_seed_and_budget(tmp_path):
    names = _valid_files(tmp_path)
    argv = ["pipeline", "--input", names["fn"], "--strategy", "random", "--report", str(tmp_path / "r.txt")]
    assert run_cli(argv + ["--seed", "3", "--budget", str(1 << 20)]) == 0
    assert run_cli(argv + ["--budget", "1"]) == 1  # the budget is read: too small for the U^4 norm
