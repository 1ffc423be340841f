"""CLI behavior: grammar, subcommands, exit codes, reproducible output."""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from steinforge import cli, verify
from steinforge.catalog import noncentral_chi2_operator
from steinforge.cli import (MAX_DIGITS, PolynomialSyntaxError, build_parser,
                            main, parse_polynomial)
from steinforge.derivation import derive_operator
from steinforge.operators import DiffOperator
from steinforge.poly import Polynomial, hermite

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    # a warning that would reach a user's stderr fails the test
    env = dict(os.environ, PYTHONWARNINGS="error")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "steinforge", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


class TestGrammar:
    def test_cubic_hermite(self):
        assert parse_polynomial("x^3 - 3x") == hermite(3)

    def test_rational_coefficient(self):
        assert parse_polynomial("1/2x^2 + x") == \
            Polynomial([0, 1, Fraction(1, 2)])

    def test_constants_and_signs(self):
        assert parse_polynomial("-x") == Polynomial([0, -1])
        assert parse_polynomial("3") == Polynomial([3])
        assert parse_polynomial("2 - x + x") == Polynomial([2])
        assert parse_polynomial("+x^2") == Polynomial([0, 0, 1])

    def test_repeated_terms_accumulate(self):
        assert parse_polynomial("x + x") == Polynomial([0, 2])

    def test_print_parse_fixed_point(self):
        for text in ["x^3 - 3x", "1/2x^2 + x", "-x^4+6x^2-3", "7"]:
            p = parse_polynomial(text)
            assert parse_polynomial(str(p)) == p

    def test_errors_carry_positions(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("x^3 + &x")
        assert exc.value.position == 6
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("3 3")
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x^1/2")

    @pytest.mark.parametrize("text,message,position", [
        ("", "empty polynomial", 0),
        ("  ", "empty polynomial", 0),
        ("x +", "expected a term", 3),
        ("x - ", "expected a term", 3),
        ("--", "expected a term", 2),
        ("x^3 + &x", "unexpected '&'", 6),
        ("2x y", "unexpected 'y'", 3),
        ("^2", "exponent without x", 0),
        ("x^2^3", "exponent without x", 3),
        ("3 3", "expected '+' or '-'", 2),
        ("x x", "expected '+' or '-'", 2),
        ("x^2 1/2", "expected '+' or '-'", 4),
        ("1/0x", "zero denominator", 0),
        ("x + 2/0", "zero denominator", 4),
        ("x^1/2", "expected integer exponent", 2),
        ("x^", "expected integer exponent", 2),
        ("x^ -1", "expected integer exponent", 3),
        ("x^x", "expected integer exponent", 2),
    ])
    def test_error_message_and_position(self, text, message, position):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(text)
        assert str(exc.value) == f"{message} at position {position}"
        assert exc.value.position == position


class TestExitCodes:
    def test_derive_found_is_zero(self):
        code, out, _ = run_cli("derive", "--poly", "x^3-3x",
                               "--order", "5", "--degree", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["nullspace_dim"] == 1

    def test_derive_constant_is_a_usage_error(self):
        code, out, err = run_cli("derive", "--poly", "7", "--order", "2",
                                 "--degree", "2")
        assert (code, out) == (64, "")
        assert "error: P is constant" in err

    def test_derive_infeasible_is_two(self):
        code, out, _ = run_cli("derive", "--poly", "x^3-3x",
                               "--order", "1", "--degree", "1")
        assert code == 2
        assert json.loads(out)["status"] == "infeasible-at-bounds"

    def test_usage_error_is_64(self):
        code, _, err = run_cli("derive", "--poly", "x^3-3x")
        assert code == 64
        code, _, _ = run_cli("nope")
        assert code == 64
        code, _, _ = run_cli("derive", "--poly", "x^&", "--order", "1",
                             "--degree", "1")
        assert code == 64

    @pytest.mark.parametrize("argv", [
        ("derive", "--coeffs=1,2/0", "--order", "1", "--degree", "1"),
        ("scan", "--coeffs=1,1/0", "--max-order", "1", "--max-degree", "1"),
        ("derive", "--poly", "1/0x", "--order", "1", "--degree", "1"),
        ("scan", "--poly", "x^2 + 3/0", "--max-order", "1", "--max-degree", "1"),
    ])
    def test_zero_denominator_is_64(self, argv):
        code, out, err = run_cli(*argv)
        assert code == 64 and out == ""
        assert "zero denominator" in err

    def test_too_many_quadrature_nodes_is_64(self):
        code, out, err = run_cli("verify", "--catalog", "h3", "--methods",
                                 "quadrature", "--nodes", "800")
        assert code == 64 and out == ""
        assert "quadrature nodes" in err

    def test_zero_operator_is_64(self, tmp_path):
        # the zero operator annihilates everything, so no route may pass it
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"coefficients": []}))
        for methods in ("symbolic", "quadrature", "mc"):
            code, out, err = run_cli("verify", "--operator", str(path),
                                     "--poly", "x^3-3x", "--methods", methods)
            assert code == 64 and out == ""
            assert "zero operator" in err

    @pytest.mark.parametrize("methods", [",", ""])
    def test_empty_method_list_is_64(self, methods, capsys):
        # a verification that ran no route must not pass
        assert main(["verify", "--catalog", "h3", "--methods", methods]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "no verification method" in captured.err

    def test_unknown_method_is_64_before_any_route(self, monkeypatch, capsys):
        # a known route listed before the unknown name must not run first
        def no_route(*args, **kwargs):
            raise AssertionError("a route ran before the method list was checked")

        monkeypatch.setattr(verify, "verify_monte_carlo", no_route)
        assert main(["verify", "--catalog", "h3", "--methods", "mc,bogus",
                     "--samples", "100000000"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unknown verification method 'bogus'\n"

    @pytest.mark.parametrize("content", [
        '{"coefficients": [["1/0"], ["1"]]}',    # zero denominator
        '[1]',                                   # not an object
        '{"coefficients": [[null]]}',            # not a rational
        '{"coefficients": [[1e400]]}',         # not finite
        '{"rows": []}',                          # no coefficients
        '{"coefficients": ',                     # not JSON
        None,                                    # a directory
    ])
    def test_malformed_operator_file_is_64(self, content, tmp_path, capsys):
        path = tmp_path / "op.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        code = main(["verify", "--operator", str(path), "--poly", "x^3-3x",
                     "--methods", "symbolic"])
        captured = capsys.readouterr()
        assert code == 64 and captured.out == ""
        assert captured.err.startswith("error: cannot read an operator from")

    @pytest.mark.parametrize("bounds", [("-1", "2"), ("2", "-1")])
    def test_negative_scan_bounds_are_64(self, bounds):
        order, degree = bounds
        for cmd in (["scan", "--poly", "x^3-3x"], ["conjecture", "--hermite", "5"]):
            code, out, err = run_cli(*cmd, "--max-order", order,
                                     "--max-degree", degree)
            assert code == 64 and out == ""
            assert "nonnegative" in err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "abc"])
    @pytest.mark.parametrize("cmd", [
        ["verify", "--catalog", "h3", "--methods", "quadrature"],
        ["noncentral", "--k", "2", "--lambda", "1", "--verify"],
    ])
    def test_tolerance_must_be_positive_and_finite(self, cmd, tol, capsys):
        # --tol inf would pass anything, h3's failing quadrature leg included
        assert main([*cmd, "--tol", tol]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "positive and finite" in captured.err

    @pytest.mark.parametrize("k,lam", [("2", "inf"), ("inf", "1"),
                                       ("nan", "1"), ("2", "nan")])
    def test_non_finite_noncentral_params_are_64(self, k, lam, capsys):
        assert main(["noncentral", "--k", k, "--lambda", lam]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "must be finite" in captured.err

    def test_verify_pass_and_fail(self):
        code, out, _ = run_cli("verify", "--catalog", "normal",
                               "--samples", "20000")
        assert code == 0 and json.loads(out)["pass"] is True
        # the cubic pushforward with sine exceeds the rule's resolution
        code, out, _ = run_cli("verify", "--catalog", "h3",
                               "--methods", "quadrature")
        assert code == 1 and json.loads(out)["pass"] is False


class TestSubcommands:
    def test_scan_minimal_cell(self):
        code, out, _ = run_cli("scan", "--poly", "x^4-6x^2+3",
                               "--max-order", "3", "--max-degree", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["minimal"] == [3, 2]
        assert payload["leading_coefficient"] == ["3456", "-576", "-192"]

    def test_catalog_list_and_show(self):
        code, out, _ = run_cli("catalog", "list")
        assert code == 0 and "h4" in json.loads(out)["keys"]
        code, out, _ = run_cli("catalog", "show", "h3", "--format", "latex")
        assert code == 0
        assert out.strip() == ("486(4-x^2)f^{(5)}(x)-486xf^{(4)}(x)"
                               "-27(8-x^2)f^{(3)}(x)+99xf''(x)+6f'(x)-xf(x)")
        code, _, _ = run_cli("catalog", "show", "missing-key")
        assert code == 64

    def test_catalog_conjectured_row_without_operator(self):
        code, out, _ = run_cli("catalog", "show", "table1(5)")
        assert code == 0
        payload = json.loads(out)
        assert payload["conjectured"] is True
        assert payload["operator"] is None
        assert payload["leading_coefficient"] == ["27648", "0", "-576", "0", "1"]

    def test_plain_format(self):
        code, out, _ = run_cli("noncentral", "--k", "2", "--lambda", "0.5",
                               "--format", "plain")
        assert code == 0
        assert "mean: 2.5" in out and "{" not in out

    def test_noncentral(self):
        code, out, _ = run_cli("noncentral", "--k", "2", "--lambda", "0.5",
                               "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["mean"] == pytest.approx(2.5)
        assert payload["density_checks"]["normalization"] == \
            pytest.approx(1.0, abs=1e-10)

    def test_coeffs_flag(self):
        code, out, _ = run_cli("derive", "--coeffs", "3,0,-6,0,1",
                               "--order", "3", "--degree", "2")
        assert code == 0
        assert json.loads(out)["poly"] == ["3", "0", "-6", "0", "1"]

    def test_conjecture_emits_report(self):
        code, out, _ = run_cli("conjecture", "--hermite", "6",
                               "--max-order", "3", "--max-degree", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["scan"]["minimal"] == [3, 6]
        assert payload["leading_comparison"]["proportional"] is False
        assert payload["conjecture_divides_leading"] is True
        assert payload["threshold_order"] == 6
        assert payload["found_below_threshold"] == [[3, 6]]

    def test_conjecture_reports_when_nothing_found(self):
        code, out, _ = run_cli("conjecture", "--hermite", "5",
                               "--max-order", "3", "--max-degree", "2")
        assert code == 2
        payload = json.loads(out)
        assert payload["scan"]["minimal"] is None
        assert payload["leading_comparison"] is None
        assert payload["threshold_order"] == 9
        assert payload["found_below_threshold"] == []


class TestReproducibility:
    def test_identical_config_identical_stdout(self):
        args = ("verify", "--catalog", "centered-chi2", "--samples", "20000",
                "--seed", "7")
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2

    def test_operator_roundtrip_through_file(self, tmp_path):
        code, out, _ = run_cli("derive", "--poly", "x^2-1",
                               "--order", "1", "--degree", "1")
        op_json = json.loads(out)["operator"]
        path = tmp_path / "op.json"
        path.write_text(json.dumps(op_json))
        code, out, _ = run_cli("verify", "--operator", str(path),
                               "--poly", "x^2-1", "--samples", "20000")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_results_to_stdout_logs_to_stderr(self):
        code, out, err = run_cli("scan", "--poly", "x^2+2x",
                                 "--max-order", "2", "--max-degree", "1")
        json.loads(out)  # stdout is pure JSON
        assert "scanning" in err


# One run of every command that renders latex: found and infeasible derive,
# scan and conjecture, verify, catalog show and list, noncentral.
LATEX_RUNS = [
    ["derive", "--poly", "x^3-3x", "--order", "5", "--degree", "2"],
    ["derive", "--poly", "x^3-3x", "--order", "1", "--degree", "1"],
    ["scan", "--poly", "x^2+2x", "--max-order", "2", "--max-degree", "1"],
    ["scan", "--poly", "x^3-3x", "--max-order", "1", "--max-degree", "1"],
    ["conjecture", "--hermite", "6", "--max-order", "8", "--max-degree", "6"],
    ["conjecture", "--hermite", "5", "--max-order", "2", "--max-degree", "1"],
    ["verify", "--catalog", "h4", "--methods", "symbolic"],
    ["catalog", "show", "h3"],
    ["catalog", "show", "table1(5)"],
    ["catalog", "list"],
    ["noncentral", "--k", "2", "--lambda", "1"],
]


class TestLatexOnDemand:
    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        return code, capsys.readouterr().out

    def test_json_and_plain_output_render_no_latex(self, monkeypatch, capsys):
        # with latex rendering made to fail, every json and plain stdout and
        # exit code is the one of an unpatched run
        runs = [argv + fmt for argv in LATEX_RUNS
                for fmt in ([], ["--format", "plain"])]
        want = [self.run(argv, capsys) for argv in runs]

        def refuse(self):
            raise AssertionError("latex rendered for non-latex output")

        monkeypatch.setattr(DiffOperator, "latex", refuse)
        assert [self.run(argv, capsys) for argv in runs] == want

    def test_latex_output_is_the_rendered_text(self, capsys):
        # a run without an operator (infeasible, or the conjectured row
        # table1(5)) writes an empty line
        scan = cli.minimal_scan(parse_polynomial("x^2+2x"), 2, 1)
        conjecture = cli.minimal_scan(hermite(6), 8, 6)
        texts = [
            derive_operator(hermite(3), 5, 2).operator.latex(), "",
            scan.result.operator.latex(), "",
            conjecture.result.operator.latex(), "",
            cli.catalog("h4").operator.latex(),
            cli.catalog("h3").latex(), "",
            "\n".join(cli.catalog_keys()),
            noncentral_chi2_operator(2, 1).latex(),
        ]
        assert all(texts[i] for i in (0, 2, 4, 6, 7, 9, 10))
        for argv, text in zip(LATEX_RUNS, texts):
            assert self.run(argv + ["--format", "latex"], capsys)[1] == text + "\n"


def loaded_modules(code: str, roots=("scipy",)) -> set[str]:
    """Modules of the packages `roots` in sys.modules after a fresh
    interpreter runs `code`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error")
    probe = (code + "\nimport sys\n"
             f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestColdStart:
    def test_import_loads_no_scipy(self):
        assert loaded_modules("import steinforge.cli") == set()

    def test_numerical_routes_load_no_scipy(self):
        # Gauss rules and the noncentral density (its Bessel factor by the
        # series, Hankel and Debye branches) are built with numpy alone; the
        # negative control shows that the probe sees scipy once it loads
        loaded = loaded_modules(
            "import steinforge.cli\n"
            "from steinforge.gaussian import gauss_hermite_rule\n"
            "from steinforge.noncentral import NoncentralParams, density_integral\n"
            "gauss_hermite_rule(201)\n"
            "for k, lam in ((2, 1), (3, 400), (50, 100)):\n"
            "    density_integral(NoncentralParams(k=k, lam=lam), lambda x: 1.0)")
        assert loaded == set()
        assert "scipy.special" in loaded_modules("import scipy.special")

    def test_verify_and_noncentral_load_no_scipy(self):
        run = ("import contextlib, io\nfrom steinforge.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()):\n"
               "    assert main(['verify', '--catalog', 'h3', '--methods',\n"
               "                 'symbolic,quadrature,mc', '--samples', '20000']) in (0, 1)\n"
               "    assert main(['noncentral', '--k', '3', '--lambda', '1',\n"
               "                 '--verify']) == 0\n")
        assert loaded_modules(run) == set()
        assert "scipy.special" in loaded_modules(run + "import scipy.special\n")

    def test_exact_commands_load_no_numpy(self):
        # derive, scan, conjecture and catalog run on the exact engine alone;
        # verify is the negative control, so the probe does see numpy
        commands = [
            ["derive", "--poly", "x^3-3x", "--order", "5", "--degree", "2"],
            ["scan", "--poly", "x^2-1", "--max-order", "1", "--max-degree", "1"],
            ["conjecture", "--hermite", "5", "--max-order", "2", "--max-degree", "1"],
            ["catalog", "list"],
            ["catalog", "show", "h3"],
        ]
        run = ("import contextlib, io\nfrom steinforge.cli import main\n"
               "with contextlib.redirect_stdout(io.StringIO()), "
               "contextlib.redirect_stderr(io.StringIO()):\n"
               f"    assert [main(argv) for argv in {commands!r}] == [0, 0, 2, 0, 0]\n")
        assert loaded_modules(run, ("numpy", "scipy")) == set()
        verify = run + "    main(['verify', '--catalog', 'h3', '--methods', 'symbolic'])\n"
        assert "numpy" in loaded_modules(verify, ("numpy", "scipy"))

    def test_derivation_imports_without_numpy(self):
        # a None entry in sys.modules makes `import numpy` raise ImportError
        loaded = loaded_modules("import sys\nsys.modules['numpy'] = None\n"
                                "import steinforge.derivation", ("steinforge",))
        assert "steinforge.derivation" in loaded


def test_main_callable_in_process(capsys):
    code = main(["catalog", "list"])
    assert code == 0
    assert "normal" in capsys.readouterr().out


def test_parser_survives_a_usage_error(capsys):
    # main builds its parser once per process; a parse that fails midway
    # must leave it as it was for the next call
    good = ["derive", "--poly", "x^2-1", "--order", "1", "--degree", "1"]
    outputs = []
    for argv in (good, ["derive", "--poly", "x^2-1", "--order", "1"], good):
        code = main(argv)
        outputs.append((code, capsys.readouterr().out))
    assert outputs[1] == (64, "")
    assert outputs[0] == outputs[2] and outputs[0][0] == 0


def test_noncentral_large_lambda_verifies(capsys):
    # the per-point Bessel series overflows at lambda = 400 (exit 70 before
    # the density rule worked in log space)
    code = main(["noncentral", "--k", "3", "--lambda", "400", "--verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["pass"] is True
    assert all(t["params"]["resolved"] for t in
               payload["density_checks"]["operator_report"]["tests"])


def _strict_json(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("k", ["2", "3"])
def test_noncentral_lambda_beyond_bessel_range_is_a_usage_error(k, capsys):
    # the Bessel factor is validated up to z = 2^30 (about 1.07e9) and NaN
    # beyond: the density rule refuses rather than printing bare NaN
    code = main(["noncentral", "--k", k, "--lambda", "1e10", "--verify"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "lambda = 10000000000.0" in captured.err


@pytest.mark.parametrize("lam", ["1e100", "1e155", "1e300"])
def test_noncentral_lambda_overflowing_the_rule_is_one_usage_line(lam):
    # from about lambda = 1e155, lambda x overflows while the rule is built;
    # under PYTHONWARNINGS=error a numpy RuntimeWarning there was exit 70
    code, out, err = run_cli("noncentral", "--k", "2", "--lambda", lam, "--verify")
    assert code == 64 and out == ""
    assert err.splitlines() == [
        f"error: noncentral density rule has non-finite weights at k = 2.0, "
        f"lambda = {float(lam)}: the Bessel factor is validated only for "
        f"sqrt(lambda x) up to 1.07374e+09"]


@pytest.mark.parametrize("k", ["400", "600", "1e7"])
def test_noncentral_k_beyond_float64_rule_is_a_usage_error(k, capsys):
    # the first panel's Gauss-Jacobi weights times its half-width to the
    # power k/2 overflow (at 1e7 already in the rule's mass 2^(k/2));
    # warnings are errors here, so a usage error also shows that none
    # reached stderr
    code = main(["noncentral", "--k", k, "--lambda", "1", "--verify"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == (
        f"error: noncentral density rule does not build in float64 at "
        f"k = {float(k)}, lambda = 1.0: the first panel's Gauss-Jacobi "
        f"weights, scaled by its half-width to the power k/2, overflow\n")


@pytest.mark.parametrize("k,lam", [("1e308", "0"), ("1e308", "1e308")])
def test_noncentral_variance_beyond_float64_is_a_usage_error(k, lam, capsys):
    # 2(k + 2 lambda) is inf although k and lambda are finite; the refusal
    # comes before any payload, so no "inf" reaches the JSON encoder
    code = main(["noncentral", "--k", k, "--lambda", lam])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == (
        f"error: noncentral variance 2(k + 2 lambda) overflows float64 at "
        f"k = {float(k)}, lambda = {float(lam)}\n")


@pytest.mark.parametrize("k", ["1e-20", "1e-16", "4e-16", "1e-12", "1e-7",
                               "1e-6", "9.99e-6"])
def test_noncentral_k_near_0_rule_is_a_usage_error(k, capsys):
    # below MIN_K = 1e-5 the rounding of k/2 = (k/2 - 1) + 1 moves the
    # normalization by more than 1e-11 (1e-12 exited 1 on the correct
    # operator), and from about 2e-13 down the first panel's rule does not
    # build at all; warnings are errors here, so a usage error also shows
    # that none reached stderr
    code = main(["noncentral", "--k", k, "--lambda", "1", "--verify"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == (
        f"error: noncentral density rule is refused at k = {float(k)}, "
        f"lambda = 1.0: below k = 1e-05, forming k/2 as (k/2 - 1) + 1 in "
        f"float64 moves the normalization by more than 1e-11\n")


@pytest.mark.parametrize("k,lam", [("0.5", "0"), ("0.1", "0"), ("0.01", "0.01"),
                                   ("1e-4", "0"), ("1e-5", "0.01"), ("1e-5", "1")])
def test_noncentral_small_k_and_lambda_verify(k, lam, capsys):
    # mean + 40 standard deviations left mass beyond the cutoff here
    # (normalization 0.99999928 at k = 0.1, lambda = 0, exit 1); the floor
    # (sqrt(lambda) + 7)^2 leaves at most 2 Phi(-7) < 3e-12 beyond it
    code = main(["noncentral", "--k", k, "--lambda", lam, "--verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["pass"] is True
    assert abs(payload["density_checks"]["normalization"] - 1) <= 1e-11


def test_noncentral_bumped_operator_fails_at_small_k(monkeypatch, capsys):
    # negative control: under the floored cutoff the catalog operator with
    # its constant coefficient bumped by +1 still fails on a resolved leg
    def bumped(k, lam):
        rows = [list(p.coeffs) for p in noncentral_chi2_operator(k, lam).coefficients]
        rows[0][0] += 1
        return DiffOperator.from_rows(rows)

    monkeypatch.setattr(cli, "noncentral_chi2_operator", bumped)
    code = main(["noncentral", "--k", "0.1", "--lambda", "0", "--verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["pass"] is False
    assert any(t["params"]["resolved"] and not t["pass"] for t in
               payload["density_checks"]["operator_report"]["tests"])


def test_noncentral_k_300_still_verifies(capsys):
    code = main(["noncentral", "--k", "300", "--lambda", "1", "--verify"])
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("k,lam", [("301", "0"), ("301", "1"), ("356", "0")])
def test_noncentral_variance_is_integrated_about_the_mean(k, lam, capsys):
    # E[X^2] - mean^2 missed the 1e-8 variance tolerance by cancellation here
    code = main(["noncentral", "--k", k, "--lambda", lam, "--verify"])
    assert code == 0 and json.loads(capsys.readouterr().out)["pass"] is True


def test_noncentral_variance_off_by_1e7_fails(monkeypatch, capsys):
    # negative control: the variance check alone turns the verdict
    from steinforge.noncentral import NoncentralParams
    true_variance = NoncentralParams.variance
    monkeypatch.setattr(NoncentralParams, "variance", property(
        lambda self: true_variance.fget(self) + 1e-7))
    code = main(["noncentral", "--k", "3", "--lambda", "1", "--verify"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["pass"] is False
    assert payload["density_checks"]["operator_report"]["pass"] is True


def test_noncentral_lambda_1e9_fails_with_valid_json(capsys):
    # the weights are finite here, but the rule does not resolve every leg
    code = main(["noncentral", "--k", "2", "--lambda", "1e9", "--verify"])
    payload = _strict_json(capsys.readouterr().out)
    assert code == 1 and payload["pass"] is False


def test_samples_above_bound_are_a_usage_error(capsys):
    code = main(["verify", "--catalog", "h3", "--methods", "mc",
                 "--samples", str(10 ** 9 + 1)])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert "at most" in captured.err


@pytest.mark.parametrize("argv", [
    ["derive", "--poly", "x^2-1", "--order", "1", "--degree", "1", "--deepen"],
    ["scan", "--coeffs", "0,-1,0,1", "--max-order", "2", "--max-degree", "1"],
    ["verify", "--catalog", "normal", "--methods", "symbolic,quadrature",
     "--nodes", "60", "--tol", "1e-9"],
    ["catalog", "show", "h3"],
    ["conjecture", "--hermite", "5", "--max-order", "2", "--max-degree", "1"],
    ["noncentral", "--k", "2", "--lambda", "1", "--tol", "1e-6", "--verify"],
])
def test_config_echoes_every_parsed_option(argv, capsys):
    # the echo replays the run: every option, in the parser's order
    main(argv)
    config = json.loads(capsys.readouterr().out)["config"]
    parsed = vars(build_parser().parse_args(argv))
    expected = [(k, v) for k, v in parsed.items() if k not in ("command", "func")]
    assert list(config.items()) == expected


@pytest.mark.parametrize("coefficients,poly,methods,name", [
    ([["1.5e400"], ["1"]], "x^3-3x", "symbolic", "operator coefficient of x^0 f^(0)"),
    ([["1.5e400"], ["1"]], "x^3-3x", "quadrature", "operator coefficient of x^0 f^(0)"),
    ([["1.5e400"], ["1"]], "x^3-3x", "mc", "operator coefficient of x^0 f^(0)"),
    ([["1"], ["1"]], f"x^3-{10 ** 400}x", "quadrature", "coefficient of x^1 in P"),
])
def test_coefficient_beyond_float_range_is_64(coefficients, poly, methods, name,
                                              tmp_path, capsys):
    # an exact rational from outside may exceed every float; no route runs
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"coefficients": coefficients}))
    code = main(["verify", "--operator", str(path), "--poly", poly,
                 "--methods", methods])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == f"error: {name} is beyond float range\n"


@pytest.mark.parametrize("methods,err", [
    ("symbolic", "error: residual of monomial(8) is beyond float range\n"),
    ("mc", "error: Monte Carlo sums of sine(1) are beyond float range\n"),
])
def test_route_result_beyond_float_range_is_64(methods, err, tmp_path, capsys):
    # each coefficient is a float, but the residual or the sum of squares
    # the route forms from them is not
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"coefficients": [["1e300"], ["1"]]}))
    code = main(["verify", "--operator", str(path), "--poly", "x^3-3x",
                 "--methods", methods, "--samples", "10000"])
    captured = capsys.readouterr()
    assert code == 64 and captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("key", ["table13", "table1)3(", "table1(03)", "table1(\u0663)"])
def test_table1_key_is_matched_whole(key, capsys):
    # only "table1(3)" spells row 3
    assert main(["catalog", "show", key]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: \"unknown catalog key: {key!r}\"\n"


class TestInputLimits:
    def test_exponent_at_cap_parses(self):
        assert parse_polynomial("x^1000").degree == 1000

    def test_exponent_above_cap_is_refused(self, capsys):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial("x + x^1001")
        assert str(exc.value) == "exponent above 1000 at position 6"
        assert main(["derive", "--poly", "x^99999999999", "--order", "1",
                     "--degree", "1"]) == 64
        captured = capsys.readouterr()
        assert captured.out == "" and "exponent above 1000" in captured.err

    CONSTANT_P = [
        ["scan", "--poly", "5", "--max-order", "1", "--max-degree", "1"],
        ["scan", "--coeffs=0,0", "--max-order", "1", "--max-degree", "1"],
        ["derive", "--poly", "7", "--order", "3", "--degree", "3"],
        ["derive", "--coeffs", "5", "--order", "3", "--degree", "3"],
        ["derive", "--coeffs", "0", "--order", "0", "--degree", "0"],
    ]
    GRID_TOO_LARGE = ["derive", "--poly", "x^1000", "--order", "64", "--degree", "64"]

    @pytest.mark.parametrize("argv", [
        ["derive", "--poly", "x", "--order", "65", "--degree", "0"],
        ["derive", "--poly", "x", "--order", "0", "--degree", "65"],
        ["derive", "--poly", "7", "--order", "1000", "--degree", "0"],
        ["scan", "--poly", "x", "--max-order", "65", "--max-degree", "0"],
        ["scan", "--poly", "x", "--max-order", "0", "--max-degree", "10000"],
        ["conjecture", "--hermite", "5", "--max-order", "65", "--max-degree", "1"],
        *CONSTANT_P,
        GRID_TOO_LARGE,
    ])
    def test_bounds_above_cap_are_refused_first(self, argv, monkeypatch, capsys):
        # a derive or scan of a constant P, or of a grid matrix too large to
        # allocate, is refused by the same check, also before a scan's
        # progress line
        def refuse(*args):
            raise AssertionError("columns reduced before the bounds were checked")
        monkeypatch.setattr("steinforge.derivation._grid_matrix", refuse)
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        if argv in self.CONSTANT_P:
            reason = "P is constant"
        elif argv == self.GRID_TOO_LARGE:
            # (1000*64 + 1 + 64*999) rows by 65*65 columns
            reason = ("the grid matrix would hold 540533825 entries, "
                      "more than 33554432")
        else:
            reason = "order and degree bounds must be at most 64"
        assert captured.err == f"error: {reason}\n"

    # one digit past the limit on input integers
    LONG = "9" * (MAX_DIGITS + 1)

    def test_overlong_exponent_is_refused(self):
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_polynomial(f"x + x^{self.LONG}")
        assert str(exc.value) == "exponent above 1000 at position 6"
        assert parse_polynomial("x^" + "0" * len(self.LONG) + "3").degree == 3

    def test_overlong_poly_coefficient_is_refused(self):
        for text, position in ((f"x + {self.LONG}x^2", 4), (f"x - 1/{self.LONG}", 4)):
            with pytest.raises(PolynomialSyntaxError) as exc:
                parse_polynomial(text)
            assert str(exc.value) == \
                f"coefficient longer than {MAX_DIGITS} digits at position {position}"

    def test_overlong_coeffs_entry_is_refused(self, capsys):
        argv = ["derive", "--coeffs", f"0,1,{self.LONG}", "--order", "1", "--degree", "1"]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: coefficient longer than {MAX_DIGITS} "
                                f"digits at index 2 of --coeffs\n")

    @pytest.mark.parametrize("entry", [f"1e{MAX_DIGITS}", f"1e-{MAX_DIGITS}",
                                       "1e1_000_000", "0e2000000"])
    def test_overlong_exponent_entry_is_refused(self, entry, tmp_path, capsys):
        # Fraction() would build 10^|e| before anything else is checked
        argv = ["derive", "--coeffs", f"0,{entry}", "--order", "1", "--degree", "1"]
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: coefficient longer than {MAX_DIGITS} "
                                f"digits at index 1 of --coeffs\n")
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"coefficients": [["1"], ["0", entry]]}))
        assert main(["verify", "--operator", str(path), "--poly", "x"]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: coefficient longer than {MAX_DIGITS} "
                                f"digits at coefficients[1][1] of {path}\n")

    def test_exponent_below_limit_is_read(self):
        digits = MAX_DIGITS - 1
        assert main(["derive", "--coeffs", f"0,1e{digits}", "--order", "1",
                     "--degree", "1", "--format", "latex"]) == 0

    def test_finished_derivation_prints_whole(self, capsys):
        # the operator's coefficients are powers of the input's: longer than
        # the interpreter prints by default, printed whole all the same
        limit = sys.get_int_max_str_digits()
        assert main(["derive", "--poly", "7" * 1200 + "x^3-3x", "--order", "5",
                     "--degree", "2"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["status"] == "found"
        assert max(map(len, re.findall(r"\d+", out))) > MAX_DIGITS
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("bounds", [(64, 1), (1, 64)])
    def test_bounds_at_cap_are_accepted(self, bounds):
        assert derive_operator(Polynomial([0, 1]), *bounds).status == "found"
