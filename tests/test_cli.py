"""CLI behavior: grammar, subcommands, exit codes, reproducible output."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from steinforge.cli import PolynomialSyntaxError, main, parse_polynomial
from steinforge.gaussian import hermite
from steinforge.poly import Polynomial

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "steinforge", *args],
                          capture_output=True, text=True)
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


class TestExitCodes:
    def test_derive_found_is_zero(self):
        code, out, _ = run_cli("derive", "--poly", "x^3-3x",
                               "--order", "5", "--degree", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["nullspace_dim"] == 1

    def test_derive_constant_is_degenerate_with_operator(self):
        code, out, _ = run_cli("derive", "--poly", "7", "--order", "2",
                               "--degree", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "degenerate"
        assert payload["operator"]["coefficients"] == [["-7", "1"]]

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

    @pytest.mark.parametrize("bounds", [("-1", "2"), ("2", "-1")])
    def test_negative_scan_bounds_are_64(self, bounds):
        order, degree = bounds
        for cmd in (["scan", "--poly", "x^3-3x"], ["conjecture", "--hermite", "5"]):
            code, out, err = run_cli(*cmd, "--max-order", order,
                                     "--max-degree", degree)
            assert code == 64 and out == ""
            assert "nonnegative" in err

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


def loaded_scipy_modules(code: str) -> set[str]:
    """scipy modules in sys.modules after a fresh interpreter runs `code`."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = (code + "\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestColdStart:
    def test_import_loads_no_scipy(self):
        assert loaded_scipy_modules("import steinforge.cli") == set()

    def test_numerical_routes_load_scipy(self):
        # negative control: the probe sees scipy once a route needs it
        rule = loaded_scipy_modules(
            "import steinforge.cli\n"
            "from steinforge.gaussian import gauss_hermite_rule\n"
            "gauss_hermite_rule(201)")
        assert "scipy.linalg" in rule and "scipy.integrate" not in rule
        density = loaded_scipy_modules(
            "import steinforge.cli\n"
            "from steinforge.noncentral import NoncentralParams, density_integral\n"
            "density_integral(NoncentralParams(k=2, lam=1), lambda x: 1.0)")
        assert "scipy.special" in density and "scipy.integrate" not in density


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
