"""Command-line frontend.

Subcommands: derive, scan, verify, catalog, conjecture, noncentral.
Results go to stdout (JSON by default), progress to stderr. Exit codes:
0 found/pass, 1 verification failure, 2 infeasible at bounds, 64 usage
error, 70 internal error. The full run configuration is echoed into every
JSON payload so runs can be reproduced from their output alone.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .catalog import catalog, catalog_keys, noncentral_chi2_operator
from .derivation import (DerivationError, derive_operator,
                         leading_coefficient_report, minimal_scan)
from .gaussian import hermite
from .noncentral import NoncentralParams, resolved_density_integral
from .operators import DiffOperator
from .poly import Polynomial
from .testfunctions import default_suite
from .verify import verify_all, verify_noncentral_operator

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<coef>\d+(?:/\d+)?)|(?P<x>x)|"
                    r"(?P<caret>\^)|(?P<other>\S))")


def parse_polynomial(text: str) -> Polynomial:
    """Parse signed terms `[coef][x[^exp]]` with integer or p/q coefficients.

    Whitespace is ignored everywhere; errors carry the offending position.
    """
    if not text or not text.strip():
        raise PolynomialSyntaxError("empty polynomial", 0)
    coeffs: dict[int, Fraction] = {}
    pos = 0
    n = len(text)

    def next_token():
        nonlocal pos
        if pos >= n:
            return None, None, pos
        m = _TOKEN.match(text, pos)
        if m is None:
            return None, None, pos
        start = m.start(m.lastgroup)
        kind = m.lastgroup
        value = m.group(kind)
        pos = m.end()
        return kind, value, start

    sign = 1
    expect_term = True
    while True:
        kind, value, at = next_token()
        if kind is None:
            if expect_term:
                raise PolynomialSyntaxError("expected a term", at)
            break
        if kind == "sign":
            if expect_term and value == "-":
                sign = -sign
                continue
            if expect_term:
                continue
            sign = -1 if value == "-" else 1
            expect_term = True
            continue
        if kind == "other":
            raise PolynomialSyntaxError(f"unexpected {value!r}", at)
        if kind == "caret":
            raise PolynomialSyntaxError("exponent without x", at)
        if not expect_term:
            raise PolynomialSyntaxError("expected '+' or '-'", at)
        # term: optional coefficient, then optional x[^exp]
        coef = Fraction(1)
        have_coef = False
        if kind == "coef":
            try:
                coef = Fraction(value)
            except ZeroDivisionError:
                raise PolynomialSyntaxError("zero denominator", at) from None
            have_coef = True
            save = pos
            kind, value, at = next_token()
            if kind != "x":
                pos = save
                kind = None
        if kind == "x":
            exp = 1
            save = pos
            k2, v2, at2 = next_token()
            if k2 == "caret":
                k3, v3, at3 = next_token()
                if k3 != "coef" or "/" in (v3 or ""):
                    raise PolynomialSyntaxError("expected integer exponent", at3)
                exp = int(v3)
            else:
                pos = save
        elif have_coef:
            exp = 0
        else:
            raise PolynomialSyntaxError("expected coefficient or x", at)
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        sign = 1
        expect_term = False
    width = max(coeffs, default=0) + 1
    return Polynomial([coeffs.get(d, Fraction(0)) for d in range(width)])


def _poly_from_args(args) -> Polynomial:
    if getattr(args, "coeffs", None):
        try:
            return Polynomial([Fraction(c) for c in args.coeffs.split(",")])
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in --coeffs {args.coeffs}") from None
    if getattr(args, "poly", None):
        return parse_polynomial(args.poly)
    raise UsageError("a polynomial is required (--poly or --coeffs)")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict, fmt: str, latex_text: Optional[str] = None) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    elif fmt == "latex":
        sys.stdout.write((latex_text or "") + "\n")
    else:
        for line in _plain_lines(payload):
            sys.stdout.write(line + "\n")


def _plain_lines(payload, prefix: str = "") -> list[str]:
    lines = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{prefix}{k}:")
                lines.extend(_plain_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}{k}: {v}")
    elif isinstance(payload, list):
        for v in payload:
            if isinstance(v, (dict, list)):
                lines.extend(_plain_lines(v, prefix + "  "))
            else:
                lines.append(f"{prefix}- {v}")
    return lines


def _config_echo(args, fields: list[str]) -> dict:
    return {name: getattr(args, name) for name in fields if hasattr(args, name)}


def _cmd_derive(args) -> int:
    P = _poly_from_args(args)
    deepen_rounds = 4 if args.deepen else 2
    result = derive_operator(P, args.order, args.degree,
                             deepen_rounds=deepen_rounds)
    payload = {"command": "derive",
               "config": _config_echo(args, ["poly", "coeffs", "order",
                                             "degree", "deepen", "format"])}
    payload.update(result.to_dict())
    latex = result.operator.latex() if result.operator else ""
    _emit(payload, args.format, latex)
    # degenerate constants still carry their order-0 operator
    return EXIT_OK if result.operator is not None else EXIT_INFEASIBLE


def _cmd_scan(args) -> int:
    P = _poly_from_args(args)
    print(f"scanning orders 0..{args.max_order}, degrees 0..{args.max_degree}",
          file=sys.stderr)
    scan = minimal_scan(P, args.max_order, args.max_degree)
    payload = {"command": "scan",
               "config": _config_echo(args, ["poly", "coeffs", "max_order",
                                             "max_degree", "format"])}
    payload.update(scan.to_dict())
    latex = scan.result.operator.latex() if scan.result and scan.result.operator else ""
    _emit(payload, args.format, latex)
    return EXIT_OK if scan.minimal else EXIT_INFEASIBLE


def _cmd_verify(args) -> int:
    if args.catalog:
        entry = catalog(args.catalog)
        op = entry.operator
        if op is None:
            raise UsageError(f"catalog entry {args.catalog!r} has no operator")
        P = entry.pushforward
    else:
        if not args.operator:
            raise UsageError("either --catalog or --operator is required")
        with open(args.operator) as fh:
            op = DiffOperator.from_dict(json.load(fh))
        P = _poly_from_args(args)
    if P is None:
        raise UsageError("this entry has no polynomial pushforward to verify against")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    reports = verify_all(op, P, default_suite(), methods,
                         nodes=args.nodes, tol=args.tol,
                         samples=args.samples, seed=args.seed)
    payload = {"command": "verify",
               "config": _config_echo(args, ["catalog", "operator", "poly",
                                             "coeffs", "methods", "nodes", "tol",
                                             "samples", "seed", "format"]),
               "reports": [r.to_dict() for r in reports],
               "pass": all(r.passed for r in reports)}
    _emit(payload, args.format, op.latex())
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {"command": "catalog", "keys": catalog_keys()}
        _emit(payload, args.format, "\n".join(catalog_keys()))
        return EXIT_OK
    entry = catalog(args.key)
    payload = {"command": "catalog",
               "config": _config_echo(args, ["action", "key", "format"])}
    payload.update(entry.to_dict())
    has_operator = entry.operator is not None or entry.display_latex
    _emit(payload, args.format, entry.latex() if has_operator else "")
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    n = args.hermite
    P = hermite(n)
    row = catalog(f"table1({n})")
    conjectured = row.leading_coefficient
    print(f"conjecture scan for Hermite order {n}: "
          f"orders 0..{args.max_order}, degrees 0..{args.max_degree}",
          file=sys.stderr)
    scan = minimal_scan(P, args.max_order, args.max_degree)
    payload = {"command": "conjecture",
               "config": _config_echo(args, ["hermite", "max_order",
                                             "max_degree", "format"]),
               "conjectured_leading": conjectured.to_strings(),
               "scan": scan.to_dict()}
    if scan.result is not None:
        report = leading_coefficient_report(scan.result, conjectured)
        payload["leading_comparison"] = report.to_dict()
        lead = scan.result.operator.coefficients[-1]
        payload["conjecture_divides_leading"] = conjectured.divides(lead)
    else:
        payload["leading_comparison"] = None
        payload["conjecture_divides_leading"] = None
    threshold = row.threshold_order
    found_below = [
        [m, d] for (m, d), status in scan.grid.items()
        if status == "found" and m < threshold]
    payload["threshold_order"] = threshold
    payload["found_below_threshold"] = sorted(found_below)
    _emit(payload, args.format,
          scan.result.operator.latex() if scan.result and scan.result.operator else "")
    return EXIT_OK if scan.minimal else EXIT_INFEASIBLE


def _cmd_noncentral(args) -> int:
    params = NoncentralParams(k=args.k, lam=getattr(args, "lambda"))
    op = noncentral_chi2_operator(args.k, getattr(args, "lambda"))
    payload = {"command": "noncentral",
               "config": {"k": args.k, "lambda": getattr(args, "lambda"),
                          "verify": args.verify, "format": args.format},
               "operator": op.to_dict(),
               "mean": params.mean, "variance": params.variance}
    ok = True
    if args.verify:
        moments = [resolved_density_integral(params, h, tol) for h, tol in
                   ((lambda x: 1.0, 1e-10), (lambda x: x, 1e-8),
                    (lambda x: x * x, 1e-8))]
        total, mean, second = (m.value for m in moments)
        report = verify_noncentral_operator(params, default_suite(), tol=args.tol)
        payload["density_checks"] = {
            "normalization": total,
            "mean": mean,
            "variance": second - mean * mean,
            "operator_report": report.to_dict(),
        }
        ok = (report.passed and all(m.resolved for m in moments)
              and abs(total - 1.0) <= 1e-10
              and abs(mean - params.mean) <= 1e-8
              and abs(second - mean * mean - params.variance) <= 1e-8)
        payload["pass"] = ok
    _emit(payload, args.format, op.latex())
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def build_parser() -> _Parser:
    parser = _Parser(prog="steinforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "latex", "plain"],
                       default="json")

    def add_poly(p):
        p.add_argument("--poly", help="polynomial text, e.g. 'x^3 - 3x'")
        p.add_argument("--coeffs", help="comma-separated coefficients, lowest first")

    p = sub.add_parser("derive", help="search for an annihilating operator")
    add_poly(p)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--deepen", action="store_true",
                   help="double the cap-deepening rounds before giving up")
    add_format(p)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("scan", help="feasibility grid over orders and degrees")
    add_poly(p)
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    add_format(p)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("verify", help="verify an operator against a pushforward")
    p.add_argument("--catalog", help="catalog key, e.g. h3")
    p.add_argument("--operator", help="path to an operator JSON file")
    add_poly(p)
    p.add_argument("--methods", default="symbolic,quadrature,mc")
    p.add_argument("--nodes", type=int, default=201)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("catalog", help="list or show catalog entries")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("key", nargs="?")
    add_format(p)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("conjecture", help="minimality scan for a Hermite pushforward")
    p.add_argument("--hermite", type=int, choices=[5, 6], required=True)
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    add_format(p)
    p.set_defaults(func=_cmd_conjecture)

    p = sub.add_parser("noncentral", help="noncentral chi-square operator and checks")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--lambda", type=float, required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    add_format(p)
    p.set_defaults(func=_cmd_noncentral)
    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> _Parser:
    """One parser per process: parse_args leaves the parser as it was."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "catalog" and args.action == "show" and not args.key:
            raise UsageError("catalog show requires a key")
        return args.func(args)
    except (UsageError, PolynomialSyntaxError, KeyError, FileNotFoundError,
            DerivationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
