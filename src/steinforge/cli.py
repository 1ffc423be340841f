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
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .catalog import catalog, catalog_keys, noncentral_chi2_operator
from .derivation import check_input, derive_operator, minimal_scan
from .operators import DiffOperator, proportional_eq
from .poly import Polynomial, hermite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_INTERNAL = 70


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


# Largest exponent in polynomial text. The parse builds a dense coefficient
# list as long as the exponent: on a 2-core x86_64 host x^1000 parses in
# 5 ms, x^100000 in 0.11 s and x^1000000 in 1.6 s with 70 MB over the
# interpreter's 29 MB, so a digit typo is refused instead of allocated.
MAX_EXPONENT = 1000

_TOKEN = re.compile(r"\s*(?:(?P<sign>[+-])|(?P<coef>\d+(?:/\d+)?)|(?P<x>x)|"
                    r"(?P<caret>\^)|(?P<other>\S))")


def parse_polynomial(text: str) -> Polynomial:
    """Parse signed terms `[coef][x[^exp]]` with integer or p/q coefficients.

    Whitespace is ignored everywhere; errors carry the offending position.
    The text is tokenized once; a run of signs folds into one, and after a
    term comes a sign or the end.
    """
    if not text or not text.strip():
        raise PolynomialSyntaxError("empty polynomial", 0)
    tokens = [(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup))
              for m in _TOKEN.finditer(text)]
    tokens.append((None, None, len(text.rstrip())))
    coeffs: dict[int, Fraction] = {}
    sign, expect_term, i = 1, True, 0
    while True:
        kind, value, at = tokens[i]
        i += 1
        if kind == "sign":
            if value == "-":
                sign = -sign
            expect_term = True
            continue
        if kind == "other":
            raise PolynomialSyntaxError(f"unexpected {value!r}", at)
        if kind == "caret":
            raise PolynomialSyntaxError("exponent without x", at)
        if not expect_term:
            if kind is None:
                break
            raise PolynomialSyntaxError("expected '+' or '-'", at)
        if kind is None:
            raise PolynomialSyntaxError("expected a term", at)
        coef, exp = Fraction(1), 0
        if kind == "coef":
            overlong = _overlong(value)
            if overlong:
                raise PolynomialSyntaxError(overlong, at)
            try:
                coef = Fraction(value)
            except ZeroDivisionError:
                raise PolynomialSyntaxError("zero denominator", at) from None
            if tokens[i][0] == "x":
                kind, i = "x", i + 1
        if kind == "x":
            exp = 1
            if tokens[i][0] == "caret":
                kind, value, at = tokens[i + 1]
                if kind != "coef" or "/" in value:
                    raise PolynomialSyntaxError("expected integer exponent", at)
                # more digits than MAX_EXPONENT has is above it, and int()
                # refuses a long enough run
                digits = value.lstrip("0") or "0"
                exp = int(digits) if len(digits) <= len(str(MAX_EXPONENT)) \
                    else MAX_EXPONENT + 1
                if exp > MAX_EXPONENT:
                    raise PolynomialSyntaxError(
                        f"exponent above {MAX_EXPONENT}", at)
                i += 2
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coef
        sign, expect_term = 1, False
    width = max(coeffs, default=0) + 1
    return Polynomial([coeffs.get(d, Fraction(0)) for d in range(width)])


# Longest integer, in digits, that input text may make int() or Fraction()
# build: the interpreter's default int/str conversion limit, fixed here
# because _head lifts the process limit while a payload is serialized.
MAX_DIGITS = 4300

_DIGIT_RUN = re.compile(r"\d+")
_EXPONENT = re.compile(r"[eE][+-]?0*(\d+)")


def _overlong(text: str) -> Optional[str]:
    """The error for a coefficient whose text has a run of digits longer
    than MAX_DIGITS, or an exponent e whose 10^|e| Fraction() would build
    that long, checked before it is parsed; None when there is none."""
    text = text.replace("_", "")  # Fraction() reads 1_000 as 1000
    exponent = _EXPONENT.search(text)
    if any(len(run) > MAX_DIGITS for run in _DIGIT_RUN.findall(text)) or (
            exponent and int(exponent[1]) >= MAX_DIGITS):
        return f"coefficient longer than {MAX_DIGITS} digits"
    return None


def _poly_from_args(args) -> Polynomial:
    if getattr(args, "coeffs", None):
        items = args.coeffs.split(",")
        for index, item in enumerate(items):
            overlong = _overlong(item)
            if overlong:
                raise UsageError(f"{overlong} at index {index} of --coeffs")
        try:
            return Polynomial([Fraction(c) for c in items])
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in --coeffs {args.coeffs}") from None
    if getattr(args, "poly", None):
        return parse_polynomial(args.poly)
    raise UsageError("a polynomial is required (--poly or --coeffs)")


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _tolerance(text: str) -> float:
    """A residual tolerance: positive and finite, since inf certifies anything."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be positive and finite: {text}")
    return value


def _emit(payload: dict, fmt: str, latex: Callable[[], str]) -> None:
    """Write the payload in `fmt`; `latex` renders the latex text, and is
    called for latex output only."""
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    elif fmt == "latex":
        sys.stdout.write(latex() + "\n")
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


def _operator_latex(result) -> str:
    """The latex text of a derive or scan result's operator, "" without one."""
    return result.operator.latex() if result and result.operator else ""


def _head(args) -> dict:
    """The head of a payload: the command and every option it was parsed
    with, in the parser's order, so the run replays from its output.

    Every command reads its inputs before it starts a payload, so from here
    on the interpreter's int/str digit limit is lifted and a finished result
    prints whole; main restores the limit when the command returns.
    """
    sys.set_int_max_str_digits(0)
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {"command": args.command, "config": config}


def _cmd_derive(args) -> int:
    P = _poly_from_args(args)
    deepen_rounds = 4 if args.deepen else 2
    result = derive_operator(P, args.order, args.degree,
                             deepen_rounds=deepen_rounds)
    payload = _head(args) | result.to_dict()
    _emit(payload, args.format, lambda: _operator_latex(result))
    return EXIT_OK if result.found else EXIT_INFEASIBLE


def _cmd_scan(args) -> int:
    P = _poly_from_args(args)
    check_input(P, args.max_order, args.max_degree)
    print(f"scanning orders 0..{args.max_order}, degrees 0..{args.max_degree}",
          file=sys.stderr)
    scan = minimal_scan(P, args.max_order, args.max_degree)
    payload = _head(args) | scan.to_dict()
    _emit(payload, args.format, lambda: _operator_latex(scan.result))
    return EXIT_OK if scan.minimal else EXIT_INFEASIBLE


def _cmd_verify(args) -> int:
    # lazy: derive, scan, conjecture and catalog load no numpy
    from .testfunctions import default_suite
    from .verify import verify_all
    if args.catalog:
        entry = catalog(args.catalog)
        op = entry.operator
        if op is None:
            raise UsageError(f"catalog entry {args.catalog!r} has no operator")
        P = entry.pushforward
    else:
        if not args.operator:
            raise UsageError("either --catalog or --operator is required")
        try:
            with open(args.operator) as fh:
                data = json.load(fh)
            for m, row in enumerate(data["coefficients"]):
                for d, item in enumerate(row):
                    overlong = isinstance(item, str) and _overlong(item)
                    if overlong:
                        raise UsageError(f"{overlong} at coefficients[{m}][{d}] "
                                         f"of {args.operator}")
            op = DiffOperator.from_dict(data)
        except UsageError:
            raise
        except (OSError, ValueError, LookupError, TypeError, ArithmeticError) as exc:
            raise UsageError(f"cannot read an operator from {args.operator}: "
                             f"{exc!r}") from None
        P = _poly_from_args(args)
    if P is None:
        raise UsageError("this entry has no polynomial pushforward to verify against")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    reports = verify_all(op, P, default_suite(), methods,
                         nodes=args.nodes, tol=args.tol,
                         samples=args.samples, seed=args.seed)
    payload = _head(args) | {"reports": [r.to_dict() for r in reports],
                             "pass": all(r.passed for r in reports)}
    _emit(payload, args.format, op.latex)
    return EXIT_OK if payload["pass"] else EXIT_VERIFY_FAIL


def _cmd_catalog(args) -> int:
    if args.action == "list":
        payload = {"command": "catalog", "keys": catalog_keys()}
        _emit(payload, args.format, lambda: "\n".join(catalog_keys()))
        return EXIT_OK
    entry = catalog(args.key)
    payload = _head(args) | entry.to_dict()
    has_operator = entry.operator is not None or entry.display_latex
    _emit(payload, args.format, lambda: entry.latex() if has_operator else "")
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    n = args.hermite
    P = hermite(n)
    row = catalog(f"table1({n})")
    conjectured = row.leading_coefficient
    check_input(P, args.max_order, args.max_degree)
    print(f"conjecture scan for Hermite order {n}: "
          f"orders 0..{args.max_order}, degrees 0..{args.max_degree}",
          file=sys.stderr)
    scan = minimal_scan(P, args.max_order, args.max_degree)
    payload = _head(args) | {"conjectured_leading": conjectured.to_strings(),
                             "scan": scan.to_dict()}
    payload["leading_comparison"] = payload["conjecture_divides_leading"] = None
    lead = scan.leading_coefficient
    if lead is not None:
        proportional, ratio = proportional_eq(DiffOperator.single(0, lead),
                                              DiffOperator.single(0, conjectured))
        payload["leading_comparison"] = {
            "proportional": proportional,
            "ratio": None if ratio is None else str(ratio)}
        payload["conjecture_divides_leading"] = conjectured.divides(lead)
    threshold = row.threshold_order
    found_below = [
        [m, d] for (m, d), status in scan.grid.items()
        if status == "found" and m < threshold]
    payload["threshold_order"] = threshold
    payload["found_below_threshold"] = sorted(found_below)
    _emit(payload, args.format, lambda: _operator_latex(scan.result))
    return EXIT_OK if scan.minimal else EXIT_INFEASIBLE


def _cmd_noncentral(args) -> int:
    # lazy, as in _cmd_verify
    from .noncentral import NoncentralParams
    from .verify import verify_noncentral_operator
    params = NoncentralParams(k=args.k, lam=getattr(args, "lambda"))
    op = noncentral_chi2_operator(args.k, getattr(args, "lambda"))
    payload = _head(args) | {"operator": op.to_dict(),
                             "mean": params.mean, "variance": params.variance}
    ok = True
    if args.verify:
        checks = verify_noncentral_operator(op, params, tol=args.tol)
        payload["density_checks"] = checks.to_dict()
        ok = payload["pass"] = checks.passed
    _emit(payload, args.format, op.latex)
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
    p.add_argument("--tol", type=_tolerance, default=1e-8)
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
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    add_format(p)
    p.set_defaults(func=_cmd_noncentral)
    return parser


@lru_cache(maxsize=None)
def _shared_parser() -> _Parser:
    """One parser per process: parse_args leaves the parser as it was."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    limit = sys.get_int_max_str_digits()
    try:
        args = _shared_parser().parse_args(argv)
        if args.command == "catalog" and args.action == "show" and not args.key:
            raise UsageError("catalog show requires a key")
        return args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
