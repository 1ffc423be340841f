#!/usr/bin/env python3
"""Map the feasibility frontier (operator order vs coefficient degree).

For each pushforward this prints the full grid of found/infeasible cells,
the dimension of the solution space in the found cells, and the factored
leading coefficient at the first-found cell. The striking pattern: lower
order is purchasable with higher coefficient degree, and every leading
coefficient vanishes at the distribution's fold points (the local extrema
values of the pushforward polynomial), which is where a lower-order ODE for
the density can degenerate.

Usage: order_degree_frontier.py [hermite_index | polynomial] [max_order] [max_degree]

A bare integer selects that Hermite polynomial; anything else is parsed as
polynomial text, e.g. `order_degree_frontier.py "x^3+x^2" 8 6` for the
shifted cubic where combining powers of Z into powers of W is hardest.
"""
from __future__ import annotations

import sys

from steinforge.cli import parse_polynomial
from steinforge.derivation import derive_operator, minimal_scan
from steinforge.poly import hermite
from steinforge.verify import verify_symbolic


def main() -> None:
    spec = sys.argv[1] if len(sys.argv) > 1 else "3"
    if spec.isdigit():
        P = hermite(int(spec))
        label = f"Hermite index {spec}, P = {P}"
        default_order = 5 if int(spec) <= 4 else 10
    else:
        P = parse_polynomial(spec)
        label = f"P = {P}"
        default_order = 8
    max_order = int(sys.argv[2]) if len(sys.argv) > 2 else default_order
    max_degree = int(sys.argv[3]) if len(sys.argv) > 3 else 6
    print(f"pushforward: {label}")
    print(f"grid: orders 0..{max_order}, degrees 0..{max_degree}\n")
    header = "order\\deg " + " ".join(f"{d:>5d}" for d in range(max_degree + 1))
    print(header)
    scan = minimal_scan(P, max_order, max_degree)
    for m in range(max_order + 1):
        row = [f"{m:>9d}"]
        for d in range(max_degree + 1):
            if scan.grid[(m, d)] == "found":
                dim = derive_operator(P, m, d).nullspace_dim
                row.append(f"dim{dim:>2d}")
            else:
                row.append("    .")
        print(" ".join(row))
    if scan.minimal is None:
        print("\nno operator in the searched family")
        return
    (m, d), r = scan.minimal, scan.result
    print(f"\nfirst found cell: order {m}, degree {d}")
    print(f"operator: {r.operator.latex()}")
    print(f"leading coefficient: {r.operator.coefficients[-1]}")
    ok = verify_symbolic(r.operator, P, 30).passed
    print(f"exact annihilation to degree 30: {ok}")


if __name__ == "__main__":
    main()
