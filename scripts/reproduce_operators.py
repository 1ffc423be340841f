#!/usr/bin/env python3
"""Re-derive every cataloged operator from scratch and print the comparison.

Each derivation is a pure exact-linear-algebra search; the printed ratio is
the exact rational factor between the derived operator and the cataloged one.
"""
from __future__ import annotations

import json

from steinforge.catalog import catalog, quadratic_operator
from steinforge.derivation import derive_operator, verify_certificate
from steinforge.operators import proportional_eq
from steinforge.poly import Polynomial, hermite


def main() -> None:
    cases = [
        ("normal", Polynomial([0, 1]), 1, 1, catalog("normal").operator),
        ("centered-chi2", Polynomial([-1, 0, 1]), 1, 1,
         catalog("centered-chi2").operator),
        ("h3", hermite(3), 5, 2, catalog("h3").operator),
        ("h4", hermite(4), 3, 2, catalog("h4").operator),
        ("quadratic(1,2,1)", Polynomial([1, 2, 1]), 2, 1,
         quadratic_operator(1, 2, 1)),
        ("quadratic(1,-3,0)", Polynomial([0, -3, 1]), 2, 1,
         quadratic_operator(1, -3, 0)),
    ]
    rows = []
    for name, P, order, degree, reference in cases:
        result = derive_operator(P, order, degree)
        equal, ratio = proportional_eq(result.operator, reference)
        rows.append({
            "case": name,
            "status": result.status,
            "order": result.operator.order,
            "matches_reference": equal,
            "ratio": str(ratio) if ratio is not None else None,
            "certificate_verifies": verify_certificate(result, P),
            "operator": result.operator.latex(),
        })
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
