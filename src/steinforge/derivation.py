"""Derive polynomial-coefficient Stein operators by exact linear feasibility.

The single source of identities is Gaussian integration by parts,
E[Z g(Z)] = E[g'(Z)], applied to g(z) = z^(k-1) f^(j)(P(z)). Each identity
is a rational vector over terms E[Z^i f^(j)(W)]; an operator is admissible
when its term expansion lies in the exact span of the identities within the
search bounds, and the certificate records the multipliers that exhibit it.

Identities are triangular for the (derivative, z-power) order: the identity
indexed (k, j) is the only one whose largest term is (k + deg(P) - 2, j + 1).
Eliminating identity multipliers therefore reduces to back-substitution
(a no-fill pivot order for the homogeneous system), after which only a small
dense nullspace problem over the operator coefficients remains.

The caps never bind. Let p = deg(P) and reduce the image of x^d f^(m), whose
terms are (i, m) with i <= p*d, with caps I >= p*(m + d) and J >= m.
Reducing the term (i, j) uses identity (k, j - 1) with k = i - p + 2 and
creates terms (k, j - 1), (k - 2, j - 1) and (k - 1 + l, j) for l < p - 1.
- The derivative level never rises: new terms sit at level j or j - 1, so
  every level stays <= m <= J.
- For p >= 2, k <= i and k - 1 + l <= i - 1, so no reduction creates a
  z-power above the one it removes. Every reduced term has i <= p*d <= I,
  and max(k, i) = i <= I.
- For p = 1, P' is constant, so only (i + 1, j - 1) and (i - 1, j - 1) are
  created and i + j never rises. A reducible term (i, j) has j >= 1 and
  i + j <= m + d, so k = i + 1 <= m + d <= I.
Hence `_Reducer.reduce` never meets a cap. The normal form and multipliers
of a column are the same at the cell's default caps, at the caps of any
larger grid and at deepened caps, and deepening cannot change a status.

That makes a scan a column-subset problem: `minimal_scan` reduces each grid
column once, and cell (m, d) is feasible exactly when its columns are
linearly dependent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .operators import DiffOperator
from .poly import Polynomial, format_rational
from .terms import ExpectationVector, Term, term_order


class DerivationError(ValueError):
    pass


class DegeneratePushforward(DerivationError):
    """P is constant: W carries no randomness to integrate by parts."""


class InconsistentBounds(DerivationError):
    pass


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the feasibility search.

    max_order bounds the operator's derivative order, max_coeff_degree its
    coefficient degrees; z_power_cap and derivative_cap bound the term
    indices an identity may touch.
    """

    max_order: int
    max_coeff_degree: int
    z_power_cap: int
    derivative_cap: int

    def validate(self, P: Polynomial) -> None:
        if self.derivative_cap < self.max_order:
            raise InconsistentBounds("derivative cap below operator order")
        if self.z_power_cap < P.degree * self.max_coeff_degree:
            raise InconsistentBounds("z-power cap below coefficient reach")

    def to_dict(self) -> dict:
        return {"M": self.max_order, "D": self.max_coeff_degree,
                "I": self.z_power_cap, "J": self.derivative_cap}


def default_bounds(P: Polynomial, max_order: int, max_coeff_degree: int) -> SearchBounds:
    p = P.degree
    return SearchBounds(
        max_order=max_order,
        max_coeff_degree=max_coeff_degree,
        z_power_cap=p * (max_coeff_degree + max_order),
        derivative_cap=max_order,
    )


@dataclass(frozen=True)
class Certificate:
    """Rational multipliers proving image(operator) = sum of identities."""

    multipliers: dict[tuple[int, int], Fraction]

    def to_dict(self) -> dict:
        return {"multipliers": [
            {"k": k, "j": j, "value": format_rational(v)}
            for (k, j), v in sorted(self.multipliers.items())
        ]}


@dataclass(frozen=True)
class DerivationResult:
    status: str  # found | infeasible-at-bounds | degenerate
    poly: Polynomial
    bounds_used: SearchBounds
    operator: Optional[DiffOperator] = None
    certificate: Optional[Certificate] = None
    nullspace_dim: int = 0
    basis: tuple[DiffOperator, ...] = ()

    @property
    def found(self) -> bool:
        return self.status == "found"

    def to_dict(self) -> dict:
        out: dict = {
            "status": self.status,
            "poly": self.poly.to_strings(),
            "bounds": self.bounds_used.to_dict(),
            "operator": self.operator.to_dict() if self.operator else None,
            "certificate": self.certificate.to_dict() if self.certificate else None,
            "nullspace_dim": self.nullspace_dim,
        }
        if len(self.basis) > 1:
            out["basis"] = [op.to_dict() for op in self.basis]
        return out


def ibp_identity(k: int, j: int, P: Polynomial) -> ExpectationVector:
    """Integration-by-parts identity for g(z) = z^(k-1) f^(j)(P(z)).

    Returns T(k,j) - (k-1) T(k-2,j) - sum_l c_l T(k-1+l, j+1), where the c_l
    are the coefficients of P'; the returned vector has expectation zero for
    every f smooth with polynomially bounded derivatives.
    """
    if k < 1:
        raise DerivationError("k must be positive")
    if j < 0:
        raise DerivationError("j must be nonnegative")
    if P.degree < 1:
        raise DegeneratePushforward("P is constant")
    items: list[tuple[Term, Fraction]] = [((k, j), Fraction(1))]
    if k >= 2:
        items.append(((k - 2, j), Fraction(-(k - 1))))
    for l, c in enumerate(P.derivative().coeffs):
        if c != 0:
            items.append(((k - 1 + l, j + 1), -c))
    return ExpectationVector(items)


def operator_image(op: DiffOperator, P: Polynomial) -> ExpectationVector:
    """Expand E[sum_m p_m(W) f^(m)(W)] into terms via W^d = P(Z)^d."""
    items: list[tuple[Term, Fraction]] = []
    for m, pm in enumerate(op.coefficients):
        for d, q in enumerate(pm.coeffs):
            if q == 0:
                continue
            power = Polynomial.monomial(d).compose(P)
            for i, e in enumerate(power.coeffs):
                if e != 0:
                    items.append(((i, m), q * e))
    return ExpectationVector(items)


class _Reducer:
    """Back-substitution over the triangular identity family within caps."""

    def __init__(self, P: Polynomial, z_power_cap: int, derivative_cap: int):
        self.P = P
        self.deg = P.degree
        self.dcoeffs = P.derivative().coeffs
        self.lead = self.dcoeffs[-1]  # = deg(P) * lc(P), nonzero
        self.z_power_cap = z_power_cap
        self.derivative_cap = derivative_cap

    def rule_index(self, t: Term) -> Optional[tuple[int, int]]:
        """Identity whose largest term is t, if that identity is within caps."""
        i, j = t
        if j < 1 or j > self.derivative_cap:
            return None
        k = i - self.deg + 2
        if k < 1:
            return None
        if max(k, i) > self.z_power_cap:
            return None
        return (k, j - 1)

    def reduce(self, vec: ExpectationVector):
        """Return (normal form, multipliers) with vec = NF + sum(mult * identity)."""
        levels: dict[int, dict[int, Fraction]] = {}
        for (i, j), c in vec.as_dict().items():
            levels.setdefault(j, {})[i] = c
        multipliers: dict[tuple[int, int], Fraction] = {}

        def add(i: int, j: int, c: Fraction) -> None:
            lvl = levels.setdefault(j, {})
            s = lvl.get(i, Fraction(0)) + c
            if s == 0:
                lvl.pop(i, None)
            else:
                lvl[i] = s

        max_level = max(levels, default=0)
        for j in range(max_level, 0, -1):
            lvl = levels.get(j, {})
            while True:
                reducible = [i for i in lvl if self.rule_index((i, j)) is not None]
                if not reducible:
                    break
                i = max(reducible)
                coeff = lvl.pop(i)
                k, jj = self.rule_index((i, j))
                lam = coeff / (-self.lead)
                multipliers[(k, jj)] = multipliers.get((k, jj), Fraction(0)) + lam
                # subtract lam * identity(k, jj); its (i, j) entry cancels exactly
                add(k, jj, -lam)
                if k >= 2:
                    add(k - 2, jj, lam * (k - 1))
                for l, c in enumerate(self.dcoeffs[:-1]):
                    if c != 0:
                        add(k - 1 + l, j, lam * c)
        nf = ExpectationVector(
            {(i, j): c for j, lvl in levels.items() for i, c in lvl.items()})
        multipliers = {kj: v for kj, v in multipliers.items() if v != 0}
        return nf, multipliers


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row echelon form; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    rows = [row for row in rows if any(v != 0 for v in row)]
    rows, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def _normalize_q(q: list[Fraction]) -> tuple[list[Fraction], Fraction]:
    """Scale to coprime integers with the sign convention; returns (q, factor)."""
    denom_lcm = 1
    num_gcd = 0
    for v in q:
        if v != 0:
            denom_lcm = denom_lcm * v.denominator // math.gcd(denom_lcm, v.denominator)
            num_gcd = math.gcd(num_gcd, abs(v.numerator))
    if num_gcd == 0:
        raise DerivationError("zero operator cannot be normalized")
    factor = Fraction(denom_lcm, num_gcd)
    return [v * factor for v in q], factor


def _apply_sign_convention(op: DiffOperator):
    """Sign so the order-0 coefficient has a negative leading coefficient,
    falling back to a positive leading coefficient of the first nonzero one."""
    p0 = op.coefficients[0]
    if not p0.is_zero:
        flip = p0.leading_coefficient > 0
    else:
        first = next(p for p in op.coefficients if not p.is_zero)
        flip = first.leading_coefficient < 0
    return (op.scaled(-1), Fraction(-1)) if flip else (op, Fraction(1))


def _reduced_column(reducer: _Reducer, P: Polynomial, m: int, d: int) -> dict[Term, Fraction]:
    """Normal form of the image of the basis operator x^d f^(m)."""
    nf, _ = reducer.reduce(
        operator_image(DiffOperator.single(m, Polynomial.monomial(d)), P))
    return nf.as_dict()


def _solve_at_bounds(P: Polynomial, bounds: SearchBounds) -> DerivationResult:
    M, D = bounds.max_order, bounds.max_coeff_degree
    reducer = _Reducer(P, bounds.z_power_cap, bounds.derivative_cap)
    columns = [(m, d) for m in range(M + 1) for d in range(D + 1)]
    reduced: list[dict[Term, Fraction]] = []
    row_support: set[Term] = set()
    for m, d in columns:
        entries = _reduced_column(reducer, P, m, d)
        reduced.append(entries)
        row_support.update(entries)

    row_terms = sorted(row_support, key=term_order)
    matrix = [[reduced[c].get(t, Fraction(0)) for c in range(len(columns))]
              for t in row_terms]
    basis = _nullspace(matrix, len(columns))
    if not basis:
        return DerivationResult(status="infeasible-at-bounds", poly=P,
                                bounds_used=bounds)

    # canonical reduced basis over the operator coordinates, then the vector
    # with lexicographically smallest support
    basis, _ = _rref([list(v) for v in basis])
    basis = [v for v in basis if any(c != 0 for c in v)]

    def support_key(vec):
        return tuple(i for i, v in enumerate(vec) if v != 0)

    chosen = min(basis, key=support_key)
    chosen, _ = _normalize_q(chosen)

    def build(vec) -> DiffOperator:
        polys = []
        for m in range(M + 1):
            polys.append(Polynomial(vec[m * (D + 1):(m + 1) * (D + 1)]))
        return DiffOperator(tuple(polys))

    op = build(chosen)
    op, _ = _apply_sign_convention(op)
    nf, multipliers = reducer.reduce(operator_image(op, P))
    if not nf.is_zero:
        raise AssertionError("reduction of an admissible operator must vanish")
    basis_ops = []
    for vec in basis:
        vec_scaled, _ = _normalize_q(list(vec))
        bop, _ = _apply_sign_convention(build(vec_scaled))
        basis_ops.append(bop)
    return DerivationResult(
        status="found", poly=P, bounds_used=bounds, operator=op,
        certificate=Certificate(multipliers), nullspace_dim=len(basis),
        basis=tuple(basis_ops))


def derive_operator(P: Polynomial, max_order: int, max_coeff_degree: int,
                    bounds: Optional[SearchBounds] = None,
                    deepen_rounds: int = 2) -> DerivationResult:
    """Search for a nonzero operator of order <= max_order with coefficient
    degrees <= max_coeff_degree whose expectation vanishes for W = P(Z).

    With explicit `bounds` exactly one solve runs at those caps. Otherwise
    the default caps are used and, on infeasibility, the caps are deepened
    (first the z-power cap, then the derivative cap, repeated per round)
    before infeasible-at-bounds is reported. Infeasibility is relative to
    the searched family, never a nonexistence proof.
    """
    if max_order < 0 or max_coeff_degree < 0:
        raise DerivationError("order and degree bounds must be nonnegative")
    if P.degree <= 0:
        # W = c almost surely: (x - c) f(x) annihilates with no identities
        op = DiffOperator((Polynomial((-P(0), 1)),))
        return DerivationResult(
            status="degenerate", poly=P,
            bounds_used=SearchBounds(0, 1, 0, 0),
            operator=op, certificate=Certificate({}), nullspace_dim=1,
            basis=(op,))

    if bounds is not None:
        bounds.validate(P)
        return _solve_at_bounds(P, bounds)

    p = P.degree
    current = default_bounds(P, max_order, max_coeff_degree)
    current.validate(P)
    result = _solve_at_bounds(P, current)
    rounds = 0
    while not result.found and rounds < deepen_rounds:
        if rounds % 2 == 0:
            current = SearchBounds(max_order, max_coeff_degree,
                                   current.z_power_cap + p * max_order,
                                   current.derivative_cap)
        else:
            current = SearchBounds(max_order, max_coeff_degree,
                                   current.z_power_cap,
                                   current.derivative_cap + 2)
        result = _solve_at_bounds(P, current)
        rounds += 1
    return result


def verify_certificate(result: DerivationResult, P: Polynomial) -> bool:
    """Exact replay: sum(multiplier * identity) must equal the operator image."""
    if result.operator is None or result.certificate is None:
        raise DerivationError("result carries no operator/certificate")
    if P.degree == 0:
        return operator_image(result.operator, P).is_zero and \
            not result.certificate.multipliers
    total = ExpectationVector()
    for (k, j), lam in result.certificate.multipliers.items():
        total = total + ibp_identity(k, j, P).scaled(lam)
    return total == operator_image(result.operator, P)


@dataclass(frozen=True)
class ScanResult:
    poly: Polynomial
    max_order: int
    max_coeff_degree: int
    grid: dict[tuple[int, int], str]
    minimal: Optional[tuple[int, int]]
    result: Optional[DerivationResult]

    @property
    def leading_coefficient(self) -> Optional[Polynomial]:
        if self.result is None or self.result.operator is None:
            return None
        return self.result.operator.coefficients[-1]

    def to_dict(self) -> dict:
        return {
            "poly": self.poly.to_strings(),
            "max_order": self.max_order,
            "max_coeff_degree": self.max_coeff_degree,
            "grid": [{"order": m, "degree": d, "status": s}
                     for (m, d), s in sorted(self.grid.items())],
            "minimal": list(self.minimal) if self.minimal else None,
            "result": self.result.to_dict() if self.result else None,
            "leading_coefficient":
                self.leading_coefficient.to_strings()
                if self.leading_coefficient else None,
        }


# A 31-bit prime: residues and their pairwise products fit in numpy.int64.
_PRIME = 2_147_483_647


def _first_uncertain_column(columns: list[dict[Term, Fraction]]) -> int:
    """Index of the first column that depends on the earlier ones mod _PRIME,
    or that has a denominator divisible by _PRIME; len(columns) if none does.

    Every shorter prefix has full column rank over Q: a minor that is
    nonzero mod p is nonzero over Q.
    """
    p = _PRIME
    rows = {t: r for r, t in enumerate({t for col in columns for t in col})}
    a = np.zeros((len(rows), len(columns)), dtype=np.int64)
    limit = len(columns)
    for c, col in enumerate(columns):
        if any(v.denominator % p == 0 for v in col.values()):
            limit = c
            break
        for t, v in col.items():
            a[rows[t], c] = v.numerator * pow(v.denominator, -1, p) % p
    r = 0
    for c in range(limit):
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            return c
        pivot = r + int(nonzero[0])
        a[[r, pivot]] = a[[pivot, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        a[r + 1:] = (a[r + 1:] - np.outer(a[r + 1:, c], a[r])) % p
        r += 1
    return limit


def minimal_scan(P: Polynomial, max_order: int, max_coeff_degree: int) -> ScanResult:
    """Feasibility status of every (order, degree) cell plus the first found
    cell in order-then-degree lexicographic order, with its full result.

    Each grid column x^d f^(m) is reduced once, at the grid's caps (the caps
    never bind, see the module docstring). Cell (m, d) is then the column
    subset m' <= m, d' <= d, and it is feasible exactly when that subset is
    linearly dependent. Cells are decided in lexicographic order:
    - a cell above a found cell is found: the smaller cell's operator works;
    - a cell whose columns have full rank mod _PRIME is infeasible;
    - any other cell is solved exactly by `derive_operator`.
    The residue rank only rules cells out, and only where that is certain.
    """
    if P.degree < 1:
        raise DegeneratePushforward("P is constant")
    M, D = max_order, max_coeff_degree
    reducer = _Reducer(P, P.degree * (M + D), M)
    reduced = {(m, d): _reduced_column(reducer, P, m, d)
               for m in range(M + 1) for d in range(D + 1)}
    grid: dict[tuple[int, int], str] = {}
    found: list[tuple[int, int]] = []
    minimal = None
    result = None
    for m in range(M + 1):
        # order <= m columns by degree, so cell (m, d) is a prefix
        columns = [(mm, d) for d in range(D + 1) for mm in range(m + 1)]
        first = _first_uncertain_column([reduced[c] for c in columns])
        full_rank_below = columns[first][1] if first < len(columns) else D + 1
        for d in range(D + 1):
            if any(fm <= m and fd <= d for fm, fd in found):
                status = "found"
            elif d < full_rank_below:
                status = "infeasible-at-bounds"
            else:
                outcome = derive_operator(P, m, d)
                status = outcome.status
                if outcome.found and result is None:
                    minimal, result = (m, d), outcome
            if status == "found":
                found.append((m, d))
            grid[(m, d)] = status
    return ScanResult(poly=P, max_order=max_order,
                      max_coeff_degree=max_coeff_degree,
                      grid=grid, minimal=minimal, result=result)


@dataclass(frozen=True)
class LeadingCoefficientReport:
    proportional: bool
    ratio: Optional[Fraction]

    def to_dict(self) -> dict:
        return {"proportional": self.proportional,
                "ratio": format_rational(self.ratio) if self.ratio is not None else None}


def leading_coefficient_report(result: DerivationResult,
                               conjecture: Polynomial) -> LeadingCoefficientReport:
    """Is the found operator's top coefficient a rational multiple of `conjecture`?"""
    if result.operator is None:
        raise DerivationError("no operator in result")
    if conjecture.is_zero:
        raise DerivationError("conjecture polynomial must be nonzero")
    lead = result.operator.coefficients[-1]
    if lead.degree != conjecture.degree:
        return LeadingCoefficientReport(False, None)
    ratio = lead.leading_coefficient / conjecture.leading_coefficient
    if conjecture * ratio == lead:
        return LeadingCoefficientReport(True, ratio)
    return LeadingCoefficientReport(False, None)
