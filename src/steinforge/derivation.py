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
dense nullspace problem over the operator coefficients remains. `_reduce`
does it in one sweep, with no caps. Its normal form holds no leading term of
any identity, so an image lies in the span of the identities exactly when
its normal form is zero.

Every identity the sweep uses lies within the cell's default caps. Let
p = deg(P) and reduce the image of x^d f^(m), m <= M and d <= D, whose terms
are (i, m) with i <= p*d; the caps are I = p*(M + D) and J = M. Cancelling
the term (i, j) uses identity (k, j - 1) with k = i - p + 2, whose largest
term is (k + p - 2, j) = (i, j), and creates terms (k, j - 1), (k - 2, j - 1)
and (k - 1 + l, j) for l < p - 1.
- The derivative level never rises, so j - 1 < m <= J.
- For p >= 2, k <= i and k - 1 + l <= i - 1, so no step creates a z-power
  above the one it removes. Every cancelled term has i <= p*d <= I, and
  max(k, k + p - 2) = i <= I.
- For p = 1, P' is constant, so only (i + 1, j - 1) and (i - 1, j - 1) are
  created and i + j never rises. A cancelled term (i, j) has j >= 1 and
  i + j <= m + d, so max(k, k - 1) = i + 1 <= m + d <= I.
The sweep is linear, so an operator of the cell uses only those identities
too. A search restricted to the identities within the default caps, or
within any larger caps (those of a grid, or the deepened caps an infeasible
payload echoes), therefore decides every cell as the sweep does, and
deepening cannot change a status.

So one exact solver, `_solve_cell`, decides a cell from its reduced columns.
`derive_operator` reduces the cell's columns and solves once. `minimal_scan`
reduces each grid column once; cell (m, d) is then a column subset, feasible
exactly when those columns are linearly dependent, and only the cells that a
rank test mod a prime cannot rule out reach the exact kernel.

The exact kernel needs no rational Gauss-Jordan on the tall matrix. Each
row is cleared of denominators, and one elimination modulo the prime
p = 2^31 - 1 picks r pivot rows and columns. Rank mod p <= rank over Q, so
a cell with no free column mod p is infeasible for certain. Otherwise
fraction-free Bareiss elimination on the r x r pivot minor gives one
integer vector per free column, and an exact check A v = 0 on every row
gates them: k independent kernel vectors, when the nullity is at most
k = ncols - r, span the kernel. A vector that fails the check shows rank
over Q above r, and the Fraction `_nullspace` decides the cell instead.
The reduced row echelon basis of the kernel is unique, so the operator and
basis reported do not depend on which vectors spanned it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional

import numpy as np

from .gaussian import _poly_power
from .operators import DiffOperator, normalize_operator
from .poly import Polynomial, format_rational
from .terms import ExpectationVector, Term, term_order


class DerivationError(ValueError):
    pass


class DegeneratePushforward(DerivationError):
    """P is constant: W carries no randomness to integrate by parts."""


@dataclass(frozen=True)
class SearchBounds:
    """Caps for the feasibility search.

    max_order bounds the operator's derivative order, max_coeff_degree its
    coefficient degrees; z_power_cap and derivative_cap name the identity
    family a result covers: identity (k, j) is in it when j < derivative_cap
    and max(k, k + deg(P) - 2) <= z_power_cap.
    """

    max_order: int
    max_coeff_degree: int
    z_power_cap: int
    derivative_cap: int

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
            for i, e in enumerate(_poly_power(P, d).coeffs):
                if e != 0:
                    items.append(((i, m), q * e))
    return ExpectationVector(items)


def _reduce(P: Polynomial, terms: dict[Term, Fraction]):
    """Return (normal form, multipliers) with terms = NF + sum(mult * identity).

    Each derivative level is a dense list. The sweep runs from the top level
    down to 1 and, within a level, from the highest z-power down to p - 1
    (p = deg P), cancelling the entry (i, j) with identity (k, j - 1),
    k = i - p + 2. That identity adds only to level j below z-power i and to
    level j - 1, so no entry is touched after it is cancelled and each
    identity is used at most once. For p = 1, k = i + 1: every level down
    may reach one z-power higher, so the lists are padded by the number of
    levels. The normal form is level 0 and the z-powers below p - 1 of the
    other levels; the entries from p - 1 up keep their cancelled values and
    are left out.
    """
    p = P.degree
    dcoeffs = P.derivative().coeffs
    lead = dcoeffs[-1]  # = deg(P) * lc(P), nonzero
    top = max((j for _, j in terms), default=0)
    width = max((i for i, _ in terms), default=0) + 1 + (top if p == 1 else 0)
    levels = [[0] * width for _ in range(top + 1)]
    for (i, j), c in terms.items():
        levels[j][i] = c
    multipliers: dict[tuple[int, int], Fraction] = {}
    for j in range(top, 0, -1):
        level, below = levels[j], levels[j - 1]
        for i in range(width - 1, p - 2, -1):
            c = level[i]
            if not c:
                continue
            k = i - p + 2
            lam = c / -lead
            multipliers[(k, j - 1)] = lam
            # subtract lam * identity(k, j - 1); its (i, j) entry cancels c
            below[k] -= lam
            if k >= 2:
                below[k - 2] += lam * (k - 1)
            for l, a in enumerate(dcoeffs[:-1]):
                if a:
                    level[k - 1 + l] += lam * a
    nf = {(i, j): c for j, level in enumerate(levels)
          for i, c in enumerate(level if j == 0 else level[:p - 1]) if c}
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


# A 31-bit prime: residues and their pairwise products fit in numpy.int64.
_PRIME = 2_147_483_647


def _integer_rows(columns: list[dict[Term, Fraction]]) -> list[list[int]]:
    """The matrix of `columns`, one row per term in term order, each row
    multiplied by the lcm of its denominators. Scaling a row keeps every
    dependency among the columns, so this integer matrix has the same kernel
    as the rational one, for any subset of its columns."""
    entries: dict[Term, list[tuple[int, Fraction]]] = {}
    for c, col in enumerate(columns):
        for t, v in col.items():
            entries.setdefault(t, []).append((c, v))
    rows = []
    for t in sorted(entries, key=term_order):
        scale = math.lcm(*[v.denominator for _, v in entries[t]])
        row = [0] * len(columns)
        for c, v in entries[t]:
            row[c] = v.numerator * (scale // v.denominator)
        rows.append(row)
    return rows


def _residues(rows: list[list[int]], ncols: int) -> np.ndarray:
    p = _PRIME
    return np.array([[v % p for v in row] for row in rows],
                    dtype=np.int64).reshape(len(rows), ncols)


def _residue_pivots(a: np.ndarray):
    """Gaussian elimination of the residue matrix `a` mod _PRIME, in place,
    one column at a time. Yields (column, row) per column: the index in `a`
    of the row that pivots the column, or None when the column depends on
    the earlier ones mod _PRIME.

    The pivot rows and columns seen so far index a minor whose leading
    principal minors, in pivot order, are all nonzero mod p, hence nonzero
    over Q.
    """
    p = _PRIME
    order = np.arange(a.shape[0])
    r = 0
    for c in range(a.shape[1]):
        nonzero = np.flatnonzero(a[r:, c])
        if nonzero.size == 0:
            yield c, None
            continue
        pivot = r + int(nonzero[0])
        a[[r, pivot]] = a[[pivot, r]]
        order[[r, pivot]] = order[[pivot, r]]
        factors = a[r + 1:, c] * pow(int(a[r, c]), -1, p) % p
        a[r + 1:, c:] = (a[r + 1:, c:] - np.outer(factors, a[r, c:])) % p
        yield c, int(order[r])
        r += 1


def _bareiss_kernel(rows: list[list[int]], ncols: int,
                    pivots: list[tuple[int, int]],
                    free: list[int]) -> list[list[int]]:
    """One candidate kernel vector of `rows` per free column f, in integers.

    `pivots` are the (row, column) pairs of `_residue_pivots`, whose minor is
    nonsingular with nonzero leading principal minors. Fraction-free Bareiss
    elimination (Bareiss 1968) triangulates that minor with every -rows[:, f]
    as a right-hand side; then det * x is integral by Cramer's rule, so back
    substitution divides exactly. Each vector carries det at f and det * x
    at the pivot columns, divided by the gcd of its entries. It satisfies
    the pivot rows; whether it satisfies the others is the caller's check.
    """
    n = len(pivots)
    pivot_cols = [c for _, c in pivots]
    m = [[rows[i][c] for c in pivot_cols] + [-rows[i][f] for f in free]
         for i, _ in pivots]
    prev = 1
    for k in range(n):
        top = m[k]
        lead = top[k]
        for row in m[k + 1:]:
            f = row[k]
            row[k + 1:] = [(lead * x - f * y) // prev
                           for x, y in zip(row[k + 1:], top[k + 1:])]
        prev = lead
    det = prev
    vectors = []
    for j, fc in enumerate(free):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            s = det * row[n + j] - sum(map(mul, row[i + 1:n], y[i + 1:]))
            y[i] = s // row[i]
        vec = [0] * ncols
        for c, v in zip(pivot_cols, y):
            vec[c] = v
        vec[fc] = det
        g = math.gcd(*vec)
        vectors.append([v // g for v in vec])
    return vectors


def _annihilates(rows: list[list[int]], vec: list[int]) -> bool:
    support = [(c, v) for c, v in enumerate(vec) if v]
    return all(sum(row[c] * v for c, v in support) == 0 for row in rows)


def _exact_kernel(rows: list[list[int]], ncols: int,
                  first_only: bool = False) -> list[list]:
    """Vectors spanning the kernel of the integer matrix `rows`; with
    `first_only`, one nonzero kernel vector if there is one. [] means the
    kernel is zero.

    One elimination mod _PRIME picks r pivot rows and columns. With no free
    column the columns have full rank mod p, hence over Q (rank mod p <=
    rank over Q), and the kernel is zero. Otherwise `_bareiss_kernel` gives
    one vector per free column, and an exact integer check A v = 0 on every
    row gates them: k = ncols - r vectors that pass are independent (each
    has a nonzero entry at its own free column only), and the nullity is at
    most k, so they span the kernel. A vector that fails shows rank over Q
    above r; then `_nullspace` decides.
    """
    # Eliminating from the last column (highest order and degree) first
    # keeps the leading minors, which bound every Bareiss entry, smaller in
    # the early steps: on H7's frontier cells they stay under 1200 bits for
    # the first 90 of 127 steps, where the natural order passes 2000 bits by
    # step 45, and the five solves take 2.5 s instead of 6.6 s.
    pivots, free = [], []
    for c, r in _residue_pivots(_residues(rows, ncols)[:, ::-1]):
        if r is None:
            free.append(ncols - 1 - c)
        else:
            pivots.append((r, ncols - 1 - c))
    if not free:
        return []
    vectors = _bareiss_kernel(rows, ncols, pivots,
                              free[:1] if first_only else free)
    if all(_annihilates(rows, v) for v in vectors):
        return vectors
    return _nullspace([[Fraction(v) for v in row] for row in rows], ncols)


def _reduced_column(P: Polynomial, m: int, d: int) -> dict[Term, Fraction]:
    """Normal form of the image of the basis operator x^d f^(m): the
    coefficients of P^d on level m, reduced."""
    nf, _ = _reduce(P, {(i, m): e for i, e in enumerate(_poly_power(P, d).coeffs)
                        if e})
    return nf


def _cell_rows(reduced: dict[tuple[int, int], dict[Term, Fraction]],
               M: int, D: int) -> list[list[int]]:
    return _integer_rows([reduced[(m, d)] for m in range(M + 1)
                          for d in range(D + 1)])


def _solve_cell(P: Polynomial, reduced: dict[tuple[int, int], dict[Term, Fraction]],
                bounds: SearchBounds) -> Optional[DerivationResult]:
    """Exact solve of cell (M, D) = (bounds.max_order, bounds.max_coeff_degree).

    `reduced` maps (m, d) to the normal form of x^d f^(m) for at least every
    m <= M, d <= D. `_exact_kernel` decides the cell on the integer form of
    those columns. Returns the found result, with the certificate replayed
    through `_reduce`, or None when the cell's columns are independent.
    """
    M, D = bounds.max_order, bounds.max_coeff_degree
    kernel = _exact_kernel(_cell_rows(reduced, M, D), (M + 1) * (D + 1))
    if not kernel:
        return None

    # canonical reduced basis over the operator coordinates (unique for the
    # kernel, whichever vectors span it), then the vector with
    # lexicographically smallest support
    basis, _ = _rref([[Fraction(v) for v in vec] for vec in kernel])

    def support_key(vec):
        return tuple(i for i, v in enumerate(vec) if v != 0)

    def build(vec) -> DiffOperator:
        return normalize_operator(DiffOperator(tuple(
            Polynomial(vec[m * (D + 1):(m + 1) * (D + 1)]) for m in range(M + 1))))

    op = build(min(basis, key=support_key))
    nf, multipliers = _reduce(P, operator_image(op, P).as_dict())
    if nf:
        raise AssertionError("reduction of an admissible operator must vanish")
    return DerivationResult(
        status="found", poly=P, bounds_used=bounds, operator=op,
        certificate=Certificate(multipliers), nullspace_dim=len(basis),
        basis=tuple(build(vec) for vec in basis))


def derive_operator(P: Polynomial, max_order: int, max_coeff_degree: int,
                    deepen_rounds: int = 2) -> DerivationResult:
    """Search for a nonzero operator of order <= max_order with coefficient
    degrees <= max_coeff_degree whose expectation vanishes for W = P(Z).

    One exact solve decides the cell: every identity the reduction uses lies
    within the default caps (module docstring), so a cell infeasible there
    is infeasible at any larger caps. An infeasible result echoes the caps
    that `deepen_rounds` rounds of cap deepening reach, the z-power cap
    grown by p*M on rounds 0, 2, ... and the derivative cap by 2 on rounds
    1, 3, ..., so its payload names the caps the search is known to cover
    at no extra solve.
    Infeasibility is relative to the searched family, never a nonexistence
    proof.
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

    bounds = default_bounds(P, max_order, max_coeff_degree)
    reduced = {(m, d): _reduced_column(P, m, d)
               for m in range(max_order + 1) for d in range(max_coeff_degree + 1)}
    result = _solve_cell(P, reduced, bounds)
    if result is not None:
        return result
    rounds = max(deepen_rounds, 0)
    deepened = SearchBounds(
        max_order, max_coeff_degree,
        bounds.z_power_cap + P.degree * max_order * ((rounds + 1) // 2),
        bounds.derivative_cap + 2 * (rounds // 2))
    return DerivationResult(status="infeasible-at-bounds", poly=P,
                            bounds_used=deepened)


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


def _first_uncertain_column(residues: np.ndarray) -> int:
    """Index of the first column that depends on the earlier ones mod
    _PRIME; the number of columns if none does.

    Every shorter prefix has full column rank over Q: a minor that is
    nonzero mod p is nonzero over Q.
    """
    return next((c for c, row in _residue_pivots(residues) if row is None),
                residues.shape[1])


def minimal_scan(P: Polynomial, max_order: int, max_coeff_degree: int) -> ScanResult:
    """Feasibility status of every (order, degree) cell plus the first found
    cell in order-then-degree lexicographic order, with its full result.

    Each grid column x^d f^(m) is reduced once. Cell (m, d) is then the column
    subset m' <= m, d' <= d, and it is feasible exactly when that subset is
    linearly dependent. Cells are decided in lexicographic order:
    - a cell above a found cell is found: the smaller cell's operator works;
    - a cell whose columns have full rank mod _PRIME is infeasible;
    - any other cell is decided by `_exact_kernel` on the grid's columns:
      until the first find by `_solve_cell`, as `derive_operator` solves it
      on the cell's own, and after it by one exact kernel vector, since a
      later cell needs only its status.
    The residue rank only rules cells out, and only where that is certain.
    """
    if max_order < 0 or max_coeff_degree < 0:
        raise DerivationError("order and degree bounds must be nonnegative")
    if P.degree < 1:
        raise DegeneratePushforward("P is constant")
    M, D = max_order, max_coeff_degree
    cells = [(m, d) for m in range(M + 1) for d in range(D + 1)]
    reduced = {c: _reduced_column(P, *c) for c in cells}
    residues = _residues(_integer_rows([reduced[c] for c in cells]), len(cells))
    grid: dict[tuple[int, int], str] = {}
    found: list[tuple[int, int]] = []
    minimal = None
    result = None
    for m in range(M + 1):
        # order <= m columns by degree, so cell (m, d) is a prefix
        columns = [(mm, d) for d in range(D + 1) for mm in range(m + 1)]
        first = _first_uncertain_column(
            residues[:, [mm * (D + 1) + d for mm, d in columns]])
        full_rank_below = columns[first][1] if first < len(columns) else D + 1
        for d in range(D + 1):
            if any(fm <= m and fd <= d for fm, fd in found):
                feasible = True
            elif d < full_rank_below:
                feasible = False
            elif result is None:
                result = _solve_cell(P, reduced, default_bounds(P, m, d))
                feasible = result is not None
                if feasible:
                    minimal = (m, d)
            else:
                feasible = bool(_exact_kernel(_cell_rows(reduced, m, d),
                                              (m + 1) * (d + 1), first_only=True))
            if feasible:
                found.append((m, d))
            grid[(m, d)] = "found" if feasible else "infeasible-at-bounds"
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
