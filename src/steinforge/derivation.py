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
does it in one integer sweep, with no caps. Its normal form holds no
leading term of any identity, so an image lies in the span of the
identities exactly when its normal form is zero.

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

The sweep runs in Python ints. With q the lcm of the denominators of P'
and a_l = q * (coefficient l of P'), L = a_(p-1), cancelling an entry c
divides it by -L exactly and then only multiplies and adds. The input is
scaled by its common denominator times L^E. Give the entry (i, j) the
potential phi = i + j for p >= 2, or i + 2j for p = 1: every term a
cancellation creates has a potential at least 1 below the cancelled one, so
an entry at phi has been divided by L at most phi_0 - phi times, phi_0 the
largest input potential. E = phi_0 + 1 (`_depth_bound`) therefore makes
every division exact, with 2 to spare, since cancelled entries have
phi >= 2. Each division is still checked, so a wrong bound raises rather
than giving a wrong normal form.

The identity (k, j) has the same coefficients at every level j, so the
sweep commutes with shifting all levels by one amount. `_grid_matrix`
reduces P^d from level M once and reads every column (m, d), m <= M, off
that sweep: its level 0 is level M - m just before that level is swept,
and its other levels are the residues of the levels above, shifted down by
M - m. D + 1 sweeps of M levels give the (M + 1)(D + 1) columns, all over
the one scale of degree D, written as ints straight into one matrix.

So one exact solver, `_solve_cell`, decides a cell from its rows, a column
selection of that matrix. `derive_operator` builds the cell's matrix and
solves once. `minimal_scan` builds the grid's matrix once; cell (m, d) is
then a column subset, feasible exactly when those columns are linearly
dependent, and only the cells that a rank test mod a prime cannot rule out
reach the exact kernel. No Fraction is made between `poly.power_table` and
the kernel.

The exact kernel needs no rational Gauss-Jordan on the tall matrix. Each
row of a cell is divided by its gcd, and one elimination modulo the prime
p = 2^31 - 1, in Python ints, picks r pivot rows and columns, taking the
columns last to first. Rank mod p <= rank over Q, so a cell with no free
column mod p is infeasible for certain. Otherwise fraction-free Bareiss
elimination on the r x r pivot minor gives one integer vector per free
column f: nonzero at f, zero at every other free column. An exact check on
every row gates them: A v = 0, and v zero at every column below f. Then the
k = ncols - r vectors are independent kernel vectors, and the nullity is at
most k, so they span the kernel. A vector that fails the check shows that
the residues lost rank, over the whole matrix or over the columns above f,
and the Fraction `_nullspace`, eliminating in the same order, decides the
cell instead.

So both paths give the kernel's basis in one canonical form, by
construction: in increasing leading column, each vector's leading column
is its own free column and every other vector is zero there. That is the
kernel's reduced row echelon basis up to the scale of each vector, and it
is unique, so the operator and basis reported do not depend on the path;
`normalize_operator` fixes each scale. The first vector has the smallest
leading column, hence the lexicographically smallest support.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional

from .operators import DiffOperator, normalize_operator
from .poly import Polynomial, power_table
from .terms import ExpectationVector, Term


class DerivationError(ValueError):
    pass


# Largest order or coefficient-degree bound of a derive or scan. The grid
# matrix's sweep allocates M + 1 levels per degree, each as wide as p*D + 1
# (plus M for p = 1), and a scan decides (M + 1)(D + 1) cells. On a 2-core
# x86_64 host derive_operator(x, M, 0) takes 0.19, 0.97 and 6.0 s (245 MB) at
# M = 250, 500 and 1000, and minimal_scan(x, M, M) 0.4 s at 32 and 7.8 s at
# 64; the grids in use reach 20x16 (H9).
MAX_BOUND = 64


class DegeneratePushforward(DerivationError):
    """P is constant: W carries no randomness to integrate by parts."""


def check_input(P: Polynomial, max_order: int, max_coeff_degree: int) -> None:
    """Refuse a derive's or scan's input before any work: a negative bound
    or one above MAX_BOUND, then a constant P, which has no identity to
    search."""
    if max_order < 0 or max_coeff_degree < 0:
        raise DerivationError("order and degree bounds must be nonnegative")
    if max_order > MAX_BOUND or max_coeff_degree > MAX_BOUND:
        raise DerivationError(f"order and degree bounds must be at most {MAX_BOUND}")
    if P.degree < 1:
        raise DegeneratePushforward("P is constant")


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
            {"k": k, "j": j, "value": str(v)}
            for (k, j), v in sorted(self.multipliers.items())
        ]}


@dataclass(frozen=True)
class DerivationResult:
    status: str  # found | infeasible-at-bounds
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
    r, powers, _ = power_table(
        P, max((pm.degree for pm in op.coefficients), default=0))
    items: list[tuple[Term, Fraction]] = []
    for m, pm in enumerate(op.coefficients):
        for d, q in enumerate(pm.coeffs):
            if q == 0:
                continue
            for i, e in enumerate(powers[d]):
                if e != 0:
                    items.append(((i, m), q * Fraction(e, r ** d)))
    return ExpectationVector(items)


def _cleared_derivative(P: Polynomial) -> tuple[list[int], int]:
    """(a, q): a_l = q * c_l for the coefficients c_l of P', q the lcm of
    their denominators."""
    dcoeffs = P.derivative().coeffs
    q = math.lcm(*[c.denominator for c in dcoeffs])
    return [c.numerator * (q // c.denominator) for c in dcoeffs], q


def _depth_bound(p: int, terms) -> int:
    """E = phi_0 + 1 for deg P = p, phi_0 the largest potential among the
    input `terms`, (i, j) pairs: scaled by L^E, every division of the sweep
    is exact (module docstring)."""
    return max((i + j if p >= 2 else i + 2 * j for i, j in terms),
               default=0) + 1


def _sweep_level(level: list[int], below: list[int], a: list[int],
                 q: int) -> list[tuple[int, int]]:
    """Cancel `level` from its highest z-power down to p - 1 (p = deg P),
    adding into `level` and `below`; returns the pairs (k, mu).

    Identity (k, j - 1), k = i - p + 2, times q is
    q T(k, j-1) - q (k-1) T(k-2, j-1) - sum_l a_l T(k-1+l, j). Its (i, j)
    entry is -L, L = a[-1], so mu = c / -L cancels the entry c and the
    identity's multiplier is mu * q over the sweep's scale. The division is
    checked: a remainder means the scale was too small, and the normal form
    would be wrong.
    """
    p = len(a)
    neg_lead = -a[-1]
    lower = [(l - 1, a_l) for l, a_l in enumerate(a[:-1]) if a_l]
    used = []
    for i in range(len(level) - 1, p - 2, -1):
        c = level[i]
        if not c:
            continue
        mu, remainder = divmod(c, neg_lead)
        if remainder:
            raise AssertionError("inexact division in the reduction sweep")
        k = i - p + 2
        used.append((k, mu))
        mq = mu * q
        below[k] -= mq
        if k >= 2:
            below[k - 2] += mq * (k - 1)
        for offset, a_l in lower:
            level[k + offset] += mu * a_l
    return used


def _reduce(P: Polynomial, terms: dict[Term, Fraction]):
    """Return (normal form, multipliers) with terms = NF + sum(mult * identity).

    Each derivative level is a dense list of ints over one scale: the
    common denominator of the terms times L^E (`_depth_bound`). The sweep
    runs from the top level down to 1 and, within a level, from the highest
    z-power down to p - 1 (p = deg P), cancelling the entry (i, j) with
    identity (k, j - 1), k = i - p + 2 (`_sweep_level`). That identity adds
    only to level j below z-power i and to level j - 1, so no entry is
    touched after it is cancelled and each identity is used at most once.
    For p = 1, k = i + 1: every level down may reach one z-power higher, so
    the lists are padded by the number of levels. The normal form is level 0
    and the z-powers below p - 1 of the other levels; the entries from p - 1
    up keep their cancelled values and are left out. Only the outputs become
    Fractions, over the one scale.

    The identity (k, j) has the same coefficients at every level j, so the
    sweep commutes with shifting every level by the same amount:
    `_grid_matrix` reads all orders of one degree off one sweep.
    """
    a, q = _cleared_derivative(P)
    p = len(a)
    top = max((j for _, j in terms), default=0)
    width = max((i for i, _ in terms), default=0) + 1 + (top if p == 1 else 0)
    scale = math.lcm(*[c.denominator for c in terms.values()]) * \
        a[-1] ** _depth_bound(p, terms)
    levels = [[0] * width for _ in range(top + 1)]
    for (i, j), c in terms.items():
        levels[j][i] = c.numerator * (scale // c.denominator)
    multipliers: dict[tuple[int, int], Fraction] = {}
    for j in range(top, 0, -1):
        for k, mu in _sweep_level(levels[j], levels[j - 1], a, q):
            multipliers[(k, j - 1)] = Fraction(mu * q, scale)
    nf = {(i, j): Fraction(c, scale) for j, level in enumerate(levels)
          for i, c in enumerate(level if j == 0 else level[:p - 1]) if c}
    return nf, multipliers


def _grid_matrix(P: Polynomial, M: int, D: int) -> list[list[int]]:
    """The normal forms of the images of every basis operator x^d f^(m),
    m <= M, d <= D, as one integer matrix over the scale r^D * L^E: a row
    per term in term order, all-zero rows left out, and column m*(D + 1) + d.

    One sweep per degree d reduces P^d from level M. By the level-shift
    invariance (`_reduce`), column (m, d) is that sweep shifted down by
    M - m: its level 0 is level M - m as it stood just before its own
    sweep, and its level j >= 1 is the residue (z-powers below p - 1) of
    level M - m + j. The powers r^d P^d, r the lcm of P's denominators,
    come from the integer table of `poly.power_table` and are lifted by
    r^(D - d) * L^E; the depth bound E of degree D covers every lower
    degree. Scaling all columns by one constant keeps their kernel.
    """
    a, q = _cleared_derivative(P)
    p = len(a)
    r, powers, _ = power_table(P, D)
    lift = a[-1] ** _depth_bound(p, [(p * D, M)])
    # rows: (i, 0) for i < width, then (i, h) at width + (h - 1)(p - 1) + i
    width = p * D + 1 + (M if p == 1 else 0)
    rows = [[0] * ((M + 1) * (D + 1)) for _ in range(width + M * (p - 1))]
    for d, power in enumerate(powers):
        levels = [[0] * width for _ in range(M + 1)]
        scale = r ** (D - d) * lift
        levels[M][:len(power)] = [c * scale for c in power]
        for j in range(M, -1, -1):
            column = (M - j) * (D + 1) + d
            for i, c in enumerate(levels[j]):
                rows[i][column] = c
            for h in range(j + 1, M + 1):
                base = width + (h - j - 1) * (p - 1)
                for i, c in enumerate(levels[h][:p - 1]):
                    rows[base + i][column] = c
            if j:
                _sweep_level(levels[j], levels[j - 1], a, q)
    return [row for row in rows if any(row)]


def _cell_rows(grid: list[list[int]], D: int, m: int, d: int) -> list[list[int]]:
    """The rows of cell (m, d) of a grid of degree bound D: the columns
    m' * (D + 1) + d', m' <= m, d' <= d, each row divided by its gcd, the
    all-zero ones left out. Scaling a row keeps the kernel."""
    columns = [mm * (D + 1) + dd for mm in range(m + 1) for dd in range(d + 1)]
    rows = []
    for row in grid:
        cell = [row[c] for c in columns]
        g = math.gcd(*cell)
        if g:
            rows.append([v // g for v in cell])
    return rows


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
    """Kernel basis of the Fraction matrix `rows` in canonical form.

    The columns are eliminated last to first, as `_exact_kernel` takes them:
    `_rref` runs on the rows reversed, so a free column f depends only on
    the pivot columns above it. Its vector is 1 at f, zero at the other free
    columns and below f; the vectors come in increasing f.
    """
    flipped, pivots = _rref([row[::-1] for row in rows if any(row)])
    basis = []
    for fc in range(ncols - 1, -1, -1):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -flipped[r][fc]
        basis.append(vec[::-1])
    return basis


# 2^31 - 1. Rank mod p never exceeds rank over Q, and a prime this large
# rarely makes it drop below; products of two residues stay below 2^62.
_PRIME = 2_147_483_647


def _residues(rows: list[list[int]], columns: Iterable[int]) -> list[list[int]]:
    """The columns of `rows` named by `columns`, in that order, each a list
    of its entries mod _PRIME: a fresh matrix for `_residue_pivots`."""
    p = _PRIME
    return [[row[c] % p for row in rows] for c in columns]


def _residue_pivots(columns: list[list[int]]):
    """Gaussian elimination mod _PRIME of the matrix given by its
    `columns`, one column at a time, in place. Yields (column, row) per
    column: the index of the row that pivots the column, or None when the
    column depends on the earlier ones mod _PRIME.

    Each column is first reduced by the pivots before it (left-looking), so
    a caller that stops early leaves the later columns untouched. The pivot
    is the first row, in an order that starts as the row order and swaps
    each pivot up behind the previous ones, whose reduced entry is nonzero
    mod p. Entries accumulate unreduced sums, each added term a product of
    two residues, and are reduced only when read; a pivot stores only the
    nonzero multipliers of the rows below it.

    The pivot rows and columns seen so far index a minor whose leading
    principal minors, in pivot order, are all nonzero mod p, hence nonzero
    over Q.
    """
    p = _PRIME
    order = list(range(len(columns[0]) if columns else 0))
    pivots: list[tuple[int, list[tuple[int, int]]]] = []
    for c, x in enumerate(columns):
        for row, multipliers in pivots:
            t = x[row] % p
            if t:
                for i, f in multipliers:
                    x[i] += f * t
        r = len(pivots)
        at = next((k for k in range(r, len(order)) if x[order[k]] % p), None)
        if at is None:
            yield c, None
            continue
        order[r], order[at] = order[at], order[r]
        row = order[r]
        scale = p - pow(x[row] % p, -1, p)
        pivots.append((row, [(i, v * scale % p) for i in order[r + 1:]
                             if (v := x[i] % p)]))
        yield c, row


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
    """The kernel basis of the integer matrix `rows`, in the canonical form
    the module docstring proves; with `first_only`, one nonzero kernel
    vector if there is one. [] means the kernel is zero.

    The residues, taken from the last column to the first, pick r pivots;
    no free column means full rank mod p, hence over Q. `_bareiss_kernel`
    gives one vector per free column f, in increasing f. The gate, A v = 0
    and v zero below f, passes them as the basis, or sends the cell to
    `_nullspace` when the residues lost rank.
    """
    # Eliminating from the last column (highest order and degree) first
    # keeps the leading minors, which bound every Bareiss entry, smaller in
    # the early steps: on H7's frontier cells they stay under 1200 bits for
    # the first 90 of 127 steps, where the natural order passes 2000 bits by
    # step 45, and the five solves take 2.5 s instead of 6.6 s.
    order = range(ncols - 1, -1, -1)
    pivots, free = [], []
    for c, r in _residue_pivots(_residues(rows, order)):
        if r is None:
            free.append(order[c])
        else:
            pivots.append((r, order[c]))
    if not free:
        return []
    free = free[::-1][:1] if first_only else free[::-1]
    vectors = _bareiss_kernel(rows, ncols, pivots, free)
    if all(not any(v[:f]) and _annihilates(rows, v)
           for v, f in zip(vectors, free)):
        return vectors
    return _nullspace([[Fraction(v) for v in row] for row in rows], ncols)


def _solve_cell(P: Polynomial, rows: list[list[int]],
                bounds: SearchBounds) -> Optional[DerivationResult]:
    """Exact solve of cell (M, D) = (bounds.max_order, bounds.max_coeff_degree).

    `rows` are the cell's rows (`_cell_rows`), column m*(D + 1) + d the
    normal form of x^d f^(m). `_exact_kernel` decides the cell on them, and
    its vectors, in canonical form (module docstring), are the basis; the
    operator is the first. Returns the found result, with the certificate
    replayed through `_reduce`, or None when the cell's columns are
    independent.
    """
    M, D = bounds.max_order, bounds.max_coeff_degree
    kernel = _exact_kernel(rows, (M + 1) * (D + 1))
    if not kernel:
        return None
    basis = tuple(normalize_operator(DiffOperator(tuple(
        Polynomial(vec[m * (D + 1):(m + 1) * (D + 1)]) for m in range(M + 1))))
        for vec in kernel)
    op = basis[0]
    nf, multipliers = _reduce(P, operator_image(op, P).as_dict())
    if nf:
        raise AssertionError("reduction of an admissible operator must vanish")
    return DerivationResult(
        status="found", poly=P, bounds_used=bounds, operator=op,
        certificate=Certificate(multipliers), nullspace_dim=len(basis),
        basis=basis)


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
    check_input(P, max_order, max_coeff_degree)
    bounds = default_bounds(P, max_order, max_coeff_degree)
    grid = _grid_matrix(P, max_order, max_coeff_degree)
    result = _solve_cell(P, _cell_rows(grid, max_coeff_degree, max_order,
                                       max_coeff_degree), bounds)
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
    total = ExpectationVector(
        (t, lam * c) for (k, j), lam in result.certificate.multipliers.items()
        for t, c in ibp_identity(k, j, P).as_dict().items())
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
    check_input(P, max_order, max_coeff_degree)
    M, D = max_order, max_coeff_degree
    grid = _grid_matrix(P, M, D)
    residues = _residues(grid, range((M + 1) * (D + 1)))
    status: dict[tuple[int, int], str] = {}
    found: list[tuple[int, int]] = []
    minimal = None
    result = None
    for m in range(M + 1):
        # order <= m columns by degree, so cell (m, d) is a prefix
        columns = [(mm, d) for d in range(D + 1) for mm in range(m + 1)]
        # every prefix before the first column that depends on the earlier
        # ones mod _PRIME has full column rank over Q (a minor nonzero mod p
        # is nonzero over Q)
        first = next((c for c, row in _residue_pivots(
            [residues[mm * (D + 1) + d][:] for mm, d in columns])
            if row is None), len(columns))
        full_rank_below = columns[first][1] if first < len(columns) else D + 1
        for d in range(D + 1):
            if any(fm <= m and fd <= d for fm, fd in found):
                feasible = True
            elif d < full_rank_below:
                feasible = False
            elif result is None:
                result = _solve_cell(P, _cell_rows(grid, D, m, d),
                                     default_bounds(P, m, d))
                feasible = result is not None
                if feasible:
                    minimal = (m, d)
            else:
                feasible = bool(_exact_kernel(_cell_rows(grid, D, m, d),
                                              (m + 1) * (d + 1), first_only=True))
            if feasible:
                found.append((m, d))
            status[(m, d)] = "found" if feasible else "infeasible-at-bounds"
    return ScanResult(poly=P, max_order=max_order,
                      max_coeff_degree=max_coeff_degree,
                      grid=status, minimal=minimal, result=result)
