"""Identity generation, operator expansion and the feasibility search."""
from __future__ import annotations

import json
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from steinforge import derivation
from steinforge.catalog import catalog, quadratic_operator
from steinforge.derivation import (Certificate, DegeneratePushforward,
                                   DerivationError, DerivationResult, ScanResult,
                                   SearchBounds, _PRIME, _cell_rows, _reduce,
                                   _exact_kernel, _grid_matrix, _nullspace,
                                   _residue_pivots, _residues, _rref,
                                   default_bounds, derive_operator,
                                   ibp_identity, minimal_scan, operator_image,
                                   verify_certificate)
from steinforge.operators import DiffOperator, proportional_eq
from steinforge.poly import Polynomial, hermite
from steinforge.terms import ExpectationVector, term_order

X = Polynomial.x()
H3 = hermite(3)
H4 = hermite(4)
SHIFTED_CUBIC = Polynomial([0, 0, 1, 1])  # x^3 + x^2
SCAN_CASES = [(H3, 5, 4), (H4, 3, 3), (SHIFTED_CUBIC, 4, 3)]


@st.composite
def rational_polys(draw):
    """Random P of degree 1-5 with small rational coefficients."""
    degree = draw(st.integers(1, 5))
    coeff = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    lead = draw(coeff.filter(lambda c: c != 0))
    return Polynomial([draw(coeff) for _ in range(degree)] + [lead])


@st.composite
def rational_matrices(draw):
    """Small rational matrices: half of them products of thinner factors, so
    rank deficient, and with entries that vanish mod _PRIME or carry it in
    a denominator."""
    entry = st.one_of(
        st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
        st.sampled_from([Fraction(_PRIME), Fraction(-2 * _PRIME),
                         Fraction(_PRIME, 3), Fraction(1, _PRIME)]))
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        inner = draw(st.integers(1, min(nrows, ncols)))
        a = [[draw(entry) for _ in range(inner)] for _ in range(nrows)]
        b = [[draw(entry) for _ in range(ncols)] for _ in range(inner)]
        return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                 for col in zip(*b)] for row in a]
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


# Rank 2 with a 2-dimensional kernel; taken last column first, its residues
# lose rank at column 2 although the whole matrix keeps rank 2 mod _PRIME
# (test_gate_rejects_a_vector_nonzero_below_its_free_column).
RESIDUE_SHAPE_TRAP = [[Fraction(v) for v in row]
                      for row in ([0, 0, 1, 1], [1, 1, _PRIME, 0])]


def _proportional_vectors(got, want) -> bool:
    """Whether `got` and `want` have the same length and each vector of
    `got` is a nonzero multiple of the one of `want` at its index."""
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        lead = next(c for c, v in enumerate(w) if v)
        scale = Fraction(g[lead]) / w[lead]
        if scale == 0 or any(a != scale * b for a, b in zip(g, w)):
            return False
    return True


def brute_force_scan(P, M, D) -> ScanResult:
    """Reference grid: one derive_operator call per cell."""
    outcomes = {(m, d): derive_operator(P, m, d)
                for m in range(M + 1) for d in range(D + 1)}
    minimal = next((c for c in sorted(outcomes) if outcomes[c].found), None)
    return ScanResult(poly=P, max_order=M, max_coeff_degree=D,
                      grid={c: r.status for c, r in outcomes.items()},
                      minimal=minimal,
                      result=outcomes[minimal] if minimal else None)


class TestIbpIdentity:
    def test_linear_pushforward(self):
        vec = ibp_identity(1, 0, X)
        assert vec == ExpectationVector({(1, 0): 1, (0, 1): -1})

    def test_cubic_hermite(self):
        vec = ibp_identity(1, 0, H3)
        assert vec == ExpectationVector({(1, 0): 1, (2, 1): -3, (0, 1): 3})

    def test_shifted_quadratic(self):
        vec = ibp_identity(2, 0, Polynomial([0, 2, 1]))
        assert vec == ExpectationVector(
            {(2, 0): 1, (0, 0): -1, (2, 1): -2, (1, 1): -2})

    def test_constant_pushforward_rejected(self):
        with pytest.raises(DegeneratePushforward):
            ibp_identity(1, 0, Polynomial([5]))

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            ibp_identity(0, 0, X)


class TestOperatorImage:
    def test_normal_operator(self):
        op = catalog("normal").operator
        assert operator_image(op, X) == ExpectationVector({(0, 1): 1, (1, 0): -1})

    def test_centered_chi2(self):
        entry = catalog("centered-chi2")
        img = operator_image(entry.operator, entry.pushforward)
        assert img == ExpectationVector({(2, 1): 2, (2, 0): -1, (0, 0): 1})

    def test_zero_operator(self):
        assert operator_image(DiffOperator(()), H3).is_zero


class TestDerive:
    def test_linear(self):
        r = derive_operator(X, 1, 1)
        assert r.found and r.operator == catalog("normal").operator
        assert verify_certificate(r, X)

    def test_centered_chi2(self):
        P = Polynomial([-1, 0, 1])
        r = derive_operator(P, 1, 1)
        assert r.found and r.operator == catalog("centered-chi2").operator
        assert verify_certificate(r, P)

    def test_cubic_hermite_reproduces_fifth_order(self):
        r = derive_operator(H3, 5, 2)
        assert r.found and r.nullspace_dim == 1
        equal, ratio = proportional_eq(r.operator, catalog("h3").operator)
        assert equal and ratio == 1
        assert verify_certificate(r, H3)

    def test_quartic_hermite_reproduces_third_order(self):
        r = derive_operator(H4, 3, 2)
        assert r.found and r.nullspace_dim == 1
        equal, ratio = proportional_eq(r.operator, catalog("h4").operator)
        assert equal and ratio == 1
        assert verify_certificate(r, H4)

    def test_shifted_square(self):
        P = Polynomial([1, 2, 1])  # (z + 1)^2
        r = derive_operator(P, 2, 1)
        assert r.found
        equal, ratio = proportional_eq(r.operator, quadratic_operator(1, 2, 1))
        assert equal and ratio == -1
        assert verify_certificate(r, P)

    def test_low_order_high_degree_tradeoff(self):
        # lower order becomes feasible once coefficient degree grows; the
        # leading coefficients degenerate exactly at the extremal values
        r = derive_operator(H3, 3, 4)
        assert r.found and r.nullspace_dim == 1
        lead = r.operator.coefficients[-1]
        assert Polynomial([-4, 0, 1]).divides(lead)
        assert verify_certificate(r, H3)
        r2 = derive_operator(H4, 2, 3)
        assert r2.found and r2.nullspace_dim == 1
        assert Polynomial([-18, 3, 1]).divides(r2.operator.coefficients[-1])
        assert verify_certificate(r2, H4)

    def test_infeasible_cells(self):
        assert derive_operator(H3, 2, 8).status == "infeasible-at-bounds"
        assert derive_operator(H3, 3, 3).status == "infeasible-at-bounds"
        assert derive_operator(H3, 5, 1).status == "infeasible-at-bounds"
        assert derive_operator(H4, 2, 2).status == "infeasible-at-bounds"
        assert derive_operator(H4, 1, 8).status == "infeasible-at-bounds"

    def test_constant_is_refused(self):
        for P, M, D in ((Polynomial([7]), 2, 2), (Polynomial([3]), 1, 1)):
            with pytest.raises(DegeneratePushforward, match="P is constant"):
                derive_operator(P, M, D)


class TestCertificate:
    def test_hand_built_single_identity(self):
        # image(f' - x f) = T(0,1) - T(1,0) = -identity(1, 0)
        op = catalog("normal").operator
        good = DerivationResult(
            status="found", poly=X,
            bounds_used=SearchBounds(1, 1, 2, 1), operator=op,
            certificate=Certificate({(1, 0): Fraction(-1)}), nullspace_dim=1)
        assert verify_certificate(good, X)
        flipped = DerivationResult(
            status="found", poly=X,
            bounds_used=SearchBounds(1, 1, 2, 1), operator=op,
            certificate=Certificate({(1, 0): Fraction(1)}), nullspace_dim=1)
        assert not verify_certificate(flipped, X)

    def test_perturbed_multiplier_fails(self):
        r = derive_operator(H4, 3, 2)
        (k, j), v = next(iter(r.certificate.multipliers.items()))
        bad = dict(r.certificate.multipliers)
        bad[(k, j)] = v + 1
        broken = DerivationResult(
            status="found", poly=H4, bounds_used=r.bounds_used,
            operator=r.operator, certificate=Certificate(bad),
            nullspace_dim=r.nullspace_dim)
        assert not verify_certificate(broken, H4)

    def test_scalar_invariance(self):
        r = derive_operator(H3, 5, 2)
        scaled_op = r.operator.scaled(Fraction(-7, 3))
        scaled_cert = Certificate(
            {kj: Fraction(-7, 3) * v for kj, v in r.certificate.multipliers.items()})
        scaled = DerivationResult(
            status="found", poly=H3, bounds_used=r.bounds_used,
            operator=scaled_op, certificate=scaled_cert,
            nullspace_dim=r.nullspace_dim)
        assert verify_certificate(scaled, H3)


class TestScan:
    def test_minimal_h3_within_degree_2(self):
        scan = minimal_scan(H3, 5, 2)
        assert scan.minimal == (5, 2)
        assert scan.grid[(4, 2)] == "infeasible-at-bounds"
        assert scan.leading_coefficient == Polynomial([1944, 0, -486])

    def test_minimal_h4_within_degree_2(self):
        scan = minimal_scan(H4, 3, 2)
        assert scan.minimal == (3, 2)
        assert scan.grid[(2, 2)] == "infeasible-at-bounds"

    def test_minimal_linear(self):
        scan = minimal_scan(X, 1, 1)
        assert scan.minimal == (1, 1)

    def test_grid_covers_all_cells(self):
        scan = minimal_scan(H4, 2, 2)
        assert set(scan.grid) == {(m, d) for m in range(3) for d in range(3)}
        assert all(s in ("found", "infeasible-at-bounds")
                   for s in scan.grid.values())

    def test_degenerate_propagates(self):
        with pytest.raises(DegeneratePushforward):
            minimal_scan(Polynomial([2]), 2, 2)

    @pytest.mark.parametrize("M,D", [(-1, 2), (2, -1)])
    def test_negative_bounds_rejected(self, M, D):
        # checked before P, as derive_operator checks them
        for P in (H3, Polynomial([2])):
            with pytest.raises(DerivationError, match="nonnegative"):
                minimal_scan(P, M, D)

    @pytest.mark.parametrize("P,M,D", SCAN_CASES)
    def test_matches_per_cell_derivation(self, P, M, D):
        assert minimal_scan(P, M, D).to_dict() == \
            brute_force_scan(P, M, D).to_dict()

    @settings(deadline=None, max_examples=15)
    @given(rational_polys(), st.integers(0, 4), st.integers(0, 3))
    def test_random_grids_match_per_cell_derivation(self, P, M, D):
        assert minimal_scan(P, M, D).to_dict() == \
            brute_force_scan(P, M, D).to_dict()

    def test_small_prime_still_matches(self, monkeypatch):
        # mod 3, columns of H3 and x^3+x^2 have denominators divisible by the
        # prime and fall rank deficient; the exact path must decide them all
        references = [brute_force_scan(*case).to_dict() for case in SCAN_CASES]
        exact_calls = []
        real = derivation._solve_cell

        def counting(reducer, reduced, bounds):
            exact_calls.append((bounds.max_order, bounds.max_coeff_degree))
            return real(reducer, reduced, bounds)

        def no_derive(*args, **kwargs):
            raise AssertionError("minimal_scan solves cells on its own columns")

        monkeypatch.setattr(derivation, "_solve_cell", counting)
        monkeypatch.setattr(derivation, "derive_operator", no_derive)
        for case in SCAN_CASES:
            minimal_scan(*case)
        at_default_prime = len(exact_calls)
        exact_calls.clear()
        monkeypatch.setattr(derivation, "_PRIME", 3)
        for case, reference in zip(SCAN_CASES, references):
            assert minimal_scan(*case).to_dict() == reference
        assert len(exact_calls) > at_default_prime


class TestExactKernel:
    @staticmethod
    def integer_rows(matrix):
        """The nonzero rows of a rational matrix, each times the lcm of its
        denominators."""
        return [[int(v * scale) for v in row] for row in matrix if any(row)
                for scale in [math.lcm(*[v.denominator for v in row])]]

    @settings(deadline=None, max_examples=200)
    @given(rational_matrices())
    @example([[Fraction(_PRIME)]])
    @example([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(6 + _PRIME)]])
    @example([[Fraction(0)]])
    @example([[Fraction(0)] * 3] * 2)
    @example(RESIDUE_SHAPE_TRAP)
    def test_matches_fraction_nullspace(self, matrix):
        # the Fraction reference's vectors in its order, each up to a
        # nonzero scale, whether the residue rank is right or the gate has
        # to fall back
        ncols = len(matrix[0])
        rows = self.integer_rows(matrix)
        reference = _nullspace([row[:] for row in matrix], ncols)
        assert _proportional_vectors(_exact_kernel(rows, ncols), reference)
        first = _exact_kernel(rows, ncols, first_only=True)
        assert len(first) >= 1 if reference else first == []
        for vec in first:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in matrix)

    @settings(deadline=None, max_examples=200)
    @given(rational_matrices())
    @example([[Fraction(_PRIME)]])
    @example([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(6 + _PRIME)]])
    @example([[Fraction(0)] * 3] * 2)
    @example(RESIDUE_SHAPE_TRAP)
    def test_kernel_is_in_canonical_form(self, matrix):
        # on the Bareiss path, on the fallback the examples force, and in
        # the reference: leading columns strictly increase, and each vector
        # is zero at every other vector's leading column
        ncols = len(matrix[0])
        for kernel in (_exact_kernel(self.integer_rows(matrix), ncols),
                       _nullspace([row[:] for row in matrix], ncols)):
            leads = [next(c for c, v in enumerate(vec) if v) for vec in kernel]
            assert all(a < b for a, b in zip(leads, leads[1:]))
            assert all(vec[c] == 0 for i, vec in enumerate(kernel)
                       for j, c in enumerate(leads) if i != j)

    def test_gate_rejects_a_vector_nonzero_below_its_free_column(self, monkeypatch):
        # mod _PRIME column 2 depends on column 3, so 2 is free, but over Q
        # its vector needs column 1: both vectors annihilate the rows, yet
        # (1, -1, 0, 0) is not the echelon row (p, 0, -1, 1); the gate must
        # send the cell to _nullspace
        fallbacks = []
        real = derivation._nullspace
        monkeypatch.setattr(derivation, "_nullspace", lambda rows, ncols:
                            fallbacks.append(ncols) or real(rows, ncols))
        rows = self.integer_rows(RESIDUE_SHAPE_TRAP)
        assert _exact_kernel(rows, 4) == [
            [1, 0, Fraction(-1, _PRIME), Fraction(1, _PRIME)],
            [0, 1, Fraction(-1, _PRIME), Fraction(1, _PRIME)]]
        assert fallbacks == [4]

    @staticmethod
    def dense_pivots(rows, ncols, p):
        """Reference for _residue_pivots: row elimination with every entry
        reduced mod p at every step; the pivot is the first row at or below
        the current one with a nonzero entry, swapped up."""
        a = [[v % p for v in row] for row in rows]
        order = list(range(len(a)))
        out, r = [], 0
        for c in range(ncols):
            pivot = next((i for i in range(r, len(a)) if a[i][c]), None)
            if pivot is None:
                out.append((c, None))
                continue
            a[r], a[pivot] = a[pivot], a[r]
            order[r], order[pivot] = order[pivot], order[r]
            inv = pow(a[r][c], -1, p)
            for i in range(r + 1, len(a)):
                f = a[i][c] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
            out.append((c, order[r]))
            r += 1
        return out

    @pytest.mark.parametrize("prime", [_PRIME, 3])
    @settings(deadline=None, max_examples=200)
    @given(matrix=rational_matrices())
    def test_residue_pivots_match_dense_reference(self, prime, matrix):
        ncols = len(matrix[0])
        rows = self.integer_rows(matrix)
        with mock.patch.object(derivation, "_PRIME", prime):
            got = list(_residue_pivots(_residues(rows, range(ncols))))
        assert got == self.dense_pivots(rows, ncols, prime)

    def test_prime_three_falls_back_and_grids_match(self, monkeypatch):
        # mod 3 many residue ranks fall short of the rational rank, so the
        # exact check must reject candidates and _nullspace must decide
        cases = [(H3, 5, 4), (H4, 5, 4), (hermite(5), 5, 4)]
        references = [minimal_scan(*case).to_dict() for case in cases]
        derived = brute_force_scan(H3, 5, 4).to_dict()
        fallbacks = []
        real = derivation._nullspace

        def counting(rows, ncols):
            fallbacks.append(ncols)
            return real(rows, ncols)

        monkeypatch.setattr(derivation, "_nullspace", counting)
        monkeypatch.setattr(derivation, "_PRIME", 3)
        for case, reference in zip(cases, references):
            assert minimal_scan(*case).to_dict() == reference
        assert fallbacks
        assert brute_force_scan(H3, 5, 4).to_dict() == derived


class TestLeadingCoefficientReport:
    """The conjecture report compares leading coefficients by proportional_eq."""

    @staticmethod
    def compare(result, conjecture):
        return proportional_eq(DiffOperator.single(0, result.operator.coefficients[-1]),
                               DiffOperator.single(0, conjecture))

    def test_h3_vs_table_polynomial(self):
        r = derive_operator(H3, 5, 2)
        assert self.compare(r, Polynomial([-4, 0, 1])) == (True, -486)

    def test_h4_vs_table_polynomial(self):
        r = derive_operator(H4, 3, 2)
        assert self.compare(r, Polynomial([-18, 3, 1])) == (True, -192)

    def test_zero_conjecture_rejected(self):
        r = derive_operator(H4, 3, 2)
        with pytest.raises(ValueError):
            self.compare(r, Polynomial.zero())

    def test_non_proportional(self):
        r = derive_operator(H4, 3, 2)
        assert self.compare(r, Polynomial([1, 0, 1])) == (False, None)


def _dense_reference_feasible(P, M, D, I, J):
    """Naive reference: full homogeneous system over operator coefficients
    and identity multipliers, solved by generic RREF. Returns the dimension
    of the admissible operator subspace."""
    p = P.degree
    id_indices = [(k, j) for j in range(J) for k in range(1, I + 1)
                  if max(k, k + p - 2) <= I]
    q_cols = [(m, d) for m in range(M + 1) for d in range(D + 1)]
    col_vecs = []
    for m, d in q_cols:
        col_vecs.append(operator_image(
            DiffOperator.single(m, Polynomial.monomial(d)), P).as_dict())
    for k, j in id_indices:
        col_vecs.append({t: -c for t, c in ibp_identity(k, j, P).as_dict().items()})
    rows = sorted({t for vec in col_vecs for t in vec})
    matrix = [[vec.get(t, Fraction(0)) for vec in col_vecs] for t in rows]
    # generic fraction RREF nullspace, then project onto the q block
    basis = _nullspace(matrix, len(col_vecs))
    q_block = [v[: len(q_cols)] for v in basis]
    q_block = [v for v in q_block if any(c != 0 for c in v)]
    reduced, pivots = _rref(q_block)
    return len(pivots)


@pytest.mark.parametrize("P,M,D", [
    (X, 1, 1),
    (Polynomial([-1, 0, 1]), 1, 1),
    (Polynomial([0, 2, 1]), 2, 1),
    (H3, 3, 4),
    (H3, 2, 4),
    (H3, 5, 2),
    (H4, 2, 3),
    (H4, 2, 2),
    (H3, 3, 3),
])
def test_solver_matches_dense_reference(P, M, D):
    # the reference runs at the default caps and at the caps the result
    # reports; for an infeasible cell those are the enlarged caps of its
    # payload (I + p*M, J + 2), which the single solve must truly cover
    mine = derive_operator(P, M, D)
    for bounds in {default_bounds(P, M, D), mine.bounds_used}:
        dim = _dense_reference_feasible(P, M, D, bounds.z_power_cap,
                                        bounds.derivative_cap)
        assert (dim > 0) == mine.found
        if mine.found:
            assert dim == mine.nullspace_dim


def test_infeasible_payload_echoes_deepened_caps_from_one_solve(monkeypatch):
    # replay the recurrence of the removed deepening loop: the z-power cap
    # grows by p*M on even rounds, the derivative cap by 2 on odd rounds
    solves = []
    real = derivation._solve_cell

    def counting(*args):
        solves.append(args)
        return real(*args)

    monkeypatch.setattr(derivation, "_solve_cell", counting)
    cells = [(H3, 3, 3), (H3, 5, 1), (H4, 2, 2), (Polynomial([0, 2, 1]), 1, 0),
             (X, 0, 3)]
    for P, M, D in cells:
        for rounds in range(5):
            solves.clear()
            r = derive_operator(P, M, D, deepen_rounds=rounds)
            assert r.status == "infeasible-at-bounds" and len(solves) == 1
            caps = default_bounds(P, M, D)
            for k in range(rounds):
                I, J = caps.z_power_cap, caps.derivative_cap
                caps = SearchBounds(M, D, I + P.degree * M, J) if k % 2 == 0 \
                    else SearchBounds(M, D, I, J + 2)
            assert r.bounds_used == caps
    assert derive_operator(H3, 3, 3).bounds_used.to_dict() == \
        {"M": 3, "D": 3, "I": 27, "J": 5}
    assert derive_operator(H3, 3, 3, deepen_rounds=4).bounds_used.to_dict() == \
        {"M": 3, "D": 3, "I": 36, "J": 7}


def test_multidimensional_cells_report_full_basis():
    r = derive_operator(H3, 3, 5)
    assert r.found and r.nullspace_dim == 2
    assert len(r.basis) == 2
    assert r.operator in r.basis
    for op in r.basis:
        chk = DerivationResult(status="found", poly=H3,
                               bounds_used=r.bounds_used, operator=op,
                               certificate=None, nullspace_dim=2)
        # every basis operator annihilates; certificates come from re-derive
        from steinforge.verify import verify_symbolic
        assert verify_symbolic(op, H3, 20).passed
    assert "basis" in r.to_dict()


def test_result_serialization_deterministic():
    a = derive_operator(H3, 5, 2)
    b = derive_operator(H3, 5, 2)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    d = a.to_dict()
    assert set(d) >= {"status", "poly", "bounds", "operator", "certificate",
                      "nullspace_dim"}
    assert d["bounds"] == {"M": 5, "D": 2, "I": 21, "J": 5}


@settings(deadline=None, max_examples=60)
@given(rational_polys(), st.integers(0, 4), st.integers(0, 3))
@example(Polynomial([Fraction(1, 2), -3]), 4, 3)
@example(Polynomial([1, 0, 0, 0, 0, 2]), 4, 3)
def test_reduction_matches_identities_within_cell_caps(P, m, d):
    # the trusted core replays the sweep: the image of x^d f^(m) is its
    # normal form plus the used identities, each within the cell's default
    # caps (what the echoed I and J rely on), and the normal form holds no
    # term that an identity could cancel
    image = operator_image(DiffOperator.single(m, Polynomial.monomial(d)), P)
    nf, multipliers = _reduce(P, image.as_dict())
    total = ExpectationVector(nf)
    for (k, j), lam in multipliers.items():
        assert lam != 0
        total = total + ibp_identity(k, j, P).scaled(lam)
    assert total == image
    caps = default_bounds(P, m, d)
    p = P.degree
    for k, j in multipliers:
        assert j < caps.derivative_cap
        assert max(k, k + p - 2) <= caps.z_power_cap
    assert all(j == 0 or i < p - 1 for i, j in nf)


def _grid_reference(P, M, D):
    """The Fraction matrix of `_reduce`'s normal form of each grid column
    x^d f^(m), m <= M, d <= D: rows in term order, column m*(D + 1) + d."""
    columns = [_reduce(P, operator_image(
        DiffOperator.single(m, Polynomial.monomial(d)), P).as_dict())[0]
        for m in range(M + 1) for d in range(D + 1)]
    terms = sorted(set().union(*columns), key=term_order)
    return [[column.get(t, Fraction(0)) for column in columns] for t in terms]


def _grid_matches(grid, reference, P, M, D):
    """Whether `grid` holds ints only, is `reference` times the scale
    r^D * L^E, and gives every sub-cell (m, d) the reference's kernel
    vectors, in order, each up to scale.

    r is the lcm of P's denominators, L the lead of P' cleared of its
    denominators, and E one more than the largest potential i + j (i + 2j
    for deg P = 1) of the top level's terms (p*D, M)."""
    p = P.degree
    lead = P.derivative().coeffs
    L = lead[-1] * math.lcm(*[c.denominator for c in lead])
    E = (p * D + M if p >= 2 else D + 2 * M) + 1
    scale = math.lcm(*[c.denominator for c in P.coeffs]) ** D * L ** E
    if len(grid) != len(reference) or any(
            type(g) is not int or g != scale * f
            for grow, frow in zip(grid, reference) for g, f in zip(grow, frow)):
        return False
    for m in range(M + 1):
        for d in range(D + 1):
            cols = [mm * (D + 1) + dd for mm in range(m + 1) for dd in range(d + 1)]
            want = _nullspace([[row[c] for c in cols] for row in reference], len(cols))
            got = _exact_kernel(_cell_rows(grid, D, m, d), len(cols))
            if not _proportional_vectors(got, want):
                return False
    return True


@settings(deadline=None, max_examples=40)
@given(rational_polys(), st.integers(0, 6), st.integers(0, 4),
       st.integers(0, 999), st.integers(0, 999))
@example(Polynomial([Fraction(1, 2), Fraction(3, 2)]), 6, 4, 0, 0)
@example(Polynomial([2, Fraction(-1, 2)]), 5, 3, 7, 5)
@example(Polynomial([0, Fraction(1, 2), Fraction(1, 3)]), 6, 4, 0, 0)
@example(Polynomial([1, 0, -1, 0, 0, Fraction(3, 2)]), 4, 4, 3, 11)
@example(H3, 5, 4, 20, 29)
def test_grid_matrix_matches_per_column_reduction(P, M, D, row, col):
    # one sweep per degree over one scale, read at every level, gives each
    # column's own reduction: degree 1 (padded lists), leads 3/2 and -1/2,
    # P' with denominators (q > 1), and H3's found cells
    grid = _grid_matrix(P, M, D)
    reference = _grid_reference(P, M, D)
    assert _grid_matches(grid, reference, P, M, D)
    # negative control: one entry off by one is caught
    grid[row % len(grid)][col % len(grid[0])] += 1
    assert not _grid_matches(grid, reference, P, M, D)


def test_too_small_scale_raises(monkeypatch):
    # unscaled, H3's first cancellation divides its lead 1 by -L = -3; the
    # checked division must raise rather than truncate
    monkeypatch.setattr(derivation, "_depth_bound", lambda p, terms: 0)
    with pytest.raises(AssertionError, match="inexact division"):
        derive_operator(H3, 5, 2)


@settings(deadline=None, max_examples=20)
@given(st.integers(-3, 3), st.integers(-3, 3).filter(lambda b: b != 0))
def test_random_quadratics_derive_and_certify(a, b):
    if a == 0:
        P = Polynomial([0, b])
        r = derive_operator(P, 1, 1)
    else:
        P = Polynomial([0, b, a])
        r = derive_operator(P, 2, 1)
    assert r.found
    assert verify_certificate(r, P)


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 10), st.integers(0, 4),
       st.sampled_from(["h3", "h4", "sq"]))
def test_identities_have_disjoint_leading_terms(k, j, which):
    P = {"h3": H3, "h4": H4, "sq": Polynomial([0, 2, 1])}[which]
    vec = ibp_identity(k, j, P)
    top = max(vec.support(), key=lambda t: (t[1], t[0]))
    assert top == (k + P.degree - 2, j + 1)
