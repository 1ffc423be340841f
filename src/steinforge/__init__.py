"""steinforge: exact derivation and verification of polynomial-coefficient
Stein operators for random variables W = P(Z), Z standard Gaussian.

The package exports the exact engine, which loads no numpy. The numerical
names are imported from their modules: `steinforge.gaussian` (quadrature),
`steinforge.testfunctions`, `steinforge.noncentral` (the noncentral density)
and `steinforge.verify` (the verification routes).
"""
from .poly import (Polynomial, format_terms, gaussian_moment, hermite,
                   pushforward_moment, rational)
from .terms import ExpectationVector, Term
from .operators import (DiffOperator, expectation_applied, moment_recursion,
                        moment_relation, normalize_operator, proportional_eq)
from .derivation import (Certificate, DerivationResult, SearchBounds,
                         derive_operator, ibp_identity, minimal_scan,
                         operator_image, verify_certificate)
from .catalog import (CatalogEntry, catalog, catalog_keys, noncentral_chi2_operator,
                      quadratic_operator, verify_table1_extrema)

__version__ = "0.1.0"
