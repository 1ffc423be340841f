"""steinforge: exact derivation and verification of polynomial-coefficient
Stein operators for random variables W = P(Z), Z standard Gaussian."""

from .poly import Polynomial, format_terms, rational
from .gaussian import gauss_hermite_rule, gaussian_moment, hermite, pushforward_moment
from .terms import ExpectationVector, Term
from .operators import (DiffOperator, expectation_applied, moment_recursion,
                        moment_relation, normalize_operator, proportional_eq,
                        translate_operator)
from .derivation import (Certificate, DerivationResult, SearchBounds,
                         derive_operator, ibp_identity, minimal_scan,
                         operator_image, verify_certificate)
from .catalog import (CatalogEntry, catalog, catalog_keys, noncentral_chi2_operator,
                      quadratic_operator, verify_table1_extrema)
from .testfunctions import (TestFunction, cosine, default_suite, gaussian_bump,
                            monomial, sine)
from .noncentral import NoncentralParams, bessel_i, noncentral_pdf
from .verify import (VerificationReport, verify_monte_carlo, verify_noncentral_operator,
                     verify_quadrature, verify_symbolic)

__version__ = "0.1.0"
