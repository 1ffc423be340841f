"""steinforge: exact derivation and verification of polynomial-coefficient
Stein operators for random variables W = P(Z), Z standard Gaussian.

The exact engine is imported eagerly and loads no numpy. The numerical
names (quadrature, sampling, test functions, the noncentral density and the
verification routes) are imported on first access (PEP 562), so
`import steinforge` and the commands that only derive start without numpy.
"""
from importlib import import_module

from .poly import (Polynomial, format_terms, gaussian_moment, hermite,
                   pushforward_moment, rational)
from .terms import ExpectationVector, Term
from .operators import (DiffOperator, expectation_applied, moment_recursion,
                        moment_relation, normalize_operator, proportional_eq,
                        translate_operator)
from .derivation import (Certificate, DerivationResult, SearchBounds,
                         derive_operator, ibp_identity, minimal_scan,
                         operator_image, verify_certificate)
from .catalog import (CatalogEntry, catalog, catalog_keys, noncentral_chi2_operator,
                      quadratic_operator, verify_table1_extrema)

_NUMERICAL = {
    "gaussian": ("gauss_hermite_rule",),
    "testfunctions": ("TestFunction", "cosine", "default_suite", "gaussian_bump",
                      "monomial", "sine"),
    "noncentral": ("NoncentralParams", "bessel_i", "noncentral_pdf"),
    "verify": ("VerificationReport", "verify_monte_carlo",
               "verify_noncentral_operator", "verify_quadrature", "verify_symbolic"),
}
_MODULE_OF = {name: module for module, names in _NUMERICAL.items() for name in names}


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"
