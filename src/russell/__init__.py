"""Exact symbolic computation on the Russell cubic x + x^2*y + z^3 + t^2 = 0.

Sparse rational polynomials with optional Laurent variables, canonical normal
forms in the single-relation quotient rings of the cubic and its degeneration,
the hyperbolic weight filtration, locally nilpotent derivations with their
flows, and a machine-checked suite covering every computational step of
Makar-Limanov's theorem that no additive group action on the cubic moves the
first coordinate.
"""

from .derivations import (ANY_DEGREE, LOCI, CompatibilityError, Derivation, EndomorphismError,
                          F_MINUS_RING, F_PLUS_RING, NilpotencyReport,
                          RingEndomorphism, compose, conjugate, deck_sigma,
                          degree_ell, derivation_from_json, derivation_to_json,
                          example_derivations, flow, identity_endomorphism,
                          induced_graded, invariance_check, is_homogeneous_derivation,
                          kernel_chain, lnd_bounded, make_derivation,
                          make_endomorphism, scaling, specialize)
from .parse import ParseError, parse
from .poly import Context, Poly, invert_unit, lift
from .quotient import (CTX_XYZT, CTX_XZT, CTX_ZT, LAURENT_PARAMS, ORACLE_PRIME,
                       PARAM_ORDER, QuotientRing, RING_A, RING_B, RING_NEIL, RING_V,
                       RingElement, RingMismatchError, oracle_equal, random_point, ring_by_name, surface_point)
from .sampling import random_element, random_nonzero_element, random_poly, random_rational
from .verifier import CheckResult, all_passed, format_report, report_to_json, run_all
from .weights import (WEIGHTS, deg, deg_laurent_oracle, gr, homogeneous_components,
                      is_homogeneous, monomial_weight, weight_components)

__version__ = "0.1.0"

__all__ = [
    "ANY_DEGREE", "CTX_XYZT", "CTX_XZT", "CTX_ZT", "CheckResult",
    "CompatibilityError", "Context", "Derivation", "EndomorphismError",
    "F_MINUS_RING", "F_PLUS_RING", "LAURENT_PARAMS", "LOCI",
    "NilpotencyReport", "ORACLE_PRIME", "PARAM_ORDER", "ParseError", "Poly",
    "QuotientRing", "RING_A", "RING_B", "RING_NEIL", "RING_V", "RingElement",
    "RingEndomorphism", "RingMismatchError", "WEIGHTS", "all_passed", "compose",
    "conjugate", "deck_sigma", "deg", "deg_laurent_oracle", "degree_ell",
    "derivation_from_json", "derivation_to_json", "example_derivations",
    "flow", "format_report", "gr", "homogeneous_components",
    "identity_endomorphism", "induced_graded", "invariance_check",
    "invert_unit", "is_homogeneous", "is_homogeneous_derivation",
    "kernel_chain", "lift", "lnd_bounded", "make_derivation",
    "make_endomorphism", "monomial_weight", "oracle_equal", "parse",
    "random_element", "random_nonzero_element", "random_point", "random_poly",
    "random_rational", "report_to_json", "ring_by_name", "run_all", "scaling",
    "specialize", "surface_point", "weight_components",
]
