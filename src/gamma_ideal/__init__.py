"""Exact decision procedure for polynomial identities among Gamma values.

Given shifts a_0, ..., a_{n-1} and a polynomial P in s and the values
Gamma(s+a_0), ..., Gamma(s+a_{n-1}), decide whether P vanishes identically,
produce the cofactor certificate when it does, and cross-check either
verdict numerically.
"""

from .ideal import (
    Certificate,
    Verdict,
    certify,
    decide_membership,
    normal_form,
)
from .numeric import (
    ComplexSample,
    PoleError,
    SamplingError,
    VerificationReport,
    draw_samples,
    evaluate_poly,
    gamma_eval,
    selftest_functional_equations,
    verify_verdict,
)
from .parser import (
    ExprAst,
    ParseError,
    lower_to_poly,
    parse_gamma_poly,
    parse_poly,
    parse_scalar,
    parse_shifts,
)
from .poly import (
    GammaPoly,
    Monomial,
    UniPoly,
    euclid_divide,
    gamma_poly_text,
    height,
    highest_term,
    lex_compare,
    monomial_degree,
    unipoly_text,
)
from .scalars import GaussianRational, scalar_text, to_scalar
from .shifts import (
    Relation,
    ShiftSystem,
    build_shift_system,
    generating_relation,
    integer_difference,
    rising_factorial,
    shift_apply,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "ComplexSample",
    "ExprAst",
    "GammaPoly",
    "GaussianRational",
    "Monomial",
    "ParseError",
    "PoleError",
    "Relation",
    "SamplingError",
    "ShiftSystem",
    "UniPoly",
    "Verdict",
    "VerificationReport",
    "build_shift_system",
    "certify",
    "decide_membership",
    "draw_samples",
    "euclid_divide",
    "evaluate_poly",
    "gamma_eval",
    "gamma_poly_text",
    "generating_relation",
    "height",
    "highest_term",
    "integer_difference",
    "lex_compare",
    "lower_to_poly",
    "monomial_degree",
    "normal_form",
    "parse_gamma_poly",
    "parse_poly",
    "parse_scalar",
    "parse_shifts",
    "rising_factorial",
    "scalar_text",
    "selftest_functional_equations",
    "shift_apply",
    "to_scalar",
    "unipoly_text",
    "verify_verdict",
]
