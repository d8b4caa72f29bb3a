"""Exact decision procedure for polynomial identities among Gamma values.

Given shifts a_0, ..., a_{n-1} and a polynomial P in s and the values
Gamma(s+a_0), ..., Gamma(s+a_{n-1}), decide whether P vanishes identically,
produce the cofactor certificate when it does, and cross-check either
verdict numerically.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or running one CLI command, loads only the modules
that the names and the command need.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The module each exported name comes from.
_MODULE_OF = {
    "Certificate": "ideal",
    "Verdict": "ideal",
    "certify": "ideal",
    "decide_membership": "ideal",
    "normal_form": "ideal",
    "ComplexSample": "numeric",
    "FloatRangeError": "numeric",
    "PoleError": "numeric",
    "SamplingError": "numeric",
    "VerificationReport": "numeric",
    "draw_samples": "numeric",
    "evaluate_poly": "numeric",
    "gamma_eval": "numeric",
    "selftest_functional_equations": "numeric",
    "verify_verdict": "numeric",
    "ExprAst": "parser",
    "ParseError": "parser",
    "lower_to_poly": "parser",
    "parse_gamma_poly": "parser",
    "parse_poly": "parser",
    "parse_scalar": "parser",
    "parse_shifts": "parser",
    "GammaPoly": "poly",
    "Monomial": "poly",
    "UniPoly": "poly",
    "euclid_divide": "poly",
    "gamma_poly_text": "poly",
    "height": "poly",
    "highest_term": "poly",
    "lex_compare": "poly",
    "monomial_degree": "poly",
    "unipoly_text": "poly",
    "GaussianRational": "scalars",
    "scalar_text": "scalars",
    "to_scalar": "scalars",
    "Relation": "shifts",
    "ShiftSystem": "shifts",
    "build_shift_system": "shifts",
    "generating_relation": "shifts",
    "integer_difference": "shifts",
    "rising_factorial": "shifts",
    "shift_apply": "shifts",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
