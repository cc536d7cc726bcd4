"""Exact construction and certification of characteristic polynomials of
simple ordinary abelian varieties over finite fields."""

from .analysis import (
    ModulusCheckResult,
    RootReport,
    exact_modulus_check,
    numeric_roots,
    real_weil_transform,
)
from .engine import (
    ClassificationReport,
    ClassifyOptions,
    ParamTuple,
    SearchRange,
    absolutely_simple_g2,
    certify_ordinary,
    certify_simple,
    classify,
    construct,
    search,
    search_summary,
    validate_tuple,
)
from .intpoly import (
    IntPoly,
    QPolynomial,
    char_poly_of_power,
    check_q_symmetry,
    cyclotomic,
    minimal_poly_of_power,
    reduce_mod,
    squarefree_part,
)
from .modpoly import ModPoly, ff_gcd, is_irreducible_mod, powmod
from .numtheory import (
    PrimePower,
    euler_phi,
    integer_sqrt,
    is_prime,
    is_primitive_root_mod,
    mod_inverse,
    multiplicative_order,
    prime_power_decompose,
)
from .surd import QuadSurd, ll_unit_circle_check, m_max

__version__ = "0.1.0"

__all__ = [
    "ClassificationReport",
    "ClassifyOptions",
    "IntPoly",
    "ModPoly",
    "ModulusCheckResult",
    "ParamTuple",
    "PrimePower",
    "QPolynomial",
    "QuadSurd",
    "RootReport",
    "SearchRange",
    "absolutely_simple_g2",
    "certify_ordinary",
    "certify_simple",
    "char_poly_of_power",
    "check_q_symmetry",
    "classify",
    "construct",
    "cyclotomic",
    "euler_phi",
    "exact_modulus_check",
    "ff_gcd",
    "integer_sqrt",
    "is_irreducible_mod",
    "is_prime",
    "is_primitive_root_mod",
    "ll_unit_circle_check",
    "m_max",
    "minimal_poly_of_power",
    "mod_inverse",
    "multiplicative_order",
    "numeric_roots",
    "powmod",
    "prime_power_decompose",
    "real_weil_transform",
    "reduce_mod",
    "search",
    "search_summary",
    "squarefree_part",
    "validate_tuple",
]
