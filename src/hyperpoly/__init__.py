"""Root multiplicities for polynomials over hyperfields, exactly.

Hyperfields replace single-valued addition with set-valued hyperaddition;
roots and their multiplicities are defined through multi-valued linear
division.  Over the sign hyperfield the multiplicity of 1 counts coefficient
sign changes, over the tropical hyperfield the multiplicity of s is a Newton
polygon segment length.  One harness, ``verify_pushforward``, checks that a
homomorphism f sends at most mult_b(f(p)) roots of p to b; with f = sign it
is Descartes' rule, with f = the p-adic valuation the Newton polygon rule.
"""

from .core import (
    INF,
    AxiomReport,
    DomainError,
    Element,
    FiniteHyperfield,
    FiniteSet,
    Hyperfield,
    HyperSet,
    NonEnumerableError,
    ParseError,
    PhaseArc,
    TropicalRay,
    check_axioms,
)
from .descartes import (
    count_roots_by_sign,
    sign_changes,
    substitute_neg,
)
from .instances import (
    KRASNER,
    PHASE,
    RATIONALS,
    SIGN,
    TROPICAL,
    WEAK_SIGN,
    Homomorphism,
    PhaseHyperfield,
    PrimeField,
    QuotientHyperfield,
    RationalField,
    TropicalHyperfield,
    build_quotient,
    check_homomorphism,
    iso_to_named,
    krasner_hyperfield,
    padic_hom,
    padic_valuation,
    parse_field,
    parse_homomorphism,
    quotient_projection,
    sign_hom,
    sign_hyperfield,
    weak_sign_hyperfield,
)
from .polynomial import (
    MultReport,
    Poly,
    divides_with_quotient,
    eval_hyperset,
    format_poly,
    hyper_add_poly,
    hyper_mul_poly,
    hyper_product,
    is_root,
    linear_poly,
    multiplicity,
    parse_poly,
    poly,
    poly_from_elements,
    quotients,
    roots,
    witness_chain_valid,
)
from .pushforward import (
    PushforwardReport,
    verify_pushforward,
)
from .tropical_newton import (
    NewtonPolygon,
    NewtonSegment,
    eval_function,
    expand_roots,
    functional_equiv,
    in_product,
    newton_polygon,
)

__all__ = [name for name in dir() if not name.startswith("_")]
