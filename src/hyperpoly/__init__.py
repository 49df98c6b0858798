"""Root multiplicities for polynomials over hyperfields, exactly.

Hyperfields replace single-valued addition with set-valued hyperaddition,
read on raw values (``F.hyperadd_values``, ``F.hypersum_values``,
``HyperSet.contains_value``).  Roots and their multiplicities are defined
through multi-valued linear division.  Over the sign hyperfield the
multiplicity of 1 counts coefficient sign changes, over the tropical
hyperfield the multiplicity of s is a Newton polygon segment length.  One
harness, ``verify_pushforward``, checks that a homomorphism f sends at most
mult_b(f(p)) roots of p to b; with f = sign it is Descartes' rule, with
f = the p-adic valuation the Newton polygon rule.
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
    krasner_hyperfield,
    padic_hom,
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
    hyper_mul_poly,
    hyper_product,
    is_root,
    multiplicity,
    parse_poly,
    poly,
    quotients,
    roots,
    witness_chain_valid,
)

# modules that ``import hyperpoly.cli`` does not load, with the names they
# export; each loads on first access (PEP 562)
_LAZY = {
    "descartes": ("count_roots_by_sign", "sign_changes", "substitute_neg"),
    "pushforward": ("PushforwardReport", "verify_pushforward"),
    "ratpoly": (),
    "tropical_newton": ("NewtonPolygon", "NewtonSegment", "expand_roots", "functional_equiv",
                        "in_product", "newton_polygon"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [name for name in dir() if not name.startswith("_")] + [*_LAZY, *_LAZY_NAMES]


def __getattr__(name):
    module = _LAZY_NAMES.get(name, name if name in _LAZY else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f"{__name__}.{module}")
    globals()[name] = value = value if name == module else getattr(value, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
