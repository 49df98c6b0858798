"""Start-up: ``import hyperpoly.cli`` loads no code generation and none of the
modules that only ``descartes``, ``newton`` and ``verify`` call; those load
on first use, and the package still exports every public name."""

import json
import pathlib
import subprocess
import sys

import pytest

import hyperpoly

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

NOT_AT_START = ["dataclasses", "inspect", "typing", "hyperpoly.descartes",
                "hyperpoly.pushforward", "hyperpoly.ratpoly", "hyperpoly.tropical_newton"]

PUBLIC = [
    "AxiomReport", "DomainError", "Element", "FiniteHyperfield", "FiniteSet",
    "Homomorphism", "HyperSet", "Hyperfield", "INF", "KRASNER", "MultReport",
    "NewtonPolygon", "NewtonSegment", "NonEnumerableError", "PHASE", "ParseError",
    "PhaseArc", "PhaseHyperfield", "Poly", "PrimeField", "PushforwardReport",
    "QuotientHyperfield", "RATIONALS", "RationalField", "SIGN", "TROPICAL",
    "TropicalHyperfield", "TropicalRay", "WEAK_SIGN", "build_quotient", "check_axioms",
    "check_homomorphism", "core", "count_roots_by_sign", "descartes",
    "divides_with_quotient", "eval_function", "eval_hyperset", "expand_roots",
    "format_poly", "functional_equiv", "hyper_add_poly", "hyper_mul_poly",
    "hyper_product", "in_product", "instances", "is_root", "iso_to_named",
    "krasner_hyperfield", "linear_poly", "multiplicity", "newton_polygon", "padic_hom",
    "padic_valuation", "parse_field", "parse_homomorphism", "parse_poly", "poly",
    "poly_from_elements", "polynomial", "pushforward", "quotient_projection",
    "quotients", "ratpoly", "roots", "sign_changes", "sign_hom", "sign_hyperfield",
    "substitute_neg", "tropical_newton", "verify_pushforward", "weak_sign_hyperfield",
    "witness_chain_valid",
]

# run under ``python -S``: on some hosts ``site`` itself imports typing
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import hyperpoly.cli
loaded = sorted(m for m in sys.argv[2:] if m in sys.modules)
codes = []
for argv in (["descartes", "--poly", "6,-7,0,1"], ["newton", "--field", "T", "--poly", "2,0,1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(hyperpoly.cli.main(argv))
import hyperpoly
names = {}
exec("from hyperpoly import *", names)
print(json.dumps({"loaded": loaded, "codes": codes, "all": sorted(hyperpoly.__all__),
                  "unbound": sorted(set(hyperpoly.__all__) - set(names))}))
"""


def test_cli_starts_without_code_generation_or_unused_verbs():
    out = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC), *NOT_AT_START],
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["loaded"] == []
    assert result["codes"] == [0, 0]
    assert len(PUBLIC) == 73 and result["all"] == PUBLIC
    assert result["unbound"] == []


def test_lazy_names_are_the_module_attributes():
    assert sorted(hyperpoly.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(hyperpoly))
    assert hyperpoly.newton_polygon is hyperpoly.tropical_newton.newton_polygon
    assert hyperpoly.PushforwardReport is hyperpoly.pushforward.PushforwardReport
    assert hyperpoly.sign_changes is hyperpoly.descartes.sign_changes
    assert hyperpoly.ratpoly is sys.modules["hyperpoly.ratpoly"]
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperpoly.no_such_name
