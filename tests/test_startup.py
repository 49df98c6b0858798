"""Start-up: ``import hyperpoly.cli`` loads no code generation, no ``json``
(only ``--format json`` needs it) and none of the modules that only some
verbs call: the axiom checker (``axioms``), hyperproducts (``hyperprod``)
and the modules of ``descartes``, ``newton`` and ``verify``.  Those load on
first use, each by the verb that runs it, and the package still exports
every public name."""

import json
import pathlib
import subprocess
import sys

import pytest

import hyperpoly

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

NOT_AT_START = ["dataclasses", "inspect", "json", "typing", "hyperpoly.axioms",
                "hyperpoly.descartes", "hyperpoly.hyperproduct", "hyperpoly.pushforward",
                "hyperpoly.ratpoly", "hyperpoly.tropical_newton"]

# the package modules that each verb call loads, in this order, on top of
# the ones loaded before it
LOADED_BY = {
    "axioms": ["hyperpoly.axioms"],
    "hyperprod": ["hyperpoly.hyperproduct"],
    "descartes": ["hyperpoly.descartes", "hyperpoly.pushforward", "hyperpoly.ratpoly"],
    "newton": ["hyperpoly.tropical_newton"],
}

PUBLIC = [
    "AxiomReport", "DomainError", "Element", "FiniteHyperfield", "FiniteSet",
    "Homomorphism", "HyperSet", "Hyperfield", "INF", "KRASNER", "MultReport",
    "NewtonPolygon", "NewtonSegment", "NonEnumerableError", "PHASE", "ParseError",
    "PhaseArc", "PhaseHyperfield", "Poly", "PrimeField", "PushforwardReport",
    "QuotientHyperfield", "RATIONALS", "RationalField", "SIGN", "TROPICAL",
    "TropicalHyperfield", "TropicalRay", "WEAK_SIGN", "axioms", "build_quotient",
    "check_axioms", "check_homomorphism", "core", "count_roots_by_sign",
    "descartes", "divides_with_quotient", "eval_hyperset", "expand_roots",
    "format_poly", "functional_equiv", "hyper_product",
    "hyperproduct", "in_product", "instances", "is_root", "krasner_hyperfield",
    "multiplicity", "newton_polygon", "padic_hom", "parse_field",
    "parse_homomorphism", "parse_poly", "poly", "polynomial", "pushforward",
    "quotient_projection", "quotients", "ratpoly", "roots", "sign_changes",
    "sign_hom", "sign_hyperfield", "substitute_neg", "tropical_newton",
    "verify_pushforward", "weak_sign_hyperfield", "witness_chain_valid",
]

# run under ``python -S``: on some hosts ``site`` itself imports typing; the
# script loads its own modules only after it has read what the CLI loaded
SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import hyperpoly.cli
loaded = sorted(m for m in sys.argv[2:] if m in sys.modules)
import contextlib, io, json
codes, by_verb = [], {}
for argv in (["axioms", "--field", "S"], ["hyperprod", "--field", "S", "--polys", "(1,1);(-1,1)"],
             ["descartes", "--poly", "6,-7,0,1"], ["newton", "--field", "T", "--poly", "2,0,1"]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(hyperpoly.cli.main(argv))
    by_verb[argv[0]] = sorted(m for m in set(sys.modules) - before if m.startswith("hyperpoly."))
import hyperpoly
names = {}
exec("from hyperpoly import *", names)
print(json.dumps({"loaded": loaded, "codes": codes, "by_verb": by_verb,
                  "all": sorted(hyperpoly.__all__),
                  "unbound": sorted(set(hyperpoly.__all__) - set(names))}))
"""


def test_cli_starts_without_code_generation_or_unused_verbs():
    out = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC), *NOT_AT_START],
                         capture_output=True, text=True, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["loaded"] == []
    assert result["codes"] == [0, 0, 0, 0]
    assert result["by_verb"] == LOADED_BY
    assert len(PUBLIC) == 68 and result["all"] == PUBLIC
    assert result["unbound"] == []


def test_lazy_names_are_the_module_attributes():
    assert sorted(hyperpoly.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(hyperpoly))
    assert hyperpoly.newton_polygon is hyperpoly.tropical_newton.newton_polygon
    assert hyperpoly.PushforwardReport is hyperpoly.pushforward.PushforwardReport
    assert hyperpoly.sign_changes is hyperpoly.descartes.sign_changes
    assert hyperpoly.ratpoly is sys.modules["hyperpoly.ratpoly"]
    # the moved names are their new modules' objects; the entry points stay
    assert hyperpoly.AxiomReport is hyperpoly.axioms.AxiomReport
    for name in ("Homomorphism", "check_homomorphism", "padic_hom", "parse_homomorphism",
                 "quotient_projection", "sign_hom"):
        assert getattr(hyperpoly, name) is getattr(hyperpoly.pushforward, name)
    assert hyperpoly.hyperproduct is sys.modules["hyperpoly.hyperproduct"]
    assert hyperpoly.check_axioms is hyperpoly.core.check_axioms
    assert hyperpoly.hyper_product is hyperpoly.polynomial.hyper_product
    with pytest.raises(AttributeError, match="no_such_name"):
        hyperpoly.no_such_name
