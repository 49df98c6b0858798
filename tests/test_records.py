"""The package's record classes: construction, equality, hashing, freezing
and repr.

The literals below were read off the dataclass versions of these classes,
and the plain ``__slots__`` records must keep them: the same positional and
keyword constructor with its defaults, ``==`` only within one class, a hash
of the field tuple and no assignment for the frozen records, no hash for
the mutable reports, and ``Name(field=...)`` wherever a class has no
``__repr__`` of its own.
"""

import copy
from fractions import Fraction

import pytest

from hyperpoly import (
    PHASE,
    RATIONALS,
    SIGN,
    TROPICAL,
    AxiomReport,
    Element,
    FiniteSet,
    Homomorphism,
    MultReport,
    NewtonPolygon,
    NewtonSegment,
    PhaseArc,
    Poly,
    PushforwardReport,
    TropicalRay,
)
from hyperpoly.axioms import AxiomCheck
from hyperpoly.pushforward import HomomorphismReport

_HOM = "Homomorphism(source=<hyperfield Q>, target=<hyperfield S>, " \
       "fn=<built-in function abs>, rule='abs', count_roots=<built-in function len>)"

# class -> (field names, field values, repr, frozen); the values are built
# afresh for each instance.  A report's bounds and counts are dicts in use;
# tuples stand in for them here so that the field tuple has a hash.
RECORDS = {
    Element: (("field", "value"), lambda: (SIGN, -1), "S:-1", True),
    FiniteSet: (("field", "values"), lambda: (SIGN, frozenset({0, 1, -1})),
                "{-1, 0, 1}", True),
    TropicalRay: (("field", "lower"), lambda: (TROPICAL, Fraction(1, 2)),
                  "[1/2, inf]", True),
    PhaseArc: (("field", "lo", "length"), lambda: (PHASE, Fraction(1, 2), Fraction(1)),
               "(1/2,3/2)", True),
    AxiomCheck: (("axiom", "passed", "witness"), lambda: ("nonempty", False, "1+1"),
                 "AxiomCheck(axiom='nonempty', passed=False, witness='1+1')", False),
    AxiomReport: (("field_name", "exhaustive", "checks", "notes"),
                  lambda: ("S", True, [AxiomCheck("nonempty", True)], ["a note"]),
                  "AxiomReport(field_name='S', exhaustive=True, checks=[AxiomCheck("
                  "axiom='nonempty', passed=True, witness=None)], notes=['a note'])",
                  False),
    Homomorphism: (("source", "target", "fn", "rule", "count_roots"),
                   lambda: (RATIONALS, SIGN, abs, "abs", len), _HOM, True),
    HomomorphismReport: (("rule", "violations"), lambda: ("abs", [("f(1)=1", None, None)]),
                         "HomomorphismReport(rule='abs', violations=[('f(1)=1', None, None)])",
                         False),
    Poly: (("field", "raw"), lambda: (SIGN, (1, 0, -1)), "Poly(S: 1,0,-1)", True),
    MultReport: (("element", "multiplicity", "method", "witness"),
                 lambda: (Element(SIGN, 1), 1, "recursive", (Poly(SIGN, (1,)),)),
                 "MultReport(element=S:1, multiplicity=1, method='recursive', "
                 "witness=(Poly(S: 1),))", True),
    PushforwardReport: (("hom", "poly", "image", "bounds", "counts", "split_certified", "ok"),
                        lambda: (Homomorphism(RATIONALS, SIGN, abs, "abs", len),
                                 Poly(RATIONALS, (Fraction(-1), Fraction(1))),
                                 Poly(SIGN, (1, 1)), ((1, 1),), None, False, True),
                        f"PushforwardReport(hom={_HOM}, poly=Poly(Q: -1,1), "
                        "image=Poly(S: 1,1), bounds=((1, 1),), counts=None, "
                        "split_certified=False, ok=True)", True),
    NewtonSegment: (("slope", "length"), lambda: (Fraction(-1), 2),
                    "NewtonSegment(slope=Fraction(-1, 1), length=2)", True),
    NewtonPolygon: (("vertices", "segments", "inf_prefix"),
                    lambda: (((0, Fraction(2)), (2, Fraction(0))),
                             (NewtonSegment(Fraction(1), 2),), 1),
                    "NewtonPolygon(vertices=((0, Fraction(2, 1)), (2, Fraction(0, 1))), "
                    "segments=(NewtonSegment(slope=Fraction(1, 1), length=2),), "
                    "inf_prefix=1)", True),
}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_semantics(cls):
    fields, values, text, frozen = RECORDS[cls]
    a, b = cls(*values()), cls(**dict(zip(fields, values())))
    assert repr(a) == repr(b) == text
    assert tuple(getattr(a, f) for f in fields) == values()
    assert a == b and not a != b and a is not b
    assert copy.copy(a) == a
    # equal fields in another class do not make equal records
    other = type("Other", (cls,), {})(*values())
    assert a != other and other != a and not a == other
    if frozen:
        assert hash(a) == hash(b) == hash(values())
        with pytest.raises(AttributeError):
            setattr(a, fields[0], getattr(b, fields[0]))
        with pytest.raises(AttributeError):
            delattr(a, fields[-1])
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], "changed")
        assert getattr(a, fields[0]) == "changed" and a != b


def test_defaults_and_keywords():
    assert AxiomCheck("nonempty", True).witness is None
    assert AxiomCheck(axiom="nonempty", passed=True, witness=None) == AxiomCheck("nonempty", True)
    hom = Homomorphism(RATIONALS, SIGN, abs, "abs")
    assert hom.count_roots is None
    assert Homomorphism(RATIONALS, SIGN, abs, "abs", count_roots=len).count_roots is len
    assert hom != Homomorphism(RATIONALS, SIGN, abs, "abs", count_roots=len)
    with pytest.raises(TypeError):
        AxiomCheck("nonempty")
    with pytest.raises(TypeError):
        Element(SIGN, 1, value=1)
