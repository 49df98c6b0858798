"""Command-line behavior: verbs, exit codes, formats, and golden JSON."""

import argparse
import contextlib
import gc
import io
import json
import os
import pathlib
import re
import shlex
import shutil
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperpoly import (axioms, cli, core, hyperproduct, instances, parse_field, parse_poly,
                       polynomial, pushforward, tropical_newton)
from hyperpoly.cli import main
from hyperpoly.instances import ENUMERATION_LIMIT, PRIMALITY_LIMIT

GOLDEN = pathlib.Path(__file__).parent / "golden"


def alternating(degree: int) -> str:
    """The monic alternating sign polynomial of the given degree, the signs
    of (T - 1)^degree."""
    return ",".join(("1", "-1")[(degree - i) % 2] for i in range(degree + 1))


# the command lines of README.md, keyed by the name of their golden files
README_COMMANDS = {
    "mult": "mult --field S --poly 1,-1,-1,1 --at 1",
    "roots": "roots --field W --poly 1,1,1",
    "quotients": "quotients --field S --poly 1,-1,-1,1 --at 1",
    "newton_T": "newton --field T --poly 2,0,1,inf,-1,0 --plot-data segments.txt",
    "newton_Q": "newton --field Q --poly=-8,14,-7,1 --prime 2 --roots 1,2,4",
    "factor": "factor --field T --poly 11,4,0",
    "descartes": "descartes --poly 6,-7,0,1 --roots 1,2,-3",
    "hyperprod": 'hyperprod --field S --polys "(-1,1);(-1,1);(1,1)" --assoc "((1 2) 3)"',
    "axioms": "axioms --field quot:7:2",
    "verify": "verify --what tropical --cases 500",
}

# the harness verbs on inputs the README does not show: no hint, a root at
# zero, an inf row, and the verify batches at their default sizes
HARNESS_COMMANDS = {
    "descartes_nohint": "descartes --poly 1,0,1,0,-1",
    "descartes_zero_root": "descartes --poly 0,6,-7,0,1 --roots 0,1,2,-3",
    "newton_Q_nohint": "newton --field Q --poly=-2,0,1 --prime 2",
    "newton_Q_inf": "newton --field Q --poly 0,0,-2,1 --prime 2 --roots 0,0,2",
    "verify_descartes": "verify --what descartes",
    "verify_newton": "verify --what newton",
}

# the two 7-factor hyperproducts of 729 products each, shaped like the
# benchmark's heaviest hyperprod cases: one over W, one over S
HYPERPROD_W7 = ('hyperprod --field W'
                ' --polys "(1,1);(-1,-1);(-1,-1);(1,-1);(-1,1);(1,1);(-1,-1)"'
                ' --assoc "((((1 (2 3)) 4) (5 6)) 7)"')
HYPERPROD_COMMANDS = {
    "W7": HYPERPROD_W7,
    "S7": ('hyperprod --field S --polys "(1,-1);(-1,1);(-1,1);(1,1);(1,-1);(1,1);(-1,-1)"'
           ' --assoc "((1 (2 3)) ((4 (5 6)) 7))"'),
}

README = pathlib.Path(__file__).parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestVerbs:
    def test_mult_with_witness(self, capsys):
        code, out, _ = run(capsys, "mult", "--field", "S",
                           "--poly", "1,-1,-1,1", "--at", "1")
        assert code == 0
        assert "mult = 2" in out
        assert out.count("quotient=") == 2

    def test_newton_segments(self, capsys):
        code, out, _ = run(capsys, "newton", "--field", "T",
                           "--poly", "2,0,1,inf,-1,0")
        assert code == 0
        assert "segment slope=2 length=1" in out
        assert "segment slope=1/3 length=3" in out
        assert "segment slope=-1 length=1" in out

    def test_newton_plot_data(self, capsys, tmp_path):
        target = tmp_path / "segments.txt"
        code, out, _ = run(capsys, "newton", "--field", "T",
                           "--poly", "2,0,1,inf,-1,0",
                           "--plot-data", str(target))
        assert code == 0
        blocks = target.read_text().strip().split("\n\n")
        assert len(blocks) == 3
        assert all(len(b.splitlines()) == 2 for b in blocks)

    def test_newton_plot_data_unwritable(self, capsys, tmp_path):
        target = str(tmp_path / "missing" / "x.dat")
        code, out, err = run(capsys, "newton", "--field", "T", "--poly", "0,1",
                             "--plot-data", target)
        assert code == 1
        assert out == ""
        assert err.splitlines()[0] == (f"error: cannot write plot data to {target!r}: "
                                       "No such file or directory")

    def test_hyperprod_counts(self, capsys):
        code, out, _ = run(capsys, "hyperprod", "--field", "S",
                           "--polys", "(-1,1);(-1,1);(1,1)",
                           "--assoc", "((1 2) 3)")
        assert code == 0
        assert "count=9" in out
        code, out, _ = run(capsys, "hyperprod", "--field", "S",
                           "--polys", "(-1,1);(-1,1);(1,1)",
                           "--assoc", "(1 (2 3))")
        assert code == 0
        assert "count=5" in out

    def test_quotients(self, capsys):
        code, out, _ = run(capsys, "quotients", "--field", "S",
                           "--poly", "1,-1,-1,1", "--at", "1")
        assert code == 0
        assert out.count("quotient=") == 3

    def test_roots_finite(self, capsys):
        code, out, _ = run(capsys, "roots", "--field", "W", "--poly", "1,1,1")
        assert code == 0
        assert "root=1 mult=2" in out and "root=-1 mult=2" in out

    @pytest.mark.parametrize("coeffs,text", [("1", "no roots"), ("0,1", "root=0 mult=1")])
    def test_roots_of_a_monomial_skip_the_sweep(self, capsys, monkeypatch, coeffs, text):
        # the largest prime under the enumeration limit, where a sweep of
        # every value took 7 to 10 s
        search, calls = polynomial.multiplicity, []
        monkeypatch.setattr(polynomial, "multiplicity",
                            lambda *args: calls.append(args) or search(*args))
        code, out, err = run(capsys, "roots", "--field", "Fp:1048573", "--poly", coeffs)
        assert (code, out, err, calls) == (0, text + "\n", "", [])

    def test_roots_tropical(self, capsys):
        code, out, _ = run(capsys, "factor", "--field", "T", "--poly", "11,4,0")
        assert code == 0
        assert "roots=4,7" in out

    def test_descartes(self, capsys):
        code, out, _ = run(capsys, "descartes", "--poly", "6,-7,0,1",
                           "--roots", "1,2,-3")
        assert code == 0
        assert "bound_pos=2" in out and "positive_roots=2" in out
        assert "ok=yes" in out

    def test_newton_rule_over_q(self, capsys):
        code, out, _ = run(capsys, "newton", "--field", "Q",
                           "--poly=-8,14,-7,1", "--prime", "2",
                           "--roots", "1,2,4")
        assert code == 0
        assert "slope=2 nu=1 roots=1" in out

    def test_axioms(self, capsys):
        code, out, _ = run(capsys, "axioms", "--field", "S")
        assert code == 0
        assert "reversibility: pass" in out

    def test_axioms_checks_once(self, capsys, monkeypatch):
        calls = []
        real = core.check_axioms

        def counted(F):
            calls.append(F.name)
            return real(F)

        # patch every module that binds the checker, as the verb's callees may
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("hyperpoly")
                    and getattr(module, "check_axioms", None) is real):
                monkeypatch.setattr(module, "check_axioms", counted)
        code, _, _ = run(capsys, "axioms", "--field", "quot:7:2")
        assert code == 0
        assert calls == ["quot:7:1,2,4"]

    def test_axioms_reports_a_failing_check(self, capsys, monkeypatch):
        # K with 0 + 0 = {0, 1}: zero is not neutral, nor distributive
        K = parse_field("K")
        broken = core.FiniteHyperfield("K'", [0, 1], 0, 1, K.mul_table,
                                       K.add_table | {(0, 0): {0, 1}})
        monkeypatch.setattr("hyperpoly.cli.parse_field", lambda spec: broken)
        code, out, _ = run(capsys, "axioms", "--field", "K")
        assert code == 1
        assert "  distributivity: FAIL  [a=0, b=0, c=0]" in out.splitlines()
        code, out, _ = run(capsys, "axioms", "--field", "K", "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["checks"][-1] == {"axiom": "distributivity",
                                         "passed": False,
                                         "witness": "a=0, b=0, c=0"}
        assert all(set(c) == {"axiom", "passed", "witness"}
                   for c in payload["checks"])

    def test_verify_batches(self, capsys):
        for what, cases in (("descartes", "25"), ("newton", "10"),
                            ("tropical", "40")):
            code, out, _ = run(capsys, "verify", "--what", what,
                               "--cases", cases)
            assert code == 0
            assert "failures=0" in out

    def test_verify_failure_names_corpus_case_and_hom(self, capsys, monkeypatch):
        calls = []
        real = pushforward.verify_pushforward

        def fail_fourth(hom, p, roots=None):
            report = real(hom, p, roots)
            calls.append(p)
            if len(calls) == 4:  # corpus case 1 under its second prime
                return pushforward.PushforwardReport(
                    report.hom, report.poly, report.image, report.bounds,
                    report.counts, report.split_certified, ok=False)
            return report

        monkeypatch.setattr(pushforward, "verify_pushforward", fail_fourth)
        code, out, _ = run(capsys, "verify", "--what", "newton", "--cases", "3",
                           "--seed", "0")
        assert code == 1
        poly_text = ",".join(str(c.value) for c in calls[3].coeffs)
        assert out.splitlines() == [
            f"case=1 ok=no poly={poly_text} hom=padic:3",
            "what=newton cases=3 seed=0 failures=1",
        ]

    def test_verify_tropical_failure_lists_the_roots(self, capsys, monkeypatch):
        monkeypatch.setattr(tropical_newton, "in_product", lambda p, roots: False)
        code, out, _ = run(capsys, "verify", "--what", "tropical", "--cases", "3",
                           "--seed", "0")
        assert code == 1
        assert out == ("case=0 ok=no roots={-2, 0, 1/3, inf}\n"
                       "case=1 ok=no roots={0, 1/3, 1/3, inf, inf}\n"
                       "case=2 ok=no roots={-1, 0, 1, 1}\n"
                       "what=tropical cases=3 seed=0 failures=3\n")

    def test_verify_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERPOLY_SEED", "42")
        code, out, _ = run(capsys, "verify", "--what", "tropical",
                           "--cases", "10")
        assert code == 0
        assert "seed=42" in out

    # over quot:13:3 every root of 1,2,1,1,2,1,... has mult_a = n - 1 at
    # degree 10, where the search without the n - 1 bound listed the
    # quotients of 183,737 polynomials (about 30 s), and n at degree 12;
    # times T, the bound must read the lowest nonzero coefficient.  The
    # outputs are pinned from that search; this one lists those of 46 to 58.
    # Over S the bound seldom fires.  The exact counts pin the states the
    # search visits: 1,449 for mult_deep_S's input, 9,008 for the
    # alternating polynomial of degree 12 (mult = 12) and 3,516 for T times
    # the one of degree 11, where n is odd and the search strips T.
    @pytest.mark.parametrize("argv,listed,seconds,expected", [
        (["roots", "--field", "quot:13:3", "--poly", "1,2,1,1,2,1,1,2,1,1,2"],
         46, 1, dict.fromkeys(("1", "2", "4", "7"), 9)),
        (["roots", "--field", "quot:13:3", "--poly", "1,2,1,1,2,1,1,2,1,1,2,1,1"],
         58, 1, dict.fromkeys(("1", "2", "4", "7"), 12)),
        (["roots", "--field", "quot:13:3", "--poly", "0,1,2,1,1,2,1,1,2,1,1,2,1,1"],
         58, 1, {"0": 1, **dict.fromkeys(("1", "2", "4", "7"), 12)}),
        (["mult", "--field", "S", "--poly=-1,1,1,1,0,-1,0,1,1,1,0,-1,-1",
          "--at=-1"], 1449, 5, "mult_deep_S.json"),
        (["mult", "--field", "S", "--poly", alternating(12), "--at", "1"],
         9008, 5, [alternating(d) for d in range(11, -1, -1)]),
        (["mult", "--field", "S", "--poly", "0," + alternating(11), "--at", "1"],
         3516, 5, ["0," + alternating(d) for d in range(10, -1, -1)]),
    ], ids=["degree-10", "degree-12", "degree-13-ord-1", "mult-deep-S",
            "S-alternating-12", "S-alternating-11-ord-1"])
    def test_deep_root_search_is_fast(self, capsys, monkeypatch, argv, listed,
                                      seconds, expected):
        search, polys = polynomial._quotients_raw, []

        def budgeted(*args):
            polys.append(args[1])
            assert len(polys) <= listed, f"quotients listed for over {listed} polynomials"
            return search(*args)

        monkeypatch.setattr(polynomial, "_quotients_raw", budgeted)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--format", "json")
        assert time.perf_counter() - start < seconds
        assert (code, err, len(polys)) == (0, "", listed)
        if isinstance(expected, str):
            assert out == (GOLDEN / expected).read_text()
        elif isinstance(expected, list):
            assert json.loads(out)["witness"] == expected
        else:
            assert out == json.dumps({
                "field": "quot:13:1,3,9", "poly": argv[-1], "roots": [
                    {"element": e, "multiplicity": m} for e, m in expected.items()]},
                sort_keys=True, indent=2) + "\n"


class TestExitCodes:
    def test_parse_error_is_two(self, capsys):
        code, _, err = run(capsys, "mult", "--field", "X",
                           "--poly", "1,1", "--at", "1")
        assert code == 2 and "parse error" in err
        code, _, err = run(capsys, "mult", "--field", "S",
                           "--poly", "1,banana", "--at", "1")
        assert code == 2

    def test_domain_error_is_one(self, capsys):
        code, _, err = run(capsys, "roots", "--field", "P", "--poly", "0,0,0")
        assert code == 1 and "error" in err
        code, _, err = run(capsys, "factor", "--field", "S", "--poly", "1,1")
        assert code == 1
        code, _, err = run(capsys, "newton", "--field", "Q", "--poly", "1,1")
        assert code == 1

    def test_non_integer_seed_env_is_two(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERPOLY_SEED", "abc")
        code, out, err = run(capsys, "verify", "--what", "descartes")
        assert (code, out) == (2, "")
        assert err == "parse error: HYPERPOLY_SEED must be an integer, got 'abc'\n"

    @pytest.mark.parametrize("flag,value", [("--prime", "2"), ("--roots", "1")])
    def test_newton_over_t_rejects_q_flags(self, capsys, flag, value):
        code, out, err = run(capsys, "newton", "--field", "T", "--poly", "1,0",
                             flag, value)
        assert (code, out) == (1, "")
        assert err == f"error: {flag} applies only to newton over Q\n"

    def test_newton_over_q_rejects_plot_data(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "newton", "--field", "Q", "--poly=-2,0,1",
                             "--prime", "2", "--plot-data", "segments.txt")
        assert (code, out) == (1, "")
        assert err == "error: --plot-data applies only to newton over T\n"
        assert not (tmp_path / "segments.txt").exists()

    def test_newton_over_t_with_empty_plot_data_path_is_one(self, capsys):
        # an empty path is a path that cannot be written, not an absent flag
        code, out, err = run(capsys, "newton", "--field", "T", "--poly", "2,0,1",
                             "--plot-data", "")
        assert (code, out) == (1, "")
        assert err == "error: cannot write plot data to '': No such file or directory\n"

    @pytest.mark.parametrize("prime", ["0", "1", "4", "-3"])
    def test_newton_prime_that_is_not_prime_is_two(self, capsys, prime):
        # the rule of Fp:<p> and padic:<p>: a non-prime below the primality
        # limit is a parse error
        code, out, err = run(capsys, "newton", "--field", "Q", "--poly", "1,2",
                             "--prime", prime)
        assert (code, out, err) == (2, "", f"parse error: {prime} is not prime\n")
        assert run(capsys, "roots", "--field", f"Fp:{prime}", "--poly", "1,1") == \
            (code, out, err)

    @pytest.mark.parametrize("argv", [
        "descartes --poly 1e5000,1,1", "descartes --poly 1e-5000,1,1",
        "roots --field T --poly 1e5000,0,1", "mult --field Q --poly=-1e5000,1 --at 1e5000"])
    def test_coefficient_past_the_digit_limit_is_two(self, capsys, argv):
        # str() would refuse its numerator or denominator
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err.splitlines()[0].startswith("parse error:")

    def test_coefficient_within_the_digit_limit_prints_back(self, capsys):
        code, out, err = run(capsys, "roots", "--field", "T", "--poly", "1e4000,0,1",
                             "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["poly"] == f"{10 ** 4000},0,1"

    def test_huge_exponent_is_refused_from_the_text(self, capsys, monkeypatch):
        # Fraction("1e10000000") builds 10^10000000, which takes seconds
        calls = []

        class Counted(instances.Fraction):
            def __new__(cls, *args):
                calls.append(args)
                return Fraction(*args)

        monkeypatch.setattr(instances, "Fraction", Counted)
        code, _, err = run(capsys, "descartes", "--poly", "1e10000000,1")
        assert code == 2 and err.startswith("parse error:")
        assert calls == []
        assert instances._parse_fraction("1e3") == 1000 and calls == [("1e3",)]

    def test_unknown_verb_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_verify_cases_below_one_is_two(self, capsys, cases):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--what", "tropical", "--cases", cases])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        # argparse prints its usage line first, then the error
        assert err[0].startswith("usage: hyperpoly verify ")
        assert err[-1] == ("hyperpoly verify: error: argument --cases: "
                           f"must be at least 1, got {cases}")

    def test_verify_cases_above_the_limit_is_two(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_CASES_LIMIT", 3)
        args = cli.build_parser().parse_args(["verify", "--what", "tropical",
                                              "--cases", "3"])
        assert args.cases == 3
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--what", "tropical", "--cases", "4"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "hyperpoly verify: error: argument --cases: "
            "must be at most VERIFY_CASES_LIMIT (3), got 4")

    @pytest.mark.parametrize("argv,text", [
        (("mult", "--field", "S", "--poly", "1,,-1", "--at", "1"), "1,,-1"),
        (("mult", "--field", "S", "--poly", "1,-1,", "--at", "1"), "1,-1,"),
        (("descartes", "--poly=-2,1", "--roots", "2,,"), "2,,"),
        (("hyperprod", "--field", "S", "--polys", "(1,1);;(1,-1)"),
         "(1,1);;(1,-1)"),
        (("axioms", "--field", "quot:13:3,"), "3,"),
        (("axioms", "--field", "quot:13:,3"), ",3"),
    ], ids=["poly-inner", "poly-trailing", "roots", "hyperprod",
            "quot-trailing", "quot-leading"])
    def test_empty_list_entry_is_two(self, capsys, argv, text):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"parse error: empty entry in {text!r}\n"

    @pytest.mark.parametrize("argv", [
        ("mult", "--field", "Fp:1000000000000000003", "--poly", "1,1", "--at", "1"),
        ("newton", "--field", "Q", "--poly=-2,0,1", "--prime", "1000000000000000003"),
    ], ids=["Fp", "newton-prime"])
    def test_large_prime_answers(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [
        ("mult", "--field", f"Fp:{PRIMALITY_LIMIT}", "--poly", "1,1", "--at", "1"),
        ("newton", "--field", "Q", "--poly=-2,0,1", "--prime", str(PRIMALITY_LIMIT)),
    ], ids=["Fp", "newton-prime"])
    def test_prime_above_the_primality_limit_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == (
            f"error: {PRIMALITY_LIMIT} is too large: primality is decided "
            f"only below {PRIMALITY_LIMIT}")

    def test_trailing_zero_warning_is_one_line(self, capsys):
        code, out, err = run(capsys, "mult", "--field", "S", "--poly", "1,1,0",
                             "--at", "1")
        assert (code, out) == run(capsys, "mult", "--field", "S", "--poly",
                                  "1,1", "--at", "1")[:2]
        assert err == ("warning: trailing zero coefficients stripped "
                       "from polynomial input\n")

    def test_deep_association_tree_is_two(self, capsys):
        tree = "(" * 1100 + "1" + " 2)" * 1100
        code, _, err = run(capsys, "hyperprod", "--field", "S",
                           "--polys", "(-1,1);(1,1)", "--assoc", tree)
        assert code == 2
        assert err.splitlines()[0] == \
            "parse error: association tree nested more than 256 levels deep"

    def test_many_factors_without_association_is_zero(self, capsys):
        # the default association of 1,200 factors is folded, not recursed
        polys = ";".join(["(1)"] * 1200)
        code, out, err = run(capsys, "hyperprod", "--field", "S", "--polys", polys)
        assert (code, out, err) == (0, "count=1\n1\n", "")

    def test_hyperproduct_limit_counts_boxes_not_enumerated(self, capsys, monkeypatch):
        # the W case's 337 boxes hold 16,431 choices, of which a node that
        # fills its bounding box early enumerates 9,300: the budget counts all
        monkeypatch.setattr(hyperproduct, "HYPERPRODUCT_CHOICE_LIMIT", 12000)
        code, out, err = run(capsys, *shlex.split(HYPERPROD_W7))
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == ("error: enumeration would reach 12267 "
                                       "coefficient choices, more than the limit 12000")

    def test_hyperproduct_limit_trips_in_the_full_union_order(self, capsys, monkeypatch):
        # the order a node reads its child's set in sets the box the budget
        # trips at; a union a node skips would still have grown that set's
        # table, and read without it the same call reaches 1929
        monkeypatch.setattr(hyperproduct, "HYPERPRODUCT_CHOICE_LIMIT", 1801)
        code, out, err = run(capsys, "hyperprod", "--field", "W",
                             "--polys", "(1,0,1);(1,1,1);(-1,1,1);(0,1,1)")
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == ("error: enumeration would reach 1862 "
                                       "coefficient choices, more than the limit 1801")

    def test_hyperproduct_limit_trips_where_the_right_operand_is_larger(self, capsys,
                                                                      monkeypatch):
        # the nodes of (1 (2 (3 (4 5)))) pair one product with 1, 3, 8 and 26,
        # spending 3, 16, 88 and 488 choices in all: the last node's boxes are
        # budgeted in the order it reads its right operand in
        monkeypatch.setattr(hyperproduct, "HYPERPRODUCT_CHOICE_LIMIT", 300)
        code, out, err = run(capsys, "hyperprod", "--field", "W",
                             "--polys", "(1,1);(-1,1);(1,1);(-1,1);(1,1)",
                             "--assoc", "(1 (2 (3 (4 5))))")
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == ("error: enumeration would reach 305 "
                                       "coefficient choices, more than the limit 300")

    def test_hyperproduct_choice_limit_is_one(self, capsys, monkeypatch):
        # W at the default limit: 9 alternating factors need 432,576 choices,
        # 10 would need 2,357,339; a lowered limit keeps the test fast
        monkeypatch.setattr(hyperproduct, "HYPERPRODUCT_CHOICE_LIMIT", 1000)
        polys = ";".join(["(1,1);(-1,1)"] * 3)
        code, out, err = run(capsys, "hyperprod", "--field", "W", "--polys", polys)
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == ("error: enumeration would reach 1003 "
                                       "coefficient choices, more than the limit 1000")

    @pytest.mark.parametrize("argv", [
        ("roots", "--field", "Fp:1000000007", "--poly", "1,1"),
        ("axioms", "--field", "Fp:1000000007"),
    ], ids=["roots", "axioms"])
    def test_prime_above_the_enumeration_limit_is_one(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == (
            f"error: Fp:1000000007: 1000000007 elements are more than the "
            f"enumeration limit {ENUMERATION_LIMIT}")

    def test_axioms_above_the_carrier_limit_is_one(self, capsys):
        # Fp:1031 is enumerable, but its quadratic checks would take about 24 s
        start = time.perf_counter()
        code, out, err = run(capsys, "axioms", "--field", "Fp:1031")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.splitlines()[0] == (
            f"error: axioms over Fp:1031: 1031 elements, 1062961 pairs, more "
            f"than the carrier limit {axioms.AXIOM_CARRIER_LIMIT}")
        assert axioms.AXIOM_CARRIER_LIMIT == 1024


VERBS = ["axioms", "roots", "mult", "quotients", "descartes", "newton", "factor",
         "hyperprod", "verify"]

# one valid call of each verb, in VERBS order, as perfbench makes them: the
# first required argument comes first, and --format json last
VALID_CALLS = [
    ["axioms", "--field", "S", "--format", "json"],
    ["roots", "--field", "W", "--poly", "1,1,1", "--format", "json"],
    ["mult", "--field", "S", "--poly", "1,-1,-1,1", "--at", "1", "--format", "json"],
    ["quotients", "--field", "S", "--poly", "1,-1,-1,1", "--at", "1", "--format", "json"],
    ["descartes", "--poly", "6,-7,0,1", "--roots", "1,2,-3", "--format", "json"],
    ["newton", "--field", "Q", "--poly=-8,14,-7,1", "--prime", "2", "--roots", "1,2,4",
     "--format", "json"],
    ["factor", "--field", "T", "--poly", "11,4,0", "--format", "json"],
    ["hyperprod", "--field", "S", "--polys", "(-1,1);(-1,1);(1,1)", "--assoc", "((1 2) 3)",
     "--format", "json"],
    ["verify", "--what", "tropical", "--cases", "5", "--seed", "3", "--format", "json"],
]


def stock_parser(monkeypatch):
    """``build_parser()`` as argparse builds it by default: every formatter
    asks the terminal for its width, and the verbs' prog is derived from a
    rendered usage line."""
    init = argparse.ArgumentParser.__init__
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def stock_init(self, *args, **kwargs):
        init(self, *args, **{**kwargs, "formatter_class": argparse.HelpFormatter})

    def stock_subparsers(self, **kwargs):
        kwargs.pop("prog", None)
        return add_subparsers(self, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", stock_init)
        patch.setattr(argparse.ArgumentParser, "add_subparsers", stock_subparsers)
        return cli.build_parser()


def parser_texts(capsys, build):
    """The ``-h`` output, and the usage line and error of a call that misses
    a required argument, of the top level and of each verb, each parsed by
    ``build(verb)`` (``verb`` None for the top level)."""
    texts = []
    for verb in (None, *VERBS):
        parser = build(verb)
        argv = [] if verb is None else [verb]
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*argv, "-h"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage: hyperpoly ")
        assert "error: the following arguments are required: " in error
        texts.append((help_text, error))
    return texts


def subparsers(parser) -> argparse._SubParsersAction:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def has_help(parser) -> bool:
    return any(isinstance(a, argparse._HelpAction) for a in parser._actions)


# each verb's options in the full parser, with their choices, if any
GRAMMAR = {verb: [(a.option_strings[-1], a.choices) for a in sp._actions
                  if a.option_strings and not isinstance(a, argparse._HelpAction)]
           for verb, sp in subparsers(cli.build_parser()).choices.items()}
VALUES = ("1", "0", "-1", "1,-1,-1,1", "S", "Q", "x")


@st.composite
def verb_argvs(draw) -> list:
    """A verb and a random subset of its options in random order, as
    ``--opt value`` or ``--opt=value``, with a bad choice, a stray token, an
    unknown option or ``-h`` in between."""
    verb = draw(st.sampled_from(VERBS))
    options = draw(st.permutations(GRAMMAR[verb]))
    argv = [verb]
    for option, choices in options[:draw(st.integers(0, len(options)))]:
        value = draw(st.sampled_from([*choices, "xml"] if choices else VALUES))
        argv += draw(st.sampled_from(([option, value], [f"{option}={value}"])))
    for token in draw(st.lists(st.sampled_from(("stray", "--bogus", "-h")), max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


def parse_outcome(parser, argv) -> tuple:
    """The Namespace of parsing ``argv``, or its exit code, with the stdout
    and stderr of the parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parser.parse_args(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestParser:
    def test_one_terminal_query_per_build(self, monkeypatch):
        query, queries = shutil.get_terminal_size, []
        monkeypatch.setattr(shutil, "get_terminal_size",
                            lambda *args: queries.append(args) or query(*args))
        cli.build_parser()
        assert len(queries) == 1

    def test_help_usage_and_errors_match_the_stock_formatter(self, capsys, monkeypatch):
        by_width = []
        for columns in ("60", "120"):
            monkeypatch.setenv("COLUMNS", columns)
            texts = parser_texts(capsys, lambda verb: cli.build_parser())
            assert texts == parser_texts(capsys, lambda verb: stock_parser(monkeypatch))
            # a parser with only the verb's arguments says the same
            assert texts == parser_texts(capsys, cli.build_parser)
            by_width.append(texts)
        # each width wraps every text its own way, so a width kept from an
        # earlier build would fail the comparison above
        assert all(a != b for narrow, wide in zip(*by_width)
                   for a, b in zip(narrow, wide))

    @pytest.mark.parametrize("valid", VALID_CALLS, ids=VERBS)
    def test_a_verb_scoped_parser_parses_like_the_full_one(self, capsys, valid):
        verb = valid[0]
        calls = [
            valid,
            [verb, *valid[3:]],  # its first required argument missing
            [*valid[:-1], "xml"],  # a bad --format choice
            [*valid, "--bogus"],
            [verb, "-h"],
        ]
        results = []
        for argv in calls:
            outcomes = []
            for parser in (cli.build_parser(verb), cli.build_parser()):
                try:
                    result = parser.parse_args(argv)
                except SystemExit as exc:
                    result = exc.code
                outcomes.append((result, *capsys.readouterr()))
            assert outcomes[0] == outcomes[1]
            results.append(outcomes[0][0])
        assert isinstance(results[0], argparse.Namespace)
        assert results[1:] == [2, 2, 2, 0]

    def test_main_adds_only_the_invoked_verbs_arguments(self, capsys, monkeypatch):
        add_argument, added = argparse.ArgumentParser.add_argument, []

        def counted(self, *args, **kwargs):
            added.append(args)
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        assert main(VALID_CALLS[VERBS.index("mult")]) == 0
        mult, added[:] = len(added), []
        cli.build_parser()
        # --field, --poly, --format and --at, and -h on the top level and on
        # mult; with no verb, every verb's arguments and one -h per parser
        assert (mult, len(added)) == (4 + 2, 43)
        # every verb is still a choice, but only mult can print its help
        verbs = subparsers(cli.build_parser("mult")).choices
        assert list(verbs) == VERBS
        assert [name for name, sp in verbs.items() if has_help(sp)] == ["mult"]
        assert all(map(has_help, subparsers(cli.build_parser()).choices.values()))

    @settings(max_examples=200, deadline=None)
    @given(verb_argvs())
    def test_a_verb_scoped_parser_parses_generated_argvs_like_the_full_one(self, argv):
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            assert (parse_outcome(cli.build_parser(argv[0]), argv)
                    == parse_outcome(cli.build_parser(), argv))

    @pytest.mark.parametrize("argv,verb", [
        (VALID_CALLS[VERBS.index("mult")], "mult"), (["-h"], None)])
    def test_main_reads_sys_argv(self, capsys, monkeypatch, argv, verb):
        build_parser, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser",
                            lambda verb=None: built.append(verb) or build_parser(verb))
        monkeypatch.setattr(sys, "argv", ["hyperpoly", *argv])
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        assert (code, built) == (0, [verb])
        assert out.startswith("{" if verb else "usage: hyperpoly ")


# the top-level parser's texts, pinned apart from build_parser: help, a
# missing verb, an unknown verb and an unknown option after a verb
PARSER_COMMANDS = {
    "help": ["-h"],
    "no_arguments": [],
    "bogus_verb": ["bogus"],
    "bogus_option": ["mult", "--field", "S", "--poly", "1,-1,-1,1", "--at", "1", "--bogus"],
}


class TestParserGolden:
    # the goldens are argparse's texts in Python 3.10 to 3.12; 3.13 puts the
    # usage line's "..." on the verb line, and later releases unquote choices
    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="argparse 3.13 texts differ")
    @pytest.mark.parametrize("name", list(PARSER_COMMANDS))
    def test_top_level_texts(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            code = main(PARSER_COMMANDS[name])
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        transcript = f"exit code: {code}\n--- stdout\n{out}--- stderr\n{err}"
        assert transcript == (GOLDEN / f"parser_{name}.txt").read_text()


class TestOutputStability:
    @pytest.mark.parametrize("name,argv", [
        ("newton_example.json",
         ["newton", "--field", "T", "--poly", "2,0,1,inf,-1,0",
          "--format", "json"]),
        ("mult_example.json",
         ["mult", "--field", "S", "--poly", "1,-1,-1,1", "--at", "1",
          "--format", "json"]),
        # degree 12, multiplicity 8: a deep search with many tied quotients
        ("mult_deep_S.json",
         ["mult", "--field", "S", "--poly=-1,1,1,1,0,-1,0,1,1,1,0,-1,-1",
          "--at=-1", "--format", "json"]),
    ])
    def test_golden_json(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @staticmethod
    def snapshot(capsys, monkeypatch, tmp_path, command, fmt):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HYPERPOLY_SEED", raising=False)
        code, out, err = run(capsys, *shlex.split(command), "--format", fmt)
        assert (code, err) == (0, "")
        return out

    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(HARNESS_COMMANDS))
    def test_harness_snapshot(self, capsys, monkeypatch, tmp_path, name, fmt, ext):
        out = self.snapshot(capsys, monkeypatch, tmp_path, HARNESS_COMMANDS[name], fmt)
        assert out == (GOLDEN / f"harness_{name}.{ext}").read_text()

    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(README_COMMANDS))
    def test_readme_snapshot(self, capsys, monkeypatch, tmp_path, name, fmt, ext):
        out = self.snapshot(capsys, monkeypatch, tmp_path, README_COMMANDS[name], fmt)
        assert out == (GOLDEN / f"readme_{name}.{ext}").read_text()
        if name == "newton_T":
            assert (tmp_path / "segments.txt").read_text() == \
                (GOLDEN / "readme_newton_T.segments.txt").read_text()

    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(HYPERPROD_COMMANDS))
    def test_hyperprod_snapshot(self, capsys, monkeypatch, tmp_path, name, fmt, ext):
        out = self.snapshot(capsys, monkeypatch, tmp_path, HYPERPROD_COMMANDS[name], fmt)
        assert out == (GOLDEN / f"hyperprod_{name}.{ext}").read_text()

    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("spec", ["quot:31:1", "quot:37:1", "quot:41:1", "quot:43:1",
                                      "quot:13:3", "quot:31:5", "quot:101:1",
                                      "Fp:31", "S", "K", "W", "Q", "P", "T"])
    def test_axioms_snapshot(self, capsys, monkeypatch, tmp_path, spec, fmt, ext):
        # the finite and the sample-grid axiom reports, pinned byte for byte
        out = self.snapshot(capsys, monkeypatch, tmp_path, f"axioms --field {spec}", fmt)
        assert out == (GOLDEN / f"axioms_{spec.replace(':', '_')}.{ext}").read_text()

    def test_emitted_polynomials_reparse(self, capsys):
        code, out, _ = run(capsys, "quotients", "--field", "S",
                           "--poly", "1,-1,-1,1", "--at", "1",
                           "--format", "json")
        payload = json.loads(out)
        F = parse_field(payload["field"])
        assert parse_poly(F, payload["poly"]).values() == (1, -1, -1, 1)
        for text in payload["quotients"]:
            q = parse_poly(F, text)
            assert [F.format_value(c.value) for c in q.coeffs] == text.split(",")

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
        | st.dictionaries(st.text(), inner),
        max_leaves=30))
    def test_json_writer_matches_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)

    def test_emit_leaves_no_reference_cycles(self, capsys):
        args = argparse.Namespace(format="json")
        payload = {"field": "S", "multiplicity": 2, "witness": ["-1,1", "1"],
                   "checks": [{"axiom": "a", "passed": True, "witness": None}]}
        gc.collect()
        gc.disable()
        try:
            cli._emit(args, payload, [])
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_json_is_sorted_and_stable(self, capsys):
        _, out1, _ = run(capsys, "axioms", "--field", "S", "--format", "json")
        _, out2, _ = run(capsys, "axioms", "--field", "S", "--format", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload) == sorted(payload)


class TestReadme:
    def test_python_example_runs(self):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert blocks
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})

    def test_command_lines_are_snapshotted(self):
        text = README.read_text()
        block = text[text.index("## Command line"):]
        block = block[block.index("```sh\n") + 6:]
        block = block[:block.index("```")]
        lines = [line[len("hyperpoly "):] for line in block.splitlines()
                 if line.startswith("hyperpoly ")]
        assert lines
        assert set(lines) <= set(README_COMMANDS.values())
