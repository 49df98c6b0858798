"""Command-line behavior: verbs, exit codes, formats, and golden JSON."""

import json
import pathlib
import shlex

import pytest

from hyperpoly import parse_field, parse_poly
from hyperpoly.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

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

    def test_verify_batches(self, capsys):
        for what, cases in (("descartes", "25"), ("newton", "10"),
                            ("tropical", "40")):
            code, out, _ = run(capsys, "verify", "--what", what,
                               "--cases", cases)
            assert code == 0
            assert "failures=0" in out

    def test_verify_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("HYPERPOLY_SEED", "42")
        code, out, _ = run(capsys, "verify", "--what", "tropical",
                           "--cases", "10")
        assert code == 0
        assert "seed=42" in out


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

    def test_deep_association_tree_is_two(self, capsys):
        tree = "(" * 1100 + "1" + " 2)" * 1100
        code, _, err = run(capsys, "hyperprod", "--field", "S",
                           "--polys", "(-1,1);(1,1)", "--assoc", tree)
        assert code == 2
        assert err.splitlines()[0] == \
            "parse error: association tree nested more than 256 levels deep"


class TestOutputStability:
    @pytest.mark.parametrize("name,argv", [
        ("newton_example.json",
         ["newton", "--field", "T", "--poly", "2,0,1,inf,-1,0",
          "--format", "json"]),
        ("mult_example.json",
         ["mult", "--field", "S", "--poly", "1,-1,-1,1", "--at", "1",
          "--format", "json"]),
    ])
    def test_golden_json(self, capsys, name, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()

    @pytest.mark.parametrize("fmt,ext", [("text", "txt"), ("json", "json")])
    @pytest.mark.parametrize("name", list(README_COMMANDS))
    def test_readme_snapshot(self, capsys, monkeypatch, tmp_path, name, fmt, ext):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("HYPERPOLY_SEED", raising=False)
        argv = shlex.split(README_COMMANDS[name]) + ["--format", fmt]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / f"readme_{name}.{ext}").read_text()
        if name == "newton_T":
            assert (tmp_path / "segments.txt").read_text() == \
                (GOLDEN / "readme_newton_T.segments.txt").read_text()

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

    def test_json_is_sorted_and_stable(self, capsys):
        _, out1, _ = run(capsys, "axioms", "--field", "S", "--format", "json")
        _, out2, _ = run(capsys, "axioms", "--field", "S", "--format", "json")
        assert out1 == out2
        payload = json.loads(out1)
        assert list(payload) == sorted(payload)
