"""Command-line front end.

Every computation in the library is reachable here; polynomials use the
ascending comma-separated coefficient format (c0 first), hyperfields the
spec strings understood by :func:`hyperpoly.instances.parse_field`.
Output is human-readable text with machine-readable key=value lines, or
JSON with ``--format json``.  Exit codes: 0 success, 1 domain error,
2 parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import descartes as descartes_mod
from . import tropical_newton as tn
from .core import DomainError, ParseError, check_axioms
from .instances import RATIONALS, TROPICAL, RationalField, TropicalHyperfield, parse_field
from .polynomial import (
    MultReport,
    format_poly,
    hyper_product,
    multiplicity,
    parse_poly,
    poly_sort_key,
    quotients,
)


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _mult_payload(report: MultReport) -> dict:
    return {
        "element": report.element.field.format_value(report.element.value),
        "field": report.element.field.name,
        "multiplicity": report.multiplicity,
        "method": report.method,
        "witness": [format_poly(q) for q in report.witness],
    }


def _cmd_axioms(args) -> int:
    F = parse_field(args.field)
    report = check_axioms(F)
    payload = {
        "field": report.field_name,
        "exhaustive": report.exhaustive,
        "passed": report.passed,
        "checks": [{"axiom": c.axiom, "passed": c.passed, "witness": c.witness}
                   for c in report.checks],
        "notes": report.notes,
    }
    _emit(args, payload, report.lines())
    return 0 if report.passed else 1


def _cmd_roots(args) -> int:
    """The ``roots`` verb, and ``factor``, its form that only accepts T."""
    F = parse_field(args.field)
    tropical = isinstance(F, TropicalHyperfield)
    if args.verb == "factor" and not tropical:
        raise DomainError("factor is only defined over T")
    p = parse_poly(F, args.poly)
    if p.is_zero():
        raise DomainError("the zero polynomial has no well-defined roots")
    if tropical:
        ms = tn.tropical_roots(p)
        values = [F.format_value(v) for v in ms.values]
        payload = {"field": F.name, "poly": format_poly(p), "roots": values}
        lines = [f"roots={','.join(values)}"]
        _emit(args, payload, lines)
        return 0
    if not F.is_finite():
        raise DomainError(f"roots cannot be enumerated over {F.name}")
    memo: dict = {}
    found = []
    for a in sorted(F.elements(), key=lambda e: F.sort_key(e.value)):
        rep = multiplicity(p, a, memo=memo)
        if rep.multiplicity > 0:
            found.append((a, rep.multiplicity))
    payload = {
        "field": F.name,
        "poly": format_poly(p),
        "roots": [{"element": F.format_value(a.value), "multiplicity": m}
                  for a, m in found],
    }
    lines = [f"root={F.format_value(a.value)} mult={m}" for a, m in found]
    if not lines:
        lines = ["no roots"]
    _emit(args, payload, lines)
    return 0


def _cmd_mult(args) -> int:
    F = parse_field(args.field)
    p = parse_poly(F, args.poly)
    a = F.element(F.parse_value(args.at))
    report = multiplicity(p, a)
    payload = _mult_payload(report)
    lines = [f"mult = {report.multiplicity}", f"method={report.method}"]
    for q in report.witness:
        lines.append(f"quotient={format_poly(q)}")
    _emit(args, payload, lines)
    return 0


def _cmd_quotients(args) -> int:
    F = parse_field(args.field)
    p = parse_poly(F, args.poly)
    a = F.element(F.parse_value(args.at))
    qs = quotients(p, a)
    payload = {
        "field": F.name,
        "poly": format_poly(p),
        "at": F.format_value(a.value),
        "quotients": [format_poly(q) for q in qs],
    }
    lines = [f"quotient={format_poly(q)}" for q in qs] or ["no quotients"]
    _emit(args, payload, lines)
    return 0


def _parse_hint(text):
    if text is None:
        return None
    return [RATIONALS.parse_value(part) for part in text.split(",") if part.strip()]


def _cmd_descartes(args) -> int:
    p = parse_poly(RATIONALS, args.poly)
    report = descartes_mod.verify_descartes(p, split_hint=_parse_hint(args.roots))
    payload = {
        "poly": format_poly(p),
        "bound_pos": report.bound_pos,
        "bound_neg": report.bound_neg,
        "positive_roots": report.positive_roots,
        "negative_roots": report.negative_roots,
        "split_certified": report.split_certified,
        "ok": report.ok,
    }
    _emit(args, payload, report.lines())
    return 0 if report.ok else 1


def _cmd_newton(args) -> int:
    F = parse_field(args.field)
    if isinstance(F, TropicalHyperfield):
        p = parse_poly(F, args.poly)
        npg = tn.newton_polygon(p)
        payload = {
            "field": "T",
            "poly": format_poly(p),
            "inf_prefix": npg.inf_prefix,
            "vertices": [[x, str(y)] for x, y in npg.vertices],
            "segments": [{"slope": str(seg.slope), "length": seg.length}
                         for seg in npg.segments],
        }
        lines = [f"vertex=({x},{y})" for x, y in npg.vertices]
        lines += [f"segment slope={seg.slope} length={seg.length}"
                  for seg in npg.segments]
        if npg.inf_prefix:
            lines.append(f"inf_prefix={npg.inf_prefix}")
        if args.plot_data:
            with open(args.plot_data, "w", encoding="ascii") as fh:
                fh.write(npg.plot_data())
            lines.append(f"plot data written to {args.plot_data}")
        _emit(args, payload, lines)
        return 0
    if isinstance(F, RationalField):
        if args.prime is None:
            raise DomainError("newton over Q needs --prime")
        p = parse_poly(F, args.poly)
        report = tn.newton_rule_verify(p, args.prime,
                                       split_hint=_parse_hint(args.roots))
        payload = {
            "poly": format_poly(p),
            "prime": report.prime,
            "valuations": format_poly(report.valuation_poly),
            "rows": [{"slope": TROPICAL.format_value(r.slope), "nu": r.nu,
                      "roots": r.root_count} for r in report.rows],
            "split_certified": report.split_certified,
            "ok": report.ok,
        }
        _emit(args, payload, report.lines())
        return 0 if report.ok else 1
    raise DomainError("newton requires --field T, or --field Q with --prime")


def _cmd_hyperprod(args) -> int:
    F = parse_field(args.field)
    if not F.is_finite():
        raise DomainError(f"hyperprod cannot enumerate over {F.name}")
    factors = []
    for part in args.polys.split(";"):
        part = part.strip()
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        if part:
            factors.append(parse_poly(F, part))
    result = hyper_product(factors, association=args.assoc)
    ordered = sorted(result, key=poly_sort_key)
    payload = {
        "field": F.name,
        "factors": [format_poly(f) for f in factors],
        "association": args.assoc,
        "count": len(ordered),
        "products": [format_poly(q) for q in ordered],
    }
    lines = [f"count={len(ordered)}"] + [format_poly(q) for q in ordered]
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("HYPERPOLY_SEED", "0"))
    defaults = {"descartes": 200, "newton": 100, "tropical": 500}
    count = defaults[args.what] if args.cases is None else args.cases
    failures = 0
    lines = []
    if args.what == "descartes":
        reports = descartes_mod.verify_descartes_batch(count, seed=seed)
        for i, rep in enumerate(reports):
            if not rep.ok:
                failures += 1
                lines.append(f"case={i} ok=no poly={format_poly(rep.poly)}")
        lines.append(f"what=descartes cases={count} seed={seed} failures={failures}")
    elif args.what == "newton":
        reports = tn.newton_verify_batch(count, seed=seed)
        for i, rep in enumerate(reports):
            if not rep.ok:
                failures += 1
                lines.append(f"case={i} ok=no poly={format_poly(rep.poly)} prime={rep.prime}")
        lines.append(f"what=newton cases={count} seed={seed} failures={failures}")
    else:
        results = tn.tropical_roundtrip_batch(count, seed=seed)
        for i, (ms, back, inp, feq) in enumerate(results):
            if ms != back or not inp or not feq:
                failures += 1
                lines.append(f"case={i} ok=no roots={ms!r}")
        lines.append(f"what=tropical cases={count} seed={seed} failures={failures}")
    payload = {"what": args.what, "seed": seed, "failures": failures}
    _emit(args, payload, lines)
    return 0 if failures == 0 else 1


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperpoly",
        description="Root multiplicities of polynomials over hyperfields. "
                    "Polynomials are comma-separated coefficients, constant "
                    "term first; rationals print as a/b, never as floats.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, poly=True, field=True):
        if field:
            sp.add_argument("--field", required=True,
                            help="hyperfield spec: Q, Fp:<p>, S, K, W, P, T, "
                                 "quot:<p>:<g1,g2,...>")
        if poly:
            sp.add_argument("--poly", required=True,
                            help="coefficients c0,c1,... (ascending)")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("axioms", help="check the hyperfield axioms")
    common(sp, poly=False)
    sp.set_defaults(fn=_cmd_axioms)

    sp = sub.add_parser("roots", help="list roots with multiplicities")
    common(sp)
    sp.set_defaults(fn=_cmd_roots)

    sp = sub.add_parser("mult", help="multiplicity of one element as a root")
    common(sp)
    sp.add_argument("--at", required=True, help="the candidate root")
    sp.set_defaults(fn=_cmd_mult)

    sp = sub.add_parser("quotients", help="all q with p in (T-a)q")
    common(sp)
    sp.add_argument("--at", required=True)
    sp.set_defaults(fn=_cmd_quotients)

    sp = sub.add_parser("descartes",
                        help="sign-change bound vs exact positive-root count")
    common(sp, field=False)
    sp.add_argument("--roots", help="optional full rational root list (hint)")
    sp.set_defaults(fn=_cmd_descartes)

    sp = sub.add_parser("newton",
                        help="Newton polygon over T, or polygon rule over Q")
    common(sp)
    sp.add_argument("--prime", type=int, help="prime for the valuation (Q only)")
    sp.add_argument("--roots", help="optional full rational root list (hint)")
    sp.add_argument("--plot-data", help="write segment plot data to a file")
    sp.set_defaults(fn=_cmd_newton)

    sp = sub.add_parser("factor", help="tropical factorization into roots")
    common(sp)
    sp.set_defaults(fn=_cmd_roots)

    sp = sub.add_parser("hyperprod",
                        help="hyperproduct of polynomials under an association")
    common(sp, poly=False)
    sp.add_argument("--polys", required=True,
                    help="semicolon-separated factor polynomials")
    sp.add_argument("--assoc", help="association tree, e.g. '((1 2) 3)'")
    sp.set_defaults(fn=_cmd_hyperprod)

    sp = sub.add_parser("verify", help="run a seeded verification batch")
    sp.add_argument("--what", choices=("descartes", "newton", "tropical"),
                    required=True)
    sp.add_argument("--cases", type=positive_int,
                    help="batch size; defaults to 200, 100 or 500 by --what")
    sp.add_argument("--seed", type=int,
                    help="defaults to the HYPERPOLY_SEED environment variable")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
