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
import functools
import os
import sys
import warnings
from collections import Counter

from .core import INF, DomainError, ParseError, check_axioms
from .instances import RATIONALS, TROPICAL, RationalField, TropicalHyperfield, parse_field
from .polynomial import (
    MultReport,
    format_poly,
    hyper_product,
    multiplicity,
    parse_poly,
    quotients,
    roots,
    split_parts,
)


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2)``, written without the
    pure-Python encoder, whose closures leave reference cycles on every call."""
    import json

    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)  # as json.dumps does
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    elif isinstance(value, (list, tuple)) and value:
        items = [inner + _json(v, inner) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(_json(payload))
    else:
        for line in text_lines:
            print(line)


def _key_values(payload: dict, keys) -> list[str]:
    """``key=value`` text lines, with booleans as yes/no."""
    def text(v):
        return ("yes" if v else "no") if isinstance(v, bool) else v

    return [f"{k}={text(payload[k])}" for k in keys]


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
    if args.verb == "factor" and not isinstance(F, TropicalHyperfield):
        raise DomainError("factor is only defined over T")
    p = parse_poly(F, args.poly)
    found = sorted(roots(p).items(), key=lambda item: F.sort_key(item[0]))
    payload = {"field": F.name, "poly": format_poly(p)}
    if F.is_finite():
        payload["roots"] = [{"element": F.format_value(v), "multiplicity": m}
                            for v, m in found]
        lines = [f"root={F.format_value(v)} mult={m}" for v, m in found] or ["no roots"]
    else:  # the root multiset over T, each value repeated by its multiplicity
        payload["roots"] = [F.format_value(v) for v, m in found for _ in range(m)]
        lines = [f"roots={','.join(payload['roots'])}"]
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
    return [RATIONALS.parse_value(part) for part in split_parts(text)]


def _cmd_descartes(args) -> int:
    from . import pushforward as pf
    p = parse_poly(RATIONALS, args.poly)
    report = pf.verify_pushforward(pf.sign_hom(), p, _parse_hint(args.roots))
    payload = {
        "poly": format_poly(p),
        "bound_pos": report.bounds.get(1, 0),
        "bound_neg": report.bounds.get(-1, 0),
        "positive_roots": report.counts.get(1, 0),
        "negative_roots": report.counts.get(-1, 0),
        "split_certified": report.split_certified,
        "ok": report.ok,
    }
    _emit(args, payload, _key_values(payload, payload))
    return 0 if report.ok else 1


def _cmd_newton(args) -> int:
    F = parse_field(args.field)
    if isinstance(F, TropicalHyperfield):
        for flag, value in (("--prime", args.prime), ("--roots", args.roots)):
            if value is not None:
                raise DomainError(f"{flag} applies only to newton over Q")
        from . import tropical_newton as tn
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
        if args.plot_data is not None:
            try:
                with open(args.plot_data, "w", encoding="ascii") as fh:
                    fh.write(npg.plot_data())
            except OSError as exc:
                raise DomainError(f"cannot write plot data to {args.plot_data!r}: "
                                  f"{exc.strerror}") from None
            lines.append(f"plot data written to {args.plot_data}")
        _emit(args, payload, lines)
        return 0
    if isinstance(F, RationalField):
        if args.plot_data is not None:
            raise DomainError("--plot-data applies only to newton over T")
        if args.prime is None:
            raise DomainError("newton over Q needs --prime")
        from . import pushforward as pf
        p = parse_poly(F, args.poly)
        # the spec's rule: a non-prime is a parse error, unless too large to decide
        hom = pf.parse_homomorphism(f"padic:{args.prime}")
        report = pf.verify_pushforward(hom, p, _parse_hint(args.roots))
        # one row per slope, steepest first, inf last
        slopes = sorted(set(report.bounds) | set(report.counts or ()),
                        key=lambda s: (s is INF, 0 if s is INF else -s))
        rows = [{"slope": TROPICAL.format_value(s), "nu": report.bounds.get(s, 0),
                 "roots": None if report.counts is None else report.counts.get(s, 0)}
                for s in slopes]
        payload = {
            "poly": format_poly(p),
            "prime": args.prime,
            "valuations": format_poly(report.image),
            "rows": rows,
            "split_certified": report.split_certified,
            "ok": report.ok,
        }
        lines = _key_values(payload, ("prime", "valuations"))
        lines += [f"slope={r['slope']} nu={r['nu']}"
                  + ("" if r["roots"] is None else f" roots={r['roots']}")
                  for r in rows]
        lines += _key_values(payload, ("split_certified", "ok"))
        _emit(args, payload, lines)
        return 0 if report.ok else 1
    raise DomainError("newton requires --field T, or --field Q with --prime")


def _cmd_hyperprod(args) -> int:
    F = parse_field(args.field)
    if not F.is_finite():
        raise DomainError(f"hyperprod cannot enumerate over {F.name}")
    factors = []
    for part in split_parts(args.polys, ";"):
        if part.startswith("(") and part.endswith(")"):
            part = part[1:-1]
        factors.append(parse_poly(F, part))
    # every product has one length, so one key and one text per value sort and print it
    result = [q.values() for q in hyper_product(factors, association=args.assoc)]
    keys = {v: F.sort_key(v) for v in set().union(*result)}
    texts = {v: F.format_value(v) for v in keys}
    result.sort(key=lambda t: tuple(map(keys.__getitem__, t)))
    products = [",".join(map(texts.__getitem__, t)) or "0" for t in result]
    payload = {
        "field": F.name,
        "factors": [format_poly(f) for f in factors],
        "association": args.assoc,
        "count": len(products),
        "products": products,
    }
    lines = [f"count={len(products)}"] + products
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("HYPERPOLY_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise ParseError(f"HYPERPOLY_SEED must be an integer, got {text!r}") from None
    defaults = {"descartes": 200, "newton": 100, "tropical": 500}
    count = defaults[args.what] if args.cases is None else args.cases
    lines = []
    if args.what == "tropical":
        from . import tropical_newton as tn
        for i, ms in enumerate(tn.random_root_multisets(count, seed)):
            p = tn.expand_roots(ms)
            if (roots(p) != Counter(ms) or not tn.in_product(p, ms)
                    or not tn.functional_equiv(p, ms)):
                listed = ", ".join(map(TROPICAL.format_value, ms))
                lines.append(f"case={i} ok=no roots={{{listed}}}")
    else:
        from . import pushforward as pf
        homs, pool = {
            "descartes": ((pf.sign_hom(),), pf.DEFAULT_SPLIT_ROOT_POOL),
            "newton": ((pf.padic_hom(2), pf.padic_hom(3)), pf.DEFAULT_PADIC_ROOT_POOL),
        }[args.what]
        corpus = pf.split_poly_corpus(count, seed, root_pool=pool)
        for i, (p, hint) in enumerate(corpus):
            for hom in homs:
                if not pf.verify_pushforward(hom, p, hint).ok:
                    lines.append(f"case={i} ok=no poly={format_poly(p)} hom={hom.rule}")
    failures = len(lines)
    lines.append(f"what={args.what} cases={count} seed={seed} failures={failures}")
    payload = {"what": args.what, "seed": seed, "failures": failures}
    _emit(args, payload, lines)
    return 0 if failures == 0 else 1


# the largest ``verify --cases``, 20 times the largest default: a batch this
# size runs for 1 to 3 s
VERIFY_CASES_LIMIT = 10_000


def positive_int(text: str) -> int:
    """A ``verify`` batch size, from 1 to ``VERIFY_CASES_LIMIT``."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > VERIFY_CASES_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be at most VERIFY_CASES_LIMIT ({VERIFY_CASES_LIMIT}), got {value}")
    return value


def _common(sp, fn, poly=True, field=True):
    sp.set_defaults(fn=fn)
    if field:
        sp.add_argument("--field", required=True,
                        help="hyperfield spec: Q, Fp:<p>, S, K, W, P, T, "
                             "quot:<p>:<g1,g2,...>")
    if poly:
        sp.add_argument("--poly", required=True,
                        help="coefficients c0,c1,... (ascending)")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def _mult_args(sp):
    _common(sp, _cmd_mult)
    sp.add_argument("--at", required=True, help="the candidate root")


def _quotients_args(sp):
    _common(sp, _cmd_quotients)
    sp.add_argument("--at", required=True)


def _descartes_args(sp):
    _common(sp, _cmd_descartes, field=False)
    sp.add_argument("--roots", help="optional full rational root list (hint)")


def _newton_args(sp):
    _common(sp, _cmd_newton)
    sp.add_argument("--prime", type=int, help="prime for the valuation (Q only)")
    sp.add_argument("--roots", help="optional full rational root list (hint)")
    sp.add_argument("--plot-data", help="write segment plot data to a file")


def _hyperprod_args(sp):
    _common(sp, _cmd_hyperprod, poly=False)
    sp.add_argument("--polys", required=True,
                    help="semicolon-separated factor polynomials")
    sp.add_argument("--assoc", help="association tree, e.g. '((1 2) 3)'")


def _verify_args(sp):
    sp.set_defaults(fn=_cmd_verify)
    sp.add_argument("--what", choices=("descartes", "newton", "tropical"),
                    required=True)
    sp.add_argument("--cases", type=positive_int,
                    help="batch size; defaults to 200, 100 or 500 by --what")
    sp.add_argument("--seed", type=int,
                    help="defaults to the HYPERPOLY_SEED environment variable")
    sp.add_argument("--format", choices=("text", "json"), default="text")


# each verb: its help line, and the function that adds its arguments and handler
VERBS = {
    "axioms": ("check the hyperfield axioms",
               lambda sp: _common(sp, _cmd_axioms, poly=False)),
    "roots": ("list roots with multiplicities", lambda sp: _common(sp, _cmd_roots)),
    "mult": ("multiplicity of one element as a root", _mult_args),
    "quotients": ("all q with p in (T-a)q", _quotients_args),
    "descartes": ("sign-change bound vs exact positive-root count", _descartes_args),
    "newton": ("Newton polygon over T, or polygon rule over Q", _newton_args),
    "factor": ("tropical factorization into roots", lambda sp: _common(sp, _cmd_roots)),
    "hyperprod": ("hyperproduct of polynomials under an association", _hyperprod_args),
    "verify": ("run a seeded verification batch", _verify_args),
}


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The CLI's parser. Every verb is registered, so usage, help and errors
    name them all; only ``verb`` gets its ``-h`` and arguments, or every verb
    if None."""
    import shutil

    # argparse makes a formatter for every argument it adds, and a formatter
    # without a width asks the terminal; ask once per build, for the same width
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="hyperpoly", formatter_class=formatter,
        description="Root multiplicities of polynomials over hyperfields. "
                    "Polynomials are comma-separated coefficients, constant "
                    "term first; rationals print as a/b, never as floats.")
    # a given prog spares argparse rendering a usage line to derive it
    sub = parser.add_subparsers(
        dest="verb", required=True, prog="hyperpoly",
        parser_class=functools.partial(argparse.ArgumentParser, formatter_class=formatter))
    for name, (help_text, add_arguments) in VERBS.items():
        # a verb the call does not run never parses, so it needs no -h either
        runs = verb in (None, name)
        sp = sub.add_parser(name, help=help_text, add_help=runs)
        if runs:
            add_arguments(sp)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top level has only -h and the verb, so argparse hands everything
    # after a verb to that verb's parser alone: the others need no arguments
    verb = argv[0] if argv and argv[0] in VERBS else None
    args = build_parser(verb).parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
