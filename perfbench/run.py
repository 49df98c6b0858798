"""Seeded end-to-end benchmark of the hyperpoly command line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sign-deep --seed 1 --seconds 35 --trace 0

Each case of the workload's seeded corpus is passed in-process to
``hyperpoly.cli.main`` as argv with ``--format json``, one call at a time
(a closed loop with one caller).  The corpus is run in whole passes until
``--seconds`` have elapsed; every answer is then checked by an oracle that
does not use the code under test.  Timings are reported at a reference
host speed (see ``speed.py``), because the speed of a shared host drifts
more than the code's.  The last line of output is one JSON object with the
metrics.

``--trace 1`` runs one pass untraced and the same pass again with the
per-layer tracer installed, checks that both give identical answers, and
reports the per-layer metrics; the spans go to ``perfbench/out/``.
``--replay N`` runs case N of the corpus alone and prints its argv, its
output and the oracle's verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import resource
import shlex
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

from corpus import WORKLOADS  # noqa: E402
from oracles import verdict  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

# name, unit, better: every metric an untraced run prints in its JSON line
END_TO_END = (
    ("cases_per_s", "1/s", "higher"),
    ("case_p50_ms", "ms", "lower"),
    ("case_p90_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)
SETUP_REPEATS = 11
# the tail percentile needs at least this many samples beyond it
TAIL_SAMPLES = 10


def import_cli():
    """Import ``hyperpoly.cli`` from this checkout's ``src``, afresh."""
    if not (SRC / "hyperpoly" / "cli.py").is_file():
        raise SystemExit(f"error: no hyperpoly sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "hyperpoly" or n.startswith("hyperpoly.")]:
        del sys.modules[name]
    cli = importlib.import_module("hyperpoly.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported hyperpoly from {cli.__file__}, not {SRC}")
    return cli


def setup(workload: str, seed: int):
    """Import the package, build the corpus and the parser; return the median
    time of ``SETUP_REPEATS`` fresh set-ups at reference speed, the CLI module
    and the corpus."""
    spans = []
    with SpeedSampler() as speed:
        for _ in range(SETUP_REPEATS):
            start = thread_time()
            cli = import_cli()
            cases = WORKLOADS[workload](seed)
            cli.build_parser()
            spans.append((start, thread_time()))
    return statistics.median(speed.normalise(*span) for span in spans), cli, cases


def call(main, argv) -> tuple:
    """One CLI call: (exit code, stdout); a crash is exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed case, not a failed run
            code = None
            print(f"crash: {exc!r}", file=err)
    return code, out.getvalue()


def run_pass(main, cases, results, spans, tracer=None):
    """Call every case once; append its answer and its (start, end) reading
    of the thread's CPU time."""
    for i, case in enumerate(cases):
        if tracer is not None:
            tracer.case = i
        start = thread_time()
        result = call(main, case.argv)
        spans.append((start, thread_time()))
        results.append((i, result))


def judge(cases, results) -> list:
    """Oracle verdict for every call; each distinct answer is checked once."""
    seen = {}
    out = []
    for i, result in results:
        key = (i, result)
        if key not in seen:
            seen[key] = verdict(cases[i], *result)
        out.append((i, seen[key]))
    return out


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile.

    A weighted mean of all order statistics with Beta((n+1)p, (n+1)(1-p))
    weights, each taken at the midpoint of its order statistic's interval.
    The corpus's case costs come in clusters with wide gaps between them;
    a single order statistic jumps from one cluster to the next when noise
    reorders a few calls, while this estimate moves by their share.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(x - top) for x in logs]
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail_ms(latencies) -> float:
    """The highest decile percentile with ``TAIL_SAMPLES`` samples beyond it."""
    if len(latencies) < 10 * TAIL_SAMPLES:
        raise SystemExit(f"error: {len(latencies)} cases are too few for a p90")
    return 1000 * quantile(latencies, 0.9)


def measure(cli, cases, seconds: float):
    """Run whole passes for about ``seconds`` and pool their calls.

    Every pass runs the same cases, so the pooled calls keep the corpus's
    mix of cheap and expensive cases.  A pass starts only if one more pass
    as long as the last one fits.  Each call's latency is its time at
    reference host speed; ``cases_per_s`` divides the calls by the sum of
    those latencies.
    """
    results, spans, walls = [], [], []
    gc.collect()
    with SpeedSampler() as speed:
        start = perf_counter()
        while not walls or perf_counter() - start + walls[-1] <= seconds:
            pass_start = perf_counter()
            run_pass(cli.main, cases, results, spans)
            walls.append(perf_counter() - pass_start)
    latencies = [speed.normalise(*span) for span in spans]
    metrics = {
        "cases_per_s": len(latencies) / sum(latencies),
        "case_p50_ms": 1000 * quantile(latencies, 0.5),
        "case_p90_ms": tail_ms(latencies),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = len(cases)
    per_pass = []
    for k, wall in enumerate(walls):
        part = latencies[k * n:(k + 1) * n]
        first, last = spans[k * n][0], spans[(k + 1) * n - 1][1]
        per_pass.append(
            f"pass {k}: wall_s={wall:.4f} at_reference_s={sum(part):.4f} "
            f"kernel_ms={1000 * speed.local_kernel_s(first, last):.4f} "
            f"p50_ms={1000 * quantile(part, 0.5):.4f} p90_ms={tail_ms(part):.4f}")
    raw = [end - begin for begin, end in spans]
    per_pass.append(f"not normalised: wall cases_per_s={len(raw) / sum(walls):.4f} "
                    f"CPU case_p50_ms={1000 * quantile(raw, 0.5):.4f} "
                    f"CPU case_p90_ms={tail_ms(raw):.4f}")
    return metrics, results, per_pass


def traced(cli, cases, workload: str, seed: int):
    plain, plain_spans = [], []
    gc.collect()
    start = perf_counter()
    run_pass(cli.main, cases, plain, plain_spans)
    plain_wall = perf_counter() - start
    traced_results, traced_spans = [], []
    gc.collect()
    with Tracer() as tracer:
        start = perf_counter()
        run_pass(cli.main, cases, traced_results, traced_spans, tracer)
        traced_wall = perf_counter() - start
    tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
    metrics = tracer.metrics(len(cases), traced_wall, plain_wall)
    mismatched = [i for (i, a), (_, b) in zip(plain, traced_results) if a != b]
    notes = [f"not traced, missing from the package: {', '.join(tracer.missing)}"
             ] if tracer.missing else []
    if mismatched:
        notes.append(f"traced answers differ from untraced on cases {mismatched}")
    return metrics, plain, mismatched, notes


def report(workload, seed, metrics, units, attempted, failed, extra):
    print(f"workload={workload} seed={seed} attempted={attempted} failed={failed}")
    for line in extra:
        print(line)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ratio")


def replay(cli, cases, index: int) -> int:
    if not 0 <= index < len(cases):
        raise SystemExit(f"error: case index {index} is outside 0..{len(cases) - 1}")
    case = cases[index]
    code, out = call(cli.main, case.argv)
    why = verdict(case, code, out)
    print("argv: hyperpoly " + shlex.join(case.argv))
    print(f"exit code: {code}")
    print(out.rstrip())
    print(f"oracle: {'ok' if why is None else 'FAIL ' + why}")
    return 0 if why is None else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", type=int, metavar="INDEX",
                        help="run one case of the corpus and judge it")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    setup_s, cli, cases = setup(args.workload, args.seed)
    if args.replay is not None:
        return replay(cli, cases, args.replay)

    if args.trace:
        metrics, results, mismatched, extra = traced(cli, cases, args.workload, args.seed)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics, results, per_pass = measure(cli, cases, args.seconds)
        metrics["setup_s"] = setup_s
        units = {name: unit for name, unit, _ in END_TO_END}
        extra = [f"passes={len(results) // len(cases)} cases_per_pass={len(cases)} "
                 f"case_p90_ms samples={len(results)}"] + per_pass
        mismatched = []
    verdicts = judge(cases, results)
    failures = sorted({i: why for i, why in verdicts if why is not None}.items())
    extra += [f"case {i} failed: {why}" for i, why in failures]
    failed = sum(1 for i, why in verdicts if why is not None or i in mismatched)
    attempted = len(verdicts)
    report(args.workload, args.seed, metrics, units, attempted, failed, extra)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
