"""Self-tests of the benchmark: corpus determinism, oracle sensitivity,
tracer and sampler hygiene and metric naming.  Run with ``python3 -m pytest perfbench/tests``."""

import copy
import json
import re
import signal
import sys
from pathlib import Path

import pytest

import run
from corpus import WORKLOADS, quotient_spec
from oracles import poly_mul, verdict
from speed import REFERENCE_S, SpeedSampler, kernel
from tracer import PER_LAYER, Tracer

BENCHMARK = Path(run.ROOT) / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


def answer(cli, case) -> dict:
    code, out = run.call(cli.main, case.argv)
    assert verdict(case, code, out) is None
    return json.loads(out)


def rejects(case, out: dict) -> bool:
    return verdict(case, 0, json.dumps(out)) is not None


def cheapest(kind: str, workload: str, seed: int = 3):
    cases = [c for c in WORKLOADS[workload](seed) if c.kind == kind]
    return min(cases, key=lambda c: (len(" ".join(c.argv)), c.argv))


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    assert WORKLOADS[workload](7) == WORKLOADS[workload](7)
    assert [c.argv for c in WORKLOADS[workload](7)] != \
        [c.argv for c in WORKLOADS[workload](8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_pass_has_enough_cases_for_the_tail(workload):
    assert len(WORKLOADS[workload](0)) >= 10 * run.TAIL_SAMPLES


def test_sign_oracle_rejects_off_by_one(cli):
    case = cheapest("mult-S", "sign-deep")
    out = answer(cli, case)
    assert out["multiplicity"] >= 1
    assert rejects(case, {**out, "multiplicity": out["multiplicity"] + 1})
    assert rejects(case, {**out, "witness": out["witness"][:-1]})
    bent = copy.deepcopy(out)
    first = bent["witness"][0].split(",")
    first[0] = str(-int(first[0]) or 1)
    bent["witness"][0] = ",".join(first)
    assert rejects(case, bent)


@pytest.mark.parametrize("kind", ["roots-K", "roots-W", "roots-quot"])
def test_roots_oracle_rejects_a_missing_root(cli, kind):
    case = next(c for c in WORKLOADS["table-wide"](3)
                if c.kind == kind and len(c.expect["coeffs"]) == 5)
    out = answer(cli, case)
    assert out["roots"]
    assert rejects(case, {**out, "roots": out["roots"][1:]})


def test_krasner_oracle_rejects_off_by_one_multiplicity(cli):
    case = cheapest("roots-K", "table-wide")
    out = answer(cli, case)
    bumped = copy.deepcopy(out)
    bumped["roots"][-1]["multiplicity"] += 1
    assert rejects(case, bumped)


def test_quotient_oracle_rejects_a_multiplicity_below_the_lift(cli):
    for case in WORKLOADS["table-wide"](3):
        if case.kind != "roots-quot" or len(case.expect["coeffs"]) != 5:
            continue
        out = answer(cli, case)
        _, _, rep = quotient_spec(case.expect["spec"])
        lifted = [rep[r] for r in case.expect["roots"]]
        for i, root in enumerate(out["roots"]):
            coset = int(root["element"])
            if lifted.count(coset) == root["multiplicity"]:
                lowered = copy.deepcopy(out)
                lowered["roots"][i]["multiplicity"] -= 1
                assert rejects(case, lowered)
                return
    pytest.fail("no quotient case attains the morphism bound")


def test_hyperprod_oracle_rejects_off_by_one(cli):
    case = cheapest("hyperprod", "table-wide")
    out = answer(cli, case)
    assert rejects(case, {**out, "count": out["count"] + 1})
    product = [1]
    for factor in case.expect["factors"]:
        product = poly_mul(product, factor)
    image = ",".join(str((c > 0) - (c < 0)) for c in product)
    assert rejects(case, {**out, "products": [q for q in out["products"] if q != image]})


def test_axioms_and_verify_oracles_reject_failures(cli):
    case = next(c for c in WORKLOADS["table-wide"](3)
                if c.kind == "axioms" and c.expect["spec"] == "T")
    out = answer(cli, case)
    assert rejects(case, {**out, "passed": False})
    case = cheapest("verify", "exact-verify")
    out = answer(cli, case)
    assert rejects(case, {**out, "failures": out["failures"] + 1})


@pytest.mark.parametrize("hinted", [True, False])
def test_descartes_oracle_rejects_off_by_one(cli, hinted):
    case = min((c for c in WORKLOADS["exact-verify"](3)
                if c.kind == "descartes" and c.expect["hinted"] == hinted),
               key=lambda c: len(c.expect["coeffs"]))
    out = answer(cli, case)
    assert rejects(case, {**out, "positive_roots": out["positive_roots"] + 1})
    assert rejects(case, {**out, "negative_roots": out["negative_roots"] - 1})
    assert rejects(case, {**out, "bound_pos": out["bound_pos"] + 1})


@pytest.mark.parametrize("hinted", [True, False])
def test_newton_oracle_rejects_off_by_one(cli, hinted):
    case = min((c for c in WORKLOADS["exact-verify"](3)
                if c.kind == "newton" and c.expect["hinted"] == hinted),
               key=lambda c: len(c.expect["coeffs"]))
    out = answer(cli, case)
    bumped = copy.deepcopy(out)
    row = next(r for r in bumped["rows"] if r["nu"])
    row["nu"] += 1
    assert rejects(case, bumped)


def test_tropical_oracles_reject_off_by_one(cli):
    case = cheapest("factor-T", "exact-verify")
    out = answer(cli, case)
    assert rejects(case, {**out, "roots": out["roots"][:-1]})
    case = cheapest("mult-T", "exact-verify")
    out = answer(cli, case)
    assert rejects(case, {**out, "multiplicity": out["multiplicity"] + 1})


def test_a_crash_or_bad_exit_is_a_failure():
    case = cheapest("mult-S", "sign-deep")
    assert verdict(case, 1, "") is not None
    assert verdict(case, None, "") is not None
    assert verdict(case, 0, "not json") is not None


def _bindings(cli) -> dict:
    core = sys.modules["hyperpoly.core"]
    owners = [m for n, m in sys.modules.items() if n.split(".")[0] == "hyperpoly"]
    stack = [core.Hyperfield]
    while stack:
        cls = stack.pop()
        owners.append(cls)
        stack += cls.__subclasses__()
    return {(repr(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_restores_every_patched_attribute(cli):
    before = _bindings(cli)
    case = cheapest("roots-quot", "table-wide")
    with Tracer() as tracer:
        assert cli.multiplicity is not before[(repr(cli), "multiplicity")]
        run.call(cli.main, case.argv)
    assert tracer.counts["cli.main"] == 1
    assert tracer.counts["core.check_member"] > 0
    after = _bindings(cli)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error(cli):
    before = _bindings(cli)
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    after = _bindings(cli)
    assert all(after[k] is before[k] for k in before)


def test_traced_answers_and_counts_repeat(cli):
    cases = [cheapest(kind, "table-wide") for kind in ("roots-quot", "hyperprod", "roots-W")]
    plain = [run.call(cli.main, c.argv) for c in cases]
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            assert [run.call(cli.main, c.argv) for c in cases] == plain
        counts.append(tracer.counts)
    assert counts[0] == counts[1]


def test_quantile_estimates_the_quantile_and_bridges_gaps():
    grid = list(range(1, 1000))
    assert run.quantile(grid, 0.5) == pytest.approx(500, abs=1)
    assert run.quantile(grid, 0.9) == pytest.approx(900, abs=1)
    # ten calls at 1 and ten at 2: the median lies between the clusters
    assert 1.2 < run.quantile([1.0] * 10 + [2.0] * 10, 0.5) < 1.8
    with pytest.raises(SystemExit):
        run.tail_ms([1.0] * 99)


def test_metric_names_and_units_are_well_formed():
    metrics = list(run.END_TO_END) + list(PER_LAYER)
    names = [name for name, _, _ in metrics]
    assert len(names) == len(set(names))
    for name, unit, better in metrics:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
        assert better in ("higher", "lower")


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)


def test_sampler_restores_the_alarm_and_samples_the_host():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        start = run.thread_time()
        while run.thread_time() - start < 0.2:
            kernel(100)
        end = run.thread_time()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.starts) >= 5
    inside = sum(d for s, d in zip(speed.starts, speed.durations) if start <= s < end)
    assert speed.busy(start, end) == pytest.approx(end - start - inside)


def test_normalise_scales_by_the_local_kernel_time():
    speed = SpeedSampler()
    # the host runs at reference speed until t=10, then at half speed
    speed.starts = [0.5 * i for i in range(40)]
    speed.durations = [REFERENCE_S if t < 10 else 2 * REFERENCE_S for t in speed.starts]
    busy = speed.busy(2.05, 3.05)
    assert busy == pytest.approx(1 - 2 * REFERENCE_S)
    assert speed.normalise(2.05, 3.05) == pytest.approx(busy)
    slow = speed.busy(12.05, 14.05)
    assert speed.normalise(12.05, 14.05) == pytest.approx(slow / 2)
