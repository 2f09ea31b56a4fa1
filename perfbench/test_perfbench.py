"""Tests of the benchmark itself: seeded inputs, checkers, metric names.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from aisemiring import census, criteria, evaluate  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import NoTracer, Tracer  # noqa: E402

HELD_OUT_SEED = 982451653


@pytest.fixture(scope="module")
def query_world():
    return workloads.setup("queries", NoTracer())


@pytest.fixture(scope="module")
def criteria_world():
    return workloads.setup("criteria", NoTracer())


def _digests_in_fresh_process(seed: int, hash_seed: str) -> list:
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import inputs, workloads\n"
        "from tracing import NoTracer\n"
        "world = workloads.setup('queries', NoTracer())\n"
        "seed = int(sys.argv[3])\n"
        "print(inputs.digest(inputs.query_list(seed, 0, world)), inputs.digest(inputs.criteria_batch(seed, 0)))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src"), str(seed)],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return out.stdout.split()


@pytest.mark.parametrize("seed", [0, HELD_OUT_SEED])
def test_generators_are_deterministic_per_seed(query_world, seed):
    here = [
        inputs.digest(inputs.query_list(seed, 0, query_world)),
        inputs.digest(inputs.criteria_batch(seed, 0)),
    ]
    assert here == [
        inputs.digest(inputs.query_list(seed, 0, query_world)),
        inputs.digest(inputs.criteria_batch(seed, 0)),
    ]
    assert _digests_in_fresh_process(seed, "1") == here
    assert _digests_in_fresh_process(seed, "2") == here
    other = inputs.digest(inputs.criteria_batch(seed + 1, 0))
    assert other != here[1]


def test_query_list_shape(query_world):
    queries = inputs.query_list(0, 0, query_world)
    kinds = [q[0] for q in queries]
    checks_per_list = inputs.LIST_ROUNDS * inputs.CHECKS_PER_ROUND
    assert kinds.count("check") == checks_per_list
    holds = [q for q in queries if q[0] == "check" and q[1] == "hold"]
    assert 0.25 <= len(holds) / checks_per_list <= 0.4
    for q in queries:
        if q[0] == "check":
            n, k = len(q[2][0]), len(q[4])
            assert 2 <= n <= 16 and n ** k <= inputs.MAX_SPACE


def test_flipped_criterion_verdict_is_a_failed_operation(criteria_world, monkeypatch):
    rows = inputs.criteria_batch(0, 0)[:20]
    ops = workloads.Ops()
    workloads._run_criteria_batch(ops, criteria_world, rows, NoTracer())
    assert ops.failed == 0 and ops.attempted == 20 * inputs.CRITERIA_QS * 10

    honest = criteria.CRITERIA["L2"]
    flipped = lambda si: criteria.CriterionVerdict(not honest(si).holds, "planted")  # noqa: E731
    monkeypatch.setitem(criteria.CRITERIA, "L2", flipped)
    ops = workloads.Ops()
    workloads._run_criteria_batch(ops, criteria_world, rows, NoTracer())
    assert ops.failed == 20 * inputs.CRITERIA_QS


def test_satisfying_witness_is_a_failed_operation(query_world, monkeypatch):
    assert checks.check_identity_result((1, 0), ("x", "y"), {"x": 1, "y": 0}, lambda w: False)
    assert checks.check_identity_result((1, 0), ("x", "y"), {"x": 0, "y": 1}, lambda w: True)
    assert checks.check_identity_result((1, 0), ("x", "y"), {"x": 1, "y": 0}, lambda w: True) is None

    queries = [q for q in inputs.query_list(0, 0, query_world) if q[0] == "check"][:60]
    ops = workloads.Ops()
    workloads._run_query_list(ops, query_world, queries)
    assert ops.failed == 0

    honest = evaluate.counterexample

    def planted(S, identity, budget=evaluate.DEFAULT_BUDGET):
        found = honest(S, identity, budget)
        return found if found is not None else {x: 0 for x in identity.variables}

    monkeypatch.setattr(evaluate, "counterexample", planted)
    ops = workloads.Ops()
    workloads._run_query_list(ops, query_world, queries)
    holding = sum(1 for q in queries if q[5] is None)
    assert holding > 0 and ops.failed == holding


def test_wrong_census_digest_is_a_failed_operation(monkeypatch):
    ops = workloads.Ops()
    workloads._census_pass(ops, None, [3])
    assert (ops.attempted, ops.failed) == (1, 0)

    honest = census.enumerate_ai_semirings

    def planted(n, workers=1):
        result = honest(n, workers)
        members = result.semirings
        swapped = members[:1] + (workloads._semiring((members[1].add, members[0].mul)),) + members[2:]
        return census.CensusResult(n, swapped, result.height1, result.elapsed)

    monkeypatch.setattr(census, "enumerate_ai_semirings", planted)
    ops = workloads.Ops()
    workloads._census_pass(ops, None, [3])
    assert ops.failed == 1 and "order 3" in ops.errors[0]


def test_dual_closure_check():
    result = census.enumerate_ai_semirings(3)
    tables = [(S.add, S.mul) for S in result.semirings]
    keys = checks.class_keys(tables)
    assert checks.dual_closure_error(tables, keys) is None
    lopsided = [t for t, k in zip(tables, keys) if checks.class_keys([(t[0], tuple(zip(*t[1])))])[0] != k]
    assert lopsided
    assert checks.dual_closure_error(lopsided[:1], keys[:1]) is not None


def test_host_factor_scales_by_the_stretch_since_a_mark():
    speed = HostSpeed(warmup=0)
    reference = hostspeed.REFERENCE_S
    speed.samples = [reference] * 3
    mark = speed.mark()
    speed.samples += [2 * reference] * 3
    assert speed.factor(mark) == pytest.approx(2)
    assert speed.factor() == pytest.approx(1.5)
    assert speed.factor(speed.mark()) == pytest.approx(1.5)  # empty stretch: the whole run
    speed.sample()
    assert len(speed.samples) == 7 and speed.samples[-1] > 0


def _benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"]}, {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_metric_names_match_benchmark_json():
    spec, end_to_end, per_layer = _benchmark_names()
    assert end_to_end == workloads.END_TO_END
    assert per_layer == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, names in ((0, end_to_end), (1, per_layer)):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "criteria", "--seed", "3",
             "--seconds", "0.2", "--trace", str(trace)],
            capture_output=True, text=True, check=True, cwd=str(ROOT), timeout=170,
        ).stdout.splitlines()
        result = json.loads(out[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        for name in names:
            assert any(line.startswith(name + " ") for line in out), name


def test_census_workload_reports_every_metric():
    ops, info = workloads.run_census(0, HostSpeed(warmup=0), top=3)
    assert ops.failed == 0 and info["workers"] >= 1
    tracer = Tracer()
    ops, extra = workloads.trace_census(tracer, big_order=3)
    assert ops.failed == 0
    values = workloads.per_layer(tracer, extra)
    assert set(values) == set(workloads.PER_LAYER)
    assert values["census.classes"] > 0 and values["census.labeled_tables"] >= values["census.classes"]
    assert values["core.canonical_form_calls"] > 0 and values["evaluate.counterexample_calls"] == 0


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "criteria", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
