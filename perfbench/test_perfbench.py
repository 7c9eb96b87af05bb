"""Tests of the benchmark itself: seeded inputs, output checks, tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from isocount import enumeration  # noqa: E402
from isocount.matrices import RationalSymMatrix  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in (0, 1, 17):
        assert workloads.plan(workload, seed) == workloads.plan(workload, seed)


@pytest.mark.parametrize("workload", ["count", "skew", "window"])
def test_seed_changes_inputs(workload):
    plans = {json.dumps(workloads.plan(workload, seed)) for seed in range(8)}
    assert len(plans) > 1


def test_skew_forms_are_gl_conjugates_of_i3():
    # det(U^T U) = 1 and U^T U != I3: a genuine change of basis of I3
    for seed in range(5):
        for key, form, a, big_m in workloads.plan("skew", seed):
            q = RationalSymMatrix(form)
            assert (key, a, big_m) == ("I3/a=27", 27, None)
            assert math.prod(q.ldl()[0]) == 1
            assert form != workloads.diagonal_form((1, 1, 1))


def test_every_planned_key_is_frozen():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        for seed in range(4):
            for entry in workloads.plan(workload, seed):
                assert entry[0] in expected


def _fake_op(count, key="I3/a=27", oracle=None):
    return workloads.Op(key=key, call=lambda: SimpleNamespace(count=count),
                        digest=workloads._count_digest, oracle=oracle)


def test_wrong_count_trips_the_check():
    expected = workloads.load_expected()
    oracle = {"count": workloads.GL_INVARIANT_COUNT}
    assert workloads.check(_fake_op(1728, oracle=oracle), SimpleNamespace(count=1728), expected) == []
    problems = workloads.check(_fake_op(1729, oracle=oracle), SimpleNamespace(count=1729), expected)
    assert len(problems) == 2  # the frozen value and the GL-invariant oracle
    timed, attempted, failed, problems, _ = run.measure([_fake_op(1729)], expected, 0)
    assert (attempted, failed) == (1, 1) and problems


def test_raising_operation_counts_as_failed():
    def boom():
        raise ValueError("no")

    op = workloads.Op(key="I3/a=27", call=boom, digest=workloads._count_digest)
    assert run.run_op(op, workloads.load_expected())[2] == ["I3/a=27: ValueError: no"]


def test_failed_check_gives_nonzero_exit(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    monkeypatch.setattr(run, "setup_seconds", lambda w, s: (0.1, [0.1]))
    monkeypatch.setattr(workloads, "build", lambda w, s: [_fake_op(1729)])
    assert run.main(["--workload", "skew", "--seed", "1", "--seconds", "0", "--trace", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert set(result["metrics"]) == {m["name"] for m in _benchmark()["end_to_end"]}


def _wrapped_now():
    return [vars(tracing._owner(module, cls))[attr] for module, cls, attr, _ in tracing.WRAPS]


def test_traced_run_restores_every_wrapped_function():
    before = _wrapped_now()
    inst = enumeration.CountingInstance(RationalSymMatrix.identity(3), a=3, b=3)
    with pytest.raises(RuntimeError):
        with tracing.Tracer() as tracer:
            assert all(a is not b for a, b in zip(_wrapped_now(), before))
            tracer.op_id = 0
            assert enumeration.enum_S(inst).count == 192
            raise RuntimeError("leave the traced region by an exception")
    assert all(a is b for a, b in zip(_wrapped_now(), before))
    totals, top_level = tracer.span_totals()
    calls, incl, own = totals["enumeration.enum_S"]
    assert calls == 1 and top_level == pytest.approx(incl)
    verify_calls, verify_s, _ = totals["enumeration.verify_membership"]
    assert verify_calls == 192
    # self time is the span minus its child spans
    children = verify_s + totals["matrices.determinantal_divisors"][1]
    assert own == pytest.approx(incl - children)


def _benchmark():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [workloads.WHY[w] for w in workloads.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in tracing.PER_LAYER]
