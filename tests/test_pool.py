"""One process pool per exchange run and per chain level.

`enumeration.enum_many` spreads whole instances over one pool.  These
tests count the pools a run creates by wrapping `ProcessPoolExecutor`,
check that the budget verdict and the raised error are those of a serial
loop, and that no worker process outlives a run.  No test here asks for
more than 2 processes.
"""

import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os

import pytest

from isocount import enumeration
from isocount.cli import main
from isocount.enumeration import DEFAULT_BUDGET, CountingInstance, enum_many, enum_S
from isocount.errors import ResourceBudgetError
from isocount.matrices import RationalSymMatrix
from isocount.recursion import outer_chain
from isocount.xchg import exchange_step

I3 = RationalSymMatrix.identity(3)
LARGEST = (5, 5, 3)  # the pair of exchange_step(I3, 3, 1) with the most nodes
POOL = min(2, os.cpu_count() or 1)  # the processes a pool gets at 2 workers


@pytest.fixture
def pools(monkeypatch):
    """The max_workers of every ProcessPoolExecutor created while it is on."""
    created = []
    base = concurrent.futures.ProcessPoolExecutor

    class Counted(base):
        def __init__(self, max_workers=None, *args, **kwargs):
            created.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return created


@pytest.fixture(scope="module")
def serial_exchange():
    return exchange_step(I3, 3, 1, workers=1)


def test_exchange_runs_one_pool(pools, serial_exchange):
    report = exchange_step(I3, 3, 1, workers=2)
    assert pools == [POOL]
    assert report.to_json() == serial_exchange.to_json()
    assert {p: s.stats for p, s in report.solutions.items()} == {
        p: s.stats for p, s in serial_exchange.solutions.items()}


def test_chain_runs_at_most_one_pool_per_level(pools):
    chain = outer_chain(I3, 3, 1, 1, workers=2)
    assert 1 <= len(pools) <= len(chain.levels)
    assert set(pools) == {POOL}
    assert chain.dims() == outer_chain(I3, 3, 1, 1, workers=1).dims()


@pytest.mark.parametrize("workers", [1, 2])
def test_exchange_budget_verdict_independent_of_workers(workers, serial_exchange):
    nodes = serial_exchange.solutions[LARGEST].stats["nodes"]
    assert nodes == max(s.stats["nodes"] for s in serial_exchange.solutions.values())
    exchange_step(I3, 3, 1, budget=nodes, workers=workers)
    with pytest.raises(ResourceBudgetError):
        exchange_step(I3, 3, 1, budget=nodes - 1, workers=workers)


def test_enum_many_raises_what_a_serial_loop_raises(pools):
    # the second instance is the largest, goes first and fails at once on
    # its search box; the first one fails later on its node budget, where a
    # serial loop stops
    instances = [CountingInstance(I3, 5, 5), CountingInstance(I3, 10 ** 30, 1),
                 CountingInstance(I3, 3, 3)]
    with pytest.raises(ResourceBudgetError) as serial:
        for inst in instances:
            enum_S(inst, budget=100)
    with pytest.raises(ResourceBudgetError) as pooled:
        enum_many(instances, 100, 2)
    assert "budget exhausted" in str(serial.value)
    assert str(pooled.value) == str(serial.value)
    assert pools == [POOL]


def test_enum_many_keeps_input_order():
    instances = [CountingInstance(I3, 3, 3), CountingInstance(I3, 5, 5, big_m=4),
                 CountingInstance(I3, 3, 5)]
    pooled = enum_many(instances, DEFAULT_BUDGET, 2)
    for inst, ss in zip(instances, pooled):
        serial = enum_S(inst)
        assert ss.instance == inst
        assert (ss.matrices, ss.stats) == (serial.matrices, serial.stats)
    assert enum_many([], 1, 2) == []


def test_one_instance_is_split_inside_not_spread(pools, monkeypatch, serial_exchange):
    # one pair at 2 workers takes the parent's path: enum_S at 2 workers,
    # which splits the first column over a pool, not a pool of one process
    split = []
    base = enumeration._parallel_enum

    def recorded(*args):
        split.append(args[-2])
        return base(*args)

    monkeypatch.setattr(enumeration, "_parallel_enum", recorded)
    report = exchange_step(I3, 3, 1, pairs=[LARGEST], workers=2)
    assert split == [2]
    assert pools == [POOL]
    assert report.solutions[LARGEST].matrices == serial_exchange.solutions[LARGEST].matrices


def test_pools_are_capped_at_the_cpu_count(pools, monkeypatch):
    # a --threads far above the CPU count starts one process per CPU; no
    # more than 2 are started here, whatever the workers asked for
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    instances = [CountingInstance(I3, 3, 3), CountingInstance(I3, 5, 5)]
    pooled = enum_many(instances, DEFAULT_BUDGET, 64)
    assert [ss.matrices for ss in pooled] == [enum_S(inst).matrices for inst in instances]
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    inst = CountingInstance(I3, 9, 9)  # 102 candidates a column: 25 chunks of 4+
    split = enum_S(inst, workers=25)
    assert (split.matrices, split.stats) == (enum_S(inst).matrices, enum_S(inst).stats)
    assert pools == [1, 2]


@pytest.mark.parametrize("short", [False, True])
def test_no_process_outlives_an_exchange_run(short, serial_exchange, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    argv = ["exchange", "--q", str(path), "--L", "3", "--threads", "2"]
    if short:
        # one node below what the largest pair needs
        argv += ["--budget", str(serial_exchange.solutions[LARGEST].stats["nodes"] - 1)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert (rc, err.getvalue()[:16]) == ((2, "resource error: ") if short else (0, ""))
    assert multiprocessing.active_children() == []
