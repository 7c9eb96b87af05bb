"""One process pool per call: every task is a verified first-column slice.

`enum_S` and `enum_many` cut the first column of each instance into
slices and run them over one pool.  These tests count the pools a run
creates by wrapping `ProcessPoolExecutor`, check that the outcome, the
budget verdict and the raised error are those of a serial loop at one
worker, and that no worker process outlives a run, not even a run that
is killed.  No test here asks for more than 2 processes.
"""

import concurrent.futures
import contextlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from isocount import enumeration
from isocount.cli import main
from isocount.enumeration import DEFAULT_BUDGET, CountingInstance, enum_many, enum_S
from isocount.errors import InternalConsistencyError, ResourceBudgetError
from isocount.matrices import RationalSymMatrix
from isocount.recursion import EnumCache, outer_chain
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


@pytest.fixture
def forked():
    """Fork-started workers, which see this process's monkeypatches,
    whatever the platform's default start method is."""
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("fork", force=True)
    yield
    multiprocessing.set_start_method(method, force=True)


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
    chain = outer_chain(EnumCache(I3, None, DEFAULT_BUDGET, 2), 3, 1, 1, None)
    assert 1 <= len(pools) <= len(chain.levels)
    assert set(pools) == {POOL}
    serial = outer_chain(EnumCache(I3, None, DEFAULT_BUDGET, 1), 3, 1, 1, None)
    assert chain.dims() == serial.dims()


@pytest.mark.parametrize("workers", [1, 2])
def test_exchange_budget_verdict_independent_of_workers(workers, serial_exchange):
    nodes = serial_exchange.solutions[LARGEST].stats["nodes"]
    assert nodes == max(s.stats["nodes"] for s in serial_exchange.solutions.values())
    exchange_step(I3, 3, 1, budget=nodes, workers=workers)
    with pytest.raises(ResourceBudgetError):
        exchange_step(I3, 3, 1, budget=nodes - 1, workers=workers)


# (instances, budget, whether a pool starts), each failing at budget
CASES = [
    # the first one fails on its walk, in the parent, before any search;
    # the later, larger one would fail at once on its search box
    ([CountingInstance(I3, 5, 5), CountingInstance(I3, 10 ** 30, 1),
      CountingInstance(I3, 3, 3)], 100, False),
    # the second one fails in the searches of its slices, in the pool; the
    # third, largest one fails on its search box, which stops the
    # preparation, but a serial loop never reaches it
    ([CountingInstance(I3, 3, 3), CountingInstance(I3, 27, 27),
      CountingInstance(I3, 10 ** 30, 1)], 9000, True),
]


def test_enum_many_raises_what_a_serial_loop_raises(pools):
    for instances, budget, pool in CASES:
        with pytest.raises(ResourceBudgetError) as serial:
            for inst in instances:
                enum_S(inst, budget=budget)
        with pytest.raises(ResourceBudgetError) as pooled:
            enum_many(instances, budget, 2)
        assert "budget exhausted" in str(serial.value)
        assert str(pooled.value) == str(serial.value)
        assert pools == ([POOL] if pool else [])
        pools.clear()


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
    # one pair at 2 workers: its first column is cut into slices that run,
    # each with its post-hoc verification, over one pool; the parent
    # verifies nothing itself (a forked worker counts in its own copy)
    verified = []
    base = enumeration.verify_membership

    def counted(*args):
        verified.append(args)
        return base(*args)

    monkeypatch.setattr(enumeration, "verify_membership", counted)
    report = exchange_step(I3, 3, 1, pairs=[LARGEST], workers=2)
    assert pools == [POOL]
    assert verified == []
    ss, serial = report.solutions[LARGEST], serial_exchange.solutions[LARGEST]
    assert (ss.matrices, ss.stats) == (serial.matrices, serial.stats)


@pytest.mark.parametrize("prune", [True, False])
def test_a_split_instance_gives_the_outcome_of_one_worker(pools, prune):
    # 30 candidates a column, at least 4 per worker: two slices, one pool,
    # and the budget verdict flips where a serial search's does
    inst = CountingInstance(I3, 3, 3)
    serial = enum_S(inst, prune=prune)
    nodes = serial.stats["nodes"]
    split = enum_S(inst, budget=nodes, prune=prune, workers=2)
    assert (split.matrices, split.stats) == (serial.matrices, serial.stats)
    with pytest.raises(ResourceBudgetError, match="matrix enumeration"):
        enum_S(inst, budget=nodes - 1, prune=prune, workers=2)
    assert pools == [POOL, POOL]


def test_a_lone_task_runs_in_the_parent(pools):
    # 6 candidates a column, fewer than 4 per worker: one slice, no pool
    inst = CountingInstance(I3, 1, 1)
    assert enum_S(inst, workers=2).stats == enum_S(inst).stats
    assert pools == []


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failed_reverification_is_raised_as_a_serial_run_raises_it(monkeypatch, forked, workers):
    # two planted rejections, the first and the last matrix in sorted
    # order: the first is named, and only once the budget has held
    inst = CountingInstance(I3, 3, 3)
    ss = enum_S(inst)
    rejected = {ss.matrices[0], ss.matrices[-1]}
    monkeypatch.setattr(enumeration, "verify_membership", lambda _, g: g not in rejected)
    with pytest.raises(InternalConsistencyError) as failed:
        enum_S(inst, workers=workers)
    assert str(failed.value).endswith(repr(ss.matrices[0]))
    with pytest.raises(ResourceBudgetError):
        enum_S(inst, budget=ss.stats["nodes"] - 1, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_search_that_visits_no_node_charges_only_the_walks(workers):
    # x^2 + 2y^2 takes neither 7 nor 14: both walks are empty, and their
    # 8 nodes pass a budget of 5, since each walk stays within it
    inst = CountingInstance(RationalSymMatrix([[1, 0], [0, 2]]), 7, 1)
    ss = enum_S(inst, budget=5, workers=workers)
    assert (ss.count, ss.stats["nodes"], ss.stats["candidates_per_column"]) == (0, 8, [0, 0])
    with pytest.raises(ResourceBudgetError, match="norm-vector"):
        enum_S(inst, budget=3, workers=workers)


def test_pools_are_capped_at_the_cpu_count(pools, monkeypatch):
    # a --threads far above the CPU count cuts one slice and starts one
    # process per CPU, and with one CPU everything runs here; no more
    # than 2 processes are started, whatever the workers asked for
    instances = [CountingInstance(I3, 3, 3), CountingInstance(I3, 5, 5)]
    inst = CountingInstance(I3, 9, 9)  # 102 candidates a column
    serial = [enum_S(i) for i in instances + [inst]]
    sliced, base = [], enumeration._prepare

    def counted(*args):
        ss, slices = base(*args)
        sliced.append(len(slices))
        return ss, slices

    monkeypatch.setattr(enumeration, "_prepare", counted)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    pooled = enum_many(instances, DEFAULT_BUDGET, 64)
    assert [ss.matrices for ss in pooled] == [ss.matrices for ss in serial[:2]]
    assert (sliced, pools) == ([1, 1], [])
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    split = enum_S(inst, workers=25)
    assert (split.matrices, split.stats) == (serial[2].matrices, serial[2].stats)
    assert (sliced, pools) == ([1, 1, 2], [2])


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


def _python(script, *argv):
    """A Python process running script, with this isocount importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(enumeration.__file__))]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.Popen([sys.executable, "-c", script, *map(str, argv)], env=env,
                            stdout=subprocess.PIPE, text=True)


# runs a pool under the forkserver start method, whose workers are
# children of the fork server, not of this process
FORKSERVER = """
import multiprocessing
from isocount.enumeration import CountingInstance, enum_many
from isocount.matrices import RationalSymMatrix

multiprocessing.set_start_method("forkserver")
i3 = RationalSymMatrix.identity(3)
sets = enum_many([CountingInstance(i3, 3, 3), CountingInstance(i3, 5, 5)], 10 ** 8, 2)
print(*(ss.count for ss in sets))
"""


def test_a_pool_runs_under_the_forkserver_start_method():
    proc = _python(FORKSERVER)
    out, _ = proc.communicate(timeout=120)
    assert proc.returncode == 0
    assert out.split() == [str(enum_S(CountingInstance(I3, a, a)).count) for a in (3, 5)]


# starts a pool of POOL workers on long slices with the given start
# method, prints their pids once all are up, and is killed while they run
ORPHAN = """
import multiprocessing, sys, threading, time
from isocount.enumeration import CountingInstance, enum_many
from isocount.matrices import RationalSymMatrix

multiprocessing.set_start_method(sys.argv[2])

def report():
    while len(multiprocessing.active_children()) < int(sys.argv[1]):
        time.sleep(0.01)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)

threading.Thread(target=report, daemon=True).start()
enum_many([CountingInstance(RationalSymMatrix.identity(3), 125, 125)] * 4, 10 ** 8, 2)
"""


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # an exited worker nobody has reaped yet is a zombie
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.parametrize("method", ["fork", "spawn", "forkserver"])
def test_workers_exit_when_their_parent_is_killed(method):
    proc = _python(ORPHAN, POOL, method)
    try:
        workers = [int(pid) for pid in proc.stdout.readline().split()]
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    assert len(workers) == POOL
    deadline = time.monotonic() + 5
    while any(map(_alive, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_alive, workers))
