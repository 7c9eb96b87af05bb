"""Byte-for-byte outputs of the CLI on fixed inputs.

Each case runs `isocount.cli.main` in process, in a fresh working directory
with fixed relative paths (so the `matrices_path` echo of `count` is the
same text every run), at `--threads` 1 and 2, or twice with no option for
the subcommands that take none.  Every output file must be the same bytes
in both runs and must match the sha256 digest committed in
`differential_digests.json`.  A refactor that changes a solution, a
statistic, a pair verdict or a single character of a report fails here.
The `count` cases also run with every int64 guard of the enumeration
refused, so the walk, the search and the post-hoc pass take their
Python-integer paths, and must give the same digests.
"""

import hashlib
import json
import os

import pytest

from isocount import enumeration
from isocount.cli import main
from isocount.serialize import dumps

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "differential_digests.json")


def _matrix(diag):
    n = len(diag)
    return {"schema": 1, "n": n,
            "entries": [[str(diag[i]) if i == j else "0" for j in range(n)] for i in range(n)]}


def _instance(diag, a, b, m):
    return {"schema": 1, "q": _matrix(diag), "a": a, "b": b, "m": m}


COUNT = ["count", "--instance", "inst.json", "--emit-matrices", "m.json", "--out", "out.json"]
# case name -> (input files, argv, output files)
CASES = {
    "count_i3_a9_b9_m4": ({"inst.json": _instance((1, 1, 1), 9, 9, "4")}, COUNT,
                          ("out.json", "m.json")),
    # past the search's int64 guard; the same solutions and stats as I3
    "count_1e18i3_a9_b9_m4": ({"inst.json": _instance((10 ** 18,) * 3, 9, 9, "4")}, COUNT,
                              ("out.json", "m.json")),
    "count_diag112_a9_b9_m2": ({"inst.json": _instance((1, 1, 2), 9, 9, "2")}, COUNT,
                               ("out.json", "m.json")),
    "count_i3_a3_b5_m3over2": ({"inst.json": _instance((1, 1, 1), 3, 5, "3/2")}, COUNT,
                               ("out.json", "m.json")),
    "exchange_i3_l3": ({"q.json": _matrix((1, 1, 1))},
                       ["exchange", "--q", "q.json", "--L", "3", "--out", "out.json"],
                       ("out.json",)),
    "chain_i3_l3": ({"q.json": _matrix((1, 1, 1))},
                    ["chain", "--q", "q.json", "--L", "3", "--out", "out.json"],
                    ("out.json",)),
    "delta_n3": ({}, ["delta", "--n", "3", "--out", "out.json"], ("out.json",)),
    "verify_seed0": ({}, ["verify", "--seed", "0", "--out", "out.json"], ("out.json",)),
    "verify_seed3": ({}, ["verify", "--seed", "3", "--out", "out.json"], ("out.json",)),
}
# the subcommands without a --threads option
SINGLE_THREADED = ("delta", "verify")


def run_case(name, threads, workdir):
    """{output file: sha256 hex digest} of one case run in workdir."""
    inputs, argv, outputs = CASES[name]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for path, obj in inputs.items():
            with open(path, "w") as fh:
                fh.write(dumps(obj))
        if argv[0] not in SINGLE_THREADED:
            argv = argv + ["--threads", str(threads)]
        assert main(argv) == 0
        digests = {}
        for path in outputs:
            with open(path, "rb") as fh:
                digests[path] = hashlib.sha256(fh.read()).hexdigest()
        return digests
    finally:
        os.chdir(cwd)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_byte_identical(name, tmp_path):
    with open(DIGESTS) as fh:
        frozen = json.load(fh)[name]
    runs = []
    for threads in (1, 2):
        workdir = tmp_path / ("threads%d" % threads)
        workdir.mkdir()
        runs.append(run_case(name, threads, workdir))
    assert runs[0] == runs[1]
    assert runs[0] == frozen


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][1][0] == "count"))
def test_count_outputs_match_with_object_arrays_forced(name, tmp_path, monkeypatch):
    guards = ("fits_int64", "_walk_fits_int64")
    refused = set()

    def refusing(guard):
        def refuse(*args):
            refused.add(guard)
            return False
        return refuse

    for guard in guards:
        monkeypatch.setattr(enumeration, guard, refusing(guard))
    with open(DIGESTS) as fh:
        frozen = json.load(fh)[name]
    assert run_case(name, 1, tmp_path) == frozen
    assert refused == set(guards)
