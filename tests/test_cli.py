import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from isocount.arith import MAX_SIEVE
from isocount.cli import main
from isocount.matrices import determinantal_divisor_oracle
from isocount.serialize import MAX_DIGITS, dumps, int_to_str


def run_cli(args, capsys):
    rc = main(args)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(
        dumps(
            {
                "schema": 1,
                "n": 3,
                "entries": [["3", "-4", "0"], ["4", "3", "0"], ["0", "0", "5"]],
            }
        )
    )
    return str(path)


@pytest.fixture
def identity3_file(tmp_path):
    path = tmp_path / "q.json"
    path.write_text(
        dumps(
            {
                "schema": 1,
                "n": 3,
                "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            }
        )
    )
    return str(path)


@pytest.fixture
def instance_file(tmp_path, identity3_file):
    path = tmp_path / "inst.json"
    path.write_text(
        dumps(
            {
                "schema": 1,
                "q": json.loads(open(identity3_file).read()),
                "a": "3",
                "b": "3",
                "m": "inf",
            }
        )
    )
    return str(path)


def test_detdiv(matrix_file, capsys):
    rc, out, _ = run_cli(["detdiv", "--matrix", matrix_file], capsys)
    assert rc == 0
    assert json.loads(out)["delta"] == [1, 5, 125]


def test_detdiv_on_mixed_magnitudes(tmp_path, capsys):
    # small entries beside 10^12, 10^308 and 10^400: building the Smith
    # transforms took about a minute on a matrix like this one; the
    # diagonal alone takes a fraction of a second
    rng = random.Random(0)
    vals = [0, 1, -1, 2, -3, 5, 10 ** 12, -(10 ** 12), 10 ** 308, 10 ** 400, -(10 ** 400)]
    rows = [[rng.choice(vals) for _ in range(6)] for _ in range(6)]
    path = tmp_path / "m.json"
    path.write_text(dumps({"entries": [[str(x) for x in row] for row in rows]}))
    rc, out, _ = run_cli(["detdiv", "--matrix", str(path)], capsys)
    assert rc == 0
    want = [determinantal_divisor_oracle(rows, j) for j in range(1, 7)]
    assert json.loads(out)["delta"] == want


def test_detdiv_prints_a_delta_of_any_length(tmp_path, capsys):
    # Delta_2 = (10^2200 + 1)^2 has 4401 digits, past the limit of str(int)
    x = 10 ** 2200 + 1
    path = tmp_path / "m.json"
    path.write_text(dumps({"entries": [[str(x), "1"], ["0", str(x)]]}))
    rc, out, _ = run_cli(["detdiv", "--matrix", str(path)], capsys)
    assert rc == 0
    assert json.loads(out, parse_int=str)["delta"] == [int_to_str(1), int_to_str(x * x)]


@pytest.mark.parametrize("as_text", [True, False])
def test_detdiv_reads_an_entry_of_any_length(tmp_path, capsys, as_text):
    # the entry 10^5000 has 5001 digits, past the limit of int(str), as a
    # JSON string and as a JSON number
    digits = "1" + "0" * 5000
    path = tmp_path / "m.json"
    entry = '"%s"' % digits if as_text else digits
    path.write_text('{"entries": [[%s, 1], [0, 1]]}' % entry)
    rc, out, _ = run_cli(["detdiv", "--matrix", str(path)], capsys)
    assert rc == 0
    assert json.loads(out, parse_int=str)["delta"] == ["1", digits]


@pytest.mark.parametrize("as_text", [True, False])
def test_detdiv_refuses_an_entry_past_the_digit_budget(tmp_path, capsys, as_text):
    digits = "1" * (MAX_DIGITS + 1)
    path = tmp_path / "m.json"
    entry = '"-%s"' % digits if as_text else "-" + digits
    path.write_text('{"entries": [[%s, 1], [0, 1]]}' % entry)
    rc, out, err = run_cli(["detdiv", "--matrix", str(path)], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("resource error: ") and len(err.encode()) < 200


def test_a_long_bad_literal_gives_a_short_error_line(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(dumps({"entries": [["x" * 5000, "1"], ["0", "1"]]}))
    rc, out, err = run_cli(["detdiv", "--matrix", str(path)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: bad rational literal 'xxx") and "5000 characters" in err
    assert len(err.encode()) < 200


def test_count(instance_file, capsys, tmp_path):
    emit = str(tmp_path / "mats.json")
    rc, out, _ = run_cli(
        ["count", "--instance", instance_file, "--threads", "1", "--emit-matrices", emit],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 192
    mats = json.loads(open(emit).read())
    assert len(mats["matrices"]) == 192


def test_count_budget_exit_code(instance_file, capsys):
    rc, out, err = run_cli(
        ["count", "--instance", instance_file, "--budget", "10", "--threads", "1"],
        capsys,
    )
    assert rc == 2
    assert "budget" in err


def test_count_missing_file(capsys):
    rc, _, err = run_cli(["count", "--instance", "/nonexistent.json"], capsys)
    assert rc == 1
    assert err


def test_unknown_flag_exits_1(capsys):
    rc, out, err = run_cli(["detdiv", "--bogus", "x"], capsys)
    assert rc == 1
    assert err  # usage text


def test_unknown_command_exits_1(capsys):
    rc, out, err = run_cli(["frobnicate"], capsys)
    assert rc == 1


def test_qgood(identity3_file, capsys):
    rc, out, _ = run_cli(
        ["qgood", "--q", identity3_file, "--from", "10", "--to", "20"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["primes"] == [11, 19]
    assert payload["residue_system"]["modulus"] == 4


def test_delta_cli(capsys):
    rc, out, _ = run_cli(["delta", "--n", "2"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["delta"] == "1/72"
    assert payload["crossover_gap"] == "0"


def test_delta_cli_violation(capsys):
    rc, out, err = run_cli(["delta", "--n", "3", "--d1", "2", "--d2", "2", "--m", "5"], capsys)
    assert rc == 1
    rc, out, _ = run_cli(
        ["delta", "--n", "3", "--d1", "2", "--d2", "2", "--m", "5", "--allow-violations"],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["condition_d"] is False


def test_bound_cli(tmp_path, capsys):
    mu = tmp_path / "mu.json"
    mu.write_text(dumps({"mu": ["1", "-1"]}))
    counts = tmp_path / "counts.json"
    counts.write_text(
        dumps(
            {
                "l0": "5",
                "m": "4",
                "p_size": 3,
                "counts": [[1, 3, 5, 7]],
            }
        )
    )
    rc, out, _ = run_cli(["bound", "--mu", str(mu), "--counts", str(counts)], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["inv_c_norm"] == "3"
    assert payload["dominant"] in {"diagonal", "spectral", "counting"}


@pytest.mark.parametrize(
    "mu, counts",
    [
        # L0^(n^3 + M/2) beyond the float range
        (["1", "0", "-1"], {"l0": "1000000000000", "m": "4", "p_size": 3, "counts": []}),
        # L0^(nu (n - 1)) beyond the float range
        (["1", "0", "-1"], {"l0": "5", "m": "4", "p_size": 3, "counts": [[100000, 3, 5, 7]]}),
        # fewer than two spectral parameters
        ([], {"l0": "5", "m": "4", "p_size": 3, "counts": []}),
        (["0"], {"l0": "5", "m": "4", "p_size": 3, "counts": []}),
        # a counts file that is not a JSON object
        (["1", "-1"], [1, 2, 3]),
    ],
)
def test_bound_cli_rejects_out_of_range_input(tmp_path, capsys, mu, counts):
    mu_path = tmp_path / "mu.json"
    mu_path.write_text(dumps({"mu": mu}))
    counts_path = tmp_path / "counts.json"
    counts_path.write_text(dumps(counts))
    rc, out, err = run_cli(
        ["bound", "--mu", str(mu_path), "--counts", str(counts_path)], capsys
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


extreme_ints = st.one_of(
    st.integers(2, 10),
    st.sampled_from([10 ** 6, 10 ** 12, 10 ** 100, 10 ** 308, 10 ** 309, 10 ** 400]),
)
rational_texts = st.one_of(
    extreme_ints.map(str),
    st.builds("{}/{}".format, extreme_ints, st.integers(1, 10 ** 30)),
)
json_junk = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 1), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=3),
)


def mostly(good):
    """good nine times in ten, malformed or out-of-range JSON otherwise."""
    return st.sampled_from(range(10)).flatmap(lambda k: json_junk if k == 9 else good)


@st.composite
def mu_files(draw):
    n = draw(st.sampled_from([0, 1, 2, 3, 3, 4]))
    mu = [draw(extreme_ints) * draw(st.sampled_from([-1, 1])) for _ in range(n)]
    if mu and draw(st.sampled_from(range(10))) < 9:
        mu[-1] -= sum(mu)  # spectral parameters sum to zero
    return draw(mostly(st.just({"mu": draw(mostly(st.just([str(x) for x in mu])))})))


@st.composite
def counts_files(draw):
    row = mostly(st.lists(mostly(extreme_ints), min_size=4, max_size=4))
    out = {
        "l0": draw(mostly(rational_texts)),
        "m": draw(mostly(rational_texts)),
        "p_size": draw(mostly(extreme_ints)),
        "counts": draw(mostly(st.lists(row, max_size=3))),
    }
    if draw(st.booleans()):
        out["inv_c_norm"] = draw(mostly(rational_texts))
    if draw(st.booleans()):
        out["level"] = draw(mostly(extreme_ints))
    return draw(mostly(st.just(out)))


@settings(max_examples=150, deadline=None)
@given(mu=mu_files(), counts=counts_files())
def test_bound_cli_exit_code_on_extreme_input(mu, counts):
    with tempfile.TemporaryDirectory() as tmp:
        mu_path = os.path.join(tmp, "mu.json")
        counts_path = os.path.join(tmp, "counts.json")
        for path, obj in ((mu_path, mu), (counts_path, counts)):
            with open(path, "w") as fh:
                json.dump(obj, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["bound", "--mu", mu_path, "--counts", counts_path])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith(("error: ", "resource error: "))


MALFORMED_INSTANCES = (
    # a top-level list and a non-list 'entries' raised TypeError
    [1, 2, 3],
    {"q": {"entries": 5}, "a": 3, "b": 3},
    # n = 1 raised IndexError in the leaf (Delta_2 needs 2x2 minors)
    {"q": {"entries": [[1]]}, "a": 1, "b": 1},
    # a non-integer a was truncated to 1
    {"q": {"entries": [[1, 0], [0, 1]]}, "a": "3/2", "b": 3},
)


@pytest.mark.parametrize("instance", MALFORMED_INSTANCES)
def test_count_cli_rejects_malformed_instance(instance, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    rc, out, err = run_cli(["count", "--instance", str(path), "--threads", "1"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


count_forms = st.sampled_from([
    [["1", "0"], ["0", "1"]],
    [[2, 1], [1, 3]],
    [["1", "1/3"], ["1/3", "1"]],
    [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    [["1", "1/2", "0"], ["1/2", "1", "0"], ["0", "0", "1"]],
    [[1]],
    [[1, 2], [2, 1]],  # not positive definite
    [[1, 0], [1, 1]],  # not symmetric
    [[1, 0], [0]],  # ragged
    [],
])


@st.composite
def instance_files(draw):
    q = {"entries": draw(mostly(count_forms))}
    if draw(st.booleans()):
        q["n"] = draw(mostly(st.integers(0, 4)))
    out = {
        "q": draw(mostly(st.just(q))),
        "a": draw(mostly(extreme_ints)),
        "b": draw(mostly(extreme_ints)),
    }
    if draw(st.booleans()):
        out["m"] = draw(mostly(st.sampled_from(["inf", "1", "3/2", "2", "4"])))
    if draw(st.booleans()):
        out["error_constant"] = draw(mostly(st.sampled_from(["1/2", "1", "3"])))
    for key in draw(st.sets(st.sampled_from(["q", "a", "b"]), max_size=1)):
        del out[key]
    return draw(mostly(st.just(out)))


@settings(max_examples=100, deadline=None)
@given(instance=instance_files())
def test_count_cli_exit_code_on_malformed_input(instance):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "w") as fh:
            json.dump(instance, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["count", "--instance", path, "--budget", "10000", "--threads", "1"])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith(("error: ", "resource error: "))


def test_count_cli_with_pivots_below_the_float_range(tmp_path, capsys):
    # diag(10^-400, 10^-400) ended in a ZeroDivisionError from a float seed
    tiny = "1/1" + "0" * 400
    counts = []
    for q in ([[tiny, "0"], ["0", tiny]], [["1", "0"], ["0", "1"]]):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"q": {"entries": q}, "a": 1, "b": 5}))
        rc, out, err = run_cli(["count", "--instance", str(path), "--threads", "1"], capsys)
        assert rc == 0, err
        counts.append(json.loads(out)["count"])
    assert counts == [16, 16]


@pytest.mark.parametrize(
    "command",
    [
        # the sieve of [2, 10^29] ran out of memory
        ["qgood", "--from", "2", "--to", str(10 ** 29)],
        # [3, 2 * 3^100] overflowed the sieve's bytearray
        ["exchange", "--L", "3", "--D", "100", "--threads", "1"],
        # the 82k primes of [3, 2 * 3^12] give 2 * 10^10 pairs, which were
        # listed before any pair budget was checked
        ["exchange", "--L", "3", "--D", "12", "--threads", "1"],
    ],
)
def test_sieve_beyond_its_budget_exits_2(identity3_file, capsys, command):
    rc, out, err = run_cli(command[:1] + ["--q", identity3_file] + command[1:], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("resource error: ") and err.count("\n") == 1


@pytest.mark.parametrize("m, code", [("1000000000000", 2), ("100000", 0)])
def test_error_threshold_within_its_budget(tmp_path, capsys, m, code):
    # C s^((2-M)/n) grows linearly in M: M = 10^12 needed about 2 * 10^12
    # bits, M = 10^5 about 2 * 10^5
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"q": {"entries": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                                "a": 3, "b": 3, "m": m}))
    rc, out, err = run_cli(["count", "--instance", str(path), "--threads", "1"], capsys)
    assert rc == code, err
    if code:
        assert err.startswith("resource error: ") and out == ""
    else:
        assert json.loads(out)["count"] == 192


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(-5, 10 ** 4),
    hi=st.one_of(st.integers(2, 10 ** 4), st.integers(10 ** 20, 10 ** 40)),
    coprime=st.integers(1, 30),
)
def test_qgood_cli_exit_code_on_extreme_input(lo, hi, coprime):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "q.json")
        with open(path, "w") as fh:
            json.dump({"entries": [["2", "1"], ["1", "3"]]}, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["qgood", "--q", path, "--from", str(lo), "--to", str(hi),
                       "--coprime", str(coprime)])
    if hi > MAX_SIEVE:
        assert rc == 2 and err.getvalue().startswith("resource error: ")
    else:
        assert rc == 0
        assert all(lo <= p <= hi for p in json.loads(out.getvalue())["primes"])


def run_in_process(args):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(args)
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith(("usage: ", "error: ", "resource error: "))
    return rc


@st.composite
def detdiv_files(draw):
    n = draw(st.integers(0, 9))
    # one malformed entry in about n^2 / 40; small entries beside huge ones
    entry = st.sampled_from(range(40)).flatmap(
        lambda k: st.one_of(json_junk, rational_texts) if k == 0
        else st.one_of(st.integers(-10, 10), st.sampled_from(
            ["1000000", str(10 ** 12), str(10 ** 100), "-" + str(10 ** 400)])))
    entries = [[draw(entry) for _ in range(n)] for _ in range(n)]
    out = {"entries": draw(mostly(st.just(entries)))}
    if draw(st.booleans()):
        out["n"] = draw(mostly(st.integers(0, 9)))
    return draw(mostly(st.just(out)))


@settings(max_examples=100, deadline=None)
@given(matrix=detdiv_files())
def test_detdiv_cli_exit_code_on_malformed_input(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w") as fh:
            json.dump(matrix, fh)
        run_in_process(["detdiv", "--matrix", path])


delta_values = st.one_of(
    rational_texts,
    st.sampled_from(["0", "-1", "1", "3/2", "2", "1/0", "x", "", "1e400", "1e-400",
                     "1e100000000000"]),
)


@settings(max_examples=150, deadline=None)
@given(
    n=st.one_of(st.integers(-3, 12), st.sampled_from([10 ** 3, 10 ** 6, 10 ** 30])),
    d1=st.none() | delta_values,
    d2=st.none() | delta_values,
    m=st.none() | delta_values,
    allow=st.booleans(),
)
def test_delta_cli_exit_code_on_extreme_input(n, d1, d2, m, allow):
    args = ["delta", "--n", str(n)]
    for flag, value in (("--d1", d1), ("--d2", d2), ("--m", m)):
        if value is not None:
            args += [flag, value]
    run_in_process(args + ["--allow-violations"] * allow)


def test_chain_cli_rejects_fractional_d1_d2(tmp_path, capsys):
    # L^((D1 D2)^(i+1)) was computed with the exponent truncated to an integer
    q = tmp_path / "q.json"
    q.write_text(dumps({"schema": 1, "n": 2, "entries": [["1", "0"], ["0", "1"]]}))
    rc, out, err = run_cli(
        ["chain", "--q", str(q), "--L", "3", "--D1", "3/2", "--D2", "3/2", "--threads", "1"],
        capsys,
    )
    assert rc == 1 and out == ""
    assert err.startswith("error: ")


def test_exchange_cli(tmp_path, capsys):
    q = tmp_path / "q.json"
    q.write_text(dumps({"schema": 1, "n": 2, "entries": [["1", "0"], ["0", "1"]]}))
    rc, out, _ = run_cli(
        ["exchange", "--q", str(q), "--L", "3", "--D", "1", "--M", "inf", "--threads", "1"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["dim_h"] == 3
    assert payload["violations"] == 0


def test_chain_cli(tmp_path, capsys):
    q = tmp_path / "q.json"
    q.write_text(dumps({"schema": 1, "n": 2, "entries": [["1", "0"], ["0", "1"]]}))
    rc, out, _ = run_cli(
        ["chain", "--q", str(q), "--L", "3", "--D1", "1", "--D2", "1", "--threads", "1"],
        capsys,
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["i"] == 0 and payload["k"] == 0
    assert payload["prime_set"] == [3]


@pytest.fixture
def identity2_file(tmp_path):
    path = tmp_path / "q2.json"
    path.write_text(dumps({"schema": 1, "n": 2, "entries": [["1", "0"], ["0", "1"]]}))
    return str(path)


@pytest.mark.parametrize("command, nu", [("exchange", "0"), ("chain", "5"), ("chain", "0,5")])
def test_a_nu_outside_1_to_n_exits_1_before_any_enumeration(
        command, nu, identity2_file, capsys, monkeypatch):
    # exchange --nu 0 reported the pairs (3, 3, 0) ... (5, 5, 0), and chain
    # refused nu = 5 only after both chains had run
    import isocount.enumeration as enumeration

    def must_not_run(*args, **kwargs):
        raise AssertionError("enumeration ran")

    monkeypatch.setattr(enumeration, "_enumerate", must_not_run)
    rc, out, err = run_cli(
        [command, "--q", identity2_file, "--L", "3", "--nu", nu, "--threads", "1"], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "1 <= nu <= 2" in err


def test_a_repeated_nu_is_taken_once(identity2_file, capsys):
    # chain --nu 1,1 emitted the verdict (3, 3, 1) twice, charging each
    # copy to the pair cap
    args = ["chain", "--q", identity2_file, "--L", "3", "--pair-cap", "4", "--threads", "1"]
    rc, once, _ = run_cli(args + ["--nu", "1"], capsys)
    assert rc == 0
    rc, twice, _ = run_cli(args + ["--nu", "1,1"], capsys)
    assert rc == 0 and twice == once


def test_verify_cli(capsys):
    rc, out, err = run_cli(["verify", "--module", "bounds", "--seed", "1"], capsys)
    assert rc == 0
    assert "PASS bounds" in err
    payload = json.loads(out)
    assert payload["failed"] == 0


def test_output_determinism(identity3_file, capsys):
    rc1, out1, _ = run_cli(["qgood", "--q", identity3_file, "--from", "2", "--to", "200"], capsys)
    rc2, out2, _ = run_cli(["qgood", "--q", identity3_file, "--from", "2", "--to", "200"], capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_entry_point_subprocess(identity3_file):
    proc = subprocess.run(
        [sys.executable, "-m", "isocount.cli", "qgood", "--q", identity3_file,
         "--from", "10", "--to", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["primes"] == [11, 19]


def test_count_exact_flag_overrides_m(tmp_path, identity3_file, capsys):
    inst = tmp_path / "inst2.json"
    inst.write_text(
        dumps(
            {
                "schema": 1,
                "q": json.loads(open(identity3_file).read()),
                "a": "3",
                "b": "3",
                "m": "2",
            }
        )
    )
    rc, out, _ = run_cli(["count", "--instance", str(inst), "--exact", "--threads", "1"], capsys)
    assert rc == 0
    payload = json.loads(out)
    assert payload["count"] == 192
    assert payload["instance"]["m"] == "inf"


def test_delta_cli_prints_values_beyond_the_int_string_limit(capsys):
    # D1 = 10^400 gives an eta with more than 4300 digits, which str()
    # refused: "Exceeds the limit (4300 digits) for integer string conversion"
    from isocount.bounds import delta_calculator

    d1 = "1" + "0" * 400
    rc, out, err = run_cli(
        ["delta", "--n", "3", "--d1", d1, "--d2", "2", "--m", "2", "--allow-violations"],
        capsys,
    )
    assert rc == 0, err
    res = delta_calculator(3, d1=10 ** 400, d2=2, big_m=2, allow_violations=True)
    payload = json.loads(out)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for key in ("eta", "delta_squared_side", "delta", "e_min", "e_max"):
            assert Fraction(payload[key]) == getattr(res, key)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(payload["eta"]) > 4300


def usually(good, *bad):
    """One of the good values three times in four, one of the bad otherwise."""
    return st.sampled_from(range(4)).flatmap(
        lambda k: st.sampled_from(bad) if k == 3 else st.sampled_from(good))


# forms and parameters of the exchange and chain commands: small intervals,
# tiny budgets and at most two worker processes keep every example short
exchange_forms = usually(
    [[["1", "0"], ["0", "1"]], [[2, 1], [1, 3]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    [[1]],
    [[1, 2], [2, 1]],  # not positive definite
    [[1, 0], [1, 1]],  # not symmetric
    [],
)
small_l = usually(["3", "5"], "2", "1", "0", "-3", "3/2", "x", "1e400")
small_d = usually(["1", "3/2", "2"], "0", "-1", "100", "1/0")
big_m_texts = usually(["inf", "4"], "3/2", "0", "-1", "x")
nu_texts = usually(["1", "1,2", "3"], "0", "9", "x", ",", "-1")
budget_texts = usually(["1", "100", "3000"], "0", "-5", "x")
threads = st.sampled_from(["1", "2"])


def write_form(tmp, form):
    path = os.path.join(tmp, "q.json")
    with open(path, "w") as fh:
        json.dump(form, fh)
    return path


@st.composite
def exchange_args(draw):
    args = ["--L", draw(small_l), "--D", draw(small_d), "--M", draw(big_m_texts),
            "--budget", draw(budget_texts), "--threads", draw(threads)]
    if draw(st.booleans()):
        args += ["--nu", draw(nu_texts)]
    pairs = draw(st.none() | mostly(st.fixed_dictionaries({
        "pairs": st.lists(st.lists(st.one_of(st.sampled_from([2, 3, 5]), json_junk),
                                   min_size=2, max_size=4), max_size=3)})))
    return args, pairs


@settings(max_examples=40, deadline=None)
@given(form=mostly(st.fixed_dictionaries({"entries": exchange_forms})), extra=exchange_args())
def test_exchange_cli_exit_code_on_extreme_input(form, extra):
    args, pairs = extra
    with tempfile.TemporaryDirectory() as tmp:
        args = ["exchange", "--q", write_form(tmp, form)] + args
        if pairs is not None:
            path = os.path.join(tmp, "pairs.json")
            with open(path, "w") as fh:
                json.dump(pairs, fh)
            args += ["--pairs", path]
        run_in_process(args)


# chains complete within a budget of 3000 nodes on 2 x 2 forms at L = 3
chain_forms = usually([[["1", "0"], ["0", "1"]], [[2, 1], [1, 3]]],
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 2], [2, 1]], [])


@settings(max_examples=40, deadline=None)
@given(
    form=mostly(st.fixed_dictionaries({"entries": chain_forms})),
    l_param=usually(["3"], "5", "2", "0", "3/2", "x", "1e400"),
    d1=usually(["1"], "3/2", "2", "0", "-1", "1/0"),
    d2=usually(["1"], "3/2", "2", "0", "-1", "1/0"),
    big_m=usually(["inf"], "4", "3/2", "0", "x"),
    nu=st.none() | nu_texts,
    budget=usually(["3000"], "1", "100", "0", "-5", "x"),
    pair_cap=usually(["1", "4"], "0", "-1"),
    workers=threads,
)
def test_chain_cli_exit_code_on_extreme_input(form, l_param, d1, d2, big_m, nu, budget,
                                              pair_cap, workers):
    with tempfile.TemporaryDirectory() as tmp:
        args = ["chain", "--q", write_form(tmp, form), "--L", l_param, "--D1", d1,
                "--D2", d2, "--M", big_m, "--budget", budget, "--pair-cap", pair_cap,
                "--threads", workers]
        run_in_process(args + (["--nu", nu] if nu is not None else []))


@settings(max_examples=25, deadline=None)
@given(
    module=st.sampled_from(["matrices", "congruences", "radicals", "primes", "exchange",
                            "recursion", "bounds", "enumeration", "", "x", "MATRICES"]),
    seed=st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str),
                   st.sampled_from(["x", "", "1.5", "1e3"])),
)
def test_verify_cli_exit_code_on_extreme_input(module, seed):
    run_in_process(["verify", "--module", module, "--seed", seed])
