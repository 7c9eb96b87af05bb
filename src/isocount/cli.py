"""Command-line front end.

Subcommands: count, detdiv, qgood, exchange, chain, delta, bound, verify.
Results go to stdout (or --out); diagnostics to stderr.  Exit
codes: 0 success, 1 domain/usage error, 2 resource or budget error.
"""

import argparse
import os
import re
import sys

from .bounds import SpectralParameters, basic_estimate, c_function_norm, delta_calculator
from .enumeration import DEFAULT_BUDGET, CountingInstance, enum_S
from .errors import DomainError, IsocountError, ResourceBudgetError
from .matrices import determinantal_divisors
from .primes import good_prime_set, residue_system
from .recursion import proposition_driver
from .serialize import (
    dumps,
    fraction_from_str,
    int_to_str,
    integer_matrix_from_json,
    matrix_to_json,
    rational_sym_matrix_from_json,
    read_json,
    write_json,
)
from .xchg import exchange_step
from . import verify as verify_mod


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def build_parser():
    parser = _Parser(prog="isocount", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[], help="enumerate or count one instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--exact", action="store_true", help="force the no-error-term regime")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--emit-matrices", default=None)
    p.add_argument("--threads", type=int, default=default_threads())
    p.add_argument("--out", default=None)

    p = sub.add_parser("detdiv", help="determinantal divisors of an integer matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("qgood", help="good primes for a rational matrix in a window")
    p.add_argument("--q", required=True)
    p.add_argument("--from", dest="lo", required=True, type=int)
    p.add_argument("--to", dest="hi", required=True, type=int)
    p.add_argument("--coprime", type=int, default=1)
    p.add_argument("--out", default=None)

    p = sub.add_parser("exchange", help="one exchange step over a prime interval")
    p.add_argument("--q", required=True)
    p.add_argument("--L", dest="l_param", required=True)
    p.add_argument("--D", dest="d_param", default="1")
    p.add_argument("--M", dest="big_m", default="inf")
    p.add_argument("--pairs", default=None, help="JSON file with explicit pairs")
    p.add_argument("--nu", default=None, help="comma-separated nu values")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--threads", type=int, default=default_threads())
    p.add_argument("--out", default=None)

    p = sub.add_parser("chain", help="full recursive driver producing a certificate")
    p.add_argument("--q", required=True)
    p.add_argument("--L", dest="l_param", required=True)
    p.add_argument("--D1", dest="d1", default="1")
    p.add_argument("--D2", dest="d2", default="1")
    p.add_argument("--M", dest="big_m", default="inf")
    p.add_argument("--nu", default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--pair-cap", type=int, default=64)
    p.add_argument("--threads", type=int, default=default_threads())
    p.add_argument("--out", default=None)

    p = sub.add_parser("delta", help="exponent saving at given or minimal parameters")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d1", default=None)
    p.add_argument("--d2", default=None)
    p.add_argument("--m", default=None)
    p.add_argument("--allow-violations", action="store_true")
    p.add_argument("--out", default=None)

    p = sub.add_parser("bound", help="evaluate the three-term amplified bound")
    p.add_argument("--mu", required=True, help="JSON with spectral parameters")
    p.add_argument("--counts", required=True, help="JSON with window data and counts")
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run the seeded property suite")
    p.add_argument("--module", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    return parser


def default_threads():
    return max(1, os.cpu_count() or 1)


def _parse_big_m(text):
    if text in ("inf", "infinity", "oo", None):
        return None
    return fraction_from_str(text)


def _parse_nu(text):
    if not text:
        return None
    return [int(x) for x in text.split(",") if x]


def _emit(obj, out_path):
    _emit_text(dumps(obj), out_path)


def _emit_text(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    else:
        sys.stdout.write(text + "\n")


def _instance_from_json(obj, force_exact=False):
    q = rational_sym_matrix_from_json(obj["q"])
    a = _json_int(obj["a"], "a")
    b = _json_int(obj["b"], "b")
    big_m = None if force_exact else _parse_big_m(obj.get("m", "inf"))
    err = fraction_from_str(obj.get("error_constant", "1"))
    return CountingInstance(q, a=a, b=b, big_m=big_m, error_constant=err)


def cmd_count(args):
    inst = _instance_from_json(_json_object(args.instance, "instance"), force_exact=args.exact)
    ss = enum_S(inst, budget=args.budget, workers=args.threads)
    result = {
        "schema": 1,
        "instance": inst.describe(),
        "count": ss.count,
        "statistics": ss.stats,
    }
    if args.emit_matrices:
        write_json(
            args.emit_matrices,
            {"schema": 1, "matrices": [matrix_to_json(g) for g in ss.matrices]},
        )
        result["matrices_path"] = args.emit_matrices
    _emit(result, args.out)


def cmd_detdiv(args):
    m = integer_matrix_from_json(read_json(args.matrix))
    # each Delta goes in as its decimal text and comes out as a bare JSON
    # number: json's own str() of an int refuses more than 4300 digits
    deltas = [int_to_str(d) for d in determinantal_divisors(m)]
    text = re.sub(r'"(\d+)"', r"\1", dumps({"schema": 1, "delta": deltas}))
    _emit_text(text, args.out)


def cmd_qgood(args):
    q = rational_sym_matrix_from_json(read_json(args.q))
    system = residue_system(q)
    primes = good_prime_set(system, args.lo, args.hi, coprime_to=args.coprime)
    _emit(
        {"schema": 1, "residue_system": system.to_json(), "primes": primes},
        args.out,
    )


def cmd_exchange(args):
    q = rational_sym_matrix_from_json(read_json(args.q))
    pairs = _pairs_from_json(args.pairs, q.n) if args.pairs else None
    rep = exchange_step(
        q,
        fraction_from_str(args.l_param),
        fraction_from_str(args.d_param),
        big_m=_parse_big_m(args.big_m),
        pairs=pairs,
        nu_values=_parse_nu(args.nu),
        budget=args.budget,
        workers=args.threads,
    )
    _emit(rep.to_json(), args.out)


def _pairs_from_json(path, n):
    """The [p, q, nu] rows of a pairs file: integers p, q >= 2, 1 <= nu <= n."""
    pairs = []
    for row in _json_list(_json_object(path, "pairs").get("pairs"), "pairs"):
        if not isinstance(row, list) or len(row) != 3:
            raise DomainError("a pair is [p, q, nu], got %r" % (row,))
        p, q, nu = (_json_int(x, "a pair entry") for x in row)
        if p < 2 or q < 2 or not 1 <= nu <= n:
            raise DomainError("a pair needs p, q >= 2 and 1 <= nu <= %d, got %r" % (n, row))
        pairs.append((p, q, nu))
    return pairs


def cmd_chain(args):
    q = rational_sym_matrix_from_json(read_json(args.q))
    cert = proposition_driver(
        q,
        fraction_from_str(args.l_param),
        fraction_from_str(args.d1),
        fraction_from_str(args.d2),
        big_m=_parse_big_m(args.big_m),
        nu_values=_parse_nu(args.nu),
        budget=args.budget,
        workers=args.threads,
        pair_cap=args.pair_cap,
    )
    _emit(cert.to_json(), args.out)


def cmd_delta(args):
    res = delta_calculator(
        args.n,
        d1=None if args.d1 is None else fraction_from_str(args.d1),
        d2=None if args.d2 is None else fraction_from_str(args.d2),
        big_m=None if args.m is None else fraction_from_str(args.m),
        allow_violations=args.allow_violations,
    )
    _emit(res.to_json(), args.out)


def _json_object(path, what):
    obj = read_json(path)
    if not isinstance(obj, dict):
        raise DomainError("the %s file must hold a JSON object" % what)
    return obj


def _json_list(value, what):
    if not isinstance(value, list):
        raise DomainError("%s must be a JSON list" % what)
    return value


def _json_int(value, what):
    x = fraction_from_str(value)
    if x.denominator != 1:
        raise DomainError("%s must be an integer, got %s" % (what, x))
    return int(x)


def cmd_bound(args):
    mu = _json_list(_json_object(args.mu, "mu").get("mu"), "mu")
    params = SpectralParameters(tuple(fraction_from_str(x) for x in mu))
    data = _json_object(args.counts, "counts")
    inv_c = (
        fraction_from_str(data["inv_c_norm"])
        if "inv_c_norm" in data
        else c_function_norm(params.mu)
    )
    counts = {}
    for row in _json_list(data.get("counts", []), "counts"):
        if not isinstance(row, list) or len(row) != 4:
            raise DomainError("a counts row is [nu, p, q, count], got %r" % (row,))
        nu, p, q, c = (_json_int(x, "a counts entry") for x in row)
        counts[(nu, p, q)] = c
    rep = basic_estimate(
        inv_c,
        fraction_from_str(data["l0"]),
        fraction_from_str(data["m"]),
        _json_int(data["p_size"], "p_size"),
        counts,
        params.n,
        level=_json_int(data.get("level", 1), "level"),
    )
    _emit(rep.to_json(), args.out)


def cmd_verify(args):
    report = verify_mod.run(module=args.module, seed=args.seed)
    lines = []
    failed = 0
    for module in sorted(report):
        for name, ok, detail in report[module]:
            lines.append(
                {"module": module, "check": name, "ok": ok, "detail": detail}
            )
            sys.stderr.write(
                "%s %s.%s %s\n" % ("PASS" if ok else "FAIL", module, name, detail)
            )
            if not ok:
                failed += 1
    _emit({"schema": 1, "seed": args.seed, "checks": lines, "failed": failed}, args.out)
    return 1 if failed else 0


COMMANDS = {
    "count": cmd_count,
    "detdiv": cmd_detdiv,
    "qgood": cmd_qgood,
    "exchange": cmd_exchange,
    "chain": cmd_chain,
    "delta": cmd_delta,
    "bound": cmd_bound,
    "verify": cmd_verify,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        rc = COMMANDS[args.command](args)
        return 0 if rc is None else rc
    except ResourceBudgetError as e:
        sys.stderr.write("resource error: %s\n" % e)
        return 2
    except (DomainError, IsocountError, OSError, KeyError, ValueError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
