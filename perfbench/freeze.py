"""Write perfbench/expected.json: the mathematical content of every
operation's output (counts, chain dimensions, verdicts, Q' entries),
computed by the code in src/ on the unconjugated base inputs.

The values were frozen at the commit that added the benchmark.  Rerun this
only for a change that is meant to alter outputs, and say so:

    python3 perfbench/freeze.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def base_ops():
    def enum_op(key, name, a, big_m):
        return workloads.enum_op(key, workloads.diagonal_form(workloads.BASE_FORMS[name]), a, big_m)

    ops = [enum_op("%s/a=%d" % (name, a), name, a, None)
           for name in workloads.BASE_FORMS for a in workloads.COUNT_SIZES]
    ops += [enum_op("%s/a=%d/M=%d" % (name, a, workloads.WINDOW_M), name, a, workloads.WINDOW_M)
            for name, a in workloads.WINDOW_POOL]
    ops.append(enum_op("I3/a=%d" % workloads.SKEW_SIZE, "I3", workloads.SKEW_SIZE, None))
    return ops + workloads.build("exchange", 0) + workloads.build("chain", 0)


def main():
    expected = {}
    for op in base_ops():
        expected[op.key] = json.loads(json.dumps(op.digest(op.call())))
        print(op.key, file=sys.stderr)
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
