"""The call sites the benchmark's layer tracing wraps must exist.

`perfbench/tracing.py` wraps each (module, class, attribute) of its `WRAPS`
tuple in place and reports a site it cannot find as missing, so the
metrics of that layer would silently read 0.  This test fails instead.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPS


@pytest.mark.parametrize("module, cls, attr, span", _wraps())
def test_traced_call_site_exists(module, cls, attr, span):
    owner = importlib.import_module(module)
    if cls:
        owner = getattr(owner, cls)
    # looked up the way the tracer looks it up: on the owner itself
    assert vars(owner).get(attr) is not None, "%s: %s.%s is gone" % (span, cls or module, attr)
