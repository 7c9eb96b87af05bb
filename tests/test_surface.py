"""Every top-level function and class of the library has a caller in the
library itself.

A name counts as referenced when it appears as a bare name, as an
attribute or in an import anywhere in `src/isocount` outside its own
definition; the re-exports of `__init__` do not count, so a function that
only its unit tests reach fails here.  The exemptions are the `_check_*`
functions of `verify` (looked up by name) and the documented entry points
below that nothing in the library calls.
"""

import ast
import os

import isocount

SRC = os.path.dirname(os.path.abspath(isocount.__file__))
# called by the acceptance tests; count_S and select_generators are
# documented entry points
ENTRY_POINTS = {"first_column_bound", "distance_to_subspace", "count_S", "select_generators"}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _references(tree):
    """(name, line) of every bare name, attribute and imported name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
    return out


def test_every_top_level_definition_is_referenced_in_the_library():
    modules = list(_modules())
    refs = {mod: _references(tree) for mod, tree in modules}
    unreached = []
    for mod, tree in modules:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in ENTRY_POINTS or (mod == "verify" and name.startswith("_check_")):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == name and not (other == mod and line in own)
                for other, found in refs.items()
                for ref, line in found
            ):
                unreached.append("%s.%s" % (mod, name))
    assert unreached == []
