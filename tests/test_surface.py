"""Every top-level function and class of the library, and every method,
has a caller in the library itself, and every option is set by one.

A top-level name counts as referenced when, outside its own definition,
`src/isocount` names it bare in its own module, imports it from its
module, or reads it as `<module>.<name>` through any alias of that
module, so a method of the same name does not hide it.  A method counts
as referenced when its name appears as a bare name, an attribute or an
import anywhere.  The re-exports of `__init__` do not count, so a
function or method that only its unit tests reach fails here.  Special methods
(`__eq__`, ...) are called by the language and exempt.  The other
exemptions are the `_check_*` functions of `verify` (looked up by name),
the documented entry points below that nothing in the library calls, and
the methods below that a caller outside the library's own code calls.

The same holds for options: every defaulted parameter of a function,
method or dataclass is passed, by keyword or by position, at some call
site of the library outside its own body, so that no option serves only
the tests.  `cli.main`'s `argv` (the console-script entry passes none) and
the options the acceptance tests set are exempt.
"""

import ast
import os

import isocount

SRC = os.path.dirname(os.path.abspath(isocount.__file__))
# called by the acceptance tests
ENTRY_POINTS = {"first_column_bound", "distance_to_subspace"}
# set by the acceptance tests, or by the console script (argv)
ENTRY_OPTIONS = {"cli.main.argv", "xchg.exchange_step.region",
                 "primes.linnik_report.floor_x", "primes.linnik_report.constant"}
# argparse calls _Parser.error; holds_exactly is the test of the result of
# the entry point first_column_bound
ENTRY_METHODS = {"_Parser.error", "FirstColumnBound.holds_exactly"}


def _modules():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _names(mod, tree):
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


def _qualified(mod, tree):
    """((module, name), line) of every top-level name the module refers to:
    a bare name of its own, a name imported from a library module, or
    <module>.<name> through a module imported under any alias (`from .
    import verify as verify_mod`)."""
    aliases = {}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("isocount").lstrip(".")
            for alias in node.names:
                if source:
                    out.append(((source, alias.name), node.lineno))
                else:
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(((mod, node.id), node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                out.append(((aliases[node.value.id], node.attr), node.lineno))
    return out


def _unreached(definitions, references):
    """The names '<module>.<qualname>' of the (qualname, node, key) triples
    that definitions(module, tree) yields whose key no reference of
    references(module, tree) matches outside their own body."""
    modules = list(_modules())
    refs = {mod: references(mod, tree) for mod, tree in modules}
    unreached = []
    for mod, tree in modules:
        for qualname, node, key in definitions(mod, tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                ref == key and not (other == mod and line in own)
                for other, found in refs.items()
                for ref, line in found
            ):
                unreached.append("%s.%s" % (mod, qualname))
    return unreached


def _top_level(mod, tree):
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name in ENTRY_POINTS or (mod == "verify" and node.name.startswith("_check_")):
            continue
        yield node.name, node, (mod, node.name)


def _methods(mod, tree):
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            qualname = "%s.%s" % (cls.name, node.name)
            special = node.name.startswith("__") and node.name.endswith("__")
            if not special and qualname not in ENTRY_METHODS:
                yield qualname, node, node.name


def test_every_top_level_definition_is_referenced_in_the_library():
    assert _unreached(_top_level, _qualified) == []


def test_every_method_is_referenced_in_the_library():
    assert _unreached(_methods, _names) == []


def _options(mod, tree):
    """(qualified name, key, position, node) of every defaulted parameter:
    key is the name a call site uses (the function's, the method's, or the
    class's for __init__ and dataclass fields), position the index of the
    parameter among the call's positional arguments (None when it is
    keyword-only)."""
    for owner in [tree] + [c for c in tree.body if isinstance(c, ast.ClassDef)]:
        is_class = isinstance(owner, ast.ClassDef)
        if is_class and any("dataclass" in ast.unparse(d) for d in owner.decorator_list):
            fields = [st for st in owner.body if isinstance(st, ast.AnnAssign)]
            for i, st in enumerate(fields):
                if st.value is not None:
                    yield ("%s.%s.%s" % (mod, owner.name, st.target.id),
                           owner.name, i, owner)
        for node in owner.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if is_class else 0  # self or cls
            key = owner.name if node.name == "__init__" else node.name
            qual = "%s.%s%s" % (mod, owner.name + "." if is_class else "", node.name)
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield "%s.%s" % (qual, arg.arg), key, i - skip, node
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield "%s.%s" % (qual, arg.arg), key, None, node


def _calls(tree):
    """(callee name, call) of every call, the callee read off a bare name
    or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _passes(call, name, position):
    """The call passes the parameter by keyword, or by position among its
    arguments before any *-unpacking."""
    if any(kw.arg == name for kw in call.keywords):
        return True
    plain = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                 len(call.args))
    return position is not None and plain > position


def test_every_option_is_set_by_a_library_call():
    trees = list(_modules())
    unset = []
    for mod, tree in trees:
        for qual, key, position, node in _options(mod, tree):
            if qual in ENTRY_OPTIONS:
                continue
            own = range(node.lineno, node.end_lineno + 1)
            name = qual.rsplit(".", 1)[1]
            if not any(
                callee == key and not (other == mod and call.lineno in own)
                and _passes(call, name, position)
                for other, found in trees
                for callee, call in _calls(found)
            ):
                unset.append(qual)
    assert unset == []
