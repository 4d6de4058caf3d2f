"""Every defaulted parameter in the package is set by some call in the
package or in the benchmark (``perfbench/``).

A parameter that only tests pass, or that no call passes at all, is a
constant in disguise: it widens the surface that tests must cover and
invites an option that is accepted and ignored.  The scan is by name: a
parameter counts as set when some call to a function or method of that name
passes it by keyword, or positionally at its index (a call to a class counts
as a call to its ``__init__``), with a value other than the literal default:
a call that spells out the default does not make it a setting.  It covers
module-level functions and methods, not nested closures.  ``SET_ELSEWHERE``
names the few parameters that a caller the scan cannot see sets, and why.
Their number may only fall: ``MAX_DEFAULTED`` is lowered with each removal
and raised only on purpose.
"""

import ast
from pathlib import Path

import reeb_atlas

PACKAGE = Path(reeb_atlas.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = MODULES + sorted(
    (Path(__file__).parents[1] / "perfbench").glob("*.py"))

# "qualified name(parameter)" -> who sets it out of the scan's sight
SET_ELSEWHERE = {
    "cli.main(argv)": "perfbench/worker.py passes it as cli_main(argv); the "
                      "console script passes none",
}

MAX_DEFAULTED = 14

_NOT_LITERAL = object()


def _literal(node):
    """(type, value) of a literal expression, else a unique sentinel."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return _NOT_LITERAL
    return type(value), value


def _defaulted(path):
    """(qualified name, call name, parameter, positional index or None,
    literal default)."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef) and cls is None:
                visit(node.body, node.name)
            if not isinstance(node, ast.FunctionDef):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            args = node.args
            positional = (args.posonlyargs + args.args)[
                1 if cls is not None and not static else 0:]
            call = cls if cls is not None and node.name == "__init__" else node.name
            qual = f"{path.stem}.{cls + '.' if cls else ''}{node.name}"
            first = len(positional) - len(args.defaults)
            out.extend((qual, call, p.arg, i, _literal(d))
                       for i, (p, d) in enumerate(
                           zip(positional, [None] * first + args.defaults))
                       if i >= first)
            out.extend((qual, call, p.arg, None, _literal(d))
                       for p, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None)

    visit(ast.parse(path.read_text()).body, None)
    return out


def _calls():
    """Per called name, the positional and keyword values of its calls."""
    calls = {}
    for path in CALLERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if name is not None:
                calls.setdefault(name, []).append(
                    ([_literal(a) for a in node.args],
                     {k.arg: _literal(k.value) for k in node.keywords}))
    return calls


def _sets(param, index, default, positional, keywords):
    if param in keywords:
        value = keywords[param]
    elif index is not None and index < len(positional):
        value = positional[index]
    else:
        return False
    return value is _NOT_LITERAL or value != default


def test_every_defaulted_parameter_is_set_somewhere():
    calls = _calls()
    unset = [f"{qual}({param})"
             for path in MODULES
             for qual, call, param, index, default in _defaulted(path)
             if not any(_sets(param, index, default, positional, keywords)
                        for positional, keywords in calls.get(call, []))]
    assert sorted(unset) == sorted(SET_ELSEWHERE), (
        f"defaulted parameters that neither src/ nor perfbench/ sets (make "
        f"them constants), or a stale SET_ELSEWHERE entry: {unset}")


def test_defaulted_parameter_count_does_not_grow():
    count = sum(len(_defaulted(path)) for path in MODULES)
    assert count <= MAX_DEFAULTED, (
        f"{count} defaulted parameters, above the bound {MAX_DEFAULTED}")
