"""Every function, class and method in the package is run by the CLI or
belongs to the package API.

The scan reads the AST of every module.  Its roots are ``cli.main``, the
names in ``reeb_atlas.__all__`` and the statements each module runs at
import.  A reached function, class or method reaches every package
definition that its body names: a name is resolved through its module's own
definitions and its relative imports (at any depth, re-exports followed),
``module.name`` through an imported package module, and any attribute
``.name`` reaches every method called ``name``.  A reached class reaches its
bases, decorators, class-level statements and its dunder methods, which
Python calls implicitly; its other methods need an attribute use.  The scan
is by name, so it errs towards reaching too much, never too little.  Code
that only tests call belongs in ``tests/oracles.py``; ``KEPT`` names the few
exceptions and why each stays.  The package API serves callers outside the
package, so what only the API reaches, and the CLI does not, is named in
``API_ONLY`` with the caller that needs it.
"""

import ast
from pathlib import Path

import reeb_atlas

PACKAGE = Path(reeb_atlas.__file__).parent


def _scan(api=True):
    """(qualified names of all definitions, those reached); the roots are
    ``cli.main``, with ``api`` the names in ``reeb_atlas.__all__`` too, and
    the statements run at import."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    defs, names, methods = {}, {}, {}
    for mod, tree in modules.items():
        local = names[mod] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}" if node.module
                        else alias.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{mod}.{node.name}"] = (mod, node)
                local[node.name] = f"{mod}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        qual = f"{mod}.{node.name}.{sub.name}"
                        defs[qual] = (mod, sub)
                        methods.setdefault(sub.name, []).append(qual)

    def resolve(mod, name):
        target = names[mod].get(name)
        while target is not None and target not in defs and "." in target:
            target = names[target.split(".")[0]].get(target.split(".", 1)[1])
        return target if target in defs else None

    def uses(mod, node):
        if isinstance(node, ast.ClassDef):
            parts = node.bases + node.decorator_list + [
                sub for sub in node.body if not isinstance(sub, ast.FunctionDef)]
            yield from (f"{mod}.{node.name}.{sub.name}" for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and sub.name.startswith("__"))
        else:
            parts = [node]
        for sub in (s for part in parts for s in ast.walk(part)):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif isinstance(sub, ast.Attribute):
                yield from methods.get(sub.attr, [])
                if (isinstance(sub.value, ast.Name)
                        and names[mod].get(sub.value.id) in modules):
                    yield resolve(names[mod][sub.value.id], sub.attr)

    todo = ["cli.main"] + [resolve("__init__", n) for n in reeb_atlas.__all__
                           if api]
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import,
                                     ast.ImportFrom)):
                todo.extend(uses(mod, node))
    reached = set()
    while todo:
        qual = todo.pop()
        if qual is None or qual in reached:
            continue
        reached.add(qual)
        todo.extend(uses(*defs[qual]))
    return set(defs), reached


# unreached definitions kept in src/, with the reason; an entry that is reached
# or gone fails the test as well
KEPT = {
    "contact.StarForm.hess_H": "perfbench/tracing.py counts its calls by name",
}


# definitions that the package API reaches and the CLI does not, with the
# caller outside the package that uses each
API_ONLY = {
    "orbits.refine_orbit": "perfbench/workloads.py builds the census-queries "
                           "census with it",
}


def test_every_definition_is_reached():
    defs, reached = _scan()
    unreached = sorted(defs - reached)
    assert unreached == sorted(KEPT), (
        "run by neither the CLI nor the package API (move test-only code to "
        f"tests/oracles.py), or a stale KEPT entry: {unreached}")


def test_the_api_reaches_only_what_a_caller_needs():
    _, reached = _scan()
    _, by_cli = _scan(api=False)
    api_only = sorted(reached - by_cli)
    assert api_only == sorted(API_ONLY), (
        "reached by the package API alone, with no caller outside the tests "
        f"(move it to tests/oracles.py), or a stale API_ONLY entry: {api_only}")
