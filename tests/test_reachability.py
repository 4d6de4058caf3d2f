"""Every module-level function and class in the package is run by the CLI or
belongs to the package API.

The scan reads the AST of every module.  Its roots are ``cli.main``, the
names in ``reeb_atlas.__all__`` and the statements each module runs at
import.  A reached function or class reaches every package definition that
its body names: a name is resolved through its module's own definitions and
its relative imports (at any depth, re-exports followed), and
``module.name`` through an imported package module.  A reached class
reaches its whole body, methods included.  The scan is by name, so it errs
towards reaching too much, never too little.  Code that only tests call
belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import reeb_atlas

PACKAGE = Path(reeb_atlas.__file__).parent

# The second linking route, signed crossings of a generic planar shadow, is
# kept beside the Gauss sum as its independent reference implementation and
# is planned as its runtime cross-check; until then only tests run it.
UNREACHED = {"linking.crossing_linking", "linking._pair_crossings"}


def _scan():
    """(qualified names of all module-level definitions, those reached)."""
    modules = {p.stem: ast.parse(p.read_text())
               for p in sorted(PACKAGE.glob("*.py"))}
    defs, names = {}, {}
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

    def resolve(mod, name):
        target = names[mod].get(name)
        while target is not None and target not in defs and "." in target:
            target = names[target.split(".")[0]].get(target.split(".", 1)[1])
        return target if target in defs else None

    def uses(mod, node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield resolve(mod, sub.id)
            elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                  and names[mod].get(sub.value.id) in modules):
                yield resolve(names[mod][sub.value.id], sub.attr)

    todo = ["cli.main"] + [resolve("__init__", n) for n in reeb_atlas.__all__]
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


def test_every_definition_is_reached():
    defs, reached = _scan()
    unreached = defs - reached
    extra = sorted(unreached - UNREACHED)
    assert not extra, ("run by neither the CLI nor the package API (move "
                       f"test-only code to tests/oracles.py): {extra}")
    stale = sorted(UNREACHED - unreached)
    assert not stale, f"drop these from UNREACHED, they are reached: {stale}"
