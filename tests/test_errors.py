"""``errors.raised`` is the one place that raises a batch row's error.

The batched entry points (``integrate_batch``, ``lockstep``,
``trace_orbits``, ``prime_flows``, ``prime_traces``) return each row's value
or its exception; a caller that needs the values passes them through
``raised``.  The scan fails if a module grows back its own
``if isinstance(v, Exception | ReebAtlasError): raise v``.
"""

import ast
from pathlib import Path

import pytest

import reeb_atlas
from reeb_atlas.errors import DomainError, OffLevelError, raised

MODULES = sorted(Path(reeb_atlas.__file__).parent.glob("*.py"))
ROW_ERRORS = {"Exception", "ReebAtlasError"}


def _open_coded_raises(path):
    """Lines of each ``if isinstance(v, <a ROW_ERRORS class>)`` whose body
    raises that same ``v``, outside ``errors.raised``."""
    tree = ast.parse(path.read_text())
    exempt = {id(n) for f in ast.walk(tree)
              if isinstance(f, ast.FunctionDef) and f.name == "raised"
              and path.stem == "errors" for n in ast.walk(f)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If) or id(node) in exempt:
            continue
        test = node.test
        if not (isinstance(test, ast.Call) and isinstance(test.func, ast.Name)
                and test.func.id == "isinstance" and len(test.args) == 2
                and isinstance(test.args[1], ast.Name)
                and test.args[1].id in ROW_ERRORS):
            continue
        value = ast.dump(test.args[0])
        if any(isinstance(n, ast.Raise) and n.exc is not None
               and ast.dump(n.exc) == value
               for stmt in node.body for n in ast.walk(stmt)):
            lines.append(f"{path.name}:{node.lineno}")
    return lines


def test_raised_passes_clean_rows_and_raises_the_first_error():
    rows = [1, "two", None]
    assert raised(rows) is rows
    with pytest.raises(OffLevelError, match="first"):
        raised([1, OffLevelError("first"), DomainError("second")])
    # any exception, as find_orbits' certify returns, not only the toolkit's
    with pytest.raises(ZeroDivisionError):
        raised([ZeroDivisionError(), DomainError("second")])


def test_no_module_open_codes_a_batch_rows_raise():
    found = [line for path in MODULES for line in _open_coded_raises(path)]
    assert not found, (f"raise a batch row's error through errors.raised, "
                       f"not by hand: {found}")
