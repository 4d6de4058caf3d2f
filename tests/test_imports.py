"""Every name a module imports is read somewhere in that module, and a CLI
process imports only the scipy modules its config needs, and no jsonschema."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import reeb_atlas

from oracles import form_json

PACKAGE = Path(reeb_atlas.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in read)
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def _after_load_config(tmp_path, form):
    """The top-level packages and the scipy modules that a fresh interpreter
    holds after importing the CLI and loading a config of ``form``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"form": form_json(form)}))
    code = ("import sys, reeb_atlas.cli as cli; cli.load_config(sys.argv[1]); "
            "print(*(m for m in sys.modules "
            "if '.' not in m or m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", code, str(config)],
                          env=dict(os.environ, PYTHONPATH=path), check=True,
                          capture_output=True, text=True, timeout=120)
    return set(done.stdout.split())


def _scipy(loaded):
    return {m for m in loaded if m.split(".")[0] == "scipy"}


def test_an_ellipsoid_config_loads_no_scipy(tmp_path, ell):
    assert _scipy(_after_load_config(tmp_path, ell)) == set()


def test_a_weighted_config_loads_only_scipy_special(tmp_path, perturbed_form):
    # the positivity check draws sphere samples, through scipy's ndtri
    loaded = _scipy(_after_load_config(tmp_path, perturbed_form))
    assert "scipy.special" in loaded
    unwanted = ("scipy.integrate", "scipy.stats", "scipy.spatial", "scipy.optimize")
    assert not {m for m in loaded if ".".join(m.split(".")[:2]) in unwanted}


@pytest.mark.parametrize("form", ["ell", "perturbed_form"])
def test_no_config_loads_jsonschema(tmp_path, request, form):
    # the form's own decoder and the run-key table check a config
    loaded = _after_load_config(tmp_path, request.getfixturevalue(form))
    assert "reeb_atlas" in loaded and "jsonschema" not in loaded
