"""Every name a module imports is read somewhere in that module; a CLI
process that loads a config, searches for orbits, checks a binding or audits
a page imports no scipy module and no jsonschema; and one that builds or
verifies a page loads scipy's kd-tree extension without the scipy.spatial
package."""

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


def _modules_after(code, *argv):
    """The top-level packages and the scipy modules that a fresh interpreter
    holds after running ``code`` with ``argv``; they are read from the last
    line it prints."""
    path = os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])
    code += ("; print(); print(*(m for m in sys.modules "
             "if '.' not in m or m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)],
                          env=dict(os.environ, PYTHONPATH=path), check=True,
                          capture_output=True, text=True, timeout=120)
    return set(done.stdout.splitlines()[-1].split())


def _after_load_config(tmp_path, form):
    """The modules after importing the CLI and loading a config of ``form``."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"form": form_json(form)}))
    return _modules_after("import sys, reeb_atlas.cli as cli; "
                          "cli.load_config(sys.argv[1])", config)


def _scipy(loaded):
    return {m for m in loaded if m.split(".")[0] == "scipy"}


def test_an_ellipsoid_config_loads_no_scipy(tmp_path, ell):
    assert _scipy(_after_load_config(tmp_path, ell)) == set()


def test_a_weighted_config_loads_no_scipy(tmp_path, perturbed_form):
    # the positivity check's sphere samples take the built-in inverse normal CDF
    assert _scipy(_after_load_config(tmp_path, perturbed_form)) == set()


def test_an_orbit_search_loads_no_scipy(tmp_path, ell):
    # the search's seeds, polish and certification of the census need no
    # scipy; these sizes find gamma1 and gamma2
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"form": form_json(ell), "tmax": 5.0, "seeds": 16}))
    loaded = _modules_after(
        "import sys, reeb_atlas.cli as cli; assert cli.main(['orbits-find', "
        "'--config', sys.argv[1], '--out', sys.argv[2]]) == 0", config, tmp_path)
    assert len(json.loads((tmp_path / "orbits.json").read_text())["orbits"]) == 2
    assert "reeb_atlas" in loaded and _scipy(loaded) == set()


def test_binding_check_and_audit_load_no_scipy(tmp_path, ell):
    # the census and the page are written in this process (disk-gen loads
    # scipy's kd-tree extension); fresh interpreters then check the binding
    # and audit the page
    from reeb_atlas import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"form": form_json(ell), "tmax": 5.0, "seeds": 16}))
    common = ["--config", str(config), "--out", str(tmp_path)]
    orbits = ["--orbits", str(tmp_path / "orbits.json")]
    assert cli.main(["orbits-find", *common]) == 0
    assert cli.main(["disk-gen", *common, *orbits, "--orbit", "0",
                     "--nr", "128", "--ntheta", "48"]) == 0
    for argv, report in (
            (["binding-check", *orbits, "--candidate", "0"], "binding_orbit0.json"),
            (["audit", *orbits, "--disk", str(tmp_path / "disk_orbit0.json"),
              "--binding", "0"], "audit_binding0.json")):
        loaded = _modules_after("import sys, reeb_atlas.cli as cli; "
                                "cli.main(sys.argv[1:])", *argv, *common)
        assert (tmp_path / report).exists()
        assert "reeb_atlas" in loaded and _scipy(loaded) == set(), argv[0]


def test_page_commands_load_no_scipy_spatial_package(tmp_path, ell):
    # the census is written in this process; fresh interpreters then build
    # the page and verify it, each loading only the kd-tree extension
    from reeb_atlas import cli

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"form": form_json(ell), "tmax": 5.0, "seeds": 16}))
    common = ["--config", str(config), "--out", str(tmp_path)]
    assert cli.main(["orbits-find", *common]) == 0
    for argv, report in (
            (["disk-gen", "--orbits", str(tmp_path / "orbits.json"),
              "--orbit", "0", "--nr", "128", "--ntheta", "48"],
             "disk_orbit0.json"),
            (["section-verify", "--disk", str(tmp_path / "disk_orbit0.json"),
              "--seeds", "4", "--t-budget", "20"], "section_report.json")):
        loaded = _modules_after("import sys, reeb_atlas.cli as cli; "
                                "assert cli.main(sys.argv[1:]) == 0",
                                *argv, *common)
        assert (tmp_path / report).exists()
        assert "scipy.spatial._ckdtree" in loaded, argv[0]
        assert "scipy.spatial" not in loaded, argv[0]


@pytest.mark.parametrize("order", [
    "import scipy.spatial, reeb_atlas.sections as sec; tree = sec._ckdtree()",
    "import reeb_atlas.sections as sec; tree = sec._ckdtree(); "
    "import scipy.spatial"], ids=["imported_before", "imported_after"])
def test_the_loaded_kd_tree_is_scipys(order):
    # whether scipy.spatial is imported before the loader runs or after it,
    # both name one class
    loaded = _modules_after(order + "; assert tree is scipy.spatial.cKDTree; "
                            "import sys")
    assert "scipy.spatial" in loaded


@pytest.mark.parametrize("form", ["ell", "perturbed_form"])
def test_no_config_loads_jsonschema(tmp_path, request, form):
    # the form's own decoder and the run-key table check a config
    loaded = _after_load_config(tmp_path, request.getfixturevalue(form))
    assert "reeb_atlas" in loaded and "jsonschema" not in loaded
