"""Digests of every report that the README session, the benchmark's
workloads and a dumbbell session write, for a byte-identity check between
two source trees.

    PYTHONPATH=<tree>/src python tests/report_digests.py OUT > digests.txt

In one process and through ``reeb_atlas.cli.main``, this runs the README's
nine commands at the README's sizes, then each perfbench workload's seed-0
commands as ``perfbench/workloads.build`` plans them (census-queries' input
census by ``workloads.write_census``), then ``orbits-find`` on the K = 1.2
dumbbell, ``binding-check`` of each of its census entries, which hold an
index-2 orbit and failing verdicts, and ``link``, ``selflink`` and
``unknot`` on that census, with its unlinked pairs and non-circular
shadows, each session in its own ``OUT/<session>/``.  It prints each
command's exit code, ``sha256  path`` of every report, CSV and input, and
every sidecar leaf as ``path:key.key = value``, apart from the timings
``wall_seconds``, ``import_seconds`` and ``written_at``.  Paths are
relative to OUT, so a ``diff`` of two trees' outputs is the byte-identity
check.  pytest does not collect this file.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402
from reeb_atlas.cli import main  # noqa: E402

TIMINGS = {"wall_seconds", "import_seconds", "written_at"}

README_CONFIG = {
    "form": {"type": "ellipsoid", "r_squared": [1.0, 1.4142135623730951]},
    "tmax": 10.0, "seeds": 256, "rng_seed": 0,
}


def readme_commands(out):
    """The README's session, writing into ``out``."""
    base = ["--config", f"{out}/ellipsoid.json", "--out", out]
    orbits = ["--orbits", f"{out}/orbits.json"]
    disk = ["--disk", f"{out}/disk_orbit0.json"]
    return [
        ["orbits-find"] + base,
        ["orbit-index"] + base + orbits + ["--orbit", "0"],
        ["link"] + base + orbits,
        ["selflink"] + base + orbits,
        ["unknot"] + base + orbits,
        ["disk-gen"] + base + orbits + ["--orbit", "0"],
        ["section-verify"] + base + disk + ["--seeds", "500",
                                            "--t-budget", "44.43"],
        ["binding-check"] + base + orbits + ["--candidate", "0"],
        ["audit"] + base + orbits + disk + ["--binding", "0"],
    ]


# the dumbbell of ``oracles.dumbbell(1.2)``, searched as the
# ``dumbbell_12_searched`` fixture is: the neck, both lobes and the z2-plane
# orbit
DUMBBELL_CONFIG = {
    "form": {"type": "weighted", "name": "dumbbell-K1.2", "monomials": [
        {"exp": [0, 0, 0, 0], "coeff": 1.0},
        {"exp": [0, 0, 2, 0], "coeff": 1.2}]},
    "tmax": 5.5, "seeds": 64, "rng_seed": 0,
}


def dumbbell_commands(out):
    """The dumbbell's search, the binding check of its four entries, and
    ``link``, ``selflink`` and ``unknot`` on its census, writing into
    ``out``."""
    base = ["--config", f"{out}/dumbbell.json", "--out", out]
    orbits = ["--orbits", f"{out}/orbits.json"]
    return [["orbits-find"] + base] + [
        ["binding-check"] + base + orbits + ["--candidate", str(k)]
        for k in range(4)] + [[command] + base + orbits
                              for command in ("link", "selflink", "unknot")]


# the sessions this file plans itself: config file name, config, commands
LOCAL = {"readme": ("ellipsoid.json", README_CONFIG, readme_commands),
         "dumbbell": ("dumbbell.json", DUMBBELL_CONFIG, dumbbell_commands)}
SESSIONS = ["readme", *workloads.WHY, "dumbbell"]


def session(name):
    """The argv lists of one of ``SESSIONS``, its inputs written under
    ``name/`` in the working directory."""
    if name in LOCAL:
        config_name, config, commands = LOCAL[name]
        os.makedirs(name, exist_ok=True)
        with open(f"{name}/{config_name}", "w") as fh:
            json.dump(config, fh, indent=1)
        return commands(name)
    plan = workloads.build(name, 0, f"{name}/inputs")
    if plan.census_input is not None:
        workloads.write_census(plan)
    return [cmd.argv(plan.config, name, plan.inputs) for cmd in plan.commands]


def leaves(value, path=()):
    """(key path, value) of every leaf of a JSON value."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], path + (key,))
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from leaves(item, path + (k,))
    else:
        yield path, value


def digest(name):
    for path in sorted(Path(name).rglob("*")):
        if not path.is_file():
            continue
        if path.name.endswith(".meta.json"):
            for keys, value in leaves(json.loads(path.read_text())):
                if keys[-1] not in TIMINGS:
                    leaf = ".".join(map(str, keys))
                    print(f"{path}:{leaf} = {json.dumps(value)}")
        else:
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")


def run(out):
    os.makedirs(out, exist_ok=True)
    os.chdir(out)
    for name in SESSIONS:
        for argv in session(name):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            print(f"exit {code}  {' '.join(argv)}")
        digest(name)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: report_digests.py OUT")
    run(sys.argv[1])
