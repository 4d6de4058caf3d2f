"""Workload inputs, command sequences and reference values.

Importing this module needs only the standard library, so the launcher can
write a workload's config before any numerical code is loaded.  Inputs are a
function of the seed alone: seed 0 gives the nominal inputs, other seeds draw
their parameters from ``random.Random(seed)``.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
SQRT2 = math.sqrt(2.0)

WHY = {
    "ellipsoid-session": (
        "the README's nine-command session on the irrational ellipsoid; time "
        "goes to the Newton polish, the disk frame field and return maps"),
    "weighted-session": (
        "the six weighted-form commands on a perturbed degree-4 weight; the "
        "polynomial kernels dominate and the sections layer does no work"),
    "census-queries": (
        "read-only commands on a fixed ellipsoid census; no orbit search, so "
        "time goes to index reports, Gauss sums and census reloads"),
}

# Sizes used for measurement, and tiny sizes for the smoke test.  Each keeps
# both prime orbits and at least one iterate in the census.
SIZES = {
    "ellipsoid-session": {"tmax": 10.0, "census_seeds": 32, "disk_nr": 128,
                          "disk_ntheta": 48, "section_seeds": 32},
    "weighted-session": {"tmax": 7.0, "census_seeds": 16, "index_n_grid": 512},
    "census-queries": {"tmax": 14.0},
}
TINY_SIZES = {
    "ellipsoid-session": {"tmax": 10.0, "census_seeds": 8, "disk_nr": 128,
                          "disk_ntheta": 48, "section_seeds": 2},
    "weighted-session": {"tmax": 5.0, "census_seeds": 12, "index_n_grid": 256},
    "census-queries": {"tmax": 7.0},
}

# Which end-to-end metric each layer metric should move, on which workload,
# and where the prediction is no change.  Later changes cite these names.
# "moves" names gated metrics of BENCHMARK.json.  "details_moves" names
# normalized stages that only some workloads run, so they are reported in the
# details line (plain.normalized.stages) and are not gated.
INTERACTIONS = [
    {"layer": ["kernels.rhs_*", "kernels.h_parts_*"],
     "moves": ["session_norm_s", "index_norm_s", "topology_norm_s"],
     "details_moves": ["census_s"],
     "on": ["weighted-session"], "no_change_on": ["census-queries (small share)"]},
    {"layer": ["orbits.polish_*", "orbits.polish_useful_ratio",
               "flow.rhs_evals_per_unit_time"],
     "moves": ["session_norm_s"], "details_moves": ["census_s"],
     "on": ["ellipsoid-session", "weighted-session"],
     "no_change_on": ["census-queries"]},
    {"layer": ["contact.xi_frame_*", "sections.frame_field_s",
               "sections.transversality_s"],
     "moves": ["session_norm_s"], "details_moves": ["section_s", "audit_s"],
     "on": ["ellipsoid-session"], "no_change_on": ["weighted-session"]},
    {"layer": ["sections.return_ms_per_seed", "flow.integrate_self_s"],
     "moves": ["session_norm_s"], "details_moves": ["section_s"],
     "on": ["ellipsoid-session"], "no_change_on": ["census-queries"]},
    {"layer": ["cz.index_report_*", "cz.index_reports_per_binding_check"],
     "moves": ["index_norm_s"], "details_moves": [],
     "on": ["census-queries"],
     "no_change_on": ["census_s of ellipsoid-session and weighted-session"]},
    {"layer": ["kernels.gauss_*", "linking.*"],
     "moves": ["topology_norm_s"], "details_moves": [],
     "on": ["census-queries"], "no_change_on": ["census_s"]},
    {"layer": ["orbits.load_verify_s", "cli.*"],
     "moves": ["session_norm_s", "setup_s"], "details_moves": [],
     "on": ["census-queries"], "no_change_on": []},
]

STAGE_OF = {
    "orbits-find": "census",
    "orbit-index": "index", "binding-check": "index",
    "link": "topology", "selflink": "topology", "unknot": "topology",
    "disk-gen": "section", "section-verify": "section",
    "audit": "audit",
}


@dataclass
class Command:
    """One CLI invocation; ``args`` may name files under ``{out}``/``{inputs}``."""

    kind: str
    args: list = field(default_factory=list)
    target: int | None = None  # orbit, candidate or binding id

    @property
    def label(self):
        return self.kind if self.target is None else f"{self.kind}[{self.target}]"

    @property
    def stage(self):
        return STAGE_OF[self.kind]

    def argv(self, config, out, inputs):
        tail = [a.format(out=out, inputs=inputs) for a in self.args]
        return [self.kind, "--config", config, "--out", out] + tail


@dataclass
class Plan:
    """Everything one run of a workload needs: inputs, commands, references."""

    sizes: dict
    params: dict
    inputs: str
    commands: list
    reference: dict
    census_input: str | None = None

    @property
    def config(self):
        return os.path.join(self.inputs, "config.json")


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def ellipsoid_reference(r2_squared, tmax):
    """Closed-form census and invariants of the ellipsoid (1, r2_squared).

    The primes are the coordinate circles with T = pi r^2.  The k-th iterate
    of gamma_1 has index 2k + 2 floor(k r1^2 / r2^2) + 1 and symmetrically for
    gamma_2; lk of full covers is the product of the multiplicities, sl of a
    k-fold cover is -k^2, and every prime is an unknotted binding.
    """
    primes = [(math.pi, 1.0 / r2_squared), (math.pi * r2_squared, r2_squared)]
    entries = sorted(
        (k * t, t, k, pid, ratio)
        for pid, (t, ratio) in enumerate(primes)
        for k in range(1, int(tmax / t + 1e-9) + 1))
    mu = {str(i): 2 * k + 2 * math.floor(k * ratio) + 1
          for i, (_, _, k, _, ratio) in enumerate(entries)}
    lk = {}
    for i, ei in enumerate(entries):
        for j in range(i + 1, len(entries)):
            ej = entries[j]
            lk[f"{i}-{j}"] = None if ei[3] == ej[3] else ei[2] * ej[2]
    return {
        "census": [{"T_min": t, "multiplicity": k, "class": "elliptic"}
                   for _, t, k, _, _ in entries],
        "mu": mu,
        "lk": lk,
        "sl": [-k * k for _, _, k, _, _ in entries],
        "knot": ["certified_unknot" if k == 1 else "not-simply-covered"
                 for _, _, k, _, _ in entries],
        "binding": {str(i): {"verdict": "hypotheses_hold", "mu_cz": mu[str(i)],
                             "sl": -1, "index2_orbits_checked": []}
                    for i, e in enumerate(entries) if e[2] == 1},
    }


def weighted_reference(size_label, exact):
    """Recorded weighted-session outputs; structural unless ``exact``.

    Off the nominal perturbation the periods move, so only counts,
    multiplicities, classes, indices, linking data and verdicts are compared.
    """
    with open(os.path.join(HERE, "reference_weighted.json")) as fh:
        ref = json.load(fh)[size_label]
    if not exact:
        for entry in ref["census"]:
            entry["T_min"] = None
    return ref


# ---------------------------------------------------------------------------
# workload plans
# ---------------------------------------------------------------------------

def ellipsoid_params(seed):
    if seed == 0:
        return {"r2_squared": SQRT2, "t_budget": 44.43}
    # the census search keeps one candidate funnel over [sqrt2, 1.02 sqrt2];
    # just below sqrt2 it drops to half the Newton polishes
    r2 = SQRT2 * (1.0 + random.Random(seed).uniform(0.0, 0.02))
    return {"r2_squared": r2, "t_budget": 10.0 * math.pi * r2}


def weighted_params(seed):
    # the census and verdicts are the same over [0.5e-2, 1.5e-2], but the
    # census work grows by 16% across it; over this range it moves by 2%
    coeff = 1e-2 if seed == 0 else random.Random(seed).uniform(0.9e-2, 1.1e-2)
    return {"perturbation": coeff}


def weighted_form(coeff):
    """The perturbed near-ellipsoid weight of the test suite's fixtures."""
    c = 1.0 - 1.0 / SQRT2
    mons = [((0, 0, 0, 0), 1.0), ((0, 0, 2, 0), c), ((0, 0, 0, 2), c),
            ((0, 0, 4, 0), c * c), ((0, 0, 0, 4), c * c),
            ((0, 0, 2, 2), 2 * c * c), ((3, 0, 1, 0), coeff)]
    return {"type": "weighted", "name": "perturbed-ellipsoid",
            "monomials": [{"exp": list(e), "coeff": v} for e, v in mons]}


def build(workload, seed, inputs, tiny=False):
    """Write the workload's config under ``inputs`` and return its plan."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = dict((TINY_SIZES if tiny else SIZES)[workload])
    tmax = sizes["tmax"]
    census = None
    if workload == "weighted-session":
        params = weighted_params(seed)
        form = weighted_form(params["perturbation"])
        reference = weighted_reference("tiny" if tiny else "full", seed == 0)
        commands = _session_commands(weighted=True, sizes=sizes)
    else:
        params = ellipsoid_params(seed)
        form = {"type": "ellipsoid", "r_squared": [1.0, params["r2_squared"]]}
        reference = ellipsoid_reference(params["r2_squared"], tmax)
        if workload == "ellipsoid-session":
            commands = _session_commands(weighted=False, sizes=sizes,
                                         t_budget=params["t_budget"])
        else:
            census = os.path.join(inputs, "census.json")
            commands = _query_commands(reference)
    os.makedirs(inputs, exist_ok=True)
    config = {"form": form, "tmax": tmax, "rng_seed": 0}
    if "census_seeds" in sizes:
        config["seeds"] = sizes["census_seeds"]
    plan = Plan(sizes, params, inputs, commands, reference, census)
    with open(plan.config, "w") as fh:
        json.dump(config, fh, indent=1)
    return plan


def _session_commands(weighted, sizes, t_budget=None):
    orbits = ["--orbits", "{out}/orbits.json"]
    cmds = [Command("orbits-find"),
            Command("orbit-index", orbits + ["--orbit", "0"], target=0)]
    if weighted:
        cmds[1].args += ["--n-grid", str(sizes["index_n_grid"])]
    cmds += [Command("link", orbits), Command("selflink", orbits),
             Command("unknot", orbits)]
    if not weighted:
        disk = ["--disk", "{out}/disk_orbit0.json"]
        cmds += [
            Command("disk-gen", orbits + [
                "--orbit", "0", "--nr", str(sizes["disk_nr"]),
                "--ntheta", str(sizes["disk_ntheta"])], target=0),
            Command("section-verify", disk + [
                "--seeds", str(sizes["section_seeds"]),
                "--t-budget", repr(t_budget)]),
        ]
    cmds.append(Command("binding-check", orbits + ["--candidate", "0"],
                        target=0))
    if not weighted:
        cmds.append(Command("audit", orbits + disk + ["--binding", "0"],
                            target=0))
    return cmds


def _query_commands(reference):
    orbits = ["--orbits", "{inputs}/census.json"]
    n = len(reference["census"])
    cmds = [Command("orbit-index", orbits + ["--orbit", str(i)], target=i)
            for i in range(n)]
    cmds += [Command("link", orbits), Command("selflink", orbits),
             Command("unknot", orbits)]
    cmds += [Command("binding-check", orbits + ["--candidate", c], target=int(c))
             for c in reference["binding"]]
    return cmds


def write_census(plan):
    """Write the fixed census input of ``census-queries``.

    The two coordinate circles are Newton-refined from their closed forms and
    their iterates up to ``tmax`` are listed in the order ``find_orbits``
    uses; this takes well under a second, so it is not cached.
    """
    import numpy as np
    from reeb_atlas.contact import StarForm
    from reeb_atlas.orbits import OrbitDatabase, refine_orbit, save_orbits

    r2 = plan.params["r2_squared"]
    tmax = plan.sizes["tmax"]
    form = StarForm.ellipsoid(1.0, r2)
    primes = [refine_orbit(form, np.array([1.0, 0.0, 0.0, 0.0]), math.pi),
              refine_orbit(form, np.array([0.0, 0.0, math.sqrt(r2), 0.0]),
                           math.pi * r2)]
    entries = [p.iterate(k) for p in primes
               for k in range(1, int(tmax / p.T_min + 1e-9) + 1)]
    entries.sort(key=lambda o: (o.T, tuple(o.x0)))
    db = OrbitDatabase(form_hash=form.form_hash, orbits=entries,
                       params={"t_max": float(tmax)})
    save_orbits(db, plan.census_input)
