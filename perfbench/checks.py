"""Output checks: each command's reports against the workload's references.

A check yields rows ``(name, ok, detail)``; every row is one operation of the
run, and every row that is not ok is one failed operation.
"""

import json
import os

MAX_FAILURES_KEPT = 20


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _eq(name, got, want):
    return (name, got == want, f"expected {want!r}, got {got!r}")


def check_census(out, ref, target):
    got = _load(out, "orbits.json")["orbits"]
    want = ref["census"]
    rows = [_eq("orbits-find.entries", len(got), len(want))]
    for i, (g, w) in enumerate(zip(got, want)):
        rows.append(_eq(f"orbits-find[{i}].multiplicity", g["multiplicity"],
                        w["multiplicity"]))
        rows.append(_eq(f"orbits-find[{i}].class", g["class"], w["class"]))
        if w["T_min"] is not None:
            rel = abs(g["T_min"] - w["T_min"]) / w["T_min"]
            rows.append((f"orbits-find[{i}].T_min", rel <= 1e-8,
                         f"expected {w['T_min']!r}, got {g['T_min']!r}"))
    return rows


def check_index(out, ref, target):
    got = _load(out, f"index_orbit{target}.json")
    want = ref["mu"][str(target)]
    name = f"orbit-index[{target}]"
    return [_eq(f"{name}.mu_geometric", got["mu_geometric"], want),
            _eq(f"{name}.mu_spectral", got["mu_spectral"], want)]


def check_link(out, ref, target):
    pairs = _load(out, "links.json")["pairs"]
    rows = [_eq("link.pairs", len(pairs), len(ref["lk"]))]
    for p in pairs:
        key = f"{p['a']}-{p['b']}"
        want = ref["lk"].get(key, "missing")
        if want is None:
            # one geometric curve twice: the linking number is undefined
            rows.append((f"link[{key}].skipped", "skipped" in p,
                         f"expected a skip, got lk {p.get('lk')!r}"))
        else:
            rows.append(_eq(f"link[{key}].lk", p.get("lk"), want))
    return rows


def check_selflink(out, ref, target):
    rows = _load(out, "selflink.json")["self_linking"]
    return [_eq("selflink.rows", len(rows), len(ref["sl"]))] + [
        _eq(f"selflink[{r['orbit']}].sl", r.get("sl"), ref["sl"][r["orbit"]])
        for r in rows if r["orbit"] < len(ref["sl"])]


def check_unknot(out, ref, target):
    rows = _load(out, "unknot.json")["knots"]
    return [_eq("unknot.rows", len(rows), len(ref["knot"]))] + [
        _eq(f"unknot[{r['orbit']}].status", r["status"], ref["knot"][r["orbit"]])
        for r in rows if r["orbit"] < len(ref["knot"])]


def check_disk(out, ref, target):
    return [("disk-gen.file", os.path.exists(
        os.path.join(out, f"disk_orbit{target}.json")), "disk file missing")]


def check_section(out, ref, target):
    got = _load(out, "section_report.json")
    return [_eq("section-verify.timeouts",
                got["timeouts_forward"] + got["timeouts_backward"], 0),
            _eq("section-verify.passes", got["passes"], True)]


def check_binding(out, ref, target):
    got = _load(out, f"binding_orbit{target}.json")
    want = ref["binding"][str(target)]
    return [_eq(f"binding-check[{target}].{k}", got[k], v)
            for k, v in want.items()]


def check_audit(out, ref, target):
    got = _load(out, f"audit_binding{target}.json")
    name = f"audit[{target}]"
    return [_eq(f"{name}.alarms", got["alarms"], []),
            _eq(f"{name}.passed", got["passed"], True),
            _eq(f"{name}.mu_cz", got["mu_cz"], ref["mu"][str(target)]),
            _eq(f"{name}.sl_pushoff", got["sl_pushoff"], -1),
            _eq(f"{name}.boundary_winding", got["boundary_winding"], 1)]


CHECKS = {
    "orbits-find": check_census,
    "orbit-index": check_index,
    "link": check_link,
    "selflink": check_selflink,
    "unknot": check_unknot,
    "disk-gen": check_disk,
    "section-verify": check_section,
    "binding-check": check_binding,
    "audit": check_audit,
}


class Tally:
    """Operations attempted and failed, with the names of failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def add(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(f"{name}: {detail}")

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0
