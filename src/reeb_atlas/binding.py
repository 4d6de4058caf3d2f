"""Binding-candidate checker and the necessity audit for verified sections.

``check_binding`` evaluates, against a truncated orbit census, the four
conditions under which a simply covered orbit can bound a disk-like global
section: unknottedness, self-linking -1, index at least 3, and linking with
every index-2 orbit.  ``necessity_audit`` runs the converse bookkeeping on
a disk that already passed section verification: every other orbit must
link the binding, the two independent self-linking routes must agree at -1,
and the index must be at least 3.  Audit failures are numerical
inconsistencies by theory, so they raise alarms instead of verdicts.
"""

from dataclasses import dataclass, field

import numpy as np

from .cz import orbit_index_report
from .errors import DegenerateOrbitError, DomainError, ReebAtlasError
from .linking import linking_number, self_linking, trace_orbit, unknot_check
from .sections import characteristic_field, transversality_check

__all__ = ["BindingReport", "check_binding", "necessity_audit", "AuditReport"]


@dataclass
class BindingReport:
    """Verdict on the four binding conditions for one candidate orbit."""

    orbit_id: int
    t_max: float
    simply_covered: bool
    unknot_status: str | None = None
    crossings_after_reduction: int | None = None
    sl: int | None = None
    mu_cz: int | None = None
    index_methods_agree: bool | None = None
    index2_checked: list = field(default_factory=list)
    index_unknown: list = field(default_factory=list)
    verdict: str = "inconclusive:not-evaluated"

    def to_json_dict(self):
        return {
            "orbit_id": self.orbit_id,
            "t_max": self.t_max,
            "simply_covered": self.simply_covered,
            "unknot_status": self.unknot_status,
            "crossings_after_reduction": self.crossings_after_reduction,
            "sl": self.sl,
            "mu_cz": self.mu_cz,
            "index_methods_agree": self.index_methods_agree,
            "index2_orbits_checked": self.index2_checked,
            "index_unknown_orbits": self.index_unknown,
            "verdict": self.verdict,
        }

    @property
    def exit_code(self):
        if self.verdict == "hypotheses_hold":
            return 0
        if self.verdict.startswith("fails"):
            return 2
        return 3


def check_binding(form, db, candidate_id, traces=None):
    """Evaluate the binding conditions for one orbit of the census.

    ``traces`` optionally maps orbit ids to precomputed full-cover (N, 4)
    loop traces (used by tests to inject fixtures).  The candidate's index
    is computed once, on a 1024-point grid, and an error there aborts; every
    other census orbit is indexed on a 512-point grid.  The verdict carries
    the census truncation cap; conditions quantified over all orbits are
    only checked against the database, and an orbit whose index could not
    be computed makes a verdict that would otherwise hold inconclusive; it
    is listed in ``index_unknown`` as ``{"orbit_id", "reason"}``.  So does
    an index-2 orbit whose linking with the candidate could not be
    computed; its ``index2_checked`` row has ``lk`` and ``linked`` None and
    the reason under ``skipped``.
    """
    if candidate_id < 0 or candidate_id >= len(db):
        raise DomainError(f"candidate {candidate_id} is not in the database")
    cand = db[candidate_id]
    if cand.degenerate:
        raise DegenerateOrbitError(
            "binding analysis assumes a non-degenerate candidate"
        )
    traces = traces or {}
    report = BindingReport(
        orbit_id=candidate_id,
        t_max=float(db.params.get("t_max", np.nan)),
        simply_covered=(cand.multiplicity == 1),
    )
    if not report.simply_covered:
        report.verdict = "fails:simply_covered"
        return report

    cand_trace = traces.get(candidate_id)
    if cand_trace is None:
        cand_trace = trace_orbit(form, cand, n=512)
    verdict_knot = unknot_check(cand_trace)
    report.unknot_status = verdict_knot.status
    report.crossings_after_reduction = verdict_knot.crossing_count_after_reduction

    report.sl = self_linking(form, cand)

    idx_rep = orbit_index_report(form, cand, n_grid=1024)
    if idx_rep["degenerate_flags"]:
        report.verdict = "inconclusive:index-degeneracy-flagged"
        return report
    report.mu_cz = idx_rep["mu_geometric"]
    report.index_methods_agree = (idx_rep["mu_geometric"] == idx_rep["mu_spectral"])

    for oid, orbit in enumerate(db.orbits):
        if oid == candidate_id:
            continue
        reason = "degenerate" if orbit.degenerate else None
        try:
            rep = (None if reason
                   else orbit_index_report(form, orbit, n_grid=512))
        except ReebAtlasError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None and None in (rep["mu_geometric"], rep["mu_spectral"]):
            reason = "; ".join(rep["degenerate_flags"]) or "no index"
        if reason is not None:  # might be an unlinked index 2
            report.index_unknown.append({"orbit_id": oid, "reason": reason})
            continue
        if rep["mu_geometric"] != 2:
            continue
        try:
            other = traces.get(oid)
            if other is None:
                other = trace_orbit(form, orbit, n=512)
            lk, _ = linking_number(cand_trace, other)
        except ReebAtlasError as exc:
            report.index2_checked.append({"orbit_id": oid, "lk": None,
                                          "linked": None, "skipped": str(exc)})
            continue
        report.index2_checked.append(
            {"orbit_id": oid, "lk": int(lk), "linked": bool(lk != 0)}
        )

    if report.unknot_status != "certified_unknot":
        report.verdict = "inconclusive:unknot_status_unknown"
    elif report.sl != -1:
        report.verdict = "fails:self_linking"
    elif not report.index_methods_agree:
        report.verdict = "inconclusive:index-method-disagreement"
    elif report.mu_cz < 3:
        report.verdict = "fails:index_below_3"
    elif any(rec["linked"] is False for rec in report.index2_checked):
        report.verdict = "fails:index2_orbit_unlinked"
    elif any(rec["linked"] is None for rec in report.index2_checked):
        report.verdict = "inconclusive:index2-linking-unknown"
    elif report.index_unknown:
        report.verdict = "inconclusive:index-unknown"
    else:
        report.verdict = "hypotheses_hold"
    return report


@dataclass
class AuditReport:
    """Outcome of the necessity bookkeeping on a verified section."""

    binding_id: int
    linking: list
    sl_pushoff: int | None
    sl_from_winding: int | None
    mu_cz: int | None
    boundary_winding: int | None
    alarms: list

    @property
    def passed(self):
        return not self.alarms

    def to_json_dict(self):
        return {
            "binding_id": self.binding_id,
            "linking": self.linking,
            "sl_pushoff": self.sl_pushoff,
            "sl_from_winding": self.sl_from_winding,
            "mu_cz": self.mu_cz,
            "boundary_winding": self.boundary_winding,
            "alarms": self.alarms,
            "passed": self.passed,
        }


def necessity_audit(form, disk, db, binding_id, traces=None):
    """Audit the consequences a verified global section must exhibit.

    Pre: the disk passed ``verify_global_section`` for the binding orbit.
    Checks, against the truncated census: the interior stays transversal
    with a constant sign; every geometrically distinct orbit links the
    binding; the pushoff self-linking equals -1 and equals minus the
    boundary winding of the characteristic field; the index is at least 3.
    Any failure is reported as an alarm: these are theorems, so an alarm
    means a resolution problem or a bug, never new mathematics.  An orbit
    whose linking number cannot be computed gets a row with ``lk`` None and
    the reason under ``skipped``, and an alarm, so the audit cannot pass.
    """
    binding = db[binding_id]
    alarms = []
    traces = traces or {}
    binding_trace = trace_orbit(form, binding, n=512)

    _, sign_constant = transversality_check(form, disk)
    if not sign_constant:
        alarms.append("interior transversality lost its sign constancy")

    _, singularities, boundary_winding = characteristic_field(form, disk)
    if boundary_winding != 1:
        alarms.append(
            f"boundary winding of the characteristic field is "
            f"{boundary_winding}, expected 1"
        )
    index_sum = sum(s.index for s in singularities)
    if index_sum != boundary_winding:
        alarms.append(
            f"singularity index sum {index_sum} differs from the boundary "
            f"winding {boundary_winding}"
        )

    sl_push = self_linking(form, binding)
    sl_wind = -boundary_winding
    if sl_push != sl_wind:
        alarms.append(
            f"self-linking routes disagree: pushoff {sl_push} vs "
            f"-winding {sl_wind}"
        )
    if sl_push != -1:
        alarms.append(f"pushoff self-linking is {sl_push}, expected -1")

    idx_rep = orbit_index_report(form, binding)
    mu = idx_rep["mu_geometric"]
    if mu is None:
        alarms.append("binding index is degeneracy-flagged")
    elif mu < 3:
        alarms.append(f"binding index {mu} is below 3")

    linking_rows = []
    seen_primes = set()
    for oid, orbit in enumerate(db.orbits):
        if oid == binding_id:
            continue
        key = (round(orbit.T_min, 9), tuple(np.round(orbit.x0, 9)))
        bind_key = (round(binding.T_min, 9), tuple(np.round(binding.x0, 9)))
        if key == bind_key:
            continue  # iterate of the binding itself
        if key in seen_primes:
            continue
        seen_primes.add(key)
        try:
            tr = traces.get(oid)
            if tr is None:
                tr = trace_orbit(form, orbit, n=512)
            lk, _ = linking_number(binding_trace, tr)
        except ReebAtlasError as exc:
            linking_rows.append({"orbit_id": oid, "lk": None,
                                 "skipped": str(exc)})
            alarms.append(f"linking with orbit {oid} was not computed: {exc}")
            continue
        linking_rows.append({"orbit_id": oid, "lk": int(lk)})
        if lk == 0:
            alarms.append(
                f"orbit {oid} has zero linking with the verified binding"
            )

    return AuditReport(
        binding_id=binding_id,
        linking=linking_rows,
        sl_pushoff=int(sl_push),
        sl_from_winding=int(sl_wind),
        mu_cz=mu,
        boundary_winding=int(boundary_winding),
        alarms=alarms,
    )
