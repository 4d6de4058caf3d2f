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

from dataclasses import dataclass, field, fields

from .cz import (bott_index, orbit_index_report, prime_data, prime_flows,
                 prime_key, prime_table)
from .errors import DegenerateOrbitError, InconsistencyError, ReebAtlasError
from .linking import (cover_linking, cover_self_linking, linking_checks,
                      prime_trace, prime_traces, self_linking_checks,
                      unknot_check)
from .sections import characteristic_field, transversality_check

__all__ = ["BindingReport", "check_binding", "necessity_audit", "AuditReport",
           "report_fields"]

# field metadata of a report field that goes to the sidecar, not the report
_SIDECAR = {"sidecar": True}


def report_fields(report, sidecar):
    """A report's fields by name: those marked ``_SIDECAR`` if ``sidecar``,
    else the others."""
    return {f.name: getattr(report, f.name) for f in fields(report)
            if f.metadata.get("sidecar", False) == sidecar}


@dataclass
class BindingReport:
    """Verdict on the four binding conditions for one candidate orbit."""

    orbit_id: int
    t_max: float
    simply_covered: bool
    unknot_status: str | None = None
    crossings_after_reduction: int | None = None
    sl: int | None = None
    sl_skipped: str | None = None  # the error that left sl unknown
    mu_cz: int | None = None
    index_methods_agree: bool | None = None
    index2_orbits_checked: list = field(default_factory=list)
    index_unknown_orbits: list = field(default_factory=list)
    verdict: str = "inconclusive:not-evaluated"
    index_table: list = field(default_factory=list, metadata=_SIDECAR)
    primes_integrated: int = field(default=0, metadata=_SIDECAR)
    linking_checks: dict = field(default_factory=dict, metadata=_SIDECAR)
    self_linking_checks: list = field(default_factory=list, metadata=_SIDECAR)

    def to_json_dict(self):
        """The report's fields, ``sl_skipped`` only when it is set."""
        out = report_fields(self, False)
        if self.sl_skipped is None:
            del out["sl_skipped"]
        return out

    @property
    def exit_code(self):
        if self.verdict == "hypotheses_hold":
            return 0
        if self.verdict.startswith("fails"):
            return 2
        return 3


def check_binding(form, db, candidate_id):
    """Evaluate the binding conditions for one orbit of the census.

    Everything runs in one ``prime_table`` block: each prime is traced at
    most once, and the variational flows of all primes of non-degenerate
    orbits are integrated in one batch (``primes_integrated`` counts them);
    tests may fill the block's table in advance.  The candidate's index is
    computed once, on a 1024-point grid, and an error there aborts; every
    other census orbit is indexed on a 512-point grid; ``index_table``
    records each report's resolution.  The verdict carries the census
    truncation cap; conditions quantified over all orbits are only checked
    against the database.  An orbit whose index could not be computed is
    listed in ``index_unknown_orbits`` as ``{"orbit_id", "reason"}``; so are
    the orbits of a prime, the candidate's included, with an agreed index
    other than Bott's mu(P^k) = floor(k rho) + ceil(k rho) read off its
    agreed cover of lowest multiplicity (``cz.bott_index``), with that error
    as the reason.  An orbit in ``index_unknown_orbits`` decides no verdict
    but ``inconclusive:index-unknown``: it gets no linking check, and a
    candidate among them is inconclusive before any ``fails:*`` rule on its
    index.  Each index-2 orbit Q^k gets lk = k lk(P, Q) from the prime pair,
    cross-checked by the crossing count; if that could not be computed or
    the two routes disagree, its ``index2_orbits_checked`` row has ``lk``
    and ``linked`` None and the reason under ``skipped``.  ``linking_checks``
    records both routes' numbers per prime pair (``linking.linking_checks``).
    A candidate whose self-linking could not be computed, or whose two
    self-linking routes disagree, keeps ``sl`` None and the error's text
    under ``sl_skipped``; ``self_linking_checks`` records both routes'
    numbers (``linking.self_linking_checks``).
    """
    cand = db[candidate_id]
    if cand.degenerate:
        raise DegenerateOrbitError(
            "binding analysis assumes a non-degenerate candidate"
        )
    report = BindingReport(
        orbit_id=candidate_id,
        t_max=float(db.params["t_max"]),
        simply_covered=(cand.multiplicity == 1),
    )
    if not report.simply_covered:
        report.verdict = "fails:simply_covered"
        return report

    with prime_table():
        _check_in_table(form, db, candidate_id, report)
    return report


def _check_in_table(form, db, candidate_id, report):
    """Fill in ``report`` for a simply covered candidate."""
    cand = db[candidate_id]
    indexed = [o for o in db.orbits if not o.degenerate]
    report.primes_integrated = len(
        {prime_key(o) for o in indexed if prime_data(o).flow is None})
    prime_flows(form, indexed)
    verdict_knot = unknot_check(prime_trace(form, cand))
    report.unknot_status = verdict_knot.status
    report.crossings_after_reduction = verdict_knot.crossing_count_after_reduction
    try:
        report.sl = cover_self_linking(form, cand)
    except ReebAtlasError as exc:  # an unknown sl stays None
        report.sl_skipped = str(exc)
    report.self_linking_checks = self_linking_checks(db.orbits)

    idx_rep = orbit_index_report(form, cand, n_grid=1024)
    reports = {candidate_id: idx_rep}
    if idx_rep["degenerate_flags"]:
        report.verdict = "inconclusive:index-degeneracy-flagged"
        report.index_table = _index_table(db, reports)
        return
    report.mu_cz = idx_rep["mu_geometric"]
    # always True here: orbit_index_report makes both equal Bott's index
    report.index_methods_agree = (
        idx_rep["mu_geometric"] == idx_rep["mu_spectral"])

    for oid, orbit in enumerate(db.orbits):
        if oid == candidate_id:
            continue
        reason = "degenerate" if orbit.degenerate else None
        try:
            rep = (None if reason
                   else orbit_index_report(form, orbit, n_grid=512))
        except ReebAtlasError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            reports[oid] = rep
            if None in (rep["mu_geometric"], rep["mu_spectral"]):
                reason = "; ".join(rep["degenerate_flags"]) or "no index"
        if reason is not None:  # might be an unlinked index 2
            report.index_unknown_orbits.append({"orbit_id": oid, "reason": reason})
    report.index_table = _index_table(db, reports)

    # per prime: (multiplicity, index, orbit id) of each orbit both routes
    # index; orbit_index_report makes the two equal
    agreed = {}
    for oid, rep in reports.items():
        if None not in (rep["mu_geometric"], rep["mu_spectral"]):
            agreed.setdefault(prime_key(db[oid]), []).append(
                (db[oid].multiplicity, rep["mu_geometric"], oid))
    for rows in agreed.values():
        (k0, _, ref), *covers = sorted(rows)
        try:
            for k, mu, _ in covers:
                bott = bott_index(reports[ref]["interval"], db[ref].monodromy,
                                  db[ref].nondeg_class, k0, k)
                if mu != bott:
                    raise InconsistencyError(
                        f"index {mu} of cover {k} differs from Bott's "
                        f"iteration formula, {bott}, read off cover {k0}")
        except InconsistencyError as exc:
            report.index_unknown_orbits.extend(
                {"orbit_id": oid, "reason": f"{type(exc).__name__}: {exc}"}
                for oid in sorted(oid for _, _, oid in rows))

    unknown = {row["orbit_id"] for row in report.index_unknown_orbits}
    index2 = [oid for oid, rep in sorted(reports.items())
              if oid != candidate_id and oid not in unknown
              and rep["mu_geometric"] == 2]
    prime_traces(form, [db[oid] for oid in index2])
    for oid in index2:
        try:
            lk, _ = cover_linking(form, cand, db[oid])
        except ReebAtlasError as exc:
            report.index2_orbits_checked.append({"orbit_id": oid, "lk": None,
                                                 "linked": None, "skipped": str(exc)})
            continue
        report.index2_orbits_checked.append(
            {"orbit_id": oid, "lk": int(lk), "linked": bool(lk != 0)})
    report.linking_checks = linking_checks(db.orbits)
    report.verdict = _verdict(report, candidate_id in unknown)


# (condition, verdict) in order of precedence over the computed facts: the
# report's fields and whether the candidate's own index is in doubt.  A
# ``fails:*`` condition never reads an orbit in ``index_unknown_orbits``.
_RULES = (
    (lambda r, own: r.unknot_status != "certified_unknot",
     "inconclusive:unknot_status_unknown"),
    (lambda r, own: r.sl is None, "inconclusive:self-linking-unknown"),
    (lambda r, own: r.sl != -1, "fails:self_linking"),
    (lambda r, own: own, "inconclusive:index-unknown"),
    (lambda r, own: r.mu_cz < 3, "fails:index_below_3"),
    (lambda r, own: any(rec["linked"] is False for rec in r.index2_orbits_checked),
     "fails:index2_orbit_unlinked"),
    (lambda r, own: any(rec["linked"] is None for rec in r.index2_orbits_checked),
     "inconclusive:index2-linking-unknown"),
    (lambda r, own: bool(r.index_unknown_orbits), "inconclusive:index-unknown"),
    (lambda r, own: True, "hypotheses_hold"),
)


def _verdict(report, candidate_unknown):
    """The verdict of the first rule in ``_RULES`` that holds."""
    return next(verdict for holds, verdict in _RULES
                if holds(report, candidate_unknown))


def _index_table(db, reports):
    """Per index report, in census order: the orbit's multiplicity and its
    resolution."""
    rows = []
    for oid in sorted(reports):
        res = reports[oid].get("resolution", {})
        rows.append({"orbit_id": oid, "multiplicity": db[oid].multiplicity,
                     **{k: res.get(k) for k in ("path_samples", "K")}})
    return rows


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
    linking_checks: dict = field(default_factory=dict, metadata=_SIDECAR)
    self_linking_checks: list = field(default_factory=list, metadata=_SIDECAR)

    @property
    def passed(self):
        return not self.alarms

    def to_json_dict(self):
        """The report's fields and whether it passed."""
        return dict(report_fields(self, False), passed=self.passed)


def _alarm(quantity, exc):
    """The audit's alarm for a ``quantity`` that raised ``exc``: a failed
    cross-check of its two routes, or else a quantity not computed."""
    if isinstance(exc, InconsistencyError):
        return f"{quantity} cross-check failed: {exc}"
    return f"{quantity} was not computed: {exc}"


def necessity_audit(form, disk, db, binding_id):
    """Audit the consequences a verified global section must exhibit.

    Pre: the disk passed ``verify_global_section`` for the binding orbit.
    Checks, against the truncated census: the interior stays transversal
    with a constant sign; every geometrically distinct orbit links the
    binding; the pushoff self-linking, whose Gauss sum is checked by writhe
    plus twist (``self_linking_checks``), equals -1 and equals minus the
    boundary winding of the characteristic field; the index is at least 3.
    Any failure is reported as an alarm: these are theorems, so an alarm
    means a resolution problem or a bug, never new mathematics.  Everything
    runs in one ``prime_table`` block, which tests may fill in advance: the
    census primes are traced in one batch, and each linking number comes
    from its prime pair, cross-checked by the crossing count and recorded in
    ``linking_checks``.  An orbit whose linking number cannot be computed,
    or whose two routes disagree, gets a row with ``lk`` None and the reason
    under ``skipped``, and an alarm, so the audit cannot pass.
    """
    binding = db[binding_id]
    alarms = []
    with prime_table():
        prime_traces(form, db.orbits)  # every prime in one batch

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

        sl_wind = -boundary_winding
        try:
            sl_push = int(cover_self_linking(form, binding))
        except ReebAtlasError as exc:
            sl_push = None
            alarms.append(_alarm("pushoff self-linking", exc))
        if sl_push not in (None, sl_wind):
            alarms.append(
                f"self-linking routes disagree: pushoff {sl_push} vs "
                f"-winding {sl_wind}"
            )
        if sl_push not in (None, -1):
            alarms.append(f"pushoff self-linking is {sl_push}, expected -1")

        idx_rep = orbit_index_report(form, binding)
        mu = idx_rep["mu_geometric"]
        if mu is None:
            alarms.append("binding index is degeneracy-flagged")
        elif mu < 3:
            alarms.append(f"binding index {mu} is below 3")

        linking_rows = []
        seen_primes = {prime_key(binding)}  # skips the binding's iterates
        for oid, orbit in enumerate(db.orbits):
            if prime_key(orbit) in seen_primes:
                continue
            seen_primes.add(prime_key(orbit))
            try:
                lk, _ = cover_linking(form, binding, orbit)
            except ReebAtlasError as exc:
                linking_rows.append({"orbit_id": oid, "lk": None,
                                     "skipped": str(exc)})
                alarms.append(_alarm(f"linking with orbit {oid}", exc))
                continue
            linking_rows.append({"orbit_id": oid, "lk": int(lk)})
            if lk == 0:
                alarms.append(
                    f"orbit {oid} has zero linking with the verified binding"
                )
        checks = linking_checks(db.orbits)
        sl_checks = self_linking_checks(db.orbits)

    return AuditReport(
        binding_id=binding_id,
        linking=linking_rows,
        sl_pushoff=sl_push,
        sl_from_winding=int(sl_wind),
        mu_cz=mu,
        boundary_winding=int(boundary_winding),
        alarms=alarms,
        linking_checks=checks,
        self_linking_checks=sl_checks,
    )
