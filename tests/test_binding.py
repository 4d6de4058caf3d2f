import numpy as np
import pytest

from reeb_atlas import binding
from reeb_atlas.binding import check_binding, necessity_audit
from reeb_atlas.errors import (DegenerateOrbitError, ProximityError,
                               ResolutionError)
from reeb_atlas.orbits import find_orbits, trace_orbit
from reeb_atlas.sections import builtin_disk


def _entry_id(db, t_min, mult):
    for i, o in enumerate(db.orbits):
        if abs(o.T_min - t_min) < 1e-6 and o.multiplicity == mult:
            return i
    raise AssertionError("entry not found")


def trefoil_loop():
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    return np.stack([
        (2 + np.cos(3 * th)) * np.cos(2 * th),
        (2 + np.cos(3 * th)) * np.sin(2 * th),
        np.sin(3 * th),
        3 * np.ones_like(th),
    ], axis=1)


def test_binding_holds_for_gamma1(ell, db20, monkeypatch):
    real = binding.orbit_index_report
    seen = []

    def spy(form, orbit, n_grid):
        seen.append(orbit)
        return real(form, orbit, n_grid=n_grid)

    monkeypatch.setattr(binding, "orbit_index_report", spy)
    gid = _entry_id(db20, np.pi, 1)
    rep = check_binding(ell, db20, gid)
    # one index report per census orbit, the candidate's included
    assert sum(orbit is db20[gid] for orbit in seen) == 1
    assert len(seen) == len(db20)
    assert rep.verdict == "hypotheses_hold"
    assert rep.simply_covered
    assert rep.unknot_status == "certified_unknot"
    assert rep.sl == -1
    assert rep.mu_cz == 3
    assert rep.index_methods_agree
    # every index on the irrational ellipsoid is odd, so no index-2 orbits
    assert rep.index2_checked == []
    assert rep.exit_code == 0


def test_binding_fails_for_double_cover(ell, db20):
    gid = _entry_id(db20, np.pi, 2)
    rep = check_binding(ell, db20, gid)
    assert rep.verdict == "fails:simply_covered"
    assert rep.exit_code == 2


def test_binding_inconclusive_for_knotted_trace(ell, db20):
    gid = _entry_id(db20, np.pi, 1)
    rep = check_binding(ell, db20, gid, traces={gid: trefoil_loop()})
    assert rep.verdict == "inconclusive:unknot_status_unknown"
    assert rep.exit_code == 3


def test_binding_inconclusive_when_an_index_is_unknown(ell, db20,
                                                       monkeypatch):
    # an orbit without an agreed index might be an unlinked index-2 orbit,
    # whether its report flags the index or fails to compute it
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    for failure in ("flagged", "raises"):
        def report(form, orbit, n_grid, failure=failure):
            if orbit is not db20[other]:
                return {"mu_geometric": 3, "mu_spectral": 3,
                        "degenerate_flags": []}
            if failure == "raises":
                raise ResolutionError("path did not stabilize")
            return {"mu_geometric": None, "mu_spectral": None,
                    "degenerate_flags": ["rotation interval endpoint near integer"]}

        monkeypatch.setattr(binding, "orbit_index_report", report)
        rep = check_binding(ell, db20, gid)
        assert rep.verdict.startswith("inconclusive:")
        reason = {"flagged": "rotation interval endpoint near integer",
                  "raises": "ResolutionError: path did not stabilize"}[failure]
        assert rep.index_unknown == [{"orbit_id": other, "reason": reason}]
        assert rep.to_json_dict()["index_unknown_orbits"] == rep.index_unknown
        assert rep.exit_code == 3


def _check_with_index2(ell, db, gid, index2, linking, monkeypatch):
    # the orbits ``index2`` get index 2 and every other orbit index 3; each
    # index-2 orbit gets its own trace, so that the stand-in for
    # linking_number can tell them apart and call ``linking(orbit_id)``
    def report(form, orbit, n_grid):
        mu = 2 if any(orbit is db[oid] for oid in index2) else 3
        return {"mu_geometric": mu, "mu_spectral": mu, "degenerate_flags": []}

    traces = {oid: trace_orbit(ell, db[oid], n=512) for oid in index2}

    def linking_number(a, b):
        return linking(next(oid for oid, t in traces.items() if t is b))

    monkeypatch.setattr(binding, "orbit_index_report", report)
    monkeypatch.setattr(binding, "linking_number", linking_number)
    return check_binding(ell, db, gid, traces=traces)


def test_binding_inconclusive_when_an_index2_linking_fails(ell, db20,
                                                           monkeypatch):
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)

    def linking(oid):
        raise ProximityError("curves are 1.00e-04 apart (< 1e-03)")

    rep = _check_with_index2(ell, db20, gid, [other], linking, monkeypatch)
    assert rep.index2_checked == [
        {"orbit_id": other, "lk": None, "linked": None,
         "skipped": "curves are 1.00e-04 apart (< 1e-03)"}]
    assert rep.verdict == "inconclusive:index2-linking-unknown"
    assert rep.exit_code == 3


def test_binding_fails_on_an_unlinked_index2_orbit_beside_a_skip(
        ell, db20, monkeypatch):
    # one index-2 orbit is unlinked and another one's linking fails: the
    # unlinked orbit decides the verdict
    gid = _entry_id(db20, np.pi, 1)
    unlinked = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    failing = _entry_id(db20, np.sqrt(2) * np.pi, 2)

    def linking(oid):
        if oid == failing:
            raise ResolutionError("Gauss sum residual 0.300 >= 0.1; densify")
        return 0, 0.0

    rep = _check_with_index2(ell, db20, gid, [unlinked, failing], linking,
                             monkeypatch)
    assert rep.index2_checked == [
        {"orbit_id": unlinked, "lk": 0, "linked": False},
        {"orbit_id": failing, "lk": None, "linked": None,
         "skipped": "Gauss sum residual 0.300 >= 0.1; densify"}]
    assert rep.verdict == "fails:index2_orbit_unlinked"
    assert rep.exit_code == 2


def test_binding_rejects_degenerate_candidate(round_form):
    db = find_orbits(round_form, 4.0, n_seeds=8)
    assert len(db) > 0
    with pytest.raises(DegenerateOrbitError):
        check_binding(round_form, db, 0)


def test_binding_monotone_in_cap(ell, db10, db20):
    # enlarging the census can move a verdict hold -> fail, never back
    db15 = find_orbits(ell, 15.0, n_seeds=128)
    order = {"hypotheses_hold": 0, "fails": 1}

    def rank(db, t_min, mult):
        rep = check_binding(ell, db, _entry_id(db, t_min, mult))
        key = "fails" if rep.verdict.startswith("fails") else rep.verdict
        return order[key]

    holds = [rank(db, np.pi, 1) for db in (db10, db15, db20)]
    assert holds == sorted(holds)
    fails = [rank(db, np.pi, 2) for db in (db10, db15, db20)]
    assert fails == sorted(fails)
    assert fails[0] == 1  # failing verdicts stay failing


def test_necessity_audit_passes(ell, db20, page):
    gid = _entry_id(db20, np.pi, 1)
    report = necessity_audit(ell, page, db20, gid)
    assert report.passed, report.alarms
    assert report.sl_pushoff == -1
    assert report.sl_from_winding == -1
    assert report.mu_cz == 3
    assert report.boundary_winding == 1
    assert all(row["lk"] != 0 for row in report.linking)


def test_audit_alarm_on_unlinked_trace(ell, db20, page):
    # corrupted fixture: a distant tiny loop cannot link the binding
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    fake = np.stack([0.05 * np.cos(th) + 0.2, 0.05 * np.sin(th),
                     np.ones_like(th), 0.3 * np.ones_like(th)], axis=1)
    report = necessity_audit(ell, page, db20, gid,
                             traces={other: fake})
    assert not report.passed
    assert any("zero linking" in a for a in report.alarms)


def test_audit_skips_an_orbit_whose_linking_fails(ell, db20, page):
    # corrupted fixture: the binding's own trace in place of another orbit's
    # coincides with the binding, so their linking number is undefined
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    report = necessity_audit(ell, page, db20, gid,
                             traces={other: trace_orbit(ell, db20[gid], 512)})
    row = next(r for r in report.linking if r["orbit_id"] == other)
    assert row["lk"] is None and "apart" in row["skipped"]
    assert not report.passed
    assert any(f"orbit {other} was not computed" in a for a in report.alarms)


def test_audit_alarm_on_sl_route_mismatch(ell, db20, page):
    # corrupted fixture: auditing the double cover against the pure page
    # makes the pushoff route report 4 sl(binding) while the winding route
    # still reports -1
    gid2 = _entry_id(db20, np.pi, 2)
    report = necessity_audit(ell, page, db20, gid2)
    assert not report.passed
    assert any("routes disagree" in a for a in report.alarms)
    assert report.sl_pushoff == -4
