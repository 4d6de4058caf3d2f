import numpy as np
import pytest

from reeb_atlas import binding
from reeb_atlas.binding import check_binding, necessity_audit
from reeb_atlas.errors import DegenerateOrbitError
from reeb_atlas.linking import LoopTrace
from reeb_atlas.orbits import find_orbits
from reeb_atlas.sections import builtin_disk


def _entry_id(db, t_min, mult):
    for i, o in enumerate(db.orbits):
        if abs(o.T_min - t_min) < 1e-6 and o.multiplicity == mult:
            return i
    raise AssertionError("entry not found")


def trefoil_loop():
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    pts = np.stack([
        (2 + np.cos(3 * th)) * np.cos(2 * th),
        (2 + np.cos(3 * th)) * np.sin(2 * th),
        np.sin(3 * th),
        3 * np.ones_like(th),
    ], axis=1)
    return LoopTrace(points=pts, closure_gap=0.0)


def test_binding_holds_for_gamma1(ell, db20):
    gid = _entry_id(db20, np.pi, 1)
    rep = check_binding(ell, db20, gid)
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
    # an orbit without an agreed index might be an unlinked index-2 orbit
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    monkeypatch.setattr(binding, "_orbit_indices", lambda form, db: [
        None if i == other else 3 for i in range(len(db))])
    rep = check_binding(ell, db20, gid)
    assert rep.verdict.startswith("inconclusive:")
    assert rep.index_unknown == [other]
    assert rep.to_json_dict()["index_unknown_orbits"] == [other]
    assert rep.exit_code == 3


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
                             traces={other: LoopTrace(points=fake,
                                                      closure_gap=0.0)})
    assert not report.passed
    assert any("zero linking" in a for a in report.alarms)


def test_audit_alarm_on_sl_route_mismatch(ell, db20, page):
    # corrupted fixture: auditing the double cover against the pure page
    # makes the pushoff route report 4 sl(binding) while the winding route
    # still reports -1
    gid2 = _entry_id(db20, np.pi, 2)
    report = necessity_audit(ell, page, db20, gid2)
    assert not report.passed
    assert any("routes disagree" in a for a in report.alarms)
    assert report.sl_pushoff == -4
