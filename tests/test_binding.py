import dataclasses

import numpy as np
import pytest

from reeb_atlas import binding, cz, linking
from reeb_atlas.binding import check_binding, necessity_audit
from reeb_atlas.errors import (DegenerateOrbitError, InconsistencyError,
                               ProximityError, ResolutionError)
from reeb_atlas.flow import integrate_batch, integrate_flow
from reeb_atlas.orbits import (OrbitDatabase, classify_monodromy, find_orbits,
                               trace_orbit)

from oracles import NECK, dumbbell_census


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


def test_verdict_rules_walk_in_order():
    # the rules in the README's order; breaking the facts of each rule, from
    # the last up, hands the verdict to that rule while every later rule
    # still holds too
    assert [verdict for _, verdict in binding._RULES] == [
        "inconclusive:unknot_status_unknown",
        "inconclusive:self-linking-unknown", "fails:self_linking",
        "inconclusive:index-unknown",
        "fails:index_below_3", "fails:index2_orbit_unlinked",
        "inconclusive:index2-linking-unknown", "inconclusive:index-unknown",
        "hypotheses_hold"]
    unlinked = {"orbit_id": 4, "lk": 0, "linked": False}
    unknown_lk = {"orbit_id": 5, "lk": None, "linked": None, "skipped": "x"}
    breaks = [("unknot_status", "unknown"), ("sl", None), ("sl", 1),
              ("own", True), ("mu_cz", 2),
              ("index2_orbits_checked", [unlinked, unknown_lk]),
              ("index2_orbits_checked", [unknown_lk]),
              ("index_unknown_orbits", [{"orbit_id": 6, "reason": "degenerate"}])]
    assert len(breaks) == len(binding._RULES) - 1
    facts = {"unknot_status": "certified_unknot", "sl": -1, "mu_cz": 3,
             "index_methods_agree": True, "own": False}
    for i in range(len(breaks), -1, -1):
        if i < len(breaks):
            facts[breaks[i][0]] = breaks[i][1]
        rep = binding.BindingReport(
            orbit_id=0, t_max=10.0, simply_covered=True,
            **{k: v for k, v in facts.items() if k != "own"})
        assert binding._verdict(rep, facts["own"]) == binding._RULES[i][1]


def test_reports_serialize_their_own_fields():
    # a report is its fields, less those marked for the sidecar; the binding
    # report names sl_skipped only when it is set, and the audit adds passed
    def fields(report, sidecar):
        return {f.name for f in dataclasses.fields(report)
                if bool(f.metadata.get("sidecar")) == sidecar}

    rep = binding.BindingReport(orbit_id=0, t_max=10.0, simply_covered=True)
    assert fields(rep, True) == {"index_table", "primes_integrated",
                                 "linking_checks", "self_linking_checks"}
    assert set(rep.to_json_dict()) == fields(rep, False) - {"sl_skipped"}
    assert {"index2_orbits_checked", "index_unknown_orbits"} <= fields(rep, False)
    rep.sl_skipped = "Gauss sum residual 0.120 >= 0.1; densify"
    assert set(rep.to_json_dict()) == fields(rep, False)
    audit = binding.AuditReport(binding_id=0, linking=[], sl_pushoff=-1,
                                sl_from_winding=-1, mu_cz=3,
                                boundary_winding=1, alarms=[])
    assert fields(audit, True) == {"linking_checks", "self_linking_checks"}
    assert set(audit.to_json_dict()) == fields(audit, False) | {"passed"}
    assert audit.to_json_dict()["passed"] is True


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
    assert rep.index2_orbits_checked == []
    assert rep.exit_code == 0


def test_binding_integrates_each_prime_once(ell, db20, monkeypatch):
    # every index report of the census shares its prime's one variational
    # integration over T_min, the candidate's included; all primes run in
    # one batch, and each row equals the prime's one-row run bit for bit
    runs, real = [], cz.integrate_batch

    def spy(form, x0, T, **kwargs):
        out = real(form, x0, T, **kwargs)
        runs.append((x0, T, kwargs, out))
        return out

    monkeypatch.setattr(cz, "integrate_batch", spy)
    rep = check_binding(ell, db20, _entry_id(db20, np.pi, 1))
    assert rep.verdict == "hypotheses_hold"
    primes = {(o.T_min, tuple(o.x0)) for o in db20.orbits}
    assert len(primes) == 2 and len(runs) == 1
    x0, T, kwargs, out = runs[0]
    assert sorted(zip(T, map(tuple, x0))) == sorted(primes)
    assert kwargs == {"tol": 1e-12, "variational": True, "dense": True}
    for x, t, res in zip(x0, T, out):
        one, = integrate_batch(ell, [x], t, **kwargs)
        for name in ("times", "states", "F"):
            assert np.array_equal(getattr(res, name), getattr(one, name)), name
    assert rep.primes_integrated == 2
    assert len(rep.index_table) == len(db20)
    assert all(row["path_samples"] == (1025 if row["orbit_id"] == rep.orbit_id
                                       else 513) and row["K"]
               for row in rep.index_table)


def _with_indices(db, mus, monkeypatch):
    # the real index report, with the agreed index ``mus[oid]`` for orbit oid
    real = binding.orbit_index_report

    def report(form, orbit, n_grid):
        rep = real(form, orbit, n_grid=n_grid)
        for oid, mu in mus.items():
            if orbit is db[oid]:
                rep.update(mu_geometric=mu, mu_spectral=mu)
        return rep

    monkeypatch.setattr(binding, "orbit_index_report", report)


def test_binding_inconclusive_on_violated_iterate_relations(ell, db20,
                                                            monkeypatch):
    # mu(P^3) = 2 breaks Bott's iteration formula for P = gamma2, which gives
    # 15: its covers' indices are in doubt, whatever their linking
    gid = _entry_id(db20, np.pi, 1)
    covers = [i for i, o in enumerate(db20.orbits)
              if abs(o.T_min - np.sqrt(2) * np.pi) < 1e-6]
    cube = _entry_id(db20, np.sqrt(2) * np.pi, 3)
    _with_indices(db20, {cube: 2}, monkeypatch)
    rep = check_binding(ell, db20, gid)
    reason = ("InconsistencyError: index 2 of cover 3 differs from Bott's "
              "iteration formula, 15, read off cover 1")
    assert rep.index_unknown_orbits == [{"orbit_id": oid, "reason": reason}
                                 for oid in sorted(covers)]
    # an orbit of unknown index gets no linking check
    assert rep.index2_orbits_checked == []
    assert rep.verdict == "inconclusive:index-unknown"
    assert rep.exit_code == 3


def test_binding_doubts_a_cover_index_the_inequalities_accept(ell, db10,
                                                              monkeypatch):
    # gamma1^2 at 9 instead of 7: odd, as an elliptic orbit's, and above 2,
    # where the iteration inequalities say nothing; Bott's formula reads 7
    # off gamma1, so the candidate's own index is in doubt
    gid = _entry_id(db10, np.pi, 1)
    rows = [i for i, o in enumerate(db10.orbits) if o.T_min == db10[gid].T_min]
    _with_indices(db10, {_entry_id(db10, np.pi, 2): 9}, monkeypatch)
    rep = check_binding(ell, db10, gid)
    reason = ("InconsistencyError: index 9 of cover 2 differs from Bott's "
              "iteration formula, 7, read off cover 1")
    assert rep.index_unknown_orbits == [{"orbit_id": oid, "reason": reason}
                                        for oid in rows]
    assert rep.verdict == "inconclusive:index-unknown"


def test_binding_fails_for_double_cover(ell, db20):
    gid = _entry_id(db20, np.pi, 2)
    rep = check_binding(ell, db20, gid)
    assert rep.verdict == "fails:simply_covered"
    assert rep.exit_code == 2


def test_binding_inconclusive_for_knotted_trace(ell, db20):
    # the table holds a knotted trace for the candidate's prime, beside the
    # real orbit's self-linking number
    gid = _entry_id(db20, np.pi, 1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[gid])] = cz.PrimeData(
            trace=trefoil_loop(),
            sl=linking.SelfLinking(-1, 0.0, 0, -1, [0.0, 0.0, 1.0]))
        rep = check_binding(ell, db20, gid)
    assert rep.verdict == "inconclusive:unknot_status_unknown"
    assert rep.exit_code == 3


def test_binding_inconclusive_when_the_self_linking_fails(ell, db20):
    # the table holds the error that stopped the candidate's self-linking: an
    # sl that was not computed never reads as a failure
    gid = _entry_id(db20, np.pi, 1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[gid])] = cz.PrimeData(
            sl=ResolutionError("Gauss sum residual 0.120 >= 0.1; densify"))
        rep = check_binding(ell, db20, gid)
    assert rep.sl is None and rep.mu_cz == 3
    assert rep.verdict == "inconclusive:self-linking-unknown"
    assert rep.exit_code == 3
    # the report keeps the error's text, next to the null sl
    payload = rep.to_json_dict()
    assert payload["sl_skipped"] == "Gauss sum residual 0.120 >= 0.1; densify"
    assert list(payload).index("sl_skipped") == list(payload).index("sl") + 1


def test_binding_inconclusive_when_an_index_is_unknown(ell, db20,
                                                       monkeypatch):
    # an orbit without an agreed index might be an unlinked index-2 orbit,
    # whether its report flags the index or fails to compute it
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    real = binding.orbit_index_report
    for failure in ("flagged", "raises"):
        def report(form, orbit, n_grid, failure=failure):
            if orbit is not db20[other]:
                return real(form, orbit, n_grid=n_grid)
            if failure == "raises":
                raise ResolutionError("path did not stabilize")
            return {"mu_geometric": None, "mu_spectral": None,
                    "degenerate_flags": ["rotation interval endpoint near integer"]}

        monkeypatch.setattr(binding, "orbit_index_report", report)
        rep = check_binding(ell, db20, gid)
        assert rep.verdict.startswith("inconclusive:")
        reason = {"flagged": "rotation interval endpoint near integer",
                  "raises": "ResolutionError: path did not stabilize"}[failure]
        assert rep.index_unknown_orbits == [{"orbit_id": other, "reason": reason}]
        assert rep.to_json_dict()["index_unknown_orbits"] == rep.index_unknown_orbits
        assert rep.exit_code == 3


def _check_with_index(ell, db, gid, mus, links, monkeypatch):
    # orbit ``oid`` gets index ``mus[oid]`` and every other orbit its real
    # index; ``links`` maps an orbit id to the table's linking record of its
    # prime with the candidate's prime: (lk, residual, crossing lk) or the
    # error
    _with_indices(db, mus, monkeypatch)
    with cz.prime_table() as table:
        cand = table.setdefault(cz.prime_key(db[gid]), cz.PrimeData())
        for oid, rec in links.items():
            cand.links[cz.prime_key(db[oid])] = rec
        return check_binding(ell, db, gid)


@pytest.fixture(scope="module")
def db3(ell, db20):
    # db20 and a third prime: gamma2 marked at another point, which the prime
    # table keys apart from gamma2
    g2 = db20[_entry_id(db20, np.sqrt(2) * np.pi, 1)]
    x0 = integrate_flow(ell, g2.x0, g2.T_min / 3, tol=1e-12).endpoint
    return OrbitDatabase(db20.form_hash,
                         db20.orbits + [dataclasses.replace(g2, x0=x0)],
                         db20.params)


def test_binding_inconclusive_when_an_index2_linking_fails(ell, db20,
                                                           monkeypatch):
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    error = ProximityError("curves are 1.00e-04 apart (< 1e-03)")
    rep = _check_with_index(ell, db20, gid, {other: 2}, {other: error},
                            monkeypatch)
    assert rep.index2_orbits_checked == [
        {"orbit_id": other, "lk": None, "linked": None,
         "skipped": "curves are 1.00e-04 apart (< 1e-03)"}]
    assert rep.verdict == "inconclusive:index2-linking-unknown"
    assert rep.exit_code == 3


def test_binding_fails_on_an_unlinked_index2_orbit_beside_a_skip(
        ell, db3, monkeypatch):
    # two primes of index 2, each consistent with its covers: one is
    # unlinked and the other one's linking fails; the unlinked orbit decides
    # the verdict, and the skipped row stays beside it
    gid = _entry_id(db3, np.pi, 1)
    unlinked = _entry_id(db3, np.sqrt(2) * np.pi, 1)
    failing = len(db3) - 1
    rep = _check_with_index(
        ell, db3, gid, {unlinked: 2, failing: 2},
        {unlinked: (0, 0.0, 0),
         failing: ResolutionError("Gauss sum residual 0.300 >= 0.1; densify")},
        monkeypatch)
    assert rep.index_unknown_orbits == []
    assert rep.index2_orbits_checked == [
        {"orbit_id": unlinked, "lk": 0, "linked": False},
        {"orbit_id": failing, "lk": None, "linked": None,
         "skipped": "Gauss sum residual 0.300 >= 0.1; densify"}]
    assert rep.verdict == "fails:index2_orbit_unlinked"
    assert rep.exit_code == 2


def test_binding_unlinked_orbit_of_unknown_index_decides_no_failure(
        ell, db20, monkeypatch):
    # gamma2 and gamma2^2 at index 2 break Bott's iteration formula: an
    # unlinked gamma2 can no longer fail the candidate
    gid = _entry_id(db20, np.pi, 1)
    prime = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    double = _entry_id(db20, np.sqrt(2) * np.pi, 2)
    rep = _check_with_index(ell, db20, gid, {prime: 2, double: 2},
                            {prime: (0, 0.0, 0)}, monkeypatch)
    covers = [i for i, o in enumerate(db20.orbits)
              if o.T_min == db20[prime].T_min]
    reason = ("InconsistencyError: index 2 of cover 2 differs from Bott's "
              "iteration formula, 9, read off cover 1")
    assert rep.index_unknown_orbits == [{"orbit_id": oid, "reason": reason}
                                 for oid in covers]
    assert rep.index2_orbits_checked == []
    assert rep.verdict == "inconclusive:index-unknown"
    assert rep.exit_code == 3


def test_binding_candidate_of_unknown_index_decides_no_failure(
        ell, db20, monkeypatch):
    # the candidate gamma1 and gamma1^2 at index 2 break Bott's formula too:
    # the candidate's index 2 can no longer fail it
    gid = _entry_id(db20, np.pi, 1)
    double = _entry_id(db20, np.pi, 2)
    rep = _check_with_index(ell, db20, gid, {gid: 2, double: 2}, {},
                            monkeypatch)
    assert rep.mu_cz == 2
    assert {row["orbit_id"] for row in rep.index_unknown_orbits} >= {gid, double}
    assert rep.index2_orbits_checked == []
    assert rep.verdict == "inconclusive:index-unknown"
    assert rep.exit_code == 3


def test_binding_links_an_index2_cover_through_its_prime(ell, db20,
                                                         monkeypatch):
    # gamma2's covers relabelled as those of a negative hyperbolic prime of
    # mean rotation 1/2, whose k-fold cover has index k by Bott's formula:
    # gamma2^2 is an index-2 cover; it links gamma1 twice, 2 lk(gamma1,
    # gamma2), and the crossing count of the prime pair agrees
    gid = _entry_id(db20, np.pi, 1)
    prime = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    double = _entry_id(db20, np.sqrt(2) * np.pi, 2)
    T2, N = db20[prime].T_min, np.diag([-2.0, -0.5])

    def relabel(o):
        mon = np.linalg.matrix_power(N, o.multiplicity)
        return dataclasses.replace(o, monodromy=mon,
                                   nondeg_class=classify_monodromy(mon))

    db = OrbitDatabase(db20.form_hash, [relabel(o) if o.T_min == T2 else o
                                        for o in db20.orbits], db20.params)
    real = binding.orbit_index_report

    def report(form, orbit, n_grid):
        if orbit.T_min != T2:
            return real(form, orbit, n_grid=n_grid)
        k = orbit.multiplicity
        return {"mu_geometric": k, "mu_spectral": k, "degenerate_flags": [],
                "interval": [k / 2 - 0.1, k / 2 + 0.1]}

    monkeypatch.setattr(binding, "orbit_index_report", report)
    rep = check_binding(ell, db, gid)
    assert rep.index2_orbits_checked == [{"orbit_id": double, "lk": 2, "linked": True}]
    assert rep.verdict == "hypotheses_hold"
    assert rep.linking_checks == {
        "primes_traced": 2, "unchecked_pairs": [],
        "prime_pairs": [{"a": gid, "b": prime, "gauss_lk": 1,
                         "crossing_lk": 1}]}


def test_binding_fails_the_strongly_hyperbolic_neck_and_its_lobes():
    # the K = 2 neck stretches by 535 over its period; its index is computed
    # all the same, and each lobe orbit fails for not linking it
    form, db = dumbbell_census(2.0, [
        NECK,
        ((-0.6428, -0.8437, -0.6124, 0.0), 3.5343),
        ((-0.828, 0.6629, 0.6124, 0.0), 3.5343)])
    neck, *lobes = [check_binding(form, db, i) for i in range(3)]
    assert (neck.verdict, neck.mu_cz) == ("fails:index_below_3", 2)
    for rep in lobes:
        assert rep.verdict == "fails:index2_orbit_unlinked"
        assert rep.index2_orbits_checked == [
            {"orbit_id": 0, "lk": 0, "linked": False}]


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
    # one prime pair, linked once by each route
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    assert report.linking_checks == {
        "primes_traced": 2, "unchecked_pairs": [],
        "prime_pairs": [{"a": gid, "b": other, "gauss_lk": 1,
                         "crossing_lk": 1}]}


def test_audit_alarm_on_unlinked_trace(ell, db20, page):
    # corrupted fixture: a distant tiny loop cannot link the binding
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    fake = np.stack([0.05 * np.cos(th) + 0.2, 0.05 * np.sin(th),
                     np.ones_like(th), 0.3 * np.ones_like(th)], axis=1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[other])] = cz.PrimeData(trace=fake)
        report = necessity_audit(ell, page, db20, gid)
    assert not report.passed
    assert any("zero linking" in a for a in report.alarms)


def test_audit_skips_an_orbit_whose_linking_fails(ell, db20, page):
    # corrupted fixture: the binding's own trace in place of another orbit's
    # coincides with the binding, so their linking number is undefined
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[other])] = cz.PrimeData(
            trace=trace_orbit(ell, db20[gid], 512))
        report = necessity_audit(ell, page, db20, gid)
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


def test_audit_alarm_when_the_self_linking_fails(ell, db20, page):
    # the table holds the error that stopped the binding's self-linking: the
    # audit records an alarm instead of aborting, and compares no routes
    gid = _entry_id(db20, np.pi, 1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[gid])] = cz.PrimeData(
            sl=ResolutionError("Gauss sum residual 0.120 >= 0.1; densify"))
        report = necessity_audit(ell, page, db20, gid)
    assert not report.passed
    assert report.sl_pushoff is None and report.sl_from_winding == -1
    assert report.alarms == ["pushoff self-linking was not computed: "
                             "Gauss sum residual 0.120 >= 0.1; densify"]


def test_a_broken_self_linking_route_is_caught(ell, db20, page, monkeypatch):
    # a twist one turn off: the two self-linking routes disagree, so the
    # binding check leaves sl unknown with the error's text, and the audit
    # raises an alarm
    twist = linking._twist

    def broken(a3, b3, direction):
        turns = twist(a3, b3, direction)
        return None if turns is None else turns + 1

    monkeypatch.setattr(linking, "_twist", broken)
    gid = _entry_id(db20, np.pi, 1)
    text = "Gauss sum gives sl -1 but writhe 0 plus twist 0 gives 0"
    rep = check_binding(ell, db20, gid)
    assert rep.sl is None and rep.sl_skipped == text
    assert rep.verdict == "inconclusive:self-linking-unknown"
    assert rep.self_linking_checks == [
        {"orbit": gid, "error": f"{InconsistencyError.__name__}: {text}"}]
    report = necessity_audit(ell, page, db20, gid)
    assert not report.passed and report.sl_pushoff is None
    assert f"pushoff self-linking cross-check failed: {text}" in report.alarms
    assert not any("not computed" in a for a in report.alarms)


def test_a_broken_linking_route_is_caught(ell, db20, page, monkeypatch):
    # a crossing count one off: the two linking routes disagree, so the
    # audit leaves that orbit's lk unknown with the error's text and names
    # the failed cross-check in its alarm
    crossing = linking.crossing_linking
    monkeypatch.setattr(linking, "crossing_linking",
                        lambda a3, b3: crossing(a3, b3) + 1)
    gid = _entry_id(db20, np.pi, 1)
    other = _entry_id(db20, np.sqrt(2) * np.pi, 1)
    report = necessity_audit(ell, page, db20, gid)
    row = next(r for r in report.linking if r["orbit_id"] == other)
    text = "Gauss sum gives lk 1 but the crossing count gives 2"
    assert row == {"orbit_id": other, "lk": None, "skipped": text}
    assert not report.passed
    assert f"linking with orbit {other} cross-check failed: {text}" in report.alarms
    assert not any("not computed" in a for a in report.alarms)
