"""Acceptance suite: the analytic-case reproductions and property batteries
that gate the build.  Each test prints one PASS line on success so the run
doubles as a checklist."""

import numpy as np
import pytest

from reeb_atlas import cz
from reeb_atlas import linking as lnk
from reeb_atlas import sections as sec
from reeb_atlas.binding import check_binding, necessity_audit
from reeb_atlas.errors import ProximityError
from reeb_atlas.orbits import find_orbits, refine_orbit, trace_orbit

from oracles import (compose_paths, disk_area, grid, invert_path,
                     polygon_action, pure_rotation_path, pushoff_linking,
                     random_loop, random_nondegenerate_path, return_map_points,
                     spectrum, winding_census)

SQ2 = np.sqrt(2.0)
BUDGET = 10 * np.pi * SQ2


def _entry_id(db, t_min, mult):
    for i, o in enumerate(db.orbits):
        if abs(o.T_min - t_min) < 1e-6 and o.multiplicity == mult:
            return i
    raise AssertionError("entry not found")


def test_criterion_1_ellipsoid_census(db10):
    expected = {
        (np.pi, 1), (np.pi, 2), (np.pi, 3),
        (SQ2 * np.pi, 1), (SQ2 * np.pi, 2),
    }
    assert len(db10) == 5
    for o in db10.orbits:
        match = [e for e in expected
                 if abs(o.T_min - e[0]) <= 1e-8 * e[0] and o.multiplicity == e[1]]
        assert len(match) == 1, (o.T_min, o.multiplicity)
        expected.remove(match[0])
        assert abs(o.T - o.multiplicity * match[0][0]) <= 1e-8 * o.T
    assert not expected
    print("\nACCEPTANCE 1: PASS - census {g1, g1^2, g1^3, g2, g2^2} at rel 1e-8")


def test_criterion_2_index_tables(ell, gamma1, gamma2):
    expect1 = [2 * k + 2 * int(np.floor(k / SQ2)) + 1 for k in range(1, 6)]
    expect2 = [2 * k + 2 * int(np.floor(k * SQ2)) + 1 for k in range(1, 4)]
    assert expect1 == [3, 7, 11, 13, 17]
    assert expect2 == [5, 9, 15]
    for orbit, k_max, expect in ((gamma1, 5, expect1), (gamma2, 3, expect2)):
        for k in range(1, k_max + 1):
            it = orbit.iterate(k)
            path = cz.trivialized_path(ell, it, max(256, 256 * k))
            mu_geo, flag = cz.cz_from_interval(cz.rotation_interval(path))
            assert not flag
            data = spectrum(ell, it, max(1024, 512 * k))
            mu_spec = cz.cz_from_spectrum(data)
            assert mu_geo == expect[k - 1]
            assert mu_spec == expect[k - 1]
    print("ACCEPTANCE 2: PASS - iterate indices exact by both methods")


def test_criterion_3_axiom_suite():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        phi = random_nondegenerate_path(rng)
        m = int(rng.integers(-2, 3))
        psi = random_loop(rng, m, n=phi.n_steps)
        iv = cz.rotation_interval(phi)
        assert iv.length < 0.5  # non-degenerate interval bound
        mu, _ = cz.cz_from_interval(iv)
        # axiom 2: loop composition shifts by twice the loop winding
        mu_prod, _ = cz.cz_from_interval(
            cz.rotation_interval(compose_paths(psi, phi)))
        assert mu_prod == 2 * m + mu
        # axiom 3: inversion negates
        mu_inv, _ = cz.cz_from_interval(
            cz.rotation_interval(invert_path(phi)))
        assert mu_inv == -mu
        # axiom 1: small symplectic perturbation fixing endpoints
        bump = (np.sin(np.pi * grid(phi.n_steps)) ** 2)[:, None, None]
        g = 3e-4 * np.array([[1.0, 0.5], [0.5, -1.0]])
        pert = phi.mats @ (np.eye(2) + bump * g)
        pert /= np.sqrt(np.linalg.det(pert))[:, None, None]
        assert np.abs(pert - phi.mats).max() <= 1e-3
        mu_pert, _ = cz.cz_from_interval(
            cz.rotation_interval(cz.SymplecticPath(mats=pert)))
        assert mu_pert == mu
    # axiom 4: the half-turn rotation has index exactly 1
    mu4, _ = cz.cz_from_interval(cz.rotation_interval(pure_rotation_path(0.5)))
    assert mu4 == 1
    print("ACCEPTANCE 3: PASS - axioms 1-4 on 100 fixtures, half-turn index 1")


def test_criterion_4_spectral_structure(ell, db10):
    for orbit in db10.orbits:
        data = spectrum(ell, orbit, 1024)
        census, monotone = winding_census(data)
        assert monotone, "winding must be monotone in the eigenvalue"
        assert census, "no complete winding classes resolved"
        assert all(c == 2 for c in census.values()), census
    print("ACCEPTANCE 4: PASS - two eigenvalues per winding, monotone, "
          f"on all {len(db10)} census orbits at n_grid=1024")


def test_criterion_5_topology(ell, gamma1, gamma2):
    t1 = trace_orbit(ell, gamma1, n=512)
    t2 = trace_orbit(ell, gamma2, n=512)
    assert lnk.linking_number(*lnk.stereo_pair(t1, t2))[0] == 1
    assert lnk.self_linking(ell, t1).sl == lnk.self_linking(ell, t2).sl == -1
    for eps in (1e-2, 5e-3, 2.5e-3):
        assert pushoff_linking(ell, t1, eps, "e1") == -1
        assert pushoff_linking(ell, t2, eps, "e1") == -1
    assert lnk.unknot_check(t1).status == "certified_unknot"
    assert lnk.unknot_check(t2).status == "certified_unknot"

    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    rng = np.random.default_rng(3)
    checked = 0
    for _ in range(50):
        centers = rng.normal(size=(2, 4))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)

        def loop(center, radius):
            b1 = rng.normal(size=4)
            b1 -= (b1 @ center) * center
            b1 /= np.linalg.norm(b1)
            b2 = rng.normal(size=4)
            b2 -= (b2 @ center) * center
            b2 -= (b2 @ b1) * b1
            b2 /= np.linalg.norm(b2)
            pts = (center[None, :]
                   + radius * np.cos(th)[:, None] * b1[None, :]
                   + radius * np.sin(th)[:, None] * b2[None, :])
            pts += 0.05 * rng.uniform() * np.sin(2 * th)[:, None] * center[None, :]
            return pts

        a = loop(centers[0], rng.uniform(0.3, 0.9))
        b = loop(centers[1], rng.uniform(0.3, 0.9))
        try:
            g = lnk.linking_number(*lnk.stereo_pair(a, b))[0]
        except ProximityError:
            continue
        assert lnk.crossing_linking(*lnk.stereo_pair(a, b)) == g
        checked += 1
    assert checked >= 40
    print(f"ACCEPTANCE 5: PASS - lk=1, sl=-1 stable, unknots certified, "
          f"oracle agreement on {checked} pairs")


def test_criterion_6_binding_checker(ell, db20):
    gid = _entry_id(db20, np.pi, 1)
    rep = check_binding(ell, db20, gid)
    assert rep.verdict == "hypotheses_hold"
    assert rep.index2_orbits_checked == []  # all indices odd on this ellipsoid
    gid2 = _entry_id(db20, np.pi, 2)
    rep2 = check_binding(ell, db20, gid2)
    assert rep2.verdict == "fails:simply_covered"
    print("ACCEPTANCE 6: PASS - binding holds for g1 at T_max=20, "
          "double cover fails simply_covered")


def test_criterion_7_global_section(ell, page, page_index):
    verdict, fw, bw = sec.verify_global_section(
        ell, page, n_seeds=500, t_budget=BUDGET)
    assert verdict["sign_constant"]
    assert verdict["min_transversality"] > 0.1
    assert verdict["timeouts_forward"] == 0
    assert verdict["timeouts_backward"] == 0
    assert verdict["passes"]

    area, boundary = disk_area(ell, page)
    assert abs(area - np.pi) / np.pi < 1e-2
    assert abs(area - boundary) / abs(boundary) < 1e-2

    n_r, n_t = page.n_r, page.n_theta

    def cell_polygon(i, j, m=6):
        pts = []
        for k in range(m):
            pts.append(((i + k / m) / n_r, j / n_t))
        for k in range(m):
            pts.append(((i + 1) / n_r, (j + k / m) / n_t))
        for k in range(m):
            pts.append(((i + 1 - k / m) / n_r, (j + 1) / n_t))
        for k in range(m):
            pts.append((i / n_r, (j + 1 - k / m) / n_t))
        poly = np.array([sec._grid_point(page, s, t) for s, t in pts])
        return poly / np.sqrt(ell.H_batch(poly))[:, None]

    cells = [(20, 30), (40, 10), (50, 220), (60, 180), (64, 100),
             (75, 150), (85, 120), (90, 200), (100, 50), (110, 240)]
    for ci, cj in cells:
        poly = cell_polygon(ci, cj)
        a0 = polygon_action(poly)
        hits = return_map_points(ell, page, poly, t_budget=BUDGET,
                                 index=page_index)
        assert all(h is not None for h in hits)
        a1 = polygon_action(np.array([h[0] for h in hits]))
        assert abs(a1 - a0) / abs(a0) < 0.02
    print("ACCEPTANCE 7: PASS - 500/500 seeds return both ways, area "
          f"{area:.5f} ~ pi r1^2, Stokes within 1%, 10 cells preserved within 2%")


def test_criterion_8_foliation_and_alarms(ell, db20, page):
    _, sings, wind = sec.characteristic_field(ell, page)
    assert len(sings) == 1
    assert sings[0].kind == "elliptic" and sings[0].nicely_elliptic
    assert sings[0].sign == 1
    assert wind == 1
    gid = _entry_id(db20, np.pi, 1)
    assert lnk.cover_self_linking(ell, db20[gid]) == -wind

    # corrupted fixtures must trip the audit alarms
    other = _entry_id(db20, SQ2 * np.pi, 1)
    th = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    fake = np.stack([0.05 * np.cos(th) + 0.2, 0.05 * np.sin(th),
                     np.ones_like(th), 0.3 * np.ones_like(th)], axis=1)
    with cz.prime_table() as table:
        table[cz.prime_key(db20[other])] = cz.PrimeData(trace=fake)
        bad_link = necessity_audit(ell, page, db20, gid)
    assert any("zero linking" in a for a in bad_link.alarms)
    bad_sl = necessity_audit(ell, page, db20, _entry_id(db20, np.pi, 2))
    assert any("routes disagree" in a for a in bad_sl.alarms)
    clean = necessity_audit(ell, page, db20, gid)
    assert clean.passed
    print("ACCEPTANCE 8: PASS - one positive nicely elliptic singularity, "
          "winding 1, sl = -winding, corrupted fixtures raise alarms")


def test_criterion_9_degenerate_handling(round_form):
    db = find_orbits(round_form, 4.0, n_seeds=12)
    assert len(db) > 0
    assert all(o.degenerate for o in db.orbits)
    for orbit in db.orbits[:3]:
        rep = cz.orbit_index_report(round_form, orbit)
        assert rep["mu_geometric"] is None
        assert rep["mu_spectral"] is None
        assert rep["degenerate_flags"]
    print("ACCEPTANCE 9: PASS - round sphere orbits all degenerate, "
          "index reports flag instead of emitting numbers")


def test_criterion_10_perturbation_robustness(perturbed_form):
    # continue the planar circle from unperturbed data under a degree-4
    # monomial perturbation at 1e-2
    orbit = refine_orbit(perturbed_form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    assert orbit.residual < 1e-10
    assert not orbit.degenerate
    rep = cz.orbit_index_report(perturbed_form, orbit)
    assert rep["mu_geometric"] == 3
    assert rep["mu_spectral"] == 3
    trace = trace_orbit(perturbed_form, orbit, n=512)
    assert lnk.self_linking(perturbed_form, trace).sl == -1
    assert lnk.unknot_check(trace).status == "certified_unknot"
    print("ACCEPTANCE 10: PASS - perturbed circle keeps index 3, sl -1, "
          "certified unknot")


@pytest.mark.parametrize("census", ["dumbbell_12", "dumbbell_12_searched"])
def test_criterion_11_index2_orbit_on_the_dumbbell(census, request):
    # the paper's fourth condition from computed indices and linking
    # numbers: the binding must link the index-2 neck, on a census refined
    # from known starts and on the search's own
    form, db = request.getfixturevalue(census)
    assert len(db) == 4
    neck, *lobes, z2 = [check_binding(form, db, i) for i in range(4)]
    assert (neck.verdict, neck.mu_cz) == ("fails:index_below_3", 2)
    for rep in lobes:
        assert rep.verdict == "fails:index2_orbit_unlinked"
        assert rep.index2_orbits_checked == [
            {"orbit_id": 0, "lk": 0, "linked": False}]
    assert z2.verdict == "hypotheses_hold"
    assert z2.index2_orbits_checked == [{"orbit_id": 0, "lk": 1, "linked": True}]
    print("ACCEPTANCE 11: PASS - dumbbell K=1.2: neck index 2, lobes unlinked "
          "from it fail, the z2 orbit binds")
