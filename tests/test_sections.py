import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from reeb_atlas import sections as sec
from reeb_atlas.contact import StarForm, xi_frame
from reeb_atlas.errors import DomainError, GridQualityError, StiffnessError
from reeb_atlas.flow import FlowResult, integrate_flow
from reeb_atlas.linking import self_linking
from reeb_atlas.orbits import refine_orbit, trace_orbit

from oracles import (bisect_crossing_loop, disk_area, ellipsoid_page,
                     polygon_action, return_map_points, ring_action,
                     sequential_return_map)

SQ2 = np.sqrt(2.0)
T_RETURN = np.pi * SQ2  # first-return time of the standard page
BUDGET = 10 * np.pi * SQ2


def twisted_page(form, orbit, amplitude=1.0, n_r=128, n_theta=256):
    """Page with an angular twist large enough to force Reeb tangencies."""
    disk = sec.builtin_disk(form, orbit, theta0=0.0, n_r=n_r, n_theta=n_theta)
    s = np.linspace(0.0, 1.0, n_r + 1)[:, None]
    t = (np.arange(n_theta) / n_theta)[None, :]
    bump = 16.0 * s ** 2 * (1 - s) ** 2
    phase = amplitude * bump * np.sin(2 * np.pi * t)
    z2 = disk.samples[:, :, 2] + 1j * disk.samples[:, :, 3]
    z2 = np.abs(z2) * np.exp(1j * phase)
    out = disk.samples.copy()
    out[:, :, 2] = z2.real
    out[:, :, 3] = z2.imag
    return sec.DiskGrid(samples=out)


def test_builtin_disk_construction(ell, gamma1, page):
    # all samples on the page have arg z2 = 0: Im z2 == 0, Re z2 >= 0
    assert np.abs(page.samples[:, :, 3]).max() == 0.0
    assert page.samples[:-1, :, 2].min() > 0.0
    assert np.abs(page.samples[-1, :, 2:]).max() < 1e-15  # boundary in plane
    assert np.abs(ell.H_batch(page.samples.reshape(-1, 4)) - 1.0).max() < 1e-12
    # the boundary row is the orbit's trace, re-projected within roundoff
    trace = trace_orbit(ell, gamma1, page.n_theta)
    assert np.abs(page.boundary - trace).max() < 1e-15
    page.validate()


def test_builtin_disk_embedded_at_64(ell, gamma1):
    # the 64x256 grid is embedded even though its boundary chord bound fails
    d64 = sec.builtin_disk(ell, gamma1, theta0=0.0, n_r=64, n_theta=256)
    from scipy.spatial import cKDTree

    pts = d64.samples[1:].reshape(-1, 4)
    pairs = cKDTree(pts).query_pairs(1e-4)
    nt = d64.n_theta
    for a, b in pairs:
        ia, ja = divmod(a, nt)
        ib, jb = divmod(b, nt)
        dj = min((ja - jb) % nt, (jb - ja) % nt)
        assert abs(ia - ib) <= 1 and dj <= 1


@pytest.mark.parametrize("theta0", [0.0, 1.0])
@pytest.mark.parametrize("name", ["gamma1", "gamma2"])
def test_cone_page_matches_the_ellipsoid_page(ell, request, name, theta0):
    # on a coordinate circle of the ellipsoid, the radial cone page over the
    # integrated trace is the closed-form page of the other plane
    orbit = request.getfixturevalue(name)
    cone = sec.builtin_disk(ell, orbit, theta0=theta0, n_r=128, n_theta=48)
    exact = ellipsoid_page(ell, orbit, theta0=theta0, n_r=128, n_theta=48)
    assert np.abs(cone.samples - exact.samples).max() < 1e-10


def test_builtin_disk_other_circle(ell, gamma2):
    disk = sec.builtin_disk(ell, gamma2, theta0=0.0, n_r=128,
                            n_theta=256)
    disk.validate()
    md, sc = sec.transversality_check(ell, disk)
    assert sc and md > 0.1


def test_transversality(ell, page):
    md, sign_constant = sec.transversality_check(ell, page)
    assert sign_constant
    assert md > 0.1


def test_transversality_collar(ell, page):
    collar = sec.DiskGrid(page.samples[page.n_r - 12:])
    md, sc = sec.transversality_check(ell, collar)
    assert sc and md > 0.1


def test_grid_point_is_periodic_in_t_and_batched(page):
    # -1e-18 % 1.0 rounds up to 1.0, the far edge of the last column
    assert np.array_equal(sec._grid_point(page, 0.5, -1e-18),
                          sec._grid_point(page, 0.5, 0.0))
    for e, e0 in zip(sec._chart_tangents(page, 0.5, 1.0),
                     sec._chart_tangents(page, 0.5, 0.0)):
        np.testing.assert_allclose(e, e0, rtol=0, atol=1e-9)
    rng = np.random.default_rng(0)
    s, t = rng.random(2000), rng.random(2000)
    p = sec._grid_point(page, s, t)
    assert np.array_equal(p, [sec._grid_point(page, a, b) for a, b in zip(s, t)])
    for shift in (-1.0, 1.0):
        np.testing.assert_allclose(sec._grid_point(page, s, t + shift), p,
                                   rtol=0, atol=1e-12)


def test_tangent_fixture_breaks_sign_constancy(ell, gamma1):
    disk = twisted_page(ell, gamma1, amplitude=1.0)
    _, sign_constant = sec.transversality_check(ell, disk)
    assert not sign_constant


def test_node_frame_field_pointwise(ell, page):
    # the batched normals and field against single-node geometry
    normals, vfield = sec._node_frame_field(ell, page)
    d_s, d_t = sec._node_tangents(page)
    for i, j in [(0, 0), (40, 77), (page.n_r - 1, page.n_theta - 1)]:
        x = page.samples[i + 1, j]
        n = normals[i, j]
        g = ell.grad_H(x)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        for v in (d_s[i, j], d_t[i, j], g):
            assert abs(n @ v) < 1e-12 * max(1.0, np.linalg.norm(v))
        fr = xi_frame(ell, x)
        np.testing.assert_allclose(vfield[i, j], [n @ fr.e2, -(n @ fr.e1)],
                                   rtol=0, atol=1e-14)


def test_characteristic_foliation(ell, page, gamma1):
    _, sings, wind = sec.characteristic_field(ell, page)
    assert wind == 1
    assert len(sings) == 1
    s0 = sings[0]
    assert s0.kind == "elliptic"
    assert s0.nicely_elliptic
    assert s0.sign == 1
    assert s0.s < 1e-6  # at the disk center
    assert sum(s.index for s in sings) == wind
    # the two self-linking routes agree: pushoff versus minus the winding
    assert self_linking(ell, trace_orbit(ell, gamma1, n=512)).sl == -wind


def test_boundary_orientation_enforced(ell, page):
    flipped = sec.DiskGrid(samples=page.samples[:, ::-1, :].copy())
    with pytest.raises(DomainError):
        sec.characteristic_field(ell, flipped)


def line_run(root):
    """A one-step dense run whose first coordinate is t - root, exactly."""
    F = np.zeros((1, 7, 4))
    F[0, 0, 0] = 1.0
    return FlowResult(np.array([0.0, 1.0]),
                      np.array([[-root, 0.0, 0.0, 0.0], [1.0 - root, 0.0, 0.0, 0.0]]),
                      F)


def test_bisect_crossing_equals_the_halving_loop(ell, page, page_index):
    # node 0 sits at the origin with normal e1, so a line run's height over
    # it is t - root; nodes 1.. are the page's
    index = sec._DiskIndex.__new__(sec._DiskIndex)
    index.points = np.vstack([np.zeros((1, 4)), page_index.points])
    index.normals = np.vstack([np.eye(4)[:1], page_index.normals])
    rng = np.random.default_rng(3)
    lines = [(-1.0, 1.0, 0.0),  # the first midpoint has height 0
             (1.0, -1.0, 0.5),  # a falling bracket
             (0.0, 1e10, 3e9)]  # still above 1e-10 after 60 halvings
    for _ in range(200):
        lo, width = rng.uniform(-5, 5), 10.0 ** rng.uniform(-9, 1)
        hi = lo + width * rng.choice([-1.0, 1.0])
        root = lo + (hi - lo) * rng.choice([0.0, 0.25, 0.5, rng.uniform()])
        lines.append((lo, hi, root))
    brackets = [(line_run(root), lo, hi, 0) for lo, hi, root in lines]
    # a flow over the page, from a node's tangent plane through random brackets
    traj = integrate_flow(ell, page.samples[40, 3], 2.0, tol=1e-10, dense=True)
    for _ in range(50):
        lo, hi = np.sort(rng.uniform(0.0, 2.0, 2))
        brackets.append((traj, lo, hi, 1 + int(rng.integers(len(page_index.points)))))
    got, rounds = sec._bisect_crossings(index, *zip(*brackets))
    assert rounds == 12  # the 1e10 bracket runs to the cap
    for t_cross, bracket in zip(got, brackets):
        assert t_cross == bisect_crossing_loop(index, *bracket)


def test_bounded_heights_equal_the_unbounded_query_within_near(ell, page,
                                                               page_index):
    # a flow's scan points over the page, and points about the scan's reach
    # away from random nodes
    index, rng = page_index, np.random.default_rng(4)
    traj = integrate_flow(ell, page.samples[40, 3], 6.0, tol=1e-10, dense=True)
    k = rng.integers(len(index.points), size=300)
    u = rng.normal(size=(300, 4))
    ys = np.vstack([traj(np.linspace(0.0, 6.0, 2000))[:, :4],
                    index.points[k] + index.near * rng.uniform(0.9, 1.1, (300, 1))
                    * u / np.linalg.norm(u, axis=1, keepdims=True)])
    # every point's nearest node, unbounded, as tests/oracles.py reads it
    d0, i0 = index.tree.query(ys)
    h0 = index.plane_height(ys, i0)
    d, i, h = index.heights(ys)
    within = d0 <= index.near
    assert 0 < np.count_nonzero(within) < len(ys)
    for got, want in ((d, d0), (i, i0), (h, h0)):
        assert np.array_equal(got[within], want[within])
    beyond = ~np.isfinite(d)
    assert np.count_nonzero(beyond) and (d0[beyond] > index.near).all()
    assert (i[beyond] == len(index.points)).all() and np.isnan(h[beyond]).all()


@pytest.mark.parametrize("n_theta", [48, 256])
def test_boundary_distance_is_the_kd_trees(ell, gamma1, page, page_index,
                                           n_theta):
    # points on and between boundary samples, within a few chords of the
    # binding, and far from it over the page and the level
    if n_theta == 256:
        disk, index = page, page_index
    else:
        disk = sec.builtin_disk(ell, gamma1, theta0=0.0, n_r=128, n_theta=48)
        index = sec._DiskIndex(ell, disk)
    bd, rng = disk.boundary, np.random.default_rng(5)
    u = rng.normal(size=(400, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    k = rng.integers(len(bd), size=400)
    ys = np.vstack([
        bd, 0.5 * (bd + np.roll(bd, -1, axis=0)),
        bd[k] + index.boundary_chord * rng.uniform(0.0, 3.0, (400, 1)) * u,
        index.points[rng.integers(len(index.points), size=200)],
        u / np.sqrt(ell.H_batch(u))[:, None]])
    tree = cKDTree(bd)
    want = [max(0.0, float(tree.query(y)[0]) - 0.5 * index.boundary_chord)
            for y in ys]
    got = [index.boundary_distance(y) for y in ys]
    assert got == want
    assert got.count(0.0) > len(bd) and max(got) > 0.5


@pytest.mark.parametrize("twist, budget", [(0.0, BUDGET), (0.3, 4.6)])
def test_return_map_equals_the_unbounded_per_row_search(ell, page, gamma1,
                                                        twist, budget):
    # the conftest page, and a twisted one on which some seeds time out
    disk = twisted_page(ell, gamma1, amplitude=twist) if twist else page
    seeds = sec.disk_seeds(6)
    dirs = ["forward"] * 6 + ["backward"] * 6
    seeds = np.concatenate([seeds, seeds])
    with sec.counting_crossings() as search:
        got = sec.return_map(ell, disk, seeds, budget, dirs)
    assert (0 < sum(r["timeout"] for r in got)) == bool(twist)
    # the bounded query drops the scan points beyond the reach
    assert 0 < search["points_within_near"] < search["points_queried"]
    assert search["crossings_bisected"] >= sum(not r["timeout"] for r in got)
    want = sequential_return_map(ell, disk, seeds, budget, dirs)
    for g, w in zip(got, want, strict=True):
        assert g.keys() == w.keys()
        for key, value in g.items():
            if key == "return_point":
                assert np.array_equal(value, w[key])
            else:
                assert value == w[key], key


def test_return_map(ell, page):
    seeds = sec.disk_seeds(24)
    recs = sec.return_map(ell, page, seeds, t_budget=BUDGET,
                          direction="forward")
    assert all(not r["timeout"] for r in recs)
    for r in recs:
        assert abs(r["return_time"] - T_RETURN) < 1e-6


def test_return_map_backward_and_inverse(ell, page, page_index):
    seeds = sec.disk_seeds(6)
    back = sec.return_map(ell, page, seeds, t_budget=BUDGET,
                          direction="backward")
    assert all(not r["timeout"] for r in back)
    # chain the actual return points forward: flow invertibility
    pts = np.array([r["return_point"] for r in back])
    fwd = return_map_points(ell, page, pts, t_budget=BUDGET,
                            index=page_index)
    for (s0, t0), hit in zip(seeds, fwd):
        assert hit is not None
        x0 = sec._grid_point(page, s0, t0)
        x0 = x0 / np.sqrt(ell.H(x0))
        assert np.linalg.norm(hit[0] - x0) < 1e-6


def test_seed_on_binding_rejected(ell, page):
    with pytest.raises(DomainError):
        sec.return_map(ell, page, [(1.0, 0.2)], t_budget=BUDGET,
                       direction="forward")


def test_verify_global_section_small(ell, page):
    verdict, _, _ = sec.verify_global_section(ell, page, n_seeds=20,
                                              t_budget=BUDGET)
    assert verdict["passes"]
    assert verdict["timeouts_forward"] == 0
    assert verdict["timeouts_backward"] == 0


def test_verify_budget_sensitivity(ell, page):
    verdict, _, _ = sec.verify_global_section(ell, page, n_seeds=6, t_budget=2.0)
    assert not verdict["passes"]
    assert verdict["timeouts_forward"] == 6
    assert verdict["budget_note"] is not None


def test_verify_tangent_fixture_fails(ell, gamma1):
    disk = twisted_page(ell, gamma1, amplitude=1.0)
    verdict, _, _ = sec.verify_global_section(ell, disk, n_seeds=4,
                                              t_budget=BUDGET)
    assert not verdict["passes"]
    assert not verdict["sign_constant"]


def test_disk_area(ell, page):
    area, boundary = disk_area(ell, page)
    assert abs(area - np.pi) / np.pi < 1e-2
    assert abs(area - boundary) / abs(boundary) < 1e-2


def test_disk_area_additivity_and_half(ell, page):
    n_r = page.n_r
    i_half = round(n_r / SQ2)  # the inner region holds half the area
    inner, ring = disk_area(ell, page, rows=(0, i_half))
    outer, _ = disk_area(ell, page, rows=(i_half, n_r))
    total, _ = disk_area(ell, page)
    assert abs(total - inner - outer) < 1e-12
    assert inner == pytest.approx(ring_action(page, i_half), rel=1e-9)
    assert inner == pytest.approx(0.5 * np.pi, rel=5e-2)


def test_round_sphere_page_area(round_form):
    orbit = refine_orbit(round_form, np.array([1.0, 0, 0, 0]), np.pi)
    disk = sec.builtin_disk(round_form, orbit, theta0=0.0, n_r=128, n_theta=256)
    area, _ = disk_area(round_form, disk)
    assert abs(area - np.pi) / np.pi < 1e-2


def test_return_map_preserves_cell_actions(ell, page, page_index):
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

    for (ci, cj) in [(40, 10), (64, 100), (100, 200)]:
        poly = cell_polygon(ci, cj)
        a0 = polygon_action(poly)
        hits = return_map_points(ell, page, poly, t_budget=BUDGET,
                                 index=page_index)
        assert all(h is not None for h in hits)
        a1 = polygon_action(np.array([h[0] for h in hits]))
        assert abs(a1 - a0) / abs(a0) < 0.02


def test_disk_save_load(tmp_path, page):
    path = tmp_path / "disk.json"
    sec.save_disk(page, path)
    again = sec.load_disk(path)
    assert again.n_r == page.n_r and again.n_theta == page.n_theta
    assert np.abs(again.samples - page.samples).max() == 0.0  # 17 digits round-trip
    again.validate()


def test_disk_csv_is_savetxts_bytes(tmp_path):
    # signed zeros, the smallest subnormal, huge values and random magnitudes,
    # over more than one block of rows
    rng = np.random.default_rng(6)
    values = np.concatenate([[-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300],
                             rng.normal(size=2000) * 10.0 ** rng.uniform(-300, 300, 2000)])
    samples = np.resize(values, (5, 300, 4))
    sec.save_disk(sec.DiskGrid(samples=samples), tmp_path / "disk.json")
    np.savetxt(tmp_path / "want.csv", samples.reshape(-1, 4), fmt="%.17g",
               delimiter=",", header="x1,x2,x3,x4", comments="")
    assert (tmp_path / "disk.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_return_csv(tmp_path, ell, page):
    recs = sec.return_map(ell, page, sec.disk_seeds(3), t_budget=BUDGET,
                          direction="forward")
    recs.append({"seed_s": 0.5, "seed_t": 0.5, "timeout": True})
    path = tmp_path / "returns.csv"
    sec.write_return_csv(path, recs)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "seed_s,seed_t,ret_s,ret_t,time"
    assert len(lines) == 5
    assert lines[-1].endswith(",,,")


def test_verify_needs_a_seed(ell, page):
    with pytest.raises(DomainError):
        sec.verify_global_section(ell, page, n_seeds=0, t_budget=BUDGET)


def test_lockstep_records_equal_single_seed_runs(ell, gamma1):
    # the twist spreads the return times about pi sqrt(2), so a budget of
    # 4.6 times out some seeds; the batch mixes both directions
    disk = twisted_page(ell, gamma1, amplitude=0.3)
    seeds = sec.disk_seeds(12)
    dirs = ["forward", "backward"] * 6
    batch = sec.return_map(ell, disk, seeds, 4.6, dirs)
    assert 0 < sum(r["timeout"] for r in batch) < 12
    for seed, direction, rec in zip(seeds, dirs, batch):
        alone, = sec.return_map(ell, disk, [seed], 4.6, direction)
        assert alone.keys() == rec.keys()
        for key, value in rec.items():
            if key == "return_point":
                assert np.array_equal(value, alone[key])
            else:
                assert value == alone[key], key
    with pytest.raises(DomainError):
        sec.return_map(ell, disk, np.vstack([seeds, [(1.0, 0.2)]]), 4.6,
                       dirs + ["forward"])


def test_return_map_raises_the_first_failed_row(ell, page, monkeypatch):
    real = sec.integrate_batch
    errors = {7: StiffnessError("row 7", 0.0, None),
              3: StiffnessError("row 3", 0.0, None)}
    calls = []

    def failing(form, x, t_final, **kwargs):
        out = real(form, x, t_final, **kwargs)
        if not calls:  # the first chunk round holds every row
            for row, exc in errors.items():
                out[row] = exc
        calls.append(len(x))
        return out

    monkeypatch.setattr(sec, "integrate_batch", failing)
    with pytest.raises(StiffnessError) as info:
        sec.return_map(ell, page, sec.disk_seeds(8), BUDGET, "forward")
    assert info.value is errors[3]
    assert calls[0] == 8


def test_return_map_evaluates_no_run_itself(ell, page, monkeypatch):
    # each chunk's scan points come back with its flow, so no row calls a run
    want = sec.return_map(ell, page, sec.disk_seeds(4), BUDGET, "backward")

    def refuse(run, t):
        raise AssertionError("a row evaluated its run")

    monkeypatch.setattr(FlowResult, "__call__", refuse)
    got = sec.return_map(ell, page, sec.disk_seeds(4), BUDGET, "backward")
    assert not any(r["timeout"] for r in got)
    for g, w in zip(got, want, strict=True):
        assert g.keys() == w.keys()
        for key, value in g.items():
            assert np.array_equal(value, w[key]), key


def _invert_cell_reference(index, y, ci, cj):
    """One cell's Gauss-Newton inversion, the scalar loop that
    ``_DiskIndex.locate`` runs as array code."""
    S, n_t = index.samples, index.n_t
    if ci < -1 or ci + 2 >= len(S):
        return None
    c00 = c01 = S[0, 0]
    if ci >= 0:
        c00, c01 = S[ci + 1, cj], S[ci + 1, (cj + 1) % n_t]
    c10, c11 = S[ci + 2, cj], S[ci + 2, (cj + 1) % n_t]

    def bilinear(al, be):
        p = ((1 - al) * (1 - be) * c00 + al * (1 - be) * c10
             + (1 - al) * be * c01 + al * be * c11)
        da = (-(1 - be) * c00 + (1 - be) * c10 - be * c01 + be * c11)
        db = (-(1 - al) * c00 - al * c10 + (1 - al) * c01 + al * c11)
        return p, da, db

    al, be = 0.5, 0.5
    for _ in range(12):
        p, da, db = bilinear(al, be)
        r = y - p
        JTJ = np.array([[da @ da, da @ db], [da @ db, db @ db]])
        try:
            step = np.linalg.solve(JTJ, np.array([da @ r, db @ r]))
        except np.linalg.LinAlgError:
            return None
        al += step[0]
        be += step[1]
        if not (np.isfinite(al) and np.isfinite(be)):
            return None
        al = float(np.clip(al, -0.2, 1.2))
        be = float(np.clip(be, -0.2, 1.2))
        if np.linalg.norm(step) < 1e-13:
            break
    p, _, _ = bilinear(al, be)
    inside = -1e-2 <= al <= 1 + 1e-2 and -1e-2 <= be <= 1 + 1e-2
    return ((ci + 1 + al) / (len(S) - 1), ((cj + be) / n_t) % 1.0, p,
            float(np.linalg.norm(y - p)), inside)


def _locate_reference(index, y):
    _, fi = index.tree.query(y)
    i, j = divmod(int(fi), index.n_t)
    best = best_key = None
    for ci in (i - 1, i):
        for cj in (j - 1, j):
            res = _invert_cell_reference(index, y, ci, cj % index.n_t)
            if res is not None and (best is None
                                    or (not res[4], res[3]) < best_key):
                best, best_key = res, (not res[4], res[3])
    return best


def _assert_locations_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g is None) == (w is None)
        if g is not None:
            assert (g[0], g[1], g[3], g[4]) == (w[0], w[1], w[3], w[4])
            assert np.array_equal(g[2], w[2])


# node 0 .. n_theta - 1 are the first ring, whose inner cells are the pole
# cells ci = -1; -1 stands for the center itself
_near_nodes = st.lists(
    st.tuples(st.one_of(st.integers(-1, 255), st.integers(0, 128 * 256 - 1)),
              st.lists(st.floats(-1.5, 1.5), min_size=4, max_size=4)),
    min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(near=_near_nodes)
def test_locate_matches_scalar_cell_inversion(page, page_index, near):
    index = page_index
    ys = np.array([(page.samples[0, 0] if k < 0 else index.points[k])
                   + index.cell * np.array(offset) for k, offset in near])
    _assert_locations_equal(index.locate(ys),
                            [_locate_reference(index, y) for y in ys])


def test_locate_fails_a_singular_cell_alone(page, page_index):
    # rows 2 and 3 coincide, so the cells between them have no radial
    # tangent and a singular normal matrix; their neighbours still invert
    index = copy.copy(page_index)
    S = page.samples.copy()
    S[3] = S[2]
    index.samples, index.points = S, S[1:].reshape(-1, 4)
    index.tree = cKDTree(index.points)
    ys = S[2, 10:14] + 0.3 * (S[1, 10:14] - S[2, 10:14])
    assert _invert_cell_reference(index, ys[0], 1, 10) is None
    want = [_locate_reference(index, y) for y in ys]
    assert all(w is not None for w in want)
    _assert_locations_equal(index.locate(ys), want)
