import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_atlas import linking as lk
from reeb_atlas.contact import StarForm, project_to_sigma, reeb_vector, xi_frame
from reeb_atlas.cz import prime_table
from reeb_atlas.errors import (InconsistencyError, PoleSelectionError,
                               ProximityError, ResolutionError)
from reeb_atlas.orbits import ReebOrbit, trace_orbit, trace_orbits

from oracles import (blocked_gauss_linking_raw, flat_trefoil_trace,
                     framed_curve, full_grid_crossings, pushoff_linking,
                     same_scan)

TH = np.linspace(0, 2 * np.pi, 512, endpoint=False)


def hopf_circle_1(radius=1.0):
    return np.stack([radius * np.cos(TH), radius * np.sin(TH),
                     0 * TH, 0 * TH], axis=1)


def hopf_circle_2(radius=1.0):
    return np.stack([0 * TH, 0 * TH,
                     radius * np.cos(TH), radius * np.sin(TH)], axis=1)


def trefoil_trace():
    return np.stack([
        (2 + np.cos(3 * TH)) * np.cos(2 * TH),
        (2 + np.cos(3 * TH)) * np.sin(2 * TH),
        np.sin(3 * TH),
        3 * np.ones_like(TH),
    ], axis=1)


def test_pole_count_and_selection():
    assert len(lk.POLE_CANDIDATES) == 26
    pole = lk.pick_pole([hopf_circle_1()])
    assert np.linalg.norm(pole) == pytest.approx(1.0)


def test_stereo_great_circle_is_round_circle():
    # a great circle avoiding the pole maps to a perfectly round circle
    # (note a great circle through the antipode of the pole would also pass
    # through the pole itself, so "avoiding" is the only sensible reading)
    pole = np.array([1.0, 0.0, 0.0, 0.0])
    pts = hopf_circle_2()
    img = lk.stereo_project(pts, pole)
    center = img.mean(axis=0)
    radii = np.linalg.norm(img - center, axis=1)
    assert radii.std() / radii.mean() < 1e-9
    # tilted great circle, still avoiding the pole
    w1 = np.array([0.0, 1.0, 0.0, 0.0])
    w2 = np.array([0.0, 0.0, np.sqrt(0.5), np.sqrt(0.5)])
    pts = np.cos(TH)[:, None] * w1 + np.sin(TH)[:, None] * w2
    img = lk.stereo_project(pts, pole)
    center = img.mean(axis=0)
    radii = np.linalg.norm(img - center, axis=1)
    assert radii.std() / radii.mean() < 1e-9


def test_stereo_preserves_closure(ell, gamma1):
    tr = trace_orbit(ell, gamma1, n=512)
    pole = lk.pick_pole([tr])
    img = lk.stereo_project(tr, pole)
    gap = np.linalg.norm(img[0] - img[-1])
    chord = np.linalg.norm(np.diff(img, axis=0), axis=1).max()
    assert gap < max(1e-6, 1.5 * chord)


def test_stereo_pole_on_curve_rejected():
    pts = hopf_circle_1()
    with pytest.raises(PoleSelectionError):
        lk.stereo_project(pts, np.array([1.0, 0.0, 0.0, 0.0]))


def test_linking_hopf_pair(ell, gamma1, gamma2):
    t1 = trace_orbit(ell, gamma1, n=512)
    t2 = trace_orbit(ell, gamma2, n=512)
    val, resid = lk.linking_number(*lk.stereo_pair(t1, t2))
    assert val == 1
    assert resid < 0.1
    assert lk.crossing_linking(*lk.stereo_pair(t1, t2)) == 1
    # symmetry and orientation reversal
    assert lk.linking_number(*lk.stereo_pair(t2, t1))[0] == 1
    assert lk.linking_number(*lk.stereo_pair(t1, t2[::-1]))[0] == -1


def test_linking_densification_invariance(ell, gamma1, gamma2):
    for n in (512, 2048):
        t1 = trace_orbit(ell, gamma1, n=n)
        t2 = trace_orbit(ell, gamma2, n=n)
        assert lk.linking_number(*lk.stereo_pair(t1, t2))[0] == 1


def test_unlinked_distant_circles():
    c1 = np.stack([0.1 * np.cos(TH) + 1, 0.1 * np.sin(TH),
                   0 * TH, 0 * TH + 0.05], axis=1)
    c2 = np.stack([0 * TH + 0.05, 0.1 * np.cos(TH),
                   0.1 * np.sin(TH) + 1, 0 * TH], axis=1)
    assert lk.linking_number(*lk.stereo_pair(c1, c2))[0] == 0
    assert lk.crossing_linking(*lk.stereo_pair(c1, c2)) == 0


def test_proximity_rejection():
    c = hopf_circle_1()
    with pytest.raises(ProximityError):
        lk.linking_number(*lk.stereo_pair(c, c + 1e-5))


def test_gauss_vs_crossing_on_random_pairs():
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
            pts = (center[None, :] + radius * np.cos(TH)[:, None] * b1[None, :]
                   + radius * np.sin(TH)[:, None] * b2[None, :])
            pts += 0.05 * rng.uniform() * np.sin(2 * TH)[:, None] * center[None, :]
            return pts

        a = loop(centers[0], rng.uniform(0.3, 0.9))
        b = loop(centers[1], rng.uniform(0.3, 0.9))
        try:
            g = lk.linking_number(*lk.stereo_pair(a, b))[0]
        except ProximityError:
            continue
        assert lk.crossing_linking(*lk.stereo_pair(a, b)) == g
        checked += 1
    assert checked >= 40


def test_census_residuals_at_rounding_level(ell, gamma1, gamma2):
    # the T_max 14 ellipsoid census: gamma1^1..4 and gamma2^1..3; only pairs
    # of distinct circles have a linking number, the product of the covers
    entries = [g.iterate(k) for g, kmax in ((gamma1, 4), (gamma2, 3))
               for k in range(1, kmax + 1)]
    traces = [trace_orbit(ell, o, n=512) for o in entries]
    computed = 0
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            try:
                val, resid = lk.linking_number(
                    *lk.stereo_pair(traces[i], traces[j]))
            except ProximityError:
                assert entries[i].T_min == entries[j].T_min
                continue
            assert val == entries[i].multiplicity * entries[j].multiplicity
            assert resid < 1e-12
            computed += 1
    assert computed == 12


def test_self_linking_values(ell, gamma1, gamma2):
    assert lk.self_linking(ell, trace_orbit(ell, gamma1, n=512)).sl == -1
    assert lk.self_linking(ell, trace_orbit(ell, gamma2, n=512)).sl == -1


def test_self_linking_pushoff_stability(ell, gamma1):
    trace = trace_orbit(ell, gamma1, n=512)
    for eps in (1e-2, 5e-3, 2.5e-3):
        assert pushoff_linking(ell, trace, eps, "e1") == -1


@pytest.mark.parametrize("knot, turns", [
    ("trefoil", -2), ("trefoil", 0), ("trefoil", 3), ("mirror-trefoil", -1),
    ("mirror-trefoil", 2), ("unknot", -1), ("unknot", 2)])
def test_writhe_plus_twist_is_the_gauss_sum_on_framed_curves(knot, turns):
    # Calugareanu-White on framed curves in R^3: the shadow's writhe is -3 for
    # the left-handed trefoil, 3 for its mirror and 0 for the unknot, and
    # the twist counts the framing's right-handed turns
    a3, b3 = framed_curve(knot, turns, 0.05)
    writhe, twist, _ = lk._writhe_twist(a3, b3)
    assert writhe == {"trefoil": -3, "mirror-trefoil": 3, "unknot": 0}[knot]
    assert twist == turns
    assert writhe + twist == int(np.rint(blocked_gauss_linking_raw(a3, b3)))


def test_the_twist_refuses_a_cusp_of_the_shadow(ell, gamma2):
    # along the first direction gamma2's shadow has a cusp, where the
    # blackboard frame flips by about pi in one step; the wrapped angle sum
    # is an integer all the same, so only the step bound refuses it.  That
    # shadow is edge-on, a stretch of a line, so the crossing scan refuses
    # it too and no writhe is read off it
    trace = trace_orbit(ell, gamma2, n=512)
    pushed = project_to_sigma(ell, trace + lk._PUSHOFF * xi_frame(ell, trace).e1)
    a3, b3 = lk.stereo_pair(trace, pushed)
    d0 = lk._PLANE_DIRECTIONS[0]
    assert lk._twist(a3, b3, d0) is None
    assert lk._crossing_scan(a3, a3, d0) is None
    rec = lk.self_linking(ell, trace)
    assert (rec.sl, rec.writhe, rec.twist) == (-1, 0, -1)
    assert rec.direction == [1.0, 0.0, 0.0]


def test_a_pushoff_too_large_for_the_curve_makes_the_routes_disagree(
        round_form):
    # the flattened trefoil's strands pass 0.023 apart at height 0.03 but
    # 0.008 apart at height 0.005, where the pushoff of size 1e-2 runs through
    # a strand: that changes the Gauss sum, not writhe plus twist
    rec = lk.self_linking(round_form, flat_trefoil_trace(round_form, 0.03))
    assert (rec.sl, rec.writhe, rec.twist) == (-5, -3, -2)
    with pytest.raises(InconsistencyError, match="Gauss sum gives sl -3 but "
                       "writhe -3 plus twist -2 gives -5"):
        lk.self_linking(round_form, flat_trefoil_trace(round_form, 0.005))


def test_self_linking_frame_choice_invariance(ell, gamma1):
    trace = trace_orbit(ell, gamma1, n=512)
    assert pushoff_linking(ell, trace, 1e-2, "e2") == -1


def test_unknot_certification(ell, gamma1, gamma2):
    t1 = trace_orbit(ell, gamma1, n=512)
    assert lk.unknot_check(t1).status == "certified_unknot"
    t2 = trace_orbit(ell, gamma2, n=512)
    assert lk.unknot_check(t2).status == "certified_unknot"


def test_unknot_round_circle():
    v = lk.unknot_check(hopf_circle_1())
    assert v.status == "certified_unknot"
    assert v.crossing_count_after_reduction == 0


def test_unknot_check_projects_from_pick_poles_pole(monkeypatch):
    # the great circle through (cos .05, 0, sin .05, 0) and e1 passes 0.05
    # from e0, which stereo_project admits but pick_pole does not
    a = np.array([np.cos(0.05), 0.0, np.sin(0.05), 0.0])
    circle = np.outer(np.cos(TH), a) + np.outer(np.sin(TH), [0.0, 1.0, 0.0, 0.0])
    pole = lk.pick_pole([circle])
    np.testing.assert_array_equal(pole, [0.0, 0.0, 1.0, 0.0])
    real, poles = lk.stereo_project, []

    def spy(points, p):
        poles.append(np.asarray(p))
        return real(points, p)

    monkeypatch.setattr(lk, "stereo_project", spy)
    assert lk.unknot_check(circle).status == "certified_unknot"
    assert len(poles) == 1
    np.testing.assert_array_equal(poles[0], pole)


def test_trefoil_abstains():
    v = lk.unknot_check(trefoil_trace())
    assert v.status == "unknown"
    assert v.crossing_count_after_reduction >= 3


@pytest.mark.parametrize("n", [3, 4, 63, 64, 65, 66, 129, 200])
def test_self_crossing_bands_equal_the_full_grid(n):
    # wound torus knots with jitter, sampled below, at and past one band of
    # rows; every crossing word, None included, is the full grid's
    rng = np.random.default_rng(n)
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    for p, q in ((2, 3), (3, 5), (1, 1)):
        p3 = np.stack([(2 + np.cos(q * th)) * np.cos(p * th),
                       (2 + np.cos(q * th)) * np.sin(p * th),
                       np.sin(q * th)], axis=1)
        p3 += 0.01 * rng.normal(size=p3.shape)
        for direction in lk._PLANE_DIRECTIONS:
            assert same_scan(lk._crossing_scan(p3, p3, direction),
                             full_grid_crossings(p3, p3, direction))


@pytest.mark.parametrize("n", [3, 31, 32, 33, 63, 64, 65, 200])
def test_pair_crossing_tiles_equal_the_full_grid(n):
    # random polygon pairs, with a's segments below, at and past one band
    # of rows; every scan, None included, is the full grid's
    rng = np.random.default_rng(n)
    for m in (3, 64, 129):
        a3 = rng.uniform(-1.0, 1.0, size=(n, 3))
        b3 = rng.uniform(-1.0, 1.0, size=(m, 3))
        for direction in lk._PLANE_DIRECTIONS:
            assert same_scan(lk._crossing_scan(a3, b3, direction),
                             full_grid_crossings(a3, b3, direction))


def test_pair_crossing_tiles_see_a_near_parallel_crossing():
    # a's segment 100, in its second band, has a strand of b above it that
    # turns by 1e-12 rad in the plane normal to z; b's other strands cross a
    # generically in the first and second bands
    th = np.linspace(0.0, 2.0 * np.pi, 130, endpoint=False)
    a3 = np.stack([np.cos(th), np.sin(th), 0.1 * np.sin(3 * th)], axis=1)
    seg = a3[101] - a3[100]
    turn = 1e-12 * np.array([-seg[1], seg[0], 0.0])
    b3 = np.array([a3[100] + 0.25 * seg + [0.0, 0.0, 1.0],
                   a3[100] + 0.75 * seg + turn + [0.0, 0.0, 1.0],
                   [3.0, 3.0, 0.5], [-3.0, 0.0, -0.5]])
    results = [lk._crossing_scan(a3, b3, d) for d in lk._PLANE_DIRECTIONS]
    assert results[0] is None
    assert all(same_scan(x, full_grid_crossings(a3, b3, d))
               for x, d in zip(results, lk._PLANE_DIRECTIONS))
    # the crossing count moves on to y, whose shadow is generic
    assert results[1] is not None
    assert lk.crossing_linking(a3, b3) == 0


def test_the_crossing_count_finds_no_generic_direction():
    # b shares a stretch of a's line in R^3, so along every direction their
    # shadows overlap on one line and every scan refuses
    a3 = np.array([[0.0, 0.0, 0.0], [1.0, 0.2, 0.3], [0.5, 1.0, -0.2]])
    b3 = np.array([[0.25, 0.05, 0.075], [0.75, 0.15, 0.225],
                   [0.1, -1.0, 0.7]])
    assert all(lk._crossing_scan(a3, b3, d) is None
               for d in lk._PLANE_DIRECTIONS)
    with pytest.raises(ResolutionError, match="no generic projection"):
        lk.crossing_linking(a3, b3)


# weights f = 1 + c1 A + c2 B + c3 A^2 + c4 A B + c5 B^2 in A = u1^2 + u2^2
# and B = u3^2 + u4^2: positive on the sphere for c in [-0.3, 0.6], and
# invariant under the rotations of both coordinate planes, so the two
# coordinate circles are periodic orbits at any coefficients
_TORIC = [
    [((2, 0, 0, 0), 1), ((0, 2, 0, 0), 1)],
    [((0, 0, 2, 0), 1), ((0, 0, 0, 2), 1)],
    [((4, 0, 0, 0), 1), ((2, 2, 0, 0), 2), ((0, 4, 0, 0), 1)],
    [((2, 0, 2, 0), 1), ((2, 0, 0, 2), 1), ((0, 2, 2, 0), 1), ((0, 2, 0, 2), 1)],
    [((0, 0, 4, 0), 1), ((0, 0, 2, 2), 2), ((0, 0, 0, 4), 1)],
]
_coefficients = st.lists(st.floats(-0.3, 0.6), min_size=5, max_size=5)


def _toric_primes(coeffs):
    """A random toric weighted form and its two coordinate circles; each
    circle's period is 2 pi r / |R|, its Reeb speed being constant."""
    form = StarForm.weighted([((0, 0, 0, 0), 1.0)] + [
        (e, c * m) for c, terms in zip(coeffs, _TORIC) for e, m in terms])
    primes = []
    for axis in (0, 2):
        x0 = project_to_sigma(form, np.eye(4)[axis])
        T = 2 * np.pi * np.linalg.norm(x0) / np.linalg.norm(reeb_vector(form, x0))
        primes.append(ReebOrbit(x0=x0, T_min=T, multiplicity=1,
                                monodromy=np.eye(2), nondeg_class="elliptic",
                                residual=0.0))
    return form, primes


def _cover(orbit, k):
    return dataclasses.replace(orbit, multiplicity=k)


@settings(max_examples=3, deadline=None)
@given(coeffs=_coefficients)
def test_cover_linking_data_follow_from_the_primes(coeffs):
    # a b lk(P, Q) and k^2 sl(P) from the prime table equal the Gauss sums on
    # the full-cover traces
    form, (p, q) = _toric_primes(coeffs)
    with prime_table():
        for a, b in ((2, 1), (1, 3)):
            pa, qb = _cover(p, a), _cover(q, b)
            direct = lk.linking_number(*lk.stereo_pair(
                trace_orbit(form, pa, 512), trace_orbit(form, qb, 512)))
            assert lk.cover_linking(form, pa, qb)[0] == direct[0] == a * b
        for orbit in (p, q):
            double = _cover(orbit, 2)
            direct = lk.self_linking(form, trace_orbit(form, double, 512)).sl
            assert lk.cover_self_linking(form, double) == direct == -4


@settings(max_examples=4, deadline=None)
@given(coeffs=_coefficients)
def test_gauss_and_crossing_count_agree_on_prime_pairs(coeffs):
    # the prime pair, and each prime with its pushoff along the global frame
    form, primes = _toric_primes(coeffs)
    tp, tq = lk.prime_traces(form, primes)
    pairs = [(tp, tq)] + [
        (t, project_to_sigma(form, t + 1e-2 * xi_frame(form, t).e1))
        for t in (tp, tq)]
    for a, b in pairs:
        crossing = lk.crossing_linking(*lk.stereo_pair(a, b))
        assert crossing == lk.linking_number(*lk.stereo_pair(a, b))[0]


# ---------------------------------------------------------------------------
# the box culling of the crossing scans, against the full grid
# ---------------------------------------------------------------------------

def _loop(n, radius, seed, moved):
    """n vertices on a circle about the z-axis, at random heights, with the
    vertices ``moved`` (index: (x, y)) put elsewhere in the plane."""
    th = 2 * np.pi * np.arange(n) / n
    p3 = np.stack([radius * np.cos(th), radius * np.sin(th),
                   np.random.default_rng(seed).uniform(size=n)], axis=1)
    for i, xy in moved.items():
        p3[i, :2] = xy
    return p3


# two segments (A, A') and (B, B') of near-parallel lines, 2.4e-9 rad apart,
# B 7e-9 past A' along x: their boxes are that far apart, yet the rounded
# parameters put the crossing inside both, t = 1 - 4.5e-8 and u = 4.5e-8
_ROUNDED = ([-0.433106780255472, 0.9005225745390393],
            [0.06802755787129122, 1.5344129816011587],
            [0.068027564810683, 1.5344129903788726],
            [0.4710416944352878, 2.044190055088853])


def test_the_self_scan_keeps_a_rounded_crossing_across_a_band_edge():
    # segment 63 ends band 0 and segment 100 is in band 1; only the pad
    # keeps the pair, whose crossing the full grid counts
    a, a1, b, b1 = _ROUNDED
    p3 = _loop(130, 3.0, 0, {63: a, 64: a1, 100: b, 101: b1})
    ii, jj = lk._crossing_scan(p3, p3, lk._PLANE_DIRECTIONS[0])[:2]
    assert (63, 100) in zip(ii.tolist(), jj.tolist())
    for direction in lk._PLANE_DIRECTIONS:
        assert same_scan(lk._crossing_scan(p3, p3, direction),
                         full_grid_crossings(p3, p3, direction))


def test_the_pair_scan_keeps_a_rounded_crossing_across_a_band_edge():
    # a's segment 63 ends its first band; b's segment 10 meets it only
    # through the pad
    a, a1, b, b1 = _ROUNDED
    a3 = _loop(70, 3.0, 1, {63: a, 64: a1})
    b3 = _loop(40, 4.0, 2, {10: b, 11: b1})
    results = [lk._crossing_scan(a3, b3, d) for d in lk._PLANE_DIRECTIONS]
    assert (63, 10) in zip(*(v.tolist() for v in results[0][:2]))
    assert lk._crossing_signs(*results[0][4:]) == -1
    assert all(same_scan(x, full_grid_crossings(a3, b3, d))
               for x, d in zip(results, lk._PLANE_DIRECTIONS))


def test_the_pair_scan_passes_a_distant_near_collinear_pair():
    # a's segment 31 and b's segment 10 lie on one line to rounding, 2.2
    # apart; their boxes do not meet, so they cannot touch and the shadow
    # stays generic
    a3 = _loop(70, 3.0, 1, {31: [0.88587478523297, -0.6171047761844979],
                            32: [1.3674219990120502, -0.12904929182652103]})
    b3 = _loop(40, 4.0, 2, {10: [2.9406992548909163, 1.4654913288562395],
                            11: [3.185383534881439, 1.713482598182415]})
    results = [lk._crossing_scan(a3, b3, d) for d in lk._PLANE_DIRECTIONS]
    assert lk._crossing_signs(*results[0][4:]) == 0
    assert all(same_scan(x, full_grid_crossings(a3, b3, d))
               for x, d in zip(results, lk._PLANE_DIRECTIONS))


def test_an_edge_on_shadow_equals_the_full_grid():
    # a figure eight and an ellipse in the plane y = 0: along z each shadow
    # is a stretch of the x-axis, of extent [2, 0] (census-queries sees its
    # circles so), which both scans refuse, and along the other directions
    # the eight crosses itself
    th = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    p3 = np.stack([np.cos(th), 0 * th, np.sin(2 * th)], axis=1)
    q3 = np.stack([0.5 + np.cos(th), 0 * th, 0.3 * np.sin(th)], axis=1)
    d0 = lk._PLANE_DIRECTIONS[0]
    np.testing.assert_array_equal(np.ptp(lk._shadow(p3, d0)[0], axis=1),
                                  [2.0, 0.0])
    assert lk._crossing_scan(p3, p3, d0) is None
    assert lk._crossing_scan(p3, q3, d0) is None
    for direction in lk._PLANE_DIRECTIONS:
        assert same_scan(lk._crossing_scan(p3, p3, direction),
                         full_grid_crossings(p3, p3, direction))
        assert same_scan(lk._crossing_scan(p3, q3, direction),
                         full_grid_crossings(p3, q3, direction))


@pytest.mark.parametrize("n", [65, 66, 130])
def test_bands_without_candidates_equal_the_full_grid(n):
    # on a circle no segment's box meets that of any segment j >= i + 2, so
    # no band keeps a pair, and at n = 65 and 66 the last band has no column
    th = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    p3 = np.stack([np.cos(th), np.sin(th), 0.2 * np.cos(th)], axis=1)
    assert lk._self_crossings(p3, lk._PLANE_DIRECTIONS[0]) == []
    for direction in lk._PLANE_DIRECTIONS:
        assert same_scan(lk._crossing_scan(p3, p3, direction),
                         full_grid_crossings(p3, p3, direction))


def test_culled_scans_equal_the_full_grid_on_census_traces(
        ell, gamma1, gamma2, dumbbell_12_searched):
    # census-queries' two primes and the searched K = 1.2 dumbbell's four:
    # each trace's unknot image and self-linking image, and each pair of
    # primes of one form, along all 13 directions; census-queries' circles
    # include an edge-on shadow, and the dumbbell has unlinked pairs
    dumbbell, db = dumbbell_12_searched
    edge_on = 0
    for form, primes in ((ell, [gamma1, gamma2]),
                         (dumbbell, [o for o in db.orbits
                                     if o.multiplicity == 1])):
        traces = trace_orbits(form, primes, 512)
        images = []
        for t in traces:
            pushed = project_to_sigma(
                form, t + lk._PUSHOFF * xi_frame(form, t).e1)
            images += [lk.stereo_project(t, lk.pick_pole([t])),
                       lk.stereo_pair(t, pushed)[0]]
        pairs = [lk.stereo_pair(a, b) for k, a in enumerate(traces)
                 for b in traces[k + 1:]]
        for direction in lk._PLANE_DIRECTIONS:
            for p3 in images:
                scan = lk._crossing_scan(p3, p3, direction)
                if np.ptp(lk._shadow(p3, direction)[0], axis=1).min() < 1e-12:
                    edge_on += 1
                    assert scan is None
                assert same_scan(scan, full_grid_crossings(p3, p3, direction))
            for a3, b3 in pairs:
                assert same_scan(lk._crossing_scan(a3, b3, direction),
                                 full_grid_crossings(a3, b3, direction))
    assert edge_on
