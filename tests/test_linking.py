import numpy as np
import pytest

from reeb_atlas import linking as lk
from reeb_atlas.errors import PoleSelectionError, ProximityError

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
    tr = lk.trace_orbit(ell, gamma1, n=512)
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
    t1 = lk.trace_orbit(ell, gamma1, n=512)
    t2 = lk.trace_orbit(ell, gamma2, n=512)
    val, resid = lk.linking_number(t1, t2)
    assert val == 1
    assert resid < 0.1
    assert lk.crossing_linking(t1, t2) == 1
    # symmetry and orientation reversal
    assert lk.linking_number(t2, t1)[0] == 1
    assert lk.linking_number(t1, t2[::-1])[0] == -1


def test_linking_densification_invariance(ell, gamma1, gamma2):
    for n in (512, 2048):
        t1 = lk.trace_orbit(ell, gamma1, n=n)
        t2 = lk.trace_orbit(ell, gamma2, n=n)
        assert lk.linking_number(t1, t2)[0] == 1


def test_unlinked_distant_circles():
    c1 = np.stack([0.1 * np.cos(TH) + 1, 0.1 * np.sin(TH),
                   0 * TH, 0 * TH + 0.05], axis=1)
    c2 = np.stack([0 * TH + 0.05, 0.1 * np.cos(TH),
                   0.1 * np.sin(TH) + 1, 0 * TH], axis=1)
    assert lk.linking_number(c1, c2)[0] == 0
    assert lk.crossing_linking(c1, c2) == 0


def test_proximity_rejection():
    c = hopf_circle_1()
    with pytest.raises(ProximityError):
        lk.linking_number(c, c + 1e-5)


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
            g = lk.linking_number(a, b)[0]
        except ProximityError:
            continue
        assert lk.crossing_linking(a, b) == g
        checked += 1
    assert checked >= 40


def test_census_residuals_at_rounding_level(ell, gamma1, gamma2):
    # the T_max 14 ellipsoid census: gamma1^1..4 and gamma2^1..3; only pairs
    # of distinct circles have a linking number, the product of the covers
    entries = [g.iterate(k) for g, kmax in ((gamma1, 4), (gamma2, 3))
               for k in range(1, kmax + 1)]
    traces = [lk.trace_orbit(ell, o, n=512) for o in entries]
    computed = 0
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            try:
                val, resid = lk.linking_number(traces[i], traces[j])
            except ProximityError:
                assert entries[i].T_min == entries[j].T_min
                continue
            assert val == entries[i].multiplicity * entries[j].multiplicity
            assert resid < 1e-12
            computed += 1
    assert computed == 12


def test_self_linking_values(ell, gamma1, gamma2):
    assert lk.self_linking(ell, gamma1) == -1
    assert lk.self_linking(ell, gamma2) == -1


def test_self_linking_pushoff_stability(ell, gamma1):
    for eps in (1e-2, 5e-3, 2.5e-3):
        assert lk.self_linking(ell, gamma1, eps=eps) == -1


def test_self_linking_frame_choice_invariance(ell, gamma1):
    assert lk.self_linking(ell, gamma1, frame_vector="e2") == -1


def test_unknot_certification(ell, gamma1, gamma2):
    t1 = lk.trace_orbit(ell, gamma1, n=512)
    assert lk.unknot_check(t1).status == "certified_unknot"
    t2 = lk.trace_orbit(ell, gamma2, n=512)
    assert lk.unknot_check(t2).status == "certified_unknot"


def test_unknot_round_circle():
    v = lk.unknot_check(hopf_circle_1())
    assert v.status == "certified_unknot"
    assert v.crossing_count_after_reduction == 0


def test_trefoil_abstains():
    v = lk.unknot_check(trefoil_trace())
    assert v.status == "unknown"
    assert v.crossing_count_after_reduction >= 3
