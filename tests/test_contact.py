import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtri
from scipy.stats import qmc

from reeb_atlas import contact, kernels
from reeb_atlas.contact import (OMEGA, StarForm, omega_form,
                                project_to_sigma, reeb_vector, sphere_samples,
                                xi_frame, xi_projector)
from reeb_atlas.errors import DomainError, FrameDegeneracyError, OffLevelError
from reeb_atlas.flow import _rhs
from reeb_atlas.sections import disk_seeds

from oracles import embed, form_json, lambda0, round_sphere, xi_project


def quat_j(x):
    return np.array([-x[2], x[3], x[0], -x[1]])


def test_round_sphere_h_and_grad():
    rs = round_sphere()
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert rs.H(x) == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(rs.grad_H(x), [2.0, 0.0, 0.0, 0.0], atol=1e-15)


def test_ellipsoid_h_example():
    form = StarForm.ellipsoid(1.0, 2.0)
    x = np.array([0.0, 0.0, np.sqrt(2.0) * np.cos(0.0), 0.0])
    assert form.H(x) == pytest.approx(1.0, abs=1e-14)


def test_grad_matches_finite_differences(near_ell_weighted):
    # independent oracle: central finite differences at step 1e-5
    form = near_ell_weighted
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=4)
        g = form.grad_H(x)
        fd = np.empty(4)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-5
            fd[i] = (form.H(x + e) - form.H(x - e)) / 2e-5
        worst = max(worst, np.abs(g - fd).max() / max(1.0, np.abs(g).max()))
    assert worst < 1e-6


def test_hessian_matches_finite_differences(perturbed_form):
    form = perturbed_form
    rng = np.random.default_rng(12)
    for _ in range(25):
        x = rng.normal(size=4)
        hh = form.hess_H(x)
        for i in range(4):
            e = np.zeros(4)
            e[i] = 1e-5
            col = (form.grad_H(x + e) - form.grad_H(x - e)) / 2e-5
            assert np.abs(hh[:, i] - col).max() < 1e-6 * max(1.0, np.abs(hh).max())


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.5, 2.0),
       comps=st.tuples(*[st.floats(-2, 2) for _ in range(4)]))
def test_homogeneity(s, comps):
    form = StarForm.ellipsoid(1.0, np.sqrt(2.0))
    x = np.array(comps)
    if np.linalg.norm(x) < 1e-2:
        return
    assert abs(form.H(s * x) - s * s * form.H(x)) <= 1e-12 * abs(form.H(s * x))


def test_weighted_homogeneity(near_ell_weighted):
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.normal(size=4)
        s = rng.uniform(0.5, 2.0)
        h1, h2 = near_ell_weighted.H(s * x), near_ell_weighted.H(x)
        assert abs(h1 - s * s * h2) <= 1e-12 * abs(h1)


def test_positivity_rejection():
    with pytest.raises(DomainError):
        StarForm.weighted([((0, 0, 0, 0), 1.0), ((2, 0, 0, 0), -3.0)])


def test_weighted_forms_share_one_sample_draw(monkeypatch):
    draws = []

    def counted(n, seed_skip=0):
        draws.append(n)
        return sphere_samples(n, seed_skip)

    monkeypatch.setattr(contact, "sphere_samples", counted)
    contact._positivity_sample.cache_clear()
    StarForm.ellipsoid(1.0, 2.0)
    assert draws == []  # an ellipsoid never draws it
    StarForm.weighted([((0, 0, 0, 0), 1.0), ((2, 0, 0, 0), 0.5)])
    StarForm.weighted([((0, 0, 0, 0), 1.0), ((0, 0, 2, 2), 0.25)])
    assert draws == [10_000]
    u = contact._positivity_sample()
    assert not u.flags.writeable
    assert np.array_equal(u, sphere_samples(10_000).T)
    with pytest.raises(DomainError, match="not positive"):
        StarForm.weighted([((0, 0, 0, 0), 1.0), ((2, 0, 0, 0), -3.0)])
    assert draws == [10_000]


@pytest.mark.parametrize("exps", [[(2, 0, 0, 0)], [(3, 0, 1, 0)],
                                  [(0, 4, 0, 0), (1, 0, 2, 1)]])
def test_positivity_decision_at_the_boundary(exps):
    # p = c - q with c a relative 1e-12 above or below the largest q on the
    # check's sphere samples, q taken there by float powers
    u = sphere_samples(10_000)
    q_max = np.prod(u[:, None, :] ** np.array(exps), axis=-1).sum(axis=1).max()
    mons = [(e, -1.0) for e in exps]
    StarForm.weighted([((0, 0, 0, 0), q_max * (1 + 1e-12))] + mons)
    with pytest.raises(DomainError, match="not positive"):
        StarForm.weighted([((0, 0, 0, 0), q_max * (1 - 1e-12))] + mons)


def scipy_sobol(d, skip, n):
    """Points skip .. skip + n - 1 of scipy's unscrambled Sobol engine."""
    eng = qmc.Sobol(d=d, scramble=False)
    if skip:  # a fresh engine cannot fast-forward by 0
        eng.fast_forward(skip)
    with warnings.catch_warnings():  # n need not be a power of 2
        warnings.simplefilter("ignore", UserWarning)
        return eng.random(n)


# the positivity check's draw, the census windows of n seeds at rng_seed k,
# the disk seeds and the last window below 2^30
SOBOL_WINDOWS = [
    (4, 0, 10_008), *((4, k * (n + 1), n + 8) for n in (16, 32, 256)
                      for k in (0, 1, 7)),
    (2, 1, 500), (4, 2**30 - 1008, 1000)]


@pytest.mark.parametrize("d, skip, n", SOBOL_WINDOWS)
def test_sobol_points_are_scipys_bit_for_bit(d, skip, n):
    got, want = contact.sobol_points(d, skip, n), scipy_sobol(d, skip, n)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _assert_ndtri_is_scipys(p):
    got, want = contact._ndtri(p), ndtri(np.clip(p, 1e-12, 1 - 1e-12))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, skip, n", SOBOL_WINDOWS)
def test_ndtri_is_scipys_bit_for_bit(d, skip, n):
    _assert_ndtri_is_scipys(contact.sobol_points(d, skip, n))


def test_ndtri_branch_edges_are_scipys():
    # exp(-2) and 1 - exp(-2), where the central branch meets the tails, one
    # ulp either way; the centre; the clip's ends and the points past them
    edges = [contact._EXP_M2, 1.0 - contact._EXP_M2]
    p = np.array([*(np.nextafter(e, t) for e in edges for t in (0.0, 1.0)),
                  *edges, 0.5, 1e-12, 1 - 1e-12, 0.0, 1.0])
    _assert_ndtri_is_scipys(p)


def test_the_clip_keeps_ndtri_off_cephes_third_branch():
    # the tail's x = sqrt(-2 log y) at both clipped ends is below 8, where
    # Cephes' third branch starts (y = exp(-32)); so are the port's ends
    for y in (1e-12, 1.0 - (1 - 1e-12)):
        assert math.sqrt(-2.0 * math.log(y)) < 8.0
    lo, hi = contact._ndtri(np.array([0.0, 1.0]))
    third = ndtri(math.exp(-32))
    assert third < lo < 0.0 < hi < -third


@pytest.mark.parametrize("d, skip, n", [
    (0, 0, 1), (5, 0, 1), (4, -1, 1), (4, 2**30 - 4, 5), (2, 2**30, 1)])
def test_sobol_window_outside_the_tables_raises(d, skip, n):
    with pytest.raises(DomainError, match="Sobol window"):
        contact.sobol_points(d, skip, n)


def test_every_sobol_caller_keeps_the_window():
    # the last point below 2^30 is drawn; one more raises, in every caller
    assert contact.sobol_points(1, 2**30 - 1, 1).shape == (1, 1)
    assert sphere_samples(4, seed_skip=2**30 - 12).shape == (4, 4)
    with pytest.raises(DomainError, match="Sobol window"):
        sphere_samples(4, seed_skip=2**30 - 11)
    with pytest.raises(DomainError, match="Sobol window"):
        disk_seeds(2**30)


def test_zero_input_rejected():
    rs = round_sphere()
    with pytest.raises(DomainError):
        rs.H(np.zeros(4))
    with pytest.raises(DomainError):
        rs.grad_H(np.zeros(4))


def test_json_roundtrip_and_nonfinite_rejection():
    form = StarForm.ellipsoid(1.0, np.sqrt(2.0), name="e")
    again = StarForm.from_json_dict(form_json(form))
    assert again.form_hash == form.form_hash
    wf = StarForm.weighted([((0, 0, 0, 0), 1.0), ((2, 0, 2, 0), 0.25)])
    again = StarForm.from_json_dict(form_json(wf))
    assert again.form_hash == wf.form_hash
    with pytest.raises(DomainError):
        StarForm.from_json_dict({"type": "ellipsoid", "r_squared": [1.0, float("nan")]})
    with pytest.raises(DomainError):
        StarForm.from_json_dict({"type": "ellipsoid", "r_squared": [1.0, float("inf")]})
    # a dict that is not a form: a missing key, a third semiaxis, a
    # 3-element exponent
    for data in ({"type": "ellipsoid"},
                 {"type": "ellipsoid", "r_squared": [1.0, 2.0, 3.0]},
                 {"type": "weighted",
                  "monomials": [{"exp": [0, 0, 0], "coeff": 1.0}]}):
        with pytest.raises(DomainError):
            StarForm.from_json_dict(data)


def test_constructors_refuse_values_they_would_coerce():
    # int64 would truncate the exponent 1.5 to 1, and float() would parse the
    # string "12" as the semiaxis squares 1 and 2
    mons = [((1.5, 0, 0, 0), 0.1), ((0, 0, 0, 0), 1.0)]
    with pytest.raises(DomainError, match="exponent 1.5 is not an integer"):
        StarForm.weighted(mons)
    with pytest.raises(DomainError, match="exponent 1.5 is not an integer"):
        StarForm.from_json_dict({"type": "weighted", "monomials": [
            {"exp": list(e), "coeff": c} for e, c in mons]})
    for r_squared in ("12", ["1", "2"], [1.0, "2"]):
        with pytest.raises(DomainError, match="positive finite reals"):
            StarForm.from_json_dict({"type": "ellipsoid", "r_squared": r_squared})
    # nor would np.array(..., dtype=float) parse a weight's strings
    for exp, coeff, match in (
            (["0", "0", "0", "0"], 1.0, "exponent '0' is not an integer"),
            ([0, 0, 0, 0], "1.0", "coefficients must be finite reals")):
        with pytest.raises(DomainError, match=match):
            StarForm.from_json_dict({"type": "weighted", "monomials": [
                {"exp": exp, "coeff": coeff}]})
    # nor does a JSON boolean pass for the number 1, nor a name that is not a
    # string enter the form's hash
    with pytest.raises(DomainError, match="positive finite reals"):
        StarForm.ellipsoid(True, 2.0)
    for data, match in (
            ({"type": "ellipsoid", "r_squared": [True, 2.0]}, "finite reals, not True"),
            ({"type": "weighted", "monomials": [
                {"exp": [0, 0, True, 0], "coeff": 1.0}]}, "exponent True is not an integer"),
            ({"type": "weighted", "monomials": [
                {"exp": [0, 0, 0, 0], "coeff": True}]}, "finite reals, not True"),
            ({"type": "ellipsoid", "r_squared": [1.0, 2.0], "name": 5},
             "name 5 is not a string")):
        with pytest.raises(DomainError, match=match):
            StarForm.from_json_dict(data)
    # integral values of other real types still build the same form
    assert (StarForm.ellipsoid(np.float64(1.0), np.int64(2)).form_hash
            == StarForm.ellipsoid(1.0, 2.0).form_hash)
    assert (StarForm.weighted([((2.0, 0, 0, 0), 0.1), ((0, 0, 0, 0), 1.0)]).form_hash
            == StarForm.weighted([((2, 0, 0, 0), 0.1), ((0, 0, 0, 0), 1.0)]).form_hash)
    assert (StarForm.weighted([((np.int64(2), np.float64(0.0), 0, 0),
                                np.float64(0.1)), ((0, 0, 0, 0), 1.0)]).form_hash
            == StarForm.weighted([((2, 0, 0, 0), 0.1), ((0, 0, 0, 0), 1.0)]).form_hash)


def test_form_hash_is_pinned(perturbed_form):
    # saved censuses are keyed by these digests; a change in the payload's
    # bytes (such as numpy's scalar repr) would orphan them
    assert StarForm.ellipsoid(1.0, 2 ** 0.5).form_hash == "ed36314f2a795e9c"
    assert perturbed_form.form_hash == "b394a6f867a47d56"


def test_reeb_round_sphere_is_hopf_field(round_form):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(reeb_vector(round_form, x), [0.0, 2.0, 0.0, 0.0],
                       atol=1e-14)
    # Hopf field i*x scaled so the contact form evaluates to 1, over 10^3 points
    pts = sphere_samples(1000)
    worst = 0.0
    for p in pts:
        R = reeb_vector(round_form, p)
        hopf = 2.0 * np.array([-p[1], p[0], -p[3], p[2]])
        worst = max(worst, np.abs(R - hopf).max())
    assert worst < 1e-10


def test_reeb_defining_properties(ell):
    pts = sphere_samples(200)
    pts = pts / np.sqrt(ell.H_batch(pts))[:, None]
    for x in pts:
        R = reeb_vector(ell, x)
        assert abs(lambda0(x, R) - 1.0) < 1e-9
        assert abs(ell.grad_H(x) @ R) < 1e-9


def test_reeb_speed_on_circle():
    form = StarForm.ellipsoid(1.0, 2.0)
    x = np.array([np.cos(0.7), np.sin(0.7), 0.0, 0.0])
    R = reeb_vector(form, x)
    assert np.linalg.norm(R) == pytest.approx(2.0, abs=1e-12)


def test_off_level_rejected(ell):
    with pytest.raises(DomainError):
        reeb_vector(ell, np.array([2.0, 0.0, 0.0, 0.0]))


def test_frame_invariants(ell):
    pts = sphere_samples(100)
    pts = pts / np.sqrt(ell.H_batch(pts))[:, None]
    for x in pts:
        fr = xi_frame(ell, x)
        for e in (fr.e1, fr.e2):
            assert abs(lambda0(x, e)) < 1e-9
            assert abs(ell.grad_H(x) @ e) < 1e-9
        assert abs(omega_form(fr.e1, fr.e2) - 1.0) < 1e-12


def test_frame_round_sphere_quaternion_pattern(round_form):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    fr = xi_frame(round_form, x)
    jx = quat_j(x)
    assert np.allclose(np.abs(fr.e1), np.abs(jx / np.linalg.norm(jx)),
                       atol=1e-12)


def test_frame_winds_minus_one_along_circle(ell, gamma1):
    # z2-component of e1 along the planar circle is the conjugate phase
    from reeb_atlas.orbits import trace_orbit

    pts = trace_orbit(ell, gamma1, n=64)
    z2 = []
    for x in pts:
        fr = xi_frame(ell, x)
        z2.append(fr.e1[2] + 1j * fr.e1[3])
    ang = np.unwrap(np.angle(np.array(z2 + z2[:1])))
    assert round((ang[-1] - ang[0]) / (2 * np.pi)) == -1


def test_frame_degeneracy_error(ell, gamma1, monkeypatch):
    monkeypatch.setattr(contact, "_FRAME_MIN_NORM", 10.0)
    with pytest.raises(FrameDegeneracyError):
        xi_frame(ell, gamma1.x0)


def test_xi_project(ell, gamma1):
    x = gamma1.x0
    R = reeb_vector(ell, x)
    assert np.allclose(xi_project(ell, x, R), [0.0, 0.0], atol=1e-9)
    fr = xi_frame(ell, x)
    assert np.allclose(xi_project(ell, x, fr.e1), [1.0, 0.0], atol=1e-9)
    # random tangent vectors reconstruct as lambda0(v) R + coords . frame
    rng = np.random.default_rng(2)
    for _ in range(25):
        v = rng.normal(size=4)
        g = ell.grad_H(x)
        v -= (g @ v) / (g @ g) * g
        coords = xi_project(ell, x, v)
        rebuilt = lambda0(x, v) * R + embed(fr, coords)
        assert np.linalg.norm(rebuilt - v) < 1e-9


@pytest.mark.parametrize("form_name", ["ell", "perturbed_form"])
def test_xi_projector(form_name, request):
    form = request.getfixturevalue(form_name)
    pts = sphere_samples(50)
    pts = pts / np.sqrt(form.H_batch(pts))[:, None]
    rng = np.random.default_rng(4)
    for x in pts:
        proj = xi_projector(form, x)
        v = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(xi_frame(form, x).project(v), proj(v))
        assert np.abs(proj(0.5 * x)).max() < 1e-12
        assert np.abs(proj(reeb_vector(form, x))).max() < 1e-12
        v = rng.normal(size=4)
        pv = proj(v)
        assert np.abs(proj(pv) - pv).max() < 1e-12
        assert abs(form.grad_H(x) @ pv) < 1e-12
        assert abs(lambda0(x, pv)) < 1e-12


def test_project_to_sigma(ell):
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.normal(size=4)
        y = project_to_sigma(ell, x)
        assert abs(ell.H(y) - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# the batched (..., 4) point layer
# ---------------------------------------------------------------------------

_monomial = st.tuples(st.tuples(*[st.integers(0, 3) for _ in range(4)]),
                      st.floats(-0.2, 0.2))
# a constant term 1 above the total size of the others keeps p positive on
# the unit sphere
random_weighted = st.lists(_monomial, min_size=1, max_size=4).map(
    lambda mons: StarForm.weighted([((0, 0, 0, 0), 1.0)] + mons, name="random"))
_points = arrays(np.float64, (3, 5, 4), elements=st.floats(-2.0, 2.0))


def _rows_agree(batch, rows):
    batch = np.asarray(batch)
    rows = np.asarray(rows).reshape(batch.shape)
    assert np.abs(batch - rows).max() <= 1e-14 * max(1.0, np.abs(rows).max())


@settings(max_examples=30, deadline=None)
@given(which=st.sampled_from(["ell", "perturbed_form", "random"]),
       random_form=random_weighted, pts=_points)
def test_batch_equals_rows(ell, perturbed_form, which, random_form, pts):
    form = {"ell": ell, "perturbed_form": perturbed_form,
            "random": random_form}[which]
    assume(np.linalg.norm(pts, axis=-1).min() > 0.1)
    rows = pts.reshape(-1, 4)
    for fn in (form.H, form.grad_H, form.hess_H):
        _rows_agree(fn(pts), [fn(p) for p in rows])
    on_level = project_to_sigma(form, pts)
    _rows_agree(reeb_vector(form, on_level),
                [reeb_vector(form, p) for p in on_level.reshape(-1, 4)])
    # reeb_vector is the field that xi_projector reads off the gradient, and
    # bit for bit the flow's right-hand side
    np.testing.assert_array_equal(form.grad_H(on_level) @ OMEGA,
                                  reeb_vector(form, on_level))
    np.testing.assert_array_equal(_rhs(form, False)(on_level),
                                  reeb_vector(form, on_level))
    fr = xi_frame(form, on_level)
    row_frames = [xi_frame(form, p) for p in on_level.reshape(-1, 4)]
    _rows_agree(fr.e1, [f.e1 for f in row_frames])
    _rows_agree(fr.e2, [f.e2 for f in row_frames])
    assert np.abs(omega_form(fr.e1, fr.e2) - 1.0).max() < 1e-12
    assert np.abs(fr.coords(embed(fr, np.array([0.3, -0.7]))) - [0.3, -0.7]).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(form=random_weighted, pts=_points)
def test_weighted_h_parts_derivatives_match_finite_differences(form, pts):
    # the term tables' gradient and Hessian against central differences of
    # the value, which poly_parts takes at x/|x|
    assume(np.linalg.norm(pts, axis=-1).min() > 0.1)
    h = 1e-6
    steps = h * np.eye(4)
    H, grad, hess = kernels.weighted_h_parts(form.tables, pts, 2)
    assert H.shape == pts.shape[:-1] and hess.shape == pts.shape + (4,)
    h_fd = [(kernels.weighted_h_parts(form.tables, pts + e, 0)[0]
             - kernels.weighted_h_parts(form.tables, pts - e, 0)[0]) / (2 * h)
            for e in steps]
    g_fd = [(kernels.weighted_h_parts(form.tables, pts + e, 1)[1]
             - kernels.weighted_h_parts(form.tables, pts - e, 1)[1]) / (2 * h)
            for e in steps]
    scale = 1.0 + np.abs(hess).max()
    assert np.abs(np.stack(h_fd, axis=-1) - grad).max() < 1e-6 * scale
    assert np.abs(np.stack(g_fd, axis=-1) - hess).max() < 1e-6 * scale
    np.testing.assert_array_equal(hess, np.swapaxes(hess, -1, -2))


@pytest.mark.parametrize("form_name", ["ell", "perturbed_form"])
def test_batch_row_checks(form_name, request, monkeypatch):
    form = request.getfixturevalue(form_name)
    pts = project_to_sigma(form, sphere_samples(6))
    with_origin = pts.copy()
    with_origin[3] = 0.0
    for fn in (form.H, form.grad_H, form.hess_H):
        with pytest.raises(DomainError):
            fn(with_origin)
    off_level = pts.copy()
    off_level[4] *= 1.1
    for fn in (reeb_vector, xi_frame):
        with pytest.raises(OffLevelError):
            fn(form, off_level)
    monkeypatch.setattr(contact, "_FRAME_MIN_NORM", 10.0)
    with pytest.raises(FrameDegeneracyError) as exc:
        xi_frame(form, pts)
    np.testing.assert_array_equal(exc.value.point, pts[0])
