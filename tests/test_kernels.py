"""Properties of the weighted Hamiltonian's kernel over random weights and
points, and of the Gauss linking sum and the distance kernels over random
closed polygons whose lengths straddle the Gauss block size and the row
tiles of the kernels."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reeb_atlas import kernels
from reeb_atlas import linking as lk
from reeb_atlas.contact import StarForm, project_to_sigma, xi_frame
from reeb_atlas.errors import ReebAtlasError
from reeb_atlas.orbits import trace_orbit

from oracles import (blocked_gauss_linking_raw, chain_rule_h_parts,
                     plain_weighted_h_parts, plain_weighted_rhs,
                     plain_weighted_var_rhs)

# ---------------------------------------------------------------------------
# H(x) = |x|^2 / p(x/|x|) on weights beyond the near-ellipsoid fixtures
# ---------------------------------------------------------------------------

_exps = st.tuples(*[st.integers(0, 3) for _ in range(4)])
_odd = _exps.map(lambda e: e if sum(e) % 2 else (e[0] + 1,) + e[1:])
_coeff = st.floats(-0.2, 0.2)
# one odd-degree monomial and up to three of any degree; the constant term 1
# is above the total size of the others, so p > 0.2 on the unit sphere
_forms = st.tuples(st.tuples(_odd, _coeff),
                   st.lists(st.tuples(_exps, _coeff), max_size=3)).map(
    lambda t: StarForm.weighted([((0, 0, 0, 0), 1.0), t[0]] + t[1]))
# directions with zero coordinates (a zero row becomes e1), radii 1e-3..1e3
_directions = arrays(np.float64, (8, 4),
                     elements=st.sampled_from([0.0, 1.0, -0.5]) | st.floats(-1, 1))
_radii = arrays(np.float64, (8,), elements=st.floats(-3.0, 3.0)).map(
    lambda e: 10.0 ** e)


def _on_rays(directions, radii):
    d = directions.copy()
    d[np.abs(d).max(axis=1) < 1e-3] = [1.0, 0.0, 0.0, 0.0]
    return d / np.linalg.norm(d, axis=1)[:, None] * radii[:, None]


@settings(max_examples=60, deadline=None)
@given(form=_forms, directions=_directions, radii=_radii)
def test_weighted_h_parts_match_the_chain_rule(form, directions, radii):
    x = _on_rays(directions, radii)
    for order in (0, 1, 2):
        got = kernels.weighted_h_parts(form.tables, x, order)
        want = chain_rule_h_parts(form, x, order)
        for g, w in zip(got[:order + 1], want[:order + 1]):
            axes = tuple(range(1, w.ndim))
            scale = np.abs(w).max(axis=axes) if axes else np.abs(w)
            err = np.abs(g - w).max(axis=axes) if axes else np.abs(g - w)
            assert np.all(err <= 1e-13 * scale), (order, (err / scale).max())


# the longest term block of this weight has 16 terms and its blocks 0-4 have
# fewer, so contracting those over their own length would add in another order
_SIXTEEN_TERMS = StarForm.weighted([
    ((0, 0, 0, 0), 1.0), ((3, 2, 1, 3), 0.1), ((0, 2, 2, 3), -0.05),
    ((2, 1, 1, 1), -0.05), ((1, 2, 3, 0), -0.05)])


@settings(max_examples=60, deadline=None)
@given(form=_forms, shape=st.sampled_from([(), (1,), (2,), (58,), (182,)]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(form=_SIXTEEN_TERMS, shape=(58,), seed=0)
def test_weighted_kernel_is_its_oracle_byte_for_byte(form, shape, seed):
    # points with zero coordinates at radii 1e-3..1e3, linearized flows with
    # entries up to 1e6; each part's bytes are the plain numpy oracle's
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    d = rng.choice([0.0, 1.0, -0.5, 2.0], size=(n, 4))
    d = np.where(rng.random((n, 4)) < 0.5, rng.uniform(-1.0, 1.0, (n, 4)), d)
    x = _on_rays(d, 10.0 ** rng.uniform(-3.0, 3.0, n)).reshape(shape + (4,))
    m = rng.uniform(-1.0, 1.0, size=shape + (16,)) * 10.0 ** rng.uniform(
        0.0, 6.0, size=shape + (1,))
    y = np.concatenate([x, m], axis=-1)
    calls = [(kernels.weighted_h_parts(form.tables, x, order)[:order + 1],
              plain_weighted_h_parts(form.tables, x, order)[:order + 1])
             for order in (0, 1, 2)]
    calls.append(((kernels.weighted_rhs(x, form.tables),),
                  (plain_weighted_rhs(x, form.tables),)))
    calls.append(((kernels.weighted_var_rhs(y, form.tables),),
                  (plain_weighted_var_rhs(y, form.tables),)))
    for got, want in calls:
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("form_name", ["perturbed_form", "near_ell_weighted"])
def test_weighted_kernel_rows_equal_one_row_calls(form_name, request):
    # each row of a 64-row call is its (4,), (1, 4) and 3-row-slice call bit
    # for bit; rows 0 and 5 have zero coordinates
    form = request.getfixturevalue(form_name)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(64, 4))
    x[0] = [1.0, 0.0, 0.0, 0.0]
    x[5, 1:3] = 0.0
    y = np.concatenate([x, rng.normal(size=(64, 16))], axis=1)

    def h_parts(order):
        return lambda z: kernels.weighted_h_parts(form.tables, z, order)[:order + 1]

    calls = [(h_parts(order), x) for order in (0, 1, 2)]
    calls.append((lambda z: (kernels.weighted_rhs(z, form.tables),), x))
    calls.append((lambda z: (kernels.weighted_var_rhs(z, form.tables),), y))
    for fn, arg in calls:
        full = fn(arg)
        for i in range(64):
            lo = min(i, 61)
            for part, k in ((fn(arg[i]), None), (fn(arg[i:i + 1]), 0),
                            (fn(arg[lo:lo + 3]), i - lo)):
                for a, b in zip(full, part):
                    np.testing.assert_array_equal(a[i], b if k is None else b[k])


# ---------------------------------------------------------------------------
# the Gauss linking sum and polyline distances
# ---------------------------------------------------------------------------

# 3 and 200 vertices, and 16, 32 and 64 rows (one Gauss block) minus one,
# exact and plus one, plus one past two blocks: across the Gauss blocks and
# the row tiles of the Gauss sum and the distance kernels
_SIZES = st.sampled_from([3, 15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 200])
# the polygons fill a small ball off the candidate poles, so a pole clears
# them even at 3 vertices, and two polygons tangle
_CENTER = np.array([0.3, -0.2, 0.1, 1.0])


def _polygon(seed, n):
    rng = np.random.default_rng(seed)
    return _CENTER + 0.1 * rng.uniform(-1.0, 1.0, size=(n, 4))


def _projected(a, b):
    pole = lk.pick_pole([a, b])
    return lk.stereo_project(a, pole), lk.stereo_project(b, pole)


_pairs = st.tuples(st.integers(0, 2 ** 32 - 1), _SIZES, _SIZES).map(
    lambda t: (_polygon(t[0], t[1]), _polygon(t[0] + 1, t[2])))


@settings(max_examples=100, deadline=None)
@given(pair=_pairs)
def test_gauss_sum_equals_crossing_count(pair):
    a, b = pair
    try:
        expected = lk.crossing_linking(*lk.stereo_pair(a, b))
    except ReebAtlasError:
        assume(False)
    raw = kernels.gauss_linking_raw(*_projected(a, b))
    assert abs(raw - expected) < 1e-9


@settings(max_examples=100, deadline=None)
@given(pair=_pairs)
def test_gauss_sum_is_symmetric(pair):
    a, b = pair
    a3, b3 = _projected(a, b)
    assert abs(kernels.gauss_linking_raw(a3, b3)
               - kernels.gauss_linking_raw(b3, a3)) < 1e-9
    try:
        forward = lk.linking_number(*lk.stereo_pair(a, b))[0]
    except ReebAtlasError:
        assume(False)
    assert lk.linking_number(*lk.stereo_pair(b, a))[0] == forward


@settings(max_examples=100, deadline=None)
@given(pair=_pairs)
def test_reversing_one_curve_negates_the_gauss_sum(pair):
    a3, b3 = _projected(*pair)
    raw = kernels.gauss_linking_raw(a3, b3)
    assert abs(kernels.gauss_linking_raw(a3[::-1], b3) + raw) < 1e-9
    assert abs(kernels.gauss_linking_raw(a3, b3[::-1]) + raw) < 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), na=_SIZES, nb=_SIZES,
       scale=st.floats(1e-3, 1e3), near=st.booleans())
def test_gauss_tiles_equal_whole_blocks(seed, na, nb, scale, near):
    # bit for bit, also on near pairs b = a + 1e-3 noise, as pushoffs are
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(na, 3))
    if near:
        b = a + 1e-3 * scale * rng.normal(size=a.shape)
    else:
        b = scale * rng.normal(size=(nb, 3))
    assert kernels.gauss_linking_raw(a, b) == blocked_gauss_linking_raw(a, b)


def test_gauss_tiles_equal_whole_blocks_on_a_pushoff(ell, gamma1):
    # the 512 x 512 sum of the first self-linking pushoff of gamma1
    trace = trace_orbit(ell, gamma1, 512)
    pushed = project_to_sigma(ell, trace + 1e-2 * xi_frame(ell, trace).e1)
    a3, b3 = lk.stereo_pair(trace, pushed)
    assert (kernels.gauss_linking_raw(a3, b3)
            == blocked_gauss_linking_raw(a3, b3))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), na=_SIZES, nb=_SIZES,
       scale=st.floats(1e-3, 1e3))
def test_min_cross_distance_is_the_broadcast_formula(seed, na, nb, scale):
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(na, 4))
    b = scale * rng.normal(size=(nb, 4))
    # a near pair on a random row, so a row lost between tiles shows
    a[rng.integers(na)] = (b[rng.integers(nb)]
                           + 1e-3 * scale * rng.normal(size=4))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    assert kernels.min_cross_distance(a, b) == np.sqrt(d2.min())



def test_min_cross_distance_looks_past_the_tile_pair_of_least_bound():
    # the first tiles' boxes meet, so their bound is 0, but their points lie
    # on parallel lines 0.64 apart; the second tiles' boxes and points are
    # 0.3 apart
    s, z = np.linspace(0.0, 1.0, 64), np.zeros(64)
    a = np.concatenate([np.stack([s, s, z, z], axis=1),
                        np.stack([5.0 + s, z, z, z], axis=1)])
    b = np.concatenate([np.stack([0.9 + 0.1 * s, 0.1 * s, z, z], axis=1),
                        np.stack([5.0 + s, z + 0.3, z, z], axis=1)])
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    assert kernels.min_cross_distance(a, b) == np.sqrt(d2.min()) == 0.3


def test_min_cross_distance_sums_each_bound_in_its_own_order():
    # two one-point tiles against the origin: in coordinate order a0's
    # squared distance is one ulp below a1's; summed from the last
    # coordinate, a0's bound would be one ulp above a1's distance and a1's
    # bound below it, so a1's tile would come first and a0's be skipped
    a0 = [1.4487005305319356e-05, 1.50709751695524e-05,
          1.6481586994057636e-08, 2.8774969340847093e-06]
    a1 = [1.4487005305319362e-05, 1.5070975169552396e-05,
          1.6481586994057537e-08, 2.8774969340846945e-06]
    a = np.repeat([a0, a1], 64, axis=0)
    b = np.zeros((1, 4))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    assert kernels.min_cross_distance(a, b) == np.sqrt(d2.min())
    assert np.sqrt(d2[0, 0]) < np.sqrt(d2[-1, 0])

def _broadcast_points_to_polyline_d2(a, b):
    # the (na, nb, dim) broadcast formula, the reference of the kernel
    e = np.roll(b, -1, axis=0) - b
    w = a[:, None, :] - b[None, :, :]
    ss = np.sum(e * e, axis=-1)
    tt = np.sum(w * e[None, :, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.where(ss > 0, np.clip(tt / ss, 0.0, 1.0), 0.0)
    closest = b[None, :, :] + tt[:, :, None] * e[None, :, :]
    return np.sum((closest - a[:, None, :]) ** 2, axis=-1).min(axis=1)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), na=_SIZES, nb=_SIZES,
       scale=st.floats(1e-3, 1e3), repeat=st.booleans())
def test_hausdorff_distance_is_the_broadcast_formula(seed, na, nb, scale, repeat):
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(na, 4))
    b = scale * rng.normal(size=(nb, 4))
    if repeat:
        b[1] = b[0]  # a zero-length segment
    d2_ab = _broadcast_points_to_polyline_d2(a, b)
    d2_ba = _broadcast_points_to_polyline_d2(b, a)
    assert np.array_equal(kernels._points_to_polyline_d2(a, b), d2_ab)
    assert kernels.hausdorff_distance(a, b) == np.sqrt(max(d2_ab.max(), d2_ba.max()))
    assert kernels.point_to_polyline(a[0], b) == np.sqrt(d2_ab[0])
