"""Properties of the Gauss linking sum and the distance kernels over
random closed polygons whose lengths straddle the Gauss block size."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reeb_atlas import kernels
from reeb_atlas import linking as lk
from reeb_atlas.errors import ReebAtlasError

# 3 and 200 vertices, and one block of rows minus one, exact, plus one, plus
# one past two blocks
_SIZES = st.sampled_from([3, 63, 64, 65, 129, 200])
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
        expected = lk.crossing_linking(*lk.stereo_pair(a, b, 1e-3))
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
        forward = lk.linking_number(a, b)[0]
    except ReebAtlasError:
        assume(False)
    assert lk.linking_number(b, a)[0] == forward


@settings(max_examples=100, deadline=None)
@given(pair=_pairs)
def test_reversing_one_curve_negates_the_gauss_sum(pair):
    a3, b3 = _projected(*pair)
    raw = kernels.gauss_linking_raw(a3, b3)
    assert abs(kernels.gauss_linking_raw(a3[::-1], b3) + raw) < 1e-9
    assert abs(kernels.gauss_linking_raw(a3, b3[::-1]) + raw) < 1e-9


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), na=_SIZES, nb=_SIZES,
       scale=st.floats(1e-3, 1e3))
def test_min_cross_distance_is_the_broadcast_formula(seed, na, nb, scale):
    rng = np.random.default_rng(seed)
    a = scale * rng.normal(size=(na, 4))
    b = scale * rng.normal(size=(nb, 4))
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    assert kernels.min_cross_distance(a, b) == np.sqrt(d2.min())


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
    assert kernels.hausdorff_distance(a, b) == np.sqrt(max(d2_ab.max(), d2_ba.max()))
    assert kernels.point_to_polyline(a[0], b) == np.sqrt(d2_ab[0])
