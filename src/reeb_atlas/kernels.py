"""Hot numerical kernels, one numpy implementation each.

Point-wise kernels take a batch of points as an array of shape ``(..., 4)``
(a single point is the ``(4,)`` case) and return arrays with the same
leading shape: a value ``(...)``, a vector ``(..., 4)``, a matrix
``(..., 4, 4)``.  The flow right-hand sides take states ``(..., 4)`` or,
with the variational block, ``(..., 20)``.

- ``weight_tables``: the monomials of a polynomial p and the derivative
  tables of the weight f(x) = p(x/|x|), as sums of terms c x^a |x|^-b,
  built once per form;
- ``poly_parts``: the value of p from its monomials;
- ``weighted_h_parts``: H(x) = |x|^2 / f(x) with its gradient and Hessian,
  from f and its derivatives evaluated on the term tables in one pass;
- ``ellipsoid_tables``: the diagonal d of an ellipsoid's Hess H and the
  matrices of its linear flow, ``(d, a4, a20)``, built once per form;
- ``ellipsoid_h_parts``: an ellipsoid's H with its gradient and Hessian;
- ``ellipsoid_rhs``, ``weighted_rhs``: the Reeb field -Omega grad H, and
  ``ellipsoid_var_rhs``, ``weighted_var_rhs``: the same field stacked with
  the variational equations dM/dt = -Omega Hess H M;
- ``norm``: the Euclidean norm over the last axis, equal bit for bit to
  ``np.linalg.norm`` of each row (both use BLAS ddot, as ``np.vecdot`` does);
- ``angle_steps``: the signed angles between successive planar vectors;
- ``gauss_linking_raw``: the exact Gauss sum of two polylines, as a sum over
  vertex directions of two atan2 triangle solid angles per segment pair;
- ``hausdorff_distance``, ``point_to_polyline``, ``min_cross_distance``:
  distances between sampled closed traces.

The pair kernels run over tiles of rows of their first argument, so each
tile's (rows, len(b)) planes stay in cache: ``_GAUSS_TILE`` rows of the
Gauss sum, written with ``out=`` into buffers reused across the call, and
``_DIST_TILE`` rows of the Hausdorff scans.  ``min_cross_distance`` tiles
both arguments by ``_DIST_TILE`` rows and visits only the tile pairs whose
box bound does not exceed the least distance so far.  Every output is the
untiled one's bit for bit: every element keeps its expression and its
operation order, the Gauss sum adds each ``_GAUSS_CHUNK``-row block's two
angle sums in turn over the same contiguous (rows, len(b)) arrays, a row's
minimum over b does not depend on the other rows, and a minimum of tile
minima that holds the least one is the minimum.
"""

import numpy as np

__all__ = [
    "weight_tables",
    "poly_parts",
    "weighted_h_parts",
    "OMEGA",
    "ellipsoid_tables",
    "ellipsoid_h_parts",
    "ellipsoid_rhs",
    "ellipsoid_var_rhs",
    "weighted_rhs",
    "weighted_var_rhs",
    "norm",
    "angle_steps",
    "gauss_linking_raw",
    "hausdorff_distance",
    "point_to_polyline",
    "min_cross_distance",
]


def norm(a):
    """Euclidean norm over the last axis, as ``np.linalg.norm`` of each row."""
    return np.sqrt(np.vecdot(a, a))


def angle_steps(v):
    """Angle increments along axis 0 of the planar vectors v, whose
    components run along axis 1 (N+1, 2, ...), as atan2 of the cross and dot
    products of neighbours; exact while each true step is below pi."""
    x, y = v[:, 0], v[:, 1]
    cross = x[:-1] * y[1:] - y[:-1] * x[1:]
    dot = x[:-1] * x[1:] + y[:-1] * y[1:]
    return np.arctan2(cross, dot)


# ---------------------------------------------------------------------------
# the weight f(x) = p(x/|x|) of p(u) = sum c * u^e, and H(x) = |x|^2 / f(x)
# ---------------------------------------------------------------------------

_I, _J = np.triu_indices(4)
# block of the Hessian entry (i, j) in the tables: 5 + its upper-triangle rank
_HESS_BLOCK = np.empty((4, 4), dtype=np.int64)
_HESS_BLOCK[_I, _J] = _HESS_BLOCK[_J, _I] = 5 + np.arange(10)
_TWO_I = 2.0 * np.eye(4)


def _diff(block, i):
    """d/dx_i of a sum of terms {(a, b): c} meaning c x^a r^-b, r = |x|."""
    out = {}
    for (a, b), c in block.items():
        for step, db, k in ((-1, 0, a[i]), (1, 2, -b)):
            if k:
                key = (a[:i] + (a[i] + step,) + a[i + 1:], b + db)
                out[key] = out.get(key, 0.0) + k * c
    return {key: c for key, c in out.items() if c != 0.0}


def weight_tables(exps, coeffs):
    """The monomials of p and the derivative tables of f(x) = p(x/|x|).

    With r = |x|, f = sum c x^e r^-|e| and
    d_i (x^a r^-b) = a_i x^(a - e_i) r^-b - b x^(a + e_i) r^(-b-2), so f and
    each of its derivatives is a sum of terms c x^a r^-b.  Block 0 is f,
    blocks 1-4 are d_i f and blocks 5-14 the Hessian entries (i, j), i <= j;
    equal (a, b) are merged, and each block is padded with zero terms to the
    longest, T terms.  Factor v of a term, x_v^a_v or (1/r)^b for v = 4, is
    the flat index 5 k + v into the power table whose row k holds z^k,
    z = (x, 1/r).  Returns ``(exps, coeffs, rows, index, factor)``: the
    monomials for ``poly_parts``, the rows of the power table, and per
    derivative order 1 and 2 the factor indices, (5, 5, T) of blocks 0-4 and
    (5, 15, T) of all blocks, and the contiguous (5, T) and (15, T)
    coefficients of the terms.  Every block keeps the T terms: a contraction
    of another length may add in another order.
    """
    f = {}
    for e, c in zip(map(tuple, exps.tolist()), coeffs.tolist()):
        key = (e, sum(e))
        f[key] = f.get(key, 0.0) + c
    grad = [_diff(f, i) for i in range(4)]
    blocks = [f] + grad + [_diff(grad[i], j) for i, j in zip(_I, _J)]
    index = np.zeros((5, 15, max(map(len, blocks))), dtype=np.int64)
    factor = np.zeros(index.shape[1:])
    for k, block in enumerate(blocks):
        for t, ((a, b), c) in enumerate(block.items()):
            index[:, k, t] = 5 * np.array(a + (b,)) + np.arange(5)
            factor[k, t] = c
    rows = int(index.max()) // 5 + 1
    return (exps, coeffs, rows, (index[:, :5].copy(), index),
            (factor[:5].copy(), factor))


def poly_parts(tables, u):
    """p(u) at points u of shape (..., 4) from the monomials of ``tables``."""
    exps, coeffs = tables[:2]
    return np.vecdot(np.multiply.reduce(u[..., None, :] ** exps, axis=-1), coeffs)


def _weight_blocks(tables, x, r2, order):
    """The blocks of ``weight_tables`` up to derivative ``order`` at points x
    (..., 4): powers of z = (x, 1/r) by running products, one gather of the
    terms' factors, one product over the factors and one contraction of the
    C-contiguous terms, so each row is its one-row call bit for bit."""
    _, _, rows, index, factor = tables
    z = np.empty(x.shape[:-1] + (rows, 5))
    z[..., 0, :] = 1.0
    z[..., 1:, :4] = x[..., None, :]
    z[..., 1:, 4] = (1.0 / np.sqrt(r2))[..., None]
    powers = np.multiply.accumulate(z, axis=-2).reshape(x.shape[:-1] + (5 * rows,))
    terms = np.multiply.reduce(powers.take(index[order - 1], axis=-1), axis=-3)
    return np.vecdot(terms, factor[order - 1])  # (..., blocks)


def weighted_h_parts(tables, x, order):
    """(H, grad H, Hess H) at points x of shape (..., 4); the parts above
    ``order`` are None.

    H = r^2 / f takes f from ``poly_parts`` at x/r for the value alone and
    from the term blocks otherwise.  Differentiating f H = r^2 once and twice
    gives grad H = (2x - H grad f) / f and
    Hess H = (2I - grad f grad H^T - grad H grad f^T - H Hess f) / f.
    """
    r2 = np.vecdot(x, x)
    if order == 0:
        return r2 / poly_parts(tables, x / np.sqrt(r2)[..., None]), None, None
    vals = _weight_blocks(tables, x, r2, order)
    f = vals[..., 0, None]
    h = r2 / vals[..., 0]
    gradH = (2.0 * x - h[..., None] * vals[..., 1:5]) / f
    if order == 1:
        return h, gradH, None
    fg = vals[..., 1:5, None] * gradH[..., None, :]
    hessH = (_TWO_I - fg - np.swapaxes(fg, -1, -2)
             - h[..., None, None] * vals.take(_HESS_BLOCK, axis=-1)
             ) / f[..., None]
    return h, gradH, hessH


# ---------------------------------------------------------------------------
# Reeb vector fields.  Conventions (coordinates x = (q1, p1, q2, p2)):
#   omega = dq1^dp1 + dq2^dp2,  X_H = -Omega grad H,
#   i.e. R = (-g2, g1, -g4, g3) for g = grad H.
# On row vectors -Omega g reads g @ OMEGA (OMEGA is antisymmetric).  Every
# column of OMEGA has one nonzero entry +-1, so these products are exact.
# ---------------------------------------------------------------------------

OMEGA = np.array([
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, -1.0, 0.0],
])
_NEG_OMEGA = -OMEGA


def ellipsoid_tables(d):
    """The ellipsoid's d and its linear flow as matrices acting on row vectors.

    With D = Hess H = diag(d0, d0, d1, d1), ``x @ a4`` is the Reeb field
    -Omega D x and ``y @ a20`` the derivative (-Omega D x, -Omega D M) of a
    state y = (x, M).  Returns ``(d, a4, a20)``.
    """
    a4 = np.diag(np.repeat(d, 2)) @ OMEGA
    a20 = np.zeros((20, 20))
    a20[:4, :4] = a4
    a20[4:, 4:] = np.kron(a4, np.eye(4))
    return d, a4, a20


def ellipsoid_h_parts(tables, x, order):
    """(H, grad H, Hess H) at points x of shape (..., 4) of the ellipsoid
    with Hess H = diag(d0, d0, d1, d1); the parts above ``order`` are None."""
    d = tables[0]
    sq = x * x
    h = 0.5 * (d[0] * (sq[..., 0] + sq[..., 1]) + d[1] * (sq[..., 2] + sq[..., 3]))
    grad = np.repeat(d, 2) * x if order >= 1 else None
    hess = None if order < 2 else np.broadcast_to(
        np.diag(np.repeat(d, 2)), x.shape[:-1] + (4, 4)).copy()
    return h, grad, hess


def ellipsoid_rhs(x, tables):
    return x @ tables[1]


def ellipsoid_var_rhs(y, tables):
    return y @ tables[2]


def weighted_rhs(x, tables):
    _, g, _ = weighted_h_parts(tables, x, 1)
    return g @ OMEGA


def weighted_var_rhs(y, tables):
    _, g, hh = weighted_h_parts(tables, y[..., :4], 2)
    out = np.empty(y.shape)
    np.matmul(g, OMEGA, out=out[..., :4])
    lead = y.shape[:-1] + (4, 4)
    np.matmul(_NEG_OMEGA, hh @ y[..., 4:].reshape(lead),
              out=out[..., 4:].reshape(lead))
    return out


# ---------------------------------------------------------------------------
# Gauss linking number of two closed polylines in R^3, as a sum of triangle
# solid angles (Van Oosterom & Strackee, IEEE TBME 30(2), 1983):
#   Omega(u, v, w) = 2 atan2(det[u, v, w], 1 + u.v + u.w + v.w).
# ---------------------------------------------------------------------------

# rows of ``a`` per summation block of the Gauss sum, and rows per tile
# within a block: a tile's (3, rows + 1, len(b) + 1) planes stay in cache
_GAUSS_CHUNK = 64
_GAUSS_TILE = 32


def _dot(x, y, out, tmp):
    """(x0 y0 + x1 y1) + x2 y2 into ``out``, with scratch ``tmp``."""
    np.multiply(x[0], y[0], out=out)
    for k in (1, 2):
        np.add(out, np.multiply(x[k], y[k], out=tmp), out=out)
    return out


def _sum(out, x, *terms):
    """((x + t0) + t1) + ... into ``out``."""
    for t in terms:
        x = np.add(x, t, out=out)
    return out


def _gauss_tile(a, b, u, c, p, q, ang):
    """The two triangle angles, into ``ang`` (2, rows, nb), of the segment
    pairs of the rows + 1 closed-polyline vertices a (3, rows + 1) with the
    vertices b (3, nb + 1).  Scratch: u holds the directions, c their cross
    products along i; p holds |r| and then the dots along i, a spare plane
    and the dots along j; q the diagonal dots, a determinant and a
    denominator."""
    for k in range(3):
        np.subtract(b[k], a[k, :, None], out=u[k])
    np.sqrt(_dot(u, u, p[0], p[1]), out=p[0])
    np.divide(u, p[0], out=u)
    lo, hi = u[:, :-1], u[:, 1:]  # rows i and i + 1
    tmp = p[1, :-1]
    for k in range(3):  # c = lo x hi
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        np.subtract(np.multiply(lo[k1], hi[k2], out=c[k]),
                    np.multiply(lo[k2], hi[k1], out=tmp), out=c[k])
    di = _dot(lo, hi, p[0, :-1], tmp)
    tmp = p[1, :-1, :-1]
    dj = _dot(u[:, :, :-1], u[:, :, 1:], p[2, :, :-1], p[1, :, :-1])
    diag = _dot(lo[:, :, :-1], hi[:, :, 1:], q[0], tmp)
    det, den = q[1], q[2]
    # det[u_ij, u_i,j+1, u_i+1,j+1] and det[u_ij, u_i+1,j+1, u_i+1,j]
    _dot(lo[:, :, :-1], c[:, :, 1:], det, tmp)
    np.arctan2(det, _sum(den, 1.0, dj[:-1], diag, di[:, 1:]), out=ang[0])
    np.negative(_dot(hi[:, :, 1:], c[:, :, :-1], det, tmp), out=det)
    np.arctan2(det, _sum(den, 1.0, diag, di[:, :-1], dj[1:]), out=ang[1])


def gauss_linking_raw(a, b):
    """Gauss linking integral of the closed polylines a (na, 3), b (nb, 3).

    Pair (i, j) adds the triangles (u_ij, u_i,j+1, u_i+1,j+1) and
    (u_ij, u_i+1,j+1, u_i+1,j) of the unit directions u_ij of b_j - a_i.  A
    tile of rows computes u once, in a (3, rows + 1, nb + 1) layout, and the
    products neighbouring pairs share: u_ij x u_i+1,j and the dots along i, j.
    Each tile writes its angles into the block's two (rows, nb) arrays, and
    each block adds their two sums to the total in turn.
    """
    ac = np.concatenate((a, a[:1])).T
    bc = np.concatenate((b, b[:1])).T
    t1, m = _GAUSS_TILE + 1, bc.shape[1]
    u, p = np.empty((3, t1, m)), np.empty((3, t1, m))
    c, q = np.empty((3, t1 - 1, m)), np.empty((3, t1 - 1, m - 1))
    ang = np.empty((2, _GAUSS_CHUNK, m - 1))
    total = 0.0
    for i0 in range(0, a.shape[0], _GAUSS_CHUNK):
        rows = min(_GAUSS_CHUNK, a.shape[0] - i0)
        for t0 in range(0, rows, _GAUSS_TILE):
            t = min(_GAUSS_TILE, rows - t0)
            _gauss_tile(ac[:, i0 + t0:i0 + t0 + t + 1], bc, u[:, :t + 1],
                        c[:, :t], p[:, :t + 1], q[:, :t], ang[:, t0:t0 + t])
        total += np.sum(ang[0, :rows])
        total += np.sum(ang[1, :rows])
    return -total / (2.0 * np.pi)  # -sum(Omega) / (4 pi), Omega = 2 atan2


# ---------------------------------------------------------------------------
# Distances between sampled closed traces.  The Hausdorff distance is taken
# between the closed POLYLINES (point-to-segment), so two samplings of the
# same curve with different marked points are close at realistic resolutions.
# The kernels work coordinate by coordinate on (rows, cols) planes, in the
# order of sums over the last axis, so no (na, nb, dim) temporary is built
# and each result is the broadcast formula's bit for bit.
# ---------------------------------------------------------------------------

_DIST_TILE = 64


def _points_to_polyline_d2(a, b):
    e = np.roll(b, -1, axis=0) - b  # segment vectors (nb, dim)
    ss = sum(ek * ek for ek in e.T)
    out = []
    for i0 in range(0, a.shape[0], _DIST_TILE):
        at = a[i0:i0 + _DIST_TILE].T
        tt = sum((ak[:, None] - bk) * ek for ak, bk, ek in zip(at, b.T, e.T))
        with np.errstate(divide="ignore", invalid="ignore"):
            tt = np.where(ss > 0, np.clip(tt / ss, 0.0, 1.0), 0.0)
        d2 = sum((bk + tt * ek - ak[:, None]) ** 2
                 for ak, bk, ek in zip(at, b.T, e.T))
        out.append(d2.min(axis=1))
    return np.concatenate(out)


def hausdorff_distance(a, b):
    return np.sqrt(max(_points_to_polyline_d2(a, b).max(),
                       _points_to_polyline_d2(b, a).max()))


def point_to_polyline(p, b):
    return np.sqrt(_points_to_polyline_d2(p.reshape(1, -1), b)[0])


def _tile_boxes(x):
    """Starts of the _DIST_TILE-row tiles of x (n, dim), and the lower and
    upper corners (tiles, dim) of their boxes."""
    starts = np.arange(0, x.shape[0], _DIST_TILE)
    return (starts, np.minimum.reduceat(x, starts),
            np.maximum.reduceat(x, starts))


def min_cross_distance(a, b):
    """Least distance between the points of a (na, dim) and b (nb, dim).

    Tile pairs are visited in ascending order of a lower bound of their
    squared distances: per coordinate, the gap between the tiles' boxes,
    squared and summed in the coordinate order of the exact sum.  Rounding
    is monotone, so each bound is at most every computed squared distance
    of its tile pair, and the scan stops at the first bound above the least
    one so far.  The least of the visited tile minima is the minimum.
    """
    sa, alo, ahi = _tile_boxes(a)
    sb, blo, bhi = _tile_boxes(b)
    gap = np.maximum(np.maximum(blo - ahi[:, None], alo[:, None] - bhi), 0.0)
    bound = sum(gk ** 2 for gk in np.moveaxis(gap, -1, 0)).ravel()
    best = np.inf
    for k in np.argsort(bound, kind="stable"):
        if bound[k] > best:
            break
        i0, j0 = sa[k // len(sb)], sb[k % len(sb)]
        best = min(best, sum(
            (ak[:, None] - bk) ** 2 for ak, bk in
            zip(a[i0:i0 + _DIST_TILE].T, b[j0:j0 + _DIST_TILE].T)).min())
    return np.sqrt(best)
