"""Hot numerical kernels, one numpy implementation each.

Point-wise kernels take a batch of points as an array of shape ``(..., 4)``
(a single point is the ``(4,)`` case) and return arrays with the same
leading shape: a value ``(...)``, a vector ``(..., 4)``, a matrix
``(..., 4, 4)``.  The flow right-hand sides take states ``(..., 4)`` or,
with the variational block, ``(..., 20)``.

- ``poly_tables``: the monomial derivative tables of a polynomial weight,
  built once per form;
- ``poly_parts``: value, gradient and Hessian of the weight from its tables;
- ``weighted_h_parts``: H(x) = |x|^2 / p(x/|x|) with its gradient and
  Hessian, by the chain rule through ``poly_parts``;
- ``ellipsoid_tables``: the matrices of the linear ellipsoid flow, built once
  per form;
- ``ellipsoid_rhs``, ``weighted_rhs``: the Reeb field -Omega grad H, and
  ``ellipsoid_var_rhs``, ``weighted_var_rhs``: the same field stacked with
  the variational equations dM/dt = -Omega Hess H M;
- ``norm``: the Euclidean norm over the last axis, equal bit for bit to
  ``np.linalg.norm`` of each row (both use BLAS ddot, as ``np.vecdot`` does);
- ``gauss_linking_raw``: the exact Gauss sum of two polylines, as a sum over
  vertex directions of two atan2 triangle solid angles per segment pair;
- ``hausdorff_distance``, ``point_to_polyline``, ``min_cross_distance``:
  distances between sampled closed traces.
"""

import numpy as np

__all__ = [
    "poly_tables",
    "poly_parts",
    "weighted_h_parts",
    "OMEGA",
    "ellipsoid_tables",
    "ellipsoid_rhs",
    "ellipsoid_var_rhs",
    "weighted_rhs",
    "weighted_var_rhs",
    "norm",
    "gauss_linking_raw",
    "hausdorff_distance",
    "point_to_polyline",
    "min_cross_distance",
]


def norm(a):
    """Euclidean norm over the last axis, as ``np.linalg.norm`` of each row."""
    return np.sqrt(np.vecdot(a, a))


# ---------------------------------------------------------------------------
# polynomial weight: value, gradient, hessian of p(u) = sum c * u^e
# ---------------------------------------------------------------------------

_I, _J = np.triu_indices(4)
# block of the Hessian entry (i, j) in the tables: 5 + its upper-triangle rank
_HESS_BLOCK = np.empty((4, 4), dtype=np.int64)
_HESS_BLOCK[_I, _J] = _HESS_BLOCK[_J, _I] = 5 + np.arange(10)
_N_BLOCKS = (1, 5, 15)  # blocks needed up to derivative order 0, 1, 2


def poly_tables(exps, coeffs):
    """Monomial derivative tables of p(u) = sum c u^e.

    Block 0 is p itself, blocks 1-4 are dp/du_i and blocks 5-14 are the
    Hessian entries (i, j), i <= j.  Each block holds the shifted exponents,
    clipped at 0, and the coefficients times e_i or e_i (e_j - [i == j]);
    a clipped exponent always meets a zero coefficient.  Returns
    ``(exps, coeffs)`` of shapes (15, M, 4) and (15, M).
    """
    eye = np.eye(4, dtype=np.int64)
    shift = np.concatenate([np.zeros_like(eye[:1]), eye, eye[_I] + eye[_J]])
    table_exps = np.maximum(exps[None, :, :] - shift[:, None, :], 0)
    factor = np.concatenate([np.ones((1, len(coeffs))), exps.T,
                             exps[:, _I].T * (exps[:, _J].T - (_I == _J)[:, None])])
    return table_exps, factor * coeffs


def poly_parts(tables, u, order=2):
    """(p, grad p, Hess p) at points u of shape (..., 4) from ``poly_tables``.

    Only the blocks up to derivative ``order`` are evaluated; the parts above
    it are returned as None.
    """
    table_exps, table_coeffs = tables
    nb = _N_BLOCKS[order]
    terms = np.prod(u[..., None, None, :] ** table_exps[:nb], axis=-1)
    vals = np.vecdot(terms, table_coeffs[:nb])  # (..., nb)
    grad = vals[..., 1:5] if order >= 1 else None
    hess = np.take(vals, _HESS_BLOCK, axis=-1) if order == 2 else None
    return vals[..., 0], grad, hess


# ---------------------------------------------------------------------------
# H(x) = |x|^2 / p(x/|x|): value, gradient, hessian by the chain rule
# ---------------------------------------------------------------------------

def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def weighted_h_parts(tables, x, order):
    """(H, grad H, Hess H) at points x of shape (..., 4); the parts above
    ``order`` are None."""
    r2 = np.vecdot(x, x)
    r = np.sqrt(r2)
    u = x / r[..., None]
    p0, pg, ph = poly_parts(tables, u, order)
    h = r2 / p0
    if order == 0:
        return h, None, None
    ug = np.vecdot(pg, u)[..., None]
    gg = (pg - ug * u) / r[..., None]  # grad of g(x) = p(x/|x|)
    p0, r2 = p0[..., None], r2[..., None]
    gradH = 2.0 * x / p0 - (r2 / p0 ** 2) * gg
    if order == 1:
        return h, gradH, None
    eye = np.eye(4)
    uu = _outer(u, u)
    P = eye - uu
    p0, r2 = p0[..., None], r2[..., None]
    hessG = (
        -(_outer(pg, u) + _outer(u, pg))
        - ug[..., None] * (eye - 3.0 * uu)
        + P @ ph @ P
    ) / r2
    hessH = (
        2.0 * eye / p0
        - 2.0 * (_outer(x, gg) + _outer(gg, x)) / p0 ** 2
        - (r2 / p0 ** 2) * hessG
        + (2.0 * r2 / p0 ** 3) * _outer(gg, gg)
    )
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


def ellipsoid_tables(d):
    """The linear ellipsoid flow as matrices acting on row vectors.

    With D = Hess H = diag(d0, d0, d1, d1), ``x @ a4`` is the Reeb field
    -Omega D x and ``y @ a20`` the derivative (-Omega D x, -Omega D M) of a
    state y = (x, M).  Returns ``(a4, a20)``.
    """
    a4 = np.diag(np.repeat(d, 2)) @ OMEGA
    a20 = np.zeros((20, 20))
    a20[:4, :4] = a4
    a20[4:, 4:] = np.kron(a4, np.eye(4))
    return a4, a20


def ellipsoid_rhs(x, tables):
    return x @ tables[0]


def ellipsoid_var_rhs(y, tables):
    return y @ tables[1]


def weighted_rhs(x, tables):
    _, g, _ = weighted_h_parts(tables, x, 1)
    return g @ OMEGA


def weighted_var_rhs(y, tables):
    _, g, hh = weighted_h_parts(tables, y[..., :4], 2)
    dm = -OMEGA @ (hh @ y[..., 4:].reshape(y.shape[:-1] + (4, 4)))
    return np.concatenate((g @ OMEGA, dm.reshape(y.shape[:-1] + (16,))), axis=-1)


# ---------------------------------------------------------------------------
# Gauss linking number of two closed polylines in R^3, as a sum of triangle
# solid angles (Van Oosterom & Strackee, IEEE TBME 30(2), 1983):
#   Omega(u, v, w) = 2 atan2(det[u, v, w], 1 + u.v + u.w + v.w).
# ---------------------------------------------------------------------------

# rows of ``a`` per block of the Gauss sum: bounds the
# (3, rows + 1, len(b) + 1) temporaries
_GAUSS_CHUNK = 64


def _dot(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x, y):
    return np.stack((x[1] * y[2] - x[2] * y[1],
                     x[2] * y[0] - x[0] * y[2],
                     x[0] * y[1] - x[1] * y[0]))


def gauss_linking_raw(a, b):
    """Gauss linking integral of the closed polylines a (na, 3), b (nb, 3).

    Pair (i, j) adds the triangles (u_ij, u_i,j+1, u_i+1,j+1) and
    (u_ij, u_i+1,j+1, u_i+1,j) of the unit directions u_ij of b_j - a_i.  A
    block of rows computes u once, in a (3, rows + 1, nb + 1) layout, and the
    products neighbouring pairs share: u_ij x u_i+1,j and the dots along i, j.
    """
    ac = np.concatenate((a, a[:1])).T
    bc = np.concatenate((b, b[:1])).T[:, None, :]
    total = 0.0
    for i0 in range(0, a.shape[0], _GAUSS_CHUNK):
        r = bc - ac[:, i0:i0 + _GAUSS_CHUNK + 1, None]
        u = r / np.sqrt(_dot(r, r))
        lo, hi = u[:, :-1], u[:, 1:]  # rows i and i + 1
        c = _cross(lo, hi)
        di = _dot(lo, hi)
        dj = _dot(u[:, :, :-1], u[:, :, 1:])
        diag = _dot(lo[:, :, :-1], hi[:, :, 1:])
        # det[u_ij, u_i,j+1, u_i+1,j+1] and det[u_ij, u_i+1,j+1, u_i+1,j]
        det1 = _dot(lo[:, :, :-1], c[:, :, 1:])
        det2 = -_dot(hi[:, :, 1:], c[:, :, :-1])
        total += np.sum(np.arctan2(det1, 1.0 + dj[:-1] + diag + di[:, 1:]))
        total += np.sum(np.arctan2(det2, 1.0 + diag + di[:, :-1] + dj[1:]))
    return -total / (2.0 * np.pi)  # -sum(Omega) / (4 pi), Omega = 2 atan2


# ---------------------------------------------------------------------------
# Distances between sampled closed traces.  The Hausdorff distance is taken
# between the closed POLYLINES (point-to-segment), so two samplings of the
# same curve with different marked points are close at realistic resolutions.
# ---------------------------------------------------------------------------

def _points_to_polyline_d2(a, b):
    bn = np.roll(b, -1, axis=0)
    e = bn - b  # (nb, dim)
    w = a[:, None, :] - b[None, :, :]  # (na, nb, dim)
    ss = np.sum(e * e, axis=-1)  # (nb,)
    tt = np.sum(w * e[None, :, :], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = np.where(ss > 0, np.clip(tt / ss, 0.0, 1.0), 0.0)
    closest = b[None, :, :] + tt[:, :, None] * e[None, :, :]
    d2 = np.sum((closest - a[:, None, :]) ** 2, axis=-1)
    return d2.min(axis=1)


def hausdorff_distance(a, b):
    return np.sqrt(max(_points_to_polyline_d2(a, b).max(),
                       _points_to_polyline_d2(b, a).max()))


def point_to_polyline(p, b):
    return np.sqrt(_points_to_polyline_d2(p.reshape(1, -1), b)[0])


def min_cross_distance(a, b):
    # coordinate by coordinate, in the order of a sum over the last axis, so
    # the result is the broadcast formula's bit for bit
    d2 = sum((ak[:, None] - bk) ** 2 for ak, bk in zip(a.T, b.T))
    return np.sqrt(d2.min())
