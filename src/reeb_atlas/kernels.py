"""Hot numerical kernels, one numpy implementation each.

The kernels work on one point, or on one pair of sampled closed curves:

- ``poly_parts``: value, gradient and Hessian of the polynomial weight;
- ``weighted_h_parts``: H(x) = |x|^2 / p(x/|x|) with its gradient and
  Hessian, by the chain rule through ``poly_parts``;
- ``ellipsoid_rhs``, ``weighted_rhs``: the Reeb field -Omega grad H, and
  ``ellipsoid_var_rhs``, ``weighted_var_rhs``: the same field stacked with
  the variational equations dM/dt = -Omega Hess H M;
- ``gauss_linking_raw``: the exact solid-angle Gauss sum of two polylines;
- ``hausdorff_distance``, ``point_to_polyline``, ``min_cross_distance``:
  distances between sampled closed traces.
"""

import numpy as np

__all__ = [
    "poly_parts",
    "weighted_h_parts",
    "ellipsoid_rhs",
    "ellipsoid_var_rhs",
    "weighted_rhs",
    "weighted_var_rhs",
    "gauss_linking_raw",
    "hausdorff_distance",
    "point_to_polyline",
    "min_cross_distance",
]


# ---------------------------------------------------------------------------
# polynomial weight: value, gradient, hessian of p(u) = sum c * u^e
# ---------------------------------------------------------------------------

def poly_parts(exps, coeffs, u):
    pw = u[None, :] ** exps  # (M, 4), 0**0 == 1
    prod = np.prod(pw, axis=1)
    p0 = float(coeffs @ prod)
    grad = np.zeros(4)
    cols = [pw.copy() for _ in range(4)]
    for i in range(4):
        e = exps[:, i]
        d = np.where(e > 0, e * u[i] ** np.maximum(e - 1, 0), 0.0)
        cols[i][:, i] = d
        grad[i] = coeffs @ np.prod(cols[i], axis=1)
    hess = np.zeros((4, 4))
    for i in range(4):
        for j in range(i, 4):
            w = pw.copy()
            if i == j:
                e = exps[:, i]
                w[:, i] = np.where(e > 1, e * (e - 1) * u[i] ** np.maximum(e - 2, 0), 0.0)
            else:
                ei = exps[:, i]
                ej = exps[:, j]
                w[:, i] = np.where(ei > 0, ei * u[i] ** np.maximum(ei - 1, 0), 0.0)
                w[:, j] = np.where(ej > 0, ej * u[j] ** np.maximum(ej - 1, 0), 0.0)
            hess[i, j] = hess[j, i] = coeffs @ np.prod(w, axis=1)
    return p0, grad, hess


# ---------------------------------------------------------------------------
# H(x) = |x|^2 / p(x/|x|): value, gradient, hessian by the chain rule
# ---------------------------------------------------------------------------

def weighted_h_parts(exps, coeffs, x, order):
    r2 = x @ x
    r = np.sqrt(r2)
    u = x / r
    p0, pg, ph = poly_parts(exps, coeffs, u)
    h = r2 / p0
    if order == 0:
        return h, np.zeros(4), np.zeros((4, 4))
    ug = pg @ u
    gg = (pg - ug * u) / r  # grad of g(x) = p(x/|x|)
    gradH = 2.0 * x / p0 - (r2 / p0 ** 2) * gg
    if order == 1:
        return h, gradH, np.zeros((4, 4))
    P = np.eye(4) - np.outer(u, u)
    hessG = (
        -(np.outer(pg, u) + np.outer(u, pg))
        - ug * (np.eye(4) - 3.0 * np.outer(u, u))
        + P @ ph @ P
    ) / r2
    hessH = (
        2.0 * np.eye(4) / p0
        - 2.0 * (np.outer(x, gg) + np.outer(gg, x)) / p0 ** 2
        - (r2 / p0 ** 2) * hessG
        + (2.0 * r2 / p0 ** 3) * np.outer(gg, gg)
    )
    return h, gradH, hessH


# ---------------------------------------------------------------------------
# Reeb vector fields.  Conventions (coordinates x = (q1, p1, q2, p2)):
#   omega = dq1^dp1 + dq2^dp2,  X_H = -Omega grad H,
#   i.e. R = (-g2, g1, -g4, g3) for g = grad H.
# ---------------------------------------------------------------------------

def _minus_omega(a):
    """-Omega a for a 4-vector, or row-wise for a (4, k) block."""
    out = np.empty_like(a)
    out[0] = -a[1]
    out[1] = a[0]
    out[2] = -a[3]
    out[3] = a[2]
    return out


def ellipsoid_rhs(x, d):
    return np.array([-d[0] * x[1], d[0] * x[0], -d[1] * x[3], d[1] * x[2]])


def ellipsoid_var_rhs(y, d):
    # Hess H = diag(d0, d0, d1, d1)
    dm = np.array([d[0], d[0], d[1], d[1]])[:, None] * y[4:].reshape(4, 4)
    return np.concatenate((ellipsoid_rhs(y[:4], d), _minus_omega(dm).ravel()))


def weighted_rhs(x, exps, coeffs):
    _, g, _ = weighted_h_parts(exps, coeffs, x, 1)
    return _minus_omega(g)


def weighted_var_rhs(y, exps, coeffs):
    _, g, hh = weighted_h_parts(exps, coeffs, y[:4], 2)
    hm = hh @ y[4:].reshape(4, 4)
    return np.concatenate((_minus_omega(g), _minus_omega(hm).ravel()))


# ---------------------------------------------------------------------------
# Gauss linking number: exact signed solid angle summed over segment pairs
# of two closed polylines in R^3.
# ---------------------------------------------------------------------------

def gauss_linking_raw(a, b, chunk=64):
    na = a.shape[0]
    a2 = np.roll(a, -1, axis=0)
    b1 = b
    b2 = np.roll(b, -1, axis=0)
    db = b2 - b1
    total = 0.0
    for i0 in range(0, na, chunk):
        p1 = a[i0:i0 + chunk][:, None, :]
        p2 = a2[i0:i0 + chunk][:, None, :]
        r13 = b1[None, :, :] - p1
        r14 = b2[None, :, :] - p1
        r23 = b1[None, :, :] - p2
        r24 = b2[None, :, :] - p2
        n1 = np.cross(r13, r14)
        n2 = np.cross(r14, r24)
        n3 = np.cross(r24, r23)
        n4 = np.cross(r23, r13)
        l1 = np.linalg.norm(n1, axis=-1)
        l2 = np.linalg.norm(n2, axis=-1)
        l3 = np.linalg.norm(n3, axis=-1)
        l4 = np.linalg.norm(n4, axis=-1)
        ok = np.minimum(np.minimum(l1, l2), np.minimum(l3, l4)) > 1e-14
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (
                np.arcsin(np.clip(np.sum(n1 * n2, -1) / (l1 * l2), -1, 1))
                + np.arcsin(np.clip(np.sum(n2 * n3, -1) / (l2 * l3), -1, 1))
                + np.arcsin(np.clip(np.sum(n3 * n4, -1) / (l3 * l4), -1, 1))
                + np.arcsin(np.clip(np.sum(n4 * n1, -1) / (l4 * l1), -1, 1))
            )
        orient = np.sign(np.sum(np.cross(db[None, :, :], p2 - p1) * r13, -1))
        total += np.sum(np.where(ok, s * orient, 0.0))
    return total / (4.0 * np.pi)


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
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.sqrt(d2.min())
