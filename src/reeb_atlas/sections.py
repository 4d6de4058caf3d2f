"""Candidate spanning disks and their verification as global sections.

A disk is a structured polar grid of points on the energy level whose
boundary row traces a periodic orbit.  The module checks transversality of
the interior to the Reeb field, computes the characteristic foliation (the
line field cut out on the disk by the contact planes) with its singularity
classification and boundary winding, and runs first-return maps with
bisection event detection against per-cell tangent-plane defining
functions.  All verification is sampling-based evidence, never proof.
"""

import contextlib
import contextvars
import csv
import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels
from .contact import (OMEGA, complement_basis, omega_form, project_to_sigma,
                      reeb_vector, sobol_points, xi_frame)
from .errors import (DomainError, GridQualityError, MissingArtifactError,
                     ResolutionError, raised)
from .flow import evaluate_runs, integrate_batch, load_scipy_file, lockstep
from .orbits import trace_orbit

__all__ = [
    "DiskGrid",
    "FoliationSingularity",
    "builtin_disk",
    "transversality_check",
    "characteristic_field",
    "return_map",
    "counting_crossings",
    "verify_global_section",
    "disk_seeds",
    "save_disk",
    "load_disk",
    "write_return_csv",
]


# columns of the four 3x3 minors of a 3x4 matrix, and their cofactor signs
_MINOR_COLS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
_MINOR_SIGN = np.array([1.0, -1.0, 1.0, -1.0])


def _ckdtree():
    """scipy's kd-tree class from its compiled extension, loaded by path:
    importing it by name would import all of scipy.spatial.  The module is
    registered under its own name, so a later ``import scipy.spatial``
    reuses it."""
    return load_scipy_file("scipy.spatial._ckdtree", "spatial", "_ckdtree").cKDTree


def _cross4(a, b, c):
    """Vectors orthogonal to a, b, c in R^4 (generalized cross product),
    row-wise over (..., 4) inputs."""
    M = np.stack([a, b, c], axis=-2)  # (..., 3, 4)
    minors = np.moveaxis(M[..., _MINOR_COLS], -2, -3)  # (..., 4, 3, 3)
    return _MINOR_SIGN * np.linalg.det(minors)


@dataclass
class DiskGrid:
    """Polar grid of points on the level spanning a periodic orbit.

    ``samples[i, j]`` is the point at radial index i (0 = collapsed center,
    n_r = boundary) and angular index j (cyclic).  ``builtin_disk`` makes
    the boundary row the orbit's trace in the Reeb direction.
    """

    samples: np.ndarray  # (n_r + 1, n_theta, 4)
    orbit_ref: int | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 3 or self.samples.shape[2] != 4:
            raise DomainError("disk samples must be (n_r+1, n_theta, 4)")

    @property
    def n_r(self):
        return self.samples.shape[0] - 1

    @property
    def n_theta(self):
        return self.samples.shape[1]

    @property
    def boundary(self):
        return self.samples[-1]

    def diameter(self):
        pts = self.samples.reshape(-1, 4)
        return float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))

    def max_cell_size(self):
        s = self.samples
        dr = np.linalg.norm(s[1:] - s[:-1], axis=2).max()
        dt = np.linalg.norm(np.roll(s, -1, axis=1) - s, axis=2)[1:].max()
        return float(max(dr, dt))

    def validate(self):
        """Grid quality checks: a collapsed center row, cells below 5% of the
        diameter, and no near-coincidences besides grid neighbors."""
        s = self.samples
        if np.linalg.norm(s[0] - s[0, 0], axis=1).max() > 1e-12:
            raise GridQualityError("center row must collapse to one point")
        if self.max_cell_size() >= 0.05 * self.diameter():
            raise GridQualityError("adjacent samples too far apart")
        # embeddedness: no near-coincidences besides grid neighbors
        pts = s[1:].reshape(-1, 4)
        tree = _ckdtree()(pts)
        nt = self.n_theta
        for a, b in tree.query_pairs(1e-4):
            ia, ja = divmod(a, nt)
            ib, jb = divmod(b, nt)
            dj = min((ja - jb) % nt, (jb - ja) % nt)
            if abs(ia - ib) <= 1 and dj <= 1:
                continue
            raise GridQualityError(
                f"grid not embedded: rows {ia + 1},{ib + 1} nearly coincide"
            )
        return self


@dataclass
class FoliationSingularity:
    """Zero of the characteristic vector field on a spanning disk."""

    s: float
    t: float
    point: np.ndarray
    kind: str  # "elliptic" | "hyperbolic"
    nicely_elliptic: bool
    sign: int          # orientation match of disk and contact plane
    index: int         # Poincare-Hopf index, sign(det DV)
    eigenvalues: tuple


def builtin_disk(form, orbit, theta0, n_r, n_theta):
    """The radial cone page F(s, t) = pi(s P(t) + sqrt(1 - s^2) w) spanning
    a simply covered orbit of any form.  P is the orbit's ``n_theta``-point
    trace and pi the radial projection onto the level; w = pi(cos(theta0) f1
    + sin(theta0) f2), where (f1, f2) are the coordinate axes left, by
    Gram-Schmidt with norm cutoff 1e-8, after the top two right singular
    vectors of P, with f2 signed so that omega(f1, f2) > 0.  On a
    coordinate circle of an ellipsoid, this is the page {arg z = theta0} of
    the other coordinate plane.
    """
    if orbit.multiplicity != 1:
        raise DomainError("the page boundary must be a simply covered orbit")
    P = trace_orbit(form, orbit, n=n_theta)
    _, _, V = np.linalg.svd(P, full_matrices=False)
    f1, f2 = complement_basis(V[:2])  # the complement of P's best-fit plane
    f2 = f2 if omega_form(f1, f2) > 0 else -f2
    w = project_to_sigma(form, np.cos(theta0) * f1 + np.sin(theta0) * f2)
    ss = np.linspace(0.0, 1.0, n_r + 1)[:, None, None]
    return DiskGrid(samples=project_to_sigma(
        form, ss * P + np.sqrt(1.0 - ss * ss) * w))


# ---------------------------------------------------------------------------
# transversality of the interior to the Reeb field
# ---------------------------------------------------------------------------

def transversality_check(form, disk):
    """Minimum normalized transversality determinant over interior cells.

    Per cell the oriented volume det[grad H, R, d_s u, d_t u] is divided by
    the cell's tangent area, giving the normal speed of the Reeb field
    through the disk.  Returns (min |normalized det|, sign constant?).
    """
    s = disk.samples
    nxt = np.roll(s, -1, axis=1)
    a = 0.5 * ((s[1:] - s[:-1]) + (nxt[1:] - nxt[:-1]))      # radial edge
    b = 0.5 * ((nxt[:-1] - s[:-1]) + (nxt[1:] - s[1:]))      # angular edge
    centers = 0.25 * (s[:-1] + s[1:] + nxt[:-1] + nxt[1:])
    x = project_to_sigma(form, centers)
    g = form.grad_H(x)
    nu, R = g / kernels.norm(g)[..., None], g @ OMEGA  # reeb_vector's R
    at = _tangential(a, nu)
    bt = _tangential(b, nu)
    area2 = np.vecdot(at, at) * np.vecdot(bt, bt) - np.vecdot(at, bt) ** 2
    bad = np.flatnonzero(area2 <= 1e-24)
    if bad.size:
        raise GridQualityError(f"degenerate cell at flat index {bad[0]}")
    vals = np.linalg.det(np.stack([nu, R, a, b], axis=-2)) / np.sqrt(area2)
    sign_constant = bool(np.all(vals > 0) or np.all(vals < 0))
    return float(np.abs(vals).min()), sign_constant


# ---------------------------------------------------------------------------
# characteristic foliation
# ---------------------------------------------------------------------------

def _unit_normal(form, x):
    """Unit normals grad H / |grad H| of the level at points x."""
    g = form.grad_H(x)
    return g / kernels.norm(g)[..., None]


def _tangential(v, nu):
    """The part of v orthogonal to the unit normals nu."""
    return v - np.vecdot(v, nu)[..., None] * nu


def _node_tangents(disk):
    """Radial/angular tangent vectors at grid nodes (rows 1..n_r)."""
    s = disk.samples
    n_r = disk.n_r
    ds = 1.0 / n_r
    dt = 1.0 / disk.n_theta
    d_s = np.empty_like(s[1:])
    d_s[:-1] = (s[2:] - s[:-2]) / (2 * ds)
    d_s[-1] = (s[-1] - s[-2]) / ds
    d_t = (np.roll(s[1:], -1, axis=1) - np.roll(s[1:], 1, axis=1)) / (2 * dt)
    return d_s, d_t


def _node_normals(form, disk):
    """Unit normals, within the level, of the disk at rows 1..n_r."""
    d_s, d_t = _node_tangents(disk)
    nu = _unit_normal(form, disk.samples[1:])
    n = _cross4(_tangential(d_s, nu), _tangential(d_t, nu), nu)
    nn = kernels.norm(n)
    bad = np.argwhere(nn < 1e-12)
    if len(bad):
        i, j = bad[0]
        raise GridQualityError(f"degenerate tangent plane at node {(i + 1, j)}")
    return n / nn[..., None]


def _node_frame_field(form, disk):
    """Normals and the characteristic field in contact-frame coordinates at
    rows 1..n_r."""
    normals = _node_normals(form, disk)
    fr = xi_frame(form, disk.samples[1:])
    # i_V lambda = 0 and i_V dlambda = dG - (i_R dG) lambda give, in frame
    # coordinates, V = (n.e2, -n.e1)
    vfield = np.stack([np.vecdot(normals, fr.e2),
                       -np.vecdot(normals, fr.e1)], axis=-1)
    return normals, vfield


def _winding_of(vectors):
    """Winding number of the closed loop of planar vectors (n, 2)."""
    d = kernels.angle_steps(np.concatenate([vectors, vectors[:1]]))
    if np.abs(d).max() > 0.5 * np.pi:
        raise ResolutionError("vector-field winding under-resolved on the grid")
    total = d.sum() / (2 * np.pi)
    k = round(total)
    if abs(total - k) > 1e-6:
        raise ResolutionError(f"winding {total:.6f} did not close to an integer")
    return int(k)


def _disk_chart(si, ti):
    """Cartesian chart coordinates (X, Y) = s (cos 2 pi t, sin 2 pi t)."""
    return np.array([si * np.cos(2 * np.pi * ti), si * np.sin(2 * np.pi * ti)])


def _classify_zero(form, disk, vfield, s0, t0):
    """Least-squares linearization of the field around a zero, classified
    through its eigenvalues as an endomorphism of the contact plane."""
    n_r, n_t = disk.n_r, disk.n_theta
    radius = max(2.5 / n_r, 0.08)
    si, tj = np.meshgrid(np.arange(1, n_r + 1) / n_r, np.arange(n_t) / n_t,
                         indexing="ij")
    d = np.moveaxis(_disk_chart(si, tj), 0, -1) - _disk_chart(s0, t0)
    near = (np.abs(si - s0) <= radius) & (kernels.norm(d) <= radius)
    if near.sum() < 6:
        raise ResolutionError("too few grid nodes near a singularity")
    # per node, one row for each field component: V ~ V0 + A d
    rows = np.zeros((near.sum(), 2, 6))
    rows[:, 0, 0] = rows[:, 1, 1] = 1.0
    rows[:, 0, 2:4] = rows[:, 1, 4:6] = d[near]
    coef, *_ = np.linalg.lstsq(rows.reshape(-1, 6), vfield[near].reshape(-1),
                               rcond=None)
    A = np.array([[coef[2], coef[3]], [coef[4], coef[5]]])

    # chart tangents at the zero, in frame coordinates
    point = _grid_point(disk, s0, t0)
    x = project_to_sigma(form, point)
    fr = xi_frame(form, x)
    eX, eY = _chart_tangents(disk, s0, t0)
    pX, pY = fr.project(eX), fr.project(eY)
    P = np.stack([fr.coords(pX), fr.coords(pY)], axis=1)
    dV = A @ np.linalg.inv(P)
    ev = np.linalg.eigvals(dV)
    det = float(np.real(ev[0] * ev[1]))
    kind = "elliptic" if det > 0 else "hyperbolic"
    real_ev = bool(np.abs(ev.imag).max() < 1e-8 * max(1.0, np.abs(ev).max()))
    sign = 1 if omega_form(pX, pY) > 0 else -1
    index = 1 if det > 0 else -1
    return FoliationSingularity(
        s=float(s0), t=float(t0), point=x, kind=kind,
        nicely_elliptic=(kind == "elliptic" and real_ev),
        sign=sign, index=index,
        eigenvalues=(complex(ev[0]), complex(ev[1])),
    )


def _bilinear(c, al, be):
    """Points and tangents of the cells c = (c00, c10, c01, c11) at (al, be)."""
    c00, c10, c01, c11 = c
    a, b = al[:, None], be[:, None]
    p = ((1 - a) * (1 - b) * c00 + a * (1 - b) * c10
         + (1 - a) * b * c01 + a * b * c11)
    da = (-(1 - b) * c00 + (1 - b) * c10 - b * c01 + b * c11)
    db = (-(1 - a) * c00 - a * c10 + (1 - a) * c01 + a * c11)
    return p, da, db


def _grid_point(disk, si, ti):
    """Bilinear interpolation of the grid at continuous (s, t), t periodic:
    points of shape (..., 4) for si, ti of shape (...)."""
    n_r, n_t = disk.n_r, disk.n_theta
    si, ti = np.broadcast_arrays(si, ti)
    fs = np.clip(si.ravel(), 0.0, 1.0) * n_r
    i = np.minimum(fs.astype(int), n_r - 1)
    ft = (ti.ravel() % 1.0) * n_t
    j = ft.astype(int)
    # ft reaches n_t when ti % 1.0 rounds up to 1.0 (ti = -1e-18): be is
    # taken before the column wraps, so the point lands on column 0
    be = ft - j
    j %= n_t
    jn = (j + 1) % n_t
    S = disk.samples
    p, _, _ = _bilinear(np.stack([S[i, j], S[i + 1, j], S[i, jn], S[i + 1, jn]]),
                        fs - i, be)
    return p.reshape(si.shape + (4,))


def _chart_tangents(disk, si, ti):
    """Tangent vectors of the disk along the Cartesian chart directions, by
    central differences with chart step 1e-3."""
    h = 1e-3
    X = _disk_chart(si, ti) + np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    p = _grid_point(disk, kernels.norm(X),
                    np.arctan2(X[:, 1], X[:, 0]) / (2 * np.pi))
    return (p[0] - p[1]) / (2 * h), (p[2] - p[3]) / (2 * h)


def characteristic_field(form, disk):
    """Characteristic vector field of the disk, its singularities, and the
    winding of the field along the boundary against the global frame.

    Returns (vfield, singularities, boundary_winding) where ``vfield`` holds
    frame coordinates of the field at grid rows 1..n_r.
    """
    _, vfield = _node_frame_field(form, disk)

    # boundary must run along the Reeb direction for the orientation
    # conventions used in the winding and sign computations
    bd = disk.boundary
    tangent = np.roll(bd, -1, axis=0) - bd
    R0 = reeb_vector(form, project_to_sigma(form, bd[0]), check=False)
    if tangent[0] @ R0 <= 0:
        raise DomainError("boundary row must traverse the orbit along the flow")

    boundary_winding = _winding_of(vfield[-1])

    singularities = []
    # winding test around the innermost ring catches a zero at/near the center
    try:
        center_wind = _winding_of(vfield[0])
    except ResolutionError:
        center_wind = None
    if center_wind is None or center_wind != 0:
        singularities.append(_classify_zero(form, disk, vfield, 0.0, 0.0))

    # cell-by-cell degree test away from the center: the turning of the field
    # around cell (i, j), whose corners are rows i+1 .. i+2 of the grid
    v = np.moveaxis(vfield, -1, 0)
    v_next = np.roll(v, -1, axis=2)
    loops = np.stack([v[:, :-1], v_next[:, :-1], v_next[:, 1:], v[:, 1:], v[:, :-1]])
    turns = kernels.angle_steps(loops).sum(axis=0) / (2 * np.pi)
    for i, j in np.argwhere(np.abs(turns) > 0.5):
        s0, t0 = _refine_zero(disk, vfield, i, j)
        singularities.append(_classify_zero(form, disk, vfield, s0, t0))
    return vfield, singularities, boundary_winding


def _refine_zero(disk, vfield, i, j):
    """Bilinear Newton for the zero inside cell (i, j) of the field rows."""
    n_r, n_t = disk.n_r, disk.n_theta
    jn = (j + 1) % n_t
    c = vfield[[i, i + 1, i, i + 1], [j, j, jn, jn]][:, None]  # (4, 1, 2)
    al, be = 0.5, 0.5
    for _ in range(30):
        (v,), (da,), (db,) = _bilinear(c, np.array([al]), np.array([be]))
        try:
            step = np.linalg.solve(np.stack([da, db], axis=1), -v)
        except np.linalg.LinAlgError:
            break
        al = float(np.clip(al + step[0], 0.0, 1.0))
        be = float(np.clip(be + step[1], 0.0, 1.0))
        if np.linalg.norm(step) < 1e-12:
            break
    return (i + 1 + al) / n_r, (j + be) / n_t


# ---------------------------------------------------------------------------
# first return maps
# ---------------------------------------------------------------------------

class _DiskIndex:
    """Spatial index of the grid with per-node tangent-plane data."""

    def __init__(self, form, disk):
        self.samples = disk.samples
        # nodes of rows 1..n_r and their plane normals, by flat index
        self.points = disk.samples[1:].reshape(-1, 4)
        self.normals = _node_normals(form, disk).reshape(-1, 4)
        self.tree = _ckdtree()(self.points)
        self.n_t = disk.n_theta
        self.cell = disk.max_cell_size()
        # the crossing scan reads plane heights within 2.5 cells; scipy keeps
        # only neighbours strictly closer than a query's bound
        self.near = 2.5 * self.cell
        self.reach = self.near * (1.0 + 1e-9)
        self.boundary = bd = disk.boundary
        self.boundary_chord = float(
            np.linalg.norm(np.roll(bd, -1, axis=0) - bd, axis=1).max())
        # largest Reeb speed over a coarse subgrid, for the crossing scan step
        coarse = disk.samples[::max(1, disk.n_r // 4), ::max(1, self.n_t // 8)]
        self.vmax = float(kernels.norm(
            reeb_vector(form, coarse, check=False)).max())

    def plane_height(self, y, flat_idx):
        # vecdot gives each row of y (M, 4) the bits of a one-row call
        return np.vecdot(y - self.points[flat_idx], self.normals[flat_idx])

    def heights(self, ys):
        """Distance to, flat index of and plane height over the nearest node
        of each point of ys (M, 4), where that node is within the scan's
        reach; elsewhere inf, ``len(points)`` and NaN."""
        dists, idxs = self.tree.query(ys, distance_upper_bound=self.reach)
        hs = np.full(len(ys), np.nan)
        within = np.isfinite(dists)
        hs[within] = self.plane_height(ys[within], idxs[within])
        return dists, idxs, hs

    def boundary_distance(self, y):
        """Distance from y to its nearest boundary sample, less half the
        longest chord and at least 0; each squared distance is summed in
        ``cKDTree.query``'s order, so the result is the kd-tree's bit for
        bit."""
        sq = (self.boundary - y) ** 2
        d = np.sqrt((((sq[:, 0] + sq[:, 1]) + sq[:, 2]) + sq[:, 3]).min())
        # point-to-chord correction keeps rejections honest between samples
        return max(0.0, float(d) - 0.5 * self.boundary_chord)

    def locate(self, ys):
        """Per point of ys (M, 4), (s, t, surface point, normal residual,
        inside) by bilinear inversion of the four cells around its nearest
        node, or None where none inverts.

        Each cell takes up to 12 Gauss-Newton steps, stops after one below
        1e-13, and fails on a singular or non-finite one.  In-range cell
        solutions win over out-of-range ones; residual breaks ties (adjacent
        cells converge to shared-edge points from outside).
        """
        S, n_t = self.samples, self.n_t
        ys = np.reshape(ys, (-1, 4))
        i, j = np.divmod(self.tree.query(ys)[1], n_t)
        ci = (i[:, None] + [-1, -1, 0, 0]).ravel()
        cj = ((j[:, None] + [-1, 0, -1, 0]) % n_t).ravel()
        ys = np.repeat(ys, 4, axis=0)
        # cell ci spans grid rows ci+1, ci+2; the pole cell ci = -1 has the
        # center as its inner corners
        ok, r0 = ci + 2 < len(S), np.minimum(ci, len(S) - 3) + 1
        pole, jn = ci == -1, (cj + 1) % n_t
        c = np.stack([S[r0, np.where(pole, 0, cj)], S[r0 + 1, cj],
                      S[r0, np.where(pole, 0, jn)], S[r0 + 1, jn]])
        al, be = np.full(len(ys), 0.5), np.full(len(ys), 0.5)
        run = np.flatnonzero(ok)
        for _ in range(12):
            if not run.size:
                break
            p, da, db = _bilinear(c[:, run], al[run], be[run])
            r = ys[run] - p
            g = np.vecdot(da, db)
            JTJ = np.stack([np.vecdot(da, da), g, g, np.vecdot(db, db)],
                           axis=-1).reshape(-1, 2, 2)
            rhs = np.stack([np.vecdot(da, r), np.vecdot(db, r)], axis=-1)
            try:
                step = np.linalg.solve(JTJ, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:  # a singular cell fails alone
                step = np.full_like(rhs, np.nan)
                for m in range(len(rhs)):
                    with contextlib.suppress(np.linalg.LinAlgError):
                        step[m] = np.linalg.solve(JTJ[m], rhs[m])
            al_new, be_new = al[run] + step[:, 0], be[run] + step[:, 1]
            bad = ~(np.isfinite(al_new) & np.isfinite(be_new))
            ok[run[bad]] = False
            al[run] = np.clip(al_new, -0.2, 1.2)
            be[run] = np.clip(be_new, -0.2, 1.2)
            run = run[~bad & ~(kernels.norm(step) < 1e-13)]
        p, _, _ = _bilinear(c, al, be)
        resid = kernels.norm(ys - p)
        # slack covers the tangential slop of projecting onto the bilinear
        # patch (the true surface sits a sagitta away); binding flybys are
        # rejected separately by the boundary-distance margin
        inside = ((-1e-2 <= al) & (al <= 1 + 1e-2)
                  & (-1e-2 <= be) & (be <= 1 + 1e-2))
        s, t = (ci + 1 + al) / (len(S) - 1), ((cj + be) / n_t) % 1.0
        r = np.where(ok, resid, np.inf).reshape(-1, 4)
        r_in = np.where(inside.reshape(-1, 4), r, np.inf)
        k = np.where(np.isfinite(r_in).any(axis=1), r_in.argmin(axis=1),
                     r.argmin(axis=1)) + np.arange(0, len(ys), 4)
        return [(s[b], t[b], p[b], resid[b], bool(inside[b])) if ok[b] else None
                for b in k]


def _search_row(form, index, x, sign, t_budget):
    """Earliest transversal crossing of the disk along one trajectory.

    Scans dense output at a spacing below half the cell size, brackets sign
    changes of the nearest node's tangent-plane height, bisects in time, and
    verifies that the refined point lands inside the sampled surface, more
    than 1e-3 from the binding and after time 1e-9.  A generator: yields
    ("flow", x, ts) requests, answered by the dense run from x to ts[-1],
    its points at ts and their ``_DiskIndex.heights`` (the first point, x,
    arms the search), and ("bisect", traj, t_lo, t_hi, flat_idx) and
    ("locate", traj, t) requests; returns ((point, time) or None on budget
    exhaustion, work counts).
    """
    work = Counter(chunks=0, steps=0, rejected_near_binding=0,
                   rejected_by_polish=0)
    dt_scan = index.cell / (2.0 * index.vmax)
    chunk = max(4.0 * dt_scan, t_budget / 16.0)
    near = index.near
    t_done, armed, prev = 0.0, False, None  # prev: (h, flat_idx, t)
    while t_done < t_budget - 1e-12:
        span = min(chunk, t_budget - t_done)
        n_samp = max(2, int(np.ceil(span / dt_scan)) + 1)
        ts = np.linspace(0.0, sign * span, n_samp)
        traj, ys, dists, idxs, hs = yield "flow", x, ts
        work.update(chunks=1, steps=len(traj.F))
        last = -1
        for k in np.flatnonzero(~(dists > near)):
            if k > last + 1:  # a point beyond the reach breaks the bracket
                prev = None
                armed = True
            last = k
            h = hs[k]
            if not armed:
                armed = abs(h) > 0.05 * index.cell
            elif (prev is not None and np.sign(h) != np.sign(prev[0])
                  and h != 0.0):
                t_cross = yield "bisect", traj, prev[2], ts[k], prev[1]
                y, t_cross, ok = yield from _refine_to_surface(
                    index, traj, t_cross, index.normals[prev[1]])
                global_t = t_done + abs(t_cross)
                if not ok:
                    work["rejected_by_polish"] += 1
                elif global_t > 1e-9:
                    if index.boundary_distance(y) > 1e-3:
                        return (project_to_sigma(form, y), sign * global_t), work
                    work["rejected_near_binding"] += 1
                armed = False
            prev = (h, idxs[k], ts[k])
        # the chunk's last point opens the next chunk's bracket at t = 0
        prev = None if dists[-1] > near else (hs[-1], idxs[-1], 0.0)
        x = project_to_sigma(form, ys[-1])
        t_done += span
    return None, work


_SEARCH = contextvars.ContextVar("reeb_atlas_crossing_search", default=None)


@contextlib.contextmanager
def counting_crossings():
    """Count the crossing search's work inside the block: ``points_queried``
    (scan points whose nearest node was sought), ``points_within_near``
    (those within the scan's 2.5 cells), and over the batched bisections
    ``bisect_batches``, their halving-tree ``bisect_rounds`` and
    ``crossings_bisected``."""
    token = _SEARCH.set(Counter(points_queried=0, points_within_near=0,
                                bisect_batches=0, bisect_rounds=0,
                                crossings_bisected=0))
    try:
        yield _SEARCH.get()
    finally:
        _SEARCH.reset(token)


def _first_crossing(form, index, X, signs, t_budget):
    """Earliest disk crossings from the level points X (B, 4), row i flowing
    along signs[i] (+1 or -1) for at most t_budget, as the rows'
    ``_search_row`` in lockstep: one run evaluation and one cell inversion
    for all locates, one batched bisection for all brackets, and, once every
    row waits for its next chunk, one dense ``integrate_batch``, one
    evaluation of every run at its scan times and one tree query for all
    scan points (bounded by the scan's reach); a row finds what it finds
    alone, bit for bit.  Returns ``_search_row``'s result per row, or raises
    the error of the first failed row."""
    tally = _SEARCH.get()
    if tally is None:
        tally = Counter()

    def serve(kind, args):
        if kind == "flow":  # each run, or its error, with its scan heights
            runs = integrate_batch(form, np.array([a[0] for a in args]),
                                   [a[1][-1] for a in args], tol=1e-10,
                                   dense=True)
            live = [(run, a[1]) for run, a in zip(runs, args)
                    if not isinstance(run, Exception)]
            if live:
                ys = evaluate_runs(*zip(*live))[:, :4]
                scans = index.heights(ys)
                tally.update(points_queried=len(ys), points_within_near=int(
                    np.count_nonzero(scans[0] <= index.near)))
                cuts = np.cumsum([len(ts) for _, ts in live])[:-1]
                scans = zip(*(np.split(v, cuts) for v in (ys, *scans)))
            return [run if isinstance(run, Exception) else (run, *next(scans))
                    for run in runs]
        if kind == "locate":  # each run's point, then its surface point
            runs, ts = zip(*args)
            ys = evaluate_runs(runs, [np.atleast_1d(t) for t in ts])[:, :4]
            return zip(ys, index.locate(ys))
        t_cross, rounds = _bisect_crossings(index, *zip(*args))
        tally.update(bisect_batches=1, bisect_rounds=rounds,
                     crossings_bisected=len(args))
        return t_cross

    return raised(lockstep([_search_row(form, index, x, sign, t_budget)
                            for x, sign in zip(X, signs)],
                           ("locate", "bisect", "flow"), serve))


def _bisect_crossings(index, trajs, t_lo, t_hi, flat_idx):
    """Halve each bracket [t_lo[i], t_hi[i]] of the dense run trajs[i]
    towards the sign change of the plane height over node flat_idx[i], at
    most 60 times, until it is below 1e-10: the halving loop bit for bit.
    Each round evaluates every active row's depth-5 halving tree (31
    midpoints) in one ``evaluate_runs`` call and walks the trees together; a
    row leaves at its own stop.  Returns the crossing times and the number
    of rounds."""
    t_lo, t_hi = np.array(t_lo, dtype=float), np.array(t_hi, dtype=float)
    flat_idx = np.asarray(flat_idx)
    s_lo = np.sign(index.plane_height(
        evaluate_runs(trajs, t_lo[:, None])[:, :4], flat_idx))
    out, live, rounds = np.empty(len(t_lo)), np.arange(len(t_lo)), 0
    while live.size and rounds < 12:
        rounds += 1
        n = len(live)
        lo, hi, mids = t_lo[live, None], t_hi[live, None], []
        for _ in range(5):  # heap order: node k's halves are 2k + 1, 2k + 2
            mids.append(0.5 * (lo + hi))
            lo, hi = (np.stack(p, 2).reshape(n, -1)
                      for p in ((lo, mids[-1]), (mids[-1], hi)))
        mids = np.concatenate(mids, axis=1)
        ys = evaluate_runs([trajs[i] for i in live], mids)[:, :4]
        signs = np.sign(index.plane_height(
            ys, np.repeat(flat_idx[live], 31))).reshape(n, 31)
        rows, k = np.arange(n), np.zeros(n, dtype=int)
        lo, hi, going = t_lo[live], t_hi[live], np.ones(n, dtype=bool)
        for _ in range(5):
            up, mid = signs[rows, k] == s_lo[live], mids[rows, k]
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
            stop = going & (np.abs(hi - lo) < 1e-10)
            out[live[stop]] = 0.5 * (lo[stop] + hi[stop])
            going &= ~stop
            k = 2 * k + 1 + up
        t_lo[live], t_hi[live] = lo, hi
        live = live[going]
    out[live] = 0.5 * (t_lo[live] + t_hi[live])
    return out, rounds


def _refine_to_surface(index, traj, t_cross, nhat):
    """Secant polish (at most 5 steps) from the tangent-plane crossing to
    the bilinear surface, yielding ("locate", traj, t) requests, each
    answered by the point traj(t) and its ``_DiskIndex.locate`` result.

    The root function is the height of the trajectory over its located
    surface point measured along the fixed plane normal, which is signed
    and vanishes exactly on the surface.
    """
    def height(tau):
        yy, loc = yield "locate", traj, tau
        if loc is None:
            return None, None, None
        return (yy - loc[2]) @ nhat, yy, loc

    g, y, loc = yield from height(t_cross)
    if g is None:
        return None, t_cross, False
    for _ in range(5):
        if abs(g) < 1e-11:
            break
        dt = 1e-7
        g2, _, _ = yield from height(t_cross + dt)
        if g2 is None:
            return y, t_cross, False
        slope = (g2 - g) / dt
        if abs(slope) < 1e-14:
            break
        step = -g / slope
        step = float(np.clip(step, -0.5 * index.cell, 0.5 * index.cell))
        t_cross = t_cross + step
        g, y, loc = yield from height(t_cross)
        if g is None:
            return None, t_cross, False
    _, _, _, resid, inside = loc
    ok = inside and abs(g) < 1e-7 and resid < 0.3 * index.cell
    return y, t_cross, ok


def return_map(form, disk, seeds, t_budget, direction):
    """First-return data for seeds given as (s, t) disk coordinates, all
    searched at once; ``direction`` ("forward" or "backward") is one for all
    seeds or one per seed.  Returns per seed a dict with its coordinates,
    return coordinates and time, or ``"timeout": True`` when the budget is
    exhausted, and its search's counts: ``chunks``, stepper ``steps``,
    ``rejected_near_binding`` (crossings within 1e-3 of the binding, after
    which the trajectory continues) and ``rejected_by_polish``.
    """
    seeds = np.reshape(seeds, (-1, 2))
    dirs = np.broadcast_to(direction, len(seeds))
    if not np.isin(dirs, ("forward", "backward")).all():
        raise DomainError("direction must be forward or backward")
    if np.count_nonzero(seeds[:, 0] >= 1.0 - 1e-9):
        raise DomainError("seed lies on the binding; it never returns")
    index = _DiskIndex(form, disk)
    X = project_to_sigma(form, _grid_point(disk, seeds[:, 0], seeds[:, 1]))
    signs = np.where(dirs == "forward", 1.0, -1.0)
    found = _first_crossing(form, index, X, signs, t_budget)
    locs = iter(index.locate([hit[0] for hit, _ in found if hit is not None]))
    out = []
    for (s0, t0), (hit, work) in zip(seeds, found):
        out.append({"seed_s": float(s0), "seed_t": float(t0),
                    "timeout": hit is None, **work})
        if hit is not None:
            s, t = next(locs)[:2]
            out[-1].update(return_s=float(s), return_t=float(t),
                           return_time=float(hit[1]), return_point=hit[0])
    return out


def disk_seeds(n):
    """Quasi-uniform interior seeds, area-uniform in the disk coordinates,
    with s in [0.08, 0.92]."""
    u = sobol_points(2, 1, n)  # from 1: point 0 is the corner (0, 0)
    s = np.sqrt(u[:, 0]) * (0.92 - 0.08) + 0.08
    return np.stack([s, u[:, 1]], axis=1)


def verify_global_section(form, disk, n_seeds, t_budget):
    """Sampling-based global-section verdict for a spanning disk, with the
    forward and backward return-map records of its seeds.

    Passes iff the interior is transversal with a constant sign and every
    seed returns within budget both forward and backward.  A run where all
    seeds time out is reported as budget-limited evidence, not failure of
    transversality.
    """
    if t_budget <= 0:
        raise DomainError("a positive t_budget is required")
    if n_seeds < 1:
        raise DomainError("a section verdict needs at least one seed")
    min_det, sign_constant = transversality_check(form, disk)
    seeds = disk_seeds(n_seeds)
    # both directions of every seed in one lockstep search
    both = return_map(form, disk, np.concatenate([seeds, seeds]), t_budget,
                      ["forward"] * n_seeds + ["backward"] * n_seeds)
    fw, bw = both[:n_seeds], both[n_seeds:]
    t_f = sum(1 for r in fw if r["timeout"])
    t_b = sum(1 for r in bw if r["timeout"])
    verdict = {
        "passes": bool(sign_constant and t_f == 0 and t_b == 0),
        "sign_constant": sign_constant,
        "min_transversality": min_det,
        "n_seeds": int(n_seeds),
        "timeouts_forward": int(t_f),
        "timeouts_backward": int(t_b),
        "budget_note": None,
        "t_budget": float(t_budget),
    }
    if t_f == n_seeds and t_b == n_seeds and sign_constant:
        verdict["budget_note"] = (
            "all seeds timed out; the budget may be below the first-return time"
        )
    return verdict, fw, bw


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_disk(disk, path_json):
    """Disk file: JSON header plus an s-major CSV point block, written next
    to it with the extension ``.csv``."""
    import os

    path_csv = str(path_json).rsplit(".", 1)[0] + ".csv"
    header = {
        "n_r": disk.n_r,
        "n_theta": disk.n_theta,
        "orbit_ref": disk.orbit_ref,
        "points_csv": os.path.basename(path_csv),
    }
    with open(path_json, "w") as fh:
        json.dump(header, fh, indent=1, sort_keys=True)
        fh.write("\n")
    # np.savetxt's bytes, one format per block of 1024 rows: as fast as one
    # format over all rows, without holding every row's text at once
    rows = disk.samples.reshape(-1, 4)
    with open(path_csv, "w") as fh:
        fh.write("x1,x2,x3,x4\n")
        for i in range(0, len(rows), 1024):
            block = rows[i:i + 1024]
            fh.write("%.17g,%.17g,%.17g,%.17g\n" * len(block)
                     % tuple(block.ravel().tolist()))


def load_disk(path_json):
    """Read a disk file; a header or CSV block that is missing or a
    directory raises ``MissingArtifactError``, one that does not parse
    ``DomainError``, each naming its file."""
    import os

    try:
        with open(path_json) as fh:
            header = json.load(fh)
        csv_path = os.path.join(os.path.dirname(str(path_json)),
                                header["points_csv"])
        n_r, n_t = header["n_r"], header["n_theta"]
        orbit_ref = header.get("orbit_ref")
        # JSON integers in disk-gen's bounds; int() would read "3" and 3.9
        if not (type(n_r) is type(n_t) is int and n_r >= 1 and n_t >= 3
                and type(orbit_ref) in (int, type(None))):
            raise ValueError("n_r, n_theta or orbit_ref is out of type or range")
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifactError(path_json, "reeb-atlas disk-gen")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed disk header {path_json}: "
                          f"{type(exc).__name__}: {exc}") from exc
    try:
        pts = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifactError(csv_path, "reeb-atlas disk-gen")
    except ValueError as exc:
        raise DomainError(f"malformed disk CSV block {csv_path}: {exc}") from exc
    if pts.shape != ((n_r + 1) * n_t, 4) or not np.all(np.isfinite(pts)):
        raise DomainError(f"disk CSV block {csv_path} does not hold the "
                          f"header's {n_r + 1} x {n_t} finite points")
    return DiskGrid(samples=pts.reshape(n_r + 1, n_t, 4), orbit_ref=orbit_ref)


def write_return_csv(path, records):
    """Return-map CSV: seed_s, seed_t, ret_s, ret_t, time (blank on timeout)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed_s", "seed_t", "ret_s", "ret_t", "time"])
        for r in records:
            if r["timeout"]:
                w.writerow([f"{r['seed_s']:.17g}", f"{r['seed_t']:.17g}",
                            "", "", ""])
            else:
                w.writerow([f"{r['seed_s']:.17g}", f"{r['seed_t']:.17g}",
                            f"{r['return_s']:.17g}", f"{r['return_t']:.17g}",
                            f"{r['return_time']:.17g}"])
