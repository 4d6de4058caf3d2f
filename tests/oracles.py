"""Test oracles and fixtures: code that only the tests run.

The round sphere, the dumbbell level and a census of it from known starts,
the JSON wire format of a form, frame vectors from frame coordinates, the
contact-plane projection in frame coordinates, the linearized period map on
the contact plane, the linking number of a trace with one pushoff along
either frame vector, the weighted Hamiltonian's derivatives by the chain
rule through x/|x|, the weighted kernel and Reeb fields through numpy's
wrapper functions, the flow's dense coefficients by stacking, each row's
steps by a mask and the dense evaluation from a tiled start, synthetic
symplectic paths with known indices and their non-degeneracy, the Maslov
index of a loop, the rotation interval on a grid
of directions, the spectrum of an orbit from its own path, the Galerkin
matrix by products over the grid with every eigenfunction wound, the winding
census of a spectrum, the period gaps of a census, the crossing word of a
loop's shadow and the signed crossings of two loops' shadows over all
segment pairs, framed knots in R^3 and a flattened trefoil on a level, the
Gauss linking sum over whole blocks of rows, the index
table of a prime's iterates (checked by ``cz.bott_index``),
the page of an ellipsoid's coordinate circle in closed form, the contact
area of a disk by two routes, the return map of arbitrary level points, the
primitive 1-form lambda0, the near-return scan with its distances by
``np.linalg.norm``, the orbit search certifying one survivor at a time with
a one-row integration per flow, the crossing bisection by one halving
per trajectory call, and the return map by each seed's own search with
unbounded height queries.
The package's reachability test (``test_reachability.py``) keeps such code
out of ``src/``.
"""

from collections import Counter

import numpy as np

from reeb_atlas import flow, kernels, orbits
from reeb_atlas.contact import (OMEGA, StarForm, omega_form, project_to_sigma,
                                xi_frame, xi_projector)
from reeb_atlas.cz import (J0, STEP_GUARD, SymplecticPath, _step_distance,
                           asymptotic_spectrum, bott_index, cz_from_interval,
                           rotation_interval, trivialized_path)
from reeb_atlas.errors import (DomainError, GridQualityError,
                               InconsistencyError, OffLevelError,
                               ProximityError, RefinementError,
                               ResolutionError)
from reeb_atlas.flow import integrate_batch, integrate_flow, xi_period_map
from reeb_atlas.kernels import _GAUSS_CHUNK, _HESS_BLOCK, _I, _J
from reeb_atlas.linking import (_BOX_PAD, _MIN_CURVE_DIST, _TANGENT_TOL,
                                _height, _shadow, linking_number, pick_pole,
                                stereo_project)
from reeb_atlas.sections import (DiskGrid, _DiskIndex, _first_crossing,
                                 _grid_point, _refine_to_surface)


# ---------------------------------------------------------------------------
# the contact form
# ---------------------------------------------------------------------------

def lambda0(x, v):
    """The primitive 1-form lambda0 at x applied to v: (1/2) omega(x, v)."""
    return 0.5 * omega_form(x, v)


def round_sphere():
    return StarForm.ellipsoid(1.0, 1.0, name="round-sphere")


NECK = (np.array([1.0, 0.0, 0.0, 0.0]), np.pi)  # the z1 circle, for every K


def dumbbell(K):
    """The level of the weight p(u) = 1 + K u3^2: for K > 1 a dumbbell whose
    neck, the z1 circle, is positive hyperbolic of index 2; for K < 1 that
    circle is elliptic of index 3."""
    return StarForm.weighted([((0, 0, 0, 0), 1.0), ((0, 0, 2, 0), K)],
                             name=f"dumbbell-K{K}")


def dumbbell_census(K, starts):
    """The dumbbell at K and the census of the orbits that ``refine_orbit``
    reaches from ``starts``, (x0, T) pairs, in their order, capped at period
    5.5, below the degenerate families of period 6.52 at K = 1.2."""
    form = dumbbell(K)
    found = [orbits.refine_orbit(form, np.asarray(x0, dtype=float), T)
             for x0, T in starts]
    return form, orbits.OrbitDatabase(form_hash=form.form_hash, orbits=found,
                                      params={"t_max": 5.5})


def form_json(form):
    """The JSON wire format of a form, as ``StarForm.from_json_dict`` reads
    it."""
    if form.kind == "ellipsoid":
        out = {"type": "ellipsoid", "r_squared": [float(v) for v in form.r_squared]}
    else:
        out = {
            "type": "weighted",
            "monomials": [
                {"exp": [int(e) for e in ex], "coeff": float(c)}
                for ex, c in zip(form.exps, form.coeffs)
            ],
        }
    if form.name:
        out["name"] = form.name
    return out


def xi_project(form, x, v):
    """Frame coordinates of the contact-plane projection of vectors v at the
    level points x, in ``xi_frame(form, x)``; on a vector tangent to the
    level the projection kills the Reeb direction: pi(v) = v - lambda0(v) R."""
    return xi_frame(form, x).coords(xi_projector(form, x)(v))


def monodromy_xi(form, orbit_point, T, closure_tol=1e-6):
    """The 2x2 linearized period map on the contact plane in the global frame
    at a T-periodic point, from one variational run at tol 1e-12."""
    x0 = np.asarray(orbit_point, dtype=float)
    run, = integrate_batch(form, x0[None], T, tol=1e-12, variational=True)
    if isinstance(run, Exception):
        raise run
    return xi_period_map(form, x0, run, closure_tol)


def pushoff_linking(form, trace, eps, vector):
    """Linking number of an (N, 4) trace with its pushoff of size ``eps``
    along ``xi_frame``'s ``vector`` ("e1" or "e2"): ``self_linking``'s Gauss
    sum at any pushoff size, refusing curves closer than
    min(``_MIN_CURVE_DIST``, 0.2 eps)."""
    section = getattr(xi_frame(form, trace), vector)
    pushed = project_to_sigma(form, trace + eps * section)
    bound = min(_MIN_CURVE_DIST, 0.2 * eps)
    gap = kernels.min_cross_distance(trace, pushed)
    if gap <= bound:
        raise ProximityError(f"curves are {gap:.2e} apart (< {bound:.0e})")
    pole = pick_pole([trace, pushed])
    lk, _ = linking_number(np.ascontiguousarray(stereo_project(trace, pole)),
                           np.ascontiguousarray(stereo_project(pushed, pole)))
    return lk


def embed(frame, ab):
    """Contact-plane vectors a e1 + b e2 from frame coordinates (..., 2)."""
    ab = np.asarray(ab, dtype=float)
    return ab[..., 0, None] * frame.e1 + ab[..., 1, None] * frame.e2


# the weighted Hamiltonian H(x) = |x|^2 / p(x/|x|) by the chain rule through
# u = x/|x|, from the monomial derivative tables of p

def monomial_tables(exps, coeffs):
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


def monomial_parts(tables, u):
    """(p, grad p, Hess p) at points u of shape (..., 4)."""
    table_exps, table_coeffs = tables
    terms = np.prod(u[..., None, None, :] ** table_exps, axis=-1)
    vals = np.vecdot(terms, table_coeffs)  # (..., 15)
    return vals[..., 0], vals[..., 1:5], np.take(vals, _HESS_BLOCK, axis=-1)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def chain_rule_h_parts(form, x, order):
    """(H, grad H, Hess H) of a weighted form at points x of shape (..., 4);
    the parts above ``order`` are None."""
    r2 = np.vecdot(x, x)
    r = np.sqrt(r2)
    u = x / r[..., None]
    p0, pg, ph = monomial_parts(monomial_tables(form.exps, form.coeffs), u)
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
# the weighted kernel through numpy's wrapper functions, each order's blocks
# sliced from the table of all 15
# ---------------------------------------------------------------------------

def plain_poly_parts(tables, u):
    exps, coeffs = tables[:2]
    return np.vecdot(np.prod(u[..., None, :] ** exps, axis=-1), coeffs)


def _plain_weight_blocks(tables, x, r2, order):
    _, _, rows, index, factor = tables
    index, factor = index[1], factor[1]  # all 15 blocks
    z = np.ones(x.shape[:-1] + (rows, 5))
    z[..., 1:, :4] = x[..., None, :]
    z[..., 1:, 4] = (1.0 / np.sqrt(r2))[..., None]
    powers = np.cumprod(z, axis=-2).reshape(x.shape[:-1] + (5 * rows,))
    index = index[:, :5].copy() if order == 1 else index
    terms = np.prod(np.take(powers, index, axis=-1), axis=-3)
    return np.vecdot(terms, factor[:index.shape[1]])


def plain_weighted_h_parts(tables, x, order):
    r2 = np.vecdot(x, x)
    if order == 0:
        return r2 / plain_poly_parts(tables, x / np.sqrt(r2)[..., None]), None, None
    vals = _plain_weight_blocks(tables, x, r2, order)
    f = vals[..., 0, None]
    h = r2 / vals[..., 0]
    gradH = (2.0 * x - h[..., None] * vals[..., 1:5]) / f
    if order == 1:
        return h, gradH, None
    fg = vals[..., 1:5, None] * gradH[..., None, :]
    hessH = (2.0 * np.eye(4) - fg - np.swapaxes(fg, -1, -2)
             - h[..., None, None] * np.take(vals, _HESS_BLOCK, axis=-1)
             ) / f[..., None]
    return h, gradH, hessH


def plain_weighted_rhs(x, tables):
    _, g, _ = plain_weighted_h_parts(tables, x, 1)
    return g @ OMEGA


def plain_weighted_var_rhs(y, tables):
    _, g, hh = plain_weighted_h_parts(tables, y[..., :4], 2)
    dm = -OMEGA @ (hh @ y[..., 4:].reshape(y.shape[:-1] + (4, 4)))
    return np.concatenate((g @ OMEGA, dm.reshape(y.shape[:-1] + (16,))), axis=-1)


# ---------------------------------------------------------------------------
# the flow's dense coefficients by stacking, each row's steps by a mask and
# the dense evaluation from a tiled start
# ---------------------------------------------------------------------------

def stacked_interpolant(K, y_old, y_new, h):
    dy = y_new - y_old
    return np.concatenate([np.stack([dy, h * K[:, 0] - dy, 2 * dy - h * (
        K[:, flow._S] + K[:, 0])], axis=1), h[:, None] * (flow._D @ K)], axis=1)


def masked_integrate_batch(form, x0, t_final, tol, variational=False,
                           dense=False):
    x0 = np.asarray(x0, dtype=float)
    t_end = np.broadcast_to(np.asarray(t_final, dtype=float), (len(x0),))
    out = [OffLevelError(f"initial point off level by {e:.3e}")
           if not e <= 1e-7
           else None if np.isfinite(t) else DomainError("t_final must be finite")
           for e, t in zip(np.abs(form.H(x0) - 1.0), t_end)]
    run = np.array([i for i, o in enumerate(out) if o is None], dtype=int)
    y0 = x0 if not variational else np.concatenate(
        [x0, np.tile(np.eye(4).ravel(), (len(x0), 1))], axis=1)
    steps, errors = flow._steps(form, flow._rhs(form, variational), run,
                                y0[run], t_end[run], tol, dense)
    for i, exc in errors.items():
        out[i] = exc
    ids, s_all, y_all, F_all = (None if c[0] is None else np.concatenate(c)
                                for c in zip(*steps))
    for i in [i for i, o in enumerate(out) if o is None]:
        p = np.flatnonzero(ids == i)
        out[i] = flow.FlowResult(
            np.concatenate([[0.0], np.sign(t_end[i]) * s_all[p]]),
            np.concatenate([y0[i:i + 1], y_all[p]]),
            None if F_all is None else F_all[p])
    return out


def tiled_flow_call(res, t):
    t = np.asarray(t, dtype=float)
    tt = np.atleast_1d(t)
    out = np.tile(res.states[0], (len(tt), 1))
    if len(res.F):
        direction = np.sign(res.times[-1])
        idx = np.clip(np.searchsorted(res.times[1:-1] * direction,
                                      tt * direction), 0, len(res.F) - 1)
        t_old = res.times[idx]
        x = ((tt - t_old) / (res.times[idx + 1] - t_old))[:, None]
        coeffs = res.F[idx]
        out = np.zeros_like(out)
        for j in range(6, -1, -1):
            out += coeffs[:, j]
            out *= x if j % 2 == 0 else 1 - x
        out += res.states[idx]
    return out[0] if t.ndim == 0 else out


# ---------------------------------------------------------------------------
# synthetic paths (model cases and property-suite fixtures)
# ---------------------------------------------------------------------------

def grid(n):
    """The N + 1 sample times of an N-step ``SymplecticPath``."""
    return np.linspace(0.0, 1.0, n + 1)


def pure_rotation_path(turns, n=512):
    """phi(t) = rotation by 2 pi * turns * t."""
    th = 2.0 * np.pi * turns * grid(n)
    mats = np.stack([
        np.stack([np.cos(th), -np.sin(th)], axis=-1),
        np.stack([np.sin(th), np.cos(th)], axis=-1),
    ], axis=-2)
    return SymplecticPath(mats=mats)


def nondegenerate(path, tol):
    """Whether 1 is no eigenvalue of the path's endpoint, to ``tol``."""
    return abs(np.linalg.det(path.endpoint - np.eye(2))) > tol


def hyperbolic_path(rate):
    """phi(t) = diag(e^{rate t}, e^{-rate t}) on a 512-step grid."""
    ts = grid(512)
    mats = np.zeros((513, 2, 2))
    mats[:, 0, 0] = np.exp(rate * ts)
    mats[:, 1, 1] = np.exp(-rate * ts)
    return SymplecticPath(mats=mats)


def _expm_traceless(M):
    """Closed-form exponentials of a batch (..., 2, 2) of traceless matrices."""
    d = M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
    out = np.empty_like(M)
    s = np.sqrt(np.abs(d))
    small = s < 1e-12
    with np.errstate(invalid="ignore", divide="ignore"):
        c = np.where(d > 0, np.cos(s), np.cosh(s))
        f = np.where(d > 0, np.sin(s) / s, np.sinh(s) / s)
    f = np.where(small, 1.0, f)
    c = np.where(small, 1.0, c)
    out[..., 0, 0] = c + f * M[..., 0, 0]
    out[..., 0, 1] = f * M[..., 0, 1]
    out[..., 1, 0] = f * M[..., 1, 0]
    out[..., 1, 1] = c + f * M[..., 1, 1]
    return out


def _integrate_generator(coef_fn, n):
    """Path from phi' = -Omega2 C(t) phi with C symmetric.

    Midpoint-exponential stepping: each step is the exact exponential of a
    traceless Hamiltonian matrix, so the path is symplectic to roundoff.
    """
    omega2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    h = 1.0 / n
    mids = (np.arange(n) + 0.5) * h
    gens = -h * (omega2 @ np.stack([coef_fn(t) for t in mids]))
    steps = _expm_traceless(gens)
    mats = np.empty((n + 1, 2, 2))
    phi = np.eye(2)
    mats[0] = phi
    for i in range(n):
        phi = steps[i] @ phi
        mats[i + 1] = phi
    return SymplecticPath(mats=mats)


def random_nondegenerate_path(rng):
    """Random smooth symplectic path with a non-degenerate endpoint.

    The path has 1024 steps, a rotation rate drawn from [-3 pi, 3 pi] and
    Fourier wobbles of scale 0.7; up to 20 draws are tried, and a draw with a
    step map that moves by ``STEP_GUARD`` or more is redrawn.  A dominant
    isotropic rotation keeps the hyperbolic stretch bounded while the paths
    still cover several index values.
    """
    for _ in range(20):
        w0 = rng.uniform(-3.0 * np.pi, 3.0 * np.pi)
        c = rng.normal(scale=0.7, size=(3, 3))  # 3 Fourier modes x 3 entries

        def coef(t, w0=w0, c=c):
            val = np.zeros(3)
            for m in range(3):
                val += c[m] * np.cos(2 * np.pi * m * t + m)
            return np.array([[w0 + val[0], val[1]], [val[1], w0 + val[2]]])

        path = _integrate_generator(coef, 1024)
        if not _step_distance(path.mats) < STEP_GUARD:
            continue
        if abs(np.linalg.det(path.endpoint - np.eye(2))) > 1e-3:
            return path
    raise ResolutionError("failed to draw a non-degenerate random path")


def random_loop(rng, maslov, n=512):
    """Random smooth loop at the identity with the given Maslov number; its
    bump amplitudes are normal with scale 0.5."""
    base = pure_rotation_path(maslov, n)
    bump = np.sin(np.pi * grid(n)) ** 2
    a = rng.normal(scale=0.5, size=2)
    gens = np.zeros((n + 1, 2, 2))
    gens[:, 0, 0] = bump * a[0]
    gens[:, 0, 1] = bump * a[1]
    gens[:, 1, 0] = bump * a[1]
    gens[:, 1, 1] = -bump * a[0]
    mats = base.mats @ _expm_traceless(gens)
    mats[0] = np.eye(2)
    mats[-1] = np.eye(2)
    return SymplecticPath(mats=mats)


def compose_paths(psi, phi):
    """Pointwise product (psi phi)(t) = psi(t) phi(t) on a common grid."""
    if psi.n_steps != phi.n_steps:
        raise DomainError("paths must share the sample grid")
    return SymplecticPath(mats=psi.mats @ phi.mats)


def invert_path(phi):
    return SymplecticPath(mats=np.linalg.inv(phi.mats))


def path_power(phi, k):
    """Path of the k-th iterate: t -> phi(kt mod 1) phi(1)^{floor(kt)}."""
    n = phi.n_steps
    powers = [np.eye(2)]  # phi(1)^block
    for _ in range(k - 1):
        powers.append(phi.endpoint @ powers[-1])
    powers = np.stack(powers)[:, None]
    mats = np.concatenate([(phi.mats[:n] @ powers).reshape(-1, 2, 2),
                           phi.mats[n:] @ powers[-1]])
    return SymplecticPath(mats=mats)


# ---------------------------------------------------------------------------
# loops, spectra and iterates
# ---------------------------------------------------------------------------

def maslov_loop(path):
    """Winding number of the polar rotation angle over a loop closed at I
    within 1e-8."""
    path.validate()
    if np.abs(path.endpoint - path.mats[0]).max() > 1e-8:
        raise DomainError("loop is not closed at the required tolerance")
    m = path.mats
    # polar factor of a 2x2 matrix with positive determinant has rotation
    # angle atan2(c - b, a + d)
    theta = np.unwrap(np.arctan2(m[:, 1, 0] - m[:, 0, 1],
                                 m[:, 0, 0] + m[:, 1, 1]))
    turns = (theta[-1] - theta[0]) / (2.0 * np.pi)
    k = round(turns)
    if abs(turns - k) > 1e-6:
        raise ResolutionError(f"polar winding {turns:.6f} is not an integer")
    return int(k)


def grid_interval(path, n_dirs):
    """(lo, hi) of the rotations of ``n_dirs`` directions evenly spaced over
    the half circle, each tracked over every step of the path, 2000
    directions at a time; a step above pi/2 raises ``ResolutionError``."""
    lo, hi = np.inf, -np.inf
    for start in range(0, n_dirs, 2000):
        ang = np.pi * np.arange(start, min(n_dirs, start + 2000)) / n_dirs
        dth = kernels.angle_steps(path.mats @ np.stack([np.cos(ang), np.sin(ang)]))
        if np.abs(dth).max() > 0.5 * np.pi:
            raise ResolutionError(
                f"direction tracking under-resolved (angle step "
                f"{np.abs(dth).max():.2f} rad)")
        deltas = dth.sum(axis=0) / (2.0 * np.pi)
        lo, hi = min(lo, deltas.min()), max(hi, deltas.max())
    return float(lo), float(hi)


def spectrum(form, orbit, n_grid):
    """The orbit's spectral data from its own trivialized path on
    ``n_grid`` steps, as its index report reads them."""
    path = trivialized_path(form, orbit, n_grid)
    return asymptotic_spectrum(path, rotation_interval(path).turns)


def galerkin_matrix(S, K):
    """``cz._galerkin_matrix`` by matrix products over the grid: the modes
    1, sqrt2 cos(2 pi k t), sqrt2 sin(2 pi k t), k <= K, sampled as the
    columns of F, and (1/n) sum_j B_j^T S_j B_j from F^T (S F)."""
    n, m, k = len(S), 2 * K + 1, np.arange(1, K + 1)
    phase = 2.0 * np.pi * np.outer(np.arange(n) / n, k)
    F = np.ones((n, m))
    F[:, 1::2], F[:, 2::2] = np.sqrt(2.0) * np.cos(phase), np.sqrt(2.0) * np.sin(phase)
    sigma = n * np.sin(2.0 * np.pi * k / n)
    D = np.zeros((m, m))
    D[2 * k, 2 * k - 1] = -sigma  # d/dt cos = -sigma sin
    D[2 * k - 1, 2 * k] = sigma   # d/dt sin = sigma cos
    FS = (S.reshape(n, 4)[:, :, None] * F[:, None, :]).reshape(n, 4 * m)
    GS = (F.T @ FS).reshape(m, 2, 2, m).transpose(0, 1, 3, 2) / n
    return np.kron(D, -J0) + GS.reshape(2 * m, 2 * m), F


def _eigenfunction_winding(v):
    """Degree of v/|v| for m functions sampled on the periodic grid, v (n, 2, m);
    NaN where a function vanishes or the degree is not an integer."""
    total = kernels.angle_steps(np.concatenate([v, v[:1]])).sum(axis=0) / (2.0 * np.pi)
    k = np.round(total)
    sq = (v * v).sum(axis=1)
    ok = (sq.min(axis=0) >= 1e-16 * sq.max(axis=0)) & (np.abs(total - k) <= 1e-6)
    return np.where(ok, k, np.nan)


def galerkin_pairs(S, K):
    """All eigenvalues of ``galerkin_matrix`` with the windings of all their
    eigenfunctions, sampled on the grid by F."""
    A, F = galerkin_matrix(S, K)
    vals, vecs = np.linalg.eigh(A)
    m = 2 * K + 1
    samples = (F @ vecs.reshape(m, 4 * m)).reshape(len(S), 2, 2 * m)
    return vals, _eigenfunction_winding(samples)


def winding_census(data):
    """Count of computed eigenvalues per winding, restricted to winding
    classes strictly inside the computed range (those are complete)."""
    order = np.argsort(data.eigenvalues)
    winds = data.windings[order]
    census = {}
    for k in range(winds.min() + 1, winds.max()):
        census[int(k)] = int(np.sum(winds == k))
    monotone = bool(np.all(np.diff(winds) >= 0))
    return census, monotone


def period_gaps(db, C):
    """Minimal period, minimal gap between distinct periods up to C, and a
    safe lower scale sigma = 0.5 * min(sigma1, sigma2).

    sigma2 is infinite (numpy inf marker) when fewer than two distinct
    periods lie below C.
    """
    if len(db) == 0:
        raise DomainError("period_gaps needs a non-empty database")
    periods = np.array(sorted(o.T for o in db.orbits))
    sigma1 = float(periods[0])
    below = periods[periods <= C]
    distinct = []
    for p in below:
        if not distinct or p - distinct[-1] > 1e-9:
            distinct.append(p)
    if len(distinct) < 2:
        sigma2 = np.inf
    else:
        sigma2 = float(np.diff(np.array(distinct)).min())
    sigma = 0.5 * min(sigma1, sigma2)
    return sigma1, sigma2, sigma


def iterate_index_table(form, orbit, k_max):
    """Geometric indices of the first ``k_max`` iterates of a prime orbit.

    Degenerate iterates are flagged and left out of the table.  Each index
    must equal Bott's iteration formula read off the prime's own interval
    (``cz.bott_index``); a mismatch is an internal-consistency error, not a
    property of the orbit.
    """
    if orbit.multiplicity != 1:
        raise DomainError("iterate table expects a simply covered orbit")
    table = []
    flags = []
    for k in range(1, k_max + 1):
        it = orbit.iterate(k)
        if it.degenerate:
            flags.append(k)
            continue
        iv = rotation_interval(trivialized_path(form, it, max(256, 128 * k)))
        if k == 1:
            prime_interval = [iv.lo, iv.hi]
        mu, deg = cz_from_interval(iv)
        if deg:
            flags.append(k)
            continue
        bott = bott_index(prime_interval, orbit.monodromy, orbit.nondeg_class,
                          1, k)
        if mu != bott:
            raise InconsistencyError(f"mu({k}) = {mu}, Bott's formula {bott}")
        table.append((k, mu))
    return table, flags


def full_grid_crossings(a3, b3, direction):
    """``linking._crossing_scan`` over the full grid of segment pairs (i, j),
    masked to j >= i + 2 without the wrap-adjacent pair (0, n - 1) when
    ``b3 is a3``.  The near-parallel refusal is masked to the pairs whose
    boxes, padded by ``_BOX_PAD`` of both shadows' extent, meet; the
    crossings are sought among all pairs, so an equal result also shows
    that the scan's culling loses none."""
    sa, sb = _shadow(a3, direction), _shadow(b3, direction)
    (A, r, rn), (B, s, sn) = sa[:3], sb[:3]
    n, m = len(a3), len(b3)
    i, j = np.ogrid[:n, :m]
    pairs = ((j >= i + 2) & ((i > 0) | (j < n - 1)) if b3 is a3
             else np.ones((n, m), dtype=bool))
    pad = _BOX_PAD * np.ptp(np.hstack([A, B]), axis=1).max()
    A1, B1 = np.roll(A, -1, axis=1), np.roll(B, -1, axis=1)
    lo_a, hi_a = np.minimum(A, A1) - pad, np.maximum(A, A1) + pad
    lo_b, hi_b = np.minimum(B, B1) - pad, np.maximum(B, B1) + pad
    meet = np.all((lo_a[:, :, None] <= hi_b[:, None, :])
                  & (lo_b[:, None, :] <= hi_a[:, :, None]), axis=0)
    cross = r[0][:, None] * s[1][None, :] - r[1][:, None] * s[0][None, :]
    generic = np.abs(cross) > _TANGENT_TOL * (rn[:, None] * sn[None, :])
    if np.any(pairs & meet & ~generic):
        return None
    dqx = B[0][None, :] - A[0][:, None]
    dqy = B[1][None, :] - A[1][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        tt = (dqx * s[1][None, :] - dqy * s[0][None, :]) / cross
        uu = (dqx * r[1][:, None] - dqy * r[0][:, None]) / cross
    hit = (pairs & generic & (tt >= 0.0) & (tt < 1.0)
           & (uu >= 0.0) & (uu < 1.0))
    ii, jj = np.nonzero(hit)
    t, u = tt[hit], uu[hit]
    if np.any(np.minimum(np.minimum(t, 1 - t), np.minimum(u, 1 - u)) < 1e-9):
        return None
    hi, hj = _height(sa, ii, t), _height(sb, jj, u)
    if np.any(np.abs(hi - hj) < 1e-12):
        return None
    return ii, jj, t, u, hi, hj, cross[hit]


def same_scan(x, y):
    """Whether two ``linking._crossing_scan`` results are equal, None or
    array for array, bit for bit."""
    if x is None or y is None:
        return x is None and y is None
    return all(np.array_equal(p, q) for p, q in zip(x, y, strict=True))


# ---------------------------------------------------------------------------
# framed curves
# ---------------------------------------------------------------------------

def framed_curve(knot, turns, eps):
    """A loop in R^3 and its pushoff, each (n, 3): the pushoff runs at
    distance eps along a unit normal that makes ``turns`` right-handed turns
    about the tangent against T x (0.3, 0.2, 1), normalized.  ``knot`` is
    "trefoil" (left-handed), "mirror-trefoil" or "unknot" (a bent circle);
    n is 600."""
    s = np.linspace(0.0, 2.0 * np.pi, 600, endpoint=False)
    if knot == "unknot":
        loop = np.stack([np.cos(s), np.sin(s), 0.3 * np.sin(2 * s)], axis=1)
        tangent = np.stack([-np.sin(s), np.cos(s), 0.6 * np.cos(2 * s)], axis=1)
    else:
        flip = -1.0 if knot == "trefoil" else 1.0
        loop = np.stack([np.sin(s) + 2 * np.sin(2 * s),
                         np.cos(s) - 2 * np.cos(2 * s),
                         flip * np.sin(3 * s)], axis=1)
        tangent = np.stack([np.cos(s) + 4 * np.cos(2 * s),
                            -np.sin(s) + 4 * np.sin(2 * s),
                            3 * flip * np.cos(3 * s)], axis=1)
    tangent /= np.linalg.norm(tangent, axis=1, keepdims=True)
    n1 = np.cross(tangent, [0.3, 0.2, 1.0])
    n1 /= np.linalg.norm(n1, axis=1, keepdims=True)
    n2 = np.cross(tangent, n1)
    c, sn = np.cos(turns * s)[:, None], np.sin(turns * s)[:, None]
    return loop, loop + eps * (c * n1 + sn * n2)


def flat_trefoil_trace(form, height):
    """A (512, 4) loop on the level of ``form``: the left-handed trefoil of
    ``framed_curve``, its third coordinate scaled by ``height``, shrunk by
    0.3, lifted to the unit sphere by inverse stereographic projection and
    projected to the level.  Its strands cross at distances of about
    0.6 ``height``."""
    s = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
    loop = 0.3 * np.stack([np.sin(s) + 2 * np.sin(2 * s),
                           np.cos(s) - 2 * np.cos(2 * s),
                           -height * np.sin(3 * s)], axis=1)
    r2 = np.sum(loop ** 2, axis=1, keepdims=True)
    return project_to_sigma(form, np.hstack([2 * loop, r2 - 1]) / (r2 + 1))


# ---------------------------------------------------------------------------
# the Gauss linking sum over whole blocks of rows
# ---------------------------------------------------------------------------

def _dot3(x, y):
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross3(x, y):
    return np.stack((x[1] * y[2] - x[2] * y[1],
                     x[2] * y[0] - x[0] * y[2],
                     x[0] * y[1] - x[1] * y[0]))


def blocked_gauss_linking_raw(a, b):
    """``kernels.gauss_linking_raw`` with each block of ``_GAUSS_CHUNK`` rows
    computed in one (3, rows + 1, nb + 1) layout."""
    ac = np.concatenate((a, a[:1])).T
    bc = np.concatenate((b, b[:1])).T[:, None, :]
    total = 0.0
    for i0 in range(0, a.shape[0], _GAUSS_CHUNK):
        r = bc - ac[:, i0:i0 + _GAUSS_CHUNK + 1, None]
        u = r / np.sqrt(_dot3(r, r))
        lo, hi = u[:, :-1], u[:, 1:]
        c = _cross3(lo, hi)
        di = _dot3(lo, hi)
        dj = _dot3(u[:, :, :-1], u[:, :, 1:])
        diag = _dot3(lo[:, :, :-1], hi[:, :, 1:])
        det1 = _dot3(lo[:, :, :-1], c[:, :, 1:])
        det2 = -_dot3(hi[:, :, 1:], c[:, :, :-1])
        total += np.sum(np.arctan2(det1, 1.0 + dj[:-1] + diag + di[:, 1:]))
        total += np.sum(np.arctan2(det2, 1.0 + diag + di[:, :-1] + dj[1:]))
    return -total / (2.0 * np.pi)


# ---------------------------------------------------------------------------
# the ellipsoid page, area form and return maps of level points
# ---------------------------------------------------------------------------

def ellipsoid_page(form, orbit, theta0=0.0, n_r=128, n_theta=256):
    """The page {arg z = theta0} of the other coordinate plane, spanning a
    coordinate-plane circle of an exact ellipsoid, in closed form: the
    oracle of ``sections.builtin_disk`` on ellipsoids."""
    x0 = orbit.x0
    if np.hypot(x0[2], x0[3]) < 1e-9:
        plane = 0  # boundary in the (q1, p1) plane
    elif np.hypot(x0[0], x0[1]) < 1e-9:
        plane = 1
    else:
        raise DomainError("orbit is not one of the coordinate-plane circles")
    rb = np.sqrt(form.r_squared[plane])      # boundary circle radius
    rc = np.sqrt(form.r_squared[1 - plane])  # transverse radius
    phi0 = np.arctan2(x0[2 * plane + 1], x0[2 * plane])
    ss = np.linspace(0.0, 1.0, n_r + 1)[:, None, None]
    tt = np.arange(n_theta) / n_theta
    ang = phi0 + 2.0 * np.pi * tt
    zb = rb * np.stack([np.cos(ang), np.sin(ang)], axis=-1)  # (n_theta, 2)
    height = rc * np.sqrt(np.maximum(0.0, 1.0 - ss * ss))
    zc = height * np.array([np.cos(theta0), np.sin(theta0)])
    samples = np.empty((n_r + 1, n_theta, 4))
    samples[:, :, 2 * plane:2 * plane + 2] = ss * zb
    samples[:, :, 2 - 2 * plane:4 - 2 * plane] = zc
    return DiskGrid(samples=samples)


def ring_action(disk, row):
    """Line integral of the primitive 1-form along one grid ring."""
    return polygon_action(disk.samples[row])


def polygon_action(points):
    """Line integral of the primitive 1-form around a closed polygon."""
    pts = np.asarray(points, dtype=float)
    nxt = np.roll(pts, -1, axis=0)
    return float(0.5 * np.einsum("ij,jk,ik->", pts, OMEGA, nxt))


def disk_area(form, disk, rows=None):
    """Area of (a radial band of) the disk in the contact area form.

    Returns (area, boundary_integral); for the full disk the boundary
    integral is the orbit action.  A relative mismatch above 1% (Stokes)
    raises a grid-quality error.
    """
    s = disk.samples
    i0, i1 = (0, disk.n_r) if rows is None else rows
    sub = s[i0:i1 + 1]
    nxt = np.roll(sub, -1, axis=1)
    a = 0.5 * ((sub[1:] - sub[:-1]) + (nxt[1:] - nxt[:-1]))
    b = 0.5 * ((nxt[:-1] - sub[:-1]) + (nxt[1:] - sub[1:]))
    area = float(np.einsum("ijk,kl,ijl->", a, OMEGA, b))
    boundary = ring_action(disk, i1) - (ring_action(disk, i0) if i0 > 0 else 0.0)
    if abs(boundary) > 1e-12:
        rel = abs(area - boundary) / abs(boundary)
        if rel > 1e-2:
            raise GridQualityError(
                f"area quadrature disagrees with the boundary integral by "
                f"{100 * rel:.2f}%"
            )
    return area, boundary



def return_map_points(form, disk, points, t_budget, index=None):
    """Forward first-return (point, time), or None, of explicit level points
    (not necessarily on the disk)."""
    if index is None:
        index = _DiskIndex(form, disk)
    X = project_to_sigma(form, np.reshape(points, (-1, 4)))
    return [hit for hit, _ in _first_crossing(form, index, X, np.ones(len(X)),
                                              t_budget)]


# ---------------------------------------------------------------------------
# the orbit search, one survivor at a time
# ---------------------------------------------------------------------------

def near_return_candidates(times, pts, min_period, threshold, max_keep):
    """``orbits._near_return_candidates`` with the pairwise distances taken
    by ``np.linalg.norm`` of the (n, n, 4) difference array."""
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dt = times[None, :] - times[:, None]
    interior = np.zeros_like(d, dtype=bool)
    interior[:, 1:-1] = (d[:, 1:-1] <= d[:, :-2]) & (d[:, 1:-1] <= d[:, 2:])
    mask = (dt >= min_period) & (d < threshold) & interior
    ii, jj = np.nonzero(mask)
    if len(ii) == 0:
        return []
    order = np.argsort(d[ii, jj])
    kept = []
    for idx in order:
        i, j = ii[idx], jj[idx]
        cand_dt = dt[i, j]
        if any(abs(cand_dt - kdt) < 0.5 * min_period for _, kdt, _ in kept):
            continue
        kept.append((pts[i], cand_dt, d[i, j]))
        if len(kept) >= max_keep:
            break
    return kept


def sequential_refine_orbit(form, x_guess, T_guess, initial_residual_cap):
    """``refine_orbit`` with every flow its own one-row integration: the
    polish, the dense multiplicity run, the plain run to a cover's prime
    period and ``monodromy_xi``'s variational run."""
    polished, = orbits._newton_polish(form, np.reshape(x_guess, (1, 4)),
                                      [T_guess], initial_residual_cap)
    if isinstance(polished, Exception):
        raise polished
    x, T, residual, _, degenerate_family = polished
    if degenerate_family:
        from scipy.optimize import minimize_scalar

        g = lambda t: np.linalg.norm(
            integrate_flow(form, x, t, tol=1e-12).endpoint - x)
        opt = minimize_scalar(g, bracket=(0.8 * T, T, 1.2 * T))
        if opt.fun > 1e-9:
            raise RefinementError(
                f"rank-deficient shooting Jacobian and no nearby closure "
                f"(best residual {opt.fun:.3e})")
        T, residual = float(opt.x), float(opt.fun)
    elif residual > orbits._NEWTON_TOL:
        raise RefinementError(
            f"no convergence in {orbits._NEWTON_MAX_ITER} iterations "
            f"(residual {residual:.3e})")
    traj = integrate_flow(form, x, T, tol=1e-12, dense=True)
    closure = np.linalg.norm(traj.endpoint - x)
    ks = np.arange(2, min(max(1, int(T / 0.05)), 64) + 1)
    ys = project_to_sigma(form, traj(T / ks)[:, :4])
    closed = ks[kernels.norm(ys - x) < 1e-6]
    mult = int(closed.max()) if closed.size else 1
    T_min = T / mult
    prime_res = closure if mult == 1 else np.linalg.norm(
        integrate_flow(form, x, T_min, tol=1e-12).endpoint - x)
    mon_prime = monodromy_xi(form, x, T_min, closure_tol=1e-5)
    mon_full = np.linalg.matrix_power(mon_prime, mult)
    return orbits.ReebOrbit(
        x0=x, T_min=T_min, multiplicity=mult, monodromy=mon_full,
        nondeg_class=orbits.classify_monodromy(mon_full),
        residual=float(max(residual, closure, prime_res)))


def sequential_find_orbits(form, T_max, n_seeds, rng_seed=0, log=None,
                           candidates=None):
    """``find_orbits`` replaying the polished candidates one survivor at a
    time: ``sequential_refine_orbit`` per survivor, again at the prime
    period for a cover, then ``trace_orbit``.  ``candidates``, if given,
    replaces the near-return scan's (point, period, distance) list.  The
    funnel keeps the search's counts, without stepper work."""
    seeds = project_to_sigma(form, orbits.sphere_samples(
        n_seeds, seed_skip=rng_seed * (n_seeds + 1)))
    t_grid = np.arange(0.0, T_max + 0.5 * orbits._SCAN_DT, orbits._SCAN_DT)
    primes, traces = [], []

    def known(x, T):
        tol = orbits._DEDUP_TOL
        for prime, tr in zip(primes, traces):
            if kernels.point_to_polyline(np.ascontiguousarray(x), tr) < tol:
                k = T / prime.T_min
                if round(k) >= 1 and abs(k - round(k)) * prime.T_min < tol:
                    return True
        return False

    funnel = Counter(seeds=len(seeds), dropped=0, known=0)
    iters_seen = Counter()

    def drop(reason):
        funnel["dropped"] += 1
        if log is not None:
            log.append(reason)

    cands = candidates
    if cands is None:
        cands = []
        for run in integrate_batch(form, seeds, float(t_grid[-1]), tol=1e-8,
                                   dense=True):
            cands += orbits._near_return_candidates(
                t_grid, project_to_sigma(form, run(t_grid)[:, :4]),
                orbits._MIN_PERIOD, orbits._CANDIDATE_THRESHOLD, max_keep=4)
    polished = orbits._newton_polish(
        form, [x for x, _, _ in cands], [dt for _, dt, _ in cands],
        initial_residual_cap=orbits._CANDIDATE_THRESHOLD + 1e-9)
    for outcome in polished:
        try:
            if isinstance(outcome, Exception):
                raise outcome
            x, T, _, iters, degenerate_family = outcome
            iters_seen[iters] += 1
            if not degenerate_family and known(x, T):
                funnel["known"] += 1
                continue
            orb = sequential_refine_orbit(form, x, T, 1.0)
            if orb.T_min > T_max + 1e-9:
                drop(f"prime period {orb.T_min:.6f} beyond cap")
                continue
            prime = orb if orb.multiplicity == 1 else sequential_refine_orbit(
                form, orb.x0, orb.T_min, np.inf)
            tr = orbits.trace_orbit(form, prime, n=512)
        except orbits._CANDIDATE_ERRORS as exc:
            drop(f"candidate dropped: {exc}")
            continue
        if any(kernels.hausdorff_distance(tr, t0) <= orbits._DEDUP_TOL
               for t0 in traces):
            funnel["known"] += 1
            continue
        primes.append(prime)
        traces.append(tr)
    funnel.update(candidates=len(cands), new_primes=len(primes))
    funnel["newton_iters"] = dict(sorted(iters_seen.items()))
    entries = [prime.iterate(k) for prime in primes
               for k in range(1, max(int(np.floor(T_max / prime.T_min + 1e-9)), 1) + 1)
               if k * prime.T_min <= T_max + 1e-9]
    entries.sort(key=lambda o: (o.T, tuple(o.x0)))
    params = {
        "t_max": float(T_max), "n_seeds": int(n_seeds),
        "rng_seed": int(rng_seed), "scan_dt": orbits._SCAN_DT,
        "min_period": orbits._MIN_PERIOD,
        "candidate_threshold": orbits._CANDIDATE_THRESHOLD,
        "dedup_tol": orbits._DEDUP_TOL,
    }
    return orbits.OrbitDatabase(form_hash=form.form_hash, orbits=entries,
                                params=params, funnel=dict(funnel))


# ---------------------------------------------------------------------------
# section crossings
# ---------------------------------------------------------------------------

def bisect_crossing_loop(index, traj, t_lo, t_hi, flat_idx):
    """The tangent-plane crossing by one halving per trajectory call: at most
    60 halvings, stopping once the bracket is below 1e-10."""
    h_lo = index.plane_height(traj(t_lo)[:4], flat_idx)
    for _ in range(60):
        t_mid = 0.5 * (t_lo + t_hi)
        h_mid = index.plane_height(traj(t_mid)[:4], flat_idx)
        if np.sign(h_mid) == np.sign(h_lo):
            t_lo = t_mid
            h_lo = h_mid
        else:
            t_hi = t_mid
        if abs(t_hi - t_lo) < 1e-10:
            break
    return 0.5 * (t_lo + t_hi)


def search_row_unbounded(form, index, x, sign, t_budget):
    """``sections._search_row`` run alone: a one-row dense integration per
    chunk, every scan point's nearest node by an unbounded tree query, each
    bracket by ``bisect_crossing_loop`` and each locate by its own call."""
    work = Counter(chunks=0, steps=0, rejected_near_binding=0,
                   rejected_by_polish=0)
    dt_scan = index.cell / (2.0 * index.vmax)
    chunk = max(4.0 * dt_scan, t_budget / 16.0)
    near = 2.5 * index.cell

    def heights(ys):
        dists, idxs = index.tree.query(ys)
        return dists, idxs, index.plane_height(ys, idxs)

    def refine(traj, t_cross, nhat):
        gen, answer = _refine_to_surface(index, traj, t_cross, nhat), None
        try:
            while True:
                _, run, t = gen.send(answer)
                y = run(t)[:4]
                answer = y, index.locate([y])[0]
        except StopIteration as done:
            return done.value

    t_done = 0.0
    armed = abs(heights(x[None, :])[2][0]) > 0.05 * index.cell
    carry = None
    while t_done < t_budget - 1e-12:
        span = min(chunk, t_budget - t_done)
        traj = integrate_flow(form, x, sign * span, tol=1e-10, dense=True)
        work.update(chunks=1, steps=len(traj.F))
        n_samp = max(2, int(np.ceil(span / dt_scan)) + 1)
        ts = np.linspace(0.0, sign * span, n_samp)
        ys = traj(ts)[:, :4]
        dists, idxs, hs = heights(ys)
        prev = None if carry is None else (carry[0], carry[1], 0.0)
        for k in range(len(ts)):
            if dists[k] > near:
                prev = None
                armed = True
                continue
            h = hs[k]
            if not armed:
                if abs(h) > 0.05 * index.cell:
                    armed = True
                prev = (h, idxs[k], ts[k])
                continue
            if prev is not None and np.sign(h) != np.sign(prev[0]) and h != 0.0:
                t_cross = bisect_crossing_loop(index, traj, prev[2], ts[k],
                                               prev[1])
                y, t_cross, ok = refine(traj, t_cross, index.normals[prev[1]])
                global_t = t_done + abs(t_cross)
                if not ok:
                    work["rejected_by_polish"] += 1
                elif global_t > 1e-9:
                    if index.boundary_distance(y) > 1e-3:
                        return (project_to_sigma(form, y), sign * global_t), work
                    work["rejected_near_binding"] += 1
                armed = False
                prev = (h, idxs[k], ts[k])
                continue
            prev = (h, idxs[k], ts[k])
        carry = None if dists[-1] > near else (hs[-1], idxs[-1])
        x = project_to_sigma(form, ys[-1])
        t_done += span
    return None, work


def sequential_return_map(form, disk, seeds, t_budget, direction):
    """``sections.return_map``'s records from ``search_row_unbounded`` per
    seed, each return located by its own call."""
    index = _DiskIndex(form, disk)
    seeds = np.reshape(seeds, (-1, 2))
    dirs = np.broadcast_to(direction, len(seeds))
    X = project_to_sigma(form, _grid_point(disk, seeds[:, 0], seeds[:, 1]))
    out = []
    for (s0, t0), x, d in zip(seeds, X, dirs):
        hit, work = search_row_unbounded(form, index, x,
                                         1.0 if d == "forward" else -1.0,
                                         t_budget)
        out.append({"seed_s": float(s0), "seed_t": float(t0),
                    "timeout": hit is None, **work})
        if hit is not None:
            s, t = index.locate([hit[0]])[0][:2]
            out[-1].update(return_s=float(s), return_t=float(t),
                           return_time=float(hit[1]), return_point=hit[0])
    return out
