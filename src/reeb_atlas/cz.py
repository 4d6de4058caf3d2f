"""Conley-Zehnder indices of periodic orbits, two independent ways.

The geometric route tracks the rotation of directions under the trivialized
linearized flow and reads the index off the rotation interval.  The spectral
route discretizes the first-order operator along the orbit (central
differences on a periodic grid), extracts eigenvalues nearest zero together
with the winding numbers of their eigenfunctions, and evaluates
``2 * wind(nu_neg) + p``.  The two must agree exactly on non-degenerate
orbits; the test suite enforces that.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import kernels
from .contact import xi_frame, xi_projector
from .errors import (DegenerateOrbitError, DomainError, InconsistencyError,
                     ResolutionError)
from .flow import integrate_flow

__all__ = [
    "SymplecticPath",
    "RotationInterval",
    "SpectralData",
    "trivialized_path",
    "rotation_interval",
    "cz_from_interval",
    "maslov_loop",
    "asymptotic_spectrum",
    "cz_from_spectrum",
    "iterate_index_table",
    "winding_census",
    "orbit_index_report",
    "pure_rotation_path",
    "hyperbolic_path",
    "random_nondegenerate_path",
    "random_loop",
    "compose_paths",
    "invert_path",
    "path_power",
]

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])

STEP_GUARD = 0.5
DEGENERACY_MARGIN = 1e-4


@dataclass
class SymplecticPath:
    """Sampled path of 2x2 symplectic matrices on [0,1] with phi(0) = I."""

    times: np.ndarray  # (N+1,) uniform grid including both endpoints
    mats: np.ndarray   # (N+1, 2, 2)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.shape[0] != self.times.shape[0] or self.mats.shape[1:] != (2, 2):
            raise DomainError("path samples must be (N+1, 2, 2)")

    @property
    def n_steps(self):
        return len(self.times) - 1

    @property
    def endpoint(self):
        return self.mats[-1]

    def validate(self):
        if np.abs(self.mats[0] - np.eye(2)).max() > 1e-12:
            raise DomainError("path must start at the identity")
        dets = np.linalg.det(self.mats)
        if np.abs(dets - 1.0).max() > 1e-6:
            raise DomainError(
                f"path leaves the symplectic group: |det-1| up to "
                f"{np.abs(dets - 1.0).max():.2e}"
            )
        jumps = np.linalg.norm(np.diff(self.mats, axis=0), axis=(1, 2))
        if jumps.max() >= STEP_GUARD:
            raise ResolutionError(
                f"consecutive path samples jump by {jumps.max():.3f} >= "
                f"{STEP_GUARD}; densify the path"
            )
        return self

    def nondegenerate(self, tol=1e-12):
        return abs(np.linalg.det(self.endpoint - np.eye(2))) > tol


@dataclass
class RotationInterval:
    """Range of direction rotations (in turns) over a symplectic path."""

    lo: float
    hi: float
    degenerate_margin: float

    @property
    def length(self):
        return self.hi - self.lo


@dataclass
class SpectralData:
    """Eigenvalues of the orbit operator nearest zero with their windings."""

    eigenvalues: np.ndarray  # sorted, ghost-filtered
    windings: np.ndarray     # integer winding per eigenvalue
    nu_neg: float
    nu_pos: float
    wind_nu_neg: int
    p: int
    n_grid: int

    def validate(self):
        if not (self.nu_neg < 0.0 < self.nu_pos):
            raise InconsistencyError("extreme eigenvalues must straddle zero")
        return self


# ---------------------------------------------------------------------------
# trivialized linearized flow along an orbit
# ---------------------------------------------------------------------------

def _path_samples(form, orbit, n):
    T = orbit.T
    ts = np.linspace(0.0, T, n + 1)
    res = integrate_flow(form, orbit.x0, T, tol=1e-12, variational=True,
                         t_eval=ts)
    fr = xi_frame(form, res.points)
    proj = xi_projector(form, res.points)
    M = res.monodromy4
    mats = np.empty((n + 1, 2, 2))
    mats[:, :, 0] = fr.coords(proj(M @ fr.e1[0]))
    mats[:, :, 1] = fr.coords(proj(M @ fr.e2[0]))
    mats[0] = np.eye(2)  # exact by construction, pinned against roundoff
    prev, cur = fr.e1[:-1], fr.e1[1:]
    cosang = np.abs(np.vecdot(prev, cur)) / (kernels.norm(prev) * kernels.norm(cur))
    max_frame_angle = np.arccos(np.minimum(1.0, cosang)).max(initial=0.0)
    return mats, max_frame_angle


def trivialized_path(form, orbit, n_min=256):
    """Linearized Reeb flow along an orbit, expressed in the global frame.

    The orbit's residual must be at most 1e-9.  The sample count doubles
    automatically from ``n_min`` until the frame rotates by less than pi/4
    per step and consecutive matrices move by less than the resolution guard.
    """
    if orbit.residual > 1e-9:
        raise DomainError(
            f"orbit residual {orbit.residual:.2e} exceeds 1e-09"
        )
    n = int(n_min)
    while True:
        mats, frame_angle = _path_samples(form, orbit, n)
        path = SymplecticPath(times=np.linspace(0.0, 1.0, n + 1), mats=mats)
        jumps = np.linalg.norm(np.diff(mats, axis=0), axis=(1, 2))
        if frame_angle < np.pi / 4 and jumps.max() < STEP_GUARD:
            break
        n *= 2
        if n > 16384:
            raise ResolutionError("path did not stabilize below 16384 samples")
    path.validate()
    gap = np.abs(path.endpoint - orbit.monodromy).max()
    if gap > 1e-6:
        raise InconsistencyError(
            f"path endpoint disagrees with the stored monodromy by {gap:.2e}"
        )
    return path


# ---------------------------------------------------------------------------
# rotation interval and the geometric index
# ---------------------------------------------------------------------------

def _direction_rotations(mats, n_dirs):
    ms = np.arange(n_dirs)
    dirs = np.stack([np.cos(np.pi * ms / n_dirs), np.sin(np.pi * ms / n_dirs)],
                    axis=0)  # (2, n_dirs), half circle
    v = mats @ dirs  # (N+1, 2, n_dirs)
    x, y = v[:, 0, :], v[:, 1, :]
    cross = x[:-1] * y[1:] - y[:-1] * x[1:]
    dot = x[:-1] * x[1:] + y[:-1] * y[1:]
    dth = np.arctan2(cross, dot)  # exact increment while |true step| < pi
    if np.abs(dth).max() > 0.5 * np.pi:
        raise ResolutionError(
            "direction tracking under-resolved (angle step "
            f"{np.abs(dth).max():.2f} rad); densify the path"
        )
    return dth.sum(axis=0) / (2.0 * np.pi)


def rotation_interval(path):
    """Interval of direction rotation numbers of a symplectic path.

    Directions cover the half circle (antipodal directions rotate equally);
    their count starts at 360 and doubles, up to 5760, until the endpoints
    move by less than 1e-3.
    """
    path.validate()
    lo = hi = None
    n_dirs = 360
    while True:
        deltas = _direction_rotations(path.mats, n_dirs)
        new_lo, new_hi = float(deltas.min()), float(deltas.max())
        if lo is not None and abs(new_lo - lo) < 1e-3 and abs(new_hi - hi) < 1e-3:
            lo, hi = min(lo, new_lo), max(hi, new_hi)
            break
        lo, hi = new_lo, new_hi
        n_dirs *= 2
        if n_dirs > 5760:
            break
    margin = min(abs(lo - round(lo)), abs(hi - round(hi)))
    return RotationInterval(lo=lo, hi=hi, degenerate_margin=margin)


def cz_from_interval(interval):
    """Index from the rotation interval: 2k+1 strictly between integers,
    2k when the integer k lies in the interval.

    Returns (index, degenerate_flag); the flag marks interval endpoints
    within 1e-4 of an integer, where the verdict is unreliable.
    """
    if interval.length >= 0.5:
        raise InconsistencyError(
            f"rotation interval has length {interval.length:.3f} >= 1/2; "
            "the path is degenerate or under-resolved"
        )
    flag = interval.degenerate_margin < DEGENERACY_MARGIN
    k = int(np.ceil(interval.lo - 1e-15))
    if k <= interval.hi + 1e-15:
        return 2 * k, flag
    return 2 * int(np.floor(interval.lo)) + 1, flag


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


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------

def _coefficient_matrices(mats):
    """S(t) = J0 dphi/dt phi^{-1} at the first N of N+1 path samples."""
    n = mats.shape[0] - 1
    h = 1.0 / n
    # phi(-h) by the cocycle rule, then phi(0 .. 1 - 2h)
    prev = np.concatenate([[mats[n - 1] @ np.linalg.inv(mats[-1])], mats[:n - 1]])
    dphi = (mats[1:] - prev) / (2.0 * h)
    s = J0 @ dphi @ np.linalg.inv(mats[:n])
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def _operator_matrix(S):
    n = S.shape[0]
    h = 1.0 / n
    i = np.arange(n)[:, None, None]
    a, b = np.indices((2, 2))
    # 2x2 blocks (row block i, column block j): -J0 d/dt by central
    # differences at j = i +- 1, and S(t_i) at j = i
    blocks = [((i + 1) % n, -J0 / (2 * h)), ((i - 1) % n, J0 / (2 * h)), (i, S)]
    shape = (n, 2, 2)
    rows = np.concatenate([np.broadcast_to(2 * i + a, shape).ravel()] * 3)
    cols = np.concatenate([np.broadcast_to(2 * j + b, shape).ravel()
                           for j, _ in blocks])
    vals = np.concatenate([np.broadcast_to(v, shape).ravel() for _, v in blocks])
    keep = vals != 0.0
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])),
                         shape=(2 * n, 2 * n))


def _eigenfunction_winding(vec):
    v = vec.reshape(-1, 2)
    norms = np.linalg.norm(v, axis=1)
    if norms.min() < 1e-8 * norms.max():
        return None  # vanishing discrete eigenfunction; winding undefined
    ang = np.arctan2(v[:, 1], v[:, 0])
    ang = np.append(ang, ang[0])
    d = np.diff(ang)
    d = (d + np.pi) % (2.0 * np.pi) - np.pi
    total = d.sum() / (2.0 * np.pi)
    k = round(total)
    if abs(total - k) > 1e-6:
        return None
    return int(k)


def _lowpass(vecs, n, k_cut):
    v = vecs.reshape(n, 2, -1)
    F = np.fft.fft(v, axis=0)
    freqs = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    F[freqs > k_cut] = 0.0
    return np.real(np.fft.ifft(F, axis=0)).reshape(2 * n, -1)


def _physical_pairs(vals, vecs, n, k_cut):
    """Demix central-difference alias modes from true eigenfunctions.

    The periodic central-difference stencil carries a spurious sawtooth
    branch whose eigenvalues interleave the true ones.  True eigenfunctions
    are smooth, so within each numerically degenerate eigenvalue cluster the
    low-pass projection isolates the physical subspace; its rank gives the
    physical multiplicity.
    """
    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    scale = max(1.0, np.abs(vals).max())
    out_vals, out_winds = [], []
    i = 0
    while i < len(vals):
        j = i
        while j + 1 < len(vals) and vals[j + 1] - vals[i] < 1e-6 * scale:
            j += 1
        block = vecs[:, i:j + 1]
        low = _lowpass(block, n, k_cut)
        u, s, _ = np.linalg.svd(low, full_matrices=False)
        for r in range(len(s)):
            if s[r] > 0.5:
                w = _eigenfunction_winding(u[:, r])
                if w is not None:
                    out_vals.append(float(np.mean(vals[i:j + 1])))
                    out_winds.append(w)
        i = j + 1
    return np.array(out_vals), np.array(out_winds, dtype=int)


def asymptotic_spectrum(form, orbit, n_grid=1024):
    """Eigenvalues nearest zero of the orbit operator, with windings.

    The operator -J0 d/dt + S(t) (S symmetric in the orthonormalized global
    frame) is discretized by central differences on ``n_grid`` periodic
    points; shift-invert Lanczos returns the 48 eigenpairs nearest zero,
    alias modes are filtered, and each eigenfunction's winding is the degree
    of v(t)/|v(t)|.
    """
    if orbit.degenerate:
        raise DegenerateOrbitError("orbit is degenerate; spectrum has a kernel")
    path = trivialized_path(form, orbit, n_min=n_grid)
    if path.n_steps != n_grid:
        raise ResolutionError(
            f"n_grid={n_grid} under-resolves this orbit; use at least "
            f"{path.n_steps}"
        )
    S = _coefficient_matrices(path.mats)
    A = _operator_matrix(S)
    # a fixed ARPACK start vector keeps reruns, and their reports, identical
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        vals, vecs = spla.eigsh(A, k=min(48, 2 * n_grid - 2), sigma=0,
                                which="LM", v0=v0)
    except RuntimeError as exc:
        raise DegenerateOrbitError(f"shift-invert at zero failed: {exc}") from exc
    if np.abs(vals).min() < 1e-6:
        raise DegenerateOrbitError(
            f"eigenvalue {np.abs(vals).min():.2e} within 1e-6 of zero"
        )
    phys_vals, phys_winds = _physical_pairs(vals, vecs, n_grid, n_grid // 8)
    if len(phys_vals) == 0 or phys_vals.min() > 0 or phys_vals.max() < 0:
        raise ResolutionError("the 48 eigenvalues nearest zero do not straddle it")
    neg = phys_vals < 0
    nu_neg = phys_vals[neg].max()
    nu_pos = phys_vals[~neg].min()
    wind_neg = int(phys_winds[neg][np.argmax(phys_vals[neg])])
    b = int(np.sum(neg & (phys_winds == wind_neg)))
    p = (1 + (-1) ** b) // 2
    data = SpectralData(
        eigenvalues=phys_vals, windings=phys_winds, nu_neg=float(nu_neg),
        nu_pos=float(nu_pos), wind_nu_neg=wind_neg, p=int(p), n_grid=n_grid,
    )
    return data.validate()


def cz_from_spectrum(data):
    """Index from spectral data: 2 * wind(nu_neg) + p."""
    return 2 * data.wind_nu_neg + data.p


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


# ---------------------------------------------------------------------------
# iterates and reports
# ---------------------------------------------------------------------------

def iterate_index_table(form, orbit, k_max):
    """Geometric indices of the first ``k_max`` iterates of a prime orbit.

    Degenerate iterates are flagged and left out of the table.  The standard
    iteration inequalities are asserted on the result; a violation is an
    internal-consistency error, not a property of the orbit.
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
        path = trivialized_path(form, it, n_min=max(256, 128 * k))
        mu, deg = cz_from_interval(rotation_interval(path))
        if deg:
            flags.append(k)
            continue
        table.append((k, mu))
    _assert_iterate_relations(table)
    return table, flags


def _assert_iterate_relations(table):
    mu = dict(table)
    for k, mu_k in table:
        for l, mu_l in table:
            if l > k:
                continue
            if mu_k == 1 and mu_l != 1:
                raise InconsistencyError(f"mu({k})=1 but mu({l})={mu_l}")
            if mu_k <= 0 and mu_l > 0:
                raise InconsistencyError(f"mu({k})<=0 but mu({l})={mu_l}")
            if mu_k == 2:
                if k not in (1, 2) or l not in (1, 2) or mu_l not in (1, 2):
                    raise InconsistencyError(
                        f"mu({k})=2 violates the iteration constraints"
                    )
    if mu.get(2) == 2 and 1 in mu and mu[1] != 1:
        raise InconsistencyError("mu(P^2)=2 forces mu(P)=1")


def orbit_index_report(form, orbit, n_grid=1024):
    """Both index computations for one orbit, JSON-ready.

    Degenerate orbits produce flags instead of numbers: no index is ever
    emitted for a flagged orbit.  An emitted index is cross-checked against
    the monodromy class: it is even iff the orbit is positive hyperbolic.
    """
    report = {
        "mu_geometric": None,
        "mu_spectral": None,
        "interval": None,
        "nu_neg": None,
        "wind_nu_neg": None,
        "p": None,
        "degenerate_flags": [],
    }
    if orbit.degenerate:
        report["degenerate_flags"].append("monodromy eigenvalue within 1e-6 of 1")
        return report
    path = trivialized_path(form, orbit)
    interval = rotation_interval(path)
    report["interval"] = [interval.lo, interval.hi]
    mu_geo, flagged = cz_from_interval(interval)
    if flagged:
        report["degenerate_flags"].append("rotation interval endpoint near integer")
    else:
        report["mu_geometric"] = mu_geo
    try:
        data = asymptotic_spectrum(form, orbit, n_grid=n_grid)
        report["nu_neg"] = data.nu_neg
        report["wind_nu_neg"] = data.wind_nu_neg
        report["p"] = data.p
        report["mu_spectral"] = cz_from_spectrum(data)
    except DegenerateOrbitError as exc:
        report["degenerate_flags"].append(str(exc))
    if (report["mu_geometric"] is not None and report["mu_spectral"] is not None
            and report["mu_geometric"] != report["mu_spectral"]):
        raise InconsistencyError(
            f"index methods disagree: geometric {report['mu_geometric']} vs "
            f"spectral {report['mu_spectral']}"
        )
    for mu in (report["mu_geometric"], report["mu_spectral"]):
        if mu is not None and (mu % 2 == 0) != (
                orbit.nondeg_class == "positive-hyperbolic"):
            raise InconsistencyError(
                f"index {mu} has the wrong parity for a "
                f"{orbit.nondeg_class} orbit"
            )
    return report


# ---------------------------------------------------------------------------
# synthetic paths (model cases and property-suite fixtures)
# ---------------------------------------------------------------------------

def _grid(n):
    return np.linspace(0.0, 1.0, n + 1)


def pure_rotation_path(turns, n=512):
    """phi(t) = rotation by 2 pi * turns * t."""
    th = 2.0 * np.pi * turns * _grid(n)
    mats = np.stack([
        np.stack([np.cos(th), -np.sin(th)], axis=-1),
        np.stack([np.sin(th), np.cos(th)], axis=-1),
    ], axis=-2)
    return SymplecticPath(times=_grid(n), mats=mats)


def hyperbolic_path(rate):
    """phi(t) = diag(e^{rate t}, e^{-rate t}) on a 512-step grid."""
    ts = _grid(512)
    mats = np.zeros((513, 2, 2))
    mats[:, 0, 0] = np.exp(rate * ts)
    mats[:, 1, 1] = np.exp(-rate * ts)
    return SymplecticPath(times=ts, mats=mats)


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
    return SymplecticPath(times=_grid(n), mats=mats)


def random_nondegenerate_path(rng):
    """Random smooth symplectic path with a non-degenerate endpoint.

    The path has 1024 steps, a rotation rate drawn from [-3 pi, 3 pi] and
    Fourier wobbles of scale 0.7; up to 20 draws are tried.  A dominant
    isotropic rotation keeps the hyperbolic stretch bounded, so the fixtures
    stay resolvable at this sampling while still covering several index
    values.
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
        jumps = np.linalg.norm(np.diff(path.mats, axis=0), axis=(1, 2))
        if jumps.max() >= STEP_GUARD:
            continue
        if abs(np.linalg.det(path.endpoint - np.eye(2))) > 1e-3:
            return path
    raise ResolutionError("failed to draw a non-degenerate random path")


def random_loop(rng, maslov, n=512):
    """Random smooth loop at the identity with the given Maslov number; its
    bump amplitudes are normal with scale 0.5."""
    base = pure_rotation_path(maslov, n)
    ts = _grid(n)
    bump = np.sin(np.pi * ts) ** 2
    a = rng.normal(scale=0.5, size=2)
    gens = np.zeros((n + 1, 2, 2))
    gens[:, 0, 0] = bump * a[0]
    gens[:, 0, 1] = bump * a[1]
    gens[:, 1, 0] = bump * a[1]
    gens[:, 1, 1] = -bump * a[0]
    mats = base.mats @ _expm_traceless(gens)
    mats[0] = np.eye(2)
    mats[-1] = np.eye(2)
    return SymplecticPath(times=ts, mats=mats)


def compose_paths(psi, phi):
    """Pointwise product (psi phi)(t) = psi(t) phi(t) on a common grid."""
    if psi.n_steps != phi.n_steps:
        raise DomainError("paths must share the sample grid")
    return SymplecticPath(times=phi.times, mats=psi.mats @ phi.mats)


def invert_path(phi):
    return SymplecticPath(times=phi.times, mats=np.linalg.inv(phi.mats))


def path_power(phi, k):
    """Path of the k-th iterate: t -> phi(kt mod 1) phi(1)^{floor(kt)}."""
    n = phi.n_steps
    ts = _grid(n * k)
    powers = [np.eye(2)]  # phi(1)^block
    for _ in range(k - 1):
        powers.append(phi.endpoint @ powers[-1])
    powers = np.stack(powers)[:, None]
    mats = np.concatenate([(phi.mats[:n] @ powers).reshape(-1, 2, 2),
                           phi.mats[n:] @ powers[-1]])
    return SymplecticPath(times=ts, mats=mats)
