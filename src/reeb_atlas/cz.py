"""Conley-Zehnder indices of periodic orbits, two independent ways.

Both routes read one trivialized path, sampled from one dense variational
integration over the prime period; a k-fold cover samples its prime's
integration through the cocycle M(j T_min + s) = M(s) M(T_min)^j of the
autonomous flow, and inside ``prime_table`` every report of a prime and its
iterates shares that one integration.  The geometric route reads the index
off the interval of direction rotation numbers, in closed form from the
tracked rotation of e1 and the path's endpoint (Long, *Index Theory for
Symplectic Paths with Applications*, 2002).  The spectral route projects the
central-difference operator -J0 d/dt + S(t) onto the real Fourier modes
|k| <= K (Trefethen, *Spectral Methods in MATLAB*, ch. 3-4), with every
Galerkin matrix gathered from one FFT of S by the product-to-sum rules.  It
winds only the eigenfunctions of a window around zero, sampled by one
inverse FFT, takes the eigenvalues nearest zero with their windings, and
evaluates ``2 * wind(nu_neg) + p`` (Hofer, Wysocki & Zehnder, GAFA 5,
1995).  The two must agree exactly on non-degenerate orbits, and each must equal
Bott's iteration formula mu(P^k) = floor(k rho) + ceil(k rho), rho the mean
rotation of the non-degenerate prime P (``bott_index``; Long, 2002): the
report enforces both at k = 1, and ``check_binding`` checks every cover of a
census against its prime's lowest agreed cover.
"""

import contextlib
import contextvars
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contact import project_to_sigma, xi_frame
from .errors import (DegenerateOrbitError, DomainError, InconsistencyError,
                     ReebAtlasError, ResolutionError, raised)
from .flow import integrate_batch

__all__ = [
    "SymplecticPath",
    "RotationInterval",
    "SpectralData",
    "trivialized_path",
    "rotation_interval",
    "cz_from_interval",
    "asymptotic_spectrum",
    "cz_from_spectrum",
    "bott_index",
    "orbit_index_report",
    "PrimeData",
    "prime_table",
    "prime_flows",
]

J0 = np.array([[0.0, -1.0], [1.0, 0.0]])

STEP_GUARD = 0.5
DEGENERACY_MARGIN = 1e-4
_BAND = 8  # winding classes kept each side of wind(nu_neg); K's margin too
_WINDOW = 2 * (_BAND + 2)  # eigenpairs first wound each side of zero
# {prime_key: PrimeData} of the open ``prime_table`` block
_PRIMES = contextvars.ContextVar("reeb_atlas_primes", default=None)


@dataclass
class SymplecticPath:
    """Path of 2x2 symplectic matrices with phi(0) = I, sampled on the
    uniform grid of N + 1 points of [0, 1], both endpoints included."""

    mats: np.ndarray   # (N+1, 2, 2)

    def __post_init__(self):
        self.mats = np.asarray(self.mats, dtype=float)
        if self.mats.ndim != 3 or self.mats.shape[1:] != (2, 2):
            raise DomainError("path samples must be (N+1, 2, 2)")

    @property
    def n_steps(self):
        return len(self.mats) - 1

    @property
    def endpoint(self):
        return self.mats[-1]

    def validate(self):
        if np.abs(self.mats[0] - np.eye(2)).max() > 1e-12:
            raise DomainError("path must start at the identity")
        scale = 0.5 * (self.mats ** 2).sum(axis=(1, 2))  # det's roundoff scale
        gap = np.abs(np.linalg.det(self.mats) - 1.0) / scale
        if gap.max() > 1e-6:
            raise DomainError(f"path leaves the symplectic group: |det-1| up "
                              f"to {gap.max():.2e} of ||M||_F^2/2")
        dist = _step_distance(self.mats)
        if not dist < STEP_GUARD:  # NaN fails too
            raise ResolutionError(f"a step map moves by {dist:.3f} >= "
                                  f"{STEP_GUARD}; densify the path")
        return self


@dataclass
class RotationInterval:
    """Range of direction rotations (in turns) over a symplectic path."""

    lo: float
    hi: float
    turns: float  # the tracked rotation of e1, in [lo, hi]

    @property
    def length(self):
        return self.hi - self.lo


@dataclass
class SpectralData:
    """Eigenvalues of the orbit operator nearest zero with their windings."""

    eigenvalues: np.ndarray  # sorted; winding classes within _BAND of wind(nu_neg)
    windings: np.ndarray     # integer winding per eigenvalue
    nu_neg: float
    nu_pos: float
    wind_nu_neg: int
    p: int
    K: int                   # Fourier modes |k| <= K of the settled solve


# ---------------------------------------------------------------------------
# trivialized linearized flow along an orbit
# ---------------------------------------------------------------------------

def prime_key(orbit):
    """The exact (T_min, x0) that the iterates of a prime share with it."""
    return float(orbit.T_min), tuple(orbit.x0.tolist())


@dataclass
class PrimeData:
    """What the open ``prime_table`` block has computed for one prime; a
    flow, trace, self-linking or link holds the ``ReebAtlasError`` that
    stopped it, if one did."""

    flow: object = None        # dense variational trajectory, period matrix
    trace: object = None       # 512 points over [0, T_min)
    sl: object = None          # linking.SelfLinking record
    links: dict = field(default_factory=dict)  # other prime's key -> linking


@contextlib.contextmanager
def prime_table():
    """Compute each prime's flow, trace, self-linking and linking with each
    other prime at most once inside the block, as {prime_key: PrimeData};
    a block opened inside another one joins it."""
    if _PRIMES.get() is not None:
        yield _PRIMES.get()
        return
    token = _PRIMES.set({})
    try:
        yield _PRIMES.get()
    finally:
        _PRIMES.reset(token)


def prime_data(orbit):
    """The open block's record of the orbit's prime; outside a block, a fresh
    one that nothing keeps."""
    table = _PRIMES.get()
    if table is None:
        return PrimeData()
    return table.setdefault(prime_key(orbit), PrimeData())


def prime_flows(form, orbits):
    """Per orbit, its prime's dense variational flow over [0, T_min] at tol
    1e-12 and period matrix M(T_min), or the ``ReebAtlasError`` that stopped
    the integration.  The primes not yet integrated in the open
    ``prime_table`` block are integrated together in one ``integrate_batch``;
    each row equals its one-row run bit for bit."""
    primes = {prime_key(o): (prime_data(o), o) for o in orbits}
    todo = [(p, o) for p, o in primes.values() if p.flow is None]
    if todo:
        runs = integrate_batch(form, np.array([o.x0 for _, o in todo]),
                               np.array([o.T_min for _, o in todo]), tol=1e-12,
                               variational=True, dense=True)
        for (p, o), run in zip(todo, runs):
            p.flow = run if isinstance(run, ReebAtlasError) else (
                run, run(o.T_min)[4:].reshape(4, 4))
    return [primes[prime_key(o)][0].flow for o in orbits]


def _variational_flow(form, orbit):
    """Base point and 4x4 linearized flow, as a dense (n, 20) sampler over
    [0, orbit.T], from the prime's one integration (``prime_flows``).  A
    prime gets that dense run; a k-fold cover samples it at s = t - j T_min
    with the matrix M(s) M(T_min)^j."""
    if orbit.residual > 1e-9:
        raise DomainError(f"orbit residual {orbit.residual:.2e} exceeds 1e-09")
    traj, period = raised(prime_flows(form, [orbit]))[0]
    k, T_min = orbit.multiplicity, orbit.T_min
    if k == 1:
        return traj
    powers = np.stack([np.linalg.matrix_power(period, j) for j in range(k)])

    def flow(t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.floor(t / T_min), 0, k - 1).astype(int)
        y = traj(np.clip(t - j * T_min, 0.0, T_min))
        y[:, 4:] = (y[:, 4:].reshape(-1, 4, 4) @ powers[j]).reshape(-1, 16)
        return y

    return flow


def _path_samples(form, orbit, flow, n):
    samples = flow(np.linspace(0.0, orbit.T, n + 1))
    fr = xi_frame(form, project_to_sigma(form, samples[:, :4]))
    M = samples[:, 4:].reshape(-1, 4, 4)
    mats = np.empty((n + 1, 2, 2))
    mats[:, :, 0] = fr.coords(fr.project(M @ fr.e1[0]))
    mats[:, :, 1] = fr.coords(fr.project(M @ fr.e2[0]))
    mats[0] = np.eye(2)  # exact by construction, pinned against roundoff
    prev, cur = fr.e1[:-1], fr.e1[1:]
    cosang = np.abs(np.vecdot(prev, cur)) / (kernels.norm(prev) * kernels.norm(cur))
    max_frame_angle = np.arccos(np.minimum(1.0, cosang)).max(initial=0.0)
    return mats, max_frame_angle


def _inv2(A):
    """Inverses of the 2x2 matrices A (..., 2, 2): adjugate over determinant."""
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    return (A[..., ::-1, ::-1].swapaxes(-1, -2) * [[1, -1], [-1, 1]]) / det[..., None, None]


def _step_distance(mats):
    """Largest ||M_(i+1) M_i^-1 - I||_F over the step maps of the path
    ``mats`` (N+1, 2, 2), NaN if a sample is; it does not grow with |M|, and
    below 1/2 no step map turns a direction by pi/6 or more."""
    steps = mats[1:] @ _inv2(mats[:-1]) - np.eye(2)
    return np.linalg.norm(steps, axis=(1, 2)).max(initial=0.0)


def trivialized_path(form, orbit, n):
    """Linearized Reeb flow along an orbit (residual at most 1e-9) in the
    global frame, sampled once on ``n`` steps; it starts at the identity by
    construction.  A frame step of pi/4 or more, or a step map that moves by
    ``STEP_GUARD`` or more (``_step_distance``), raises ``ResolutionError``;
    an endpoint off the stored monodromy M by 1e-6 of max(1, max|M_ij|)
    raises ``InconsistencyError``, so a strongly hyperbolic M is held to its
    own scale.
    """
    mats, frame_angle = _path_samples(form, orbit, _variational_flow(form, orbit), n)
    dist = _step_distance(mats)
    if not (frame_angle < np.pi / 4 and dist < STEP_GUARD):  # NaN fails too
        raise ResolutionError(
            f"n_grid={n} under-resolves this orbit: frame step {frame_angle:.3f}"
            f" rad (limit pi/4), step map {dist:.3f} (limit {STEP_GUARD})")
    scale = max(1.0, np.abs(orbit.monodromy).max())
    gap = np.abs(mats[-1] - orbit.monodromy).max()
    if gap > 1e-6 * scale:
        raise InconsistencyError(
            f"path endpoint disagrees with the stored monodromy by {gap:.2e}"
            f" (bound 1e-6 of {scale:.2e})")
    return SymplecticPath(mats=mats)


# ---------------------------------------------------------------------------
# rotation interval and the geometric index
# ---------------------------------------------------------------------------

def _extremal_directions(A):
    """The two unit directions u with |A u|^2 = det A, where the angle that A
    (2, 2), det A > 0, turns a direction by is extremal; as the columns of a
    (2, 2).  A^T A = [[a, b], [b, c]] has the eigenvalues m +- r, m = (a + c)
    / 2, r = hypot((a - c) / 2, b), and the eigenvector of m + r at the angle
    psi = atan2(2 b, a - c) / 2; then u is at psi +- phi, tan^2 phi = (m + r -
    det A) / (det A - m + r).  A conformal A (r = 0) turns every direction
    alike."""
    (a, b), (_, c) = A.T @ A
    m, r = 0.5 * (a + c), np.hypot(0.5 * (a - c), b)
    det = A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]
    phi = np.arctan2(np.sqrt(max(m + r - det, 0.0)), np.sqrt(max(det - m + r, 0.0)))
    ang = 0.5 * np.arctan2(2.0 * b, a - c) + np.array([phi, -phi])
    return np.stack([np.cos(ang), np.sin(ang)])


def rotation_interval(path):
    """Interval of direction rotation numbers of a symplectic path.

    The tracked rotation of e1 gives ``turns``.  Every other direction u
    follows from the endpoint A alone: it rotates by ``turns`` plus the turn
    of u under A less that of e1, wrapped to (-pi, pi), over 2 pi, because
    the angle of A u increases strictly with that of u, by pi per half turn.
    The extremes sit where |A u|^2 = det A (``_extremal_directions``).  The
    tracking of e1 is exact because ``SymplecticPath.validate`` keeps every
    step map within ``STEP_GUARD`` of I, so no step turns a direction by
    pi/6 or more.
    """
    path.validate()
    turns = kernels.angle_steps(path.mats[:, :, 0]).sum() / (2.0 * np.pi)
    A = path.endpoint
    U = np.column_stack([[1.0, 0.0], _extremal_directions(A)])
    turn = kernels.angle_steps(np.stack([U, A @ U]))[0]  # each column's turn
    offsets = np.remainder(turn[1:] - turn[0] + np.pi, 2.0 * np.pi) - np.pi
    deltas = turns + offsets / (2.0 * np.pi)
    lo, hi = float(min(turns, deltas.min())), float(max(turns, deltas.max()))
    return RotationInterval(lo=lo, hi=hi, turns=float(turns))


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
    lo, hi = interval.lo, interval.hi
    flag = min(abs(lo - round(lo)), abs(hi - round(hi))) < DEGENERACY_MARGIN
    k = int(np.ceil(lo - 1e-15))
    if k <= hi + 1e-15:
        return 2 * k, flag
    return 2 * int(np.floor(lo)) + 1, flag


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------

def _coefficient_matrices(mats):
    """S(t) = J0 dphi/dt phi^{-1} at the first N of N+1 path samples."""
    n = mats.shape[0] - 1
    h = 1.0 / n
    # phi(-h) by the cocycle rule, then phi(0 .. 1 - 2h)
    prev = np.concatenate([[mats[n - 1] @ _inv2(mats[-1])], mats[:n - 1]])
    dphi = (mats[1:] - prev) / (2.0 * h)
    s = J0 @ dphi @ _inv2(mats[:n])
    return 0.5 * (s + np.swapaxes(s, -1, -2))


def _galerkin_matrix(X, n, K):
    """-J0 d/dt + S by central differences on n periodic points, on the real
    Fourier modes |k| <= K, as a (2m, 2m) matrix over (mode, component),
    m = 2K + 1.  Mode a is sqrt2 Re(c_a e^(2 pi i q_a t)), c = 1/sqrt2, 1, -i
    for the constant, cos and sin, times e1 or e2.  By product-to-sum the grid
    mean of S times modes a, b is Re(c_a c_b Y_(q_a+q_b) + c_a conj(c_b)
    Y_(q_a-q_b)), Y_f = conj(X_f) / n, X = rfft(S); -J0 d/dt adds i sigma_q J0
    to Y_0 at q_a = q_b = q, sigma_q = n sin(2 pi q / n): no alias near n/2."""
    m, k = 2 * K + 1, np.arange(1, K + 1)
    q, c = np.r_[0, np.repeat(k, 2)], np.r_[np.sqrt(0.5), np.tile([1.0, -1j], K)]
    Y, d = np.conj(X[:2 * K + 1]) / n, q[:, None] - q
    P = np.where((d < 0)[..., None], np.conj(Y[np.abs(d)]), Y[np.abs(d)])
    P += 1j * (n * np.sin(2.0 * np.pi * q / n) * (d == 0))[..., None] * J0.ravel()
    G = np.real(np.outer(c, c)[..., None] * Y[q[:, None] + q]
                + np.outer(c, np.conj(c))[..., None] * P)
    return G.reshape(m, m, 2, 2).transpose(0, 2, 1, 3).reshape(2 * m, 2 * m)


def _windings(vecs, n):
    """Degree of v/|v| for the functions v of coefficients vecs (2m, w) in the
    modes of ``_galerkin_matrix``, on n + 1 closed grid points by one irfft of
    Z_q = sum of c_a vecs_a / sqrt2 over the modes a of frequency q > 0, Z_0 =
    vecs_0; NaN where a function vanishes or the degree is not an integer."""
    coef = vecs.reshape(-1, 2, vecs.shape[1])
    Z = np.concatenate([coef[:1], (coef[1::2] - 1j * coef[2::2]) / np.sqrt(2.0)])
    v = np.empty((n + 1,) + coef.shape[1:])
    np.fft.irfft(Z, n=n, axis=0, norm="forward", out=v[:n])
    v[n] = v[0]
    total = kernels.angle_steps(v).sum(axis=0) / (2.0 * np.pi)
    k = np.round(total)
    sq = (v * v).sum(axis=1)
    ok = (sq.min(axis=0) >= 1e-16 * sq.max(axis=0)) & (np.abs(total - k) <= 1e-6)
    return np.where(ok, k, np.nan)


def _spectral_data(A, n, K):
    """Spectral data of the Galerkin matrix A, winding only a window of
    eigenpairs, ``_WINDOW`` to each side of zero, doubled until its windings
    are non-decreasing and each edge ends the spectrum or winds outside
    wind(nu_neg) +- ``_BAND``: the winding grows with the eigenvalue (Hofer,
    Wysocki & Zehnder, GAFA 5, 1995), so the window holds the whole band."""
    vals, vecs = np.linalg.eigh(A)
    small = np.abs(vals).min()
    if small < 1e-6:
        raise DegenerateOrbitError(f"eigenvalue {small:.2e} within 1e-6 of zero")
    z, half = int(np.searchsorted(vals, 0.0)), _WINDOW
    while True:
        lo, hi = max(z - half, 0), min(z + half, len(vals))
        winds = _windings(vecs[:, lo:hi], n)
        nu, w = vals[lo:hi][~np.isnan(winds)], winds[~np.isnan(winds)].astype(int)
        neg, whole = nu < 0, lo == 0 and hi == len(vals)
        if neg.all() or not neg.any():
            if whole:
                raise ResolutionError(f"the eigenvalues at K={K} do not straddle zero")
        elif whole or (np.all(np.diff(w) >= 0)
                       and (lo == 0 or w[0] < w[neg][-1] - _BAND)
                       and (hi == len(vals) or w[-1] > w[neg][-1] + _BAND)):
            break
        half *= 2
    wind_neg = int(w[neg][-1])  # eigh sorts ascending
    band = np.abs(w - wind_neg) <= _BAND
    nu, w, neg = nu[band], w[band], neg[band]
    b = int(np.sum(neg & (w == wind_neg)))
    return SpectralData(eigenvalues=nu, windings=w, nu_neg=float(nu[neg][-1]),
                        nu_pos=float(nu[~neg][0]), wind_nu_neg=wind_neg,
                        p=(1 + (-1) ** b) // 2, K=K)


def _fourier_spectrum(S, turns):
    """Spectral data of -J0 d/dt + S from the Galerkin solves at growing K.

    K starts ``_BAND`` modes above the rotation ``turns`` and grows by
    ``_BAND`` until the Fourier coefficients of S beyond K are below 1e-9 of
    its largest and, since the previous K, the negative windings are
    unchanged and nu_neg and nu_pos moved by at most 1e-10 relative.  No
    answer comes back past ``len(S) // 8`` modes, the range where the symbol
    is monotone.
    """
    n, X = len(S), np.fft.rfft(S.reshape(len(S), 4), axis=0)
    coef = np.abs(X).max(axis=1)
    K, prev = int(np.ceil(abs(turns))) + _BAND, None
    while K <= n // 8:
        cur = _spectral_data(_galerkin_matrix(X, n, K), n, K)
        if (prev is not None
                and coef[K + 1:].max(initial=0.0) <= 1e-9 * coef.max()
                and np.array_equal(prev.windings[prev.eigenvalues < 0],
                                   cur.windings[cur.eigenvalues < 0])
                and np.allclose([prev.nu_neg, prev.nu_pos],
                                [cur.nu_neg, cur.nu_pos], rtol=1e-10, atol=0)):
            return cur
        prev, K = cur, K + _BAND
    raise ResolutionError(f"the spectrum did not settle within {n // 8} Fourier "
                          f"modes on {n} points; raise n_grid")


def asymptotic_spectrum(path, turns):
    """Eigenvalues nearest zero of the orbit operator, with windings.

    S(t), symmetric in the orthonormalized global frame, is read off the
    orbit's trivialized ``path``, along which e1 rotates by ``turns``;
    ``_fourier_spectrum`` solves -J0 d/dt + S(t) on the low Fourier modes.
    A degenerate orbit's operator has an eigenvalue within 1e-6 of zero,
    which raises ``DegenerateOrbitError``.
    """
    return _fourier_spectrum(_coefficient_matrices(path.mats), turns)


def cz_from_spectrum(data):
    """Index from spectral data: 2 * wind(nu_neg) + p."""
    return 2 * data.wind_nu_neg + data.p


def bott_index(interval, A, nondeg_class, k0, k):
    """Bott's index floor(k rho) + ceil(k rho) of the k-fold cover of a
    non-degenerate prime of mean rotation rho (Long, 2002), from the prime's
    k0-fold cover: its rotation interval (lo, hi), period map A and class.
    That cover turns by theta + n: theta is 0 (positive hyperbolic), 1/2
    (negative hyperbolic) or +-arccos(tr A / 2) / 2 pi with the sign of
    A[1, 0] (elliptic); n rounds the midpoint less theta.  rho is that over
    k0; dividing before the product with k keeps an integer k rho exact."""
    if nondeg_class == "elliptic":
        theta = np.copysign(np.arccos(0.5 * np.trace(A)), A[1, 0]) / (2.0 * np.pi)
    else:
        theta = 0.5 if nondeg_class == "negative-hyperbolic" else 0.0
    lo, hi = interval
    rho = (theta + round(0.5 * (lo + hi) - theta)) / k0
    return int(np.floor(k * rho) + np.ceil(k * rho))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def orbit_index_report(form, orbit, n_grid=1024):
    """Both index computations for one orbit, JSON-ready.

    Degenerate orbits produce flags instead of numbers: no index is ever
    emitted for a flagged orbit.  Each emitted index must equal
    ``bott_index`` at k0 = k = 1, which is even iff the orbit is positive
    hyperbolic.
    Both routes read one trivialized path on ``n_grid`` steps; a grid that
    under-resolves the orbit raises ``ResolutionError``.  The path samples
    the prime's one variational integration, shared with the other reports
    of an enclosing ``prime_table`` block.  ``resolution`` holds the path's
    sample count and K, as far as reached, and ``integrated_span``: T_min if
    this report ran the prime's integration, else 0.
    """
    report = {
        "mu_geometric": None,
        "mu_spectral": None,
        "interval": None,
        "nu_neg": None,
        "wind_nu_neg": None,
        "p": None,
        "degenerate_flags": [],
        "resolution": {},
    }
    if orbit.degenerate:
        report["degenerate_flags"].append("monodromy eigenvalue within 1e-6 of 1")
        return report
    resolution = report["resolution"]
    fresh = prime_data(orbit).flow is None
    try:
        path = trivialized_path(form, orbit, n_grid)
        resolution.update(integrated_span=orbit.T_min if fresh else 0.0,
                          path_samples=path.n_steps + 1)
        interval = rotation_interval(path)
        report["interval"] = [interval.lo, interval.hi]
        mu_geo, flagged = cz_from_interval(interval)
        if flagged:
            report["degenerate_flags"].append(
                "rotation interval endpoint near integer")
        else:
            report["mu_geometric"] = mu_geo
        data = asymptotic_spectrum(path, interval.turns)
        resolution["K"] = data.K
        report["nu_neg"] = data.nu_neg
        report["wind_nu_neg"] = data.wind_nu_neg
        report["p"] = data.p
        report["mu_spectral"] = cz_from_spectrum(data)
    except DegenerateOrbitError as exc:
        report["degenerate_flags"].append(str(exc))
    if report["interval"] is not None:  # each index is Bott's, so both agree
        bott = bott_index(report["interval"], orbit.monodromy,
                          orbit.nondeg_class, 1, 1)
        for route in ("geometric", "spectral"):
            mu = report[f"mu_{route}"]
            if mu not in (None, bott):
                raise InconsistencyError(
                    f"{route} index {mu} differs from Bott's iteration "
                    f"formula, {bott}, for a {orbit.nondeg_class} orbit")
    return report
