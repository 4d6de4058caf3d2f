"""Search, Newton refinement, and bookkeeping of periodic Reeb orbits.

The search is a best-effort truncation of the (generally infinite) set of
periodic orbits up to a period cap: low-discrepancy seeds are integrated
forward, near-returns of each trajectory are detected by a closest-return
scan, and every candidate is polished by Newton shooting on the augmented
system (return condition + energy level + phase anchor) using the analytic
variational matrix.  Completeness is never claimed; downstream verdicts
carry the truncation cap.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contact import project_to_sigma, reeb_vector, sphere_samples
from .errors import (DomainError, FrameDegeneracyError, RefinementError,
                     ResolutionError, StiffnessError)
from .flow import flow_map, integrate_flow, monodromy_xi

__all__ = [
    "ReebOrbit",
    "OrbitDatabase",
    "refine_orbit",
    "find_orbits",
    "period_gaps",
    "trace_orbit",
    "classify_monodromy",
    "save_orbits",
    "load_orbits",
]

DEGENERACY_TOL = 1e-6

_NEWTON_TOL = 1e-10  # residual target of the shooting polish
_NEWTON_MAX_ITER = 50

# orbit-search settings, recorded in the census params
_SCAN_DT = 0.05
_MIN_PERIOD = 0.2
_CANDIDATE_THRESHOLD = 0.5
_DEDUP_TOL = 1e-4

# failures of one candidate's polish that drop it from the census
_CANDIDATE_ERRORS = (RefinementError, DomainError, StiffnessError,
                     ResolutionError, FrameDegeneracyError)


def classify_monodromy(mon):
    """Non-degeneracy class from the contact-plane period map.

    degenerate iff some eigenvalue lies within ``DEGENERACY_TOL`` of 1; otherwise
    elliptic (complex eigenvalues), positive-hyperbolic (real, positive) or
    negative-hyperbolic (real, negative).
    """
    ev = np.linalg.eigvals(mon)
    if np.abs(ev - 1.0).min() < DEGENERACY_TOL:
        return "degenerate"
    tr = np.trace(mon)
    if abs(tr) < 2.0:
        return "elliptic"
    return "positive-hyperbolic" if tr > 0 else "negative-hyperbolic"


@dataclass
class ReebOrbit:
    """A periodic orbit anchored at a marked point.

    ``x0`` is the marked point (time 0 of the parametrization), ``T_min``
    the prime period found by divisor testing, and ``multiplicity`` the
    covering number, so the orbit's period is ``T = multiplicity * T_min``.
    ``monodromy`` is the contact-plane linearized period map over the full
    period T in the global frame.
    """

    x0: np.ndarray
    T_min: float
    multiplicity: int
    monodromy: np.ndarray
    nondeg_class: str
    residual: float
    monodromy_prime: np.ndarray | None = field(default=None, repr=False)
    newton_iters: int = field(default=0, repr=False)

    @property
    def T(self):
        return self.multiplicity * self.T_min

    @property
    def degenerate(self):
        return self.nondeg_class == "degenerate"

    def iterate(self, k):
        """The k-fold cover of this orbit (same marked point and prime period)."""
        if self.multiplicity != 1:
            raise DomainError("iterate() expects a simply covered orbit")
        mon_p = self.monodromy_prime if self.monodromy_prime is not None else self.monodromy
        mk = np.linalg.matrix_power(mon_p, k)
        return ReebOrbit(
            x0=self.x0.copy(), T_min=self.T_min, multiplicity=k,
            monodromy=mk, nondeg_class=classify_monodromy(mk),
            residual=self.residual, monodromy_prime=mon_p,
        )


@dataclass
class OrbitDatabase:
    """Deduplicated census of periodic orbits up to a period cap."""

    form_hash: str
    orbits: list
    params: dict

    def __len__(self):
        return len(self.orbits)

    def __getitem__(self, i):
        return self.orbits[i]


def trace_orbit(form, orbit, n):
    """(n, 4) points sampled uniformly in time over the full period ``T``
    at tol 1e-11; a k-fold cover winds k times around its image."""
    ts = np.arange(n) / n * orbit.T
    return integrate_flow(form, orbit.x0, orbit.T, tol=1e-11, t_eval=ts).points


def _detect_multiplicity(form, x, T):
    """Largest k <= 64 with T/k >= 0.05 and a return within 1e-6 at T/k."""
    res = integrate_flow(form, x, T, tol=1e-12, dense=True)
    ks = np.arange(2, min(max(1, int(T / 0.05)), 64) + 1)
    ys = project_to_sigma(form, res.trajectory(T / ks)[:, :4])
    closed = ks[kernels.norm(ys - x) < 1e-6]
    return int(closed.max()) if closed.size else 1


def _newton_polish(form, x_guess, T_guess, initial_residual_cap=0.1):
    """Gauss-Newton on the augmented shooting system.

    Returns (x, T, residual, iters, degenerate_family).  Stalls and rank
    deficiencies are detected early so that hopeless candidates stay cheap.
    """
    x = project_to_sigma(form, np.asarray(x_guess, dtype=float))
    T = float(T_guess)
    if T <= 0:
        raise DomainError("period guess must be positive")
    anchor_x = x.copy()
    anchor_v = reeb_vector(form, x, check=False)

    end = flow_map(form, x, T)
    res0 = np.linalg.norm(end - x)
    if res0 > initial_residual_cap:
        raise RefinementError(
            f"initial return residual {res0:.3e} exceeds {initial_residual_cap}"
        )

    iters = 0
    residual = res0
    best = res0
    stall = 0
    degenerate_family = False
    while residual > _NEWTON_TOL and iters < _NEWTON_MAX_ITER:
        end, M = flow_map(form, x, T, variational=True)
        residual = np.linalg.norm(end - x)
        if residual <= _NEWTON_TOL:
            break
        if residual < 0.5 * best:
            best, stall = residual, 0
        else:
            stall += 1
            if stall >= 4 and residual > 1e-6:
                raise RefinementError(
                    f"stalled after {iters} iterations (residual {residual:.3e})"
                )
        F = np.concatenate([end - x, [form.H(x) - 1.0],
                            [anchor_v @ (x - anchor_x)]])
        J = np.zeros((6, 5))
        J[:4, :4] = M - np.eye(4)
        J[:4, 4] = reeb_vector(form, end, check=False)
        J[4, :4] = form.grad_H(x)
        J[5, :4] = anchor_v
        sv = np.linalg.svd(J, compute_uv=False)
        if sv[-1] < 1e-10 * sv[0]:
            degenerate_family = True
            break
        delta, *_ = np.linalg.lstsq(J, -F, rcond=None)
        step = np.linalg.norm(delta)
        if step > 1.0:
            delta *= 1.0 / step  # crude trust region; guards wild candidates
        x = project_to_sigma(form, x + delta[:4])
        T = T + delta[4]
        if T <= 0:
            raise RefinementError("period iterated to a non-positive value")
        iters += 1
    if residual > _NEWTON_TOL and not degenerate_family:
        end = flow_map(form, x, T)
        residual = np.linalg.norm(end - x)
    return x, T, residual, iters, degenerate_family


def refine_orbit(form, x_guess, T_guess, initial_residual_cap=0.1):
    """Newton-polish a candidate (point, period) into a certified orbit.

    Solves the augmented shooting system { phi_T(x) - x = 0, H(x) = 1,
    <v_anchor, x - x_anchor> = 0 } by Gauss-Newton with the analytic
    variational matrix.  The prime period is extracted afterwards by
    divisor testing.  Rank-deficient Jacobians (degenerate orbit families,
    e.g. on the round sphere) fall back to scalar minimization of the
    return proximity in T.
    """
    x, T, residual, iters, degenerate_family = _newton_polish(
        form, x_guess, T_guess, initial_residual_cap=initial_residual_cap)

    if degenerate_family:
        from scipy.optimize import minimize_scalar

        g = lambda t: np.linalg.norm(flow_map(form, x, t) - x)
        opt = minimize_scalar(g, bracket=(0.8 * T, T, 1.2 * T))
        if opt.fun > 1e-9:
            raise RefinementError(
                f"rank-deficient shooting Jacobian and no nearby closure "
                f"(best residual {opt.fun:.3e})"
            )
        T = float(opt.x)
        residual = float(opt.fun)
    elif residual > _NEWTON_TOL:
        raise RefinementError(
            f"no convergence in {_NEWTON_MAX_ITER} iterations "
            f"(residual {residual:.3e})"
        )

    mult = _detect_multiplicity(form, x, T)
    T_min = T / mult
    if mult > 1:
        # re-polish at the prime period to certify the prime residual
        end = flow_map(form, x, T_min)
        prime_res = np.linalg.norm(end - x)
    else:
        prime_res = residual

    mon_prime = monodromy_xi(form, x, T_min, closure_tol=1e-5)
    mon_full = np.linalg.matrix_power(mon_prime, mult)
    orbit = ReebOrbit(
        x0=x, T_min=T_min, multiplicity=mult, monodromy=mon_full,
        nondeg_class=classify_monodromy(mon_full),
        residual=float(max(residual, prime_res)),
        monodromy_prime=mon_prime, newton_iters=iters,
    )
    return orbit


def _near_return_candidates(times, pts, min_period, threshold, max_keep):
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
    dt = times[None, :] - times[:, None]
    # a genuine near-return is a dip of d along the trajectory, not mere arc
    # proximity: require a strict local minimum in the second index
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


def find_orbits(form, T_max, n_seeds=256, rng_seed=0, log=None):
    """Enumerate periodic orbits with period up to T_max (best effort).

    The ``n_seeds`` seeds are the Sobol sphere points from index
    ``rng_seed * (n_seeds + 1)`` on.  Seed 0 reads indices 0..n_seeds (it
    drops index 1, the all-1/2 point) and seed k > 0 reads n_seeds indices,
    so distinct ``rng_seed`` values draw disjoint seed sets.
    Every returned prime orbit passed Newton refinement; iterates up to the
    cap are synthesized from each prime.  Candidates that fail to refine are
    dropped (optionally reported through ``log``).
    """
    if T_max <= 0:
        raise DomainError("T_max must be positive")
    seeds = project_to_sigma(
        form, sphere_samples(n_seeds, seed_skip=rng_seed * (n_seeds + 1)))
    t_grid = np.arange(0.0, T_max + 0.5 * _SCAN_DT, _SCAN_DT)

    primes = []
    traces = []

    def explained_by_known(x, T, dist_tol, period_tol):
        for prime, tr in zip(primes, traces):
            if kernels.point_to_polyline(np.ascontiguousarray(x), tr) < dist_tol:
                k = T / prime.T_min
                if round(k) >= 1 and abs(k - round(k)) * prime.T_min < period_tol:
                    return True
        return False

    for seed in seeds:
        res = integrate_flow(form, seed, float(t_grid[-1]), tol=1e-8,
                             t_eval=t_grid)
        cands = _near_return_candidates(t_grid, res.points, _MIN_PERIOD,
                                        _CANDIDATE_THRESHOLD, max_keep=4)
        for x_c, dt_c, d_c in cands:
            # candidates this close to a known orbit with a near-commensurate
            # period would converge onto it; skip the polish
            if explained_by_known(x_c, float(dt_c), 0.25, 0.25):
                continue
            try:
                x, T, residual, _, degenerate_family = _newton_polish(
                    form, x_c, float(dt_c),
                    initial_residual_cap=_CANDIDATE_THRESHOLD + 1e-9)
            except _CANDIDATE_ERRORS as exc:
                if log is not None:
                    log.append(f"candidate dropped: {exc}")
                continue
            # 1e-4 exceeds the sagitta of the 512-point trace polyline, so a
            # converged point on a known curve always registers as known
            if not degenerate_family and explained_by_known(x, T, 1e-4, 1e-4):
                continue
            try:
                orb = refine_orbit(form, x, T, initial_residual_cap=1.0)
                if orb.T_min > T_max + 1e-9:
                    if log is not None:
                        log.append(f"prime period {orb.T_min:.6f} beyond cap")
                    continue
                prime = orb if orb.multiplicity == 1 else refine_orbit(
                    form, orb.x0, orb.T_min, initial_residual_cap=np.inf)
                tr = trace_orbit(form, prime, n=512)
            except _CANDIDATE_ERRORS as exc:
                if log is not None:
                    log.append(f"candidate dropped: {exc}")
                continue
            if any(kernels.hausdorff_distance(tr, t0) <= _DEDUP_TOL for t0 in traces):
                continue
            primes.append(prime)
            traces.append(tr)

    entries = []
    for prime in primes:
        k_max = int(np.floor(T_max / prime.T_min + 1e-9))
        for k in range(1, max(k_max, 1) + 1):
            if k * prime.T_min <= T_max + 1e-9:
                entries.append(prime.iterate(k))
    entries.sort(key=lambda o: (o.T, tuple(o.x0)))
    params = {
        "t_max": float(T_max), "n_seeds": int(n_seeds),
        "rng_seed": int(rng_seed), "scan_dt": _SCAN_DT,
        "min_period": _MIN_PERIOD,
        "candidate_threshold": _CANDIDATE_THRESHOLD,
        "dedup_tol": _DEDUP_TOL,
    }
    return OrbitDatabase(form_hash=form.form_hash, orbits=entries, params=params)


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


# ---------------------------------------------------------------------------
# JSON persistence (stable ordering; schema: x0, T_min, multiplicity,
# monodromy, class, residual)
# ---------------------------------------------------------------------------

def save_orbits(db, path):
    payload = {
        "form_hash": db.form_hash,
        "params": db.params,
        "orbits": [
            {
                "x0": [float(v) for v in o.x0],
                "T_min": float(o.T_min),
                "multiplicity": int(o.multiplicity),
                "monodromy": [[float(v) for v in row] for row in o.monodromy],
                "class": o.nondeg_class,
                "residual": float(o.residual),
            }
            for o in db.orbits
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_orbits(form, path):
    """Read a census; every orbit must re-close within 1e-9 at T_min."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("form_hash") != form.form_hash:
        raise DomainError("orbit database was built for a different form")
    orbits = []
    for rec in payload["orbits"]:
        o = ReebOrbit(
            x0=np.array(rec["x0"], dtype=float),
            T_min=float(rec["T_min"]),
            multiplicity=int(rec["multiplicity"]),
            monodromy=np.array(rec["monodromy"], dtype=float),
            nondeg_class=rec["class"],
            residual=float(rec["residual"]),
        )
        end = flow_map(form, o.x0, o.T_min)
        gap = np.linalg.norm(end - o.x0)
        if gap > 1e-9:
            raise DomainError(
                f"orbit failed closure re-verification: {gap:.3e}"
            )
        orbits.append(o)
    return OrbitDatabase(form_hash=payload["form_hash"], orbits=orbits,
                         params=payload.get("params", {}))
