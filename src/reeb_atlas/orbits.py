"""Search, Newton refinement, and bookkeeping of periodic Reeb orbits.

The search is a best-effort truncation of the (generally infinite) set of
periodic orbits up to a period cap: low-discrepancy seeds are integrated
forward as one batch, near-returns of each trajectory are detected by a
closest-return scan, and all candidates are polished in lockstep by
multiple shooting: each period splits into segments of span at most
``_SEGMENT_SPAN``, and Gauss-Newton solves continuity, energy level and a
phase anchor with the segments' analytic variational matrices, one stacked
integration of every segment per round.  The bookkeeping then replays the
candidates in seed order, so the census is that of a one-by-one search; the
survivors it needs are certified from their polished rows in lockstep
waves, which run no second Newton pass, and a cover's prime comes from the
cover's own runs.  Completeness is never claimed; downstream verdicts carry
the truncation cap.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .contact import project_to_sigma, reeb_vector, sphere_samples
from .cz import prime_key
from .errors import (DomainError, FrameDegeneracyError, MissingArtifactError,
                     ReebAtlasError, RefinementError, ResolutionError,
                     StiffnessError, raised)
from .flow import (counting, integrate_batch, integrate_flow, lockstep,
                   xi_period_map)

__all__ = [
    "ReebOrbit",
    "OrbitDatabase",
    "refine_orbit",
    "find_orbits",
    "trace_orbits",
    "trace_orbit",
    "classify_monodromy",
    "save_orbits",
    "load_orbits",
]

DEGENERACY_TOL = 1e-6

_NEWTON_TOL = 1e-10  # residual target of the shooting polish
_NEWTON_MAX_ITER = 50
_SEGMENT_SPAN = 2.0  # the longest span of a shooting segment

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
        mk = np.linalg.matrix_power(self.monodromy, k)
        return ReebOrbit(x0=self.x0.copy(), T_min=self.T_min, multiplicity=k,
                         monodromy=mk, nondeg_class=classify_monodromy(mk),
                         residual=self.residual)


@dataclass
class OrbitDatabase:
    """Deduplicated census of periodic orbits up to a period cap."""

    form_hash: str
    orbits: list
    params: dict
    # the search's candidate funnel and stepper work; not saved with the census
    funnel: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return len(self.orbits)

    def __getitem__(self, i):
        if not 0 <= i < len(self.orbits):
            raise DomainError(f"orbit {i} is not in the database")
        return self.orbits[i]


def trace_orbits(form, orbits, n):
    """Per orbit, (n, 4) points sampled uniformly in time over its full
    period ``T`` at tol 1e-11, or the ``ReebAtlasError`` that stopped it;
    a k-fold cover winds k times around its image.  All orbits are
    integrated in one ``integrate_batch``, each evaluated on its own grid."""
    runs = integrate_batch(form, np.array([o.x0 for o in orbits]),
                           np.array([o.T for o in orbits]), tol=1e-11, dense=True)
    return [run if isinstance(run, ReebAtlasError) else project_to_sigma(
        form, run(np.arange(n) / n * o.T)[:, :4])
        for o, run in zip(orbits, runs)]


def trace_orbit(form, orbit, n):
    """The one orbit's ``trace_orbits``, from its one-row ``integrate_flow``
    (the same run bit for bit); raises the error that stopped it."""
    run = integrate_flow(form, orbit.x0, orbit.T, tol=1e-11, dense=True)
    return project_to_sigma(form, run(np.arange(n) / n * orbit.T)[:, :4])


def _shooting_system(form, ys, segments, anchor_x, anchor_v):
    """The multiple-shooting residual F and its Jacobian J in the unknowns
    (y_0..y_(m-1), T), from the variational runs ``segments`` of span T/m
    from the starts ``ys`` (m, 4).  F holds the continuity defects
    phi_(T/m)(y_k) - y_(k+1) with y_m = y_0 (4m rows), H(y_k) - 1 (m rows)
    and the anchor <v_anchor, y_0 - x_anchor> (one row); the T column of
    segment k is R(end_k) / m."""
    m, n = len(ys), 4 * len(ys)
    ends = np.array([seg.endpoint for seg in segments])
    F = np.concatenate([(ends - np.roll(ys, -1, axis=0)).ravel(),
                        form.H(ys) - 1.0, [anchor_v @ (ys[0] - anchor_x)]])
    J = np.zeros((n + m + 1, n + 1))
    grads = form.grad_H(ys)
    for k, seg in enumerate(segments):
        nxt = 4 * ((k + 1) % m)
        J[4 * k:4 * k + 4, 4 * k:4 * k + 4] = seg.monodromy_end
        J[4 * k:4 * k + 4, nxt:nxt + 4] -= np.eye(4)
        J[n + k, 4 * k:4 * k + 4] = grads[k]
    J[:n, n] = reeb_vector(form, ends, check=False).ravel() / m
    J[-1, :4] = anchor_v
    return F, J


def _polish_row(form, x_guess, T_guess, initial_residual_cap):
    """Gauss-Newton by multiple shooting, for one candidate.

    The period T splits into m = ceil(T / _SEGMENT_SPAN) segments of span
    T/m; the unknowns are the segment starts and T, the equations those of
    ``_shooting_system``, anchored at the guess's projection.  Yields
    (variational, starts (n, 4), span) for the flows it needs, plain ones
    dense, and is sent one ``FlowResult`` per start.  The first is the
    full-period run at the guess: its return residual is checked against
    ``initial_residual_cap``, and the segment starts are sampled from it.
    Returns (x = y_0, T, residual, iters, degenerate_family), where the
    residual is the norm of the last round's continuity defects, or the
    first run's return residual if that already closes.  Stalls and rank
    deficiencies are detected early so that hopeless candidates stay cheap.
    """
    x = project_to_sigma(form, np.asarray(x_guess, dtype=float))
    T = float(T_guess)
    if T <= 0:
        raise DomainError("period guess must be positive")
    anchor_x = x.copy()
    anchor_v = reeb_vector(form, x, check=False)

    run, = yield False, x[None], T
    residual = best = np.linalg.norm(run.endpoint - x)
    if residual > initial_residual_cap:
        raise RefinementError(
            f"initial return residual {residual:.3e} exceeds {initial_residual_cap}"
        )
    m = math.ceil(T / _SEGMENT_SPAN)
    n = 4 * m
    ys = project_to_sigma(form, run(np.arange(m) * (T / m))[:, :4])
    ys[0] = x
    del run  # the polish keeps no interpolant

    iters = 0
    stall = 0
    degenerate_family = False
    while residual > _NEWTON_TOL:
        F, J = _shooting_system(form, ys, (yield True, ys, T / m),
                                anchor_x, anchor_v)
        residual = np.linalg.norm(F[:n])
        if residual <= _NEWTON_TOL or iters == _NEWTON_MAX_ITER:
            break
        if residual < 0.5 * best:
            best, stall = residual, 0
        else:
            stall += 1
            if stall >= 4 and residual > 1e-6:
                raise RefinementError(
                    f"stalled after {iters} iterations (residual {residual:.3e})"
                )
        U, sv, Vt = np.linalg.svd(J, full_matrices=False)
        if sv[-1] < 1e-10 * sv[0]:
            degenerate_family = True
            break
        delta = -Vt.T @ ((U.T @ F) / sv)  # the least-squares step
        # crude trust region, on the largest move of one start and T
        step = np.hypot(kernels.norm(delta[:n].reshape(m, 4)).max(), delta[n])
        if step > 1.0:
            delta *= 1.0 / step  # guards wild candidates
        ys = project_to_sigma(form, ys + delta[:n].reshape(m, 4))
        T = T + delta[n]
        if T <= 0:
            raise RefinementError("period iterated to a non-positive value")
        iters += 1
    return ys[0], T, residual, iters, degenerate_family


def _flow_answers(runs, asks):
    """Split the runs of one batch into one list per request (starts, span),
    or the request's first error."""
    out, i = [], 0
    for xs, _ in asks:
        part, i = runs[i:i + len(xs)], i + len(xs)
        out.append(next((r for r in part if isinstance(r, Exception)), part))
    return out


def _lockstep_rows(form, rows):
    """Run polish and certification generators side by side: each round
    stacks every start the rows ask for, one ``integrate_batch`` per kind at
    1e-12, plain flows as dense runs (same steps and endpoint), and traces
    by ``trace_orbits``, so a row follows its one-row call bit for bit.  It
    keeps no run past its round: over hundreds of candidates runs and
    interpolants raise the search's peak memory.  Returns per row its value
    or ``ReebAtlasError``."""
    def serve(kind, asks):
        if kind == "trace":
            return trace_orbits(form, [orbit for orbit, in asks], 512)
        return _flow_answers(integrate_batch(
            form, np.concatenate([xs for xs, _ in asks]),
            np.repeat([T for _, T in asks], [len(xs) for xs, _ in asks]),
            tol=1e-12, variational=kind, dense=not kind), asks)

    return lockstep(rows, (False, True, "trace"), serve)


def _newton_polish(form, x_guess, T_guess, initial_residual_cap):
    """Polish the candidates ``x_guess`` (B, 4), ``T_guess`` (B,) in
    lockstep, every variational row of a round spanning at most
    ``_SEGMENT_SPAN``.  Returns per row the result of ``_polish_row``, or
    its exception."""
    return _lockstep_rows(form, [_polish_row(form, x, T, initial_residual_cap)
                                 for x, T in zip(x_guess, T_guess)])


def _certify(form, polished):
    """Certify a ``_polish_row`` result as (orbit, prime), a generator for
    ``_lockstep_rows``.  The polished point is projected onto the level once
    more; a degenerate family takes its period from the scalar minimization
    of the return proximity in T.  It asks for the dense run at (x, T), for
    the closure and the multiplicity, a cover's run to T_min, and the
    variational run to T_min.  The orbit's residual is the larger of the
    closures at T and at T_min, and at least the minimizer's value for a
    family.  A cover's prime comes from the same runs, its residual the
    closure at T_min; a simply covered orbit is its own prime."""
    x, T, residual, _, degenerate_family = polished
    x = project_to_sigma(form, x)
    floor = 0.0
    if degenerate_family:
        from scipy.optimize import minimize_scalar

        g = lambda t: np.linalg.norm(
            integrate_flow(form, x, t, tol=1e-12).endpoint - x)
        opt = minimize_scalar(g, bracket=(0.8 * T, T, 1.2 * T))
        if opt.fun > 1e-9:
            raise RefinementError(
                f"rank-deficient shooting Jacobian and no nearby closure "
                f"(best residual {opt.fun:.3e})"
            )
        T, floor = float(opt.x), float(opt.fun)
    elif residual > _NEWTON_TOL:
        raise RefinementError(
            f"no convergence in {_NEWTON_MAX_ITER} iterations "
            f"(residual {residual:.3e})"
        )

    # multiplicity: largest k <= 64 with T/k >= 0.05, closed within 1e-6
    traj, = yield False, x[None], T
    closure = np.linalg.norm(traj.endpoint - x)
    ks = np.arange(2, min(max(1, int(T / 0.05)), 64) + 1)
    ys = project_to_sigma(form, traj(T / ks)[:, :4])
    closed = ks[kernels.norm(ys - x) < 1e-6]
    mult = int(closed.max()) if closed.size else 1
    T_min = T / mult
    prime_res = closure if mult == 1 else np.linalg.norm(
        (yield False, x[None], T_min)[0].endpoint - x)
    mon_prime = xi_period_map(form, x, (yield True, x[None], T_min)[0], 1e-5)
    mon_full = np.linalg.matrix_power(mon_prime, mult)
    orbit = ReebOrbit(
        x0=x, T_min=T_min, multiplicity=mult, monodromy=mon_full,
        nondeg_class=classify_monodromy(mon_full),
        residual=float(max(floor, closure, prime_res)),
    )
    return orbit, orbit if mult == 1 else ReebOrbit(
        x0=x, T_min=T_min, multiplicity=1, monodromy=mon_prime,
        nondeg_class=classify_monodromy(mon_prime), residual=float(prime_res))


def refine_orbit(form, x_guess, T_guess):
    """Newton-polish a candidate (point, period) into a certified orbit.

    Solves the multiple-shooting system of ``_polish_row`` (continuity of
    segments of span at most ``_SEGMENT_SPAN``, H = 1 at every segment start
    and the phase anchor) by Gauss-Newton with the analytic variational
    matrices; a guess whose first return misses by over 0.1 is rejected.
    The prime period is extracted afterwards by divisor testing.
    Rank-deficient Jacobians (degenerate orbit families, e.g. on the round
    sphere) fall back to scalar minimization of the return proximity in T.
    The one-row run of ``_polish_row`` and then ``_certify``.
    """
    def row():
        polished = yield from _polish_row(form, x_guess, T_guess, 0.1)
        return (yield from _certify(form, polished))[0]

    return raised(_lockstep_rows(form, [row()]))[0]


def _near_return_candidates(times, pts, min_period, threshold, max_keep):
    # pairwise distances, summed coordinate by coordinate in the order of
    # np.linalg.norm over the last axis, without the (n, n, 4) difference
    d = np.sqrt(sum(np.square(c[:, None] - c[None, :]) for c in pts.T))
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
    dropped (optionally reported through ``log``).  The database's
    ``funnel`` counts seeds, candidates and their fates, Newton iterations,
    certified rows, waves and the stepper's work.
    """
    if T_max <= 0:
        raise DomainError("T_max must be positive")
    seeds = project_to_sigma(
        form, sphere_samples(n_seeds, seed_skip=rng_seed * (n_seeds + 1)))
    t_grid = np.arange(0.0, T_max + 0.5 * _SCAN_DT, _SCAN_DT)

    primes = []
    traces = []

    def known(x, T):
        """x lies within _DEDUP_TOL of a known prime's trace, and T is a
        multiple of its prime period within _DEDUP_TOL.  The tolerance
        exceeds the sagitta of the 512-point trace polyline, so a converged
        point on a known curve always registers as known."""
        for prime, tr in zip(primes, traces):
            if kernels.point_to_polyline(np.ascontiguousarray(x), tr) < _DEDUP_TOL:
                k = T / prime.T_min
                if round(k) >= 1 and abs(k - round(k)) * prime.T_min < _DEDUP_TOL:
                    return True
        return False

    funnel = Counter(seeds=len(seeds), dropped=0, known=0, certified=0, waves=0)

    def drop(reason):
        funnel["dropped"] += 1
        if log is not None:
            log.append(reason)

    def replay_step(i):
        """Candidate i's fate with the primes known now: "known", its
        polish's error, or None if it needs a certificate."""
        outcome = polished[i]
        if isinstance(outcome, Exception):
            return outcome
        x, T, _, _, family = outcome
        return "known" if not family and known(x, T) else None

    def certify(row):
        """``_certify`` of a polished row and the prime's trace: (orbit,
        prime, trace), prime None past T_max.  Any error is the row's value,
        raised only if the replay needs it."""
        try:
            orbit, prime = yield from _certify(form, row)
            if orbit.T_min > T_max + 1e-9:
                return orbit, None, None
            return orbit, prime, (yield "trace", prime)
        except Exception as exc:
            return exc

    def same_class(T, T2):  # equal or integer multiples within 1e-4
        lo, hi = sorted((T, T2))
        return abs(hi / lo - round(hi / lo)) * lo < 1e-4

    def wave(i):
        """Certify in lockstep candidate i and each later one the replay may
        need and no wave has certified, one per period class (class-mates
        often share their orbit)."""
        rows = []
        for j in range(i, len(polished)):
            if j not in certs and replay_step(j) is None and not any(
                    same_class(polished[j][1], polished[r][1]) for r in rows):
                rows.append(j)
        funnel.update(waves=1, certified=len(rows))
        return dict(zip(rows, _lockstep_rows(
            form, [certify(polished[j]) for j in rows])))

    with counting() as work:
        cands = []
        for run in raised(integrate_batch(form, seeds, float(t_grid[-1]),
                                          tol=1e-8, dense=True)):
            cands += _near_return_candidates(
                t_grid, project_to_sigma(form, run(t_grid)[:, :4]), _MIN_PERIOD,
                _CANDIDATE_THRESHOLD, max_keep=4)
        polished = _newton_polish(
            form, [x for x, _, _ in cands], [dt for _, dt, _ in cands],
            initial_residual_cap=_CANDIDATE_THRESHOLD + 1e-9)
        # the sequential search, replayed in seed order on the polished rows;
        # a survivor's certificate comes from the wave that holds it
        certs = {}
        for i in range(len(polished)):
            fate = replay_step(i)
            if fate == "known":
                funnel["known"] += 1
                continue
            if fate is None:
                if i not in certs:
                    certs.update(wave(i))
                fate = certs[i]
            if isinstance(fate, _CANDIDATE_ERRORS):
                drop(f"candidate dropped: {fate}")
                continue
            orb, prime, tr = raised([fate])[0]
            if prime is None:
                drop(f"prime period {orb.T_min:.6f} beyond cap")
                continue
            # the distance of tr's first point is a row of the Hausdorff
            # scan, so it bounds it from below bit for bit
            if any(kernels.point_to_polyline(tr[0], t0) <= _DEDUP_TOL
                   and kernels.hausdorff_distance(tr, t0) <= _DEDUP_TOL
                   for t0 in traces):
                funnel["known"] += 1
                continue
            primes.append(prime)
            traces.append(tr)
    # candidates = dropped + known + new_primes
    funnel.update(work, candidates=len(cands), new_primes=len(primes))
    funnel["newton_iters"] = dict(sorted(Counter(
        row[3] for row in polished if not isinstance(row, Exception)).items()))

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
    return OrbitDatabase(form_hash=form.form_hash, orbits=entries, params=params,
                         funnel=dict(funnel))


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
    """Read a census; its ``params.t_max`` must be a positive finite number,
    and every entry must hold finite JSON numbers, a positive T_min and an
    integer multiplicity of at least 1 whose period is at most t_max + 1e-9
    (the cap of ``find_orbits``), carry its monodromy's class and re-close
    within 1e-9 at T_min.  A missing file or a directory raises
    ``MissingArtifactError``, any other fault ``DomainError``."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if payload.get("form_hash") != form.form_hash:
            raise DomainError("orbit database was built for a different form")
        params, t_max = payload["params"], payload["params"]["t_max"]
        if type(t_max) not in (int, float) or not 0 < t_max < np.inf:
            raise ValueError(f"params.t_max {t_max!r} is not a positive finite number")
        orbits = [ReebOrbit(x0=np.array(rec["x0"], dtype=float),
                            T_min=float(rec["T_min"]),
                            multiplicity=rec["multiplicity"],
                            monodromy=np.array(rec["monodromy"], dtype=float),
                            nondeg_class=rec["class"],
                            residual=float(rec["residual"]))
                  for rec in payload["orbits"]]
        for i, (o, rec) in enumerate(zip(orbits, payload["orbits"])):
            # float() reads strings and booleans, so the JSON types are
            # checked; a zero or backward run would pass the closure re-check
            reals = [*rec["x0"], *(v for row in rec["monodromy"] for v in row),
                     rec["T_min"], rec["residual"]]
            if (any(type(v) not in (int, float) for v in reals)
                    or type(o.multiplicity) is not int or o.multiplicity < 1
                    or o.x0.shape != (4,) or o.monodromy.shape != (2, 2)
                    or not np.all(np.isfinite(reals)) or not 0 < o.T_min
                    or o.T > t_max + 1e-9):  # a huge cover overflows here
                raise ValueError(f"entry {i}'s x0, monodromy, residual, T_min "
                                 f"or multiplicity is out of type, shape or range")
            if classify_monodromy(o.monodromy) != o.nondeg_class:
                raise ValueError(f"entry {i}'s class is not its monodromy's")
        # every closure in one batched integration at refine_orbit's
        # tolerance, one row per prime: a cover shares its prime's (x0,
        # T_min), and a row of a batch equals its one-row run bit for bit
        keys = list(dict.fromkeys(prime_key(o) for o in orbits))
        ends = raised(integrate_batch(form, np.reshape([x0 for _, x0 in keys], (-1, 4)),
                                      [T_min for T_min, _ in keys], tol=1e-12))
        end_of = dict(zip(keys, ends))
        for i, o in enumerate(orbits):
            gap = np.linalg.norm(end_of[prime_key(o)].endpoint - o.x0)
            if gap > 1e-9:
                raise DomainError(f"entry {i} failed closure re-verification: {gap:.3e}")
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifactError(path, "reeb-atlas orbits-find")
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError,
            ReebAtlasError) as exc:
        raise DomainError(f"malformed orbit census {path}: "
                          f"{type(exc).__name__}: {exc}") from exc
    return OrbitDatabase(form_hash=form.form_hash, orbits=orbits, params=params)
