"""Numerical integration of the Reeb flow and its linearization.

The integrator is scipy's adaptive 8th-order explicit Runge-Kutta (DOP853)
driven step by step; after every accepted step the position is radially
re-projected onto the unit level, which pins the energy error at roundoff
over arbitrarily long spans.  Variational (linearized) equations are
integrated jointly with the base flow using the analytic Hessian of H,
because finite-difference monodromies are too noisy for index work.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853

from . import kernels
from .contact import project_to_sigma, xi_frame, xi_projector
from .errors import DomainError, OffLevelError, StiffnessError

__all__ = [
    "FlowResult",
    "integrate_flow",
    "flow_map",
    "monodromy_xi",
    "write_trajectory_csv",
]


def _rhs(form, variational):
    if form.kind == "ellipsoid":
        fn = kernels.ellipsoid_var_rhs if variational else kernels.ellipsoid_rhs
    else:
        fn = kernels.weighted_var_rhs if variational else kernels.weighted_rhs
    tables = form.tables
    return lambda t, y: fn(y, tables)


class Trajectory:
    """Piecewise dense output of one integration run."""

    def __init__(self, t0, y0, direction):
        self.t0 = t0
        self.direction = direction
        self._breaks = [t0]
        self._segs = []
        self._y0 = y0

    def append(self, t_new, seg):
        self._breaks.append(t_new)
        self._segs.append(seg)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        if not self._segs:
            out = np.tile(self._y0, (len(tt), 1))
            return out[0] if scalar else out
        breaks = np.asarray(self._breaks) * self.direction
        idx = np.clip(np.searchsorted(breaks[1:-1], tt * self.direction), 0,
                      len(self._segs) - 1)
        out = np.empty((len(tt), len(self._y0)))
        # one dense-output call per segment, on all of its sample times
        order = np.argsort(idx, kind="stable")
        segs, first = np.unique(idx[order], return_index=True)
        for seg, rows in zip(segs, np.split(order, first[1:])):
            out[rows] = self._segs[seg](tt[rows]).T
        return out[0] if scalar else out


@dataclass
class FlowResult:
    """Trajectory samples plus optional 4x4 linearized flow matrices."""

    times: np.ndarray
    points: np.ndarray
    monodromy4: np.ndarray | None
    trajectory: Trajectory | None

    @property
    def endpoint(self):
        return self.points[-1]

    @property
    def monodromy_end(self):
        return None if self.monodromy4 is None else self.monodromy4[-1]


def integrate_flow(form, x0, t_final, tol=1e-10, variational=False,
                   t_eval=None, dense=False):
    """Integrate the Reeb flow from a point of the level.

    Parameters
    ----------
    form : StarForm
    x0 : (4,) point on the unit level (within 1e-7).
    t_final : end time, either sign.
    tol : local error tolerance per step (relative; absolute is tol * 1e-2).
    variational : also propagate the 4x4 linearized flow from the identity.
    t_eval : times at which to sample; defaults to the accepted step grid.
    dense : keep the piecewise interpolant in the result.

    Raises
    ------
    OffLevelError
        if x0 is off the level by more than 1e-7.
    StiffnessError
        if the step size underflows; carries the last good state.
    """
    x0 = np.asarray(x0, dtype=float)
    h0 = form.H(x0)
    if abs(h0 - 1.0) > 1e-7:
        raise OffLevelError(f"initial point off level by {abs(h0 - 1.0):.3e}")
    if not np.isfinite(t_final):
        raise DomainError("t_final must be finite")

    y0 = np.concatenate([x0, np.eye(4).ravel()]) if variational else x0.copy()
    if t_final == 0.0:
        times = np.array([0.0]) if t_eval is None else np.asarray(t_eval, dtype=float)
        pts = np.tile(x0, (len(times), 1))
        mon = np.tile(np.eye(4), (len(times), 1, 1)) if variational else None
        return FlowResult(times, pts, mon,
                          Trajectory(0.0, y0, 1.0) if dense else None)

    fun = _rhs(form, variational)
    solver = DOP853(fun, 0.0, y0, t_final, rtol=tol, atol=tol * 1e-2)
    direction = 1.0 if t_final > 0 else -1.0
    traj = Trajectory(0.0, y0, direction)
    ts = [0.0]
    ys = [y0.copy()]
    while solver.status == "running":
        msg = solver.step()
        if solver.status == "failed":
            raise StiffnessError(f"integrator failed: {msg}", ts[-1], ys[-1])
        if dense or t_eval is not None:
            traj.append(solver.t, solver.dense_output())
        # radial re-projection of the position onto the level
        x = solver.y[:4]
        h = form.H(x)
        solver.y[:4] = x / np.sqrt(h)
        ts.append(solver.t)
        ys.append(solver.y.copy())

    if t_eval is not None:
        times = np.asarray(t_eval, dtype=float)
        samples = traj(times)
        # project evaluated samples as well
        xs = project_to_sigma(form, samples[:, :4])
    else:
        times = np.array(ts)
        samples = np.array(ys)
        xs = samples[:, :4]
    mon = samples[:, 4:].reshape(-1, 4, 4) if variational else None
    return FlowResult(times, xs, mon, traj if dense else None)


def flow_map(form, x0, T, variational=False):
    """Endpoint (and optionally linearization) of the time-T flow, tol 1e-12."""
    res = integrate_flow(form, x0, T, tol=1e-12, variational=variational)
    if variational:
        return res.endpoint, res.monodromy_end
    return res.endpoint


def monodromy_xi(form, orbit_point, T, closure_tol=1e-6):
    """Linearized period map restricted to the contact plane.

    Returns the 2x2 matrix of dphi_T on the contact plane, expressed in the
    global frame at the (common) start and end point, from one variational
    integration at tol 1e-12.  Requires the point to be T-periodic within
    ``closure_tol``; determinant is 1 up to integration error.
    """
    x0 = np.asarray(orbit_point, dtype=float)
    end, M = flow_map(form, x0, T, variational=True)
    gap = np.linalg.norm(end - x0)
    if gap > closure_tol:
        raise DomainError(
            f"point is not T-periodic: |phi_T(x) - x| = {gap:.3e} > {closure_tol:.0e}"
        )
    fr = xi_frame(form, x0)
    w = xi_projector(form, x0)(np.stack([M @ fr.e1, M @ fr.e2]))
    return fr.coords(w).T


def write_trajectory_csv(path, times, points):
    """Emit a trajectory as CSV with columns t, x1..x4 (17 significant digits)."""
    with open(path, "w") as fh:
        fh.write("t,x1,x2,x3,x4\n")
        for t, x in zip(times, points):
            fh.write(",".join(f"{v:.17g}" for v in (t, *x)) + "\n")
