"""Numerical integration of the Reeb flow and its linearization.

One DOP853 stepper (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4-II.5;
scipy's tableau, initial step and step-size controller) advances a batch of
states ``(B, d)``; each row keeps its own time, step size and accept/reject
decision, and fails alone.  Stage sums are stacked products, the same
routine on every row, so a row equals its one-row run bit for bit, and a
one-row run takes scipy's steps.  After every accepted step the position is
radially re-projected onto the unit level, which pins the energy error at
roundoff over arbitrarily long spans.  Variational equations are integrated
jointly with the base flow using the analytic Hessian of H, because
finite-difference monodromies are too noisy for index work.
"""

import contextlib
import contextvars
import importlib.machinery
import importlib.util
import os
import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import kernels
from .contact import xi_frame
from .errors import (DomainError, OffLevelError, ReebAtlasError, StiffnessError,
                     raised)

__all__ = [
    "FlowResult",
    "evaluate_runs",
    "integrate_batch",
    "integrate_flow",
    "counting",
]


def load_scipy_file(name, *parts):
    """The module in scipy's file ``parts``, its source or its compiled
    extension, loaded by path under ``name`` without importing the scipy
    packages around it.  ``sys.modules`` keeps it under ``name``, so a
    second load, or a later import of that name, reuses it."""
    if name not in sys.modules:
        stem = os.path.join(
            importlib.util.find_spec("scipy").submodule_search_locations[0],
            *parts)
        path = next(stem + suffix
                    for suffix in (".py", *importlib.machinery.EXTENSION_SUFFIXES)
                    if os.path.exists(stem + suffix))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


# scipy's DOP853 coefficients: the file imports only numpy, where importing
# it by name would import all of scipy.integrate
_dop = load_scipy_file("_dop853_coefficients",
                       "integrate", "_ivp", "dop853_coefficients")
_S = _dop.N_STAGES  # stage _S is f(y_new), the next step's first; 13-15 dense
_A, _B, _D, _E3, _E5 = _dop.A, _dop.B, _dop.D, _dop.E3, _dop.E5
_AROWS = [_A[j, :j] for j in range(len(_A))]
_TINY = np.finfo(float).smallest_subnormal
_TOO_SMALL = ("integrator failed: Required step size is less than spacing "
              "between numbers.")
_WORK = contextvars.ContextVar("reeb_atlas_flow_work", default=None)


@contextlib.contextmanager
def counting():
    """Count the stepper's steps, rejected steps and RHS evaluations (per
    row) inside the block, and ``one_row_steps``: the step attempts made
    while a batch held a single row."""
    token = _WORK.set(Counter())
    try:
        yield _WORK.get()
    finally:
        _WORK.reset(token)


def _rhs(form, variational):
    if form.kind == "ellipsoid":
        fn = kernels.ellipsoid_var_rhs if variational else kernels.ellipsoid_rhs
    else:
        fn = kernels.weighted_var_rhs if variational else kernels.weighted_rhs
    tables = form.tables
    return lambda y: fn(y, tables)


@dataclass
class FlowResult:
    """One integration run: ``times`` (n + 1,) are the accepted step times
    from 0, ``states`` (n + 1, d) the re-projected states there (the point,
    then a variational run's 4x4 linearized flow row by row) and, for a
    dense run, ``F`` (n, 7, d) each step's interpolant coefficients (else
    None).  Calling the run at times ``t`` evaluates them as scipy's
    ``Dop853DenseOutput`` does: ``evaluate_runs`` of the one run."""

    times: np.ndarray
    states: np.ndarray
    F: np.ndarray | None

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = evaluate_runs([self], [np.atleast_1d(t)])
        return out[0] if t.ndim == 0 else out

    @property
    def endpoint(self):
        return self.states[-1, :4]

    @property
    def monodromy4(self):
        return self.states[:, 4:].reshape(-1, 4, 4) if self.states.shape[1] > 4 else None

    @property
    def monodromy_end(self):
        return None if self.monodromy4 is None else self.monodromy4[-1]


def evaluate_runs(runs, ts):
    """The dense runs ``runs`` at their times ``ts`` (one 1-D array per run),
    stacked run after run (sum of lengths, d).  Each time finds its step by
    its own run's searchsorted; the steps are gathered from the runs'
    concatenated ``times``, ``F`` and ``states`` and summed elementwise, so
    every value has the bits of its one-run call.  A run with no steps reads
    its start.  A run without ``F`` raises ``DomainError``."""
    if any(run.F is None for run in runs):
        raise DomainError("the run kept no interpolant to evaluate between its "
                          "steps; integrate it with dense=True")
    has = [len(run.F) > 0 for run in runs]
    stepped = [run for run, h in zip(runs, has) if h]
    tts = [t for t, h in zip(ts, has) if h]
    ks, base = [], 0
    for run, t in zip(stepped, tts):
        direction = np.sign(run.times[-1])
        # in 0..n-1: the n - 1 inner step times bound n steps
        ks.append(base + np.searchsorted(run.times[1:-1] * direction,
                                         t * direction))
        base += len(run.F)
    # from zeros, as scipy's: a sum of -0.0 terms reads +0.0
    dense = np.zeros((sum(len(t) for t in tts), runs[0].states.shape[1]))
    if stepped:
        def cat(arrays):
            return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)

        k, tt = cat(ks), cat(tts)
        t_old = cat([run.times[:-1] for run in stepped])[k]
        t_new = cat([run.times[1:] for run in stepped])[k]
        x = ((tt - t_old) / (t_new - t_old))[:, None]
        x1 = 1 - x
        coeffs = cat([run.F for run in stepped])[k]
        for j in range(6, -1, -1):
            dense += coeffs[:, j]
            dense *= x if j % 2 == 0 else x1
        dense += cat([run.states[:-1] for run in stepped])[k]
    if len(stepped) == len(runs):
        return dense
    lens = [len(t) for t in ts]
    out = np.empty((sum(lens), dense.shape[1]))
    out[np.repeat(has, lens)] = dense
    for run, h, at, n in zip(runs, has, np.cumsum([0] + lens), lens):
        if not h:
            out[at:at + n] = run.states[0]
    return out


def _rms(a):
    return kernels.norm(a) / a.shape[-1] ** 0.5


def _interpolant(K, y_old, y_new, h):
    """scipy's ``Dop853DenseOutput`` coefficients (n, 7, d) of the steps of
    signed size h (n, 1) from y_old to y_new with the 16 stages K."""
    F = np.empty((len(y_new), 7, y_new.shape[1]))
    dy = np.subtract(y_new, y_old, out=F[:, 0])
    np.subtract(h * K[:, 0], dy, out=F[:, 1])
    np.subtract(2 * dy, h * (K[:, _S] + K[:, 0]), out=F[:, 2])
    np.multiply(h[:, None], _D @ K, out=F[:, 3:])
    return F


def _steps(form, rhs, rows, y, t_end, tol, dense):
    """Advance the ``rows`` of ``y`` (B, d) from time 0 to their ``t_end``.

    Returns each accepted step of the batch as (rows, |t_new|, re-projected
    y_new, interpolant coefficients or None), and the failed rows' errors.
    Time runs as s = |t|; powers go through libm, as scipy's scalar ones do.
    """
    rtol, atol = tol, tol * 1e-2
    n, d = y.shape
    direction = np.sign(t_end)
    s, s_end = np.zeros(n), np.abs(t_end)
    f = rhs(y)
    # scipy's select_initial_step (HNW II.4)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, s_end)
        d2 = _rms((rhs(y + (h0 * direction)[:, None] * f) - f) / scale) / h0
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15), np.maximum(1e-6, h0 * 1e-3),
                      np.float_power(0.01 / np.maximum(d1, d2), 1 / 8))
    h_abs = np.minimum(np.minimum(100 * h0, h1), s_end)
    rejected, any_rejected = np.zeros(n, dtype=bool), False
    steps = [(rows[:0], s[:0], y[:0], np.empty((0, 7, d)) if dense else None)]
    errors, n_ok_all, n_tried, n_rhs, n_one = {}, 0, 0, 2 * n, 0
    while True:
        leave = s >= s_end
        if any_rejected:  # scipy fails a retry below min_step
            stuck = rejected & (h_abs < 10 * np.spacing(s))
            for i in np.flatnonzero(stuck):
                errors[int(rows[i])] = StiffnessError(
                    _TOO_SMALL, direction[i] * s[i], y[i].copy())
            leave |= stuck
        if np.count_nonzero(leave):
            keep = ~leave
            rows, s, s_end, y, f, h_abs, rejected, direction = (
                a[keep] for a in (rows, s, s_end, y, f, h_abs, rejected, direction))
        if not rows.size:
            break
        n_one += rows.size == 1
        s_new = np.minimum(s + np.maximum(h_abs, 10 * np.spacing(s)), s_end)
        h_abs = s_new - s
        hc = (h_abs * direction)[:, None]
        K = np.empty((rows.size, len(_A) if dense else _S + 1, d))
        K[:, 0] = f
        for j in range(1, _S):
            K[:, j] = rhs(y + (_AROWS[j] @ K[:, :j]) * hc)
        y_new = y + hc * (_B @ K[:, :_S])
        K[:, _S] = rhs(y_new)
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        e5 = np.float_power(kernels.norm((_E5 @ K[:, :_S + 1]) / scale), 2)
        e3 = np.float_power(kernels.norm((_E3 @ K[:, :_S + 1]) / scale), 2)
        # scipy's error norm: 0 where both estimates vanish, NaN kept
        err = h_abs * e5 / np.fmax(np.sqrt((e5 + 0.01 * e3) * d), _TINY)
        grow = 0.9 * np.float_power(np.maximum(err, _TINY), -1 / 8)
        ok = err < 1
        n_ok = int(np.count_nonzero(ok))
        factor = np.minimum(10.0, grow)
        if n_ok < rows.size:  # fmax: a NaN error shrinks the step too
            factor = np.where(ok, factor, np.fmax(0.2, grow))
        if any_rejected:  # no growth right after a rejection
            factor = np.where(rejected, np.minimum(1.0, factor), factor)
        h_abs = h_abs * factor
        n_ok_all, n_tried = n_ok_all + n_ok, n_tried + rows.size
        n_rhs += _S * rows.size + 3 * dense * n_ok
        rejected, any_rejected = ~ok, n_ok < rows.size
        if not n_ok:
            continue
        acc = np.flatnonzero(ok) if any_rejected else slice(None)
        y_acc, coeffs = y_new[acc], None
        if dense:  # scipy's Dop853DenseOutput coefficients, from 3 more stages
            Ka, y_old, h = K[acc], y[acc], hc[acc]
            for j in range(_S + 1, len(_A)):
                Ka[:, j] = rhs(y_old + (_AROWS[j] @ Ka[:, :j]) * h)
            coeffs = _interpolant(Ka, y_old, y_acc, h)
        x = y_acc[:, :4]
        y_acc[:, :4] = x / np.sqrt(form.H(x))[:, None]
        if any_rejected:
            y, f = y.copy(), f.copy()
            y[acc], f[acc], s = y_acc, K[acc, _S], np.where(ok, s_new, s)
        else:
            y, f, s = y_acc, K[:, _S], s_new
        steps.append((rows[acc], s_new[acc], y_acc, coeffs))
    if _WORK.get() is not None:
        _WORK.get().update(steps=n_ok_all, rejected_steps=n_tried - n_ok_all,
                           rhs_evals=n_rhs, one_row_steps=n_one)
    return steps, errors


def integrate_batch(form, x0, t_final, tol, variational=False, dense=False):
    """Integrate the Reeb flow from every row of ``x0`` (B, 4) on the level.

    Row i runs to ``t_final[i]`` (a scalar serves every row), either sign, at
    local error ``tol`` per step (relative; absolute is tol * 1e-2).
    ``variational`` also propagates the 4x4 linearized flow from the
    identity; ``dense`` keeps the interpolant.  Returns one ``FlowResult``
    per row, or its exception: ``OffLevelError`` (start off level by over
    1e-7, or NaN), ``DomainError`` (non-finite end time) or
    ``StiffnessError`` (step size underflow; carries the last good state).
    """
    x0 = np.asarray(x0, dtype=float)
    t_end = np.broadcast_to(np.asarray(t_final, dtype=float), (len(x0),))
    out = [OffLevelError(f"initial point off level by {e:.3e}")
           if not e <= 1e-7  # NaN too: a NaN start would step forever
           else None if np.isfinite(t) else DomainError("t_final must be finite")
           for e, t in zip(np.abs(form.H(x0) - 1.0), t_end)]
    run = np.array([i for i, o in enumerate(out) if o is None], dtype=int)
    y0 = x0 if not variational else np.concatenate(
        [x0, np.tile(np.eye(4).ravel(), (len(x0), 1))], axis=1)
    steps, errors = _steps(form, _rhs(form, variational), run, y0[run],
                           t_end[run], tol, dense)
    for i, exc in errors.items():
        out[i] = exc
    ids, s_all, y_all, F_all = (None if c[0] is None else np.concatenate(c)
                                for c in zip(*steps))
    order = np.argsort(ids, kind="stable")  # each row's steps stay in time order
    cuts = np.searchsorted(ids[order], np.arange(len(x0) + 1))
    for i in [i for i, o in enumerate(out) if o is None]:
        p = order[cuts[i]:cuts[i + 1]]
        out[i] = FlowResult(np.concatenate([[0.0], np.sign(t_end[i]) * s_all[p]]),
                            np.concatenate([y0[i:i + 1], y_all[p]]),
                            None if F_all is None else F_all[p])
    return out


def integrate_flow(form, x0, t_final, tol=1e-10, dense=False):
    """The plain or dense ``integrate_batch`` run from the one point ``x0``
    (4,); raises the row's exception (``OffLevelError``, ``DomainError``,
    ``StiffnessError``)."""
    return raised(integrate_batch(form, np.asarray(x0, dtype=float)[None],
                                  t_final, tol, dense=dense))[0]


def lockstep(rows, kinds, serve):
    """Run the generators ``rows``, which yield requests (kind, *args), side
    by side: each round ``serve(kind, args)`` answers all pending requests of
    the first of ``kinds`` asked for, and an exception answer is thrown into
    its row.  Returns per row its return value or ``ReebAtlasError``."""
    out, asks = [None] * len(rows), {}

    def advance(i, answer):
        try:
            asks[i] = (rows[i].throw(answer) if isinstance(answer, Exception)
                       else rows[i].send(answer))
        except StopIteration as done:
            out[i] = done.value
        except ReebAtlasError as exc:
            out[i] = exc

    for i in range(len(rows)):
        advance(i, None)
    while asks:
        kind = next(k for k in kinds if any(a[0] == k for a in asks.values()))
        ids = [i for i, a in asks.items() if a[0] == kind]
        for i, answer in zip(ids, serve(kind, [asks.pop(i)[1:] for i in ids])):
            advance(i, answer)
    return out


def xi_period_map(form, x0, res, closure_tol):
    """Linearized period map restricted to the contact plane, from the
    variational run ``res`` from ``x0`` to the period T.

    Returns the 2x2 matrix of dphi_T on the contact plane, expressed in the
    global frame at the (common) start and end point.  Requires the point to
    be T-periodic within ``closure_tol``; determinant is 1 up to integration
    error.
    """
    end, M = res.endpoint, res.monodromy_end
    gap = np.linalg.norm(end - x0)
    if gap > closure_tol:
        raise DomainError(
            f"point is not T-periodic: |phi_T(x) - x| = {gap:.3e} > {closure_tol:.0e}"
        )
    fr = xi_frame(form, x0)
    w = fr.project(np.stack([M @ fr.e1, M @ fr.e2]))
    return fr.coords(w).T
