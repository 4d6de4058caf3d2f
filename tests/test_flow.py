import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853
from scipy.integrate._ivp import dop853_coefficients

from reeb_atlas import cz, flow, kernels
from reeb_atlas.contact import OMEGA, StarForm
from reeb_atlas.errors import (DomainError, OffLevelError, ReebAtlasError,
                               StiffnessError)
from reeb_atlas.flow import integrate_batch, integrate_flow
from reeb_atlas.orbits import _newton_polish, refine_orbit

from oracles import (masked_integrate_batch, monodromy_xi, stacked_interpolant,
                     tiled_flow_call)

RHO = 1.0 + 1.0 / np.sqrt(2.0)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def test_tableau_read_by_path_is_scipys():
    for name in ("N_STAGES", "A", "B", "C", "D", "E3", "E5"):
        assert np.array_equal(getattr(flow._dop, name),
                              getattr(dop853_coefficients, name)), name


def test_round_sphere_flow_specialization(round_form):
    # the circle flow at unit contact action has prime period pi, so the
    # antipode is reached at half period and t = pi closes up
    x = np.array([1.0, 0.0, 0.0, 0.0])
    half = integrate_flow(round_form, x, np.pi / 2, tol=1e-12).endpoint
    full = integrate_flow(round_form, x, np.pi, tol=1e-12).endpoint
    assert np.linalg.norm(half + x) < 1e-8
    assert np.linalg.norm(full - x) < 1e-8


def test_ellipsoid_circle_period(ell):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    end = integrate_flow(ell, x, np.pi, tol=1e-12).endpoint
    assert np.linalg.norm(end - x) < 1e-8


def test_zero_time_identity(ell, gamma1):
    res, = integrate_batch(ell, [gamma1.x0], 0.0, tol=1e-10, variational=True)
    assert np.allclose(res.endpoint, gamma1.x0)
    assert np.allclose(res.monodromy_end, np.eye(4))


def test_reversibility(ell):
    x0 = np.array([0.6, 0.2, 0.5, -0.3])
    x0 = x0 / np.sqrt(ell.H(x0))
    mid = integrate_flow(ell, x0, 7.3, tol=1e-12).endpoint
    back = integrate_flow(ell, mid, -7.3, tol=1e-12).endpoint
    assert np.linalg.norm(back - x0) < 1e-7


def test_energy_drift_long_span(ell):
    x0 = np.array([0.3, -0.4, 0.55, 0.45])
    x0 = x0 / np.sqrt(ell.H(x0))
    res = integrate_flow(ell, x0, 100.0, tol=1e-10)
    assert np.abs(ell.H_batch(res.states) - 1.0).max() <= 1e-9


def test_linear_flow_matches_matrix_exponential(ell):
    # quadratic Hamiltonian: the variational matrix is block rotations
    x0 = np.array([0.6, 0.0, 0.5, 0.1])
    x0 = x0 / np.sqrt(ell.H(x0))
    t = 2.7
    res, = integrate_batch(ell, [x0], t, tol=1e-12, variational=True)
    w1 = 2.0 / ell.r_squared[0]
    w2 = 2.0 / ell.r_squared[1]
    exact = np.zeros((4, 4))
    exact[:2, :2] = rotation(w1 * t)
    exact[2:, 2:] = rotation(w2 * t)
    assert np.abs(res.monodromy_end - exact).max() < 1e-8


def test_variational_symplecticity(ell):
    x0 = np.array([0.5, 0.5, 0.5, 0.5])
    x0 = x0 / np.sqrt(ell.H(x0))
    for t in (1.0, 5.0, 20.0):
        M = integrate_batch(ell, [x0], t, tol=1e-12,
                            variational=True)[0].monodromy_end
        defect = np.abs(M.T @ OMEGA @ M - OMEGA).max()
        assert defect < 1e-7 * max(t, 1.0)


def test_weighted_var_rhs_is_linearized_reeb_field(perturbed_form):
    # (x, M) -> (-Omega grad H(x), -Omega Hess H(x) M), built independently
    form = perturbed_form
    rng = np.random.default_rng(6)
    for _ in range(20):
        x = rng.normal(size=4)
        M = rng.normal(size=(4, 4))
        out = kernels.weighted_var_rhs(np.concatenate([x, M.ravel()]),
                                       form.tables)
        expect = np.concatenate([-OMEGA @ form.grad_H(x),
                                 (-OMEGA @ (form.hess_H(x) @ M)).ravel()])
        np.testing.assert_allclose(out, expect, rtol=1e-13, atol=1e-13)


def test_monodromy_round_sphere_identity(round_form):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    M = monodromy_xi(round_form, x, np.pi)
    assert np.abs(M - np.eye(2)).max() < 1e-6


def test_monodromy_gamma1_rotation(ell, gamma1):
    M = monodromy_xi(ell, gamma1.x0, np.pi)
    assert np.abs(M - rotation(2 * np.pi * RHO)).max() < 1e-6
    assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-6)
    ev = sorted(np.linalg.eigvals(M), key=lambda z: z.imag)
    expect = sorted([np.exp(2j * np.pi * RHO), np.exp(-2j * np.pi * RHO)],
                    key=lambda z: z.imag)
    assert np.allclose(ev, expect, atol=1e-6)


def test_monodromy_requires_closure(ell):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        monodromy_xi(ell, x, 1.0)


def test_trajectory_batch_equals_pointwise(ell, gamma1):
    # one dense-output call per segment reproduces the per-sample values
    for t_final in (2.0, -2.0):
        traj = integrate_flow(ell, gamma1.x0, t_final, dense=True)
        ts = np.linspace(0.0, t_final, 41)[::-1]
        np.testing.assert_array_equal(traj(ts), [traj(t) for t in ts])


def _on_level(form, x):
    x = np.asarray(x, dtype=float)
    return x / np.sqrt(form.H(x))[..., None]


@pytest.mark.parametrize("name", ["ell", "perturbed_form"])
@pytest.mark.parametrize("t_final", [7.3, -7.3])
@pytest.mark.parametrize("tol", [1e-8, 1e-12])
@pytest.mark.parametrize("variational", [False, True])
def test_one_row_takes_scipys_steps(request, name, t_final, tol, variational):
    # scipy's DOP853 with the same re-projection after each step is the oracle
    form = request.getfixturevalue(name)
    x0 = _on_level(form, [0.6, 0.2, 0.5, -0.3])
    fun = flow._rhs(form, variational)
    y0 = np.concatenate([x0, np.eye(4).ravel()]) if variational else x0
    solver = DOP853(lambda t, y: fun(y), 0.0, y0, t_final, rtol=tol,
                    atol=tol * 1e-2)
    n_steps = 0
    while solver.status == "running":
        solver.step()
        solver.y[:4] /= np.sqrt(form.H(solver.y[:4]))
        n_steps += 1
    res, = integrate_batch(form, [x0], t_final, tol=tol, variational=variational)
    assert len(res.times) - 1 == n_steps
    assert np.abs(res.endpoint - solver.y[:4]).max() < 1e-12
    if variational:
        assert np.abs(res.monodromy_end.ravel() - solver.y[4:]).max() < 1e-12


@pytest.mark.parametrize("name", ["ell", "perturbed_form"])
def test_batch_rows_equal_one_row_runs(request, name):
    # mixed spans, both signs and zero; each row is its one-row run bit for bit
    form = request.getfixturevalue(name)
    rng = np.random.default_rng(3)
    x0 = _on_level(form, rng.normal(size=(5, 4)))
    spans = np.array([2.5, -1.0, 0.0, 6.0, 0.3])
    ts = np.linspace(0.0, 1.0, 7)
    for kwargs in ({"variational": True}, {"dense": True}):
        batch = integrate_batch(form, x0, spans, tol=1e-10, **kwargs)
        for x, t, got in zip(x0, spans, batch):
            one, = integrate_batch(form, x[None], t, tol=1e-10, **kwargs)
            np.testing.assert_array_equal(got.times, one.times)
            np.testing.assert_array_equal(got.states, one.states)
            if kwargs.get("variational"):
                np.testing.assert_array_equal(got.monodromy4, one.monodromy4)
            else:
                np.testing.assert_array_equal(got(t * ts), one(t * ts))


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 17])
@pytest.mark.parametrize("kwargs", [{}, {"dense": True}, {"variational": True}],
                         ids=["plain", "dense", "variational"])
def test_batch_assembly_and_evaluation_equal_the_old_ones(
        perturbed_form, monkeypatch, n, kwargs):
    # spans of both signs; row 0 starts in the invariant z2 plane, so its
    # q1, p1 stay zero; from 2 rows row 1 runs for zero time, from 5 rows
    # row 3 starts off the level, and at 17 rows every kind of run rejects
    # steps.  Runs, interpolants and evaluations are the oracles' byte for byte
    form = perturbed_form
    rng = np.random.default_rng(n)
    x0 = rng.normal(size=(n, 4))
    x0[0, :2] = 0.0
    x0 = _on_level(form, x0)
    spans = rng.uniform(0.5, 4.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
    spans[1:2] = 0.0
    x0[3:4] *= 1.01
    with flow.counting() as work:
        got = integrate_batch(form, x0, spans, tol=1e-10, **kwargs)
    assert n < 17 or work["rejected_steps"] > 0
    monkeypatch.setattr(flow, "_interpolant", stacked_interpolant)
    want = masked_integrate_batch(form, x0, spans, 1e-10, **kwargs)
    assert [type(g) for g in got] == [type(w) for w in want]
    assert n < 5 or isinstance(got[3], OffLevelError)
    for g, w, t in zip(got, want, spans):
        if isinstance(w, Exception):
            assert str(g) == str(w)
            continue
        assert _same(g.times, w.times) and _same(g.states, w.states)
        assert (g.F is None) == (w.F is None) == (not kwargs.get("dense"))
        if g.F is not None:
            assert _same(g.F, w.F)
            for ts in (np.float64(t / 3), np.linspace(0.0, t, 9), g.times):
                assert _same(g(ts), tiled_flow_call(g, ts))


def test_multi_run_evaluation_equals_each_runs_call(ell, perturbed_form):
    # forward and backward runs, a run with no steps, and a run listed twice;
    # times inside, at the step times and beyond either end
    rng = np.random.default_rng(5)
    x0 = _on_level(perturbed_form, rng.normal(size=(3, 4)))
    runs = integrate_batch(perturbed_form, x0, [2.5, -1.7, 0.0], tol=1e-10,
                           dense=True)
    assert len(runs[0].F) and len(runs[1].F) and not len(runs[2].F)
    runs += [runs[0], integrate_flow(ell, [1.0, 0.0, 0.0, 0.0], -3.0,
                                     dense=True)]
    ts = [np.concatenate([rng.uniform(-0.5, 1.1, 7) * run.times[-1], run.times])
          if len(run.F) else rng.uniform(-1.0, 1.0, 4) for run in runs]
    for pick in ([0, 1, 2, 3, 4], [2], [1, 2, 0], [4, 3]):
        got = flow.evaluate_runs([runs[i] for i in pick], [ts[i] for i in pick])
        want = np.concatenate([runs[i](ts[i]) for i in pick])
        assert _same(got, want)
        assert _same(want, np.concatenate([tiled_flow_call(runs[i], ts[i])
                                           for i in pick]))


def test_a_run_without_interpolant_says_so(ell):
    for run in (integrate_flow(ell, [1.0, 0.0, 0.0, 0.0], 1.0),
                integrate_batch(ell, [[1.0, 0.0, 0.0, 0.0]], 1.0, tol=1e-10,
                                variational=True)[0]):
        with pytest.raises(DomainError, match="dense=True"):
            run(0.5)


def test_a_failing_row_leaves_the_others(ell, gamma2, monkeypatch):
    # the RHS is NaN beyond q1 = 0.9: the row on the q1p1 circle creeps up to
    # that wall until its step underflows; the row on the other circle finishes
    rhs = flow._rhs

    def walled(form, variational):
        fn = rhs(form, variational)

        def out(y):
            f = fn(y)
            f[y[:, 0] > 0.9] = np.nan
            return f
        return out

    monkeypatch.setattr(flow, "_rhs", walled)
    x0 = np.array([[0.0, 1.0, 0.0, 0.0], gamma2.x0])
    failed, done = integrate_batch(ell, x0, 3.0, tol=1e-10)
    assert isinstance(failed, StiffnessError)
    assert "integrator failed" in str(failed)
    assert 0.0 < failed.t_last < 3.0
    assert 0.85 < failed.y_last[0] <= 0.9
    assert ell.H(failed.y_last) == pytest.approx(1.0, abs=1e-12)
    monkeypatch.setattr(flow, "_rhs", rhs)
    one = integrate_flow(ell, gamma2.x0, 3.0, tol=1e-10)
    np.testing.assert_array_equal(done.states, one.states)


def test_a_nan_start_is_off_level(ell, gamma1):
    # a NaN start has a NaN level error and would step forever; it fails on
    # its own row, and the other row is its one-row run bit for bit
    x0 = np.array([[np.nan, 0.0, 0.0, 0.0], gamma1.x0])
    failed, done = integrate_batch(ell, x0, 1.0, tol=1e-10)
    assert isinstance(failed, OffLevelError)
    one = integrate_flow(ell, gamma1.x0, 1.0, tol=1e-10)
    np.testing.assert_array_equal(done.times, one.times)
    np.testing.assert_array_equal(done.states, one.states)


def test_counting_tallies_one_row_steps(ell, gamma1):
    # a one-row run makes every step attempt alone; in a batch of two rows
    # from one point, the longer row steps alone after the shorter one ends
    with flow.counting() as work:
        integrate_flow(ell, gamma1.x0, 1.0, tol=1e-10)
    assert work["one_row_steps"] == work["steps"] + work["rejected_steps"] > 0
    with flow.counting() as work:
        short, long = integrate_batch(ell, [gamma1.x0, gamma1.x0], [1.0, 2.0],
                                      tol=1e-10)
    assert work["rejected_steps"] == 0
    assert work["one_row_steps"] == len(long.times) - len(short.times) > 0


def test_lockstep_polish_rows_equal_one_row_calls(ell):
    rng = np.random.default_rng(5)
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2 ** 0.25, 0.0],
                  [1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5], [0.0, 1.0, 0.0, 0.0]])
    x = x + 1e-3 * rng.normal(size=x.shape)
    T = np.array([1.001 * np.pi, 0.999 * np.sqrt(2) * np.pi, -1.0, 2.0, 2 * np.pi])
    rows = _newton_polish(ell, x, T, initial_residual_cap=0.5)
    for i, row in enumerate(rows):
        one, = _newton_polish(ell, x[i:i + 1], T[i:i + 1],
                              initial_residual_cap=0.5)
        if isinstance(row, ReebAtlasError):
            assert type(row) is type(one) and str(row) == str(one)
        else:
            np.testing.assert_array_equal(row[0], one[0])
            assert row[1:] == one[1:]
    failed = [isinstance(r, ReebAtlasError) for r in rows]
    assert failed == [False, False, True, True, False]


# weights near the irrational ellipsoid's: the 2-jet of ``near_ell_weighted``
# plus small degree-4 monomials, so the weight stays positive on the sphere
_C = 1.0 - 1.0 / np.sqrt(2.0)
_NEAR_ELL = [((0, 0, 0, 0), 1.0), ((0, 0, 2, 0), _C), ((0, 0, 0, 2), _C),
             ((0, 0, 4, 0), _C * _C), ((0, 0, 0, 4), _C * _C),
             ((0, 0, 2, 2), 2 * _C * _C)]
_BUMPS = [(3, 0, 1, 0), (1, 0, 3, 0), (2, 2, 0, 0), (0, 1, 0, 3), (1, 1, 1, 1)]


@settings(max_examples=6, deadline=None)
@given(eps=st.lists(st.floats(-1e-2, 1e-2), min_size=len(_BUMPS),
                    max_size=len(_BUMPS)))
def test_random_weighted_forms_keep_energy_and_symplecticity(eps):
    form = StarForm.weighted(_NEAR_ELL + list(zip(_BUMPS, eps)))
    x0 = _on_level(form, [0.6, 0.2, 0.5, -0.3])
    res, = integrate_batch(form, [x0], 5.0, tol=1e-12, variational=True)
    assert np.abs(form.H(res.states[:, :4]) - 1.0).max() <= 1e-12
    M = res.monodromy4
    assert np.abs(np.swapaxes(M, 1, 2) @ OMEGA @ M - OMEGA).max() <= 1e-9
    orbit = refine_orbit(form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    det = np.linalg.det(monodromy_xi(form, orbit.x0, orbit.T_min))
    assert abs(det - 1.0) <= 1e-8


@settings(max_examples=6, deadline=None)
@given(eps=st.lists(st.floats(-1e-2, 1e-2), min_size=len(_BUMPS),
                    max_size=len(_BUMPS)))
def test_random_weighted_forms_agree_on_the_index(eps):
    # the two index routes agree, and the index parity matches the monodromy
    # class, on the planar orbit of a random weight and its second iterate
    form = StarForm.weighted(_NEAR_ELL + list(zip(_BUMPS, eps)))
    prime = refine_orbit(form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    for orbit in (prime, prime.iterate(2)):
        rep = cz.orbit_index_report(form, orbit, n_grid=512)
        assert not rep["degenerate_flags"]
        assert rep["mu_geometric"] == rep["mu_spectral"]
        assert (rep["mu_spectral"] % 2 == 0) == (
            orbit.nondeg_class == "positive-hyperbolic")
