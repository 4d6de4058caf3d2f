import numpy as np
import pytest

from reeb_atlas import kernels
from reeb_atlas.contact import OMEGA
from reeb_atlas.errors import DomainError
from reeb_atlas.flow import (flow_map, integrate_flow, monodromy_xi,
                             write_trajectory_csv)

RHO = 1.0 + 1.0 / np.sqrt(2.0)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


def test_round_sphere_flow_specialization(round_form):
    # the circle flow at unit contact action has prime period pi, so the
    # antipode is reached at half period and t = pi closes up
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(flow_map(round_form, x, np.pi / 2) + x) < 1e-8
    assert np.linalg.norm(flow_map(round_form, x, np.pi) - x) < 1e-8


def test_ellipsoid_circle_period(ell):
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.linalg.norm(flow_map(ell, x, np.pi) - x) < 1e-8


def test_zero_time_identity(ell, gamma1):
    res = integrate_flow(ell, gamma1.x0, 0.0, variational=True)
    assert np.allclose(res.points[-1], gamma1.x0)
    assert np.allclose(res.monodromy_end, np.eye(4))


def test_reversibility(ell):
    x0 = np.array([0.6, 0.2, 0.5, -0.3])
    x0 = x0 / np.sqrt(ell.H(x0))
    mid = flow_map(ell, x0, 7.3)
    back = flow_map(ell, mid, -7.3)
    assert np.linalg.norm(back - x0) < 1e-7


def test_energy_drift_long_span(ell):
    x0 = np.array([0.3, -0.4, 0.55, 0.45])
    x0 = x0 / np.sqrt(ell.H(x0))
    res = integrate_flow(ell, x0, 100.0, tol=1e-10)
    assert np.abs(ell.H_batch(res.points) - 1.0).max() <= 1e-9


def test_linear_flow_matches_matrix_exponential(ell):
    # quadratic Hamiltonian: the variational matrix is block rotations
    x0 = np.array([0.6, 0.0, 0.5, 0.1])
    x0 = x0 / np.sqrt(ell.H(x0))
    t = 2.7
    res = integrate_flow(ell, x0, t, tol=1e-12, variational=True)
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
        _, M = flow_map(ell, x0, t, variational=True)
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
        traj = integrate_flow(ell, gamma1.x0, t_final, dense=True).trajectory
        ts = np.linspace(0.0, t_final, 41)[::-1]
        np.testing.assert_array_equal(traj(ts), [traj(t) for t in ts])


def test_trajectory_csv(tmp_path, ell, gamma1):
    res = integrate_flow(ell, gamma1.x0, 1.0, t_eval=np.linspace(0, 1, 5))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(path, res.times, res.points)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,x3,x4"
    assert len(lines) == 6
    row = lines[-1].split(",")
    assert len(row) == 5
    # 17 significant digits survive the round trip
    assert float(row[1]) == res.points[-1][0]
