import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reeb_atlas import cz, kernels
from reeb_atlas.errors import (DegenerateOrbitError, DomainError,
                               InconsistencyError, ResolutionError)
from reeb_atlas.flow import integrate_batch
from reeb_atlas.orbits import classify_monodromy, find_orbits, refine_orbit

from oracles import (NECK, compose_paths, dumbbell, galerkin_matrix,
                     galerkin_pairs, grid, grid_interval, hyperbolic_path,
                     invert_path, iterate_index_table, maslov_loop,
                     nondegenerate, path_power, pure_rotation_path, random_loop,
                     random_nondegenerate_path, spectrum, winding_census)

RHO1 = 1.0 + 1.0 / np.sqrt(2.0)
RHO2 = 1.0 + np.sqrt(2.0)


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


# ---------------------------------------------------------------------------
# trivialized paths
# ---------------------------------------------------------------------------

def test_gamma1_path_is_pure_rotation(ell, gamma1):
    path = cz.trivialized_path(ell, gamma1, 256)
    worst = 0.0
    for t, m in zip(grid(path.n_steps), path.mats):
        worst = max(worst, np.abs(m - rotation(2 * np.pi * RHO1 * t)).max())
    assert worst < 1e-6


def test_round_sphere_path_degenerate_endpoint(round_form):
    orbit = refine_orbit(round_form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    assert orbit.degenerate
    path = cz.trivialized_path(round_form, orbit, 256)
    assert np.abs(path.endpoint - np.eye(2)).max() < 1e-6
    assert not nondegenerate(path, tol=1e-8)


def test_iterate_path_is_concatenation(ell, gamma1):
    p1 = cz.trivialized_path(ell, gamma1, 256)
    p2 = cz.trivialized_path(ell, gamma1.iterate(2), 512)
    synth = path_power(p1, 2)
    assert np.abs(synth.mats - p2.mats).max() < 1e-5


# ---------------------------------------------------------------------------
# rotation intervals and the geometric index
# ---------------------------------------------------------------------------

def test_pure_rotation_half_turn():
    iv = cz.rotation_interval(pure_rotation_path(0.5))
    assert iv.lo == pytest.approx(0.5, abs=1e-9)
    assert iv.hi == pytest.approx(0.5, abs=1e-9)
    assert cz.cz_from_interval(iv) == (1, False)


def test_gamma1_interval(ell, gamma1):
    iv = cz.rotation_interval(cz.trivialized_path(ell, gamma1, 256))
    assert iv.lo == pytest.approx(RHO1, abs=1e-6)
    assert iv.length < 1e-6
    assert cz.cz_from_interval(iv) == (3, False)


def _assert_matches_grids(iv, path):
    # the closed form sits within 1e-7 of 20,000 tracked directions and
    # contains the 720 that the direction grid used to stop at
    fine = grid_interval(path, 20000)
    assert abs(iv.lo - fine[0]) < 1e-7 and abs(iv.hi - fine[1]) < 1e-7
    lo, hi = grid_interval(path, 720)
    assert iv.lo <= lo and hi <= iv.hi
    assert iv.turns == grid_interval(path, 1)[0]


def test_hyperbolic_interval_contains_zero():
    iv = cz.rotation_interval(hyperbolic_path(1.0))
    _assert_matches_grids(iv, hyperbolic_path(1.0))
    assert iv.lo <= 0.0 <= iv.hi
    assert iv.length < 0.5
    assert cz.cz_from_interval(iv)[0] == 0


def test_resolution_guard_sees_every_direction():
    # stretch e1 tenfold, then shear along it: the shear step fixes e1 but
    # turns the directions near e2 by more than pi/2; its samples move by
    # only 0.4, its step map by 4
    n, lam = 256, 10.0
    t = np.linspace(0.0, 1.0, n + 1)
    mats = np.zeros((n + 2, 2, 2))
    mats[:-1, 0, 0], mats[:-1, 1, 1] = lam ** t, lam ** -t
    mats[-1] = np.array([[1.0, 4.0], [0.0, 1.0]]) @ mats[-2]
    assert np.abs(kernels.angle_steps(mats[:, :, 0])).max() == 0.0
    assert np.linalg.norm(mats[-1] - mats[-2]) < cz.STEP_GUARD
    # and a conformal path whose step maps each turn every direction by
    # 2 pi 40 / 256
    for path, moved in [(cz.SymplecticPath(mats=mats), 4.0),
                        (pure_rotation_path(40, n=256), 1.333)]:
        with pytest.raises(ResolutionError, match=f"moves by {moved:.3f}"):
            path.validate()
        with pytest.raises(ResolutionError, match="densify"):
            cz.rotation_interval(path)


def test_determinant_bound_scales_with_the_stretch():
    # the K = 2 neck's double cover stretches by about 2.9e5, so |det M - 1|
    # reaches 8.7e-6 by roundoff, 4.8e-12 of ||M||_F^2 / 2
    form = dumbbell(2.0)
    double = refine_orbit(form, *NECK).iterate(2)
    path = cz.trivialized_path(form, double, 1024)
    assert np.abs(np.linalg.det(path.mats) - 1.0).max() > 1e-6
    assert cz.cz_from_interval(cz.rotation_interval(path)) == (4, False)
    # a rotation whose determinant reaches 1.01 at one sample is refused
    mats = pure_rotation_path(1.0, n=256).mats
    mats[100] *= np.sqrt(1.01)
    with pytest.raises(DomainError, match="leaves the symplectic group"):
        cz.SymplecticPath(mats=mats).validate()


def test_endpoint_check_scales_with_the_monodromy():
    # the K = 3 neck's double cover ends 2.8e-6 off a monodromy of size
    # 3.7e7, 7.6e-14 of it: the path is built and indexed at n_grid 1024
    form = dumbbell(3.0)
    double = refine_orbit(form, *NECK).iterate(2)
    path = cz.trivialized_path(form, double, 1024)
    scale = np.abs(double.monodromy).max()
    gap = np.abs(path.endpoint - double.monodromy).max()
    assert scale > 1e7 and 1e-6 < gap < 1e-12 * scale
    assert cz.cz_from_interval(cz.rotation_interval(path)) == (4, False)
    # an endpoint off by 1e-6 of that scale is still refused
    bad = dataclasses.replace(double, monodromy=double.monodromy * (1 + 2e-6))
    with pytest.raises(InconsistencyError, match="stored monodromy"):
        cz.trivialized_path(form, bad, 1024)


def test_interval_branches():
    make = lambda lo, hi: cz.RotationInterval(lo=lo, hi=hi, turns=lo)
    assert cz.cz_from_interval(make(1.69, 1.72))[0] == 3
    assert cz.cz_from_interval(make(-0.1, 0.1))[0] == 0
    mu, flag = cz.cz_from_interval(make(0.99997, 1.00002))
    assert mu == 2 and flag  # endpoint within 1e-4 of an integer
    with pytest.raises(InconsistencyError):
        cz.cz_from_interval(make(0.0, 0.6))


@pytest.mark.parametrize("K", [0.5, 0.9, 0.97, 1.03, 1.1, 1.2, 1.3, 1.5, 2.0])
def test_dumbbell_neck_turns_hyperbolic_past_K_1(K):
    # at K = 2 the neck's monodromy stretches by 535, yet its step maps move
    # by only 0.012 at n_grid 1024
    form = dumbbell(K)
    neck = refine_orbit(form, *NECK)
    rep = cz.orbit_index_report(form, neck, n_grid=1024)
    mu = 3 if K < 1 else 2
    assert neck.nondeg_class == ("elliptic" if K < 1 else "positive-hyperbolic")
    assert (rep["mu_geometric"], rep["mu_spectral"]) == (mu, mu)


def test_maslov_loop():
    assert maslov_loop(pure_rotation_path(1.0)) == 1
    const = cz.SymplecticPath(mats=np.tile(np.eye(2), (65, 1, 1)))
    assert maslov_loop(const) == 0
    with pytest.raises(DomainError):
        maslov_loop(pure_rotation_path(0.25))


def test_axioms_sample():
    rng = np.random.default_rng(123)
    for _ in range(20):
        phi = random_nondegenerate_path(rng)
        m = int(rng.integers(-2, 3))
        psi = random_loop(rng, m, n=phi.n_steps)
        iv = cz.rotation_interval(phi)
        _assert_matches_grids(iv, phi)
        assert iv.length < 0.5
        mu, _ = cz.cz_from_interval(iv)
        mu_prod, _ = cz.cz_from_interval(
            cz.rotation_interval(compose_paths(psi, phi)))
        mu_inv, _ = cz.cz_from_interval(
            cz.rotation_interval(invert_path(phi)))
        assert mu_prod == 2 * m + mu
        assert mu_inv == -mu
        assert maslov_loop(psi) == m


def test_homotopy_stability():
    rng = np.random.default_rng(77)
    for _ in range(10):
        phi = random_nondegenerate_path(rng)
        mu, _ = cz.cz_from_interval(cz.rotation_interval(phi))
        bump = (np.sin(np.pi * grid(phi.n_steps)) ** 2)[:, None, None]
        g = 3e-4 * np.array([[1.0, 0.5], [0.5, -1.0]])
        pert = phi.mats @ (np.eye(2) + bump * g)
        pert /= np.sqrt(np.linalg.det(pert))[:, None, None]
        assert np.abs(pert - phi.mats).max() <= 1e-3
        phi_p = cz.SymplecticPath(mats=pert)
        assert nondegenerate(phi_p, tol=1e-6)
        mu_p, _ = cz.cz_from_interval(cz.rotation_interval(phi_p))
        assert mu_p == mu


# ---------------------------------------------------------------------------
# spectral route
# ---------------------------------------------------------------------------

def test_gamma1_spectrum_against_fourier_oracle(ell, gamma1):
    # constant-coefficient operator: eigenvalues 2 pi (k - rho), winding k
    data = spectrum(ell, gamma1, 1024)
    assert data.wind_nu_neg == 1
    assert data.p == 1
    assert data.nu_neg == pytest.approx(2 * np.pi * (1 - RHO1), rel=1e-3)
    assert data.nu_pos == pytest.approx(2 * np.pi * (2 - RHO1), rel=1e-3)
    for nu, w in zip(data.eigenvalues, data.windings):
        assert nu == pytest.approx(2 * np.pi * (w - RHO1), rel=2e-3)
    assert cz.cz_from_spectrum(data) == 3


def test_gamma2_spectrum(ell, gamma2):
    data = spectrum(ell, gamma2, 1024)
    assert data.wind_nu_neg == 2
    assert data.p == 1
    assert cz.cz_from_spectrum(data) == 5


def test_winding_pairing_and_monotonicity(ell, gamma1):
    data = spectrum(ell, gamma1, 1024)
    census, monotone = winding_census(data)
    assert monotone
    assert len(census) >= 7  # at least |k| <= 3 around the relevant winding
    assert all(count == 2 for count in census.values())


def test_spectrum_refuses_degenerate(round_form):
    orbit = refine_orbit(round_form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    path = cz.trivialized_path(round_form, orbit, 1024)
    with pytest.raises(DegenerateOrbitError, match="within 1e-6 of zero"):
        cz.asymptotic_spectrum(path, cz.rotation_interval(path).turns)


def test_galerkin_constant_coefficients_match_the_matched_symbol():
    # S = a I: the eigenvalues are a + sigma_k, sigma_k = n sin(2 pi k / n),
    # twice each, and the eigenfunctions of a + sigma_k wind k times
    n, a, K = 256, -2 * np.pi * 1.3, 12
    S = np.tile(a * np.eye(2), (n, 1, 1))
    vals, winds = galerkin_pairs(S, K)
    k = np.arange(-K, K + 1)
    assert np.allclose(vals, np.repeat(a + n * np.sin(2 * np.pi * k / n), 2),
                       rtol=0, atol=1e-11)
    assert np.array_equal(winds, np.repeat(k, 2))
    data = cz._fourier_spectrum(S, 1.3)
    assert (data.wind_nu_neg, data.p) == (1, 1)
    assert data.nu_neg == pytest.approx(a + n * np.sin(2 * np.pi / n), abs=1e-11)
    assert data.nu_pos == pytest.approx(a + n * np.sin(4 * np.pi / n), abs=1e-11)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(64, 1024), k_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_gathered_galerkin_matrix_matches_the_grid_products(n, k_share, seed):
    # product-to-sum on the cosine and sine sums of S against F^T (S F)
    K = 1 + int(k_share * (n // 8 - 1))
    S = np.random.default_rng(seed).normal(size=(n, 2, 2))
    S = S + np.swapaxes(S, 1, 2)
    gathered = cz._galerkin_matrix(np.fft.rfft(S.reshape(n, 4), axis=0), n, K)
    expected, _ = galerkin_matrix(S, K)
    assert np.abs(gathered - expected).max() <= 1e-12 * np.abs(S).max()


@pytest.fixture(scope="module")
def operators(ell, gamma1, gamma2, perturbed_form):
    """(label, S, turns) of the ellipsoid's gamma1^1..9 and gamma2^1..3, the
    perturbed form's census at T_max 7 with its iterates up to period 10,
    and ten random non-degenerate paths."""
    orbits = [(f"gamma1^{k}", ell, gamma1.iterate(k) if k > 1 else gamma1)
              for k in range(1, 10)]
    orbits += [(f"gamma2^{k}", ell, gamma2.iterate(k) if k > 1 else gamma2)
               for k in range(1, 4)]
    for i, o in enumerate(find_orbits(perturbed_form, 7.0, n_seeds=16).orbits):
        if o.multiplicity == 1:
            orbits += [(f"perturbed{i}^{k}", perturbed_form,
                        o.iterate(k) if k > 1 else o)
                       for k in range(1, int(10.0 // o.T_min) + 1)]
    paths = [(label, cz.trivialized_path(form, o, 1024)) for label, form, o in orbits]
    rng = np.random.default_rng(11)
    paths += [(f"random{i}", random_nondegenerate_path(rng)) for i in range(10)]
    return [(label, cz._coefficient_matrices(path.mats),
             cz.rotation_interval(path).turns) for label, path in paths]


@pytest.mark.parametrize("start", [cz._WINDOW, 2])
def test_windowed_spectrum_equals_the_all_wound_one(operators, monkeypatch,
                                                    start):
    # every SpectralData field is the same when all 2(2K+1) eigenfunctions
    # are wound; a start of 2 pairs each side makes every window grow
    widths, real = [], cz._windings

    def spy(vecs, n):
        widths.append(vecs.shape[1])
        return real(vecs, n)

    monkeypatch.setattr(cz, "_windings", spy)
    for label, S, turns in operators:
        with monkeypatch.context() as m:
            m.setattr(cz, "_WINDOW", 10**6)
            whole = cz._fourier_spectrum(S, turns)
        monkeypatch.setattr(cz, "_WINDOW", start)
        del widths[:]
        part = cz._fourier_spectrum(S, turns)
        for f in dataclasses.fields(cz.SpectralData):
            assert np.array_equal(getattr(part, f.name), getattr(whole, f.name)), (
                label, f.name)
        assert max(widths) < 4 * whole.K + 2, label
        if start == 2:
            assert max(widths) > 2 * start, label


def _data_or_error(A, n, K):
    try:
        return cz._spectral_data(A, n, K)
    except ResolutionError as exc:
        return str(exc)


@pytest.mark.parametrize("start", [2, 3, 5, cz._WINDOW])
def test_window_holds_the_band_at_every_crossing(monkeypatch, start):
    # S = a I winds the eigenfunctions of a + sigma_k k times; the sweep of a
    # puts zero between each two classes and beyond both ends, so one edge of
    # the window may stop at an end while the other must still clear the band
    n = 256
    for K in (3, 9, 17):
        sigma = n * np.sin(2 * np.pi * np.arange(-K, K + 1) / n)
        cuts = np.concatenate([[sigma[0] - 1], (sigma[:-1] + sigma[1:]) / 2,
                               [sigma[-1] + 1]])
        for a in -cuts:
            S = np.tile(a * np.eye(2), (n, 1, 1))
            A = cz._galerkin_matrix(np.fft.rfft(S.reshape(n, 4), axis=0), n, K)
            monkeypatch.setattr(cz, "_WINDOW", 10**6)
            whole = _data_or_error(A, n, K)
            monkeypatch.setattr(cz, "_WINDOW", start)
            part = _data_or_error(A, n, K)
            if isinstance(whole, str):
                assert part == whole
                continue
            for f in dataclasses.fields(cz.SpectralData):
                assert np.array_equal(getattr(part, f.name),
                                      getattr(whole, f.name)), (K, a, f.name)


def test_galerkin_refuses_a_slowly_decaying_coefficient():
    # a Fourier mode of S at n/4 lies beyond the cutoff cap n/8, so the tail
    # never drops below tolerance and no truncated answer comes back
    n = 256
    wobble = 1e-3 * np.cos(2 * np.pi * (n // 4) * np.arange(n) / n)
    S = (-2 * np.pi * 1.3 + wobble)[:, None, None] * np.eye(2)
    with pytest.raises(ResolutionError, match="did not settle"):
        cz._fourier_spectrum(S, 1.3)


@pytest.mark.parametrize("k, samples", [(1, 257), (9, 513)])
def test_index_report_integrates_once(ell, gamma1, monkeypatch, k, samples):
    # both routes read one path on n_grid steps, sampled from the one
    # integration, which is its prime's over T_min; gamma1^9 rotates too fast
    # for 256 steps, so it needs 512
    runs, real = [], cz.integrate_batch

    def spy(*args, **kwargs):
        runs.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(cz, "integrate_batch", spy)
    orbit = gamma1 if k == 1 else gamma1.iterate(k)
    rep = cz.orbit_index_report(ell, orbit, n_grid=samples - 1)
    assert len(runs) == 1 and runs[0][1]["dense"]
    assert list(runs[0][0][2]) == [gamma1.T_min]
    assert rep["resolution"]["integrated_span"] == gamma1.T_min
    assert rep["mu_geometric"] == rep["mu_spectral"] == (
        2 * k + 2 * int(np.floor(k / np.sqrt(2))) + 1)
    assert rep["resolution"]["path_samples"] == samples
    # K settles one band above its start, ceil(turns) + _BAND
    turns = k * (1 + 1 / np.sqrt(2))
    assert rep["resolution"]["K"] == int(np.ceil(turns)) + 2 * cz._BAND
    if k > 1:
        with pytest.raises(ResolutionError, match="under-resolves"):
            cz.orbit_index_report(ell, orbit, n_grid=256)


def test_under_resolved_grid_is_sampled_once(ell, gamma1, monkeypatch):
    # the path is sampled on the caller's grid only: gamma1^9 turns too fast
    # for 256 steps, and the one sampling's error names that grid
    grids, real = [], cz._path_samples

    def spy(form, orbit, flow, n):
        grids.append(n)
        return real(form, orbit, flow, n)

    monkeypatch.setattr(cz, "_path_samples", spy)
    with pytest.raises(ResolutionError, match="n_grid=256 under-resolves"):
        cz.orbit_index_report(ell, gamma1.iterate(9), n_grid=256)
    assert grids == [256]


def test_integrated_span_names_the_report_that_ran_the_flow(ell, gamma1):
    # a bare report integrates its prime; inside a block whose batch already
    # ran the prime, as check_binding's does, a report integrates nothing
    rep = cz.orbit_index_report(ell, gamma1)
    assert rep["resolution"]["integrated_span"] == gamma1.T_min
    with cz.prime_table():
        cz.prime_flows(ell, [gamma1])
        for orbit in (gamma1, gamma1.iterate(2)):
            rep = cz.orbit_index_report(ell, orbit)
            assert rep["resolution"]["integrated_span"] == 0.0


def _integrated_report(form, orbit, monkeypatch):
    # the report as it was built before iterates sampled their prime: one
    # variational integration over the whole period k T_min
    def integrated(form, orbit):
        return integrate_batch(form, [orbit.x0], orbit.T, tol=1e-12,
                               variational=True, dense=True)[0]

    with monkeypatch.context() as m:
        m.setattr(cz, "_variational_flow", integrated)
        return cz.orbit_index_report(form, orbit, n_grid=512)


def _assert_same_report(sampled, integrated):
    for key in ("mu_geometric", "mu_spectral", "wind_nu_neg", "p",
                "degenerate_flags", "resolution"):
        assert sampled[key] == integrated[key], key
    assert np.abs(np.subtract(sampled["interval"],
                              integrated["interval"])).max() < 1e-12
    assert sampled["nu_neg"] == pytest.approx(integrated["nu_neg"], rel=1e-10)


@pytest.mark.parametrize("prime, k", [("gamma1", k) for k in range(1, 5)]
                         + [("gamma2", k) for k in range(1, 4)])
def test_iterate_report_samples_the_prime_flow(ell, prime, k, monkeypatch,
                                               request):
    # the ellipsoid census gamma1^1..4, gamma2^1..3: a cover's report from
    # its prime's flow equals the one integrated over k T_min, and both
    # intervals sit within 1e-12 of the rotation k (1 + r_i^2 / r_j^2)
    orbit = request.getfixturevalue(prime)
    rho = RHO1 if prime == "gamma1" else RHO2
    it = orbit if k == 1 else orbit.iterate(k)
    sampled = cz.orbit_index_report(ell, it, n_grid=512)
    integrated = _integrated_report(ell, it, monkeypatch)
    _assert_same_report(sampled, integrated)
    for rep in (sampled, integrated):
        assert np.abs(np.subtract(rep["interval"], k * rho)).max() < 1e-12


def test_perturbed_double_cover_samples_the_prime_flow(perturbed_form,
                                                       monkeypatch):
    prime = refine_orbit(perturbed_form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    double = prime.iterate(2)
    sampled = cz.orbit_index_report(perturbed_form, double, n_grid=512)
    _assert_same_report(sampled,
                        _integrated_report(perturbed_form, double, monkeypatch))
    assert sampled["mu_geometric"] == sampled["mu_spectral"] == 7


def test_methods_agree_on_census(ell, db10):
    for orbit in db10.orbits:
        rep = cz.orbit_index_report(ell, orbit, n_grid=512)
        assert not rep["degenerate_flags"]
        assert rep["mu_geometric"] == rep["mu_spectral"]


# ---------------------------------------------------------------------------
# iterates
# ---------------------------------------------------------------------------

def test_iterate_tables(ell, gamma1, gamma2):
    tab1, flags1 = iterate_index_table(ell, gamma1, 5)
    assert flags1 == []
    assert tab1 == [(k, 2 * k + 2 * int(np.floor(k / np.sqrt(2))) + 1)
                    for k in range(1, 6)]
    assert [m for _, m in tab1] == [3, 7, 11, 13, 17]
    tab2, flags2 = iterate_index_table(ell, gamma2, 3)
    assert flags2 == []
    assert [m for _, m in tab2] == [5, 9, 15]


def test_hyperbolic_iterates_stay_nonpositive():
    # model check of the iteration inequality mu(P^k) <= 0 => mu(P^l) <= 0
    base = hyperbolic_path(0.8)
    mus = []
    for k in range(1, 4):
        iv = cz.rotation_interval(path_power(base, k))
        mus.append(cz.cz_from_interval(iv)[0])
    assert all(m <= 0 for m in mus)


def test_bott_formula_gives_every_cover_of_random_paths():
    # every cover k = 1..4 of 60 random non-degenerate paths, read off the
    # prime (k0 = 1) and off its triple cover (k0 = 3: k / k0 is inexact)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(60):
        prime = random_nondegenerate_path(rng)
        covers = {k: path_power(prime, k) for k in range(1, 5)}
        intervals = {k: cz.rotation_interval(p) for k, p in covers.items()}
        seen.add((classify_monodromy(covers[1].endpoint),
                  bool(intervals[1].turns > 0)))
        for k0 in (1, 3):
            ref = intervals[k0]
            cls = classify_monodromy(covers[k0].endpoint)
            for k in range(1, 5):
                mu, flagged = cz.cz_from_interval(intervals[k])
                assert not flagged
                assert mu == cz.bott_index([ref.lo, ref.hi],
                                           covers[k0].endpoint, cls, k0, k)
    assert {cls for cls, _ in seen} == {"elliptic", "positive-hyperbolic",
                                        "negative-hyperbolic"}
    assert {positive for _, positive in seen} == {True, False}


def test_bott_formula_gives_the_hyperbolic_neck_covers(dumbbell_12):
    # the K = 1.2 neck is positive hyperbolic with rho = 1: mu(P^k) = 2k by
    # both routes, read off the neck or off its double cover
    form, db = dumbbell_12
    neck = db[0]
    covers = [neck] + [neck.iterate(k) for k in (2, 3)]
    with cz.prime_table():
        reports = [cz.orbit_index_report(form, o, n_grid=1024) for o in covers]
    for k, rep in enumerate(reports, 1):
        assert (rep["mu_geometric"], rep["mu_spectral"]) == (2 * k, 2 * k)
        for k0, ref in ((1, neck), (2, covers[1])):
            assert cz.bott_index(reports[k0 - 1]["interval"], ref.monodromy,
                                 ref.nondeg_class, k0, k) == 2 * k


def test_iterate_table_requires_prime(ell, gamma1):
    with pytest.raises(DomainError):
        iterate_index_table(ell, gamma1.iterate(2), 2)


def test_index_parity_must_match_the_monodromy_class(ell, gamma1):
    # gamma1 is elliptic with index 3; relabelled positive hyperbolic, Bott's
    # formula reads an even index off its interval
    wrong = dataclasses.replace(gamma1, nondeg_class="positive-hyperbolic")
    with pytest.raises(InconsistencyError, match="Bott's iteration formula"):
        cz.orbit_index_report(ell, wrong)


def test_index_report_round_sphere_flags(round_form):
    orbit = refine_orbit(round_form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    rep = cz.orbit_index_report(round_form, orbit)
    assert rep["mu_geometric"] is None
    assert rep["mu_spectral"] is None
    assert rep["degenerate_flags"]
