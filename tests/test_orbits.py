import numpy as np
import pytest

from reeb_atlas import kernels
from reeb_atlas.contact import StarForm
from reeb_atlas.errors import DomainError, RefinementError, StiffnessError
from reeb_atlas.flow import flow_map, monodromy_xi
from reeb_atlas.orbits import (find_orbits, load_orbits, period_gaps,
                               refine_orbit, save_orbits, trace_orbit)

SQ2 = np.sqrt(2.0)


def test_refine_from_perturbed_guess(ell):
    x = np.array([1.0, 0.0, 0.0, 0.0]) + 1e-2 * np.array([0.3, -0.2, 0.5, 0.1])
    orb = refine_orbit(ell, x, np.pi * 1.01)
    assert abs(orb.T_min - np.pi) < 1e-10
    assert orb.multiplicity == 1
    assert orb.residual < 1e-10
    assert orb.nondeg_class == "elliptic"


def test_refine_detects_multiplicity(ell):
    orb = refine_orbit(ell, np.array([1.0, 0.0, 0.0, 0.0]), 2 * np.pi)
    assert orb.multiplicity == 2
    assert abs(orb.T_min - np.pi) < 1e-10


def test_refine_zero_residual_is_immediate(ell, gamma1):
    orb = refine_orbit(ell, gamma1.x0, gamma1.T_min)
    assert orb.newton_iters == 0
    assert orb.residual < 1e-10


def test_refine_rejects_large_residual(ell):
    x = np.array([0.5, 0.5, 0.5, 0.5])
    with pytest.raises(RefinementError):
        refine_orbit(ell, x / np.sqrt(ell.H(x)), 2.0)


def test_census_matches_closed_form(db10):
    expected = sorted([np.pi, SQ2 * np.pi, 2 * np.pi, 2 * SQ2 * np.pi, 3 * np.pi])
    assert len(db10) == 5
    got = sorted(o.T for o in db10.orbits)
    for g, e in zip(got, expected):
        assert abs(g - e) <= 1e-8 * e
    mults = sorted((round(o.T_min, 6), o.multiplicity) for o in db10.orbits)
    assert mults == sorted([(round(np.pi, 6), 1), (round(SQ2 * np.pi, 6), 1),
                            (round(np.pi, 6), 2), (round(SQ2 * np.pi, 6), 2),
                            (round(np.pi, 6), 3)])


def test_census_empty_below_minimal_period(ell):
    db = find_orbits(ell, 3.0, n_seeds=64)
    assert len(db) == 0


def test_census_drops_a_failing_candidate(ell, monkeypatch):
    # one candidate's integrator failure is logged and skipped, not fatal
    from reeb_atlas import orbits

    polish = orbits._newton_polish
    calls = []

    def failing_first(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise StiffnessError("step size underflow", 0.0, None)
        return polish(*args, **kwargs)

    monkeypatch.setattr(orbits, "_newton_polish", failing_first)
    log = []
    db = find_orbits(ell, 4.0, n_seeds=16, log=log)
    assert len(calls) > 1
    assert any("step size underflow" in line for line in log)
    assert [o.multiplicity for o in db.orbits] == [1]
    assert db[0].T == pytest.approx(np.pi, rel=1e-8)


def test_census_drops_a_failing_prime_repolish(ell, monkeypatch):
    # the re-polish of a multiply covered candidate at its prime period is
    # one candidate's failure too: logged and skipped, not fatal
    from reeb_atlas import orbits

    refine = orbits.refine_orbit
    repolish = []

    def failing_first_repolish(form, x, T, initial_residual_cap=1.0):
        if initial_residual_cap == np.inf:
            repolish.append(1)
            if len(repolish) == 1:
                raise StiffnessError("step size underflow", 0.0, None)
        return refine(form, x, T, initial_residual_cap=initial_residual_cap)

    monkeypatch.setattr(orbits, "refine_orbit", failing_first_repolish)
    log = []
    db = find_orbits(ell, 10.0, n_seeds=8, log=log)
    assert len(repolish) > 1
    assert "candidate dropped: step size underflow" in log
    # a later candidate on the same circle still completes the census
    assert [(round(o.T_min, 6), o.multiplicity) for o in db.orbits] == [
        (round(np.pi, 6), 1), (round(SQ2 * np.pi, 6), 1),
        (round(np.pi, 6), 2), (round(SQ2 * np.pi, 6), 2),
        (round(np.pi, 6), 3)]


def test_rng_seed_selects_a_disjoint_seed_window(ell, monkeypatch):
    from reeb_atlas import orbits

    sample = orbits.sphere_samples
    skips = []

    def spy(n, seed_skip=0):
        skips.append(seed_skip)
        return sample(n, seed_skip=seed_skip)

    monkeypatch.setattr(orbits, "sphere_samples", spy)
    for rng_seed in (0, 1):
        db = find_orbits(ell, 2.0, n_seeds=4, rng_seed=rng_seed)
        assert db.params["rng_seed"] == rng_seed
    assert skips == [0, 5]
    first, second = sample(4), sample(4, seed_skip=5)
    assert np.abs(first[:, None] - second[None]).max(axis=2).min() > 1e-6
    with pytest.raises(DomainError):
        sample(4, seed_skip=-1)


def test_round_sphere_all_degenerate(round_form):
    db = find_orbits(round_form, 4.0, n_seeds=16)
    assert len(db) > 0
    assert all(o.degenerate for o in db.orbits)


def test_period_gaps(db10):
    s1, s2, s = period_gaps(db10, 10.0)
    assert s1 == pytest.approx(np.pi, rel=1e-9)
    # distinct periods below 10 include the iterates, so the tightest gap
    # is 3 pi - 2 sqrt(2) pi
    assert s2 == pytest.approx((3 - 2 * SQ2) * np.pi, rel=1e-6)
    assert s == pytest.approx(0.5 * min(s1, s2), rel=1e-12)
    assert s < s1 and s < s2


def test_period_gaps_single_orbit(ell, gamma1):
    from reeb_atlas.orbits import OrbitDatabase

    db = OrbitDatabase(form_hash=ell.form_hash, orbits=[gamma1],
                       params={"t_max": 4.0})
    s1, s2, s = period_gaps(db, 4.0)
    assert np.isinf(s2)
    assert s == pytest.approx(0.5 * s1)


def test_monodromy_unit_determinant(db10):
    for o in db10.orbits:
        assert abs(np.linalg.det(o.monodromy) - 1.0) < 1e-6


def test_iterate_monodromy_consistency(ell, db10):
    # the frame period map of the k-th cover equals the k-th power of the
    # prime one; verified against direct integration over k periods
    primes = [o for o in db10.orbits if o.multiplicity == 1]
    for prime in primes:
        M1 = prime.monodromy
        for k in (2, 3):
            direct = monodromy_xi(ell, prime.x0, k * prime.T_min,
                                  closure_tol=1e-5)
            assert np.abs(direct - np.linalg.matrix_power(M1, k)).max() < 1e-5


def test_primeness_margin(ell, db10):
    for o in db10.orbits:
        if o.multiplicity != 1:
            continue
        for m in range(2, 9):
            end = flow_map(ell, o.x0, o.T_min / m)
            assert np.linalg.norm(end - o.x0) > 1e-3


def test_pairwise_trace_distinctness(ell, db10):
    primes = {}
    for o in db10.orbits:
        primes.setdefault(round(o.T_min, 9), o)
    traces = [np.ascontiguousarray(trace_orbit(ell, o, n=256))
              for o in primes.values()]
    for i in range(len(traces)):
        for j in range(i + 1, len(traces)):
            assert kernels.hausdorff_distance(traces[i], traces[j]) > 1e-4


def test_save_load_reverifies(tmp_path, ell, db10):
    path = tmp_path / "orbits.json"
    save_orbits(db10, path)
    again = load_orbits(ell, path)  # re-verifies closure at 1e-9
    assert len(again) == len(db10)
    for a, b in zip(again.orbits, db10.orbits):
        assert a.T == pytest.approx(b.T, rel=1e-12)
        assert a.nondeg_class == b.nondeg_class
    other = StarForm.ellipsoid(1.0, 1.7)
    with pytest.raises(DomainError):
        load_orbits(other, path)


def test_seed_count_monotonicity(ell):
    db_a = find_orbits(ell, 5.0, n_seeds=64)
    db_b = find_orbits(ell, 5.0, n_seeds=128)
    small = {(round(o.T, 9), o.multiplicity) for o in db_a.orbits}
    big = {(round(o.T, 9), o.multiplicity) for o in db_b.orbits}
    assert small <= big
