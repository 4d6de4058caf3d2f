import dataclasses
import json
import math

import numpy as np
import pytest

from reeb_atlas import kernels, orbits
from reeb_atlas.contact import (StarForm, project_to_sigma, reeb_vector,
                                sphere_samples)
from reeb_atlas.errors import (DomainError, OffLevelError, RefinementError,
                               StiffnessError)
from reeb_atlas.flow import integrate_batch, integrate_flow
from reeb_atlas.orbits import (find_orbits, load_orbits, refine_orbit,
                               save_orbits, trace_orbit, trace_orbits)

from oracles import (NECK, dumbbell, monodromy_xi, near_return_candidates,
                     period_gaps, sequential_find_orbits,
                     sequential_refine_orbit)

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
    polished, = orbits._newton_polish(ell, gamma1.x0[None], [gamma1.T_min],
                                      0.1)
    assert polished[3] == 0
    assert refine_orbit(ell, gamma1.x0, gamma1.T_min).residual < 1e-10


def test_refine_orbit_gives_the_coordinate_circles(ell):
    # from the closed forms, and from guesses off them, the multiple-shooting
    # polish closes gamma1 and gamma2 to 1e-10
    rng = np.random.default_rng(7)
    for x, T in (([1.0, 0.0, 0.0, 0.0], np.pi),
                 ([0.0, 0.0, SQ2 ** 0.5, 0.0], SQ2 * np.pi)):
        for dx, dT in ((0.0, 1.0), (1e-2 * rng.normal(size=4), 1.01)):
            orb = refine_orbit(ell, np.array(x) + dx, T * dT)
            assert orb.multiplicity == 1 and orb.residual <= 1e-10
            assert orb.T_min == pytest.approx(T, rel=1e-10)


@pytest.mark.parametrize("case", ["perturbed", "neck"])
def test_segment_jacobian_matches_central_differences(request, case):
    # J V equals the central difference of the residual F along tangent
    # directions V of the starts and T, off the orbit, on the perturbed form
    # and on the hyperbolic K = 2 dumbbell neck, each over four segments
    if case == "perturbed":
        form = request.getfixturevalue("perturbed_form")
        orbit = refine_orbit(form, np.array([1.0, 0.0, 0.0, 0.0]), np.pi)
    else:
        form = dumbbell(2.0)
        orbit = refine_orbit(form, *NECK)
    assert orbit.multiplicity == 1
    T = 2 * orbit.T_min * (1 + 1e-3)
    m = math.ceil(T / orbits._SEGMENT_SPAN)
    assert m == 4
    rng = np.random.default_rng(3)
    run = integrate_flow(form, orbit.x0, T, tol=1e-12, dense=True)
    ys = project_to_sigma(form, run(np.arange(m) * (T / m))[:, :4]
                          + 1e-3 * rng.normal(size=(m, 4)))
    anchor = (orbit.x0, reeb_vector(form, orbit.x0))

    def system(ys, T):
        segments = integrate_batch(form, ys, T / m, tol=1e-12, variational=True)
        return orbits._shooting_system(form, ys, segments, *anchor)

    F, J = system(ys, T)
    assert J.shape == (5 * m + 1, 4 * m + 1)
    grads = form.grad_H(ys)
    h = 1e-6
    for _ in range(4):
        V = rng.normal(size=(m, 4))
        V -= (np.sum(V * grads, axis=1) / np.sum(grads * grads, axis=1))[:, None] * grads
        v = np.append(V.ravel(), rng.normal())
        fd = (system(ys + h * V, T + h * v[-1])[0]
              - system(ys - h * V, T - h * v[-1])[0]) / (2 * h)
        assert np.abs(fd - J @ v).max() <= 1e-7 * np.abs(J @ v).max()


def test_round_sphere_takes_the_degenerate_family_path(round_form):
    # every orbit of the round sphere is degenerate: 1e-10 off the period pi,
    # the return misses by 2e-10 and the segment Jacobian is rank deficient
    # to 1e-10, so the period comes from the scalar fallback
    x = np.array([1.0, 0.0, 0.0, 0.0]) + 1e-3 * np.array([0.2, -0.1, 0.3, 0.1])
    T = np.pi + 1e-10
    row, = orbits._newton_polish(round_form, x[None], [T], 0.5)
    assert row[2] > orbits._NEWTON_TOL and row[3:] == (0, True)
    orb = refine_orbit(round_form, x, T)
    assert orb.degenerate and orb.residual <= 1e-9
    assert orb.T_min == pytest.approx(np.pi, rel=1e-8)


def test_near_return_candidates_equal_the_norm_oracle(ell):
    # the per-coordinate distance sum equals np.linalg.norm bit for bit:
    # the same candidate lists on the ellipsoid search's 32 seeds and on
    # random trajectories
    t_grid = np.arange(0.0, 10.0 + 0.5 * orbits._SCAN_DT, orbits._SCAN_DT)
    seeds = project_to_sigma(ell, sphere_samples(32))
    runs = integrate_batch(ell, seeds, float(t_grid[-1]), tol=1e-8, dense=True)
    rng = np.random.default_rng(11)
    trajectories = [project_to_sigma(ell, run(t_grid)[:, :4]) for run in runs]
    trajectories += [rng.normal(size=(len(t_grid), 4)) for _ in range(8)]
    found = 0
    for pts in trajectories:
        for threshold in (orbits._CANDIDATE_THRESHOLD, 1.0):
            args = (t_grid, pts, orbits._MIN_PERIOD, threshold, 4)
            got = orbits._near_return_candidates(*args)
            want = near_return_candidates(*args)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a[0], b[0]) and a[1:] == b[1:]
            found += len(got)
    assert found > 100


@pytest.mark.parametrize("tmax", [4.0, 5.5])
def test_the_search_finds_the_index2_neck_of_the_dumbbell(tmax):
    # multiple shooting converges on the hyperbolic neck of the K = 1.2
    # dumbbell, the z1 circle of period pi, from 64 seeds; a known lobe
    # orbit (T 3.1678) passes near it, and the replay must not hide it
    db = find_orbits(dumbbell(1.2), tmax, n_seeds=64)
    assert all(o.multiplicity == 1 for o in db.orbits)
    neck, *lobes = [o for o in db.orbits if o.T_min < 4.0]
    assert neck.nondeg_class == "positive-hyperbolic"
    assert neck.T_min == pytest.approx(np.pi, rel=1e-9)
    assert np.abs(neck.x0[2:]).max() < 1e-9
    # the two lobes, one on each side of the neck's plane q2 = 0
    assert [o.nondeg_class for o in lobes] == ["elliptic", "elliptic"]
    assert [o.T_min for o in lobes] == pytest.approx([3.1678] * 2, abs=1e-4)
    assert sorted(np.sign(o.x0[2]) for o in lobes) == [-1.0, 1.0]
    # the z2-plane orbit from tmax 5.5 on
    z2 = [o.T_min for o in db.orbits if o.T_min >= 4.0]
    assert z2 == pytest.approx([5.0265] if tmax > 5.0265 else [], abs=1e-4)


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
    # one candidate's integrator failure is logged and skipped, not fatal:
    # the first candidate's row of the one lockstep polish fails, the rows
    # beside it go on to certification
    from reeb_atlas import orbits

    polish, integrate = orbits._newton_polish, orbits.integrate_batch
    calls, failed = [], []

    def spy(*args, **kwargs):
        calls.append(1)
        return polish(*args, **kwargs)

    def failing_first_row(*args, **kwargs):
        res = integrate(*args, **kwargs)
        if calls and not failed:  # the first integration of the polish
            failed.append(len(res))
            res[0] = StiffnessError("step size underflow", 0.0, None)
        return res

    monkeypatch.setattr(orbits, "_newton_polish", spy)
    monkeypatch.setattr(orbits, "integrate_batch", failing_first_row)
    log = []
    db = find_orbits(ell, 4.0, n_seeds=16, log=log)
    assert failed[0] > 1
    assert len(calls) == 1 and db.funnel["certified"] >= 1
    assert any("step size underflow" in line for line in log)
    assert [o.multiplicity for o in db.orbits] == [1]
    assert db[0].T == pytest.approx(np.pi, rel=1e-8)


def test_census_drops_a_failing_prime_run(ell, monkeypatch):
    # a cover's prime comes from its run to the prime period, so a failure
    # of that run is one candidate's failure too: logged and skipped, not
    # fatal
    from reeb_atlas import orbits

    certify = orbits._certify
    prime_runs = []

    def failing_first_prime_run(form, polished):
        rows = certify(form, polished)
        ask = next(rows)
        while True:
            # a plain run below the polished period is a cover's prime run
            if ask[0] is False and ask[2] < 0.75 * polished[1]:
                prime_runs.append(ask[2])
                if len(prime_runs) == 1:
                    raise StiffnessError("step size underflow", 0.0, None)
            try:
                ask = rows.send((yield ask))
            except StopIteration as done:
                return done.value

    monkeypatch.setattr(orbits, "_certify", failing_first_prime_run)
    log = []
    db = find_orbits(ell, 10.0, n_seeds=8, log=log)
    assert len(prime_runs) > 1
    assert "candidate dropped: step size underflow" in log
    # a later candidate on the same circle still completes the census
    assert [(round(o.T_min, 6), o.multiplicity) for o in db.orbits] == [
        (round(np.pi, 6), 1), (round(SQ2 * np.pi, 6), 1),
        (round(np.pi, 6), 2), (round(SQ2 * np.pi, 6), 2),
        (round(np.pi, 6), 3)]


# the stepper's work and the certification's own counts are not the oracle's
_OWN_COUNTS = {"steps", "rejected_steps", "rhs_evals", "one_row_steps",
               "certified", "waves"}


def _replays_the_oracle(tmp_path, form, T_max, n_seeds, candidates=None):
    """The search, checked against ``sequential_find_orbits``: the same
    census bytes, funnel and drop log."""
    log, oracle_log = [], []
    db = find_orbits(form, T_max, n_seeds, log=log)
    oracle = sequential_find_orbits(form, T_max, n_seeds, log=oracle_log,
                                    candidates=candidates)
    for name, d in (("a.json", db), ("b.json", oracle)):
        save_orbits(d, tmp_path / name)
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert {k: v for k, v in db.funnel.items()
            if k not in _OWN_COUNTS} == oracle.funnel
    assert log == oracle_log
    return db


@pytest.mark.parametrize("form_name, T_max, n_seeds", [
    ("ell", 10.0, 32),
    ("ell", 10.0, 8),  # a cover is certified first
    ("perturbed_form", 7.0, 16),
    ("perturbed_form", 10.0, 16),
    ("round_form", 7.0, 16),  # every orbit a degenerate family
])
def test_waves_replay_the_sequential_search(request, tmp_path, form_name,
                                            T_max, n_seeds):
    db = _replays_the_oracle(tmp_path, request.getfixturevalue(form_name),
                             T_max, n_seeds)
    f = db.funnel
    assert f["waves"] >= 1 and f["certified"] >= f["new_primes"]


def test_the_dumbbell_search_replays_the_oracle(tmp_path,
                                                dumbbell_12_searched):
    # the index-2 neck and the z2-plane orbit of the K = 1.2 dumbbell; a
    # residual that kept the polish's continuity defects would differ here
    form, db = dumbbell_12_searched
    assert len(_replays_the_oracle(tmp_path, form, 5.5, 64)) == len(db) == 4


def test_a_held_back_class_mate_waits_for_a_second_wave(tmp_path, monkeypatch):
    # gamma2's period 2.00001 pi is within 1e-4 of twice gamma1's, so its
    # candidate waits behind gamma1's in the first wave, and gamma1's prime
    # does not explain it
    from reeb_atlas import orbits

    form = StarForm.ellipsoid(1.0, 2.0 + 1e-5)
    cands = [(np.array([1.0, 0.01, 0.02, 0.0]), 1.01 * np.pi, 0.1),
             (np.array([0.01, 0.0, np.sqrt(2.0 + 1e-5), 0.02]),
              0.99 * (2.0 + 1e-5) * np.pi, 0.1)]
    scans = iter([cands])
    monkeypatch.setattr(orbits, "_near_return_candidates",
                        lambda *args, **kwargs: next(scans, []))
    db = _replays_the_oracle(tmp_path, form, 7.0, 4, candidates=cands)
    assert db.funnel["waves"] == 2 and db.funnel["new_primes"] == 2


def test_a_discarded_wave_row_may_fail_with_any_error(tmp_path, ell,
                                                     monkeypatch):
    # the wave of this search also certifies a candidate near 2 pi that
    # gamma1's prime explains before the replay reaches it; an error of that
    # row, of any type, is never raised
    from reeb_atlas import orbits

    certify = orbits._certify
    failed = []

    def failing_double_cover(form, polished):
        if abs(polished[1] - 2 * np.pi) < 1e-3:
            failed.append(polished[1])
            raise ValueError("the bracket holds no minimum")
        return (yield from certify(form, polished))

    monkeypatch.setattr(orbits, "_certify", failing_double_cover)
    _replays_the_oracle(tmp_path, ell, 10.0, 32)
    assert len(failed) == 1


_FIELDS = ("x0", "T_min", "multiplicity", "monodromy", "nondeg_class",
           "residual")


def _assert_same_orbit(got, want):
    for name in _FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_refine_orbit_equals_one_flow_per_run(ell, perturbed_form):
    # every field equals the oracle's, which integrates each flow anew: of
    # refine_orbit at its cap 0.1, of the search's certificate of a polished
    # row against a second polish at cap 1, and of a cover's prime, built
    # from the cover's runs, against its re-certification at cap inf
    from reeb_atlas import orbits

    x = np.array([1.0, 0.01, 0.0, 0.02])
    _assert_same_orbit(refine_orbit(ell, x, 1.01 * np.pi),
                       sequential_refine_orbit(ell, x, 1.01 * np.pi, 0.1))
    covers = 0
    for form, x, T in ((ell, [1.0, 0.0, 0.0, 0.0], 2 * np.pi),
                       (ell, [1.0, 0.01, 0.0, 0.02], 2.02 * np.pi),
                       (ell, [1.0, 0.0, 0.0, 0.0], 3 * np.pi),
                       (perturbed_form, [1.0, 0.0, 0.0, 0.0], np.pi),
                       (perturbed_form, [1.0, 0.0, 0.0, 0.0], 2 * np.pi)):
        polished, = orbits._newton_polish(form, np.reshape(x, (1, 4)), [T],
                                          orbits._CANDIDATE_THRESHOLD)
        (orbit, prime), = orbits._lockstep_rows(
            form, [orbits._certify(form, polished)])
        # the oracle polishes the polished row again
        _assert_same_orbit(orbit, sequential_refine_orbit(
            form, polished[0], polished[1], 1.0))
        if orbit.multiplicity == 1:
            assert prime is orbit
            continue
        covers += 1
        _assert_same_orbit(prime, sequential_refine_orbit(
            form, orbit.x0, orbit.T_min, np.inf))
    assert covers == 4


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
            end = integrate_flow(ell, o.x0, o.T_min / m, tol=1e-12).endpoint
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


def test_trace_orbits_keeps_a_rows_error_in_its_place(ell, db10):
    # one batch: each orbit on its own grid over its full period, and an
    # orbit that cannot be traced leaves its error without stopping the rest
    a, b = db10[0], db10[3]
    off = dataclasses.replace(a, x0=2.0 * a.x0)
    traces = trace_orbits(ell, [a, off, b], 64)
    assert isinstance(traces[1], OffLevelError)
    for orbit, trace in ((a, traces[0]), (b, traces[2])):
        np.testing.assert_array_equal(trace, trace_orbit(ell, orbit, 64))
        assert np.abs(ell.H(trace) - 1.0).max() < 1e-12
    with pytest.raises(OffLevelError):
        trace_orbit(ell, off, 64)


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
    # one entry that no longer closes fails the whole load
    payload = json.loads(path.read_text())
    payload["orbits"][-1]["T_min"] *= 1.001
    path.write_text(json.dumps(payload))
    with pytest.raises(DomainError, match="closure re-verification"):
        load_orbits(ell, path)


def test_load_orbits_recloses_each_prime_once(tmp_path, ell, db10, monkeypatch):
    # a cover shares its prime's (x0, T_min), so the closure batch holds one
    # row per prime; a cover whose x0 was tampered with gets a row of its
    # own, and its gap refuses the census
    path = tmp_path / "orbits.json"
    save_orbits(db10, path)
    rows, batch = [], orbits.integrate_batch

    def spy(form, x0s, t_ends, **kwargs):
        rows.append(list(zip(map(tuple, x0s.tolist()), t_ends)))
        return batch(form, x0s, t_ends, **kwargs)

    monkeypatch.setattr(orbits, "integrate_batch", spy)
    load_orbits(ell, path)
    primes = [(tuple(o.x0.tolist()), o.T_min) for o in db10.orbits
              if o.multiplicity == 1]
    assert len(primes) < len(db10) and rows == [primes]
    i = next(i for i, o in enumerate(db10.orbits) if o.multiplicity > 1)
    payload = json.loads(path.read_text())
    x0 = db10[i].x0 + np.array([0.0, 1e-6, 1e-6, 0.0])  # off either plane
    payload["orbits"][i]["x0"] = project_to_sigma(ell, x0).tolist()
    path.write_text(json.dumps(payload))
    rows.clear()
    with pytest.raises(DomainError, match=f"entry {i} failed closure re-verification"):
        load_orbits(ell, path)
    assert len(rows[0]) == len(primes) + 1


def test_seed_count_monotonicity(ell):
    db_a = find_orbits(ell, 5.0, n_seeds=64)
    db_b = find_orbits(ell, 5.0, n_seeds=128)
    small = {(round(o.T, 9), o.multiplicity) for o in db_a.orbits}
    big = {(round(o.T, 9), o.multiplicity) for o in db_b.orbits}
    assert small <= big
