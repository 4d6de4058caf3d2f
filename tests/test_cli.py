import dataclasses
import json
import os
import sys

import numpy as np
import pytest

from reeb_atlas import cli, flow
from reeb_atlas.cli import main
from reeb_atlas.orbits import load_orbits, trace_orbit
from reeb_atlas.sections import load_disk, save_disk

from oracles import form_json

SQ2 = np.sqrt(2.0)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def ell_config(workdir):
    path = workdir / "ellipsoid.json"
    path.write_text(json.dumps({
        "form": {"type": "ellipsoid", "r_squared": [1.0, SQ2],
                 "name": "irrational-ellipsoid"},
        "tmax": 10.0,
        "seeds": 128,
        "rng_seed": 0,
    }))
    return str(path)


@pytest.fixture(scope="module")
def round_config(workdir):
    path = workdir / "round.json"
    path.write_text(json.dumps({
        "form": {"type": "ellipsoid", "r_squared": [1.0, 1.0],
                 "name": "round"},
        "tmax": 4.0,
        "seeds": 12,
        "rng_seed": 0,
    }))
    return str(path)


@pytest.fixture(scope="module")
def found(ell_config, workdir):
    out = str(workdir / "run")
    code = main(["orbits-find", "--config", ell_config, "--out", out])
    assert code == 0
    return out


def test_orbits_find_census(found):
    with open(os.path.join(found, "orbits.json")) as fh:
        payload = json.load(fh)
    assert len(payload["orbits"]) == 5
    periods = sorted(o["multiplicity"] * o["T_min"] for o in payload["orbits"])
    expected = sorted([np.pi, SQ2 * np.pi, 2 * np.pi, 2 * SQ2 * np.pi, 3 * np.pi])
    assert np.allclose(periods, expected, rtol=1e-8)


def test_rerun_is_byte_identical(ell_config, found, workdir):
    out2 = str(workdir / "run_again")
    assert main(["orbits-find", "--config", ell_config, "--out", out2]) == 0
    for out in (found, out2):
        assert main(["orbit-index", "--config", ell_config,
                     "--orbits", os.path.join(out, "orbits.json"),
                     "--orbit", "0", "--out", out]) == 0
    for name in ("orbits.json", "orbits_report.json", "index_orbit0.json"):
        a = open(os.path.join(found, name), "rb").read()
        b = open(os.path.join(out2, name), "rb").read()
        assert a == b
    # timestamps live only in the sidecar
    meta = json.load(open(os.path.join(found, "orbits_report.json.meta.json")))
    assert "written_at" in meta


def test_orbits_find_funnel_adds_up(found):
    # the search funnel lives in the sidecar: every candidate is dropped,
    # known or new
    meta = json.load(open(os.path.join(found, "orbits_report.json.meta.json")))
    f = meta["funnel"]
    assert f["seeds"] == 128
    assert f["candidates"] == f["dropped"] + f["known"] + f["new_primes"]
    assert "skipped_known" not in f and "polished" not in f
    assert "certify_newton_iters" not in f and "reused_flows" not in f
    assert f["new_primes"] == 2
    assert len(meta["drop_reasons"]) == f["dropped"]
    assert sum(f["newton_iters"].values()) <= f["candidates"]
    # the survivors' certification: rows and waves
    assert f["waves"] >= 1 and f["certified"] >= f["new_primes"]
    assert f["steps"] > 0 and f["rejected_steps"] >= 0
    assert f["rhs_evals"] >= 12 * (f["steps"] + f["rejected_steps"])
    assert 0 <= f["one_row_steps"] <= f["steps"] + f["rejected_steps"]


def test_orbit_index_exit_codes(ell_config, found, round_config, workdir):
    code = main(["orbit-index", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--orbit", "0", "--out", found])
    assert code == 0
    with open(os.path.join(found, "index_orbit0.json")) as fh:
        rep = json.load(fh)
    assert rep["mu_geometric"] == 3
    assert rep["mu_spectral"] == 3
    assert rep["interval"][0] == pytest.approx(1 + 1 / SQ2, abs=1e-6)
    assert "rng_seed" in rep and "resolution" not in rep
    # how finely the index was resolved goes to the sidecar
    with open(os.path.join(found, "index_orbit0.json.meta.json")) as fh:
        res = json.load(fh)["resolution"]
    assert res["path_samples"] == 1025
    assert res["K"] == 2 + 16  # ceil(1 + 1 / sqrt 2) plus two bands of 8

    out_r = str(workdir / "round_run")
    assert main(["orbits-find", "--config", round_config, "--out", out_r]) == 0
    code = main(["orbit-index", "--config", round_config,
                 "--orbits", os.path.join(out_r, "orbits.json"),
                 "--orbit", "0", "--out", out_r])
    assert code == 3  # degenerate: inconclusive, no number emitted
    with open(os.path.join(out_r, "index_orbit0.json")) as fh:
        rep = json.load(fh)
    assert rep["mu_geometric"] is None
    assert rep["degenerate_flags"]


@pytest.mark.parametrize("n_grid, code", [("0", 64), ("-8", 64), ("8", 1)])
def test_orbit_index_grid_errors(ell_config, found, workdir, n_grid, code):
    # a non-positive grid is a config error; a positive one too coarse for
    # the orbit is a resolution error; neither writes a report
    out = str(workdir / f"ngrid{n_grid}")
    assert main(["orbit-index", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--orbit", "0", "--n-grid", n_grid, "--out", out]) == code
    assert not os.path.exists(os.path.join(out, "index_orbit0.json"))


def test_binding_check_exit_codes(ell_config, found):
    code = main(["binding-check", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--candidate", "0", "--out", found])
    assert code == 0
    with open(os.path.join(found, "binding_orbit0.json")) as fh:
        rep = json.load(fh)
    assert rep["verdict"] == "hypotheses_hold"
    # entry 2 is the double cover in period-sorted order
    code = main(["binding-check", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--candidate", "2", "--out", found])
    assert code == 2


def test_index_sidecars_record_the_shared_integration(ell_config, found,
                                                      workdir):
    # binding-check integrates the primes once for the whole census, in one
    # batch, and orbit-index on a cover integrates its prime over T_min
    orbits = os.path.join(found, "orbits.json")
    out = str(workdir / "index_table")
    assert main(["binding-check", "--config", ell_config, "--orbits", orbits,
                 "--candidate", "0", "--out", out]) == 0
    with open(os.path.join(out, "binding_orbit0.json.meta.json")) as fh:
        meta = json.load(fh)
    table = meta["index_table"]
    assert [row["orbit_id"] for row in table] == list(range(5))
    assert [row["multiplicity"] for row in table] == [1, 1, 2, 2, 3]
    assert meta["primes_integrated"] == 2
    assert [row["path_samples"] for row in table] == [1025] + [513] * 4
    assert all(row["K"] for row in table)
    stepper = meta["stepper"]
    assert stepper["rhs_evals"] >= 12 * stepper["steps"] > 0
    assert 0 <= stepper["one_row_steps"] <= stepper["steps"] + stepper["rejected_steps"]
    # no index-2 orbit, so only the candidate's prime is traced
    assert meta["linking_checks"] == {"primes_traced": 1, "prime_pairs": [],
                                      "unchecked_pairs": []}
    row, = meta["self_linking_checks"]
    assert (row["orbit"], row["gauss_sl"], row["writhe"], row["twist"]) == (
        0, -1, 0, -1)
    assert main(["orbit-index", "--config", ell_config, "--orbits", orbits,
                 "--orbit", "2", "--out", out]) == 0
    with open(os.path.join(out, "index_orbit2.json.meta.json")) as fh:
        res = json.load(fh)["resolution"]
    assert res["integrated_span"] == pytest.approx(np.pi, rel=1e-12)


def test_disk_and_section_pipeline(ell_config, found):
    assert main(["disk-gen", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--orbit", "0", "--out", found]) == 0
    disk_path = os.path.join(found, "disk_orbit0.json")
    assert os.path.exists(disk_path)
    code = main(["section-verify", "--config", ell_config,
                 "--disk", disk_path, "--seeds", "12",
                 "--t-budget", str(10 * np.pi * SQ2), "--out", found])
    assert code == 0
    with open(os.path.join(found, "section_report.json")) as fh:
        rep = json.load(fh)
    assert rep["passes"] and rep["timeouts_forward"] == 0
    csv_lines = open(os.path.join(found, "return_map_forward.csv")).read().splitlines()
    assert csv_lines[0] == "seed_s,seed_t,ret_s,ret_t,time"
    assert len(csv_lines) == 13
    code = main(["audit", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--disk", disk_path, "--binding", "0", "--out", found])
    assert code == 0
    with open(os.path.join(found, "audit_binding0.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"]
    with open(os.path.join(found, "audit_binding0.json.meta.json")) as fh:
        checks = json.load(fh)["linking_checks"]
    assert checks == {"primes_traced": 2, "unchecked_pairs": [],
                      "prime_pairs": [{"a": 0, "b": 1, "gauss_lk": 1,
                                       "crossing_lk": 1}]}
    with open(os.path.join(found, "audit_binding0.json.meta.json")) as fh:
        row, = json.load(fh)["self_linking_checks"]
    assert (row["orbit"], row["gauss_sl"], row["writhe"], row["twist"]) == (
        0, -1, 0, -1)


def test_disk_gen_integrates_the_orbit_once(ell_config, found, workdir,
                                            monkeypatch):
    # the page's trace is disk-gen's only integration: the grid checks do
    # not trace the orbit again
    real, spans = flow.integrate_flow, []

    def spy(form, x0, t_final, *args, **kwargs):
        spans.append(t_final)
        return real(form, x0, t_final, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("reeb_atlas") and getattr(
                module, "integrate_flow", None) is real:
            monkeypatch.setattr(module, "integrate_flow", spy)
    assert main(["disk-gen", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"), "--orbit", "0",
                 "--ntheta", "48", "--out", str(workdir / "spied")]) == 0
    assert spans == [pytest.approx(np.pi, rel=1e-8)]


@pytest.fixture(scope="module")
def section_disk(ell_config, found, workdir):
    out = str(workdir / "disk")
    assert main(["disk-gen", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--orbit", "0", "--out", out]) == 0
    return os.path.join(out, "disk_orbit0.json")


@pytest.mark.parametrize("budget, code", [("2.0", 3), ("44.43", 0)])
def test_section_sidecar_counts_return_maps(ell_config, section_disk, workdir,
                                            budget, code):
    out = str(workdir / f"sections{code}")
    assert main(["section-verify", "--config", ell_config,
                 "--disk", section_disk, "--seeds", "4",
                 "--t-budget", budget, "--out", out]) == code
    with open(os.path.join(out, "section_report.json")) as fh:
        report = json.load(fh)
    assert "return_maps" not in report and "crossing_search" not in report
    with open(os.path.join(out, "section_report.json.meta.json")) as fh:
        meta = json.load(fh)
    maps = meta["return_maps"]
    for direction in ("forward", "backward"):
        m = maps[direction]
        assert m["seeds"] == 4 == m["returns"] + m["timeouts"]
        assert m["timeouts"] == (4 if code == 3 else 0)
        assert m["chunk_rounds"] >= 1 and m["rejected_by_polish"] >= 0
        assert m["rejected_near_binding"] >= 0
    # both directions share the batched stepper
    stepper = maps["stepper"]
    assert maps["forward"]["steps"] + maps["backward"]["steps"] == stepper["steps"]
    assert stepper["rhs_evals"] >= 12 * stepper["steps"]
    assert 0 <= stepper["one_row_steps"] <= stepper["steps"] + stepper["rejected_steps"]
    # every seed's start and scan points are queried; each return was bisected
    search = meta["crossing_search"]
    assert sorted(search) == ["bisect_batches", "bisect_rounds",
                              "crossings_bisected", "points_queried",
                              "points_within_near"]
    assert 8 < search["points_queried"]
    assert 0 < search["points_within_near"] <= search["points_queried"]
    returns = maps["forward"]["returns"] + maps["backward"]["returns"]
    assert search["crossings_bisected"] >= returns
    assert search["bisect_rounds"] >= search["bisect_batches"] >= (returns > 0)


@pytest.mark.parametrize("argv, flag, code", [
    (["section-verify", "--seeds", "0"], "--seeds", 64),
    (["section-verify", "--seeds", "-3"], "--seeds", 64),
    (["section-verify", "--t-budget", "-1"], "--t-budget", 64),
    (["orbits-find", "--seeds", "0"], "--seeds", 64),
    (["orbits-find", "--tmax", "-1"], "--tmax", 64),
    (["disk-gen", "--nr", "0"], "--nr", 64),
    (["disk-gen", "--ntheta", "0"], "--ntheta", 64),
    (["disk-gen", "--nr", "2"], None, 1),  # positive but too coarse
    (["orbits-find", "--tmax", "nan"], "--tmax", 64),
    (["orbits-find", "--tmax", "inf"], "--tmax", 64),
    (["disk-gen", "--theta0", "nan"], "--theta0", 64),
    (["disk-gen", "--theta0", "inf"], "--theta0", 64),
    (["section-verify", "--t-budget", "nan"], "--t-budget", 64),
    (["disk-gen", "--ntheta", "1"], "--ntheta", 64),  # no plane to span
])
def test_flags_keep_the_config_bounds(ell_config, found, section_disk,
                                      workdir, capsys, argv, flag, code):
    # a flag is checked against the bounds of the config key it sets (grid
    # sizes must be positive) and the error names the flag; nothing is
    # written
    out = str(workdir / "flagged")
    given = {"section-verify": ["--disk", section_disk, "--seeds", "4",
                                "--t-budget", "44.43"],
             "disk-gen": ["--orbits", os.path.join(found, "orbits.json"),
                          "--orbit", "0"]}.get(argv[0], [])
    capsys.readouterr()
    assert main([argv[0], "--config", ell_config, "--out", out]
                + given + argv[1:]) == code
    err = capsys.readouterr().err
    if flag is not None:
        assert err.startswith(f"config error: {flag} {float(argv[2]):g}")
        assert "(at /)" not in err
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("oid", ["-1", "99"])
@pytest.mark.parametrize("command, flag", [
    ("orbit-index", "--orbit"), ("disk-gen", "--orbit"), ("audit", "--binding"),
    ("binding-check", "--candidate")])
def test_census_ids_out_of_range(ell_config, found, section_disk, workdir,
                                 capsys, command, flag, oid):
    # an id outside the 5-entry census is a runtime error that names the id,
    # never an index from the end; nothing is written
    out = str(workdir / "bad_id")
    capsys.readouterr()
    assert main([command, "--config", ell_config, "--out", out,
                 "--orbits", os.path.join(found, "orbits.json"), flag, oid]
                + (["--disk", section_disk] if command == "audit" else [])) == 1
    assert capsys.readouterr().err == (
        f"error: orbit {oid} is not in the database\n")
    assert not os.path.exists(out) or not os.listdir(out)


@pytest.mark.parametrize("argv", [
    ["orbits-find", "--no-such-flag", "1"],
    ["orbit-index", "--orbit", "0"],  # --orbits is required
    ["disk-gen", "--orbits", "orbits.json", "--orbit", "0", "--theta0", "-inf"],
])
def test_usage_errors_exit_64(ell_config, workdir, argv):
    # argparse's usage errors exit 64 (EX_USAGE): 2 means that a binding
    # condition fails; nothing is written
    out = str(workdir / "usage")
    assert main(argv[:1] + ["--config", ell_config, "--out", out]
                + argv[1:]) == 64
    assert not os.path.exists(out)
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--help"])
    assert exc.value.code == 0


def test_audit_refuses_another_orbits_page(ell_config, found, section_disk,
                                           workdir, capsys):
    # orbit 0's page is never audited against orbit 1's index, linking and
    # self-linking; a page without an orbit_ref is audited as before
    orbits = os.path.join(found, "orbits.json")
    out = str(workdir / "other_binding")
    capsys.readouterr()
    assert main(["audit", "--config", ell_config, "--orbits", orbits,
                 "--disk", section_disk, "--binding", "1", "--out", out]) == 1
    assert capsys.readouterr().err == (
        "error: the disk spans orbit 0, not the binding 1\n")
    assert not os.path.exists(out) or not os.listdir(out)
    unreferenced = load_disk(section_disk)
    unreferenced.orbit_ref = None
    path = str(workdir / "unreferenced.json")
    save_disk(unreferenced, path)
    assert main(["audit", "--config", ell_config, "--orbits", orbits,
                 "--disk", path, "--binding", "0", "--out", out]) == 0


def test_section_seeds_ignore_the_census_seeds(ell_config, section_disk,
                                               workdir, monkeypatch):
    # the config key "seeds" is the census seed count; section-verify takes
    # its seed count from --seeds alone, 500 when the flag is not given
    from reeb_atlas import cli

    config = workdir / "three_seeds.json"
    config.write_text(json.dumps(dict(json.load(open(ell_config)), seeds=3)))
    real, seen = cli.verify_global_section, []

    def verify(form, disk, n_seeds, t_budget):
        seen.append(n_seeds)
        return real(form, disk, n_seeds=2, t_budget=t_budget)

    monkeypatch.setattr(cli, "verify_global_section", verify)
    assert main(["section-verify", "--config", str(config),
                 "--disk", section_disk, "--t-budget", "44.43",
                 "--out", str(workdir / "default_seeds")]) == 0
    assert seen == [500]


def test_topology_commands(ell_config, found):
    assert main(["link", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", found]) == 0
    with open(os.path.join(found, "links.json")) as fh:
        rep = json.load(fh)
    pair = next(p for p in rep["pairs"] if p["a"] == 0 and p["b"] == 1)
    assert pair["lk"] == 1 and pair["residual"] < 0.1

    assert main(["selflink", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", found]) == 0
    with open(os.path.join(found, "selflink.json")) as fh:
        rep = json.load(fh)
    assert rep["self_linking"][0]["sl"] == -1
    # the sidecar holds both routes per prime: the Gauss sum, and writhe
    # plus twist along the first direction each prime admits
    with open(os.path.join(found, "selflink.json.meta.json")) as fh:
        checks = json.load(fh)["self_linking_checks"]
    assert [{k: v for k, v in row.items() if k != "gauss_residual"}
            for row in checks] == [
        {"orbit": 0, "gauss_sl": -1, "writhe": 0, "twist": -1,
         "direction": [0.0, 0.0, 1.0]},
        {"orbit": 1, "gauss_sl": -1, "writhe": 0, "twist": -1,
         "direction": [1.0, 0.0, 0.0]}]
    assert all(row["gauss_residual"] < 1e-12 for row in checks)

    assert main(["unknot", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", found]) == 0
    with open(os.path.join(found, "unknot.json")) as fh:
        rep = json.load(fh)
    assert rep["knots"][0]["status"] == "certified_unknot"


def test_rng_seed_is_recorded(ell_config, found, workdir):
    out = str(workdir / "seed1")
    assert main(["orbits-find", "--config", ell_config, "--out", out,
                 "--tmax", "2", "--seeds", "4", "--rng-seed", "1"]) == 0
    with open(os.path.join(out, "orbits.json")) as fh:
        assert json.load(fh)["params"]["rng_seed"] == 1
    # the schema's integer admits 2.0; every report records the integer 2
    config = workdir / "float_seed.json"
    config.write_text(json.dumps(dict(json.load(open(ell_config)),
                                      rng_seed=2.0)))
    out = str(workdir / "seed2")
    assert main(["orbits-find", "--config", str(config), "--out", out,
                 "--tmax", "2", "--seeds", "4"]) == 0
    assert main(["selflink", "--config", str(config), "--out", out,
                 "--orbits", os.path.join(found, "orbits.json")]) == 0
    for name in ("orbits_report.json", "selflink.json"):
        with open(os.path.join(out, name)) as fh:
            seed = json.load(fh)["rng_seed"]
        assert seed == 2 and type(seed) is int


def test_negative_rng_seed_is_a_config_error(ell_config, workdir, capsys):
    out = str(workdir / "seed-1")
    assert main(["orbits-find", "--config", ell_config, "--out", out,
                 "--tmax", "2", "--seeds", "4", "--rng-seed", "-1"]) == 64
    assert "(at /rng_seed)" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "orbits.json"))


def test_unknot_skips_a_failing_orbit(ell_config, found, monkeypatch):
    from reeb_atlas import cli
    from reeb_atlas.errors import PoleSelectionError

    check = cli.unknot_check
    calls = []

    def failing_first(trace):
        calls.append(1)
        if len(calls) == 1:
            raise PoleSelectionError("no generic projection found")
        return check(trace)

    monkeypatch.setattr(cli, "unknot_check", failing_first)
    out = os.path.join(found, "unknot_skip")
    assert main(["unknot", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", out]) == 0
    with open(os.path.join(out, "unknot.json")) as fh:
        rows = json.load(fh)["knots"]
    assert rows[0] == {"orbit": 0, "status": None, "crossings": None,
                       "skipped": "no generic projection found"}
    assert rows[1]["status"] == "certified_unknot"


@pytest.fixture(scope="module")
def three_primes(ell_config, found, workdir):
    # the census and a third prime: gamma2 marked at another point, which the
    # prime table keys apart from gamma2
    from reeb_atlas.cli import load_config
    from reeb_atlas.flow import integrate_flow
    from reeb_atlas.orbits import load_orbits, save_orbits

    _, form = load_config(ell_config)
    db = load_orbits(form, os.path.join(found, "orbits.json"))
    g2 = db[1]
    x0 = integrate_flow(form, g2.x0, g2.T_min / 3, tol=1e-12).endpoint
    db.orbits.append(dataclasses.replace(g2, x0=x0))
    path = str(workdir / "three_primes.json")
    save_orbits(db, path)
    return path


def _link(ell_config, orbits, out):
    assert main(["link", "--config", ell_config, "--orbits", orbits,
                 "--out", out]) == 0
    with open(os.path.join(out, "links.json")) as fh:
        pairs = json.load(fh)["pairs"]
    with open(os.path.join(out, "links.json.meta.json")) as fh:
        return pairs, json.load(fh)["linking_checks"]


def test_link_writes_covers_from_their_prime_pair(ell_config, found):
    # census: 0 gamma1, 1 gamma2, 2 gamma1^2, 3 gamma2^2, 4 gamma1^3
    pairs, checks = _link(ell_config, os.path.join(found, "orbits.json"),
                          os.path.join(found, "link_covers"))
    gamma2 = {1, 3}
    mult = {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
    for p in pairs:
        if (p["a"] in gamma2) == (p["b"] in gamma2):
            assert p == {"a": p["a"], "b": p["b"], "lk": None,
                         "skipped": "curves are 0.00e+00 apart (< 1e-03)"}
        else:
            assert p["lk"] == mult[p["a"]] * mult[p["b"]]
    assert checks == {"primes_traced": 2, "unchecked_pairs": [],
                      "prime_pairs": [{"a": 0, "b": 1, "gauss_lk": 1,
                                       "crossing_lk": 1}]}


def test_link_skips_the_pairs_of_an_untraced_orbit(ell_config, three_primes,
                                                  workdir, monkeypatch):
    from reeb_atlas import linking
    from reeb_atlas.errors import StiffnessError

    trace = linking.trace_orbit  # orbits.trace_orbits
    rows = []

    def failing_last(form, orbits, n):
        rows.append(len(orbits))
        traces = trace(form, orbits, n)
        traces[-1] = StiffnessError("step size underflow", 0.0, None)
        return traces

    monkeypatch.setattr(linking, "trace_orbit", failing_last)
    pairs, checks = _link(ell_config, three_primes, str(workdir / "link_skip"))
    assert rows == [3]  # the three primes, traced in one batch
    assert len(pairs) == 15
    for p in pairs:
        if 5 in (p["a"], p["b"]):
            assert p == {"a": p["a"], "b": p["b"], "lk": None,
                         "skipped": "orbit 5 was not traced: step size underflow"}
    # gamma1^a with gamma2^b: lk = a b
    lks = {(p["a"], p["b"]): p["lk"] for p in pairs}
    assert [lks[0, 1], lks[0, 3], lks[1, 2], lks[2, 3], lks[1, 4], lks[3, 4]] \
        == [1, 2, 2, 4, 3, 6]
    assert checks["primes_traced"] == 2


def test_link_skips_a_pair_whose_routes_disagree(ell_config, found,
                                                 monkeypatch):
    from reeb_atlas import linking

    monkeypatch.setattr(linking, "crossing_linking", lambda a, b: 2)
    pairs, checks = _link(ell_config, os.path.join(found, "orbits.json"),
                          os.path.join(found, "link_disagree"))
    text = "Gauss sum gives lk 1 but the crossing count gives 2"
    cross = [p for p in pairs if (p["a"] in (1, 3)) != (p["b"] in (1, 3))]
    assert len(cross) == 6
    assert all(p == {"a": p["a"], "b": p["b"], "lk": None, "skipped": text}
               for p in cross)
    assert checks["prime_pairs"] == [
        {"a": 0, "b": 1, "error": f"InconsistencyError: {text}"}]


def test_link_keeps_a_row_the_crossing_count_leaves_unchecked(
        ell_config, found, monkeypatch):
    from reeb_atlas import linking
    from reeb_atlas.errors import ResolutionError

    def no_direction(a, b):
        raise ResolutionError("no generic projection direction found")

    out = os.path.join(found, "link_unchecked")
    pairs, checks = _link(ell_config, os.path.join(found, "orbits.json"), out)
    monkeypatch.setattr(linking, "crossing_linking", no_direction)
    unchecked, checks = _link(ell_config, os.path.join(found, "orbits.json"),
                              out)
    assert unchecked == pairs
    assert checks == {
        "primes_traced": 2,
        "prime_pairs": [{"a": 0, "b": 1, "gauss_lk": 1, "crossing_lk": None}],
        "unchecked_pairs": [{"a": 0, "b": 1, "gauss_lk": 1, "crossing_lk": None,
                             "reason": "no generic projection direction found"}]}


def test_malformed_config(workdir, found, ell_config):
    bad = workdir / "bad.json"
    bad.write_text(json.dumps({
        "form": {"type": "ellipsoid", "r_squared": [1.0, -2.0]},
    }))
    code = main(["orbits-find", "--config", str(bad), "--out", str(workdir / "x")])
    assert code == 64

    nan_cfg = workdir / "nan.json"
    nan_cfg.write_text('{"form": {"type": "ellipsoid", "r_squared": [1.0, NaN]}}')
    assert main(["orbits-find", "--config", str(nan_cfg),
                 "--out", str(workdir / "x")]) == 64

    # a key nothing reads is rejected, not silently ignored
    unread = workdir / "unread.json"
    unread.write_text(json.dumps({
        "form": {"type": "ellipsoid", "r_squared": [1.0, SQ2]},
        "tolerances": {"closure": 1e-8},
    }))
    assert main(["orbits-find", "--config", str(unread),
                 "--out", str(workdir / "x")]) == 64

    # a number past the float range is as non-finite as the literals
    for text in ['{"form": {"type": "ellipsoid", "r_squared": [1.0, 1.5]}, '
                 '"tmax": 1e400}',
                 '{"form": {"type": "ellipsoid", "r_squared": [1.0, 1.5]}, '
                 '"tmax": ' + "9" * 400 + "}",
                 '{"form": {"type": "ellipsoid", "r_squared": [1e400, 1.5]}}']:
        huge = workdir / "huge.json"
        huge.write_text(text)
        assert main(["orbits-find", "--config", str(huge),
                     "--out", str(workdir / "x")]) == 64

    # a form key is checked like a top-level key: one the form's type does
    # not read, the other type's key, or a missing key of its own
    for form in ({"type": "ellipsoid", "r_squared": [1.0, SQ2], "colour": "red"},
                 {"type": "ellipsoid", "r_squared": [1.0, SQ2],
                  "monomials": [{"exp": [0, 0, 0, 0], "coeff": -1.0}]},
                 {"type": "ellipsoid", "r_sqared": [1.0, SQ2]}):
        bad_form = workdir / "bad_form.json"
        bad_form.write_text(json.dumps({"form": form}))
        assert main(["orbits-find", "--config", str(bad_form),
                     "--out", str(workdir / "x")]) == 64


@pytest.fixture(scope="module")
def session(ell_config, workdir):
    # the README's nine commands, at small sizes, on a config that spells
    # its rng_seed 0.0
    config = workdir / "session.json"
    config.write_text(json.dumps(dict(json.load(open(ell_config)),
                                      rng_seed=0.0)))
    out = str(workdir / "session")
    orbits = ["--orbits", os.path.join(out, "orbits.json")]
    disk = ["--disk", os.path.join(out, "disk_orbit0.json")]
    for argv in (["orbits-find", "--seeds", "32"],
                 ["orbit-index", *orbits, "--orbit", "0"],
                 ["link", *orbits], ["selflink", *orbits], ["unknot", *orbits],
                 ["disk-gen", *orbits, "--orbit", "0", "--ntheta", "48"],
                 ["section-verify", *disk, "--seeds", "4",
                  "--t-budget", "44.43"],
                 ["binding-check", *orbits, "--candidate", "0"],
                 ["audit", *orbits, *disk, "--binding", "0"]):
        assert main(argv[:1] + ["--config", str(config), "--out", out]
                    + argv[1:]) == 0, argv[0]
    return out


# per command, its report and the keys its sidecar holds beyond the four that
# every sidecar holds
PROTOCOL = {
    "orbits-find": ("orbits_report.json", {"files", "funnel", "drop_reasons"}),
    "orbit-index": ("index_orbit0.json", {"resolution"}),
    "link": ("links.json", {"linking_checks"}),
    "selflink": ("selflink.json", {"self_linking_checks"}),
    "unknot": ("unknot.json", set()),
    "disk-gen": ("disk_orbit0_report.json", {"files"}),
    "section-verify": ("section_report.json", {"files", "return_maps",
                                               "crossing_search"}),
    "binding-check": ("binding_orbit0.json", {
        "index_table", "primes_integrated", "linking_checks",
        "self_linking_checks", "stepper"}),
    "audit": ("audit_binding0.json", {"linking_checks", "self_linking_checks"}),
}


@pytest.mark.parametrize("command", PROTOCOL)
def test_every_report_keeps_the_protocol(session, command):
    # every report records the integer rng_seed, and its sidecar holds the
    # report's name, the version, the process's import time and the times,
    # plus the command's own keys
    name, extras = PROTOCOL[command]
    with open(os.path.join(session, name)) as fh:
        seed = json.load(fh)["rng_seed"]
    assert seed == 0 and type(seed) is int
    with open(os.path.join(session, name + ".meta.json")) as fh:
        meta = json.load(fh)
    assert set(meta) == {"report", "version", "import_seconds", "wall_seconds",
                         "written_at"} | extras
    assert 0 < meta["import_seconds"] == cli.IMPORT_SECONDS
    assert meta["report"] == name
    for extra in meta.get("files", []):
        assert os.path.exists(os.path.join(session, extra))


def test_config_error_names_pointer(workdir, capsys):
    cases = [
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, -2.0]}},
         "/form/r_squared/1"),
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, SQ2]},
          "tolerances": {"closure": 1e-8}}, "/tolerances"),
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, SQ2],
                   "colour": "red"}}, "/form/colour"),
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, SQ2],
                   "monomials": [{"exp": [0, 0, 0, 0], "coeff": -1.0}]}},
         "/form/monomials"),
        ({"form": {"type": "ellipsoid", "r_sqared": [1.0, SQ2]}},
         "/form/r_squared"),
        ({"form": {"type": "weighted", "name": "w"}}, "/form/monomials"),
        ({"form": {"type": "torus", "r_squared": [1.0, SQ2]}}, "/form/type"),
        ({"form": {"r_squared": [1.0, SQ2]}}, "/form/type"),
        # a monomial holds its exp and coeff, nothing else
        ({"form": {"type": "weighted", "monomials": [
            {"exp": [0, 0, 0, 0], "coeff": 1.0, "x": 1}]}}, "/form/monomials/0/x"),
        ({"form": {"type": "weighted", "monomials": [{"exp": [0, 0, 0, 0]}]}},
         "/form/monomials/0/coeff"),
    ]
    for config, pointer in cases:
        bad = workdir / "bad2.json"
        bad.write_text(json.dumps(config))
        main(["orbits-find", "--config", str(bad), "--out", str(workdir / "x")])
        err = capsys.readouterr().err
        assert f"(at {pointer})" in err


ELL = {"type": "ellipsoid", "r_squared": [1.0, SQ2]}


def _run(form, **keys):
    """A config of ``form`` and a small search, with ``keys`` laid over."""
    return {"form": form, "tmax": 1.0, "seeds": 2, **keys}


def _weight(exp, coeff=1.0):
    return {"type": "weighted", "monomials": [{"exp": exp, "coeff": coeff}]}


# per config fault, the exit code and the pointer its message ends with (None:
# no config error)
CONFIG_FAULTS = {
    "r2-negative": (_run({"type": "ellipsoid", "r_squared": [1.0, -2.0]}),
                    64, "/form/r_squared/1"),
    "r2-boolean": (_run({"type": "ellipsoid", "r_squared": [True, SQ2]}),
                   64, "/form/r_squared/0"),
    "r2-string": (_run({"type": "ellipsoid", "r_squared": [1.0, "2"]}),
                  64, "/form/r_squared/1"),
    "r2-three": (_run({"type": "ellipsoid", "r_squared": [1.0, 2.0, 3.0]}),
                 64, "/form/r_squared"),
    "name-number": (_run(dict(ELL, name=5)), 64, "/form/name"),
    "exp-negative": (_run(_weight([0, 0, -1, 0])), 64, "/form/monomials/0/exp/2"),
    "exp-fraction": (_run(_weight([0, 0, 1.5, 0])), 64, "/form/monomials/0/exp/2"),
    "exp-boolean": (_run(_weight([0, 0, True, 0])), 64, "/form/monomials/0/exp/2"),
    "exp-400": (_run(_weight([0, 0, 400, 0])), 64, "/form/monomials/0/exp/2"),
    "exp-1e20": (_run(_weight([0, 0, 1e20, 0])), 64, "/form/monomials/0/exp/2"),
    "coeff-string": (_run(_weight([0, 0, 0, 0], "1")), 64,
                     "/form/monomials/0/coeff"),
    "no-monomials": (_run({"type": "weighted", "monomials": []}), 64,
                     "/form/monomials"),
    "form-number": (_run(3), 64, "/form"),
    "no-form": ({"tmax": 1.0}, 64, "/form"),
    "top-level-list": ([1, 2], 64, "/"),
    "seeds-zero": (_run(ELL, seeds=0), 64, "/seeds"),
    "seeds-fraction": (_run(ELL, seeds=2.5), 64, "/seeds"),
    "seeds-boolean": (_run(ELL, seeds=True), 64, "/seeds"),
    "tmax-string": (_run(ELL, tmax="3"), 64, "/tmax"),
    "seeds-integral-float": (_run(ELL, seeds=2.0), 0, None),
    "exp-integral-float": (_run({"type": "weighted", "monomials": [
        {"exp": [0, 0, 0, 0], "coeff": 1.0},
        {"exp": [2.0, 0, 0, 0], "coeff": 0.1}]}), 0, None),
    "weight-not-positive": (_run(_weight([0, 0, 0, 0], -1.0)), 1, None),
}


@pytest.mark.parametrize("case", CONFIG_FAULTS)
def test_config_faults_keep_their_exit_code_and_pointer(workdir, capsys, case):
    config, code, pointer = CONFIG_FAULTS[case]
    path = workdir / f"fault-{case}.json"
    path.write_text(json.dumps(config))
    capsys.readouterr()
    assert main(["orbits-find", "--config", str(path),
                 "--out", str(workdir / "faults")]) == code
    err = capsys.readouterr().err
    if pointer is None:
        assert not err.startswith("config error")
    else:
        assert err.startswith("config error: ")
        assert err.rstrip().endswith(f"(at {pointer})")


# census entry 0 with one value, a function of the stored one, that no
# search produces: a NaN start, a zero-length or backward run, which would
# "close", a fractional cover, values that float() or int() would read, a
# period float() overflows on, a start or a period that does not close, and
# covers past the census's t_max, one of which float() overflows on
ENTRY_VALUES = {
    "census-entry-with-NaN-x0": ("x0", lambda v: [float("nan"), 0.0, 0.0, 0.0]),
    "census-entry-with-T_min-0": ("T_min", lambda v: 0.0),
    "census-entry-with-T_min-minus-pi": ("T_min", lambda v: -np.pi),
    "census-entry-with-multiplicity-1.7": ("multiplicity", lambda v: 1.7),
    "census-entry-with-string-x0": ("x0", lambda v: [repr(c) for c in v]),
    "census-entry-with-string-T_min": ("T_min", repr),
    "census-entry-with-multiplicity-true": ("multiplicity", lambda v: True),
    "census-entry-with-residual-false": ("residual", lambda v: False),
    "census-entry-with-400-digit-T_min": ("T_min", lambda v: 10**400),
    "census-entry-with-x0-off-level": ("x0", lambda v: [1.01 * c for c in v]),
    "census-entry-with-T_min-off-by-1e-3": ("T_min", lambda v: 1.001 * v),
    "census-entry-with-multiplicity-1000": ("multiplicity", lambda v: 1000),
    "census-entry-with-400-digit-multiplicity": ("multiplicity", lambda v: 10**400)}

# disk header values, each a function of the stored one, that disk-gen's
# flags refuse or that int() would read
HEADER_VALUES = {
    "disk-header-with-string-n_r": ("n_r", str),
    "disk-header-with-fractional-n_r": ("n_r", lambda v: v + 0.9),
    "disk-header-with-orbit_ref-zero": ("orbit_ref", lambda v: "zero"),
    "disk-header-with-orbit_ref-1.5": ("orbit_ref", lambda v: 1.5)}


def _damage(session, tmp_path, case):
    """A copy of the session's census or disk, damaged as ``case`` says; the
    command and flags that read it."""
    census = json.load(open(os.path.join(session, "orbits.json")))
    header = json.load(open(os.path.join(session, "disk_orbit0.json")))
    if case == "disk-header-without-points_csv":
        del header["points_csv"]
        (tmp_path / "disk.json").write_text(json.dumps(header))
    elif case == "census-not-json":
        (tmp_path / "orbits.json").write_text('{"orbits": [')
    elif case == "census-json-array":
        (tmp_path / "orbits.json").write_text(json.dumps(census["orbits"]))
    elif case == "census-entry-with-3-coordinates":
        census["orbits"][0]["x0"] = census["orbits"][0]["x0"][:3]
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    elif case.startswith("census-entry-of-class-"):
        census["orbits"][0]["class"] = case[len("census-entry-of-class-"):]
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    elif case == "census-without-params":
        del census["params"]
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    elif case == "census-with-t_max-NaN":
        census["params"]["t_max"] = float("nan")
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    elif case in ENTRY_VALUES:  # json.load parses the NaN that dumps writes
        key, value = ENTRY_VALUES[case]
        census["orbits"][0][key] = value(census["orbits"][0][key])
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    elif case in HEADER_VALUES:  # beside the session's own CSV block
        key, value = HEADER_VALUES[case]
        header[key] = value(header[key])
        header["points_csv"] = os.path.join(session, header["points_csv"])
        (tmp_path / "disk.json").write_text(json.dumps(header))
    elif case == "disk-header-with-n_r-0":  # and a one-row CSV block
        pts = np.loadtxt(os.path.join(session, header["points_csv"]),
                         delimiter=",", skiprows=1)[:header["n_theta"]]
        np.savetxt(tmp_path / "disk.csv", pts, delimiter=",",
                   header="x1,x2,x3,x4", comments="")
        header.update(n_r=0, points_csv="disk.csv")
        (tmp_path / "disk.json").write_text(json.dumps(header))
    elif case == "disk-csv-with-NaN-points":
        pts = np.loadtxt(os.path.join(session, header["points_csv"]),
                         delimiter=",", skiprows=1)
        pts[::7] = np.nan
        np.savetxt(tmp_path / "disk.csv", pts, delimiter=",",
                   header="x1,x2,x3,x4", comments="")
        header["points_csv"] = "disk.csv"
        (tmp_path / "disk.json").write_text(json.dumps(header))
    else:
        del census["orbits"][0]["T_min"]
        (tmp_path / "orbits.json").write_text(json.dumps(census))
    if case.startswith("disk"):
        return ["section-verify", "--disk", str(tmp_path / "disk.json"),
                "--seeds", "1", "--t-budget", "1.0"]
    return ["orbit-index", "--orbits", str(tmp_path / "orbits.json"),
            "--orbit", "0"]


@pytest.mark.parametrize("case, code", [
    ("disk-header-without-points_csv", 1),
    ("census-not-json", 1), ("census-json-array", 1),
    ("census-entry-without-T_min", 1), ("census-entry-with-3-coordinates", 1),
    # without a finite t_max, the census's covers have no cap
    ("census-without-params", 1), ("census-with-t_max-NaN", 1),
    # the entry's stored class must be the one its monodromy gives
    ("census-entry-of-class-bogus", 1),
    ("census-entry-of-class-positive-hyperbolic", 1),
    *[(case, 1) for case in ENTRY_VALUES],
    # np.loadtxt parses nan; the page index would refuse it with a traceback
    ("disk-csv-with-NaN-points", 1),
    *[(case, 1) for case in HEADER_VALUES],
    # a page of no cells, which the page index refuses with a traceback
    ("disk-header-with-n_r-0", 1)])
def test_a_damaged_artifact_exits_with_a_message(session, ell_config, tmp_path,
                                                 capsys, case, code):
    argv = _damage(session, tmp_path, case)
    assert main(argv[:1] + ["--config", ell_config, "--out", str(tmp_path)]
                + argv[1:]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(tmp_path) in err  # the message names the damaged file


# per input file, the producer its missing-artifact message names
PRODUCERS = {"config": "write a config file first",
             "census": "reeb-atlas orbits-find",
             "disk-header": "reeb-atlas disk-gen",
             "disk-csv": "reeb-atlas disk-gen"}


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("artifact", PRODUCERS)
def test_a_missing_or_directory_artifact_exits_65(session, ell_config, tmp_path,
                                                  capsys, artifact, kind):
    # each loader guards its own file: a path that is missing or names a
    # directory exits 65 with the producer, not a traceback
    path = tmp_path / "artifact"
    if kind == "directory":
        path.mkdir()
    config, orbits = ell_config, os.path.join(session, "orbits.json")
    disk = os.path.join(session, "disk_orbit0.json")
    if artifact == "config":
        config = str(path)
    elif artifact == "census":
        orbits = str(path)
    elif artifact == "disk-header":
        disk = str(path)
    else:  # a header whose CSV block is the path
        header = dict(json.load(open(disk)), points_csv=path.name)
        (tmp_path / "disk.json").write_text(json.dumps(header))
        disk = str(tmp_path / "disk.json")
    argv = (["section-verify", "--disk", disk, "--seeds", "1",
             "--t-budget", "1.0"] if artifact.startswith("disk")
            else ["orbit-index", "--orbits", orbits, "--orbit", "0"])
    assert main(argv[:1] + ["--config", config, "--out", str(tmp_path / "out")]
                + argv[1:]) == 65
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(path) in err and PRODUCERS[artifact] in err


@pytest.fixture(scope="module")
def perturbed_run(perturbed_form, workdir):
    config = workdir / "perturbed.json"
    config.write_text(json.dumps({"form": form_json(perturbed_form),
                                  "tmax": 7.0, "seeds": 16, "rng_seed": 0}))
    out = str(workdir / "perturbed")
    assert main(["orbits-find", "--config", str(config), "--out", out]) == 0
    return str(config), out


def test_section_pipeline_on_a_weighted_form(perturbed_form, perturbed_run):
    # disk-gen builds a page for every form: the cone page over the perturbed
    # form's gamma1, whose boundary row is the orbit's trace, passes
    # section-verify, and the audit finds sl -1 by both routes and winding 1
    config, out = perturbed_run
    orbits = os.path.join(out, "orbits.json")
    with open(orbits) as fh:
        assert json.load(fh)["orbits"][0]["T_min"] == pytest.approx(np.pi,
                                                                    rel=1e-4)
    disk = os.path.join(out, "disk_orbit0.json")
    assert main(["disk-gen", "--config", config, "--orbits", orbits,
                 "--orbit", "0", "--nr", "128", "--ntheta", "48",
                 "--out", out]) == 0
    trace = trace_orbit(perturbed_form, load_orbits(perturbed_form, orbits)[0], 48)
    assert np.abs(load_disk(disk).boundary - trace).max() < 1e-15
    assert main(["section-verify", "--config", config, "--disk", disk,
                 "--seeds", "8", "--t-budget", "44.43", "--out", out]) == 0
    with open(os.path.join(out, "section_report.json")) as fh:
        rep = json.load(fh)
    assert rep["passes"] and rep["sign_constant"]
    assert main(["audit", "--config", config, "--orbits", orbits,
                 "--disk", disk, "--binding", "0", "--out", out]) == 0
    with open(os.path.join(out, "audit_binding0.json")) as fh:
        rep = json.load(fh)
    assert rep["passed"] and rep["mu_cz"] == 3
    assert rep["sl_pushoff"] == rep["sl_from_winding"] == -1
    assert rep["boundary_winding"] == 1
    assert [row["lk"] for row in rep["linking"]] == [1]  # gamma2
