import json
import os

import numpy as np
import pytest

from reeb_atlas.cli import main

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
    assert "rng_seed" in rep

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

    assert main(["unknot", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", found]) == 0
    with open(os.path.join(found, "unknot.json")) as fh:
        rep = json.load(fh)
    assert rep["knots"][0]["status"] == "certified_unknot"


def test_rng_seed_is_recorded(ell_config, workdir):
    out = str(workdir / "seed1")
    assert main(["orbits-find", "--config", ell_config, "--out", out,
                 "--tmax", "2", "--seeds", "4", "--rng-seed", "1"]) == 0
    with open(os.path.join(out, "orbits.json")) as fh:
        assert json.load(fh)["params"]["rng_seed"] == 1


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


def test_link_skips_the_pairs_of_an_untraced_orbit(ell_config, found,
                                                  monkeypatch):
    from reeb_atlas import cli
    from reeb_atlas.errors import StiffnessError

    trace = cli.trace_orbit
    calls = []

    def failing_second(form, orbit, n):
        calls.append(1)
        if len(calls) == 2:
            raise StiffnessError("step size underflow", 0.0, None)
        return trace(form, orbit, n=n)

    monkeypatch.setattr(cli, "trace_orbit", failing_second)
    out = os.path.join(found, "link_skip")
    assert main(["link", "--config", ell_config,
                 "--orbits", os.path.join(found, "orbits.json"),
                 "--out", out]) == 0
    assert len(calls) == 5
    with open(os.path.join(out, "links.json")) as fh:
        pairs = json.load(fh)["pairs"]
    assert len(pairs) == 10
    for p in pairs:
        if 1 in (p["a"], p["b"]):
            assert p == {"a": p["a"], "b": p["b"], "lk": None,
                         "skipped": "orbit 1 was not traced: step size underflow"}
    assert any(p["lk"] is not None for p in pairs)


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


def test_config_error_names_pointer(workdir, capsys):
    cases = [
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, -2.0]}},
         "/form/r_squared/1"),
        ({"form": {"type": "ellipsoid", "r_squared": [1.0, SQ2]},
          "tolerances": {"closure": 1e-8}}, "/tolerances"),
    ]
    for config, pointer in cases:
        bad = workdir / "bad2.json"
        bad.write_text(json.dumps(config))
        main(["orbits-find", "--config", str(bad), "--out", str(workdir / "x")])
        err = capsys.readouterr().err
        assert f"(at {pointer})" in err


def test_missing_artifact_names_producer(ell_config, workdir, capsys):
    code = main(["orbit-index", "--config", ell_config,
                 "--orbits", str(workdir / "nope.json"),
                 "--orbit", "0", "--out", str(workdir / "x")])
    assert code == 65
    assert "orbits-find" in capsys.readouterr().err


def test_validate_flag():
    assert main(["--validate"]) == 0
