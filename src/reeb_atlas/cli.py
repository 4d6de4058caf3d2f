"""Command-line front end: configuration, pipeline orchestration, reports.

Every command reads a JSON run configuration, executes one stage of the
pipeline, and writes a deterministic JSON report (timestamps live in a
separate ``.meta.json`` sidecar so that reruns are byte-identical).  Exit
codes: 0 success / hypotheses hold, 2 binding conditions fail, 3
inconclusive or degeneracy-flagged, 64 bad configuration, 65 missing
prerequisite artifact, 1 runtime error.
"""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .binding import check_binding, necessity_audit
from .contact import StarForm
from .cz import orbit_index_report
from .errors import (ConfigError, DegenerateOrbitError, MissingArtifactError,
                     ReebAtlasError)
from .linking import linking_number, self_linking, trace_orbit, unknot_check
from .orbits import find_orbits, load_orbits, save_orbits
from .sections import (builtin_disk, load_disk, save_disk,
                       verify_global_section, write_return_csv)

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["form"],
    "additionalProperties": False,
    "properties": {
        "form": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["ellipsoid", "weighted"]},
                "r_squared": {
                    "type": "array", "minItems": 2, "maxItems": 2,
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
                "monomials": {
                    "type": "array", "minItems": 1,
                    "items": {
                        "type": "object",
                        "required": ["exp", "coeff"],
                        "properties": {
                            "exp": {
                                "type": "array", "minItems": 4, "maxItems": 4,
                                "items": {"type": "integer", "minimum": 0},
                            },
                            "coeff": {"type": "number"},
                        },
                    },
                },
                "name": {"type": "string"},
            },
        },
        "tmax": {"type": "number", "exclusiveMinimum": 0},
        "seeds": {"type": "integer", "minimum": 1},
        "rng_seed": {"type": "integer", "minimum": 0},
        "t_budget": {"type": "number", "exclusiveMinimum": 0},
    },
}


def _json_pointer(path_deque):
    return "/" + "/".join(str(p) for p in path_deque)


def load_config(path):
    """Parse and validate a run configuration; rejects NaN and infinities."""
    def reject_constant(token):
        raise ConfigError(f"non-finite literal {token!r} rejected", "")

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=reject_constant)
    except FileNotFoundError:
        raise MissingArtifactError(path, "write a config file first")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "")

    import jsonschema

    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(raw), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        path = list(err.absolute_path)
        if err.validator == "additionalProperties":
            path.append(min(set(err.instance) - set(err.schema["properties"])))
        raise ConfigError(err.message, _json_pointer(path))
    form = StarForm.from_json_dict(raw["form"])
    return raw, form


def _write_report(out_dir, name, payload, started, extra_files=None):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonify)
        fh.write("\n")
    meta = {
        "report": name,
        "version": __version__,
        "wall_seconds": round(time.time() - started, 3),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if extra_files:
        meta["files"] = extra_files
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def _require_artifact(path, producer):
    if not os.path.exists(path):
        raise MissingArtifactError(path, producer)


def _load_db(form, path):
    _require_artifact(path, "reeb-atlas orbits-find")
    return load_orbits(form, path)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_orbits_find(args):
    started = time.time()
    cfg, form = load_config(args.config)
    t_max = args.tmax if args.tmax is not None else cfg.get("tmax", 10.0)
    n_seeds = args.seeds if args.seeds is not None else cfg.get("seeds", 256)
    rng_seed = args.rng_seed if args.rng_seed is not None else cfg.get("rng_seed", 0)
    if rng_seed < 0:  # the schema's minimum, for the flag
        raise ConfigError(f"rng_seed {rng_seed} is below 0", "/rng_seed")
    db = find_orbits(form, float(t_max), n_seeds=int(n_seeds),
                     rng_seed=int(rng_seed))
    out = os.path.join(args.out, "orbits.json")
    os.makedirs(args.out, exist_ok=True)
    save_orbits(db, out)
    payload = {
        "rng_seed": int(rng_seed),
        "form_hash": db.form_hash,
        "t_max": float(t_max),
        "n_orbits": len(db),
        "orbits_file": "orbits.json",
        "periods": [o.T for o in db.orbits],
    }
    _write_report(args.out, "orbits_report.json", payload, started,
                  extra_files=["orbits.json"])
    print(f"found {len(db)} orbit entries up to T = {t_max}")
    return 0


def cmd_orbit_index(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    orbit = db[args.orbit]
    report = orbit_index_report(form, orbit, n_grid=args.n_grid)
    payload = dict(report)
    payload["orbit_id"] = args.orbit
    payload["rng_seed"] = cfg.get("rng_seed", 0)
    _write_report(args.out, f"index_orbit{args.orbit}.json", payload, started)
    if report["degenerate_flags"]:
        print("degeneracy flagged; no index emitted:",
              "; ".join(report["degenerate_flags"]))
        return 3
    print(f"orbit {args.orbit}: index {report['mu_geometric']} "
          f"(both methods agree)")
    return 0


def cmd_link(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    traces, untraced = {}, {}
    for i, orbit in enumerate(db.orbits):
        try:
            traces[i] = trace_orbit(form, orbit, n=512)
        except ReebAtlasError as exc:
            untraced[i] = f"orbit {i} was not traced: {exc}"
    pairs = []
    for i in range(len(db)):
        for j in range(i + 1, len(db)):
            reason = untraced.get(i) or untraced.get(j)
            if reason is None:
                try:
                    lk, resid = linking_number(traces[i], traces[j])
                except ReebAtlasError as exc:
                    reason = str(exc)
            if reason is None:
                pairs.append({"a": i, "b": j, "lk": lk, "residual": resid})
            else:
                pairs.append({"a": i, "b": j, "lk": None, "skipped": reason})
    payload = {"pairs": pairs, "rng_seed": cfg.get("rng_seed", 0)}
    _write_report(args.out, "links.json", payload, started)
    print(f"computed {len(pairs)} pair linkings")
    return 0


def cmd_selflink(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    rows = []
    for i, orbit in enumerate(db.orbits):
        try:
            rows.append({"orbit": i, "sl": self_linking(form, orbit)})
        except ReebAtlasError as exc:
            rows.append({"orbit": i, "sl": None, "skipped": str(exc)})
    payload = {"self_linking": rows, "rng_seed": cfg.get("rng_seed", 0)}
    _write_report(args.out, "selflink.json", payload, started)
    print(f"computed {len(rows)} self-linking numbers")
    return 0


def cmd_unknot(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    rows = []
    for i, orbit in enumerate(db.orbits):
        if orbit.multiplicity != 1:
            rows.append({"orbit": i, "status": "not-simply-covered",
                         "crossings": None})
            continue
        try:
            v = unknot_check(trace_orbit(form, orbit, n=512))
        except ReebAtlasError as exc:
            rows.append({"orbit": i, "status": None, "crossings": None,
                         "skipped": str(exc)})
            continue
        rows.append({"orbit": i, "status": v.status,
                     "crossings": v.crossing_count_after_reduction})
    payload = {"knots": rows, "rng_seed": cfg.get("rng_seed", 0)}
    _write_report(args.out, "unknot.json", payload, started)
    print(f"checked {len(rows)} orbit knots")
    return 0


def cmd_disk_gen(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    disk = builtin_disk(form, db[args.orbit], theta0=args.theta0,
                        n_r=args.nr, n_theta=args.ntheta)
    disk.orbit_ref = args.orbit
    disk.validate(form, db[args.orbit])
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"disk_orbit{args.orbit}.json")
    save_disk(disk, path)
    payload = {
        "disk_file": os.path.basename(path),
        "orbit_ref": args.orbit,
        "n_r": disk.n_r,
        "n_theta": disk.n_theta,
        "theta0": args.theta0,
        "rng_seed": cfg.get("rng_seed", 0),
    }
    _write_report(args.out, f"disk_orbit{args.orbit}_report.json", payload,
                  started, extra_files=[os.path.basename(path)])
    print(f"wrote {path}")
    return 0


def cmd_section_verify(args):
    started = time.time()
    cfg, form = load_config(args.config)
    _require_artifact(args.disk, "reeb-atlas disk-gen")
    disk = load_disk(args.disk)
    n_seeds = args.seeds if args.seeds is not None else cfg.get("seeds", 500)
    t_budget = args.t_budget if args.t_budget is not None else cfg.get("t_budget")
    if t_budget is None:
        raise ConfigError("t_budget required (flag --t-budget or config)",
                          "/t_budget")
    verdict, fw, bw = verify_global_section(
        form, disk, n_seeds=int(n_seeds), t_budget=float(t_budget),
        return_details=True)
    os.makedirs(args.out, exist_ok=True)
    write_return_csv(os.path.join(args.out, "return_map_forward.csv"), fw)
    write_return_csv(os.path.join(args.out, "return_map_backward.csv"), bw)
    verdict["rng_seed"] = cfg.get("rng_seed", 0)
    _write_report(args.out, "section_report.json", verdict, started,
                  extra_files=["return_map_forward.csv",
                               "return_map_backward.csv"])
    print(f"section verdict: passes={verdict['passes']} "
          f"(timeouts {verdict['timeouts_forward']}+{verdict['timeouts_backward']},"
          f" min transversality {verdict['min_transversality']:.4f})")
    return 0 if verdict["passes"] else 3


def cmd_binding_check(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    report = check_binding(form, db, args.candidate)
    payload = report.to_json_dict()
    payload["rng_seed"] = cfg.get("rng_seed", 0)
    _write_report(args.out, f"binding_orbit{args.candidate}.json", payload,
                  started)
    print(f"binding verdict for orbit {args.candidate}: {report.verdict}")
    return report.exit_code


def cmd_audit(args):
    started = time.time()
    cfg, form = load_config(args.config)
    db = _load_db(form, args.orbits)
    _require_artifact(args.disk, "reeb-atlas disk-gen")
    disk = load_disk(args.disk)
    report = necessity_audit(form, disk, db, args.binding)
    payload = report.to_json_dict()
    payload["rng_seed"] = cfg.get("rng_seed", 0)
    _write_report(args.out, f"audit_binding{args.binding}.json", payload,
                  started)
    if report.passed:
        print("necessity audit passed")
        return 0
    print("NECESSITY AUDIT ALARMS (numerical inconsistency):")
    for alarm in report.alarms:
        print("  -", alarm)
    return 1


# ---------------------------------------------------------------------------
# property-suite validation
# ---------------------------------------------------------------------------

def run_validation():
    """Quick module property battery; prints one line per suite."""
    rng = np.random.default_rng(0)
    results = []

    def suite(name, fn):
        try:
            fn()
            results.append((name, True, ""))
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            results.append((name, False, f"{type(exc).__name__}: {exc}"))

    def contact_suite():
        form = StarForm.ellipsoid(1.0, np.sqrt(2.0))
        from .contact import (lambda0, omega_form, project_to_sigma,
                              reeb_vector, sphere_samples, xi_frame)
        pts = project_to_sigma(form, sphere_samples(16))
        R = reeb_vector(form, pts)
        assert np.abs(lambda0(pts, R) - 1).max() < 1e-9
        assert np.abs(np.vecdot(form.grad_H(pts), R)).max() < 1e-9
        fr = xi_frame(form, pts)
        assert np.abs(omega_form(fr.e1, fr.e2) - 1).max() < 1e-12
        for _ in range(16):
            x = rng.normal(size=4)
            s = rng.uniform(0.5, 2.0)
            assert abs(form.H(s * x) - s * s * form.H(x)) < 1e-12 * form.H(s * x)

    def flow_suite():
        from .flow import flow_map
        rs = StarForm.round_sphere()
        x = np.array([1.0, 0, 0, 0])
        assert np.linalg.norm(flow_map(rs, x, np.pi / 2) + x) < 1e-8
        assert np.linalg.norm(flow_map(rs, x, np.pi) - x) < 1e-8

    def cz_suite():
        from . import cz
        for _ in range(10):
            phi = cz.random_nondegenerate_path(rng)
            m = int(rng.integers(-2, 3))
            psi = cz.random_loop(rng, m, n=phi.n_steps)
            mu, _ = cz.cz_from_interval(cz.rotation_interval(phi))
            mu2, _ = cz.cz_from_interval(
                cz.rotation_interval(cz.compose_paths(psi, phi)))
            mu3, _ = cz.cz_from_interval(
                cz.rotation_interval(cz.invert_path(phi)))
            assert mu2 == 2 * m + mu and mu3 == -mu
        one, _ = cz.cz_from_interval(
            cz.rotation_interval(cz.pure_rotation_path(0.5)))
        assert one == 1

    def linking_suite():
        form = StarForm.ellipsoid(1.0, np.sqrt(2.0))
        from .orbits import refine_orbit
        g1 = refine_orbit(form, np.array([1.0, 0, 0, 0]), np.pi)
        g2 = refine_orbit(form, np.array([0.0, 0, form.r_squared[1] ** 0.5, 0]),
                          np.sqrt(2) * np.pi)
        t1 = trace_orbit(form, g1, n=512)
        t2 = trace_orbit(form, g2, n=512)
        assert linking_number(t1, t2)[0] == 1
        assert self_linking(form, g1) == -1
        assert unknot_check(t1).status == "certified_unknot"

    suite("contact invariants", contact_suite)
    suite("flow specializations", flow_suite)
    suite("index axioms", cz_suite)
    suite("linking oracles", linking_suite)

    failed = 0
    for name, ok, msg in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" -- {msg}" if msg else ""))
        failed += not ok
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="reeb-atlas",
        description="Periodic Reeb orbits, indices, linking, and disk-like "
                    "global sections on star-shaped energy levels",
    )
    p.add_argument("--validate", action="store_true",
                   help="run the module property suites and exit")
    sub = p.add_subparsers(dest="command")

    def add(name, fn, **flags):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="run config JSON")
        sp.add_argument("--out", default="out", help="output directory")
        for flag, spec in flags.items():
            sp.add_argument(flag, **spec)
        sp.set_defaults(func=fn)
        return sp

    add("orbits-find", cmd_orbits_find,
        **{"--tmax": {"type": float, "default": None},
           "--seeds": {"type": int, "default": None},
           "--rng-seed": {"type": int, "default": None, "dest": "rng_seed"}})
    add("orbit-index", cmd_orbit_index,
        **{"--orbits": {"required": True},
           "--orbit": {"type": int, "required": True},
           "--n-grid": {"type": int, "default": 1024, "dest": "n_grid"}})
    add("link", cmd_link, **{"--orbits": {"required": True}})
    add("selflink", cmd_selflink, **{"--orbits": {"required": True}})
    add("unknot", cmd_unknot, **{"--orbits": {"required": True}})
    add("disk-gen", cmd_disk_gen,
        **{"--orbits": {"required": True},
           "--orbit": {"type": int, "required": True},
           "--theta0": {"type": float, "default": 0.0},
           "--nr": {"type": int, "default": 128},
           "--ntheta": {"type": int, "default": 256}})
    add("section-verify", cmd_section_verify,
        **{"--disk": {"required": True},
           "--seeds": {"type": int, "default": None},
           "--t-budget": {"type": float, "default": None, "dest": "t_budget"}})
    add("binding-check", cmd_binding_check,
        **{"--orbits": {"required": True},
           "--candidate": {"type": int, "required": True}})
    add("audit", cmd_audit,
        **{"--orbits": {"required": True},
           "--disk": {"required": True},
           "--binding": {"type": int, "required": True}})
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.validate:
        return run_validation()
    if not getattr(args, "command", None):
        parser.print_help()
        return 64
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 64
    except MissingArtifactError as exc:
        print(f"dependency error: {exc}", file=sys.stderr)
        return 65
    except DegenerateOrbitError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 3
    except ReebAtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
