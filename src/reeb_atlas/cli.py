"""Command-line front end: configuration, pipeline orchestration, reports.

Every command reads a JSON run configuration, executes one stage of the
pipeline, and writes a deterministic JSON report (timestamps live in a
separate ``.meta.json`` sidecar so that reruns are byte-identical).  Exit
codes: 0 success / hypotheses hold, 2 binding conditions fail, 3
inconclusive or degeneracy-flagged, 64 bad configuration or usage, 65
missing prerequisite artifact, 1 runtime error.
"""

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from . import _IMPORT_STARTED, __version__
from .binding import check_binding, necessity_audit, report_fields
from .contact import StarForm
from .cz import orbit_index_report, prime_table
from .errors import (ConfigError, DegenerateOrbitError, DomainError,
                     MissingArtifactError, ReebAtlasError, check_keys, raised)
from .flow import counting
from .linking import (cover_linking, cover_self_linking, linking_checks,
                      prime_traces, self_linking_checks, unknot_check)
from .orbits import find_orbits, load_orbits, save_orbits
from .sections import (builtin_disk, counting_crossings, load_disk, save_disk,
                       verify_global_section, write_return_csv)

# per run key, its type and lower bound: a float must exceed it, an integer
# (an integral float counts, a boolean does not) must reach it.  The config
# holds the first four; a flag keeps the bounds of the key it sets, and the
# grid sizes are flags only (a page's plane needs three points of the trace)
RUN_KEYS = {"tmax": (float, 0), "seeds": (int, 1), "rng_seed": (int, 0),
            "t_budget": (float, 0), "n_grid": (int, 1), "nr": (int, 1),
            "ntheta": (int, 3)}
CONFIG_KEYS = ("tmax", "seeds", "rng_seed", "t_budget")


def _run_fault(key, value):
    """Why ``value`` is not one of run key ``key``, or None if it is."""
    kind, low = RUN_KEYS[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return "must be a number"
    if kind is int and not float(value).is_integer():
        return "must be an integer"
    if value <= low if kind is float else value < low:
        return f"must be {'above' if kind is float else 'at least'} {low}"


def load_config(path):
    """Parse and check a run configuration, an object of a ``form`` and the
    run keys ``CONFIG_KEYS``.  The first fault raises ``ConfigError``: NaN,
    the infinities or a float overflow at parse time, then the top level,
    each run key in table order, then the form (``StarForm.from_json_dict``).
    A missing file or a directory raises ``MissingArtifactError``."""
    def finite(parse):
        def check(token):
            if not np.isfinite(float(token)):
                raise ConfigError(f"non-finite number {token!r} rejected")
            return parse(token)
        return check

    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=finite(float),
                            parse_float=finite(float), parse_int=finite(int))
    except (FileNotFoundError, IsADirectoryError):
        raise MissingArtifactError(path, "write a config file first")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}", "")
    check_keys(raw, ("form",), CONFIG_KEYS, "")
    for key in CONFIG_KEYS:
        if key in raw and (fault := _run_fault(key, raw[key])):
            raise ConfigError(f"{key} {raw[key]!r}: {fault}", f"/{key}")
    try:
        return raw, StarForm.from_json_dict(raw["form"])
    except ConfigError as exc:
        raise ConfigError(exc.message, "/form" + exc.pointer) from None


def _config(args):
    """A command's run configuration with its set flags laid over it, each
    checked first: every float flag must be finite, and a flag keeps its
    bounds in ``RUN_KEYS``."""
    given = vars(args)
    flags = {k: v for k, v in given.items() if k in RUN_KEYS and v is not None}
    bad = [(k, "not a finite number") for k, v in given.items()
           if isinstance(v, float) and not np.isfinite(v)]
    bad += [(k, fault) for k, v in flags.items() if (fault := _run_fault(k, v))]
    for key, message in bad:
        raise ConfigError(f"--{key.replace('_', '-')} {given[key]}: {message}",
                          f"/{key}" if key in CONFIG_KEYS else "")
    cfg, form = load_config(args.config)
    return {**cfg, **flags}, form


def _write_report(out_dir, name, payload, started, meta):
    """Write the report and its sidecar: the command's ``meta`` under the
    report's name, the version, the process's import time, the wall time
    since ``started`` and the time of writing."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True, default=_jsonify)
        fh.write("\n")
    meta = dict(meta, report=name, version=__version__,
                import_seconds=IMPORT_SECONDS,
                wall_seconds=round(time.time() - started, 3),
                written_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


# ---------------------------------------------------------------------------
# commands: each computes its stage from the parsed flags, the run config and
# the form, and returns (report name, payload, sidecar meta, exit code,
# message); ``main`` records rng_seed, writes the report and prints
# ---------------------------------------------------------------------------

def cmd_orbits_find(args, cfg, form):
    t_max = cfg.get("tmax", 10.0)
    log = []
    db = find_orbits(form, float(t_max), n_seeds=int(cfg.get("seeds", 256)),
                     rng_seed=int(cfg.get("rng_seed", 0)), log=log)
    os.makedirs(args.out, exist_ok=True)
    save_orbits(db, os.path.join(args.out, "orbits.json"))
    payload = {
        "form_hash": db.form_hash,
        "t_max": float(t_max),
        "n_orbits": len(db),
        "orbits_file": "orbits.json",
        "periods": [o.T for o in db.orbits],
    }
    # the search funnel, with the reason of every dropped candidate
    meta = {"files": ["orbits.json"], "funnel": db.funnel, "drop_reasons": log}
    return ("orbits_report.json", payload, meta, 0,
            f"found {len(db)} orbit entries up to T = {t_max}")


def cmd_orbit_index(args, cfg, form):
    db = load_orbits(form, args.orbits)
    report = orbit_index_report(form, db[args.orbit], n_grid=args.n_grid)
    payload = dict(report, orbit_id=args.orbit)
    meta = {"resolution": payload.pop("resolution")}
    flags = report["degenerate_flags"]
    message = (f"degeneracy flagged; no index emitted: {'; '.join(flags)}"
               if flags else f"orbit {args.orbit}: index "
               f"{report['mu_geometric']} (both methods agree)")
    return (f"index_orbit{args.orbit}.json", payload, meta, 3 if flags else 0,
            message)


def cmd_link(args, cfg, form):
    db = load_orbits(form, args.orbits)
    pairs = []
    with prime_table():
        traces = prime_traces(form, db.orbits)
        for i, j in itertools.combinations(range(len(db)), 2):
            reason = next((f"orbit {k} was not traced: {traces[k]}"
                           for k in (i, j)
                           if isinstance(traces[k], ReebAtlasError)), None)
            if reason is None:
                try:
                    lk, resid = cover_linking(form, db[i], db[j])
                except ReebAtlasError as exc:
                    reason = str(exc)
            if reason is None:
                pairs.append({"a": i, "b": j, "lk": lk, "residual": resid})
            else:
                pairs.append({"a": i, "b": j, "lk": None, "skipped": reason})
        checks = linking_checks(db.orbits)
    return ("links.json", {"pairs": pairs}, {"linking_checks": checks}, 0,
            f"computed {len(pairs)} pair linkings")


def cmd_selflink(args, cfg, form):
    db = load_orbits(form, args.orbits)
    rows = []
    with prime_table():
        prime_traces(form, db.orbits)  # every prime in one batch
        for i, orbit in enumerate(db.orbits):
            try:
                rows.append({"orbit": i, "sl": cover_self_linking(form, orbit)})
            except ReebAtlasError as exc:
                rows.append({"orbit": i, "sl": None, "skipped": str(exc)})
        checks = self_linking_checks(db.orbits)
    return ("selflink.json", {"self_linking": rows},
            {"self_linking_checks": checks}, 0,
            f"computed {len(rows)} self-linking numbers")


def cmd_unknot(args, cfg, form):
    db = load_orbits(form, args.orbits)
    rows = []
    for i, (orbit, trace) in enumerate(zip(db.orbits,
                                           prime_traces(form, db.orbits))):
        if orbit.multiplicity != 1:
            rows.append({"orbit": i, "status": "not-simply-covered",
                         "crossings": None})
            continue
        try:
            v = unknot_check(raised([trace])[0])
        except ReebAtlasError as exc:
            rows.append({"orbit": i, "status": None, "crossings": None,
                         "skipped": str(exc)})
            continue
        rows.append({"orbit": i, "status": v.status,
                     "crossings": v.crossing_count_after_reduction})
    return ("unknot.json", {"knots": rows}, {}, 0,
            f"checked {len(rows)} orbit knots")


def cmd_disk_gen(args, cfg, form):
    db = load_orbits(form, args.orbits)
    disk = builtin_disk(form, db[args.orbit], theta0=args.theta0,
                        n_r=args.nr, n_theta=args.ntheta)
    disk.orbit_ref = args.orbit
    disk.validate()
    os.makedirs(args.out, exist_ok=True)
    name = f"disk_orbit{args.orbit}.json"
    save_disk(disk, os.path.join(args.out, name))
    payload = {
        "disk_file": name,
        "orbit_ref": args.orbit,
        "n_r": disk.n_r,
        "n_theta": disk.n_theta,
        "theta0": args.theta0,
    }
    return (f"disk_orbit{args.orbit}_report.json", payload, {"files": [name]},
            0, f"wrote {os.path.join(args.out, name)}")


def cmd_section_verify(args, cfg, form):
    disk = load_disk(args.disk)
    t_budget = cfg.get("t_budget")
    if t_budget is None:
        raise ConfigError("t_budget required (flag --t-budget or config)",
                          "/t_budget")
    with counting() as work, counting_crossings() as search:
        verdict, fw, bw = verify_global_section(
            form, disk, n_seeds=args.seeds, t_budget=float(t_budget))
    # per direction, the seeds' outcomes and search work; both directions
    # share one batched stepper, whose counts are the whole command's
    return_maps = {"stepper": dict(work)}
    for name, recs in (("forward", fw), ("backward", bw)):
        return_maps[name] = dict(
            seeds=len(recs), returns=sum("return_time" in r for r in recs),
            timeouts=sum(r["timeout"] for r in recs),
            chunk_rounds=max(r["chunks"] for r in recs),
            **{k: sum(r[k] for r in recs) for k in (
                "steps", "rejected_near_binding", "rejected_by_polish")})
    os.makedirs(args.out, exist_ok=True)
    files = ["return_map_forward.csv", "return_map_backward.csv"]
    for name, recs in zip(files, (fw, bw)):
        write_return_csv(os.path.join(args.out, name), recs)
    return ("section_report.json", verdict,
            {"files": files, "return_maps": return_maps,
             "crossing_search": dict(search)},
            0 if verdict["passes"] else 3,
            f"section verdict: passes={verdict['passes']} "
            f"(timeouts {verdict['timeouts_forward']}+{verdict['timeouts_backward']},"
            f" min transversality {verdict['min_transversality']:.4f})")


def cmd_binding_check(args, cfg, form):
    db = load_orbits(form, args.orbits)
    with counting() as work:
        report = check_binding(form, db, args.candidate)
    meta = dict(report_fields(report, True), stepper=dict(work))
    return (f"binding_orbit{args.candidate}.json", report.to_json_dict(), meta,
            report.exit_code,
            f"binding verdict for orbit {args.candidate}: {report.verdict}")


def cmd_audit(args, cfg, form):
    db = load_orbits(form, args.orbits)
    disk = load_disk(args.disk)
    db[args.binding]  # an id outside the census is named before the page
    if disk.orbit_ref not in (None, args.binding):
        raise DomainError(f"the disk spans orbit {disk.orbit_ref}, "
                          f"not the binding {args.binding}")
    report = necessity_audit(form, disk, db, args.binding)
    message = "necessity audit passed" if report.passed else "\n  - ".join(
        ["NECESSITY AUDIT ALARMS (numerical inconsistency):", *report.alarms])
    return (f"audit_binding{args.binding}.json", report.to_json_dict(),
            report_fields(report, True), 0 if report.passed else 1, message)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="reeb-atlas",
        description="Periodic Reeb orbits, indices, linking, and disk-like "
                    "global sections on star-shaped energy levels",
    )
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
           # 128 keeps the sqrt profile's steepest step below the chord bound
           "--nr": {"type": int, "default": 128},
           "--ntheta": {"type": int, "default": 256}})
    add("section-verify", cmd_section_verify,
        **{"--disk": {"required": True},
           "--seeds": {"type": int, "default": 500},
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
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's usage error is 2: EX_USAGE instead
        if exc.code == 2:
            return 64
        raise
    if not getattr(args, "command", None):
        parser.print_help()
        return 64
    try:
        started = time.time()
        cfg, form = _config(args)
        name, payload, meta, code, message = args.func(args, cfg, form)
        payload["rng_seed"] = int(cfg.get("rng_seed", 0))
        _write_report(args.out, name, payload, started, meta)
        print(message)
        return code
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


# seconds from the start of the package's import to the end of this module's
IMPORT_SECONDS = round(time.perf_counter() - _IMPORT_STARTED, 3)

if __name__ == "__main__":
    sys.exit(main())
