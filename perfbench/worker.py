"""Measurement process: runs a workload's CLI session in-process, repeatedly.

Started by ``run.py`` with the BLAS thread count pinned to 1 and ``src`` on
the path.  Sessions repeat until ``--seconds`` have been measured; each
command's time is its median over the sessions, and a stage's time is the sum
of its commands' medians.  Every time is reported both as measured and
rescaled to a reference CPU speed by ``speed.SpeedProbe``.  The last stdout
line is a JSON summary.
"""

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REF_SAMPLE_S, SpeedProbe, at_reference_speed  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

MIN_SAMPLES = 10


def run_session(cli_main, plan, out, tally):
    """Run the plan's commands once under the speed probe.

    Returns each command's wall seconds less the probe's own samples, and
    each command's mean probe sample in seconds: over the samples taken while
    it ran, or over the session's when it ran for fewer than MIN_SAMPLES.
    """
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    times = []
    marks = []
    with SpeedProbe() as probe:
        for cmd in plan.commands:
            argv = cmd.argv(plan.config, out, plan.inputs)
            err = io.StringIO()
            spent, first = probe.spent, len(probe.samples)
            crash = None
            t0 = time.perf_counter()
            try:
                with redirect_stdout(io.StringIO()), redirect_stderr(err):
                    rc = cli_main(argv)
            except SystemExit as exc:  # argparse rejects an argv this way
                rc = 0 if exc.code is None else exc.code
            except Exception:  # noqa: BLE001 - an exception is a failed operation
                crash = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            times.append(time.perf_counter() - t0 - (probe.spent - spent))
            marks.append((first, len(probe.samples)))
            if crash is not None:
                tally.add(f"{cmd.label}.exception", False, crash)
                continue
            tally.add(f"{cmd.label}.exit_code", rc == 0,
                      f"expected 0, got {rc}: {err.getvalue().strip()[:200]}")
            if rc != 0:
                continue
            try:
                rows = checks.CHECKS[cmd.kind](out, plan.reference, cmd.target)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                rows = [(f"{cmd.label}.report", False,
                         f"{type(exc).__name__}: {exc}")]
            for row in rows:
                tally.add(*row)
    overall = statistics.mean(probe.samples or [REF_SAMPLE_S])
    speeds = [statistics.mean(probe.samples[a:b]) if b - a >= MIN_SAMPLES
              else overall for a, b in marks]
    return times, speeds


def run_sessions(cli_main, plan, out, tally, seconds):
    """Whole sessions until ``seconds`` have been measured; at least one.

    Also returns the process's peak RSS in MB at the end of the first session.
    Each later session adds a few MB, and how many fit in ``seconds`` depends
    on the machine's speed, so the peak at the end of the run would too.
    """
    start = time.perf_counter()
    sessions = [run_session(cli_main, plan, out, tally)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() - start < seconds:
        sessions.append(run_session(cli_main, plan, out, tally))
    return sessions, rss_mb


def _medians(plan, sessions):
    med = [statistics.median(col) for col in zip(*sessions)]
    stages = {}
    for cmd, t in zip(plan.commands, med):
        stages[f"{cmd.stage}_s"] = stages.get(f"{cmd.stage}_s", 0.0) + t
    return {"session_s": sum(med), "stages": stages,
            "commands": {c.label: t for c, t in zip(plan.commands, med)}}


def summarize(plan, sessions):
    """Per-command medians over sessions, summed by stage and in total.

    ``normalized`` repeats them with every command's time rescaled from the
    speed the probe measured while it ran to the reference speed.
    """
    wall = [times for times, _ in sessions]
    out = _medians(plan, wall)
    out["normalized"] = _medians(plan, [
        [at_reference_speed(t, v) for t, v in zip(times, speeds)]
        for times, speeds in sessions])
    out["sessions"] = len(sessions)
    out["session_runs_s"] = [sum(times) for times in wall]
    out["probe_sample_s"] = [statistics.mean(speeds) for _, speeds in sessions]
    out["command_runs_s"] = {c.label: list(col)
                             for c, col in zip(plan.commands, zip(*wall))}
    return out


def machine_facts():
    import importlib.util

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def measure(plan, seconds, trace, work):
    """Run the plan for ``seconds`` and return the summary dictionary."""
    from reeb_atlas import cli

    if plan.census_input:
        workloads.write_census(plan)
    cli.load_config(plan.config)  # lazy imports, paid once per CLI process
    out = os.path.join(work, "out")
    tally = checks.Tally()
    budget = seconds / 2.0 if trace else seconds
    sessions, rss_mb = run_sessions(cli.main, plan, out, tally, budget)
    plain = summarize(plan, sessions)
    result = {"plain": plain}
    if trace:
        tracer = Tracer().install()
        try:
            sessions, _ = run_sessions(cli.main, plan, out, tally, budget)
        finally:
            tracer.uninstall()
        traced = summarize(plan, sessions)
        result["traced"] = traced
        overhead = (traced["normalized"]["session_s"]
                    / plain["normalized"]["session_s"] - 1.0)
        result["layers"] = layer_metrics(tracer, len(sessions),
                                         traced["session_s"], overhead)
        result["absent"] = tracer.absent
        result["trace_table"] = tracer.table()
    shutil.rmtree(out, ignore_errors=True)
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "failures": tally.failures,
        "peak_rss_mb": rss_mb,
        "machine": machine_facts(),
    })
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True, help="scratch directory")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    plan = workloads.build(args.workload, args.seed,
                           os.path.join(args.work, "inputs"), tiny=args.tiny)
    print(json.dumps(measure(plan, args.seconds, bool(args.trace), args.work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
