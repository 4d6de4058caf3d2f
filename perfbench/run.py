"""reeb-atlas pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ellipsoid-session --seed 0 \
        --seconds 15 --trace 0

Writes the workload's inputs from the seed, measures set-up time in fresh
interpreters, runs the CLI session in a child process (``worker.py``) for
``--seconds`` and checks every report against references.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The line before it
holds the details: sizes, inputs, machine facts, per-command and per-stage
times, failed checks and the layer/workload interaction table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import at_reference_speed  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_seconds(config, env):
    """Set-up time of fresh interpreters, each rescaled to the reference
    speed by its own probe samples; the median, and every probe's record."""
    runs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_time.py"), config],
            env=env, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
            stdout=subprocess.PIPE, text=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        rec["normalized"] = at_reference_speed(rec["seconds"], rec["sample"])
        runs.append(rec)
    return statistics.median(r["normalized"] for r in runs), runs


def run_worker(args, work, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setup_s):
    norm = res["plain"]["normalized"]
    m = {
        "session_norm_s": (norm["session_s"], "s"),
        "index_norm_s": (norm["stages"]["index_s"], "s"),
        "topology_norm_s": (norm["stages"]["topology_s"], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes instead of the measured sizes")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "reeb_atlas", "cli.py")):
        print(f"error: no reeb_atlas sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        env = child_env()
        plan = workloads.build(args.workload, args.seed,
                               os.path.join(work, "inputs"), tiny=args.tiny)
        setup_s, setup_runs = (None, [])
        if not args.trace:
            setup_s, setup_runs = setup_seconds(plan.config, env)
        res = run_worker(args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": plan.sizes, "inputs": plan.params,
        "machine": res["machine"],
        "setup_runs": setup_runs,
        "plain": res["plain"],
        "traced": res.get("traced"),
        "error_rate": res["error_rate"],
        "failures": res["failures"],
        "absent_traced_names": res.get("absent", []),
        "trace_table": res.get("trace_table"),
        "interactions": workloads.INTERACTIONS,
    }
    metrics = res["layers"] if args.trace else end_to_end(res, setup_s)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
