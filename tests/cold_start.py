"""Fresh-process cost of each command of a session, per source tree.

    python tests/cold_start.py OUT SRC [SRC ...] [--session NAME] [--repeats N]

The session is the README's nine commands at the README's sizes (``readme``,
the default), a benchmark workload's seed-0 commands or the dumbbell's
search and binding checks (``dumbbell``), as ``tests/report_digests.py``
plans them.  Each repeat runs the session's
commands in order once per source tree, the first tree first in even
repeats and last in odd ones.  Every command is its own
``python -m reeb_atlas.cli`` process with ``PYTHONPATH=SRC``, one BLAS
thread and ``PYTHONDONTWRITEBYTECODE=1``, run in ``OUT/<k>/`` for the k-th
tree.  Each run prints one line,
``tree  command  exit  wall_s  maxrss_mb``: the process's wall time and its
``ru_maxrss``.  The medians per tree and command follow.  The benchmark runs
a session in one process, so this is where an import that only some
commands make shows.  pytest does not collect this file.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def run_cold(argv, src, cwd):
    """(exit code, wall seconds, ru_maxrss in MB) of one fresh CLI process."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "reeb_atlas.cli", *argv],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out")
    p.add_argument("src", nargs="+")
    p.add_argument("--session", default="readme")
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args()
    srcs = [os.path.abspath(src) for src in args.src]
    sys.path.insert(0, srcs[0])  # report_digests imports the package
    from report_digests import session

    # each tree's inputs, written in its own run directory
    plans = []
    for k in range(len(srcs)):
        cwd = os.path.join(os.path.abspath(args.out), str(k))
        os.makedirs(cwd, exist_ok=True)
        os.chdir(cwd)
        plans.append((cwd, session(args.session)))
    runs = {}
    for r in range(args.repeats):
        order = range(len(srcs))
        for k in (order if r % 2 == 0 else reversed(order)):
            src, (cwd, commands) = srcs[k], plans[k]
            for argv in commands:
                code, wall, rss = run_cold(argv, src, cwd)
                runs.setdefault((k, argv[0]), []).append((wall, rss))
                print(f"{k}  {argv[0]:15s} exit {code}  {wall:.3f} s  "
                      f"{rss:.1f} MB", flush=True)
    print("medians:")
    for (k, name), got in runs.items():
        print(f"{k}  {name:15s} {statistics.median(w for w, _ in got):.3f} s  "
              f"{statistics.median(r for _, r in got):.1f} MB  "
              f"({len(got)} runs of {srcs[k]})")


if __name__ == "__main__":
    main()
