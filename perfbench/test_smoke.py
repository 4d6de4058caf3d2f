"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_tiny_workload_is_correct(workload):
    res = run_bench(workload, trace=0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    res = run_bench("ellipsoid-session", trace=1)
    assert res["correct"]
    metrics = res["metrics"]
    assert set(metrics) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert metrics["trace.absent_names"]["value"] == 0
    for name in ("kernels.rhs_calls", "contact.xi_frame_calls",
                 "flow.integrate_calls", "orbits.polish_calls",
                 "cz.index_report_calls", "linking.linking_number_calls",
                 "sections.return_seeds"):
        assert metrics[name]["value"] > 0, name
    assert metrics["sections.timeouts"]["value"] == 0


def test_corrupted_reference_is_counted_and_named(tmp_path):
    plan = workloads.build("census-queries", 0, str(tmp_path / "inputs"),
                           tiny=True)
    plan.reference["mu"]["0"] += 1
    res = worker.measure(plan, 0, False, str(tmp_path))
    assert res["failed"] == 2 and res["error_rate"] > 0
    assert [f.split(":")[0] for f in res["failures"]] == [
        "orbit-index[0].mu_geometric", "orbit-index[0].mu_spectral"]


def test_missing_traced_name_is_reported_absent():
    from reeb_atlas import cli, cz

    original = cz.orbit_index_report
    tracer = tracing.Tracer(
        tracing.SPANS + tracing.COUNTERS
        + ["cz.no_such_function", "no_such_module.f",
           "contact.StarForm.no_such_method"])
    tracer.install()
    try:
        assert cli.orbit_index_report is cz.orbit_index_report
        assert cz.orbit_index_report.__wrapped__ is original
        metrics = tracing.layer_metrics(tracer, 1, 1.0, 0.0)
    finally:
        tracer.uninstall()
    assert tracer.absent == ["cz.no_such_function", "no_such_module.f",
                             "contact.StarForm.no_such_method"]
    assert metrics["trace.absent_names"]["value"] == 3
    assert cz.orbit_index_report is original and cli.orbit_index_report is original



def test_rejected_argv_is_a_failed_operation(tmp_path):
    plan = workloads.build("census-queries", 0, str(tmp_path / "inputs"),
                           tiny=True)
    tally = worker.checks.Tally()

    def rejecting_main(argv):
        raise SystemExit(2)  # what argparse does with an unknown flag

    worker.run_session(rejecting_main, plan, str(tmp_path / "out"), tally)
    assert tally.attempted == tally.failed == len(plan.commands)
    assert tally.failures[0].startswith(f"{plan.commands[0].label}.exit_code:")
