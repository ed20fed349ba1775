"""Self-test of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

Takes about a minute: every workload's job list runs once untraced and
twice traced.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from jobs import (WORKLOADS, load_reference, make_jobs, prepare,  # noqa: E402
                  report_of, slots)
from spans import TARGETS, Tracer  # noqa: E402

run.import_program()

# The spans each workload is meant to exercise (see README.md).
EXERCISED = {
    "count_prime": [
        "cli.run_command", "counting.count_irreducible_pairs",
        "counting.verify_application", "bivar.is_smooth",
        "lifting.bivariate_irreducible", "parallel.pmap"],
    "count_ext": [
        "cli.run_command", "counting.count_irreducible_pairs",
        "counting.verify_application", "bivar.restrict_to_line",
        "bivar.is_smooth", "lifting.bivariate_irreducible",
        "unipoly.is_irreducible", "unipoly.pow_mod", "unipoly.gcd",
        "parallel.pmap"],
    "algebra": [
        "cli.run_command", "unipoly.factor", "unipoly.is_irreducible",
        "unipoly.pow_mod", "unipoly.gcd", "unipoly.squarefree_part",
        "unipoly.count_monic_irreducibles", "polycore.ctx_build",
        "polycore.mulmod", "polycore.powmod", "polycore.frobenius",
        "pencil.pencil_discriminant", "pencil.find_generic_point",
        "pencil.fiber_pattern", "pencil.pattern_histogram",
        "reducible.verify_conrad", "counting.check_hypotheses",
        "counting.find_specialization", "bivar.curve_invariants",
        "lifting.bivariate_irreducible"],
}


def _reports(jobs, calls, tracer=None):
    out = []
    for i, (job, call) in enumerate(zip(jobs, calls)):
        if tracer is not None:
            tracer.job_id = i
        out.append(report_of(job, call()))
    return out


def _counts(tracer):
    calls = {name: c for name, (c, _) in tracer.layer_totals().items()}
    counters = {k: v for k, v in tracer.counters.items() if "_s." not in k}
    return calls, counters, len(tracer.start)


def test_every_span_is_exercised_somewhere():
    named = {name for name, _, _ in TARGETS}
    assert named == {n for names in EXERCISED.values() for n in names}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.PER_LAYER
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(run.SPEED_KERNEL) == sorted(WORKLOADS)


def test_every_variant_has_a_reference():
    reference = load_reference()
    for workload in WORKLOADS:
        for variants in slots(workload):
            for job in variants:
                assert job.key in reference, job.key


def test_jobs_follow_the_seed():
    for workload in WORKLOADS:
        assert make_jobs(workload, 1) == make_jobs(workload, 1)
    assert make_jobs("algebra", 1) != make_jobs("algebra", 2)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs(workload):
    jobs = make_jobs(workload, run.DEFAULT_SEED, min(2, os.cpu_count() or 1))
    calls = [prepare(job) for job in jobs]
    plain = _reports(jobs, calls)   # also fills the program's caches
    runs = []
    for _ in range(2):
        with Tracer() as tracer:
            reports = _reports(jobs, calls, tracer)
        runs.append((reports, tracer))

    reference = load_reference()
    assert plain == [(reference[j.key]["exit"], reference[j.key]["report"])
                     for j in jobs]
    assert runs[0][0] == plain and runs[1][0] == plain

    tracer = runs[0][1]
    assert tracer.missing == []
    totals = tracer.layer_totals()
    for name in EXERCISED[workload]:
        assert totals[name][0] >= 1, name
    assert _counts(runs[0][1]) == _counts(runs[1][1])


def test_refuses_to_run_without_the_program():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
