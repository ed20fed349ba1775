"""fqpencil benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload count_prime --seed 1 --seconds 30 --trace 0

The job list is made from the seed (see jobs.py) and run back to back in
this process, a closed loop with one client, round after round until the
time is up (at least MIN_ROUNDS rounds).  Every output is checked.  Fields
are built during set-up, outside the timed region; ``setup_s`` is the cold
set-up of a fresh process, measured separately in SETUP_PROBES children.
``wall_s`` and ``setup_s`` are scaled to a reference host speed, measured
by a fixed calibration kernel that runs after every timed job and probe
(see hostspeed.py); the measured times are printed beside them.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a shorter
untraced phase, then one traced round, and prints the per-layer metrics.
The last stdout line is the JSON result; a results file with provenance
is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import Speedometer
from jobs import WORKLOADS, check, fields_of, load_reference, make_jobs, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 1        # seed 7919 is held out for confirming claims
MIN_ROUNDS = 3
SETUP_PROBES = 5
MICRO_FIELDS = ((7, 1), (7, 2), (3, 5), (11, 4), (3, 11))
MICRO_OPS = ("add", "mul", "inv")
MICRO_N = 2000
MICRO_REPEATS = 5

# The calibration kernel whose slowdowns track the workload's (see
# hostspeed.py): count_prime spends its time in numpy's prime path, the
# others in the interpreter.
SPEED_KERNEL = {"count_prime": "numpy", "count_ext": "interp",
                "algebra": "interp"}


def _calls_s(name):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower")]


END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
]

PER_LAYER = [
    ("cli.run_command.self_s", "s", "lower"),
    ("cli.count_calls_per_count_job", "count", "lower"),
    *_calls_s("counting.count_irreducible_pairs"),
    ("counting.pairs_per_s.prime_d_le3", "pairs/s", "higher"),
    ("counting.pairs_per_s.other", "pairs/s", "higher"),
    ("counting.verify_application.self_s", "s", "lower"),
    ("counting.check_hypotheses.s", "s", "lower"),
    ("counting.find_specialization.s", "s", "lower"),
    *_calls_s("bivar.restrict_to_line"),
    *_calls_s("bivar.is_smooth"),
    ("bivar.curve_invariants.s", "s", "lower"),
    *_calls_s("lifting.bivariate_irreducible"),
    ("lifting.decided_ratio", "ratio", "higher"),
    *_calls_s("unipoly.factor"),
    *_calls_s("unipoly.is_irreducible"),
    *_calls_s("unipoly.pow_mod"),
    *_calls_s("unipoly.gcd"),
    ("unipoly.squarefree_part.s", "s", "lower"),
    ("unipoly.count_monic_irreducibles.s", "s", "lower"),
    *_calls_s("polycore.ctx_build"),
    *_calls_s("polycore.mulmod"),
    *_calls_s("polycore.powmod"),
    *_calls_s("polycore.frobenius"),
    *_calls_s("pencil.pencil_discriminant"),
    ("pencil.find_generic_point.s", "s", "lower"),
    ("pencil.generic_hit_ratio", "ratio", "higher"),
    *_calls_s("pencil.fiber_pattern"),
    ("pencil.pattern_histogram.self_s", "s", "lower"),
    ("reducible.verify_conrad.s", "s", "lower"),
    ("reducible.substitutions_per_s", "1/s", "higher"),
    ("field.make_field.s", "s", "lower"),
    *[(f"field.{op}_ns.q{p ** k}", "ns", "lower")
      for op in MICRO_OPS for p, k in MICRO_FIELDS],
    *_calls_s("parallel.pmap"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.unwrapped_targets", "count", "lower"),
]


def import_program():
    """Import fqpencil from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "fqpencil" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))
    import fqpencil
    import fqpencil.cli  # noqa: F401  (run_command is looked up per call)
    if Path(fqpencil.__file__).resolve().parent != (src / "fqpencil").resolve():
        sys.exit(f"perfbench: fqpencil imported from {fqpencil.__file__}")
    return fqpencil


def git_sha():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, threads):
    import numpy
    import sympy
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "threads": threads,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "sympy": sympy.__version__,
        "git_sha": git_sha(), "machine": platform.machine(),
    }


def setup_probes(fields, n):
    """Cold set-up measured in n fresh processes, one after another."""
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(fields)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def run_round(jobs, calls, reference, tracer=None, meter=None):
    """Run every job once; returns [(seconds, errors)] in job order.

    With a Speedometer, each job is followed by its (untimed) kernel."""
    out = []
    for i, (job, call) in enumerate(zip(jobs, calls)):
        if tracer is not None:
            tracer.job_id = i
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a job that raises is a failed job
            result = exc
        dt = perf_counter() - t0
        if meter is not None:
            meter.follow(dt)
        if isinstance(result, Exception):
            errors = [f"raised {type(result).__name__}: {result}"]
        else:
            errors = check(job, result, reference)
        out.append((dt, errors))
    return out


def measure(jobs, calls, reference, seconds, min_rounds, kernel):
    """Rounds until the next one would overrun `seconds`.

    Returns per-job samples, failures, rounds and the run's Speedometer."""
    samples = [[] for _ in jobs]
    failures = []
    meter = Speedometer(kernel)
    rounds = 0
    longest = 0.0
    t_start = perf_counter()
    while rounds < min_rounds or perf_counter() - t_start + longest <= seconds:
        r0 = perf_counter()
        for i, (dt, errors) in enumerate(
                run_round(jobs, calls, reference, meter=meter)):
            samples[i].append(dt)
            if errors:
                failures.append({"job": jobs[i].key, "errors": errors})
        longest = max(longest, perf_counter() - r0)
        rounds += 1
    return samples, failures, rounds, meter


def throughput(jobs, medians, attr):
    work = sum(getattr(j, attr) for j in jobs)
    secs = sum(m for j, m in zip(jobs, medians) if getattr(j, attr))
    return work / secs if work else None


def field_micro(seed):
    """ns per Field.add / mul / inv call on seeded nonzero element pairs."""
    import fqpencil
    out = {}
    for p, k in MICRO_FIELDS:
        F = fqpencil.make_field(p, k)
        rng = random.Random(f"micro:{seed}:{F.q}")
        xs = [F.element_at(rng.randrange(1, F.q)) for _ in range(MICRO_N)]
        ys = [F.element_at(rng.randrange(1, F.q)) for _ in range(MICRO_N)]
        for op in MICRO_OPS:
            fn = getattr(F, op)
            times = []
            for _ in range(MICRO_REPEATS):
                t0 = perf_counter()
                if op == "inv":
                    for a in xs:
                        fn(a)
                else:
                    for a, b in zip(xs, ys):
                        fn(a, b)
                times.append(perf_counter() - t0)
            out[f"field.{op}_ns.q{F.q}"] = statistics.median(times) / MICRO_N * 1e9
    return out


def layer_metrics(tracer, jobs, traced, untraced_medians, probes, micro):
    totals = tracer.layer_totals()
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for name, (calls, secs) in totals.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.s"] = secs
    count_jobs = [i for i, j in enumerate(jobs) if j.argv[:1] == ("count",)]
    values["cli.run_command.self_s"] = tracer.self_seconds("cli.run_command")
    values["cli.count_calls_per_count_job"] = ratio(
        tracer.count_in_jobs("counting.count_irreducible_pairs", count_jobs),
        len(count_jobs))
    for kind in ("prime_d_le3", "other"):
        values[f"counting.pairs_per_s.{kind}"] = ratio(
            c[f"counting.pairs.{kind}"], c[f"counting.pairs_s.{kind}"])
    values["counting.verify_application.self_s"] = tracer.self_seconds(
        "counting.verify_application")
    values["lifting.decided_ratio"] = ratio(
        c["lifting.decided"], totals["lifting.bivariate_irreducible"][0])
    values["pencil.generic_hit_ratio"] = ratio(
        c["pencil.points_found"], c["pencil.discriminants_tried"])
    values["pencil.pattern_histogram.self_s"] = tracer.self_seconds(
        "pencil.pattern_histogram")
    values["reducible.substitutions_per_s"] = ratio(
        c["reducible.substitutions"], totals["reducible.verify_conrad"][1])
    values["field.make_field.s"] = statistics.median(
        p["make_field_s"] for p in probes)
    values.update(micro)
    values["trace.overhead_s"] = sum(dt for dt, _ in traced) - sum(
        untraced_medians)
    values["trace.spans"] = len(tracer.start)
    values["trace.unwrapped_targets"] = len(tracer.missing)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    fqpencil = import_program()
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    threads = min(2, os.cpu_count() or 1) if args.workload == "count_prime" \
        else 1
    jobs = make_jobs(args.workload, args.seed, threads)
    fields = fields_of(jobs, reference)

    # set-up: cold set-up in fresh processes, then this process's own
    probes = setup_probes(fields, SETUP_PROBES)
    for p, k in fields:
        fqpencil.make_field(p, k)
    calls = [prepare(job) for job in jobs]
    kernel = SPEED_KERNEL[args.workload]

    if args.trace:
        from spans import Tracer
        samples, failures, rounds, meter = measure(
            jobs, calls, reference, args.seconds / 2, 2, kernel)
        medians = [statistics.median(s) for s in samples]
        with Tracer() as tracer:
            traced = run_round(jobs, calls, reference, tracer)
        failures += [{"job": j.key, "errors": e, "traced": True}
                     for j, (_, e) in zip(jobs, traced) if e]
        attempted = rounds * len(jobs) + len(jobs)
        metrics = layer_metrics(tracer, jobs, traced, medians, probes,
                                field_micro(args.seed))
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        extra = {"unwrapped_targets": tracer.missing,
                 "traced_job_s": [dt for dt, _ in traced]}
    else:
        samples, failures, rounds, meter = measure(
            jobs, calls, reference, args.seconds, MIN_ROUNDS, kernel)
        medians = [statistics.median(s) for s in samples]
        attempted = rounds * len(jobs)
        wall = sum(medians)
        setup = statistics.median(p["setup_s"] for p in probes)
        setup_speed = statistics.median(p["host_speed"] for p in probes)
        metrics = {
            "wall_s": {"value": wall * meter.speed(), "unit": "s"},
            "setup_s": {"value": statistics.median(
                p["setup_s"] * p["host_speed"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        extra = {
            "wall_measured_s": {"value": wall, "unit": "s"},
            "setup_measured_s": {"value": setup, "unit": "s"},
            "host_speed.jobs": {"value": meter.speed(), "unit": "ratio"},
            "host_speed.setup": {"value": setup_speed, "unit": "ratio"},
            "failed_frac": {"value": len(failures) / attempted,
                            "unit": "ratio"},
            "pairs_per_s": {"value": throughput(jobs, medians, "pairs"),
                            "unit": "pairs/s"},
            "polys_per_s": {"value": throughput(jobs, medians, "polys"),
                            "unit": "polys/s"},
        }

    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    record = {"provenance": provenance(args, threads), "rounds": rounds,
              "result": result, "extra": extra, "failures": failures,
              "setup_probes": probes,
              "host_speed": meter.summary(),
              "jobs": [{"key": j.key, "samples_s": s}
                       for j, s in zip(jobs, samples)]}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(jobs)} jobs x "
          f"{rounds} rounds, {len(failures)} failed")
    shown = dict(metrics)
    shown.update({k: v for k, v in extra.items()
                  if isinstance(v, dict) and v["value"] is not None})
    for name, m in shown.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for f in failures[:10]:
        print(f"FAILED {f['job']}: {'; '.join(f['errors'])}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
