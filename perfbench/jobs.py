"""Job pools of the three benchmark workloads, their execution and checks.

A workload is a fixed list of slots.  Each slot has a few variants of
nearly equal cost (nearby primes, other constants, other random
polynomials drawn from a fixed pool seed), and every variant's report is
recorded in ``reference.json``.  The run seed picks one variant per slot
and the job order, so the inputs change with the seed while the work per
run stays comparable across seeds.

Jobs reach the program through ``fqpencil.cli.run_command`` (what a CLI
user calls) or, for univariate work the CLI cannot express (coefficients
outside the prime field), through the public library functions.  Every
name is looked up at call time, so a traced run sees the wrapped version.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("count_prime", "count_ext", "algebra")
POOL_SEED = "fqpencil-perfbench-pool-1"
VARIANTS = 4


@dataclass(frozen=True)
class Job:
    key: str                      # unique; indexes reference.json
    kind: str                     # cli | factor | is_irreducible | necklace
    argv: tuple = ()              # cli jobs
    spec: tuple = ()              # library jobs: (p, k, coefficient indices)
    pairs: int = 0                # q^2 for count jobs
    polys: int = 0                # 1 for factor / is_irreducible jobs
    conic_q: int = 0              # q when the criterion-1 closed form applies


def _count_job(q, poly, threads=None, conic=False):
    argv = ["count", "--q", str(q), "--poly", poly]
    key = "cli " + " ".join(argv)
    if threads is not None:
        argv += ["--threads", str(threads)]
    return Job(key=key, kind="cli", argv=tuple(argv), pairs=q * q,
               conic_q=q if conic else 0)


def _cli_job(*argv):
    return Job(key="cli " + " ".join(argv), kind="cli", argv=argv)


def _poly_job(kind, p, k, degree, variant):
    """Seeded random monic polynomial of the given degree over F_{p^k}."""
    rng = random.Random(f"{POOL_SEED}:{kind}:{p}^{k}:{degree}:{variant}")
    q = p ** k
    idx = tuple(rng.randrange(q) for _ in range(degree)) + (1,)
    key = f"{kind} p={p} k={k} coeffs={','.join(map(str, idx))}"
    return Job(key=key, kind=kind, spec=(p, k, idx), polys=1)


def slots(workload, threads=1):
    """The workload's slots, each a list of interchangeable jobs."""
    if workload == "count_prime":
        # numpy prime path (k = 1, d <= 3); the thread pool is engaged.
        return [
            [_count_job(q, "x^2+x-t", threads, conic=True)
             for q in (1993, 1997, 1999, 2003)],
            # primes = 1 mod 3 only: at p = 2 mod 3 the same cubic count
            # takes 2-3 times as long at the seed, which would make the
            # run's cost depend on the seed.
            [_count_job(q, "t^3+x^3+1", threads)
             for q in (3457, 3463, 3499, 3511)],
            [_count_job(q, poly, threads) for q, poly in (
                (3001, "t^3+x^3+t+1"), (3019, "t^3+x^3+t+1"),
                (3001, "t^3+x^3+x+2"), (3019, "t^3+x^3+x+2"))],
        ]
    if workload == "count_ext":
        # per-pair generic path: pair tables (25, 49), log tables (169),
        # and the Rabin test for a quartic over a prime field.
        return [
            [_count_job(25, f"t^3+x^3+{c}") for c in (1, 2, 3, 4)],
            # variants that build the same fields, so set-up and memory
            # do not depend on the seed
            [_count_job(49, f"t^3+x^3+{c}") for c in (2, 3, 4, 5)],
            [_count_job(169, poly, conic=True) for poly in (
                "x^2+x-t", "x^2+2*x-t", "x^2+3*x-t", "x^2+x+t")],
            [_count_job(61, f"x^4+t^4+{c}") for c in (3, 4, 5)],
        ]
    if workload == "algebra":
        out = []
        for p, k in ((7, 1), (7, 2), (3, 5), (3, 11)):
            for degree in (2, 9, 16, 23, 30):
                out.append([_poly_job("factor", p, k, degree, v)
                            for v in range(VARIANTS)])
            for degree in (4, 8, 12):
                out.append([_poly_job("is_irreducible", p, k, degree, v)
                            for v in range(VARIANTS)])
        fixed = [
            Job(key="necklace p=3 k=2 n=5", kind="necklace", spec=(3, 2, 5)),
            _cli_job("pencil", "--p", "7", "--k", "5", "--poly", "x^2+x-t"),
            _cli_job("pencil", "--q", "625", "--poly", "x^2+x-t",
                     "--poly", "t^3+x^3+1"),
            _cli_job("search", "--q", "7", "--poly", "x^2+x-t",
                     "--poly", "t^3+x^3+1", "--smax", "3"),
            _cli_job("conrad", "--q", "3", "--b", "5", "--D", "5"),
            _cli_job("curve", "--q", "3", "--poly", "x^5+t^5+1"),
        ]
        return out + [[job] for job in fixed]
    raise ValueError(f"unknown workload {workload!r}")


def make_jobs(workload, seed, threads=1):
    """The seed's job list: one variant per slot, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = [rng.choice(variants) for variants in slots(workload, threads)]
    rng.shuffle(jobs)
    return jobs


def fields_of(jobs, reference):
    """Every canonical field the jobs build, as recorded with the reference."""
    return sorted({tuple(pk) for job in jobs
                   for pk in reference[job.key]["fields"]})


# ---------------------------------------------------------------------------
# execution


def prepare(job):
    """Inputs built outside the timed region; returns a zero-argument call."""
    import fqpencil
    import fqpencil.cli

    if job.kind == "cli":
        argv = list(job.argv)
        return lambda: fqpencil.cli.run_command(argv)
    p, k, arg = job.spec
    F = fqpencil.make_field(p, k)
    if job.kind == "necklace":
        return lambda: fqpencil.count_monic_irreducibles(F, arg)
    f = fqpencil.UnivariatePoly(F, [F.element_at(i) for i in arg])
    if job.kind == "factor":
        return lambda: (f, fqpencil.factor(f))
    return lambda: fqpencil.is_irreducible(f)


def report_of(job, result):
    """(exit code, report text) with the wall-clock field removed."""
    if job.kind == "cli":
        code, text = result
        report = json.loads(text)
        report.pop("timing_seconds", None)
        return code, json.dumps(report, sort_keys=True, indent=2)
    if job.kind == "factor":
        f, (unit, facs) = result
        from fqpencil import UnivariatePoly
        report = {"unit": UnivariatePoly(f.field, [unit]).format(),
                  "factors": [[g.format(), m] for g, m in facs]}
    elif job.kind == "is_irreducible":
        report = {"irreducible": bool(result)}
    else:
        report = {"count": int(result)}
    return 0, json.dumps(report, sort_keys=True, indent=2)


def oracle_errors(job, result, code, text):
    """Independent checks that need no recorded reference."""
    errors = []
    if job.conic_q:
        # criterion 1: for x^2 + c x -+ t the line x = a t + b gives a
        # quadratic whose discriminant runs over all of F_q as b does
        # (a != 0), and a linear value when a = 0.
        q = job.conic_q
        report = json.loads(text)
        full = (q - 1) ** 2 // 2
        if (report.get("count_full_degree"), report.get("count_inclusive")) \
                != (full, full + q):
            errors.append("conic count differs from the closed form")
    if job.kind == "factor":
        f, (unit, facs) = result
        from fqpencil import UnivariatePoly
        prod = UnivariatePoly(f.field, [unit])
        for g, m in facs:
            for _ in range(m):
                prod = prod * g
        if prod != f:
            errors.append("factor multiply-back differs from the input")
    if job.kind == "necklace":
        import sympy
        p, k, n = job.spec
        q = p ** k
        expected = sum(sympy.mobius(d) * q ** (n // d)
                       for d in sympy.divisors(n)) // n
        if result != expected:
            errors.append("necklace formula disagrees")
    return errors


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["jobs"]


def check(job, result, reference):
    """List of reasons the job's output is wrong (empty when correct)."""
    code, text = report_of(job, result)
    errors = oracle_errors(job, result, code, text)
    ref = reference.get(job.key)
    if ref is None:
        errors.append("no recorded reference")
    elif (ref["exit"], ref["report"]) != (code, text):
        errors.append("report differs from the recorded reference")
    return errors
