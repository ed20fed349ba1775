"""Record the reference report of every job variant into reference.json.

Run from the repository root:

    python3 perfbench/record_reference.py

Each variant runs once; it must pass the independent oracles before its
report is stored.  The canonical fields a job builds (``make_field`` calls,
including the extension fields built inside the library) are stored with
it, so that a run can build them during set-up.  Re-record only when a
change is meant to alter reports.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import run
from jobs import REFERENCE_PATH, WORKLOADS, oracle_errors, prepare, report_of, slots


@contextmanager
def recording_fields(into):
    """Add (p, k) of every canonical make_field call to `into`."""
    import fqpencil.field
    original = fqpencil.field.make_field

    def make_field(p, k, modulus=None):
        if modulus is None:
            into.add((p, k))
        return original(p, k, modulus)

    owners = [m for name, m in list(sys.modules.items())
              if name.split(".")[0] == "fqpencil"
              and m.__dict__.get("make_field") is original]
    for m in owners:
        m.make_field = make_field
    try:
        yield
    finally:
        for m in owners:
            m.make_field = original


def main():
    run.import_program()
    refs = {}
    for workload in WORKLOADS:
        for variants in slots(workload):
            for job in dict.fromkeys(variants):
                fields = set()
                with recording_fields(fields):
                    call = prepare(job)
                    t0 = time.perf_counter()
                    result = call()
                    dt = time.perf_counter() - t0
                code, text = report_of(job, result)
                errors = oracle_errors(job, result, code, text)
                if errors:
                    sys.exit(f"{job.key}: {'; '.join(errors)}")
                refs[job.key] = {"exit": code, "report": text,
                                 "fields": sorted(fields)}
                print(f"{workload:12s} {dt:8.3f} s  exit {code}  {job.key}",
                      file=sys.stderr)
    doc = {"program_sha": run.git_sha(), "jobs": refs}
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
