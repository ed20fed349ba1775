"""Golden CLI reports: each command's JSON report, without its wall-clock
field, must equal the one recorded in data/golden_reports.json.

The commands cover every place a field element reaches a report: moduli,
factorization units, singular points, certificate values in extension
fields, pencil base points, search witnesses and counts over F_{p^k}.
Every CLI job of the benchmark is also run against its recorded report in
perfbench/reference.json.

Re-record (only when a report is meant to change) with
    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import sys
from pathlib import Path

import pytest

from fqpencil.cli import run_command

DATA = Path(__file__).resolve().parent / "data" / "golden_reports.json"
BENCH_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                   / "reference.json")

COMMANDS = [
    ["field", "--q", "9"],
    ["field", "--p", "5", "--k", "3"],
    ["factor", "--q", "9", "--poly", "2*x^4+x+1"],
    ["factor", "--q", "49", "--poly", "3*t^5+t^2+1"],
    ["curve", "--q", "7", "--poly", "x^2-t^3-t^2"],
    ["curve", "--q", "5", "--poly", "x^3+2*t^3+1"],
    ["curve", "--q", "25", "--poly", "t^3+x^3+1"],
    ["curve", "--q", "7", "--poly", "x^4-t^4"],
    ["curve", "--q", "9", "--poly", "x^2+t^2"],
    ["curve", "--q", "25", "--poly", "x^2-2*t^2"],
    ["curve", "--q", "5", "--poly", "x^3+t*x^2+t^2*x+x+t^3+t"],
    ["curve", "--q", "9", "--poly", "x^4+t^4+2*t^2*x^2"],
    # singular only over F_{5^3}: three conjugate lines, the norm of
    # t + a x + a^2 for a root a of y^3 + y + 1
    ["curve", "--q", "5", "--poly", "4*x^3+t*x^2+t^3+3*t*x+3*t^2+4*x+t+1"],
    ["pencil", "--q", "25", "--poly", "x^2+x-t", "--M", "3,7"],
    ["pencil", "--q", "25", "--poly", "t^3+x^3+1"],
    # pencil classifier paths over prime fields: a cubic, a quartic with
    # fibers of degree 3 and q = 3 mod 4, a quintic, a conic, and two
    # cubics over a field of about 1.6e5 elements
    ["pencil", "--q", "1009", "--poly", "t^3+x^3+t+1"],
    ["pencil", "--q", "1999", "--poly", "x^4+t^4+t+3"],
    ["pencil", "--q", "6007", "--poly", "x^5+t^5+t+2"],
    ["pencil", "--q", "72139", "--poly", "x^2+t^2+t+3"],
    ["pencil", "--q", "160709", "--poly", "t^3+x^3+1", "--poly",
     "t^3+2*x^3+t+1"],
    ["search", "--q", "7", "--poly", "x^2+x-t", "--poly", "t^3+x^3+1",
     "--smax", "3"],
    # certificate scans: all of F_1999 in batches before the witness, an
    # F_{7^2} scan, a degree-6 scan and a scan over F_3
    ["curve", "--q", "1999", "--poly", "x^4+t^4+t+3"],
    ["curve", "--q", "49", "--poly", "x^4+t^4+3"],
    ["curve", "--q", "13", "--poly", "x^6+t^6+t*x+1"],
    ["curve", "--q", "3", "--poly", "x^4+t^4+t*x+1"],
    ["count", "--q", "25", "--poly", "t^3+x^3+1"],
    ["count", "--q", "49", "--poly", "t^3+x^3+2"],
    ["count", "--q", "7", "--poly", "x^2-t^3-t^2"],
    ["count", "--q", "13", "--poly", "x^6+t^6+t*x+1"],
    ["conrad", "--q", "3", "--b", "5", "--D", "2"],
    ["bound", "--q", "7919", "--d", "2", "--s", "2", "--N", "2", "--g", "0"],
]


def _report(argv):
    code, text = run_command(argv)
    report = json.loads(text)
    report.pop("timing_seconds", None)
    return {"exit": code, "report": report}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_report_matches_golden(argv):
    golden = json.loads(DATA.read_text())
    assert _report(argv) == golden[" ".join(argv)]


BENCH_JOBS = json.loads(BENCH_REFERENCE.read_text())["jobs"]


@pytest.mark.parametrize("key", sorted(k for k in BENCH_JOBS
                                       if k.startswith("cli ")))
def test_benchmark_cli_report_matches_reference(key):
    # the benchmark checks each report against perfbench/reference.json,
    # dumped as perfbench/jobs.py does
    got, ref = _report(key.split()[1:]), BENCH_JOBS[key]
    assert got["exit"] == ref["exit"]
    assert json.dumps(got["report"], sort_keys=True, indent=2) == ref["report"]


if __name__ == "__main__":
    DATA.write_text(json.dumps({" ".join(a): _report(a) for a in COMMANDS},
                               sort_keys=True, indent=1) + "\n")
    sys.exit(0)
