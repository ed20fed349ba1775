"""Golden CLI reports: each command's JSON report, without its wall-clock
field, must equal the one recorded in data/golden_reports.json.

The commands cover every place a field element reaches a report: moduli,
factorization units, singular points, certificate values in extension
fields, pencil base points, search witnesses and counts over F_{p^k}.

Re-record (only when a report is meant to change) with
    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import sys
from pathlib import Path

import pytest

from fqpencil.cli import run_command

DATA = Path(__file__).resolve().parent / "data" / "golden_reports.json"

COMMANDS = [
    ["field", "--q", "9"],
    ["field", "--p", "5", "--k", "3"],
    ["factor", "--q", "9", "--poly", "2*x^4+x+1"],
    ["factor", "--q", "49", "--poly", "3*t^5+t^2+1"],
    ["curve", "--q", "7", "--poly", "x^2-t^3-t^2"],
    ["curve", "--q", "5", "--poly", "x^3+2*t^3+1"],
    ["curve", "--q", "25", "--poly", "t^3+x^3+1"],
    ["pencil", "--q", "25", "--poly", "x^2+x-t", "--M", "3,7"],
    ["pencil", "--q", "25", "--poly", "t^3+x^3+1"],
    ["search", "--q", "7", "--poly", "x^2+x-t", "--poly", "t^3+x^3+1",
     "--smax", "3"],
    ["count", "--q", "25", "--poly", "t^3+x^3+1"],
    ["count", "--q", "49", "--poly", "t^3+x^3+2"],
    ["count", "--q", "7", "--poly", "x^2-t^3-t^2"],
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


if __name__ == "__main__":
    DATA.write_text(json.dumps({" ".join(a): _report(a) for a in COMMANDS},
                               sort_keys=True, indent=1) + "\n")
    sys.exit(0)
