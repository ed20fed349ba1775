"""Tests for the fqpencil command-line interface."""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqpencil
from fqpencil import cli, counting
from fqpencil.bivar import (HomogeneousForm, brute_force_singular_search,
                            homogenize_and_degree)
from fqpencil.cli import run_command
from fqpencil.counting import BoundReport


def run_json(argv):
    code, text = run_command(argv)
    return code, json.loads(text)


def strip_timing(report):
    report = dict(report)
    report.pop("timing_seconds", None)
    return report


# ---------------------------------------------------------------------------
# Subcommands


def test_field_command():
    code, rep = run_json(["field", "--p", "3", "--k", "2"])
    assert code == 0
    assert rep["field"] == {"p": 3, "k": 2, "q": 9, "modulus": [1, 0, 1]}
    assert "modulus_str" in rep


def test_factor_command():
    code, rep = run_json(["factor", "--q", "7", "--poly", "x^2-1"])
    assert code == 0
    assert rep["unit"] == [1]
    assert sorted(rep["factors"]) == [["x+1", 1], ["x+6", 1]]


def test_curve_command():
    for q, poly, d, smooth, status, factor in [
        ("7", "x^2+x-t", 2, True, "irreducible", None),
        # the content of the x-coefficients is a factor, zero ones left out
        ("5", "t^2*x^2", 4, False, "reducible", "t^2"),
        ("5", "2*t*x^2", 3, False, "reducible", "t"),
    ]:
        code, rep = run_json(["curve", "--q", q, "--poly", poly])
        assert code == 0
        assert rep["curve"]["d"] == d
        assert rep["curve"]["smooth"] is smooth
        assert rep["curve"]["irreducible"]["status"] == status
        assert rep["curve"]["irreducible"].get("factor") == factor


def test_pencil_command_json():
    code, rep = run_json(["pencil", "--q", "7", "--poly", "x^2+x-t",
                          "--M", "0,1"])
    assert code == 0
    assert rep["histogram"]["counts"] == {"1+1": 3, "2": 3}
    assert rep["histogram"]["ramified"] == 2
    assert rep["histogram"]["total"] == 8
    (pd,) = rep["pencils"]
    assert pd["delta"] == "u^2+u+1"
    assert pd["generic"] is True


def test_pencil_command_csv():
    code, text = run_command(["pencil", "--q", "7", "--poly", "x^2+x-t",
                              "--M", "0,1", "--format", "csv"])
    assert code == 0
    assert text.splitlines() == [
        "pattern,count", "1+1,3", "2,3", "ramified,2", "total,8"]


def test_pencil_auto_base_point():
    code, rep = run_json(["pencil", "--q", "7", "--poly", "x^2+x-t"])
    assert code == 0
    assert rep["pencils"][0]["M"] == [[0], [1]]


def test_count_command_threshold():
    code, rep = run_json(["count", "--q", "7", "--poly", "x^2+x-t"])
    assert code == 0
    assert rep["count_full_degree"] == 18
    assert rep["count_inclusive"] == 25
    assert rep["verdict"] == "THRESHOLD_NOT_MET"


def test_bound_command():
    code, rep = run_json(["bound", "--q", "331", "--d", "2",
                          "--s", "1", "--N", "2", "--g", "1"])
    assert code == 0
    assert rep["app_threshold_ok"] is True
    assert rep["app_bound"] == pytest.approx(245.270506, abs=1e-5)
    assert rep["gj_rhs"] == pytest.approx(121.847816, abs=1e-5)


def test_search_command():
    code, rep = run_json(["search", "--q", "7", "--poly", "x^2+x-t",
                          "--poly", "t^3+x^3+1", "--smax", "3"])
    assert code == 0
    assert rep["witness"] == {"s": 2, "a": [1, 0], "b": [3, 1]}
    assert len(rep["verification"]) == 2


def test_conrad_command():
    code, rep = run_json(["conrad", "--q", "3", "--b", "5", "--D", "2"])
    assert code == 0
    assert rep["result"]["all_reducible"] is True
    assert rep["result"]["substitutions"] == 27


def test_conrad_negative_control_exit_one():
    code, rep = run_json(["conrad", "--q", "3", "--D", "1",
                          "--poly", "x^2+1"])
    assert code == 1
    assert rep["result"]["all_reducible"] is False
    assert rep["result"]["counterexample"] == "t"


# ---------------------------------------------------------------------------
# Errors and exit codes


def test_parse_error_exit_two():
    code, rep = run_json(["factor", "--q", "7", "--poly", "x^^2"])
    assert code == 2
    assert rep["error"]["type"] == "ParseError"
    assert rep["error"]["position"] == 2


def test_hypothesis_error_exit_two():
    code, rep = run_json(["count", "--q", "3", "--poly", "t^3+x^3+1"])
    assert code == 2
    assert rep["error"]["type"] == "HypothesisViolation"


def test_budget_error_exit_one():
    # the one candidate tried, (0, 0), lies on the conic
    code, rep = run_json(["pencil", "--q", "7", "--poly", "x^2+x-t",
                          "--trial-budget", "1"])
    assert code == 1
    assert rep["error"]["type"] == "GenericPointNotFound"


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_two(threads):
    code, rep = run_json(["count", "--q", "7", "--poly", "x^2+x-t",
                          "--threads", threads])
    assert code == 2
    assert rep["error"]["type"] == "ConstraintViolation"
    assert "count_inclusive" not in rep


@pytest.mark.parametrize("q,poly", [(31, "x^5+t^5+t*x+1"),
                                    (13, "x^6+t^6+t*x+1")])
def test_count_smooth_curve_with_large_discriminant_factor(q, poly):
    # the smoothness check finds roots over F_{q^k} with q^k past 2^62
    code, rep = run_json(["count", "--q", str(q), "--poly", poly])
    assert code == 0
    assert "error" not in rep
    assert rep["smooth"] is True
    assert rep["verdict"] == "THRESHOLD_NOT_MET"
    F = fqpencil.field_of_order(q)
    assert brute_force_singular_search(fqpencil.parse_poly(poly, F), 2) is None


@pytest.mark.parametrize("M", ["abc", "1", "99,99"])
def test_pencil_bad_base_point_exit_two(M):
    # 99,99 lies outside F_7 and must not wrap to 1,1
    code, rep = run_json(["pencil", "--q", "7", "--poly", "x^2+x-t",
                          "--M", M])
    assert code == 2
    assert rep["error"]["type"] == "ConstraintViolation"
    assert "histogram" not in rep


def test_bound_negative_q_exit_two():
    code, rep = run_json(["bound", "--q", "-5", "--d", "2"])
    assert code == 2
    assert rep["error"]["type"] == "ConstraintViolation"


SEMIPRIME = "30000000000000000000000000096400000000000000000000000002233"


@pytest.mark.parametrize("argv,error", [
    (["field", "--q", "6", "--modulus", "1,1"], "NotPrime"),
    (["bound", "--q", "6", "--d", "2"], "NotPrime"),
    (["bound", "--q", "7", "--d", "2", "--s", "0"], "ConstraintViolation"),
    (["conrad", "--q", "3", "--D", "-1"], "ConstraintViolation"),
    (["field", "--q", "9", "--modulus", "a,1"], "ConstraintViolation"),
    (["bound", "--q", "7", "--d", "2", "--s", "1", "--N", "0", "--g", "1"],
     "ConstraintViolation"),
    (["bound", "--q", "7", "--d", "2", "--s", "1", "--N", "2", "--g", "-1"],
     "ConstraintViolation"),
    (["search", "--q", "9", "--poly", "x^2+x-t", "--smax", "0"],
     "ConstraintViolation"),
    (["search", "--q", "9", "--poly", "x^2+x-t", "--smax", "-2"],
     "ConstraintViolation"),
    (["pencil", "--q", "7", "--poly", "x^2+x-t", "--trial-budget", "0"],
     "ConstraintViolation"),
    (["pencil", "--q", "7", "--poly", "x^2+x-t", "--trial-budget", "-1"],
     "ConstraintViolation"),
    # a Frobenius table of 5000^2 entries
    (["factor", "--q", "7", "--poly", "x^5000+x+1"], "DegreeOutOfRange"),
    # counts past q = 2^18
    (["count", "--p", "3", "--k", "12", "--poly", "x^2+x-t"],
     "ConstraintViolation"),
    (["count", "--q", "1000003", "--poly", "x^2+x-t"], "ConstraintViolation"),
    # F_{3^12}, past the log tables of the batched verifier
    (["conrad", "--q", "531441", "--poly", "x^2+x-t", "--D", "0"],
     "ConstraintViolation"),
    # values of degree 2q - 1 = 131041: a power table of 8.6e9 digits
    (["conrad", "--q", "65521", "--D", "0"], "DegreeOutOfRange"),
    # a small power table, but 3^41 substitutions
    (["conrad", "--q", "3", "--D", "40"], "DegreeOutOfRange"),
    # one curve each: a second --poly is refused, not dropped
    (["count", "--q", "7", "--poly", "x^2+x-t", "--poly", "t^3+x^3+1"],
     "ConstraintViolation"),
    (["factor", "--q", "7", "--poly", "x^2+1", "--poly", "x^3+x+1"],
     "ConstraintViolation"),
    (["curve", "--q", "7", "--poly", "x^2+x-t", "--poly", "t^3+x^3+1"],
     "ConstraintViolation"),
    (["conrad", "--q", "3", "--D", "1", "--poly", "x^2+1", "--poly",
      "x^2+x-t"], "ConstraintViolation"),
    # the same table limit where residue sums pass int64
    (["factor", "--q", "2147483647", "--poly", "x^5000+x+1"],
     "DegreeOutOfRange"),
    # a product of two 30-digit primes, refused without factoring it
    (["field", "--q", SEMIPRIME], "NotPrime"),
    (["bound", "--q", SEMIPRIME, "--d", "3"], "NotPrime"),
    (["count", "--q", SEMIPRIME, "--poly", "x^2+x-t"], "NotPrime"),
    # the least strong pseudoprime to the bases 2..41
    (["field", "--q", "3317044064679887385961981"], "NotPrime"),
])
def test_bad_input_exit_two(argv, error):
    code, rep = run_json(argv)
    assert code == 2
    assert rep["error"]["type"] == error


def test_field_of_a_large_mersenne_prime():
    p = 2 ** 89 - 1
    code, rep = run_json(["field", "--q", str(p)])
    assert code == 0
    assert rep["field"] == {"p": p, "k": 1, "q": p, "modulus": [0, 1]}


def _reducible_curve_witness(p, poly):
    """The singular witness of curve over the prime field F_p, checked:
    the form and its three partials vanish at it."""
    code, rep = run_json(["curve", "--q", str(p), "--poly", poly])
    assert code == 0
    curve = rep["curve"]
    assert curve["smooth"] is False
    assert curve["irreducible"] == {"status": "reducible", "factor": "t"}
    witness = curve["singular_witness"]
    E = fqpencil.make_field(p, witness["extension_degree"])
    point = [E.from_vector(v) for v in witness["point"]]
    f = fqpencil.parse_poly(poly, fqpencil.make_field(p, 1))
    d, form = homogenize_and_degree(f)
    form = HomogeneousForm(E, d, form.terms)  # F_p is E's prime field
    assert any(point)
    for g in (form, form.partial("T"), form.partial("X"), form.partial("Z")):
        assert g.evaluate(*point) == E.zero
    return f, witness


def test_curve_with_whole_line_at_infinity_on_it():
    # the top form t(t-x)(t+x)(t^2+x^2) vanishes on the line at infinity
    # over F_3, so (0:1:0) and the points of (t:1:0) and (0:1:z) are all
    # on the curve
    f, witness = _reducible_curve_witness(3, "t^5+2*t*x^4+t*x^3+2*t^2*x+2*t")
    assert brute_force_singular_search(f, witness["extension_degree"]) \
        is not None


def test_curve_through_every_point_of_the_plane():
    # T X (T + X) vanishes on all seven points of P^2(F_2), so the point
    # moved to (0:1:0) is one over F_4; the three lines meet at (0:0:1)
    _, witness = _reducible_curve_witness(2, "t^2*x+t*x^2")
    assert witness == {"extension_degree": 2,
                       "point": [[0, 0], [0, 0], [1, 0]]}


def test_smooth_curve_passes_hypotheses_in_count_and_search():
    # smooth, so irreducible, with no irreducibility certificate over F_3
    code, rep = run_json(["count", "--q", "3", "--poly", "x^5+t^5+1"])
    assert code == 0
    assert rep["smooth"] is True and rep["irreducible"] == "irreducible"
    assert rep["verdict"] == "THRESHOLD_NOT_MET"
    code, rep = run_json(["search", "--q", "3", "--poly", "x^5+t^5+1"])
    assert code == 0
    assert rep["witness"]["s"] == 2
    assert rep["verification"][0]["degree"] == 5


@pytest.mark.parametrize("argv", [
    ["pencil", "--q", "7", "--poly", "x^2+x-t", "--format", "text"],
    ["count", "--q", "7", "--poly", "x^2+x-t", "--format", "csv"],
    ["bound", "--q", "7", "--d", "2", "--format", "json"],
])
def test_format_only_on_pencil_exit_two(argv):
    assert run_command(argv) == (2, "")


_POLYS = ["x^2+x-t", "t^3+x^3+1", "x^2-t^3", "x+t", "x^2+1", "3",
          "x^^2", "2*", "y+1", "", "x^2+"]
# numeric flags by subcommand; --k, --seed and --threads go to any of them
_FLAGS = {"field": [], "factor": [], "curve": [], "count": [],
          "pencil": ["--trial-budget"], "bound": ["--d", "--s", "--N", "--g"],
          "search": ["--smax"], "conrad": ["--D", "--b"]}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS)))
    # conrad substitutes all q^(D+1) polynomials of degree <= D (4 by
    # default), in one batched pass: about a second for the 1024 of F_4
    qs = [3, 4, 6] if command == "conrad" else [3, 4, 6, 7, 9, 25]
    argv = [command, "--q", str(draw(st.sampled_from(qs)))]
    flags = st.sampled_from(["--k", "--seed", "--threads"] + _FLAGS[command])
    for flag, value in draw(st.lists(st.tuples(flags, st.integers(-2, 3)),
                                     max_size=3)):
        argv += [flag, str(value)]
    for poly in draw(st.lists(st.sampled_from(_POLYS), max_size=2)):
        argv += ["--poly", poly]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_argvs())
def test_run_command_never_raises(argv):
    with contextlib.redirect_stderr(io.StringIO()):  # argparse usage text
        code, text = run_command(argv)
    assert code in (0, 1, 2)
    if not text:  # argparse rejected argv
        assert code == 2
        return
    report = json.loads(text)
    assert code != 2 or "error" in report
    assert code != 0 or "error" not in report


def _env_with_src():
    """The environment with this fqpencil first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fqpencil.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def test_python_m_fqpencil():
    argv = ["bound", "--q", "331", "--d", "2"]
    out = subprocess.run([sys.executable, "-m", "fqpencil", *argv],
                         capture_output=True, text=True, env=_env_with_src(),
                         timeout=120)
    assert out.returncode == 0, out.stderr
    assert strip_timing(json.loads(out.stdout)) == \
        strip_timing(run_json(argv)[1])


def test_cold_start_does_not_import_sympy():
    code = """
import sys
from fqpencil.cli import run_command
for argv in (["field", "--q", "9"],
             ["count", "--q", "7", "--poly", "x^2+x-t"],
             ["factor", "--q", "25", "--poly", "x^6+x+1"],
             ["curve", "--q", "7", "--poly", "t^3+x^3+1"]):
    assert run_command(argv)[0] == 0, argv
print("sympy" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=_env_with_src(), timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_count_mode_names_the_count_of_the_verdict(monkeypatch):
    # x^2+x-t over F_7 has 18 full-degree and 25 inclusive pairs; the
    # enclosure [20, 22] lies between them
    def between_bound(q, d):
        return BoundReport(q=q, d=d, N=2, app_threshold_ok=True,
                           app_bound=21.0, app_bound_lo=Fraction(20),
                           app_bound_hi=Fraction(22), positive=True)

    monkeypatch.setattr(counting, "application_bound", between_bound)
    argv = ["count", "--q", "7", "--poly", "x^2+x-t", "--mode"]
    code, rep = run_json(argv + ["inclusive"])
    assert (code, rep["verdict"], rep["count_inclusive"]) == (0, "PASS", 25)
    code, rep = run_json(argv + ["full-degree"])
    assert (code, rep["verdict"], rep["count_full_degree"]) == (1, "FAIL", 18)


def test_count_vacuous_bound_is_not_a_pass(monkeypatch):
    # threshold met, bound <= 0: no count can fail it, so nothing is verified
    def vacuous_bound(q, d):
        return BoundReport(q=q, d=d, N=2, app_threshold_ok=True,
                           app_bound=-1.0, app_bound_lo=Fraction(-2),
                           app_bound_hi=Fraction(0), positive=False)

    monkeypatch.setattr(counting, "application_bound", vacuous_bound)
    code, rep = run_json(["count", "--q", "7", "--poly", "x^2+x-t"])
    assert (code, rep["verdict"]) == (0, "VACUOUS")
    assert rep["count_inclusive"] == 25


def test_count_command_counts_once(monkeypatch):
    calls = []
    original = counting.count_irreducible_pairs

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(counting, "count_irreducible_pairs", counted)
    monkeypatch.setattr(cli, "count_irreducible_pairs", counted)
    code, rep = run_json(["count", "--q", "331", "--poly", "x^2+x-t"])
    assert code == 0
    assert rep["verdict"] == "PASS"
    assert len(calls) == 1


def test_count_command_hypothesis_fail_still_counts():
    code, rep = run_json(["count", "--q", "7", "--poly", "x^2-t^3"])
    assert code == 0
    assert rep["verdict"] == "HYPOTHESIS_FAIL"
    assert rep["smooth"] is False
    assert "app_bound" not in rep
    assert (rep["count_full_degree"], rep["count_inclusive"]) == (16, 16)


def test_unknown_command_exit_two():
    code, _text = run_command(["frobnicate"])
    assert code == 2


def test_missing_field_spec_exit_two():
    code, rep = run_json(["factor", "--poly", "x^2+1"])
    assert code == 2
    assert rep["error"]["type"] == "FqPencilError"


# ---------------------------------------------------------------------------
# Determinism


def test_reports_byte_identical():
    argv = ["pencil", "--q", "7", "--poly", "x^2+x-t", "--M", "0,1"]
    runs = [run_json(argv) for _ in range(2)]
    assert strip_timing(runs[0][1]) == strip_timing(runs[1][1])


def test_thread_count_invariance():
    reports = []
    for threads in ("1", "4", "8"):
        code, rep = run_json(["count", "--q", "31", "--poly", "x^2+x-t",
                              "--threads", threads])
        assert code == 0
        reports.append(strip_timing(rep))
    assert reports[0] == reports[1] == reports[2]


def test_csv_and_json_agree():
    base = ["pencil", "--q", "7", "--poly", "x^2+x-t", "--M", "0,1"]
    _code, rep = run_json(base)
    _code, csv_text = run_command(base + ["--format", "csv"])
    counts = {}
    for line in csv_text.splitlines()[1:]:
        key, val = line.rsplit(",", 1)
        counts[key] = int(val)
    ramified = counts.pop("ramified")
    total = counts.pop("total")
    assert counts == rep["histogram"]["counts"]
    assert ramified == rep["histogram"]["ramified"]
    assert total == rep["histogram"]["total"]
