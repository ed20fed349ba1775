"""Tests for pencil discriminants, fiber patterns, and histograms."""

import pytest

from fqpencil.field import make_field
from fqpencil.parsing import parse_poly
from fqpencil.pencil import (
    INFINITY,
    PencilDescriptor,
    branch_loci_disjoint,
    fiber_pattern,
    find_generic_point,
    is_generic_point,
    pattern_histogram,
    pencil_discriminant,
)
from fqpencil.errors import (
    BasePointOnCurve,
    CharacteristicObstruction,
    GenericPointNotFound,
)


F7 = make_field(7, 1)
F5 = make_field(5, 1)


def conic(E):
    return parse_poly("x^2+x-t", E)


def cubic(E):
    return parse_poly("t^3+x^3+1", E)


# ---------------------------------------------------------------------------
# Descriptors


def test_conic_descriptor():
    M = (0, 1)
    pd = pencil_discriminant(conic(F7), M, F7)
    assert pd.d == 2
    assert pd.delta.format("u") == "u^2+u+1"
    assert pd.deficit == 0
    assert pd.generic
    assert pd.branch_count == 2
    assert sorted(f.format("u") for f, _ in pd.branch_factors) == ["u+3", "u+5"]


def test_parabola_descriptor():
    # x^2 - t has its second branch point at u = infinity.
    pd = pencil_discriminant(parse_poly("x^2-t", F5), (0, 1), F5)
    assert pd.delta.degree() == 1
    assert pd.deficit == 1
    assert pd.generic
    assert pd.as_dict()["branch_at_infinity"]


def test_discriminant_degree_identity():
    # deg(delta) + deficit = d(d-1) for every descriptor.
    cases = [
        (conic(F7), (0, 1), F7),
        (parse_poly("x^2-t", F5), (0, 1), F5),
        (cubic(F7), find_generic_point(cubic(F7), F7), F7),
    ]
    for f, M, E in cases:
        pd = pencil_discriminant(f, M, E)
        d = pd.d
        assert pd.delta.degree() + pd.deficit == d * (d - 1)


def test_base_point_on_curve_raises():
    # 2^2 + 2 - 6 = 0 in F_7, so (6, 2) lies on the conic.
    with pytest.raises(BasePointOnCurve):
        pencil_discriminant(conic(F7), (6, 2), F7)


def test_characteristic_obstruction():
    F3 = make_field(3, 1)
    with pytest.raises(CharacteristicObstruction):
        pencil_discriminant(cubic(F3), (0, 1), F3)


# ---------------------------------------------------------------------------
# Generic points


def test_find_generic_point_conic():
    M = find_generic_point(conic(F7), F7)
    assert M == (0, 1)
    assert is_generic_point(conic(F7), M, F7)


def test_find_generic_point_count():
    pts = find_generic_point(conic(F7), F7, count=3)
    assert isinstance(pts, list) and len(pts) == 3
    assert len(set(pts)) == 3
    for M in pts:
        assert is_generic_point(conic(F7), M, F7)


def test_find_generic_point_budget_exhausted():
    # the first candidate, (0, 0), lies on the conic
    with pytest.raises(GenericPointNotFound):
        find_generic_point(conic(F7), F7, trial_budget=1)


def test_joint_generic_point_disjoint_branch_loci():
    fs = [conic(F7), cubic(F7)]
    M = find_generic_point(fs, F7)
    pd1 = pencil_discriminant(fs[0], M, F7)
    pd2 = pencil_discriminant(fs[1], M, F7)
    assert branch_loci_disjoint(pd1, pd2)


# ---------------------------------------------------------------------------
# Fiber patterns


def test_fiber_patterns_conic():
    pd = pencil_discriminant(conic(F7), (0, 1), F7)
    split = fiber_pattern(pd, 0)
    assert split.key() == "1+1" and not split.ramified
    inert = fiber_pattern(pd, 1)
    assert inert.key() == "2" and not inert.ramified
    ramified = fiber_pattern(pd, 4)
    assert ramified.key() == "1^2" and ramified.ramified
    vertical = fiber_pattern(pd, INFINITY)
    assert vertical.key() == "1+1"
    for pat in (split, inert, ramified, vertical):
        assert pat.total() == pd.d


def test_ramified_patterns_have_one_double_part():
    # Generic base points force simple ramification: exactly one part of
    # multiplicity two, all other parts simple.
    E2 = make_field(7, 2)
    for f, E in [(conic(F7), F7), (conic(E2), E2)]:
        M = find_generic_point(f, E)
        pd = pencil_discriminant(f, M, E)
        hist = pattern_histogram(pd)
        assert hist.ramified > 0
        for _u, pats in hist.ramified_patterns:
            (pat,) = pats
            mults = [m for _deg, m in pat.parts]
            assert sorted(mults, reverse=True)[0] == 2
            assert mults.count(2) == 1 and set(mults) <= {1, 2}


# ---------------------------------------------------------------------------
# Histograms


def test_conic_histogram_f7():
    pd = pencil_discriminant(conic(F7), (0, 1), F7)
    hist = pattern_histogram(pd)
    assert hist.counts == {"1+1": 3, "2": 3}
    assert hist.ramified == 2
    assert hist.total == 8
    assert hist.vertical_key == "1+1"


def test_histogram_total_is_projective_line():
    for s in (1, 2, 3):
        E = make_field(7, s)
        pd = pencil_discriminant(conic(E), (0, 1), E)
        hist = pattern_histogram(pd)
        assert hist.total == E.q + 1
        assert sum(hist.counts.values()) + hist.ramified == hist.total


def test_cycle_type_completeness_conic():
    # Over a large enough extension every S_2 cycle type occurs.
    E = make_field(7, 2)
    pd = pencil_discriminant(conic(E), (0, 1), E)
    hist = pattern_histogram(pd)
    assert set(hist.counts) == {"1+1", "2"}
    assert all(v > 0 for v in hist.counts.values())


def test_cycle_type_completeness_cubic():
    # All three S_3 cycle types occur for the Fermat cubic over F_{7^4}.
    E = make_field(7, 4)
    M = find_generic_point(cubic(E), E)
    pd = pencil_discriminant(cubic(E), M, E)
    hist = pattern_histogram(pd)
    assert {"1+1+1", "1+2", "3"} <= set(hist.counts)
    assert hist.total == E.q + 1


def test_joint_histogram_keys():
    fs = [conic(F7), cubic(F7)]
    M = find_generic_point(fs, F7)
    pds = [pencil_discriminant(f, M, F7) for f in fs]
    hist = pattern_histogram(pds)
    assert hist.total == 8
    assert all("|" in key for key in hist.counts)


def test_descriptor_as_dict_round_trip():
    pd = pencil_discriminant(conic(F7), (0, 1), F7)
    d = pd.as_dict()
    assert d["d"] == 2
    assert d["delta"] == "u^2+u+1"
    assert d["deficit"] == 0
    assert d["generic"] is True
    assert d["branch_count"] == 2
    assert d["branch_at_infinity"] is False
