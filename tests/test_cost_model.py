"""Closed-form cost exponents and the built-in reference tables."""

import math
import os
import subprocess
import sys
import time

import pytest

from shiftlab import (
    AccountingError,
    GuardError,
    UsageError,
    exponents,
    render_report,
    table_report,
)
from shiftlab.cost_model import (
    REPORT_FOOTNOTE,
    MEM_EXP,
    MEM_L,
    MEM_POLY,
    TradeoffPoint,
    improved_width,
)
from shiftlab.kinds import MIN_CLASSICAL, MIN_QUERY, QUAD_GAP, UNIFORM_IMPROVED

# (c, strategy) -> (query exponent, time exponent), reference values quoted
# to 3 decimals. One entry (0.291 quadgap query) was evidently produced by
# halving the already-rounded time exponent (0.623/2 -> 0.312), while the
# closed form gives 0.31145; both sit within 1e-3, which is the comparison
# used here.
REFERENCE_POINTS = {
    (0.291, MIN_CLASSICAL): (0.539, 0.539),
    (0.291, QUAD_GAP): (0.312, 0.623),
    (0.72, MIN_CLASSICAL): (0.849, 0.849),
    (0.72, QUAD_GAP): (0.490, 0.980),
    (1.0, UNIFORM_IMPROVED): (0.707, 1.414),
    (1.0, MIN_CLASSICAL): (1.0, 1.0),
    (1.0, QUAD_GAP): (0.577, 1.155),
    (0.5, UNIFORM_IMPROVED): (0.5, 1.0),
    (0.5, MIN_CLASSICAL): (0.707, 0.707),
    (0.241, QUAD_GAP): (0.283, 0.567),
    (0.241, MIN_CLASSICAL): (0.491, 0.491),
    (0.226, QUAD_GAP): (0.274, 0.549),
    (0.226, MIN_CLASSICAL): (0.475, 0.475),
}


def test_reference_points_to_three_decimals():
    assert len(REFERENCE_POINTS) == 13
    for (c, strategy), (q, t) in REFERENCE_POINTS.items():
        pt = exponents(c, strategy)
        assert abs(pt.query_exp - q) <= 1e-3, (c, strategy)
        assert abs(pt.time_exp - t) <= 1e-3, (c, strategy)


def test_closed_forms():
    for c in (0.2, 0.5, 0.9):
        assert exponents(c, UNIFORM_IMPROVED).query_exp == pytest.approx(math.sqrt(c / 2))
        assert exponents(c, UNIFORM_IMPROVED).time_exp == pytest.approx(math.sqrt(2 * c))
        assert exponents(c, MIN_CLASSICAL).query_exp == pytest.approx(math.sqrt(c))
        assert exponents(c, QUAD_GAP).query_exp == pytest.approx(math.sqrt(c / 3))


def test_structural_invariants():
    for c in (0.226, 0.291, 0.5, 0.72, 1.0):
        gap = exponents(c, QUAD_GAP)
        assert gap.time_exp == 2 * gap.query_exp
        # the improved tradeoff happens to share the 2x gap
        imp = exponents(c, UNIFORM_IMPROVED)
        assert imp.time_exp == pytest.approx(2 * imp.query_exp)
        flat = exponents(c, MIN_CLASSICAL)
        assert flat.time_exp == flat.query_exp
        for pt in (gap, imp, flat):
            pt.validate()


BROKEN_POINTS = [
    TradeoffPoint(0.5, MIN_CLASSICAL, -0.1, 0.7, MEM_POLY),
    TradeoffPoint(0.5, UNIFORM_IMPROVED, 0.5, -1.0, MEM_POLY),
    TradeoffPoint(0.5, QUAD_GAP, 0.4, 0.7, MEM_POLY),
]


@pytest.mark.parametrize("pt", BROKEN_POINTS, ids=["query", "time", "quadgap"])
def test_validate_refuses_broken_points(pt):
    with pytest.raises(AccountingError):
        pt.validate()


def test_validate_holds_under_python_O():
    # plain raises, not asserts: python -O keeps them
    code = (
        "from shiftlab.cost_model import TradeoffPoint\n"
        "from shiftlab.errors import AccountingError\n"
        "from shiftlab.kinds import QUAD_GAP\n"
        "try:\n"
        "    TradeoffPoint(0.5, QUAD_GAP, 0.4, 0.7, 'poly').validate()\n"
        "except AccountingError:\n"
        "    print('refused')\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, env=env,
                          check=True)
    assert proc.stdout == b"refused\n"


def test_minquery_point_shape():
    pt = exponents(0.291, MIN_QUERY)
    assert pt.query_poly_degree == 2
    assert pt.time_linear == 0.291
    assert pt.query_str() == "n^2"
    assert pt.time_str() == "2^(0.291n)"
    d = pt.as_dict()
    assert d["query_exp"] is None and d["time_exp"] is None
    assert d["query"] == "n^2"


def test_exponents_monotone_in_c():
    grid = [i / 20 for i in range(1, 21)]
    for strategy in (UNIFORM_IMPROVED, MIN_CLASSICAL, QUAD_GAP):
        qs = [exponents(c, strategy).query_exp for c in grid]
        assert qs == sorted(qs)
        assert all(b > a for a, b in zip(qs, qs[1:]))


def test_table_report_shape():
    rows = table_report()
    assert len(rows) == 17
    assert sum(r.table == "hidden-shift" for r in rows) == 8
    assert sum(r.table == "purely-quantum" for r in rows) == 9
    assert {r.point.c for r in rows if r.table == "hidden-shift"} == {1.0, 0.291, 0.72}
    assert {r.point.c for r in rows if r.table == "purely-quantum"} == {0.5, 0.241, 0.226}


def test_table_memory_kinds():
    rows = table_report()
    kinds = {(r.point.c, r.point.strategy): r.point.mem_kind for r in rows}
    assert kinds[(1.0, UNIFORM_IMPROVED)] == MEM_POLY
    assert kinds[(0.72, MIN_CLASSICAL)] == MEM_POLY
    assert kinds[(0.5, UNIFORM_IMPROVED)] == MEM_POLY
    assert kinds[(0.291, MIN_CLASSICAL)] == MEM_L
    assert kinds[(0.241, QUAD_GAP)] == MEM_L
    assert kinds[(0.291, MIN_QUERY)] == MEM_EXP
    assert kinds[(0.5, MIN_QUERY)] == MEM_POLY

    by_key = {(r.point.c, r.point.strategy): r.point for r in rows}
    assert by_key[(0.291, MIN_CLASSICAL)].memory_str() == "L(0.539)"
    assert by_key[(0.291, MIN_QUERY)].memory_str() == "2^(0.291n)"


def test_guards():
    with pytest.raises(GuardError):
        exponents(0.0, MIN_CLASSICAL)
    with pytest.raises(GuardError):
        exponents(1.5, MIN_CLASSICAL)
    with pytest.raises(GuardError):
        exponents(-0.2, QUAD_GAP)
    for c in (0.0, -1.0, 5.0):
        with pytest.raises(GuardError):
            improved_width(20, c)
    with pytest.raises(UsageError):
        exponents(0.5, "fastest")


def test_render_report_text():
    text = render_report()
    assert "[hidden-shift]" in text and "[purely-quantum]" in text
    assert REPORT_FOOTNOTE in text
    assert len(text.splitlines()) == 17 + 2 + 1


def test_whole_model_is_instant():
    t0 = time.perf_counter()
    table_report()
    for (c, strategy) in REFERENCE_POINTS:
        exponents(c, strategy)
    assert time.perf_counter() - t0 < 1.0
