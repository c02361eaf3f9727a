"""Closed-form cost exponents for the four tradeoff regimes.

Costs are expressed in L-notation, L(x) = exp((x + o(1)) sqrt(n ln n)) with
the o(1) dropped: a point (q, t) means L(q) queries and L(t) time to leading
order. The single input is c, the exponent of the subset-sum solver used
inside the combination stages (time 2^{ck} at width k). The four regimes:

  improved    balanced widths tuned for minimum classical time at the
              baseline query law: (sqrt(c/2), sqrt(2c));
  minclass    increasing widths that equalize query and time: (sqrt(c),
              sqrt(c));
  quadgap     affine widths pinning time = 2 * query: (sqrt(c/3),
              2 sqrt(c/3));
  minquery    one full-width stage: poly(n^2) queries, 2^{cn} time.

The built-in report reproduces the two reference tables: classical solvers
(exhaustive c=1, list-merging c=0.291, its poly-memory variant c=0.72) and
quantum solvers (Grover c=0.5, quantum-walk c=0.241 and c=0.226). Memory is
poly for the exhaustive, Grover, and poly-memory-variant rows, L(query
exponent) for the other L-rows, and 2^{cn} for minquery rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccountingError, GuardError, UsageError
from .kinds import BRUTE, MEMLESS, MITM, REP, SS
from .kinds import MIN_CLASSICAL, MIN_QUERY, QUAD_GAP, UNIFORM_IMPROVED

MEM_POLY = "poly"
MEM_L = "L"
MEM_EXP = "2^cn"

QUERY_POLY_DEGREE = 2      # minquery regime: O(n^2) queries

# nominal time exponent c per solver id: the CLI builds each solver's
# schedules from it, and brute, rep and memless head the classical table
DEFAULT_C = {BRUTE: 1.0, MITM: 0.5, SS: 0.5, REP: 0.291, MEMLESS: 0.72}


@dataclass(frozen=True)
class TradeoffPoint:
    """One (query, time) cost point at subset-sum exponent c.

    query_exp/time_exp are L-exponents except in the minquery regime, where
    queries are poly (query_exp 0, degree QUERY_POLY_DEGREE) and time is
    2^{time_linear * n} (time_exp 0). mem_kind is one of poly / L / 2^cn;
    mem_exp carries the L-exponent when mem_kind == L.
    """

    c: float
    strategy: str
    query_exp: float
    time_exp: float
    mem_kind: str
    mem_exp: float | None = None
    query_poly_degree: int | None = None
    time_linear: float | None = None

    def validate(self) -> None:
        """The point's own identities; raises AccountingError when one
        breaks (plain checks, not asserts, so they also hold under
        python -O)."""
        if self.query_exp < 0 or self.time_exp < 0:
            raise AccountingError(f"negative exponent in {self.strategy} point at c = {self.c}")
        if self.strategy == QUAD_GAP and self.time_exp != 2 * self.query_exp:
            raise AccountingError(f"quadgap point at c = {self.c} has time != 2 x query")

    def memory_str(self) -> str:
        if self.mem_kind == MEM_POLY:
            return "poly"
        if self.mem_kind == MEM_L:
            return f"L({self.mem_exp:.3f})"
        return f"2^({self.c:g}n)"

    def query_str(self) -> str:
        if self.strategy == MIN_QUERY:
            return f"n^{self.query_poly_degree}"
        return f"L({self.query_exp:.3f})"

    def time_str(self) -> str:
        if self.strategy == MIN_QUERY:
            return f"2^({self.time_linear:g}n)"
        return f"L({self.time_exp:.3f})"

    def as_dict(self) -> dict:
        """Row form for machine output. L-exponents are numbers; the
        minquery regime has no L-exponents, so those fields go null and the
        query/time strings carry the polynomial and 2^{cn} forms."""
        is_mq = self.strategy == MIN_QUERY
        return {
            "c": self.c,
            "strategy": self.strategy,
            "query_exp": None if is_mq else self.query_exp,
            "time_exp": None if is_mq else self.time_exp,
            "query": self.query_str(),
            "time": self.time_str(),
            "memory": self.memory_str(),
        }


def _memory(c: float, strategy: str, query_exp: float):
    if c in _POLY_MEMORY_C:
        return MEM_POLY, None
    if strategy == MIN_QUERY:
        return MEM_EXP, None
    return MEM_L, query_exp


def exponents(c: float, strategy: str) -> TradeoffPoint:
    """The leading-order cost point for solver exponent c under a strategy.

    The memory column is polynomial at the c values of the built-in
    tables' polynomial-memory solvers (_POLY_MEMORY_C).
    """
    if not 0 < c <= 1:
        raise GuardError(f"need 0 < c <= 1, got {c}")
    if strategy == UNIFORM_IMPROVED:
        q, t = math.sqrt(c / 2), math.sqrt(2 * c)
    elif strategy == MIN_CLASSICAL:
        q, t = math.sqrt(c), math.sqrt(c)
    elif strategy == QUAD_GAP:
        q = math.sqrt(c / 3)
        t = 2 * q
    elif strategy == MIN_QUERY:
        mem_kind, mem_exp = _memory(c, strategy, 0.0)
        pt = TradeoffPoint(
            c, strategy, 0.0, 0.0, mem_kind, mem_exp,
            query_poly_degree=QUERY_POLY_DEGREE, time_linear=c,
        )
        pt.validate()
        return pt
    else:
        raise UsageError(f"unknown strategy {strategy!r}")
    mem_kind, mem_exp = _memory(c, strategy, q)
    pt = TradeoffPoint(c, strategy, q, t, mem_kind, mem_exp)
    pt.validate()
    return pt


def improved_width(n: int, c: float) -> int:
    """Stage width of the improved regime for n bits at solver exponent c:
    sqrt(n log2 n / (2c)) rounded, kept in [2, 30]. Needs 0 < c <= 1."""
    if not 0 < c <= 1:
        raise GuardError(f"need 0 < c <= 1, got {c}")
    if not math.isfinite(width := math.sqrt(n * math.log2(max(n, 2)) / (2 * c))):
        raise GuardError(f"stage width {width} is not finite")
    return max(2, min(30, round(width)))


@dataclass(frozen=True)
class TableRow:
    table: str            # "hidden-shift" (classical time) | "purely-quantum"
    solver: str
    point: TradeoffPoint


# (c, solver description, polynomial memory?) per reference solver family.
_CLASSICAL_SOLVERS = (
    (DEFAULT_C[BRUTE], "exhaustive search", True),
    (DEFAULT_C[REP], "list merging (representations)", False),
    (DEFAULT_C[MEMLESS], "list merging, poly memory", True),
)
_QUANTUM_SOLVERS = (
    (0.5, "Grover search", True),
    (0.241, "quantum walk", False),
    (0.226, "quantum walk (improved)", False),
)
# c values whose reference rows use polynomial memory; exponents infers the
# memory column from them
_POLY_MEMORY_C = frozenset(c for c, _, poly in _CLASSICAL_SOLVERS + _QUANTUM_SOLVERS if poly)


def table_report() -> list[TableRow]:
    """Every row of the two built-in cost tables.

    The classical table covers {improved, minclass, quadgap} at c=1 and
    {minclass, quadgap} at c=0.291 and 0.72, plus the minquery row at
    c=0.291. The quantum table covers {improved, minclass, minquery} for
    Grover and {quadgap, minclass, minquery} for the two quantum-walk
    exponents.
    """
    rows: list[TableRow] = []

    def add(table: str, solver: str, c: float, strategy: str) -> None:
        rows.append(TableRow(table, solver, exponents(c, strategy)))

    c1, c291, c72 = _CLASSICAL_SOLVERS
    for strat in (UNIFORM_IMPROVED, MIN_CLASSICAL, QUAD_GAP):
        add("hidden-shift", c1[1], c1[0], strat)
    for c, solver, _ in (c291, c72):
        for strat in (MIN_CLASSICAL, QUAD_GAP):
            add("hidden-shift", solver, c, strat)
    add("hidden-shift", c291[1], c291[0], MIN_QUERY)

    grover, walk, walk2 = _QUANTUM_SOLVERS
    for strat in (UNIFORM_IMPROVED, MIN_CLASSICAL, MIN_QUERY):
        add("purely-quantum", grover[1], grover[0], strat)
    for c, solver, _ in (walk, walk2):
        for strat in (QUAD_GAP, MIN_CLASSICAL, MIN_QUERY):
            add("purely-quantum", solver, c, strat)
    return rows


REPORT_FOOTNOTE = (
    "improved-tradeoff query exponents are conservative upper bounds; "
    "they are not known to be tight"
)


def render_report(rows: list[TableRow] | None = None) -> str:
    """Plain-text rendering of table_report, exponents rounded to 3 decimals."""
    if rows is None:
        rows = table_report()
    out = []
    for table in ("hidden-shift", "purely-quantum"):
        sub = [r for r in rows if r.table == table]
        time_col = "classical time" if table == "hidden-shift" else "quantum time"
        out.append(f"[{table}]  query / {time_col} / memory")
        for r in sub:
            p = r.point
            out.append(
                f"  c={p.c:<5g} {p.strategy:<9} {p.query_str():>9} "
                f"{p.time_str():>9} {p.memory_str():>9}  ({r.solver})"
            )
    out.append(f"note: {REPORT_FOOTNOTE}")
    return "\n".join(out)
