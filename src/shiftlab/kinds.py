"""Small shared vocabularies: combination routines, solver ids, tradeoff strategies."""

from __future__ import annotations

# Combination routines
POW2 = "pow2"          # raise 2-adic divisibility of labels
INTERVAL = "interval"  # shrink labels into a smaller interval

ROUTINES = (POW2, INTERVAL)

# Subset-sum solver ids
BRUTE = "brute"
MITM = "mitm"
SS = "ss"
REP = "rep"
MEMLESS = "memless"

SOLVERS = (BRUTE, MITM, SS, REP, MEMLESS)
# widths each solver takes, lo <= k <= hi (hi None: no cap): Schedule refuses
# a stage outside its solver's range, and the solvers' guards read the same
SOLVER_WIDTHS = {
    BRUTE: (2, 30), MITM: (2, None), SS: (4, None), REP: (8, None), MEMLESS: (2, None),
}

# Tradeoff strategies
UNIFORM = "uniform"
UNIFORM_IMPROVED = "improved"
MIN_CLASSICAL = "minclass"
QUAD_GAP = "quadgap"
MIN_QUERY = "minquery"

STRATEGIES = (UNIFORM, UNIFORM_IMPROVED, MIN_CLASSICAL, QUAD_GAP, MIN_QUERY)
