"""Small shared vocabularies: combination routines, solver ids, run targets."""

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
SEEDED_SOLVERS = (REP, MEMLESS)  # the probabilistic ones; the rest ignore a seed
# widths each solver takes, lo <= k <= hi (hi None: no cap): Schedule refuses
# a stage outside its solver's range, and the solvers' guards read the same
SOLVER_WIDTHS = {
    BRUTE: (2, 30), MITM: (2, None), SS: (4, None), REP: (8, None), MEMLESS: (2, None),
}

# Pipeline targets
POW2_TOP = "pow2_top"    # element with 2-adic valuation exactly n-1 (N = 2^n)
SMALL_ONE = "small_one"  # element with label exactly 1 (odd N)

TARGETS = (POW2_TOP, SMALL_ONE)

# Tradeoff strategies
UNIFORM = "uniform"
UNIFORM_IMPROVED = "improved"
MIN_CLASSICAL = "minclass"
QUAD_GAP = "quadgap"
MIN_QUERY = "minquery"

STRATEGIES = (UNIFORM, UNIFORM_IMPROVED, MIN_CLASSICAL, QUAD_GAP, MIN_QUERY)
