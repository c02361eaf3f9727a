"""Exact classical laboratory for hidden-shift experiments on Z_N.

Secret-shift instances hand out single-qubit phase elements labelled by
known integers; combination routines trade many elements for one with a
more useful label by solving subset-sum equations over the labels; pipeline
schedules drive the label ladder down until the shift can be read out bit
by bit, with every query, solver operation and list cell accounted for.
"""

from .group_arith import Modulus, mul_mod, two_adic_valuation
from .instance import (
    HiddenShiftInstance,
    PhaseElement,
    classical_verify,
    new_instance,
)
from .combine import CombineOutcome, combine_interval, combine_pow2, project_pair
from .cost_model import TableRow, TradeoffPoint, exponents, render_report, table_report
from .errors import (
    AccountingError,
    ConsumedElementError,
    GuardError,
    RetryExhaustedError,
    ShiftLabError,
    TamperError,
    UsageError,
)
from .phase_sim import (
    measure_with_correction,
    statevector_combine_dist,
    statevector_generate,
)
from .pipeline import (
    CostLedger,
    Schedule,
    StageSpec,
    StageStats,
    run_pipeline,
    schedule_affine,
    schedule_from_json,
    schedule_increasing,
    schedule_single,
    schedule_uniform,
)
from .recover import (
    direct_iqft_distribution,
    iqft_success_probability,
    recover_odd,
    recover_pow2,
    semiclassical_iqft,
)

__version__ = "0.1.0"

__all__ = [
    "AccountingError",
    "CombineOutcome",
    "ConsumedElementError",
    "CostLedger",
    "GuardError",
    "HiddenShiftInstance",
    "Modulus",
    "PhaseElement",
    "RetryExhaustedError",
    "Schedule",
    "ShiftLabError",
    "StageSpec",
    "StageStats",
    "TableRow",
    "TamperError",
    "TradeoffPoint",
    "UsageError",
    "classical_verify",
    "combine_interval",
    "combine_pow2",
    "direct_iqft_distribution",
    "exponents",
    "iqft_success_probability",
    "measure_with_correction",
    "mul_mod",
    "new_instance",
    "project_pair",
    "recover_odd",
    "recover_pow2",
    "render_report",
    "run_pipeline",
    "schedule_affine",
    "schedule_from_json",
    "schedule_increasing",
    "schedule_single",
    "schedule_uniform",
    "semiclassical_iqft",
    "statevector_combine_dist",
    "statevector_generate",
    "table_report",
    "two_adic_valuation",
    "__version__",
]
