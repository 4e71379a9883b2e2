"""Statistical disclosure masking of count signals via wavelet decomposition.

The package decomposes an integer count signal with a periodized orthogonal
wavelet, rewrites the coarse approximation under raise/lower/bound goals by
linear programming, and reassembles an integer signal with the same total and
proportionally preserved detail coefficients.  A microdata layer extracts
count signals from categorical CSV files and rewrites them to match.
"""

from .errors import ConfigurationError, DataError, MaskingError, ShapeError, WavemaskError
from .lp import LinearProgram, LpSolution, max_violation, solve
from .masking import (
    Goal,
    GoalCheck,
    GoalSpec,
    MaskingConfig,
    MaskingResult,
    build_constraints,
    evaluate_goals,
    mask_signal,
    round_and_repair,
    solve_approximation,
)
from .microdata import (
    MicrofileTable,
    ModificationPlan,
    Move,
    SelectionSpec,
    apply_plan,
    extract_quantity_signal,
    load_csv,
    plan_resynthesis,
    write_csv,
)
from .wavelet import (
    Decomposition,
    FilterPair,
    analysis_step,
    decompose,
    derive_highpass,
    make_filter,
    read_signal,
    reconstruct_component,
    reconstruct_signal,
    synthesis_step,
    write_signal,
)
from .wrm import ReconstructionMatrix, build_wrm

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DataError",
    "Decomposition",
    "FilterPair",
    "Goal",
    "GoalCheck",
    "GoalSpec",
    "LinearProgram",
    "LpSolution",
    "MaskingConfig",
    "MaskingError",
    "MaskingResult",
    "MicrofileTable",
    "ModificationPlan",
    "Move",
    "ReconstructionMatrix",
    "SelectionSpec",
    "ShapeError",
    "WavemaskError",
    "analysis_step",
    "apply_plan",
    "build_constraints",
    "build_wrm",
    "decompose",
    "derive_highpass",
    "evaluate_goals",
    "extract_quantity_signal",
    "load_csv",
    "make_filter",
    "mask_signal",
    "max_violation",
    "plan_resynthesis",
    "read_signal",
    "reconstruct_component",
    "reconstruct_signal",
    "round_and_repair",
    "solve",
    "solve_approximation",
    "synthesis_step",
    "write_csv",
    "write_signal",
]
