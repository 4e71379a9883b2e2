"""Count-signal masking by constrained rewrite of the wavelet approximation.

Pipeline: decompose the signal, build per-position raise/lower/bound rows over
the reconstruction matrix, obtain replacement approximation coefficients (LP
feasibility by default, or a caller-supplied override vector), reassemble with
the original detail bands, shift to non-negativity, rescale so the total is
preserved, and round back to integers.

Goals become rows through one table per goal set (``GoalSpec.table``, built
on first use): the non-free positions in order and, per limit row, its goal,
its relation and its fixed limit, NaN standing for "the current value".
``build_constraints`` and ``evaluate_goals`` both read it.

The detail bands are carried over untouched, so after the final rescale every
detail coefficient of the masked signal equals the original one times the
scale factor: the redistribution only ever touches the approximation.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError, MaskingError
from .lp import LinearProgram, Objective, max_violation, solve
from .wavelet import Decomposition, FilterPair, _frozen, as_signal, decompose, make_filter, reconstruct_component
from .wrm import ReconstructionMatrix, build_wrm

GOAL_TOL = 1e-7
# Absolute slack when re-verifying externally supplied coefficient vectors,
# sized to absorb 3-decimal rounding of hand-entered solutions.
OVERRIDE_SLACK = 1.0

GOAL_KINDS = ("raise", "lower", "free", "bound")
GOAL_KEYS = ("index", "goal", "min", "max")


def _finite(value) -> float | None:
    """A goal threshold or limit as a finite float; None stays None, anything else is rejected."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
        raise ConfigurationError(f"goal threshold, min and max must be finite numbers, got {value!r}")
    return float(value)


def _position(index) -> int:
    """A 1-based signal position; booleans and non-integral numbers are rejected."""
    # index % 1 is 0 for a whole number, and non-zero or nan otherwise
    if isinstance(index, bool) or not isinstance(index, (numbers.Integral, float)) or index < 1 or index % 1:
        raise ConfigurationError(f"goal index must be a positive integer, got {index!r}")
    return int(index)


@dataclass(frozen=True)
class Goal:
    """Target for one signal position.

    raise/lower compare the rebuilt approximation against ``threshold``
    (defaulting to its current value); bound pins it between absolute limits.
    """

    kind: str
    threshold: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        for name in ("threshold", "lower", "upper"):
            object.__setattr__(self, name, _finite(getattr(self, name)))
        if self.kind not in GOAL_KINDS:
            raise ConfigurationError(f"unknown goal kind {self.kind!r}")
        if self.kind == "bound" and self.lower is None and self.upper is None:
            raise ConfigurationError("bound goal needs a min, a max, or both")
        if self.kind in ("free", "bound") and self.threshold is not None:
            raise ConfigurationError(f"{self.kind} goal does not take a threshold")
        if self.kind in ("raise", "lower", "free") and (self.lower is not None or self.upper is not None):
            raise ConfigurationError(f"{self.kind} goal does not take min/max limits")


class GoalTable(NamedTuple):
    """The non-free goals in position order, then the limit rows they put on the approximation, in goal order."""

    positions: np.ndarray  # per goal: 1-based, ascending
    kinds: np.ndarray  # per goal
    lowers: tuple  # per goal: Goal.lower
    uppers: tuple  # per goal: Goal.upper
    starts: np.ndarray  # per goal: its first row
    goal: np.ndarray  # per row
    at_least: np.ndarray  # per row: ">=", else "<="
    fixed: np.ndarray  # per row: the limit, NaN for the current value


@dataclass(frozen=True)
class GoalSpec:
    """Goals keyed by 1-based signal position; unlisted positions are free."""

    by_index: dict[int, Goal]

    def __post_init__(self):
        object.__setattr__(self, "by_index", {_position(i): goal for i, goal in self.by_index.items()})

    @classmethod
    def from_entries(cls, entries) -> "GoalSpec":
        """Build from a list of {"index": i, "goal": kind, "min": ..., "max": ...} dicts."""
        by_index: dict[int, Goal] = {}
        for pos, entry in enumerate(entries):
            try:
                index = _position(entry["index"])
                kind = str(entry["goal"]).lower()
            except (KeyError, TypeError) as exc:
                raise ConfigurationError(f"goal entry {pos}: needs integer 'index' and string 'goal'") from exc
            if index in by_index:
                raise ConfigurationError(f"goal entry {pos}: duplicate index {index}")
            for key in entry:
                if key not in GOAL_KEYS:
                    raise ConfigurationError(f"goal entry {pos}: unknown key {key!r}; allowed are {', '.join(GOAL_KEYS)}")
            by_index[index] = Goal(kind=kind, lower=entry.get("min"), upper=entry.get("max"))
        return cls(by_index=by_index)

    @cached_property
    def table(self) -> GoalTable:
        """The goal table, built on first use.

        raise gives one ">=" row and lower one "<=" row, at ``threshold`` or
        else the current value; bound gives ">=" at its min and "<=" at its
        max, for each limit it has.
        """
        by_index = self.by_index
        goals = [(i, g.kind, g.threshold, g.lower, g.upper) for i in sorted(by_index) if (g := by_index[i]).kind != "free"]
        positions, kinds, *limits = zip(*goals) if goals else ((),) * 5
        # NaN: a limit the goal lacks, or a threshold left to the current value
        threshold, lower, upper = np.array([[math.nan if v is None else v for v in column] for column in limits]).reshape(3, -1)
        kinds = np.array(kinds, dtype=str)
        bound = kinds == "bound"
        # each goal's two candidate rows: its threshold or min, then its max
        goal, second = np.nonzero(np.stack((~bound | ~np.isnan(lower), bound & ~np.isnan(upper)), axis=1))
        starts = np.searchsorted(goal, np.arange(len(goals)))
        at_least = (second == 0) & (kinds[goal] != "lower")
        fixed = np.where(second == 0, np.where(bound, lower, threshold)[goal], upper[goal])
        return GoalTable(np.array(positions, dtype=np.intp), kinds, limits[1], limits[2], starts, goal, at_least, fixed)


@dataclass(frozen=True)
class MaskingConfig:
    """Everything that parameterizes one masking run.

    ``fixed_offset`` of None selects the automatic shift (smallest integer
    making the reassembled signal non-negative).  Rounding is always half
    away from zero.  The optimize mode needs both an objective and finite
    per-coefficient bounds, since raise goals alone leave the feasible
    region unbounded.  ``rng_seed`` only matters downstream when a microfile
    is rewritten to match the masked counts.
    """

    goals: GoalSpec
    family: str = "daubechies"
    order: int = 2
    level: int = 2
    fixed_offset: float | None = None
    lp_mode: str = "feasibility"
    objective: Objective | None = None
    coefficient_bounds: tuple[tuple[float, float], ...] | None = None
    override_coeffs: tuple[float, ...] | None = None
    sum_repair: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        if self.level < 1:
            raise ConfigurationError(f"level must be >= 1, got {self.level}")
        if self.fixed_offset is not None and self.fixed_offset < 0:
            raise ConfigurationError(f"fixed offset must be >= 0, got {self.fixed_offset}")
        if self.lp_mode not in ("feasibility", "optimize"):
            raise ConfigurationError(f"unknown lp mode {self.lp_mode!r}")
        if self.lp_mode == "optimize":
            if self.objective is None:
                raise ConfigurationError("optimize mode needs an objective")
            if self.coefficient_bounds is None or not all(
                math.isfinite(lo) and math.isfinite(hi) for lo, hi in self.coefficient_bounds
            ):
                raise ConfigurationError("optimize mode needs finite coefficient bounds")
        if self.override_coeffs is not None:
            object.__setattr__(self, "override_coeffs", tuple(float(v) for v in self.override_coeffs))
            if not all(map(math.isfinite, self.override_coeffs)):
                raise ConfigurationError(f"override coefficients must be finite, got {self.override_coeffs}")

    def filters(self) -> FilterPair:
        return make_filter(self.family, self.order)


class GoalCheck(NamedTuple):
    """Post-hoc satisfaction record for one goal."""

    index: int
    kind: str
    achieved: float
    satisfied: bool
    threshold: float | None = None
    lower: float | None = None
    upper: float | None = None


@dataclass(frozen=True)
class MaskingResult:
    """All intermediates of one masking run, kept for reporting and audit."""

    q: np.ndarray
    decomposition: Decomposition
    wrm: ReconstructionMatrix
    new_coeffs: np.ndarray
    new_approx: np.ndarray
    q_hat: np.ndarray
    offset: float
    q_shifted: np.ndarray
    scale: float
    q_scaled: np.ndarray
    q_tilde: np.ndarray | None = None
    goal_report: tuple[GoalCheck, ...] | None = None
    lp: LinearProgram | None = None
    base_approx: np.ndarray | None = None

    def __post_init__(self):
        for name in ("q", "new_coeffs", "new_approx", "q_hat", "q_shifted", "q_scaled", "base_approx"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.q_tilde is not None:
            frozen = np.array(self.q_tilde, dtype=np.int64)
            frozen.setflags(write=False)
            object.__setattr__(self, "q_tilde", frozen)


def _limit_rows(goals: GoalSpec, approx: np.ndarray, length: int) -> tuple[GoalTable, np.ndarray, np.ndarray]:
    """The goal table, each row's 0-based position and its rhs (its fixed limit, or ``approx`` there)."""
    if approx.size != length:
        raise ConfigurationError(f"approximation length {approx.size} does not match operator length {length}")
    table = goals.table
    if table.positions.size and table.positions[-1] > length:
        raise ConfigurationError(f"goal index {table.positions[-1]} exceeds signal length {length}")
    at = table.positions[table.goal] - 1
    return table, at, np.where(np.isnan(table.fixed), approx[at], table.fixed)


def build_constraints(wrm: ReconstructionMatrix, approx, goals: GoalSpec) -> LinearProgram:
    """Turn per-position goals into rows over the replacement coefficients.

    A goal at position i gives its table rows over wrm row i, with the
    current approximation value at i for a missing threshold.  Rows are
    emitted in ascending position order, gathered from the operator in one call.
    """
    table, at, rhs = _limit_rows(goals, np.asarray(approx, dtype=np.float64), wrm.length)
    if not table.positions.size:
        raise ConfigurationError("goal set has no raise/lower/bound entries; masking would be a no-op")
    return LinearProgram(wrm.rows(at + 1), np.where(table.at_least, ">=", "<=").tolist(), rhs)


def solve_approximation(lp: LinearProgram, config: MaskingConfig) -> np.ndarray:
    """Pick replacement coefficients satisfying the constraint rows.

    With ``override_coeffs`` set the supplied vector is re-verified against
    every row (within OVERRIDE_SLACK) and returned as-is; otherwise the LP is
    solved in the configured mode.
    """
    if config.override_coeffs is not None:
        x = np.asarray(config.override_coeffs, dtype=np.float64)
        if x.size != lp.num_vars:
            raise ConfigurationError(f"override has {x.size} coefficients, constraints expect {lp.num_vars}")
        worst = max_violation(lp, x)
        if worst > OVERRIDE_SLACK:
            raise MaskingError(f"override coefficients violate the goal rows by up to {worst:.6g}")
        return x

    if config.lp_mode == "optimize":
        lp = replace(lp, objective=config.objective, bounds=config.coefficient_bounds)
    solution = solve(lp, mode=config.lp_mode)
    if solution.status == "infeasible":
        raise MaskingError("goals unsatisfiable: no coefficient vector meets every row")
    if solution.status == "unbounded":
        raise MaskingError("objective unbounded over the goal region; tighten the coefficient bounds")
    return solution.x


def assemble_masked_signal(
    q,
    dec: Decomposition,
    new_coeffs,
    config: MaskingConfig,
    wrm: ReconstructionMatrix | None = None,
) -> MaskingResult:
    """Rebuild the signal from replacement coefficients; stops before rounding.

    Reassembly adds the untouched detail bands, shifts everything by a
    non-negativity offset, then rescales so the total matches the original.
    """
    q = as_signal(q)
    if wrm is None:
        wrm = build_wrm(dec.length, dec.level, dec.filters)
    new_coeffs = np.asarray(new_coeffs, dtype=np.float64)
    new_approx = wrm.apply(new_coeffs)

    q_hat = new_approx.copy()
    for j, band in enumerate(dec.details, start=1):
        q_hat += reconstruct_component(band, "detail", j, dec.length, dec.filters)

    low = q_hat.min()
    if low >= 0.0:
        offset = 0.0
    elif config.fixed_offset is None:
        offset = float(math.ceil(-low))
    else:
        offset = float(config.fixed_offset)
    q_shifted = q_hat + offset
    if q_shifted.min() < 0.0:
        raise MaskingError(
            f"fixed offset {offset} too small: shifted signal still reaches {q_shifted.min():.6g}"
        )
    total = q_shifted.sum()
    if total <= 0.0:
        raise MaskingError("degenerate scale: shifted signal sums to zero")
    scale = q.sum() / total
    return MaskingResult(
        q=q,
        decomposition=dec,
        wrm=wrm,
        new_coeffs=new_coeffs,
        new_approx=new_approx,
        q_hat=q_hat,
        offset=offset,
        q_shifted=q_shifted,
        scale=float(scale),
        q_scaled=scale * q_shifted,
    )


def round_half_away(values) -> np.ndarray:
    """Elementwise round half away from zero, as int64."""
    arr = np.asarray(values, dtype=np.float64)
    return (np.sign(arr) * np.floor(np.abs(arr) + 0.5)).astype(np.int64)


def round_and_repair(q_scaled, target_sum: int, sum_repair: bool = True) -> np.ndarray:
    """Round to integers; optionally nudge elements by +-1 until the total matches.

    Each unit goes to the element whose residual is largest in the needed
    direction (ties to the lowest index), as if placed one by one, never below
    zero.  One largest-remainder pass places every unit ranked ahead of any
    element's second unit; more passes follow only past that or at zeros.
    """
    scaled = np.asarray(q_scaled, dtype=np.float64)
    if scaled.min() < 0.0:
        raise MaskingError("cannot round a signal with negative entries")
    out = round_half_away(scaled)
    if not sum_repair:
        return out
    target = int(target_sum)
    if target < 0:
        raise MaskingError(f"target sum {target} unreachable with non-negative entries")
    while (gap := target - int(out.sum())) != 0:
        step = 1 if gap > 0 else -1
        movable = np.arange(out.size) if step > 0 else np.flatnonzero(out)
        if movable.size == 0:
            raise MaskingError(f"target sum {target} unreachable without negative entries")
        # rank keys, smallest first: raising wants large residuals, lowering small ones
        now = -step * (scaled[movable] - out[movable])
        # each element's key after one more unit; one that would reach zero drops out
        following = out[movable] + step
        after = np.where(following > 0, -step * (scaled[movable] - following), np.inf)
        j = int(np.argmin(after))
        ahead = np.count_nonzero((now < after[j]) | ((now == after[j]) & (movable < movable[j])))
        order = np.argsort(now, kind="stable")
        out[movable[order[: max(1, min(abs(gap), ahead))]]] += step
    return out


def evaluate_goals(new_approx, base_approx, goals: GoalSpec, tol: float = GOAL_TOL) -> tuple[GoalCheck, ...]:
    """Check each non-free goal against the rebuilt approximation: every limit row of the goal must hold within tol."""
    new_approx = np.asarray(new_approx, dtype=np.float64)
    table, at, rhs = _limit_rows(goals, np.asarray(base_approx, dtype=np.float64), new_approx.size)
    value = new_approx[at]
    holds = np.where(table.at_least, value >= rhs - tol, value <= rhs + tol)
    satisfied = np.logical_and.reduceat(holds, table.starts)
    threshold = np.where(table.kinds == "bound", None, rhs[table.starts])
    columns = (table.positions.tolist(), table.kinds.tolist(), value[table.starts].tolist(), satisfied.tolist())
    # GoalCheck._make without its Python-level call per goal
    return tuple(map(partial(tuple.__new__, GoalCheck), zip(*columns, threshold.tolist(), table.lowers, table.uppers)))


def mask_signal(q, config: MaskingConfig) -> MaskingResult:
    """Full pipeline from integer counts to masked integer counts."""
    q = as_signal(q)
    if q.min() < 0 or not np.array_equal(q, np.floor(q)):
        raise DataError("quantity signal must contain non-negative integers")
    filters = config.filters()
    dec = decompose(q, filters, config.level)
    wrm = build_wrm(dec.length, dec.level, filters)
    base_approx = wrm.apply(dec.approx)
    lp = build_constraints(wrm, base_approx, config.goals)
    new_coeffs = solve_approximation(lp, config)
    result = assemble_masked_signal(q, dec, new_coeffs, config, wrm=wrm)
    q_tilde = round_and_repair(result.q_scaled, int(round(q.sum())), config.sum_repair)
    report = evaluate_goals(result.new_approx, base_approx, config.goals)
    return replace(result, q_tilde=q_tilde, goal_report=report, lp=lp, base_approx=base_approx)
