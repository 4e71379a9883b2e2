"""Count-signal masking by constrained rewrite of the wavelet approximation.

Pipeline, run in line by ``mask_signal``, the only producer of a complete
``MaskingResult``: decompose the signal, build per-position raise/lower/bound rows over
the reconstruction matrix A, obtain replacement coefficients x for the approximation
a_k (the LP's first feasible point, or a caller-supplied override vector), reassemble
as q_hat = q + (A x - A a_k), shift to non-negativity, rescale to q's total, and round.

Goals become rows through one table per goal set (``GoalSpec.table``, built
on first use): the non-free positions in order and, per limit row, its goal,
its relation and its fixed limit, NaN standing for "the current value".
``build_constraints`` and ``evaluate_goals`` both read it.

The detail bands are carried over untouched: q = A a_k + its synthesised details,
so q_hat - q = A (x - a_k) lies in the approximation space, and after the final
rescale every detail coefficient is the original one times the scale factor.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError, MaskingError
from .lp import LinearProgram, max_violation, solve
from .wavelet import INTP_MAX, Decomposition, _frozen, as_signal, decompose, make_filter
from .wrm import ReconstructionMatrix, build_wrm

GOAL_TOL = 1e-7
# Absolute slack when re-verifying externally supplied coefficient vectors,
# sized to absorb 3-decimal rounding of hand-entered solutions.
OVERRIDE_SLACK = 1.0

GOAL_KINDS = ("raise", "lower", "free", "bound")
GOAL_KEYS = ("index", "goal", "min", "max")


def _position(index) -> int:
    """A 1-based signal position in the intp range; booleans and non-integral numbers are rejected."""
    number = isinstance(index, (numbers.Integral, float)) and not isinstance(index, bool)
    # NaN fails the range test, and a fraction the remainder test
    if not (number and 1 <= index <= INTP_MAX and index % 1 == 0):
        raise ConfigurationError(f"goal index must be an integer from 1 to {INTP_MAX}, got {index!r}")
    return int(index)


def _finite(value, what: str) -> float | None:
    """``value`` as a finite float; None stays None, anything else (a bool, a string, NaN, inf) is rejected."""
    if value is None:
        return None
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        # checked as a float: a numpy float32 compared with float64's max overflows in its own width
        number = float(value) if real else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return number


@dataclass(frozen=True)
class Goal:
    """Target for one signal position.

    raise/lower keep the rebuilt approximation at or above/below its current
    value; bound pins it between absolute limits, a min, a max (no less than
    the min), or both.
    """

    kind: str
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        for name, key in (("lower", "min"), ("upper", "max")):
            object.__setattr__(self, name, _finite(getattr(self, name), f"goal {key}"))
        if self.kind not in GOAL_KINDS:
            raise ConfigurationError(f"unknown goal kind {self.kind!r}")
        if self.kind == "bound" and self.lower is None and self.upper is None:
            raise ConfigurationError("bound goal needs a min, a max, or both")
        if self.kind != "bound" and (self.lower is not None or self.upper is not None):
            raise ConfigurationError(f"{self.kind} goal does not take min/max limits")
        if self.lower is not None and self.upper is not None and self.lower > self.upper:
            raise ConfigurationError(f"bound goal needs min <= max, got min {self.lower} and max {self.upper}")


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
        return cls(by_index)

    @cached_property
    def table(self) -> GoalTable:
        """The goal table, built on first use.

        raise gives one ">=" row and lower one "<=" row, at the current
        value; bound gives ">=" at its min and "<=" at its max, for each
        limit it has.
        """
        by_index = self.by_index
        goals = [(i, g.kind, g.lower, g.upper) for i in sorted(by_index) if (g := by_index[i]).kind != "free"]
        positions, kinds, *limits = zip(*goals) if goals else ((),) * 4
        # NaN: a limit the goal lacks, which for raise and lower is the current value
        lower, upper = np.array([[math.nan if v is None else v for v in column] for column in limits]).reshape(2, -1)
        kinds = np.array(kinds, dtype=str)
        bound = kinds == "bound"
        # each goal's two candidate rows: its min (raise and lower: the current value), then its max
        goal, second = np.nonzero(np.stack((~bound | ~np.isnan(lower), bound & ~np.isnan(upper)), axis=1))
        starts = np.searchsorted(goal, np.arange(len(goals)))
        at_least = (second == 0) & (kinds[goal] != "lower")
        fixed = np.where(second == 0, lower[goal], upper[goal])
        return GoalTable(np.array(positions, dtype=np.intp), kinds, *limits, starts, goal, at_least, fixed)


@dataclass(frozen=True)
class MaskingConfig:
    """Everything that parameterizes one masking run.

    ``fixed_offset`` of None selects the automatic shift (smallest integer
    making the reassembled signal non-negative); a fixed one, like each
    ``override_coeffs`` value, is a finite float.  Rounding is always half
    away from zero.
    """

    goals: GoalSpec
    family: str = "daubechies"
    order: int = 2
    level: int = 2
    fixed_offset: float | None = None
    override_coeffs: tuple[float, ...] | None = None
    sum_repair: bool = True

    def __post_init__(self):
        if self.level < 1:
            raise ConfigurationError(f"level must be >= 1, got {self.level}")
        object.__setattr__(self, "fixed_offset", _finite(self.fixed_offset, "fixed offset"))
        if self.fixed_offset is not None and self.fixed_offset < 0:
            raise ConfigurationError(f"fixed offset must be >= 0, got {self.fixed_offset}")
        if self.override_coeffs is not None:
            values = tuple(_finite(v, "an override coefficient") for v in self.override_coeffs)
            object.__setattr__(self, "override_coeffs", values)


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
    new_coeffs: np.ndarray
    new_approx: np.ndarray
    q_hat: np.ndarray
    offset: float
    q_shifted: np.ndarray
    scale: float
    q_scaled: np.ndarray
    q_tilde: np.ndarray
    goal_report: tuple[GoalCheck, ...]
    lp: LinearProgram
    base_approx: np.ndarray

    def __post_init__(self):
        for name in ("q", "new_coeffs", "new_approx", "q_hat", "q_shifted", "q_scaled", "base_approx"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "q_tilde", _frozen(self.q_tilde, np.int64))


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

    A goal at position i gives its table rows over wrm row i, raise and lower
    at the current approximation value there.  Rows are emitted in ascending
    position order, read off the operator in one call.
    """
    table, at, rhs = _limit_rows(goals, np.asarray(approx, dtype=np.float64), wrm.length)
    if not table.positions.size:
        raise ConfigurationError("goal set has no raise/lower/bound entries; masking would be a no-op")
    return LinearProgram(wrm.row_entries(at + 1), wrm.shape[1], np.where(table.at_least, ">=", "<=").tolist(), rhs)


def solve_approximation(lp: LinearProgram, config: MaskingConfig) -> np.ndarray:
    """Pick replacement coefficients satisfying the constraint rows.

    With ``override_coeffs`` set the supplied vector is re-verified against
    every row (within OVERRIDE_SLACK) and returned as-is; otherwise it is the
    LP's first feasible point.
    """
    if config.override_coeffs is not None:
        x = np.asarray(config.override_coeffs, dtype=np.float64)
        if x.size != lp.num_vars:
            raise ConfigurationError(f"override has {x.size} coefficients, constraints expect {lp.num_vars}")
        worst = max_violation(lp, x)
        if worst > OVERRIDE_SLACK:
            raise MaskingError(f"override coefficients violate the goal rows by up to {worst:.6g}")
        return x

    solution = solve(lp)
    if solution.status == "infeasible":
        raise MaskingError("goals unsatisfiable: no coefficient vector meets every row")
    return solution.x


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
    if not np.all(scaled >= 0.0):  # a NaN fails this too
        raise MaskingError("cannot round a signal with a negative or NaN entry")
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


def evaluate_goals(new_approx, base_approx, goals: GoalSpec) -> tuple[GoalCheck, ...]:
    """Check each non-free goal against the rebuilt approximation: each of its limit rows must hold within GOAL_TOL."""
    new_approx = np.asarray(new_approx, dtype=np.float64)
    table, at, rhs = _limit_rows(goals, np.asarray(base_approx, dtype=np.float64), new_approx.size)
    value = new_approx[at]
    holds = np.where(table.at_least, value >= rhs - GOAL_TOL, value <= rhs + GOAL_TOL)
    satisfied = np.logical_and.reduceat(holds, table.starts)
    threshold = np.where(table.kinds == "bound", None, rhs[table.starts])
    columns = (table.positions.tolist(), table.kinds.tolist(), value[table.starts].tolist(), satisfied.tolist())
    # GoalCheck._make without its Python-level call per goal
    return tuple(map(partial(tuple.__new__, GoalCheck), zip(*columns, threshold.tolist(), table.lowers, table.uppers)))


def mask_signal(q, config: MaskingConfig) -> MaskingResult:
    """Full pipeline from integer counts to masked integer counts, the reassembly included."""
    q = as_signal(q)
    if q.min() < 0 or not np.array_equal(q, np.floor(q)):
        raise DataError("quantity signal must contain non-negative integers")
    if q.sum() >= 2.0**53:  # below it, float64 holds every count and the total exactly
        raise DataError(f"quantity signal must total less than 2**53, got {q.sum():.17g}")
    filters = make_filter(config.family, config.order)
    dec = decompose(q, filters, config.level)
    wrm = build_wrm(dec.length, dec.level, filters)
    base_approx = wrm.apply(dec.approx)
    lp = build_constraints(wrm, base_approx, config.goals)
    new_coeffs = solve_approximation(lp, config)
    with np.errstate(over="ignore", invalid="ignore"):  # a q_hat that is not finite is refused below
        new_approx = wrm.apply(new_coeffs)
        q_hat = q + (new_approx - base_approx)
    if not np.all(np.isfinite(q_hat)):
        raise MaskingError("reassembled signal is not finite: it overflows the float range")

    low = q_hat.min()
    if low >= 0.0:
        offset = 0.0
    elif config.fixed_offset is None:
        offset = float(math.ceil(-low))
    else:
        offset = config.fixed_offset
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # an overflow or a zero total is refused below
        q_shifted = q_hat + offset
        total = q_shifted.sum()
        scale = q.sum() / total
    if q_shifted.min() < 0.0:
        raise MaskingError(f"fixed offset {offset} too small: shifted signal still reaches {q_shifted.min():.6g}")
    if not (0.0 < total < math.inf and 0.0 < scale < math.inf):
        raise MaskingError(f"degenerate scale: shifted signal sums to {total:.6g}, scale {scale:.6g}")
    q_scaled = scale * q_shifted
    q_tilde = round_and_repair(q_scaled, int(round(q.sum())), config.sum_repair)
    report = evaluate_goals(new_approx, base_approx, config.goals)
    return MaskingResult(
        q, dec, new_coeffs, new_approx, q_hat, offset, q_shifted, float(scale), q_scaled, q_tilde, report, lp, base_approx
    )
