"""Dense two-phase primal simplex for the goal systems built here.

A system has a free variable per approximation coefficient and a row per
goal: hundreds of each, e.g. 512 variables by 256 rows.  The tableau spans
only the columns that some row (or, when optimizing, the objective) touches;
the others come back as 0.  Steps are vectorized over the tableau, yet
robustness and determinism come first: Bland's rule for anti-cycling, free
variables split into positive parts, explicit tableau arithmetic in float64.
Infeasibility and unboundedness are reported as statuses, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .wavelet import _frozen

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

RELATIONS = ("<=", ">=", "=")


@dataclass(frozen=True)
class Constraint:
    """One linear row: coeffs . x  <relation>  rhs."""

    coeffs: np.ndarray
    relation: str
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))
        object.__setattr__(self, "rhs", float(self.rhs))
        if self.relation not in RELATIONS:
            raise ConfigurationError(f"unknown relation {self.relation!r}")
        if not np.all(np.isfinite(self.coeffs)) or not np.isfinite(self.rhs):
            raise ConfigurationError("constraint contains non-finite values")

    def violation(self, x: np.ndarray) -> float:
        """How far x is from satisfying this row (0 when satisfied)."""
        lhs = float(self.coeffs @ x)
        if self.relation == "<=":
            return max(0.0, lhs - self.rhs)
        if self.relation == ">=":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass(frozen=True)
class Objective:
    coeffs: np.ndarray
    sense: str  # "maximize" or "minimize"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))
        if self.sense not in ("maximize", "minimize"):
            raise ConfigurationError(f"unknown objective sense {self.sense!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Rows over num_vars free variables, optional objective and box bounds.

    Bounds default to unbounded on both sides; a bound of None leaves that
    side open.
    """

    num_vars: int
    rows: tuple[Constraint, ...]
    objective: Objective | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.num_vars < 1:
            raise ConfigurationError(f"num_vars must be positive, got {self.num_vars}")
        for i, row in enumerate(self.rows):
            if row.coeffs.size != self.num_vars:
                raise ConfigurationError(
                    f"row {i}: expected {self.num_vars} coefficients, got {row.coeffs.size}"
                )
        if self.objective is not None and self.objective.coeffs.size != self.num_vars:
            raise ConfigurationError("objective length does not match num_vars")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(self.bounds))
            if len(self.bounds) != self.num_vars:
                raise ConfigurationError("bounds length does not match num_vars")

    def all_rows(self) -> list[Constraint]:
        """Constraint rows plus bounds rewritten as rows."""
        rows = list(self.rows)
        if self.bounds is not None:
            for i, (lo, hi) in enumerate(self.bounds):
                unit = np.zeros(self.num_vars)
                unit[i] = 1.0
                if lo is not None:
                    rows.append(Constraint(unit, ">=", lo))
                if hi is not None:
                    rows.append(Constraint(unit, "<=", hi))
        return rows


@dataclass(frozen=True)
class LpSolution:
    status: str  # feasible | optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x) -> float:
    """Largest violation of any row or bound at point x (0 when feasible)."""
    point = np.asarray(x, dtype=np.float64)
    rows = lp.all_rows()
    if not rows:
        return 0.0
    return max(row.violation(point) for row in rows)


class _Tableau:
    """Mutable simplex tableau; bottom row holds reduced costs for maximization."""

    def __init__(self, body: np.ndarray, basis: list[int]):
        self.t = body  # (rows+1) x (cols+1), last column rhs, last row costs
        self.basis = basis

    @property
    def nrows(self) -> int:
        return self.t.shape[0] - 1

    @property
    def ncols(self) -> int:
        return self.t.shape[1] - 1

    def pivot(self, row: int, col: int) -> None:
        t = self.t
        t[row] /= t[row, col]
        others = np.flatnonzero(t[:, col])
        others = others[others != row]
        t[others] -= t[others, col][:, None] * t[row]
        self.basis[row] = col

    def set_objective(self, costs: np.ndarray) -> None:
        # Maximize costs . x: bottom row starts at -costs, then basic
        # columns are eliminated so their reduced costs return to zero.
        self.t[-1, :] = 0.0
        self.t[-1, : self.ncols] = -costs
        for r, b in enumerate(self.basis):
            cb = costs[b]
            if cb != 0.0:
                self.t[-1] += cb * self.t[r]

    def run(self) -> str:
        """Bland's rule simplex; returns "optimal" or "unbounded"."""
        t = self.t
        for _ in range(10_000 * (self.nrows + self.ncols + 1)):
            improving = np.flatnonzero(t[-1, :-1] < -PIVOT_TOL)
            if improving.size == 0:
                return "optimal"
            entering = int(improving[0])
            column = t[:-1, entering]
            rows = np.flatnonzero(column > PIVOT_TOL)
            if rows.size == 0:
                return "unbounded"
            ratios = np.maximum(t[rows, -1], 0.0) / column[rows]
            # exact ratio ties go to the lowest basic index
            leaving = int(min(rows[ratios == ratios.min()], key=self.basis.__getitem__))
            self.pivot(leaving, entering)
        raise RuntimeError("simplex iteration limit exceeded")  # Bland should prevent this


def _build_phase1(rows: list[Constraint], columns: np.ndarray):
    """Standard-form tableau over the given columns: split parts, slacks, artificials."""
    nr, width = len(rows), columns.size
    split = 2 * width
    rhs = np.array([row.rhs for row in rows])
    flip = rhs < 0.0  # such a row is negated, and its relation reverses
    relation = np.array([row.relation for row in rows], dtype=object)
    slack_rows = np.flatnonzero(relation != "=")
    art_at = split + slack_rows.size
    t = np.zeros((nr + 1, art_at + nr + 1))
    sign = np.where(flip, -1.0, 1.0)
    for i, row in enumerate(rows):
        np.multiply(row.coeffs[columns], sign[i], out=t[i, :width])
    np.negative(t[:nr, :width], out=t[:nr, width:split])
    at_most = (relation == "<=") != flip
    t[slack_rows, split + np.arange(slack_rows.size)] = np.where(at_most[slack_rows], 1.0, -1.0)
    t[np.arange(nr), art_at + np.arange(nr)] = 1.0
    t[:nr, -1] = np.where(flip, -rhs, rhs)
    return _Tableau(t, list(range(art_at, art_at + nr))), split, art_at


def _drop_artificials(tab: _Tableau, art_at: int) -> _Tableau:
    """Pivot basic artificials out (or drop their redundant rows), then cut columns."""
    keep_rows = []
    for i in range(tab.nrows):
        if tab.basis[i] < art_at:
            keep_rows.append(i)
            continue
        # a basic artificial sits within FEAS_TOL of zero here; snap it to
        # exactly zero so a small pivot element cannot inflate the residue
        tab.t[i, -1] = 0.0
        candidates = np.flatnonzero(np.abs(tab.t[i, :art_at]) > PIVOT_TOL)
        if candidates.size:
            tab.pivot(i, int(candidates[0]))
            keep_rows.append(i)
        # else: row is redundant (all-zero over real columns) and is dropped
    body = tab.t[np.array(keep_rows + [tab.nrows], dtype=int)][:, list(range(art_at)) + [-1]]
    basis = [tab.basis[i] for i in keep_rows]
    return _Tableau(np.ascontiguousarray(body), basis)


def _extract(tab: _Tableau, num_vars: int) -> np.ndarray:
    full = np.zeros(tab.ncols)
    full[tab.basis] = tab.t[:-1, -1]
    return full[:num_vars] - full[num_vars : 2 * num_vars]


def solve(lp: LinearProgram, mode: str = "feasibility") -> LpSolution:
    """Solve the program; feasibility mode stops at the first basic feasible point.

    Deterministic: identical inputs produce identical solutions.
    """
    if mode not in ("feasibility", "optimize"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "optimize" and lp.objective is None:
        raise ConfigurationError("optimize mode requires an objective")

    rows = lp.all_rows()
    # A column zero in every row and in the cost keeps a reduced cost of
    # exactly 0, so Bland's rule never picks it; pivots act element by element,
    # so dropping it changes no other entry, and it comes back as 0.
    touched = (lp.objective.coeffs != 0.0) if mode == "optimize" else np.zeros(lp.num_vars, dtype=bool)
    for row in rows:
        touched |= row.coeffs != 0.0
    columns = np.flatnonzero(touched)
    tab, split, art_at = _build_phase1(rows, columns)

    phase1_cost = np.zeros(tab.ncols)
    phase1_cost[art_at:] = -1.0
    tab.set_objective(phase1_cost)
    tab.run()
    if tab.t[-1, -1] < -FEAS_TOL:
        return LpSolution(status="infeasible")
    tab = _drop_artificials(tab, art_at)

    x = np.zeros(lp.num_vars)
    if mode == "feasibility":
        x[columns] = _extract(tab, columns.size)
        return LpSolution(status="feasible", x=x)

    gain = (1.0 if lp.objective.sense == "maximize" else -1.0) * lp.objective.coeffs[columns]
    costs = np.zeros(tab.ncols)
    costs[:split] = np.concatenate((gain, -gain))
    tab.set_objective(costs)
    status = tab.run()
    if status == "unbounded":
        return LpSolution(status="unbounded")
    x[columns] = _extract(tab, columns.size)
    return LpSolution(status="optimal", x=x, objective_value=float(lp.objective.coeffs @ x))
