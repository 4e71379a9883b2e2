"""Dense two-phase primal simplex for the goal systems built here.

A system is one coefficient matrix plus a relation and a rhs per row, with
a free variable per column (an approximation coefficient): e.g. 256 goal rows
by 512 columns.  The tableau spans only the columns that some row (or, when
optimizing, the objective) touches; the others come back as 0.  Steps are
vectorized, yet robustness and determinism come first: Bland's rule for
anti-cycling, free variables split into positive parts, explicit tableau
arithmetic in float64.  Infeasibility and unboundedness are statuses.
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
class Objective:
    coeffs: np.ndarray
    sense: str  # "maximize" or "minimize"

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen(self.coeffs))
        if self.sense not in ("maximize", "minimize"):
            raise ConfigurationError(f"unknown objective sense {self.sense!r}")


@dataclass(frozen=True)
class LinearProgram:
    """Rows ``coeffs @ x <relations> rhs`` over free variables, one per column.

    ``coeffs`` is kept read-only; a read-only array that owns its data is not
    copied.  Bounds default to unbounded; a bound of None leaves that side open.
    """

    coeffs: np.ndarray
    relations: tuple[str, ...]
    rhs: np.ndarray
    objective: Objective | None = None
    bounds: tuple[tuple[float | None, float | None], ...] | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64)
        object.__setattr__(self, "coeffs", coeffs if coeffs.flags.owndata and not coeffs.flags.writeable else _frozen(coeffs))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "rhs", _frozen(self.rhs))
        if coeffs.ndim != 2 or coeffs.shape[1] < 1:
            raise ConfigurationError(f"coeffs must be 2-D with at least one column, got shape {coeffs.shape}")
        if len(self.relations) != len(coeffs) or self.rhs.shape != (len(coeffs),):
            raise ConfigurationError(f"{len(coeffs)} rows, {len(self.relations)} relations and {self.rhs.size} rhs values")
        if not set(self.relations) <= set(RELATIONS):
            raise ConfigurationError(f"unknown relation in {sorted(set(self.relations) - set(RELATIONS))}")
        if not np.all(np.isfinite(coeffs)) or not np.all(np.isfinite(self.rhs)):
            raise ConfigurationError("constraint contains non-finite values")
        if self.objective is not None and self.objective.coeffs.size != self.num_vars:
            raise ConfigurationError("objective length does not match num_vars")
        if self.bounds is not None:
            object.__setattr__(self, "bounds", tuple(self.bounds))
            if len(self.bounds) != self.num_vars:
                raise ConfigurationError("bounds length does not match num_vars")

    @property
    def num_vars(self) -> int:
        return self.coeffs.shape[1]

    def with_bounds(self) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        """(coeffs, relations, rhs) with a unit row per bound side that is set, the LP's own arrays when unbounded."""
        if self.bounds is None:
            return self.coeffs, self.relations, self.rhs
        limits = np.array(self.bounds, dtype=object).reshape(self.num_vars, 2)
        column, side = np.nonzero(np.not_equal(limits, None))  # per column: lower, then upper
        units = (column[:, None] == np.arange(self.num_vars)).astype(np.float64)
        relations = self.relations + tuple(np.array((">=", "<="))[side].tolist())
        rhs = np.concatenate((self.rhs, limits[column, side].astype(np.float64)))
        if not np.all(np.isfinite(rhs)):
            raise ConfigurationError("constraint contains non-finite values")
        return np.vstack((self.coeffs, units)), relations, rhs


@dataclass(frozen=True)
class LpSolution:
    status: str  # feasible | optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective_value: float | None = None


def max_violation(lp: LinearProgram, x) -> float:
    """Largest violation of any row or bound at point x (0 when feasible)."""
    coeffs, relations, rhs = lp.with_bounds()
    excess = coeffs @ np.asarray(x, dtype=np.float64) - rhs
    relation = np.array(relations, dtype=str)
    gap = np.where(relation == ">=", -excess, np.where(relation == "=", np.abs(excess), excess))
    return float(np.max(gap, initial=0.0))


class _Tableau:
    """Mutable simplex tableau; bottom row holds reduced costs for maximization."""

    def __init__(self, body: np.ndarray, basis: list[int]):
        self.t = body  # (rows+1) x (cols+1), last column rhs, last row costs
        self.basis = basis

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
        for _ in range(10_000 * (len(self.basis) + self.ncols + 1)):
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


def _build_phase1(coeffs: np.ndarray, relations: tuple[str, ...], rhs: np.ndarray, columns: np.ndarray):
    """Standard-form tableau over the given columns: split parts, slacks, artificials."""
    nr, width = rhs.size, columns.size
    split = 2 * width
    flip = rhs < 0.0  # such a row is negated, and its relation reverses
    relation = np.array(relations, dtype=str)
    slack_rows = np.flatnonzero(relation != "=")
    art_at = split + slack_rows.size
    t = np.zeros((nr + 1, art_at + nr + 1))
    sign = np.where(flip, -1.0, 1.0)
    np.multiply(coeffs[:, columns], sign[:, None], out=t[:nr, :width])
    np.negative(t[:nr, :width], out=t[:nr, width:split])
    at_most = (relation == "<=") != flip
    t[slack_rows, split + np.arange(slack_rows.size)] = np.where(at_most[slack_rows], 1.0, -1.0)
    t[np.arange(nr), art_at + np.arange(nr)] = 1.0
    t[:nr, -1] = np.where(flip, -rhs, rhs)
    return _Tableau(t, list(range(art_at, art_at + nr))), split, art_at


def _drop_artificials(tab: _Tableau, art_at: int) -> _Tableau:
    """Pivot basic artificials out (or drop their redundant rows), then cut columns."""
    keep_rows = []
    for i in range(len(tab.basis)):
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
    body = tab.t[np.array(keep_rows + [-1], dtype=int)][:, list(range(art_at)) + [-1]]
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

    coeffs, relations, rhs = lp.with_bounds()
    # A column zero in every row and in the cost keeps a reduced cost of
    # exactly 0, so Bland's rule never picks it; pivots act element by element,
    # so dropping it changes no other entry, and it comes back as 0.
    touched = np.any(coeffs != 0.0, axis=0)
    if mode == "optimize":
        touched |= lp.objective.coeffs != 0.0
    columns = np.flatnonzero(touched)
    tab, split, art_at = _build_phase1(coeffs, relations, rhs, columns)

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
