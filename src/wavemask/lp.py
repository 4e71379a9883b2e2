"""Two-phase primal simplex over independent row blocks, for the goal systems built here.

A system is a coefficient matrix held only as its non-zero (row, column,
value) entries, row-major (the solver, ``max_violation`` and the report's
``lp_rows`` read them), with a relation and a rhs per row and a free variable
per column, e.g. 256 goal rows of a few entries over 512 coefficients; a
bound is a row with one entry.  Bland's rule, free variables split into
positive parts, float64 arithmetic; untouched columns come back as 0;
infeasible and unbounded are statuses.  A cost vector is maximized; without
one, the solver stops at the first basic feasible point.

Rows sharing a touched column, directly or through other rows, form a block;
a goal LP has many small ones.  Blocks share no row and no column, so each
block is an LP of its own, solved by sequential Bland's rule on its own
tableau: rows in row order; x+, x-, slack and artificial columns in global
order.  The tableaux are zero-padded into one (blocks, rows + 1, columns + 1)
array, and each round every block with an improving column makes its own
pivot, so Python loops as often as the longest block pivots.  That is bit
for bit the tableau of the block alone: a pivot only updates rows with a
non-zero pivot-column entry f (``row -= f * pivot_row``), which all lie in
its block, and local columns keep the global order for entering and for
exact ratio ties (lowest basic index).  Each block decides for itself:

- A block whose entering column has no entry above PIVOT_TOL stops there,
  and the other blocks run on to their own end.
- Phase 1 finds the system infeasible iff some block's own residual (its
  cost row's rhs) is below -FEAS_TOL, a stopped block's where it stopped.
- Phase 2 finds it unbounded iff some block stopped.

So no verdict depends on a float sum over other blocks, whose rounding
grows with their number and the size of their rhs.

Both cost rows follow Bland's rule: -costs, plus each row times its basic
cost, in row order, as one numpy sum down the row axis.  numpy reduces a
non-innermost axis by adding whole rows in index order, so on a finite
tableau the sum has the sequential bits; only a zero's sign may differ, and
no output reads it.  In phase 1 each real row's basic variable is its
artificial, at cost -1, so the row is minus the sum of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, MaskingError
from .wavelet import _frozen

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

RELATIONS = ("<=", ">=", "=")


@dataclass(frozen=True)
class LinearProgram:
    """Rows ``A @ x <relations> rhs`` over ``num_vars`` free variables, one row per rhs value.

    ``entries`` holds A as (rows, columns, values) of its non-zeros in
    row-major order, each in range, finite and non-zero; ``objective``, when
    set, holds one finite cost per column, which ``solve`` maximizes.  All
    are stored as read-only copies.
    """

    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    num_vars: int
    relations: tuple[str, ...]
    rhs: np.ndarray
    objective: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(map(_frozen, self.entries, (np.intp, np.intp, np.float64))))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "rhs", _frozen(self.rhs))
        object.__setattr__(self, "objective", None if self.objective is None else _frozen(self.objective))
        (rows, cols, values), nr, nv = self.entries, self.rhs.size, self.num_vars
        if nv < 1 or len(self.relations) != nr or self.rhs.ndim != 1:
            raise ConfigurationError(f"{nr} rhs values, {len(self.relations)} relations and {nv} columns (at least one)")
        if not set(self.relations) <= set(RELATIONS):
            raise ConfigurationError(f"unknown relation in {sorted(set(self.relations) - set(RELATIONS))}")
        if not rows.shape == cols.shape == values.shape == (rows.size,):
            raise ConfigurationError("entries must be three 1-D arrays of one length")
        key = rows * nv + cols  # strictly increasing in row-major order
        if np.any((cols < 0) | (cols >= nv) | (key >= nr * nv) | (np.diff(key, prepend=-1) <= 0)):
            raise ConfigurationError(f"entries must be row-major, one per (row, column) of the {nr} x {nv} matrix")
        if self.objective is not None and self.objective.shape != (nv,):
            raise ConfigurationError(f"objective must have shape ({nv},), got {self.objective.shape}")
        costs = () if self.objective is None else self.objective
        if not (np.all(np.isfinite(values)) and np.all(values) and np.all(np.isfinite(self.rhs)) and np.all(np.isfinite(costs))):
            raise ConfigurationError("entries must be finite and non-zero, and rhs values and costs finite")


@dataclass(frozen=True)
class LpSolution:
    status: str  # feasible | optimal | infeasible | unbounded
    x: np.ndarray | None = None
    objective_value: float | None = None
    # phase 1, artificials driven out, phase 2: summed over blocks, as sequential Bland makes them on each block alone
    pivots: int = 0


def max_violation(lp: LinearProgram, x) -> float:
    """Largest violation of any row at point x (0 when feasible)."""
    x = np.asarray(x, dtype=np.float64)
    (rows, cols, values), relation = lp.entries, np.array(lp.relations, dtype=str)
    excess = np.bincount(rows, values * x[cols], minlength=lp.rhs.size) - lp.rhs
    gap = np.where(relation == ">=", -excess, np.where(relation == "=", np.abs(excess), excess))
    return float(np.max(gap, initial=0.0))


def _components(rows: np.ndarray, cols: np.ndarray, nr: int, width: int) -> np.ndarray:
    """Component root of each row, then each column: min-label hooking, then pointer jumping."""
    parent = np.arange(nr + width)
    while not np.array_equal(pu := parent[rows], pv := parent[nr + cols]):
        apart = pu != pv
        np.minimum.at(parent, np.maximum(pu, pv)[apart], np.minimum(pu, pv)[apart])
        while not np.array_equal(parent, jumped := parent[parent]):
            parent = jumped
    return parent


def _rank(group: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Each item's position among the earlier items of its group, and the largest group size."""
    sizes = np.bincount(group, minlength=count)
    rank = np.empty(group.size, dtype=np.intp)
    rank[np.argsort(group, kind="stable")] = np.arange(group.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return rank, int(sizes.max(initial=0))


class _Blocks:
    """Phase-1 tableaux of the blocks of the rows' non-zero (row, column, value) entries, zero-padded.

    The entries come in row-major order.  ``t[b]``: x+ at [0, width), x- at
    [width, 2 width), slacks, artificials from ``art_at``, rhs; cost row
    last.  ``basis`` holds each row's basic local column (-1: no row).
    """

    def __init__(self, entries: tuple, ncols: int, relation: np.ndarray, rhs: np.ndarray):
        rows, position, values = entries
        nr = rhs.size
        parent = _components(rows, position, nr, ncols)
        # parent is fully compressed: the roots are its fixed points, numbered in index order
        roots = parent == np.arange(parent.size)
        block = (np.cumsum(roots) - 1)[parent]
        nb, row_block, self.col_block = int(np.count_nonzero(roots)), block[:nr], block[nr:]
        row_local, height = _rank(row_block, nb)
        self.col_local, self.width = _rank(self.col_block, nb)
        slack = relation != "="
        slack_local, slacks = _rank(row_block[slack], nb)
        slack_col = 2 * self.width + slack_local
        self.art_at = art_at = 2 * self.width + slacks

        flip = rhs < 0.0  # such a row is negated, and its relation reverses
        self.rhs = np.where(flip, -rhs, rhs)
        x_plus, column = values * np.where(flip, -1.0, 1.0)[rows], self.col_local[position]
        slack_sign = np.where(((relation == "<=") != flip)[slack], 1.0, -1.0)
        self.t = np.zeros((nb, height + 1, art_at + height + 1))
        self.t[row_block[rows], row_local[rows], column] = x_plus
        self.t[row_block[rows], row_local[rows], self.width + column] = -x_plus
        self.t[row_block[slack], row_local[slack], slack_col] = slack_sign
        self.t[row_block, row_local, -1] = self.rhs
        # the phase-1 cost row by the module docstring's rule, summed before the artificials go in (1 - 1 = 0 there)
        self.t[:, -1] = -self.t[:, :-1].sum(axis=1)
        self.t[row_block, row_local, art_at + row_local] = 1.0
        self.basis = np.full((nb, height), -1)
        self.basis[row_block, row_local] = art_at + row_local

    def set_objective(self, costs: np.ndarray) -> None:
        """Phase-2 cost row of maximizing costs . x by the module docstring's rule; costs is 0 at the rhs."""
        cb = np.take_along_axis(costs, self.basis, axis=1)  # a padded row's basis -1 takes the rhs's 0
        self.t[:, -1] = np.concatenate((-costs[:, None], cb[:, :, None] * self.t[:, :-1]), axis=1).sum(axis=1)

    def run(self, width: int) -> tuple[int, bool]:
        """Rounds of Bland's rule entering among the first ``width`` columns.

        Each round, every block with an improving column pivots once.  A
        block whose entering column has no entry above PIVOT_TOL is stuck and
        stops there; the others go on.  Returns the pivots made and whether
        some block got stuck.
        """
        t, basis, made = self.t, self.basis, 0
        stuck = np.zeros(len(t), dtype=bool)
        for _ in range(10_000 * sum(t.shape)):
            improving = t[:, -1, :width] < -PIVOT_TOL
            live = np.flatnonzero(improving.any(axis=1) & ~stuck)
            if live.size == 0:
                return made, bool(stuck.any())
            entering = improving[live].argmax(axis=1)
            column = t[live, :, entering]
            positive = column[:, :-1] > PIVOT_TOL
            if not (found := positive.any(axis=1)).all():
                stuck[live[~found]] = True
                live, entering, column, positive = live[found], entering[found], column[found], positive[found]
                if live.size == 0:
                    continue
            lanes = np.arange(live.size)
            ratios = np.full(positive.shape, np.inf)
            np.divide(np.maximum(t[live, :-1, -1], 0.0), column[:, :-1], out=ratios, where=positive)
            # exact ratio ties go to the lowest basic index; only a positive entry's row
            # may leave, even if every ratio overflowed to inf
            tied = positive & (ratios == ratios.min(axis=1, keepdims=True))
            leaving = np.where(tied, basis[live], t.shape[2]).argmin(axis=1)
            pivot_row = t[live, leaving] / column[lanes, leaving][:, None]
            column[lanes, leaving] = 0.0  # the pivot row is not updated by itself
            lane, row = np.divmod(np.flatnonzero(column), column.shape[1])
            t[live[lane], row] -= column[lane, row, None] * pivot_row[lane]
            t[live, leaving], basis[live, leaving] = pivot_row, entering
            made += live.size
        raise RuntimeError("simplex iteration limit exceeded")  # Bland should prevent this

    def drop_artificials(self) -> int:
        """Pivot basic artificials out in row order, or drop their redundant rows; returns the pivots made.

        Artificial columns stay in the tableau; phase 2 never enters them.
        """
        made = 0
        for block, row in zip(*np.nonzero(self.basis >= self.art_at)):
            t = self.t[block]
            # a basic artificial sits within FEAS_TOL of zero here; snap it to
            # exactly zero so a small pivot element cannot inflate the residue
            t[row, -1] = 0.0
            candidates = np.flatnonzero(np.abs(t[row, : self.art_at]) > PIVOT_TOL)
            if candidates.size:
                col = self.basis[block, row] = candidates[0]
                t[row] /= t[row, col]
                others = np.flatnonzero(t[:, col])
                others = others[others != row]
                t[others] -= t[others, col][:, None] * t[row]
                made += 1
            else:  # the row is redundant (all-zero over real columns)
                t[row] = 0.0
                self.basis[block, row] = -1
        return made

    def extract(self) -> np.ndarray:
        """x over the columns: x+ minus x- where basic, 0 elsewhere."""
        full = np.zeros((self.t.shape[0], self.art_at))
        block, row = np.nonzero(self.basis >= 0)
        full[block, self.basis[block, row]] = self.t[block, row, -1]
        return full[self.col_block, self.col_local] - full[self.col_block, self.width + self.col_local]


def solve(lp: LinearProgram) -> LpSolution:
    """Maximize ``lp.objective`` when it is set; without one, stop at the first basic feasible point.

    Deterministic.  The first overflow, division by zero or NaN raises ``MaskingError``; on finite values
    Bland's rule cannot cycle, and only rounding or an exponential pivot run could meet the iteration limit.
    """
    rows, cols, values = lp.entries
    # A column zero in every row and in the cost keeps a reduced cost of
    # exactly 0, so Bland's rule never picks it; pivots act element by element,
    # so dropping it changes no other entry, and it comes back as 0.
    touched = np.zeros(lp.num_vars, dtype=bool) if lp.objective is None else lp.objective != 0.0
    touched[cols] = True
    columns = np.flatnonzero(touched)
    try:  # limits near the float maximum would otherwise overflow and pivot on NaNs
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            blocks = _Blocks((rows, np.searchsorted(columns, cols), values), columns.size, np.array(lp.relations, dtype=str), lp.rhs)
            pivots, _stuck = blocks.run(blocks.t.shape[2] - 1)  # a stuck block keeps its residual
            if np.any(blocks.t[:, -1, -1] < -FEAS_TOL):
                return LpSolution(status="infeasible", pivots=pivots)
            pivots += blocks.drop_artificials()

            x = np.zeros(lp.num_vars)
            if lp.objective is None:
                x[columns] = blocks.extract()
                return LpSolution(status="feasible", x=x, pivots=pivots)

            gain = lp.objective[columns]
            costs = np.zeros(blocks.t[:, -1].shape)
            costs[blocks.col_block, blocks.col_local] = gain
            costs[blocks.col_block, blocks.width + blocks.col_local] = -gain
            blocks.set_objective(costs)
            made, stuck = blocks.run(blocks.art_at)
            pivots += made
            if stuck:
                return LpSolution(status="unbounded", pivots=pivots)
            x[columns] = blocks.extract()
            return LpSolution(status="optimal", x=x, objective_value=float(lp.objective @ x), pivots=pivots)
    except FloatingPointError as exc:
        raise MaskingError(f"goal LP leaves the float range: {exc}") from None
