"""Two-phase primal simplex over independent row blocks, for the goal systems built here.

A system is a coefficient matrix with a relation and a rhs per row and a free
variable per column, e.g. 256 goal rows by 512 approximation coefficients.
Bland's rule, free variables split into positive parts, float64 arithmetic;
untouched columns come back as 0; infeasible and unbounded are statuses.

Rows sharing a touched column, directly or through other rows, form a block;
a goal LP has many small ones.  Their tableaux (rows in row order; x+, x-,
slack and artificial columns in global order) are zero-padded into one
(blocks, rows + 1, columns + 1) array, and each round every block with an
improving column makes its own Bland pivot, so Python loops as often as the
longest block pivots.  This is sequential Bland's rule on one tableau, bit
for bit: a pivot row is zero outside its block and a pivot only updates rows
with a non-zero pivot-column entry f (``row -= f * pivot_row``), so each
block takes the global tableau's pivots with the same arithmetic, and local
columns keep the global order for entering and for exact ratio ties (lowest
basic index).  Two couplings between blocks are replayed:

- Global Bland enters the smallest head among the blocks.  A stable sort of
  all pivots by the running maximum of their block's entering columns gives
  that interleaving.  The phase-1 residual compared with FEAS_TOL is summed
  in it: every row's rhs in row order, then each pivot's ``f * pivot_rhs``.
- Global Bland stops at the first entering column with no entry above
  PIVOT_TOL.  Phase 1 ignores that "unbounded" and goes on from where it
  stopped, so phase 1 is rerun with each block capped at its pivots before
  that moment.  In phase 2 a stuck block means "unbounded".

The phase-1 cost row needs no pass over the rows.  At phase-1 start every
real row's basic variable is its artificial, at cost -1, so sequential
Bland's row is -costs plus (-1) * t[r] for each real row r in row order
(padded rows cost 0), and x + (-1 * v) is x - v exactly.  So it is -costs
minus each row's x+ values, their negations in x-, its slack and its rhs,
taken in row order by one ``np.subtract.at`` (which applies its terms in
index order): every non-zero entry has the same bits.  An artificial's
entry, +1 less its own row's 1, is exactly 0 and is left out.  A zero entry
of a row adds +-0, which only flips the sign of a zero cost entry, and no
output reads that: the cost row is read only by ``< -PIVOT_TOL`` tests and
``f * pivot_row`` updates, the phase-1 residual is replayed separately, and
phase 2 rebuilds the row from scratch (``set_objective``).  The x- entries
are written one by one too, so a zero there is +0 where negating all of x+
would give -0; no output reads the sign of a zero tableau entry (a zero
``f`` updates nothing, and ``x`` comes from the rhs column alone).
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
    pivots: int = 0  # phase 1, artificials driven out, phase 2: as one global Bland tableau makes them


def max_violation(lp: LinearProgram, x) -> float:
    """Largest violation of any row or bound at point x (0 when feasible)."""
    coeffs, relations, rhs = lp.with_bounds()
    excess = coeffs @ np.asarray(x, dtype=np.float64) - rhs
    relation = np.array(relations, dtype=str)
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


def _replay(events: list, blocks: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Each block's pivots before the first stuck event in global Bland order, their products in it, any stuck."""
    if not events:
        return np.zeros(blocks, dtype=np.intp), np.zeros(0), False
    block, key, product = (np.concatenate(part) for part in list(zip(*events))[:3])
    stuck = np.repeat([event[3] for event in events], [event[0].size for event in events])
    order = np.argsort(block, kind="stable")  # each block's events, in round order
    offset = block[order] * (int(key.max()) + 1)
    order = order[np.argsort(np.maximum.accumulate(key[order] + offset) - offset, kind="stable")]
    stops = np.flatnonzero(stuck[order])
    order = order[: stops[0]] if stops.size else order
    return np.bincount(block[order], minlength=blocks), product[order], bool(stops.size)


class _Blocks:
    """Phase-1 tableaux of the blocks of the rows' non-zero (row, column, value) entries, zero-padded.

    The entries come in row-major order.  ``t[b]``: x+ at [0, width), x- at
    [width, 2 width), slacks, artificials from ``art_at``, rhs; cost row
    last.  ``basis`` holds each row's basic local column (-1: no row),
    ``keys`` each local column's global order.
    """

    def __init__(self, entries: tuple, ncols: int, relations: tuple[str, ...], rhs: np.ndarray):
        rows, position, values = entries
        nr = rhs.size
        parent = _components(rows, position, nr, ncols)
        roots, block = np.unique(parent, return_inverse=True)
        nb, row_block, self.col_block = roots.size, block[:nr], block[nr:]
        row_local, height = _rank(row_block, nb)
        self.col_local, self.width = _rank(self.col_block, nb)
        relation = np.array(relations, dtype=str)
        slack = relation != "="
        slack_local, slacks = _rank(row_block[slack], nb)
        slack_col = 2 * self.width + slack_local
        self.art_at = art_at = 2 * self.width + slacks
        self.keys = np.zeros((nb, art_at + height), dtype=np.intp)
        self.keys[self.col_block, self.col_local] = np.arange(ncols)
        self.keys[self.col_block, self.width + self.col_local] = ncols + np.arange(ncols)
        self.keys[row_block[slack], slack_col] = 2 * ncols + np.flatnonzero(slack)
        self.keys[row_block, art_at + row_local] = 2 * ncols + nr + np.arange(nr)

        flip = rhs < 0.0  # such a row is negated, and its relation reverses
        self.rhs = np.where(flip, -rhs, rhs)
        x_plus, column = values * np.where(flip, -1.0, 1.0)[rows], self.col_local[position]
        slack_sign = np.where(((relation == "<=") != flip)[slack], 1.0, -1.0)
        self.t = np.zeros((nb, height + 1, art_at + height + 1))
        self.t[row_block[rows], row_local[rows], column] = x_plus
        self.t[row_block[rows], row_local[rows], self.width + column] = -x_plus
        self.t[row_block[slack], row_local[slack], slack_col] = slack_sign
        self.t[row_block, row_local, art_at + row_local] = 1.0
        self.t[row_block, row_local, -1] = self.rhs
        self.basis = np.full((nb, height), -1)
        self.basis[row_block, row_local] = art_at + row_local
        # the phase-1 cost row: the same entries, subtracted in row order (see the module docstring)
        block = np.concatenate((row_block[rows], row_block[rows], row_block[slack], row_block))
        cost_column = np.concatenate((column, self.width + column, slack_col, np.full(nr, art_at + height)))
        at = np.ravel_multi_index((block, np.full(block.size, height), cost_column), self.t.shape)
        np.subtract.at(self.t.reshape(-1), at, np.concatenate((x_plus, -x_plus, slack_sign, self.rhs)))

    def set_objective(self, costs: np.ndarray) -> None:
        """Phase-2 cost row of maximizing costs . x: -costs, then cb * row for each row with cb != 0, in row order."""
        cb = np.take_along_axis(np.pad(costs, ((0, 0), (0, 1))), self.basis, axis=1)
        bottom = self.t[:, -1]
        bottom[:] = 0.0
        bottom[:, :-1] = -costs
        for row in range(cb.shape[1]):
            np.add(bottom, cb[:, row, None] * self.t[:, row], out=bottom, where=cb[:, row, None] != 0.0)

    def run(self, width: int, caps: np.ndarray | None = None) -> list:
        """Rounds of Bland's rule entering among the first ``width`` columns.

        Each round, every block with an improving column pivots once, unless
        it has made ``caps[b]`` pivots or got stuck (no entry above PIVOT_TOL
        in its entering column).  Returns the events: (blocks, entering keys,
        cost-row products, stuck) per round.
        """
        t, basis, events = self.t, self.basis, []
        left = np.full(len(t), np.iinfo(np.intp).max) if caps is None else caps.copy()
        for _ in range(10_000 * sum(t.shape)):
            improving = t[:, -1, :width] < -PIVOT_TOL
            live = np.flatnonzero(improving.any(axis=1) & (left > 0))
            if live.size == 0:
                return events
            entering = improving[live].argmax(axis=1)
            column = t[live, :, entering]
            positive = column[:, :-1] > PIVOT_TOL
            if not (found := positive.any(axis=1)).all():
                left[live[~found]] = 0
                events.append((live[~found], self.keys[live[~found], entering[~found]], np.zeros(np.sum(~found)), True))
                live, entering, column, positive = live[found], entering[found], column[found], positive[found]
                if live.size == 0:
                    continue
            lanes = np.arange(live.size)
            ratios = np.full(positive.shape, np.inf)
            np.divide(np.maximum(t[live, :-1, -1], 0.0), column[:, :-1], out=ratios, where=positive)
            # exact ratio ties go to the lowest basic index
            leaving = np.lexsort((np.where(positive, basis[live], t.shape[2]), ratios), axis=1)[:, 0]
            pivot_row = t[live, leaving] / column[lanes, leaving][:, None]
            column[lanes, leaving] = 0.0  # the pivot row is not updated by itself
            lane, row = np.divmod(np.flatnonzero(column), column.shape[1])
            t[live[lane], row] -= column[lane, row, None] * pivot_row[lane]
            t[live, leaving], basis[live, leaving] = pivot_row, entering
            left[live] -= 1
            events.append((live, self.keys[live, entering], column[:, -1] * pivot_row[:, -1], False))
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


def solve(lp: LinearProgram, mode: str = "feasibility") -> LpSolution:
    """Solve the program; feasibility mode stops at the first basic feasible point.

    Deterministic: identical inputs produce identical solutions.
    """
    if mode not in ("feasibility", "optimize"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "optimize" and lp.objective is None:
        raise ConfigurationError("optimize mode requires an objective")

    coeffs, relations, rhs = lp.with_bounds()
    rows, cols = np.divmod(np.flatnonzero(coeffs != 0.0), lp.num_vars)
    # A column zero in every row and in the cost keeps a reduced cost of
    # exactly 0, so Bland's rule never picks it; pivots act element by element,
    # so dropping it changes no other entry, and it comes back as 0.
    touched = np.zeros(lp.num_vars, dtype=bool)
    touched[cols] = True
    if mode == "optimize":
        touched |= lp.objective.coeffs != 0.0
    columns = np.flatnonzero(touched)
    entries = (rows, np.searchsorted(columns, cols), coeffs[rows, cols])
    blocks = _Blocks(entries, columns.size, relations, rhs)
    caps, products, stopped = _replay(blocks.run(blocks.t.shape[2] - 1), len(blocks.t))
    if stopped:  # global Bland stopped there: rerun phase 1 up to that moment
        blocks = _Blocks(entries, columns.size, relations, rhs)
        blocks.run(blocks.t.shape[2] - 1, caps)
    pivots = int(caps.sum())
    if np.cumsum(np.concatenate(([0.0], -blocks.rhs, -products)))[-1] < -FEAS_TOL:
        return LpSolution(status="infeasible", pivots=pivots)
    pivots += blocks.drop_artificials()

    x = np.zeros(lp.num_vars)
    if mode == "feasibility":
        x[columns] = blocks.extract()
        return LpSolution(status="feasible", x=x, pivots=pivots)

    gain = (1.0 if lp.objective.sense == "maximize" else -1.0) * lp.objective.coeffs[columns]
    costs = np.zeros(blocks.t[:, -1, :-1].shape)
    costs[blocks.col_block, blocks.col_local] = gain
    costs[blocks.col_block, blocks.width + blocks.col_local] = -gain
    blocks.set_objective(costs)
    made, _products, stuck = _replay(blocks.run(blocks.art_at), len(blocks.t))
    if stuck:
        return LpSolution(status="unbounded", pivots=pivots + int(made.sum()))
    x[columns] = blocks.extract()
    return LpSolution(status="optimal", x=x, objective_value=float(lp.objective.coeffs @ x), pivots=pivots + int(made.sum()))
