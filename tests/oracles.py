"""Brute-force reference implementations the tests compare the package against.

Everything here is written directly from the definitions, one index at a
time, independent of the vectorized code under test.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import itertools
import math
import random
from pathlib import Path

import numpy as np

from wavemask.errors import MaskingError
from wavemask.lp import FEAS_TOL, PIVOT_TOL, LinearProgram, LpSolution, max_violation
from wavemask.masking import (
    GOAL_TOL,
    GoalCheck,
    MaskingResult,
    build_constraints,
    evaluate_goals,
    round_and_repair,
    round_half_away,
    solve_approximation,
)
from wavemask.microdata import MicrofileTable, Move
from wavemask.wavelet import as_signal, decompose, make_filter
from wavemask.wrm import build_wrm


def bench_workloads():
    """The benchmark's input generators, ``bench/workloads.py``."""
    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def analysis_matrix(filt, m: int) -> np.ndarray:
    """Dense one-step analysis operator, entry by entry."""
    taps = len(filt)
    out = np.zeros((m // 2, m))
    for i in range(m // 2):
        for j in range(taps):
            out[i, (2 * i - 1 + j) % m] += float(filt[j])
    return out


def decompose_dense(signal, lowpass, highpass, level: int):
    """Pyramid as explicit matrix products; returns (a_k, [d_1 .. d_k])."""
    a = np.asarray(signal, dtype=np.float64)
    details = []
    for _ in range(level):
        m = a.size
        details.append(analysis_matrix(highpass, m) @ a)
        a = analysis_matrix(lowpass, m) @ a
    return a, details


def analysis_step_grid(values, filt) -> np.ndarray:
    """One analysis step from the gathered (2i - 1 + j) mod M index grid, one column per tap in ascending j."""
    x = np.asarray(values, dtype=np.float64)
    f = np.asarray(filt, dtype=np.float64)
    m = x.size
    idx = (2 * np.arange(m // 2)[:, None] - 1 + np.arange(f.size)[None, :]) % m
    out = np.zeros(m // 2)
    for j in range(f.size):
        out = out + f[j] * x[idx[:, j]]
    return out


def synthesis_step_add_at(coeffs, filt) -> np.ndarray:
    """One synthesis step by np.add.at over the analysis index, row-major over (coefficient, tap)."""
    c = np.asarray(coeffs, dtype=np.float64)
    f = np.asarray(filt, dtype=np.float64)
    m = 2 * c.size
    out = np.zeros(m)
    idx = (2 * np.arange(c.size)[:, None] - 1 + np.arange(f.size)[None, :]) % m
    np.add.at(out, idx, f[None, :] * c[:, None])
    return out


def reconstruct_component_add_at(coeffs, kind: str, level: int, filters) -> np.ndarray:
    """Band to signal length through ``synthesis_step_add_at``: the band's filter first, then lowpass."""
    out = synthesis_step_add_at(coeffs, filters.lowpass if kind == "approx" else filters.highpass)
    for _ in range(level - 1):
        out = synthesis_step_add_at(out, filters.lowpass)
    return out


def mask_signal_two_results(q, config):
    """``mask_signal`` as it was built from two results: the reassembly as a function of its own, then the rest.

    The reassembly keeps its standalone form: its own copy of q, its own
    A a_k from the decomposition, and the offset cases one by one.
    """
    q = as_signal(q)
    filters = make_filter(config.family, config.order)
    dec = decompose(q, filters, config.level)
    wrm = build_wrm(dec.length, dec.level, filters)
    base_approx = wrm.apply(dec.approx)
    lp = build_constraints(wrm, base_approx, config.goals)
    parts = _reassembled(q, dec, solve_approximation(lp, config), config, wrm)
    q_tilde = round_and_repair(parts["q_scaled"], int(round(q.sum())), config.sum_repair)
    report = evaluate_goals(parts["new_approx"], base_approx, config.goals)
    return MaskingResult(**parts, q_tilde=q_tilde, goal_report=report, lp=lp, base_approx=base_approx)


def _reassembled(q, dec, new_coeffs, config, wrm) -> dict:
    """The approximation's change added to q, the non-negativity shift and the rescale to q's total, as named result fields."""
    q = as_signal(q)
    new_coeffs = np.asarray(new_coeffs, dtype=np.float64)
    new_approx = wrm.apply(new_coeffs)
    q_hat = q + (new_approx - wrm.apply(dec.approx))
    low = q_hat.min()
    if low >= 0.0:
        offset = 0.0
    elif config.fixed_offset is None:
        offset = float(math.ceil(-low))
    else:
        offset = float(config.fixed_offset)
    q_shifted = q_hat + offset
    if q_shifted.min() < 0.0:
        raise MaskingError(f"fixed offset {offset} too small: shifted signal still reaches {q_shifted.min():.6g}")
    total = q_shifted.sum()
    if total <= 0.0:
        raise MaskingError("degenerate scale: shifted signal sums to zero")
    scale = q.sum() / total
    return dict(
        q=q, decomposition=dec, new_coeffs=new_coeffs, new_approx=new_approx, q_hat=q_hat, offset=offset,
        q_shifted=q_shifted, scale=float(scale), q_scaled=scale * q_shifted,
    )


def round_and_repair_loop(q_scaled, target_sum: int, sum_repair: bool = True) -> np.ndarray:
    """Rounding repair one unit at a time, re-ranking residuals after each unit."""
    scaled = np.asarray(q_scaled, dtype=np.float64)
    if not np.all(scaled >= 0.0):
        raise MaskingError("cannot round a signal with a negative or NaN entry")
    out = round_half_away(scaled)
    if not sum_repair:
        return out
    target = int(target_sum)
    if target < 0:
        raise MaskingError(f"target sum {target} unreachable with non-negative entries")
    while out.sum() != target:
        residual = scaled - out
        if out.sum() < target:
            out[int(np.argmax(residual))] += 1
        else:
            candidates = np.where(out > 0)[0]
            if candidates.size == 0:
                raise MaskingError(f"target sum {target} unreachable without negative entries")
            pick = candidates[int(np.argmin(residual[candidates]))]
            out[pick] -= 1
    return out


def active_goals(goals) -> dict:
    """Non-free goals, sorted by index."""
    return {i: g for i, g in sorted(goals.by_index.items()) if g.kind != "free"}


def _goal_limits(goal, current: float) -> list[tuple[str, float]]:
    """The (relation, rhs) rows one goal puts on the approximation at its position.

    raise gives one ">=" row and lower one "<=" row, at ``current``; bound
    gives one row per limit it has.
    """
    if goal.kind == "bound":
        limits = ((">=", goal.lower), ("<=", goal.upper))
        return [(relation, limit) for relation, limit in limits if limit is not None]
    return [(">=" if goal.kind == "raise" else "<=", current)]


def goal_rows_loop(wrm, approx, goals) -> LinearProgram:
    """Goal rows built goal by goal through ``_goal_limits``, in ascending position order."""
    a_k = np.asarray(approx, dtype=np.float64)
    limits = [(index, *limit) for index, goal in active_goals(goals).items() for limit in _goal_limits(goal, a_k[index - 1])]
    positions, relations, rhs = zip(*limits)
    return dense_lp(gather_rows(wrm, np.array(positions)), relations, rhs)


def evaluate_goals_loop(new_approx, base_approx, goals, tol: float = GOAL_TOL) -> tuple:
    """Goal checks made goal by goal through ``_goal_limits``."""
    new_approx = np.asarray(new_approx, dtype=np.float64)
    base = np.asarray(base_approx, dtype=np.float64)
    checks = []
    for index, goal in active_goals(goals).items():
        achieved = float(new_approx[index - 1])
        limits = _goal_limits(goal, float(base[index - 1]))
        ok = all(achieved >= rhs - tol if relation == ">=" else achieved <= rhs + tol for relation, rhs in limits)
        threshold = None if goal.kind == "bound" else limits[0][1]
        checks.append(GoalCheck(index, goal.kind, achieved, ok, threshold, goal.lower, goal.upper))
    return tuple(checks)


def random_lowpass(rng) -> np.ndarray:
    """Random valid 4-tap orthonormal lowpass (one-parameter family)."""
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    c, s = np.cos(theta), np.sin(theta)
    return np.array([1 - c + s, 1 + c + s, 1 + c - s, 1 - c - s]) / (2.0 * np.sqrt(2.0))


def dense_lp(coeffs, relations, rhs, objective=None) -> LinearProgram:
    """The program with this dense coefficient matrix: its non-zero entries, row-major by ``np.nonzero``."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    rows, cols = np.nonzero(coeffs)
    return LinearProgram((rows, cols, coeffs[rows, cols]), coeffs.shape[1], relations, rhs, objective)


def dense(lp: LinearProgram) -> np.ndarray:
    """The program's dense read-only coefficient matrix: its entries scattered into zeros."""
    out = np.zeros((lp.rhs.size, lp.num_vars))
    out[lp.entries[:2]] = lp.entries[2]
    out.setflags(write=False)
    return out


def with_bounds(lp: LinearProgram, bounds) -> LinearProgram:
    """The program with a unit row per bound side that is set, after its own rows, given as entries.

    ``bounds`` holds one (lower, upper) pair per column, a side None when it
    is open.  The rows come per column, in column order: x_j >= lower, then
    x_j <= upper.
    """
    limits = np.array(bounds, dtype=object).reshape(lp.num_vars, 2)
    column, side = np.nonzero(np.not_equal(limits, None))
    units = (lp.rhs.size + np.arange(column.size), column, np.ones(column.size))
    relations = lp.relations + tuple(np.array((">=", "<="))[side].tolist())
    rhs = np.concatenate((lp.rhs, limits[column, side].astype(np.float64)))
    return LinearProgram(tuple(map(np.concatenate, zip(lp.entries, units))), lp.num_vars, relations, rhs, lp.objective)


def vertex_optimum(lp: LinearProgram, tol: float = 1e-7):
    """Solve every n-subset of tight rows, keep feasible points, take the largest objective.

    Needs bounding rows in the program so the optimum sits on a vertex.
    Returns (status, best_value).
    """
    coeffs, rhs = dense(lp), lp.rhs
    n = lp.num_vars
    best = None
    feasible = False
    for subset in itertools.combinations(range(rhs.size), n):
        a = np.array([coeffs[i] for i in subset])
        b = np.array([rhs[i] for i in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(x)) or max_violation(lp, x) > tol:
            continue
        feasible = True
        value = float(lp.objective @ x)
        best = value if best is None else max(best, value)
    return ("optimal", best) if feasible else ("infeasible", None)


def max_violation_loop(lp: LinearProgram, x) -> float:
    """Largest row violation at x, one dot product per row."""
    worst = 0.0
    for coeffs, relation, rhs in zip(dense(lp), lp.relations, lp.rhs):
        lhs = float(coeffs @ x)
        gap = {"<=": lhs - rhs, ">=": rhs - lhs, "=": abs(lhs - rhs)}[relation]
        worst = max(worst, gap)
    return worst


class _Tableau:
    """Mutable simplex tableau; bottom row holds reduced costs for maximization.

    Sequential Bland's rule, one pivot at a time over one tableau: the
    reference for the block rounds of ``wavemask.lp``.  It counts its pivots
    and the ratio tests that met an exact tie.
    """

    def __init__(self, body: np.ndarray, basis: list[int], pivots: int = 0):
        self.t = body  # (rows+1) x (cols+1), last column rhs, last row costs
        self.basis = basis
        self.pivots = pivots
        self.ties = 0

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
        self.pivots += 1

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
            self.ties += int(np.count_nonzero(ratios == ratios.min()) > 1)
            # exact ratio ties go to the lowest basic index
            leaving = int(min(rows[ratios == ratios.min()], key=self.basis.__getitem__))
            self.pivot(leaving, entering)
        raise RuntimeError("simplex iteration limit exceeded")  # Bland should prevent this


def phase1_cost_row_loop(blocks) -> np.ndarray:
    """Phase-1 cost row of a fresh ``wavemask.lp._Blocks``, one masked add per tableau row.

    Cost -1 at each real row's basic artificial, 0 elsewhere: the row starts
    at -costs and adds cb * t[r] for each row whose basic cost cb is not 0,
    in row order, across all blocks at once.
    """
    costs = np.zeros(blocks.t[:, -1, :-1].shape)
    block, row = np.nonzero(blocks.basis >= 0)
    costs[block, blocks.basis[block, row]] = -1.0
    cb = np.take_along_axis(np.pad(costs, ((0, 0), (0, 1))), blocks.basis, axis=1)
    bottom = np.zeros(blocks.t[:, -1].shape)
    bottom[:, :-1] = -costs
    for row in range(cb.shape[1]):
        np.add(bottom, cb[:, row, None] * blocks.t[:, row], out=bottom, where=cb[:, row, None] != 0.0)
    return bottom


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
    return _Tableau(np.ascontiguousarray(body), basis, tab.pivots)


def _extract(tab: _Tableau, num_vars: int) -> np.ndarray:
    full = np.zeros(tab.ncols)
    full[tab.basis] = tab.t[:-1, -1]
    return full[:num_vars] - full[num_vars : 2 * num_vars]


def _build_phase1_full_width(system, num_vars: int):
    """Standard-form tableau with split variables, slacks and artificials.

    ``system`` is the (dense coeffs, relations, rhs) triple of a program.
    """
    rows = list(zip(*system))
    nr = len(rows)
    split = 2 * num_vars
    n_slack = sum(1 for _coeffs, rel, _rhs in rows if rel != "=")
    n_art = nr
    ncols = split + n_slack + n_art
    t = np.zeros((nr + 1, ncols + 1))
    basis: list[int] = []
    slack_at = split
    art_at = split + n_slack
    for i, (coeffs, rel, rhs) in enumerate(rows):
        coeffs = coeffs.copy()
        if rhs < 0.0:
            coeffs, rhs = -coeffs, -rhs
            rel = {"<=": ">=", ">=": "<=", "=": "="}[rel]
        t[i, :num_vars] = coeffs
        t[i, num_vars:split] = -coeffs
        if rel == "<=":
            t[i, slack_at] = 1.0
            slack_at += 1
        elif rel == ">=":
            t[i, slack_at] = -1.0
            slack_at += 1
        t[i, art_at + i] = 1.0
        t[i, -1] = rhs
        basis.append(art_at + i)
    return _Tableau(t, basis), split, art_at


def solve_full_width(lp: LinearProgram, counts: dict | None = None) -> LpSolution:
    """Sequential Bland's rule over every column, one tableau row laid out at a time.

    Phase 2, which maximizes the objective, runs iff the program has one.

    ``counts``, when given, gains the run's pivots, its phase-1 pivots, exact
    ratio ties and phase-1 early stops.
    """
    tab, split, art_at = _build_phase1_full_width((dense(lp), lp.relations, lp.rhs), lp.num_vars)
    ties = 0

    def solution(**fields) -> LpSolution:
        if counts is not None:
            counts["pivots"] = counts.get("pivots", 0) + tab.pivots
            counts["ties"] = counts.get("ties", 0) + ties + tab.ties
        return LpSolution(pivots=tab.pivots, **fields)

    phase1_cost = np.zeros(tab.ncols)
    phase1_cost[art_at:] = -1.0
    tab.set_objective(phase1_cost)
    stopped = tab.run() == "unbounded"  # phase 1 goes on from where it stopped
    if counts is not None:
        counts["phase1_pivots"] = counts.get("phase1_pivots", 0) + tab.pivots
        counts["phase1_stops"] = counts.get("phase1_stops", 0) + stopped
    if tab.t[-1, -1] < -FEAS_TOL:
        return solution(status="infeasible")
    ties = tab.ties
    tab = _drop_artificials(tab, art_at)

    if lp.objective is None:
        return solution(status="feasible", x=_extract(tab, lp.num_vars))

    costs = np.zeros(tab.ncols)
    costs[: lp.num_vars] = lp.objective
    costs[lp.num_vars : split] = -lp.objective
    tab.set_objective(costs)
    status = tab.run()
    if status == "unbounded":
        return solution(status="unbounded")
    x = _extract(tab, lp.num_vars)
    return solution(status="optimal", x=x, objective_value=float(lp.objective @ x))


def solve_each_block(lp: LinearProgram, counts: dict | None = None) -> LpSolution:
    """``solve_full_width`` on each independent block of the program alone, the results joined.

    ``wavemask.lp.solve`` drops the columns no row or cost touches and pivots
    independent row blocks side by side, so the two must agree bit for bit,
    pivot count included.  A block is a connected
    set of rows and columns, joined by non-zero entries, found by a plain
    union-find.  A row with no entry gets one all-zero column.  The program
    is infeasible if a block is (pivots: every block's phase-1 pivots), else
    unbounded if a block is, else x is put together from the blocks'.
    ``counts`` gains each block's counts.
    """
    coeffs, relations, rhs = dense(lp), lp.relations, lp.rhs
    nr, n = coeffs.shape
    costs = np.zeros(n) if lp.objective is None else lp.objective
    parent = list(range(nr + n))

    def root(node: int) -> int:
        while parent[node] != node:
            node = parent[node]
        return node

    for row, col in zip(*np.nonzero(coeffs)):
        parent[root(int(row))] = root(nr + int(col))
    blocks: dict[int, list[int]] = {}
    for node in range(nr + n):
        blocks.setdefault(root(node), []).append(node)

    x, solutions, phase1_pivots = np.zeros(n), [], 0
    for nodes in blocks.values():
        rows = [node for node in nodes if node < nr]
        cols = [node - nr for node in nodes if node >= nr]
        part = coeffs[rows][:, cols] if cols else np.zeros((len(rows), 1))
        objective = None if lp.objective is None else (costs[cols] if cols else [0.0])
        block_counts: dict = {}
        solution = solve_full_width(
            dense_lp(part, [relations[row] for row in rows], rhs[rows], objective=objective), block_counts
        )
        if counts is not None:
            for key, value in block_counts.items():
                counts[key] = counts.get(key, 0) + value
        phase1_pivots += block_counts["phase1_pivots"]
        solutions.append(solution)
        if solution.x is not None and cols:
            x[cols] = solution.x
    statuses = {solution.status for solution in solutions}
    pivots = sum(solution.pivots for solution in solutions)
    if "infeasible" in statuses:
        return LpSolution(status="infeasible", pivots=phase1_pivots)
    if "unbounded" in statuses:
        return LpSolution(status="unbounded", pivots=pivots)
    if lp.objective is None:
        return LpSolution(status="feasible", x=x, pivots=pivots)
    return LpSolution(status="optimal", x=x, objective_value=float(lp.objective @ x), pivots=pivots)


def random_lp(rng, max_vars: int = 4, max_rows: int = 8) -> LinearProgram:
    """Random LP boxed to [-10, 10] by unit rows, feasible for most draws but not all.

    Half the draws minimize: they maximize the negated costs.
    """
    n = int(rng.integers(2, max_vars + 1))
    anchor = rng.uniform(-3.0, 3.0, size=n)
    rows, relations, limits = [], [], []
    for _ in range(int(rng.integers(1, max_rows + 1))):
        coeffs = rng.uniform(-5.0, 5.0, size=n)
        value = float(coeffs @ anchor)
        relation = ("<=", ">=")[int(rng.integers(0, 2))]
        shift = float(rng.uniform(0.0, 4.0))
        rhs = value + shift if relation == "<=" else value - shift
        if rng.random() < 0.15:
            # sometimes cut the anchor off so infeasible systems occur too
            rhs = value + float(rng.uniform(-4.0, 4.0))
        rows.append(coeffs)
        relations.append(relation)
        limits.append(rhs)
    sign = (1.0, -1.0)[int(rng.integers(0, 2))]
    lp = dense_lp(np.array(rows), relations, limits, objective=sign * rng.uniform(-5.0, 5.0, size=n))
    return with_bounds(lp, ((-10.0, 10.0),) * n)


def gather_rows(wrm, positions=None) -> np.ndarray:
    """Operator rows at 1-based positions, entry (i, j) = impulse[(i - 1 - j * 2**level) mod m]; all rows by default."""
    positions = np.arange(1, wrm.length + 1) if positions is None else np.asarray(positions)
    shifts = np.arange(wrm.shape[1]) << wrm.level
    return wrm.impulse[(positions[:, None] - 1 - shifts) % wrm.length]


class _ReprOfBits(dict):
    """``repr`` of the float64 with the given bits, each computed once: a key is a value's bit pattern, so 0.0 and -0.0 differ."""

    def __missing__(self, bits: int) -> str:
        text = self[bits] = repr(float(np.int64(bits).view(np.float64)))
        return text


def wrm_dump_lines(wrm):
    """The `wrm` dump's lines from the dense matrix: each row's entries by ``repr(float)``, comma-joined."""
    text = _ReprOfBits()
    for row in gather_rows(wrm).view(np.int64):
        yield ",".join(map(text.__getitem__, row.tolist())) + "\n"


def sig12(value) -> float:
    """A value rounded to 12 significant digits through its decimal text, as the report writes numbers."""
    return float(f"{float(value):.12g}")


def lp_rows_dense(lp: LinearProgram) -> list:
    """The report's ``lp_rows`` from the dense matrix: every coefficient, zeros too, at 12 significant digits."""
    return [
        {"coeffs": [sig12(v) for v in coeffs], "relation": relation, "rhs": sig12(rhs)}
        for coeffs, relation, rhs in zip(dense(lp), lp.relations, lp.rhs)
    ]


def random_table(rng, areas, max_records: int = 200) -> MicrofileTable:
    """Random microfile mixing eligible ("mil" == "1") and other records."""
    rows = []
    for _ in range(int(rng.integers(len(areas), max_records + 1))):
        mil = str(int(rng.integers(0, 3)))
        area = areas[int(rng.integers(0, len(areas)))]
        code = f"{int(rng.integers(0, 100000)):05d}"
        rows.append((mil, area, code))
    return MicrofileTable(attributes=("mil", "area", "code"), records=tuple(rows))


def write_csv_writer(table: MicrofileTable, sink, delimiter: str = ",") -> None:
    """Header plus records, each row alone through ``csv.writer`` with QUOTE_MINIMAL, every line ending in a newline.

    The writer ends its lines in "\\r\\n", so it also quotes a cell that holds a
    bare carriage return; the "\\r\\n" that ends each row is then cut to "\\n".
    """
    lines = []
    for row in (table.attributes, *table.records):
        buffer = io.StringIO(newline="")
        csv.writer(buffer, delimiter=delimiter, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + "\n")
    with open(sink, "w", encoding="utf-8", newline="") as handle:
        handle.writelines(lines)


def plan_moves_pop0(table: MicrofileTable, spec, q, q_tilde, seed: int) -> tuple:
    """Moves for a valid rewrite request, by a per-row eligibility scan and pop(0) pools."""
    q = np.asarray(q, dtype=np.int64)
    q_tilde = np.asarray(q_tilde, dtype=np.int64)
    m = len(spec.parameter_values)
    param_col = table.column_index(spec.parameter_attribute)
    vital_cols = [table.column_index(a) for a in spec.vital_attributes]
    eligible = [[] for _ in range(m)]
    for index, row in enumerate(table.records):
        if all(row[c] == v for c, v in zip(vital_cols, spec.vital_combination)):
            if row[param_col] in spec.parameter_values:
                eligible[spec.parameter_values.index(row[param_col])].append(index)
    assert [len(rows) for rows in eligible] == q.tolist()

    rng = random.Random(seed)
    surplus = {i: int(q[i] - q_tilde[i]) for i in range(m) if q[i] > q_tilde[i]}
    deficit = {i: int(q_tilde[i] - q[i]) for i in range(m) if q_tilde[i] > q[i]}
    pools: dict[int, list[int]] = {}
    for area in sorted(surplus):
        pools[area] = rng.sample(eligible[area], surplus[area])

    moves: list[Move] = []
    while deficit:
        donor = max(surplus, key=lambda i: (surplus[i], -i))
        taker = max(deficit, key=lambda i: (deficit[i], -i))
        batch = min(surplus[donor], deficit[taker])
        for _ in range(batch):
            moves.append(Move(pools[donor].pop(0), spec.parameter_values[donor], spec.parameter_values[taker]))
        surplus[donor] -= batch
        deficit[taker] -= batch
        if surplus[donor] == 0:
            del surplus[donor]
        if deficit[taker] == 0:
            del deficit[taker]
    return tuple(moves)
