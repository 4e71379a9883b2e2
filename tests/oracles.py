"""Brute-force reference implementations the tests compare the package against.

Everything here is written directly from the definitions, one index at a
time, independent of the vectorized code under test.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from wavemask.errors import MaskingError
from wavemask.lp import (
    FEAS_TOL,
    LinearProgram,
    LpSolution,
    Objective,
    _drop_artificials,
    _extract,
    _Tableau,
    max_violation,
)
from wavemask.masking import round_half_away
from wavemask.microdata import MicrofileTable, Move


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


def round_and_repair_loop(q_scaled, target_sum: int, sum_repair: bool = True) -> np.ndarray:
    """Rounding repair one unit at a time, re-ranking residuals after each unit."""
    scaled = np.asarray(q_scaled, dtype=np.float64)
    if scaled.min() < 0.0:
        raise MaskingError("cannot round a signal with negative entries")
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


def random_lowpass(rng) -> np.ndarray:
    """Random valid 4-tap orthonormal lowpass (one-parameter family)."""
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    c, s = np.cos(theta), np.sin(theta)
    return np.array([1 - c + s, 1 + c + s, 1 + c - s, 1 - c - s]) / (2.0 * np.sqrt(2.0))


def vertex_optimum(lp: LinearProgram, tol: float = 1e-7):
    """Solve every n-subset of tight rows, keep feasible points, take the best.

    Needs bounds in the program so the optimum sits on a vertex.
    Returns (status, best_value).
    """
    coeffs, _relations, rhs = lp.with_bounds()
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
        value = float(lp.objective.coeffs @ x)
        if best is None:
            best = value
        elif lp.objective.sense == "maximize":
            best = max(best, value)
        else:
            best = min(best, value)
    return ("optimal", best) if feasible else ("infeasible", None)


def max_violation_loop(lp: LinearProgram, x) -> float:
    """Largest row or bound violation at x, one dot product per row."""
    worst = 0.0
    for coeffs, relation, rhs in zip(*lp.with_bounds()):
        lhs = float(coeffs @ x)
        gap = {"<=": lhs - rhs, ">=": rhs - lhs, "=": abs(lhs - rhs)}[relation]
        worst = max(worst, gap)
    return worst


def _build_phase1_full_width(system, num_vars: int):
    """Standard-form tableau with split variables, slacks and artificials.

    ``system`` is the (coeffs, relations, rhs) triple of ``with_bounds``.
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


def solve_full_width(lp: LinearProgram, mode: str = "feasibility") -> LpSolution:
    """The simplex over every column, one tableau row laid out at a time.

    ``wavemask.lp.solve`` drops the columns no row or cost touches; this
    keeps them all, so the two must agree bit for bit.
    """
    tab, split, art_at = _build_phase1_full_width(lp.with_bounds(), lp.num_vars)

    phase1_cost = np.zeros(tab.ncols)
    phase1_cost[art_at:] = -1.0
    tab.set_objective(phase1_cost)
    tab.run()
    if tab.t[-1, -1] < -FEAS_TOL:
        return LpSolution(status="infeasible")
    tab = _drop_artificials(tab, art_at)

    if mode == "feasibility":
        return LpSolution(status="feasible", x=_extract(tab, lp.num_vars))

    sense = lp.objective.sense
    costs = np.zeros(tab.ncols)
    sign = 1.0 if sense == "maximize" else -1.0
    costs[: lp.num_vars] = sign * lp.objective.coeffs
    costs[lp.num_vars : split] = -sign * lp.objective.coeffs
    tab.set_objective(costs)
    status = tab.run()
    if status == "unbounded":
        return LpSolution(status="unbounded")
    x = _extract(tab, lp.num_vars)
    return LpSolution(status="optimal", x=x, objective_value=float(lp.objective.coeffs @ x))


def random_lp(rng, max_vars: int = 4, max_rows: int = 8) -> LinearProgram:
    """Random boxed LP, feasible for most draws but not all."""
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
    sense = ("maximize", "minimize")[int(rng.integers(0, 2))]
    return LinearProgram(
        np.array(rows),
        relations,
        limits,
        objective=Objective(rng.uniform(-5.0, 5.0, size=n), sense),
        bounds=tuple((-10.0, 10.0) for _ in range(n)),
    )


def gather_rows(wrm, positions) -> np.ndarray:
    """Operator rows at 1-based positions, entry (i, j) = impulse[(i - 1 - j * 2**level) mod m]."""
    shifts = np.arange(wrm.shape[1]) << wrm.level
    return wrm.impulse[(np.asarray(positions)[:, None] - 1 - shifts) % wrm.length]


def random_table(rng, areas, max_records: int = 200) -> MicrofileTable:
    """Random microfile mixing eligible ("mil" == "1") and other records."""
    rows = []
    for _ in range(int(rng.integers(len(areas), max_records + 1))):
        mil = str(int(rng.integers(0, 3)))
        area = areas[int(rng.integers(0, len(areas)))]
        code = f"{int(rng.integers(0, 100000)):05d}"
        rows.append((mil, area, code))
    return MicrofileTable(attributes=("mil", "area", "code"), records=tuple(rows))


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
