"""Two-phase simplex: statuses, feasibility guarantees, oracle agreement."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import max_violation_loop, phase1_cost_row_loop, random_lp, solve_full_width, vertex_optimum
from refdata import A2_HAT, LOWER_POSITIONS, Q16, RAISE_POSITIONS
from wavemask.errors import ConfigurationError
from wavemask.lp import PIVOT_TOL, RELATIONS, LinearProgram, Objective, _Blocks, max_violation, solve
from wavemask.masking import GoalSpec, build_constraints
from wavemask.wavelet import decompose, make_filter
from wavemask.wrm import build_wrm


def test_single_variable_maximum():
    lp = LinearProgram(
        [[1.0], [1.0]], ("<=", ">="), (1.0, 0.0),
        objective=Objective([1.0], "maximize"),
    )
    sol = solve(lp, mode="optimize")
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 1.0) < 1e-9
    assert abs(sol.objective_value - 1.0) < 1e-9


def test_infeasible_status():
    lp = LinearProgram([[1.0], [1.0]], ("<=", ">="), (0.0, 1.0))
    assert solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = LinearProgram(
        [[1.0]], (">=",), (0.0,),
        objective=Objective([1.0], "maximize"),
    )
    assert solve(lp, mode="optimize").status == "unbounded"


def test_equality_rows():
    lp = LinearProgram([[1.0, 1.0], [1.0, -1.0]], ("=", "="), (2.0, 0.0))
    sol = solve(lp)
    assert sol.status == "feasible"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_free_variables_can_go_negative():
    lp = LinearProgram(
        [[1.0, 0.0], [0.0, 1.0]], ("<=", ">="), (-5.0, -2.0),
        objective=Objective([1.0, -1.0], "maximize"),
        bounds=((-10.0, 10.0), (-10.0, 10.0)),
    )
    sol = solve(lp, mode="optimize")
    assert sol.status == "optimal"
    assert abs(sol.x[0] - (-5.0)) < 1e-9
    assert abs(sol.x[1] - (-2.0)) < 1e-9


def test_bounds_are_honored_in_feasibility_mode():
    lp = LinearProgram(
        [[1.0, 1.0]], (">=",), (3.0,),
        bounds=((0.0, 2.0), (0.0, 2.0)),
    )
    sol = solve(lp)
    assert sol.status == "feasible"
    assert max_violation(lp, sol.x) <= 1e-7


def test_degenerate_instance_terminates():
    """Classic cycling example for naive pivoting; Bland's rule must finish."""
    lp = LinearProgram(
        [
            [0.25, -60.0, -0.04, 9.0],
            [0.5, -90.0, -0.02, 3.0],
            [0.0, 0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        ("<=", "<=", "<=", ">=", ">=", ">=", ">="),
        (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
        objective=Objective([0.75, -150.0, 0.02, -6.0], "maximize"),
    )
    sol = solve(lp, mode="optimize")
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 0.05) < 1e-9


def test_exact_ratio_tie_leaves_lowest_basic_index():
    # Phase 1 meets an exact ratio tie between two rows.  Bland's rule lets
    # the row whose basic variable has the lower index leave, which ends at
    # the vertex (4, 7); letting the other row leave ends at (2, 3).
    lp = LinearProgram(
        [[-1.0, 2.0], [-1.0, 1.0], [-2.0, -1.0], [2.0, -1.0]],
        (">=", "<=", "<=", ">="),
        (4.0, 3.0, 3.0, 1.0),
    )
    sol = solve(lp)
    assert sol.status == "feasible"
    assert sol.x.tolist() == [4.0, 7.0]


def test_feasible_solutions_satisfy_all_rows():
    rng = np.random.default_rng(11)
    statuses = {"feasible": 0, "infeasible": 0}
    for _ in range(120):
        lp = random_lp(rng)
        sol = solve(lp)
        statuses[sol.status] += 1
        if sol.status == "feasible":
            assert max_violation(lp, sol.x) <= 1e-7
    assert statuses["feasible"] > 0 and statuses["infeasible"] > 0


def test_agrees_with_vertex_enumeration_oracle():
    rng = np.random.default_rng(23)
    optimal_cases = 0
    for _ in range(130):
        lp = random_lp(rng)
        sol = solve(lp, mode="optimize")
        status, best = vertex_optimum(lp)
        if sol.status == "optimal":
            optimal_cases += 1
            assert status == "optimal"
            assert abs(sol.objective_value - best) <= 1e-6 * max(1.0, abs(best))
            assert max_violation(lp, sol.x) <= 1e-7
        else:
            assert sol.status == "infeasible"
            assert status == "infeasible"
    assert optimal_cases >= 100


def test_determinism():
    rng = np.random.default_rng(5)
    lp = random_lp(rng)
    first = solve(lp, mode="optimize")
    second = solve(lp, mode="optimize")
    assert first.status == second.status
    if first.x is not None:
        assert np.array_equal(first.x, second.x)


def test_worked_example_system_is_feasible():
    filt = make_filter("daubechies", 2)
    wrm = build_wrm(16, 2, filt)
    a2 = decompose(Q16, filt, 2).approx
    grid = wrm.entries @ a2
    positions = sorted(LOWER_POSITIONS + RAISE_POSITIONS)
    relations = ["<=" if i in LOWER_POSITIONS else ">=" for i in positions]
    lp = LinearProgram(wrm.rows(positions), relations, grid[np.array(positions) - 1])

    sol = solve(lp)
    assert sol.status == "feasible"
    assert max_violation(lp, sol.x) <= 1e-7
    # the quoted solution satisfies the full-precision rows with modest slack
    assert max_violation(lp, A2_HAT) <= 1.0


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        LinearProgram([[1.0, np.nan]], ("<=",), (0.0,))
    with pytest.raises(ConfigurationError):
        LinearProgram([[1.0]], ("<=",), (np.inf,))
    with pytest.raises(ConfigurationError):
        LinearProgram([[1.0]], ("!!",), (0.0,))
    with pytest.raises(ConfigurationError):
        Objective([1.0], "biggest")
    with pytest.raises(ConfigurationError):
        LinearProgram([[1.0]], ("<=",), (0.0,), objective=Objective([1.0, 2.0], "maximize"))
    with pytest.raises(ConfigurationError):
        LinearProgram(np.zeros((0, 1)), (), (), bounds=((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ConfigurationError, match="relations"):
        LinearProgram([[1.0], [2.0]], ("<=",), (0.0, 1.0))
    with pytest.raises(ConfigurationError, match="rhs"):
        LinearProgram([[1.0], [2.0]], ("<=", ">="), (0.0,))
    with pytest.raises(ConfigurationError, match="2-D"):
        LinearProgram([1.0, 2.0], ("<=",), (0.0,))
    with pytest.raises(ConfigurationError, match="column"):
        LinearProgram(np.zeros((1, 0)), ("<=",), (0.0,))
    lp = LinearProgram([[1.0]], (">=",), (0.0,))
    with pytest.raises(ConfigurationError):
        solve(lp, mode="fastest")
    with pytest.raises(ConfigurationError):
        solve(lp, mode="optimize")


def test_coeffs_are_read_only_and_shared_only_when_owned():
    wrm = build_wrm(64, 2, make_filter("daubechies", 2))
    rows = wrm.rows([3, 1, 7])
    lp = LinearProgram(rows, (">=", "<=", ">="), (1.0, 2.0, 3.0))
    assert lp.coeffs is rows  # goal rows are stored without a second copy
    mutable = np.ones((2, 3))
    view = mutable.view()
    view.setflags(write=False)
    for source in (mutable, view):
        lp = LinearProgram(source, ("<=", "<="), (0.0, 0.0))
        assert not lp.coeffs.flags.writeable and not np.shares_memory(lp.coeffs, mutable)
    mutable[0, 0] = 5.0
    assert lp.coeffs[0, 0] == 1.0


def random_lp_with_gaps(rng) -> tuple[LinearProgram, str, bool]:
    """A small LP with all-zero columns, signed zeros, "=" rows and any rhs sign.

    Returns the program, a solve mode, and whether some column has a cost
    but no row or bound (optimize mode must then end unbounded or infeasible).
    """
    n = int(rng.integers(1, 7))
    anchor = rng.uniform(-3.0, 3.0, size=n)
    zero_columns = rng.random(n) < 0.3
    rows, relations, limits = [], [], []
    for _ in range(int(rng.integers(0, 8))):
        zeros = zero_columns | (rng.random(n) < 0.2)
        coeffs = np.where(zeros, np.copysign(0.0, rng.uniform(-1.0, 1.0, size=n)), rng.uniform(-5.0, 5.0, size=n))
        relation = RELATIONS[int(rng.integers(0, 3))]
        margin = {"<=": 1.0, ">=": -1.0, "=": 0.0}[relation] * float(rng.uniform(0.0, 3.0))
        choices = (float(coeffs @ anchor) + margin, float(rng.uniform(-6.0, 6.0)), 0.0, -0.0)
        rows.append(coeffs)
        relations.append(relation)
        limits.append(choices[int(rng.choice(4, p=(0.6, 0.2, 0.1, 0.1)))])
    costs = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(-5.0, 5.0, size=n))
    objective = Objective(costs, ("maximize", "minimize")[int(rng.integers(0, 2))])
    bounds = None
    if rng.random() < 0.4:
        bounds = tuple((None if rng.random() < 0.3 else -10.0, None if rng.random() < 0.3 else 10.0) for _ in range(n))
    lp = LinearProgram(np.reshape(rows, (len(rows), n)), relations, limits, objective=objective, bounds=bounds)
    in_rows = np.any(lp.with_bounds()[0] != 0.0, axis=0)
    return lp, ("feasibility", "optimize")[int(rng.integers(0, 2))], bool(np.any((costs != 0.0) & ~in_rows))


def goal_lps(workload: str, indices):
    """Goal LPs that mask_signal builds for the benchmark's timed inputs of seed 1."""
    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", source)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    filters = make_filter(*workloads.WAVELET)
    for index in indices:
        inp = workloads.WORKLOADS[workload].make(1, workloads.STREAM_TIMED, index, None)
        q = np.asarray(inp["q"], dtype=np.float64)
        wrm = build_wrm(q.size, inp["level"], filters)
        base = wrm.apply(decompose(q, filters, inp["level"]).approx)
        yield build_constraints(wrm, base, GoalSpec.from_entries(inp["goals"]))


def assert_same_solution(lp: LinearProgram, mode: str, counts: dict | None = None) -> str:
    got, want = solve(lp, mode), solve_full_width(lp, mode, counts)
    assert got.status == want.status
    assert (got.x is None) == (want.x is None)
    if got.x is not None:
        assert got.x.tobytes() == want.x.tobytes()
    assert got.objective_value == want.objective_value
    assert got.pivots == want.pivots
    return got.status


def test_touched_columns_match_full_width_tableau():
    """Dropping untouched columns changes no status, no bit of x, no objective, no pivot count."""
    rng = np.random.default_rng(606)
    seen = {"feasible": 0, "optimal": 0, "infeasible": 0, "unbounded": 0}
    cost_only = no_rows = zero_column = equality = signed_zero_rhs = negative_rhs = 0
    for _ in range(2400):
        lp, mode, has_cost_only_column = random_lp_with_gaps(rng)
        status = assert_same_solution(lp, mode)
        seen[status] += 1
        if mode == "optimize" and has_cost_only_column:
            assert status in ("unbounded", "infeasible")
            cost_only += status == "unbounded"
        no_rows += lp.with_bounds()[2].size == 0
        zero_column += lp.rhs.size > 0 and not np.all(np.any(lp.coeffs != 0.0, axis=0))
        equality += "=" in lp.relations
        signed_zero_rhs += bool(np.any(np.signbit(lp.rhs) & (lp.rhs == 0.0)))
        negative_rhs += bool(np.any(lp.rhs < 0.0))
    assert min(seen.values()) >= 100, seen
    assert min(cost_only, no_rows, zero_column, equality, signed_zero_rhs, negative_rhs) >= 50
    for lp in goal_lps("signal-wide", range(6)):
        assert assert_same_solution(lp, "feasibility") == "feasible"


def trap(rng) -> LinearProgram:
    """A one-column part aimed at sequential Bland's tolerance rules.

    Either two rows whose entries lie in (PIVOT_TOL / 2, PIVOT_TOL]: phase 1
    finds the column improving (its reduced cost sums both rows) but no
    entry above PIVOT_TOL, so sequential Bland stops there.  Or one row
    x >= 2**30: at that rhs one ulp exceeds FEAS_TOL, so the phase-1
    verdict depends on the order in which the residual is summed.
    """
    objective = Objective([float(rng.uniform(-1.0, 1.0))], "maximize")
    if rng.random() < 0.5:
        return LinearProgram([[1.0]], (">=",), (2.0**30,), objective=objective)
    tiny = float(rng.uniform(0.5, 1.0)) * PIVOT_TOL
    rhs = (0.0, 1e-8, 1.0)[int(rng.integers(0, 3))]
    return LinearProgram([[tiny], [tiny]], (">=", "="), (rhs, rhs), objective=objective)


def stacked_lp(rng) -> tuple[LinearProgram, str]:
    """2-12 ``random_lp_with_gaps`` programs laid block-diagonally, rows and columns shuffled.

    About half the parts have their coefficients and rhs rounded to
    integers, which makes exact ratio ties common.  So that every status is
    common, a third of the cases take only parts that alone end feasible or
    optimal, a third only parts that alone are not infeasible, and a third
    any parts.  Two cases in five add a ``trap``.  Parts without
    bounds leave their columns open when another part has bounds.
    """
    mode = ("feasibility", "optimize")[int(rng.integers(0, 2))]
    sense = ("maximize", "minimize")[int(rng.integers(0, 2))]
    allowed = ({"feasible", "optimal"}, {"feasible", "optimal", "unbounded"}, None)[int(rng.integers(0, 3))]
    parts = [trap(rng)] if rng.random() < 0.4 else []
    while len(parts) < 2 or (len(parts) < 12 and rng.random() < 0.8):
        part = random_lp_with_gaps(rng)[0]
        part = replace(part, objective=Objective(part.objective.coeffs, sense))
        if rng.random() < 0.5:
            part = replace(part, coeffs=np.round(part.coeffs), rhs=np.round(part.rhs))
        if allowed is None or solve_full_width(part, mode).status in allowed:
            parts.append(part)
    nrows = [part.rhs.size for part in parts]
    ncols = [part.num_vars for part in parts]
    coeffs = np.zeros((sum(nrows), sum(ncols)))
    for part, r, c in zip(parts, np.cumsum(nrows) - nrows, np.cumsum(ncols) - ncols):
        coeffs[r : r + part.rhs.size, c : c + part.num_vars] = part.coeffs
    rhs = np.concatenate([part.rhs for part in parts])
    relations = np.concatenate([np.array(part.relations, dtype=str) for part in parts])
    costs = np.concatenate([part.objective.coeffs for part in parts])
    bounds = [side for part in parts for side in (part.bounds or ((None, None),) * part.num_vars)]
    rows, cols = rng.permutation(rhs.size), rng.permutation(costs.size)
    lp = LinearProgram(
        coeffs[rows][:, cols],
        relations[rows].tolist(),
        rhs[rows],
        objective=Objective(costs[cols], sense),
        bounds=None if all(part.bounds is None for part in parts) else tuple(bounds[j] for j in cols),
    )
    return lp, mode


# Goals-dense timed ops of seed 1 (among ops 0-999) whose phase 1 stops at an
# entering column with no entry above PIVOT_TOL.
EARLY_STOP_OPS = (4, 90, 98, 117, 123, 161, 174, 196, 197, 206, 208, 304, 310, 378, 418, 445,
                  463, 489, 631, 694, 704, 715, 720, 739, 753, 809, 830, 891, 897, 902, 960)


def test_blocks_match_sequential_bland():
    """Block-by-block rounds give sequential Bland's statuses, x bytes, objectives and pivot counts."""
    rng = np.random.default_rng(1010)
    seen = {"feasible": 0, "optimal": 0, "infeasible": 0, "unbounded": 0}
    counts = {}
    bounded = equality = signed_zero_rhs = 0
    for _ in range(1000):
        lp, mode = stacked_lp(rng)
        seen[assert_same_solution(lp, mode, counts)] += 1
        bounded += lp.bounds is not None
        equality += "=" in lp.relations
        signed_zero_rhs += bool(np.any(np.signbit(lp.rhs) & (lp.rhs == 0.0)))
    assert min(seen.values()) >= 100, seen
    assert min(bounded, equality, signed_zero_rhs) >= 100
    assert counts["ties"] >= 100 and counts["phase1_stops"] >= 10, counts
    dense = {}
    for lp in goal_lps("goals-dense", sorted(set(range(40)) | set(EARLY_STOP_OPS))):
        assert_same_solution(lp, "feasibility", dense)
    assert dense["phase1_stops"] == len(EARLY_STOP_OPS)


def test_phase1_cost_row_matches_row_loop(monkeypatch):
    """The cost row built from the tableau's entries equals the per-row loop's, value for value."""
    init, built = _Blocks.__init__, []

    def checked(blocks, *args):
        init(blocks, *args)
        assert np.array_equal(blocks.t[:, -1], phase1_cost_row_loop(blocks))  # signs of zero may differ
        built.append(blocks.t.shape[1] - 1)

    monkeypatch.setattr(_Blocks, "__init__", checked)
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        solve(*stacked_lp(rng))
    for lp in goal_lps("goals-dense", EARLY_STOP_OPS):
        solve(lp)
    assert len(built) >= 1000 + 2 * len(EARLY_STOP_OPS) and sum(height >= 4 for height in built) >= 500


def test_max_violation_matches_row_loop():
    """One matrix-vector product sums rows in another order: agreement to a few ulp of the row's terms."""
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(400):
        lp, _mode, _cost_only = random_lp_with_gaps(rng)
        x = rng.uniform(-12.0, 12.0, size=lp.num_vars)
        coeffs, _relations, rhs = lp.with_bounds()
        scale = float(np.max(np.abs(coeffs) @ np.abs(x) + np.abs(rhs), initial=1.0))
        tol = 4 * lp.num_vars * np.finfo(np.float64).eps * scale
        assert abs(max_violation(lp, x) - max_violation_loop(lp, x)) <= tol
        checked += rhs.size > 0
    assert checked >= 300
