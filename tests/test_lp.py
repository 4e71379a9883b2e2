"""Two-phase simplex: statuses, feasibility guarantees, oracle agreement."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    bench_workloads,
    dense,
    dense_lp,
    gather_rows,
    max_violation_loop,
    phase1_cost_row_loop,
    random_lp,
    solve_each_block,
    solve_full_width,
    vertex_optimum,
    with_bounds,
)
from refdata import A2_HAT, LOWER_POSITIONS, Q16, RAISE_POSITIONS
from wavemask.errors import ConfigurationError
from wavemask.lp import PIVOT_TOL, RELATIONS, LinearProgram, _Blocks, max_violation, solve
from wavemask.masking import GoalSpec, build_constraints
from wavemask.wavelet import decompose, make_filter
from wavemask.wrm import build_wrm


def test_single_variable_maximum():
    lp = dense_lp([[1.0], [1.0]], ("<=", ">="), (1.0, 0.0), objective=[1.0])
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 1.0) < 1e-9
    assert abs(sol.objective_value - 1.0) < 1e-9


def test_objective_decides_whether_to_optimize():
    """One program, solved with and without its objective: a feasible point, then the optimum.

    Minimizing x + 2 y is maximizing -x - 2 y.
    """
    lp = with_bounds(dense_lp([[1.0, 1.0]], (">=",), (1.0,), objective=[-1.0, -2.0]), ((0.0, 3.0),) * 2)
    optimum = solve(lp)
    assert (optimum.status, optimum.x.tolist(), optimum.objective_value) == ("optimal", [1.0, 0.0], -1.0)
    first = solve(replace(lp, objective=None))
    assert (first.status, first.objective_value) == ("feasible", None)
    assert max_violation(lp, first.x) == 0.0


def test_infeasible_status():
    lp = dense_lp([[1.0], [1.0]], ("<=", ">="), (0.0, 1.0))
    assert solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = dense_lp([[1.0]], (">=",), (0.0,), objective=[1.0])
    assert solve(lp).status == "unbounded"


def test_equality_rows():
    lp = dense_lp([[1.0, 1.0], [1.0, -1.0]], ("=", "="), (2.0, 0.0))
    sol = solve(lp)
    assert sol.status == "feasible"
    assert np.allclose(sol.x, [1.0, 1.0], atol=1e-9)


def test_free_variables_can_go_negative():
    lp = with_bounds(
        dense_lp([[1.0, 0.0], [0.0, 1.0]], ("<=", ">="), (-5.0, -2.0), objective=[1.0, -1.0]),
        ((-10.0, 10.0), (-10.0, 10.0)),
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.x[0] - (-5.0)) < 1e-9
    assert abs(sol.x[1] - (-2.0)) < 1e-9


def test_bounds_are_honored_in_feasibility_mode():
    lp = with_bounds(dense_lp([[1.0, 1.0]], (">=",), (3.0,)), ((0.0, 2.0), (0.0, 2.0)))
    sol = solve(lp)
    assert sol.status == "feasible"
    assert max_violation(lp, sol.x) <= 1e-7


def test_degenerate_instance_terminates():
    """Classic cycling example for naive pivoting; Bland's rule must finish."""
    lp = dense_lp(
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
        objective=[0.75, -150.0, 0.02, -6.0],
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 0.05) < 1e-9


def test_exact_ratio_tie_leaves_lowest_basic_index():
    # Phase 1 meets an exact ratio tie between two rows.  Bland's rule lets
    # the row whose basic variable has the lower index leave, which ends at
    # the vertex (4, 7); letting the other row leave ends at (2, 3).
    lp = dense_lp(
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
        lp = replace(random_lp(rng), objective=None)
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
        sol = solve(lp)
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
    first = solve(lp)
    second = solve(lp)
    assert first.status == second.status
    if first.x is not None:
        assert np.array_equal(first.x, second.x)


def test_worked_example_system_is_feasible():
    filt = make_filter("daubechies", 2)
    wrm = build_wrm(16, 2, filt)
    a2 = decompose(Q16, filt, 2).approx
    grid = gather_rows(wrm) @ a2
    positions = sorted(LOWER_POSITIONS + RAISE_POSITIONS)
    relations = ["<=" if i in LOWER_POSITIONS else ">=" for i in positions]
    lp = LinearProgram(wrm.row_entries(positions), wrm.shape[1], relations, grid[np.array(positions) - 1])

    sol = solve(lp)
    assert sol.status == "feasible"
    assert max_violation(lp, sol.x) <= 1e-7
    # the quoted solution satisfies the full-precision rows with modest slack
    assert max_violation(lp, A2_HAT) <= 1.0


def test_validation_errors():
    with pytest.raises(ConfigurationError):
        dense_lp([[1.0, np.nan]], ("<=",), (0.0,))
    with pytest.raises(ConfigurationError):
        dense_lp([[1.0]], ("<=",), (np.inf,))
    with pytest.raises(ConfigurationError):
        dense_lp([[1.0]], ("!!",), (0.0,))
    with pytest.raises(ConfigurationError, match=r"objective must have shape \(1,\), got \(2,\)"):
        dense_lp([[1.0]], ("<=",), (0.0,), objective=[1.0, 2.0])
    with pytest.raises(ConfigurationError, match=r"objective must have shape \(2,\), got \(1, 2\)"):
        dense_lp([[1.0, 1.0]], ("<=",), (0.0,), objective=[[1.0, 2.0]])
    for cost in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="costs finite"):
            dense_lp([[1.0, 1.0]], ("<=",), (0.0,), objective=[cost, 1.0])
    with pytest.raises(ConfigurationError, match="relations"):
        dense_lp([[1.0], [2.0]], ("<=",), (0.0, 1.0))
    with pytest.raises(ConfigurationError, match="rhs"):
        dense_lp([[1.0], [2.0]], ("<=", ">="), (0.0,))
    with pytest.raises(ConfigurationError, match="column"):
        dense_lp(np.zeros((1, 0)), ("<=",), (0.0,))
    entries = (np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]))
    assert dense(LinearProgram(entries, 2, ("<=", "<="), (0.0, 0.0))).tolist() == [[1.0, 2.0], [0.0, 3.0]]
    for rows, cols, values, message in (
        ([0, 0, 1], [0, 1], [1.0, 2.0, 3.0], "1-D"),
        ([[0, 0, 1]], [[0, 1, 1]], [[1.0, 2.0, 3.0]], "1-D"),
        ([0, 0, 2], [0, 1, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 0, 1], [0, 1, -1], [1.0, 2.0, 3.0], "row-major"),
        ([-1, 0, 1], [1, 1, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 1, 0], [0, 1, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 0, 1], [1, 0, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 0, 1], [1, 1, 1], [1.0, 2.0, 3.0], "row-major"),
        ([0, 0, 1], [0, 1, 1], [1.0, np.inf, 3.0], "finite and non-zero"),
        ([0, 0, 1], [0, 1, 1], [1.0, -0.0, 3.0], "finite and non-zero"),
    ):
        with pytest.raises(ConfigurationError, match=message):
            LinearProgram((rows, cols, values), 2, ("<=", "<="), (0.0, 0.0))


def test_entries_are_read_only_copies():
    wrm = build_wrm(64, 2, make_filter("daubechies", 2))
    entries = wrm.row_entries([3, 1, 7])
    lp = LinearProgram(entries, wrm.shape[1], (">=", "<=", ">="), (1.0, 2.0, 3.0))
    assert dense(lp).tobytes() == gather_rows(wrm, np.array([3, 1, 7])).tobytes()
    assert [part.dtype for part in lp.entries] == [np.intp, np.intp, np.float64]
    for stored, source in zip(lp.entries, entries):
        assert not stored.flags.writeable and not np.shares_memory(stored, source)
    mutable = (np.array([0, 1]), np.array([2, 0]), np.array([1.0, -1.0]))
    lp = LinearProgram(mutable, 3, ("<=", "<="), (0.0, 0.0))
    for stored, source in zip(lp.entries, mutable):
        assert not stored.flags.writeable and not np.shares_memory(stored, source)
    mutable[2][0] = 5.0
    assert lp.entries[2][0] == 1.0 and dense(lp)[0, 2] == 1.0
    costs = np.array([1, 0, -2])
    lp = LinearProgram(mutable, 3, ("<=", "<="), (0.0, 0.0), objective=costs)
    assert lp.objective.dtype == np.float64 and not lp.objective.flags.writeable
    costs[1] = 7
    assert lp.objective.tolist() == [1.0, 0.0, -2.0] and solve(lp).status == "unbounded"


def gappy_draws(rng) -> tuple[LinearProgram, np.ndarray, float, tuple, bool]:
    """The draws of one ``random_lp_with_gaps`` program, in draw order.

    Returns its rows (a program without objective), its costs, the sign of
    its sense (-1.0: minimize, that is maximize the negated costs), one
    (lower, upper) bound pair per column (a side None when open; all open
    for three draws in five), and whether it is drawn to be optimized.
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
    sign = (1.0, -1.0)[int(rng.integers(0, 2))]
    bounds = ((None, None),) * n
    if rng.random() < 0.4:
        bounds = tuple((None if rng.random() < 0.3 else -10.0, None if rng.random() < 0.3 else 10.0) for _ in range(n))
    part = dense_lp(np.reshape(rows, (len(rows), n)), relations, limits)
    return part, costs, sign, bounds, bool(rng.integers(0, 2))


def random_lp_with_gaps(rng) -> tuple[LinearProgram, bool, bool]:
    """A small LP with all-zero columns, signed zeros, "=" rows and any rhs sign, its bound rows last.

    Returns the program with its objective, whether it is drawn to be
    optimized (otherwise ``posed`` drops the objective), and whether some
    column has a cost but no row, bound rows included (optimizing must then
    end unbounded or infeasible).
    """
    part, costs, sign, bounds, optimize = gappy_draws(rng)
    lp = with_bounds(replace(part, objective=sign * costs), bounds)
    in_rows = np.any(dense(lp) != 0.0, axis=0)
    return lp, optimize, bool(np.any((costs != 0.0) & ~in_rows))


def posed(lp: LinearProgram, optimize: bool) -> LinearProgram:
    """The program as ``solve`` should take it: optimized iff it keeps its objective."""
    return lp if optimize else replace(lp, objective=None)


def goal_lps(workload: str, indices):
    """Goal LPs that mask_signal builds for the benchmark's timed inputs of seed 1."""
    workloads = bench_workloads()
    filters = make_filter(*workloads.WAVELET)
    for index in indices:
        inp = workloads.WORKLOADS[workload].make(1, workloads.STREAM_TIMED, index, None)
        q = np.asarray(inp["q"], dtype=np.float64)
        wrm = build_wrm(q.size, inp["level"], filters)
        base = wrm.apply(decompose(q, filters, inp["level"]).approx)
        yield build_constraints(wrm, base, GoalSpec.from_entries(inp["goals"]))


def assert_same_solution(lp: LinearProgram, counts: dict | None = None) -> str:
    got, want = solve(lp), solve_each_block(lp, counts)
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
        lp, optimize, has_cost_only_column = random_lp_with_gaps(rng)
        lp = posed(lp, optimize)
        status = assert_same_solution(lp)
        seen[status] += 1
        if optimize and has_cost_only_column:
            assert status in ("unbounded", "infeasible")
            cost_only += status == "unbounded"
        no_rows += lp.rhs.size == 0
        zero_column += lp.rhs.size > 0 and not np.all(np.any(dense(lp) != 0.0, axis=0))
        equality += "=" in lp.relations
        signed_zero_rhs += bool(np.any(np.signbit(lp.rhs) & (lp.rhs == 0.0)))
        negative_rhs += bool(np.any(lp.rhs < 0.0))
    assert min(seen.values()) >= 100, seen
    assert min(cost_only, no_rows, zero_column, equality, signed_zero_rhs, negative_rhs) >= 50
    for lp in goal_lps("signal-wide", range(6)):
        assert assert_same_solution(lp) == "feasible"


def trap(rng, sign: float) -> LinearProgram:
    """A one-column part aimed at sequential Bland's tolerance rules, its drawn cost times ``sign``.

    Either two rows whose entries lie in (PIVOT_TOL / 2, PIVOT_TOL]: phase 1
    finds the column improving (its reduced cost sums both rows) but no
    entry above PIVOT_TOL, so sequential Bland stops there.  Or one row
    x >= 2**30: at that rhs one ulp exceeds FEAS_TOL, so the phase-1
    verdict depends on the order in which the residual is summed.
    """
    objective = [sign * float(rng.uniform(-1.0, 1.0))]
    if rng.random() < 0.5:
        return dense_lp([[1.0]], (">=",), (2.0**30,), objective=objective)
    tiny = float(rng.uniform(0.5, 1.0)) * PIVOT_TOL
    rhs = (0.0, 1e-8, 1.0)[int(rng.integers(0, 3))]
    return dense_lp([[tiny], [tiny]], (">=", "="), (rhs, rhs), objective=objective)


def stacked_lp(rng) -> tuple[LinearProgram, bool]:
    """2-12 ``random_lp_with_gaps`` programs laid block-diagonally, rows and columns shuffled, bound rows last.

    About half the parts have their coefficients and rhs rounded to
    integers, which makes exact ratio ties common.  So that every status is
    common, a third of the cases take only parts that alone end feasible or
    optimal, a third only parts that alone are not infeasible, and a third
    any parts.  Two cases in five add a ``trap``.  Every part takes the
    case's one sense, and its own drawn bounds: their unit rows come after
    all shuffled rows, per column in shuffled column order.  Half the cases
    keep their objective, to be optimized.  Returns the program and whether
    it has a bound row.
    """
    optimize = bool(rng.integers(0, 2))
    sign = (1.0, -1.0)[int(rng.integers(0, 2))]
    allowed = ({"feasible", "optimal"}, {"feasible", "optimal", "unbounded"}, None)[int(rng.integers(0, 3))]
    parts, boxes = ([trap(rng, sign)], [((None, None),)]) if rng.random() < 0.4 else ([], [])
    while len(parts) < 2 or (len(parts) < 12 and rng.random() < 0.8):
        part, costs, _sign, bounds, _optimize = gappy_draws(rng)
        part = replace(part, objective=sign * costs)
        if rng.random() < 0.5:
            part = dense_lp(np.round(dense(part)), part.relations, np.round(part.rhs), part.objective)
        if allowed is None or solve_full_width(posed(with_bounds(part, bounds), optimize)).status in allowed:
            parts.append(part)
            boxes.append(bounds)
    nrows = [part.rhs.size for part in parts]
    ncols = [part.num_vars for part in parts]
    coeffs = np.zeros((sum(nrows), sum(ncols)))
    for part, r, c in zip(parts, np.cumsum(nrows) - nrows, np.cumsum(ncols) - ncols):
        coeffs[r : r + part.rhs.size, c : c + part.num_vars] = dense(part)
    rhs = np.concatenate([part.rhs for part in parts])
    relations = np.concatenate([np.array(part.relations, dtype=str) for part in parts])
    costs = np.concatenate([part.objective for part in parts])
    bounds = [pair for box in boxes for pair in box]
    rows, cols = rng.permutation(rhs.size), rng.permutation(costs.size)
    lp = dense_lp(coeffs[rows][:, cols], relations[rows].tolist(), rhs[rows], objective=costs[cols])
    lp = with_bounds(lp, [bounds[j] for j in cols])
    return posed(lp, optimize), lp.rhs.size > rhs.size


# Goals-dense timed ops of seed 1 (among ops 0-999) whose phase 1 stops at an
# entering column with no entry above PIVOT_TOL.
EARLY_STOP_OPS = (4, 90, 98, 117, 123, 161, 174, 196, 197, 206, 208, 304, 310, 378, 418, 445,
                  463, 489, 631, 694, 704, 715, 720, 739, 753, 809, 830, 891, 897, 902, 960)


@pytest.fixture(scope="module")
def stacked_corpus() -> list[LinearProgram]:
    """The 1000 ``stacked_lp`` programs of ``default_rng(1010)`` with their bound-row flags.

    Built once for the tests that share them.
    """
    rng = np.random.default_rng(1010)
    return [stacked_lp(rng) for _ in range(1000)]


def test_blocks_match_sequential_bland(stacked_corpus):
    """Block-by-block rounds give sequential Bland's statuses, x bytes, objectives and pivots on each block alone."""
    seen = {"feasible": 0, "optimal": 0, "infeasible": 0, "unbounded": 0}
    counts = {}
    bounded = equality = signed_zero_rhs = 0
    for lp, has_bound_rows in stacked_corpus:
        seen[assert_same_solution(lp, counts)] += 1
        bounded += has_bound_rows
        equality += "=" in lp.relations
        signed_zero_rhs += bool(np.any(np.signbit(lp.rhs) & (lp.rhs == 0.0)))
    assert min(seen.values()) >= 100, seen
    assert min(bounded, equality, signed_zero_rhs) >= 100
    assert counts["ties"] >= 100 and counts["phase1_stops"] >= 10, counts
    ops, stopped = sorted(set(range(40)) | set(EARLY_STOP_OPS)), []
    for op, lp in zip(ops, goal_lps("goals-dense", ops)):
        dense = {}
        assert_same_solution(lp, dense)
        if dense["phase1_stops"]:
            stopped.append(op)
    assert tuple(stopped) == EARLY_STOP_OPS


def test_phase1_cost_row_matches_row_loop(monkeypatch, stacked_corpus):
    """The cost row built from the tableau's entries equals the per-row loop's, value for value."""
    init, built = _Blocks.__init__, []

    def checked(blocks, *args):
        init(blocks, *args)
        assert np.array_equal(blocks.t[:, -1], phase1_cost_row_loop(blocks))  # signs of zero may differ
        built.append(blocks.t.shape[1] - 1)

    monkeypatch.setattr(_Blocks, "__init__", checked)
    for lp, _has_bound_rows in stacked_corpus:
        solve(lp)
    for lp in goal_lps("goals-dense", EARLY_STOP_OPS):
        solve(lp)
    assert len(built) >= 1000 + len(EARLY_STOP_OPS) and sum(height >= 4 for height in built) >= 500


def test_max_violation_matches_row_loop():
    """Row sums over the entries run in another order than the loop's: agreement to a few ulp of the row's terms."""
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(400):
        lp, _optimize, _cost_only = random_lp_with_gaps(rng)
        x = rng.uniform(-12.0, 12.0, size=lp.num_vars)
        coeffs, rhs = dense(lp), lp.rhs
        scale = float(np.max(np.abs(coeffs) @ np.abs(x) + np.abs(rhs), initial=1.0))
        tol = 4 * lp.num_vars * np.finfo(np.float64).eps * scale
        assert abs(max_violation(lp, x) - max_violation_loop(lp, x)) <= tol
        checked += rhs.size > 0
    assert checked >= 300


def test_many_one_row_blocks_are_feasible():
    """Each block's own residual decides: 1000 rows x_i >= b_i with b_i near 1e5 are feasible at x = b.

    A residual summed over all blocks rounds at about 1e8, whose ulp (1.5e-8)
    is within a factor 7 of FEAS_TOL; on seeds 2 and 6 that sum falls below
    -FEAS_TOL.
    """
    for seed in range(8):
        rhs = 1e5 + np.random.default_rng(seed).uniform(-1.0, 1.0, 1000)
        sol = solve(dense_lp(np.eye(rhs.size), (">=",) * rhs.size, rhs))
        assert sol.status == "feasible", seed
        assert sol.x.tolist() == rhs.tolist() and sol.pivots == rhs.size


def test_boxed_goal_lp_at_m_16384_is_optimal():
    """Optimize mode over 4096 coefficients boxed to +-1e5 with 256 goal rows reaches the HiGHS optimum."""
    workloads = bench_workloads()
    rng = np.random.default_rng(5)
    q = workloads.skewed_counts(rng, 16384).astype(np.float64)
    goals = GoalSpec.from_entries(workloads.goal_entries(rng, q.size, 256))
    filters = make_filter("daubechies", 2)
    wrm = build_wrm(q.size, 2, filters)
    goal_lp = build_constraints(wrm, wrm.apply(decompose(q, filters, 2).approx), goals)
    n = goal_lp.num_vars
    # minimize the sum: maximize its negation
    lp = with_bounds(replace(goal_lp, objective=-np.ones(n)), ((-1e5, 1e5),) * n)
    sol = solve(lp)
    assert sol.status == "optimal"
    assert max_violation(lp, sol.x) <= 1e-7 * max(1.0, float(np.max(np.abs(goal_lp.rhs))))
    optimize = pytest.importorskip("scipy.optimize")
    sign = np.where(np.array(goal_lp.relations) == "<=", 1.0, -1.0)
    highs = optimize.linprog(
        np.ones(n), A_ub=dense(goal_lp) * sign[:, None], b_ub=goal_lp.rhs * sign, bounds=(-1e5, 1e5), method="highs"
    )
    assert highs.status == 0
    assert abs(sol.objective_value + highs.fun) <= 1e-9 * abs(highs.fun)


def test_bounds_take_no_dense_rows():
    """4096 columns boxed to +-10 by 8192 unit rows given as entries, and one goal row.

    Minimizing the sum, that is maximizing its negation, solve allocates far
    less than the 8192 rows would take dense (256 MiB).
    """
    n = 4096
    goal = LinearProgram(([0, 0, 0], [0, 1, 2], [1.0, -2.0, 1.0]), n, ("<=",), (5.0,), objective=-np.ones(n))
    lp = with_bounds(goal, ((-10.0, 10.0),) * n)
    tracemalloc.start()
    try:
        sol = solve(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lp.rhs.size == 8193 and lp.entries[0].size == 8195
    assert sol.status == "optimal" and sol.objective_value == 40960.0
    assert peak < 64 * 2**20


def test_north_star_goal_lp_takes_no_dense_rows():
    """m = 65536, level 2, 256 goals: building and solving the goal LP peaks under 2 MiB, not at 256 dense rows (32 MiB)."""
    workloads = bench_workloads()
    rng = np.random.default_rng(65536)
    q = workloads.skewed_counts(rng, 65536).astype(np.float64)
    goals = GoalSpec.from_entries(workloads.goal_entries(rng, q.size, 256))
    filters = make_filter("daubechies", 2)
    wrm = build_wrm(q.size, 2, filters)
    base = wrm.apply(decompose(q, filters, 2).approx)
    tracemalloc.start()
    try:
        sol = solve(build_constraints(wrm, base, goals))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.status == "feasible"
    assert peak < 2 * 2**20
