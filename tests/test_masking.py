"""Goal constraints, coefficient replacement, reassembly, rounding, repair."""

import math
from collections import Counter

import numpy as np
import pytest

from oracles import active_goals, evaluate_goals_loop, goal_rows_loop, round_and_repair_loop
from refdata import (
    A2_HAT,
    C_RANGE,
    LOWER_POSITIONS,
    OFFSET,
    Q16,
    QHAT_3DP,
    QTILDE_PRINTED,
    RAISE_POSITIONS,
    worked_goal_entries,
)
from wavemask.errors import ConfigurationError, DataError, MaskingError
from wavemask.lp import Objective, max_violation, solve
from wavemask.masking import (
    GOAL_TOL,
    Goal,
    GoalCheck,
    GoalSpec,
    MaskingConfig,
    assemble_masked_signal,
    build_constraints,
    evaluate_goals,
    mask_signal,
    round_and_repair,
    round_half_away,
    solve_approximation,
)
from wavemask.wavelet import decompose, make_filter
from wavemask.wrm import build_wrm

D4 = make_filter("daubechies", 2)
HAAR = make_filter("haar", 1)

WORKED_GOALS = GoalSpec.from_entries(worked_goal_entries())


def worked_parts():
    dec = decompose(Q16, D4, 2)
    wrm = build_wrm(16, 2, D4)
    return dec, wrm, wrm.entries @ dec.approx


def test_goal_validation():
    with pytest.raises(ConfigurationError):
        Goal(kind="shrink")
    with pytest.raises(ConfigurationError):
        Goal(kind="bound")
    with pytest.raises(ConfigurationError):
        Goal(kind="free", threshold=1.0)
    with pytest.raises(ConfigurationError):
        Goal(kind="raise", lower=0.0)
    with pytest.raises(ConfigurationError):
        GoalSpec(by_index={0: Goal(kind="raise")})
    with pytest.raises(ConfigurationError):
        GoalSpec.from_entries([{"index": 1, "goal": "lower"}, {"index": 1, "goal": "raise"}])


def test_evaluate_goals_case_table():
    below, above = np.nextafter(10.0 - GOAL_TOL, -np.inf), np.nextafter(-3.0 + GOAL_TOL, np.inf)
    cases = {  # position: (goal, rebuilt value, current value)
        1: (Goal("bound", lower=10.0), 10.0 - GOAL_TOL, 0.0),
        2: (Goal("bound", lower=10.0), below, 0.0),
        3: (Goal("bound", upper=-3.0), -3.0 + GOAL_TOL, 0.0),
        4: (Goal("bound", upper=-3.0), above, 0.0),
        5: (Goal("bound", lower=0.0, upper=5.0), 2.5, 0.0),
        6: (Goal("bound", lower=0.0, upper=5.0), 5.0 + GOAL_TOL, 0.0),
        7: (Goal("bound", lower=0.0, upper=5.0), -GOAL_TOL, 0.0),
        8: (Goal("bound", lower=0.0, upper=5.0), 5.5, 0.0),
        9: (Goal("bound", lower=0.0, upper=5.0), -1.0, 0.0),
        10: (Goal("raise", threshold=7), 7.0 - GOAL_TOL, 100.0),
        11: (Goal("raise", threshold=2.5), 2.0, -100.0),
        12: (Goal("lower", threshold=-4), -4.0 + GOAL_TOL, -100.0),
        13: (Goal("lower", threshold=1.25), 1.5, 100.0),
        14: (Goal("raise"), 8.5, 8.0),
        15: (Goal("raise"), 7.5, 8.0),
        16: (Goal("lower"), 8.5, 8.0),
        17: (Goal("lower"), -1.0, 8.0),
        18: (Goal("free"), 1.0, 2.0),
    }
    goals = GoalSpec(by_index={i: goal for i, (goal, _, _) in cases.items()})
    new_approx = [value for _, value, _ in cases.values()]
    base_approx = [current for _, _, current in cases.values()]
    assert evaluate_goals(new_approx, base_approx, goals) == (
        GoalCheck(1, "bound", 10.0 - GOAL_TOL, True, lower=10.0),
        GoalCheck(2, "bound", below, False, lower=10.0),
        GoalCheck(3, "bound", -3.0 + GOAL_TOL, True, upper=-3.0),
        GoalCheck(4, "bound", above, False, upper=-3.0),
        GoalCheck(5, "bound", 2.5, True, lower=0.0, upper=5.0),
        GoalCheck(6, "bound", 5.0 + GOAL_TOL, True, lower=0.0, upper=5.0),
        GoalCheck(7, "bound", -GOAL_TOL, True, lower=0.0, upper=5.0),
        GoalCheck(8, "bound", 5.5, False, lower=0.0, upper=5.0),
        GoalCheck(9, "bound", -1.0, False, lower=0.0, upper=5.0),
        GoalCheck(10, "raise", 7.0 - GOAL_TOL, True, threshold=7.0),
        GoalCheck(11, "raise", 2.0, False, threshold=2.5),
        GoalCheck(12, "lower", -4.0 + GOAL_TOL, True, threshold=-4.0),
        GoalCheck(13, "lower", 1.5, False, threshold=1.25),
        GoalCheck(14, "raise", 8.5, True, threshold=8.0),
        GoalCheck(15, "raise", 7.5, False, threshold=8.0),
        GoalCheck(16, "lower", 8.5, False, threshold=8.0),
        GoalCheck(17, "lower", -1.0, True, threshold=8.0),
    )
    assert all(isinstance(check.threshold, float) for check in evaluate_goals(new_approx, base_approx, goals)[9:])


def test_evaluate_goals_rejects_positions_outside_the_signal():
    with pytest.raises(ConfigurationError, match="goal index 20 exceeds signal length 16"):
        evaluate_goals(np.zeros(16), np.zeros(16), GoalSpec({20: Goal("raise")}))
    with pytest.raises(ConfigurationError, match="approximation length 16 does not match operator length 8"):
        evaluate_goals(np.zeros(8), np.zeros(16), GoalSpec({2: Goal("raise")}))
    with pytest.raises(ConfigurationError, match="approximation length 8 does not match operator length 16"):
        evaluate_goals(np.zeros(16), np.zeros(8), GoalSpec({12: Goal("lower")}))


def random_goal_case(rng):
    """A random goal set, operator, current approximation and rebuilt one.

    Goals mix raise and lower (with and without a threshold), bound with a
    min, a max or both, and free; limits include -0.0.  Each rebuilt value
    lies at a limit of its goal, at that limit +-GOAL_TOL, one ulp past it,
    or anywhere.
    """
    m, level = (8, 1) if rng.random() < 0.3 else (32, 2)
    wrm = build_wrm(m, level, D4)
    base = rng.uniform(-20.0, 20.0, m)
    base[rng.random(m) < 0.1] = -0.0

    def limit():
        return (float(rng.uniform(-20.0, 20.0)), float(rng.integers(-5, 5)), 0.0, -0.0)[int(rng.integers(0, 4))]

    by_index = {}
    for index in rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False) + 1:
        kind = ("raise", "lower", "bound", "free")[int(rng.integers(0, 4))]
        if kind == "bound":
            sides = int(rng.integers(1, 4))  # min, max, both
            low, high = sorted((limit(), limit()))
            goal = Goal(kind, lower=low if sides & 1 else None, upper=high if sides & 2 else None)
        else:
            goal = Goal(kind, threshold=limit() if kind != "free" and rng.random() < 0.5 else None)
        by_index[int(index)] = goal
    new = rng.uniform(-25.0, 25.0, m)
    for index, goal in by_index.items():
        anchors = [v for v in (goal.threshold, goal.lower, goal.upper, base[index - 1]) if v is not None]
        anchor = anchors[int(rng.integers(0, len(anchors)))] + (-GOAL_TOL, 0.0, GOAL_TOL)[int(rng.integers(0, 3))]
        if rng.random() < 0.8:
            new[index - 1] = np.nextafter(anchor, (-np.inf, anchor, np.inf)[int(rng.integers(0, 3))])
    return GoalSpec(by_index), wrm, base, new


def test_goal_table_matches_per_goal_loops():
    """Rows and checks from the goal table equal the per-goal loops' bit for bit, Python types included."""
    rng = np.random.default_rng(4242)
    shapes, rows, negative_zero, at_edge, past_edge = Counter(), 0, 0, 0, 0
    for _ in range(2000):
        goals, wrm, base, new = random_goal_case(rng)
        for goal in goals.by_index.values():
            shapes[goal.kind, goal.threshold is None, goal.lower is None, goal.upper is None] += 1
            limits = (goal.threshold, goal.lower, goal.upper)
            negative_zero += any(v == 0.0 and math.copysign(1.0, v) < 0 for v in limits if v is not None)
        if not active_goals(goals):
            with pytest.raises(ConfigurationError, match="no raise/lower/bound"):
                build_constraints(wrm, base, goals)
        else:
            got, want = build_constraints(wrm, base, goals), goal_rows_loop(wrm, base, goals)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            assert got.relations == want.relations
            assert got.rhs.tobytes() == want.rhs.tobytes()
            rows += want.rhs.size
        got, want = evaluate_goals(new, base, goals), evaluate_goals_loop(new, base, goals)
        assert [repr(check) for check in got] == [repr(check) for check in want]  # -0.0, and numpy scalars, show
        assert [tuple(map(type, check)) for check in got] == [tuple(map(type, check)) for check in want]
        assert all(type(check) is GoalCheck for check in got)
        for check in want:
            limits = [v for v in (check.threshold, check.lower, check.upper) if v is not None]
            edges = [(v - GOAL_TOL, -np.inf) for v in limits] + [(v + GOAL_TOL, np.inf) for v in limits]
            at_edge += any(check.achieved == edge for edge, _ in edges)
            past_edge += any(check.achieved == np.nextafter(edge, away) for edge, away in edges)
    # raise and lower with and without a threshold, bound with min, max or both, free
    assert len(shapes) == 8 and min(shapes.values()) >= 1000, shapes
    assert rows >= 20000 and negative_zero >= 2000 and at_edge >= 1500 and past_edge >= 1500


def test_build_constraints_worked_example_layout():
    dec, wrm, grid = worked_parts()
    lp = build_constraints(wrm, grid, WORKED_GOALS)
    assert lp.num_vars == 4
    assert lp.coeffs.shape == (12, 4) and len(lp.relations) == 12 and lp.rhs.shape == (12,)
    expected = [(i, "<=") if i in LOWER_POSITIONS else (i, ">=") for i in sorted(LOWER_POSITIONS + RAISE_POSITIONS)]
    for coeffs, rel, rhs, (index, relation) in zip(lp.coeffs, lp.relations, lp.rhs, expected):
        assert rel == relation
        assert np.allclose(coeffs, wrm.rows([index])[0], atol=0)
        assert abs(rhs - grid[index - 1]) < 1e-12


def test_build_constraints_haar_raise():
    wrm = build_wrm(4, 1, HAAR)
    grid = wrm.entries @ np.array([10.0, 20.0])
    lp = build_constraints(wrm, grid, GoalSpec(by_index={1: Goal(kind="raise")}))
    assert lp.coeffs.shape == (1, 2)
    assert lp.relations == (">=",)
    assert np.allclose(lp.coeffs[0], [1 / np.sqrt(2.0), 0.0], atol=1e-12)
    assert abs(lp.rhs[0] - grid[0]) < 1e-12


def test_build_constraints_bound_rows():
    wrm = build_wrm(4, 1, HAAR)
    grid = wrm.entries @ np.array([1.0, 1.0])
    spec = GoalSpec(by_index={2: Goal(kind="bound", lower=0.0, upper=5.0), 3: Goal(kind="bound", upper=2.0)})
    lp = build_constraints(wrm, grid, spec)
    assert list(zip(lp.relations, lp.rhs.tolist())) == [(">=", 0.0), ("<=", 5.0), ("<=", 2.0)]


def test_build_constraints_rejects_all_free():
    dec, wrm, grid = worked_parts()
    with pytest.raises(ConfigurationError):
        build_constraints(wrm, grid, GoalSpec(by_index={1: Goal(kind="free")}))
    with pytest.raises(ConfigurationError):
        build_constraints(wrm, grid, GoalSpec(by_index={17: Goal(kind="raise")}))


def test_solve_approximation_accepts_near_feasible_override():
    dec, wrm, grid = worked_parts()
    lp = build_constraints(wrm, grid, WORKED_GOALS)
    config = MaskingConfig(goals=WORKED_GOALS, override_coeffs=tuple(A2_HAT))
    coeffs = solve_approximation(lp, config)
    assert np.allclose(coeffs, A2_HAT, atol=0)
    assert max_violation(lp, coeffs) <= 1.0


def test_solve_approximation_rejects_far_override():
    dec, wrm, grid = worked_parts()
    lp = build_constraints(wrm, grid, WORKED_GOALS)
    config = MaskingConfig(goals=WORKED_GOALS, override_coeffs=(9e9, 9e9, 9e9, 9e9))
    with pytest.raises(MaskingError):
        solve_approximation(lp, config)
    short = MaskingConfig(goals=WORKED_GOALS, override_coeffs=(1.0, 2.0))
    with pytest.raises(ConfigurationError):
        solve_approximation(lp, short)


def test_solve_approximation_reports_infeasible():
    # one column, so raising row 1 while lowering row 2 is contradictory
    wrm = build_wrm(2, 1, HAAR)
    spec = GoalSpec(by_index={1: Goal(kind="raise", threshold=10.0), 2: Goal(kind="lower", threshold=-10.0)})
    lp = build_constraints(wrm, np.zeros(2), spec)
    assert solve(lp).status == "infeasible"
    with pytest.raises(MaskingError, match="unsatisfiable"):
        solve_approximation(lp, MaskingConfig(goals=spec))


def test_assemble_identity_when_coeffs_unchanged():
    dec, wrm, grid = worked_parts()
    config = MaskingConfig(goals=WORKED_GOALS)
    result = assemble_masked_signal(Q16, dec, dec.approx, config, wrm=wrm)
    assert np.allclose(result.q_hat, Q16, atol=1e-9)
    assert result.offset == 0.0
    assert abs(result.scale - 1.0) < 1e-12
    assert np.allclose(result.q_scaled, Q16, atol=1e-9)


def test_assemble_auto_offset_clears_negatives():
    dec, wrm, grid = worked_parts()
    config = MaskingConfig(goals=WORKED_GOALS)
    result = assemble_masked_signal(Q16, dec, A2_HAT, config, wrm=wrm)
    low = result.q_hat.min()
    assert low < 0.0
    assert result.offset == np.ceil(-low)
    assert result.q_shifted.min() >= 0.0
    assert abs(result.q_scaled.sum() - Q16.sum()) <= 1e-9 * Q16.sum()


def test_assemble_fixed_offset_paths():
    dec, wrm, grid = worked_parts()
    good = MaskingConfig(goals=WORKED_GOALS, fixed_offset=OFFSET)
    result = assemble_masked_signal(Q16, dec, A2_HAT, good, wrm=wrm)
    assert result.offset == OFFSET
    assert np.allclose(result.q_shifted, result.q_hat + OFFSET, atol=0)

    small = MaskingConfig(goals=WORKED_GOALS, fixed_offset=10.0)
    with pytest.raises(MaskingError, match="offset"):
        assemble_masked_signal(Q16, dec, A2_HAT, small, wrm=wrm)


def test_assemble_degenerate_scale():
    spec = GoalSpec(by_index={1: Goal(kind="lower")})
    config = MaskingConfig(goals=spec, level=1, fixed_offset=5.0)
    q = np.array([0.0, 0.0])
    dec = decompose(q, HAAR, 1)
    # coefficients rebuilding to a constant -5 signal; the shift lands on zero
    with pytest.raises(MaskingError, match="degenerate"):
        assemble_masked_signal(q, dec, np.array([-5.0 * np.sqrt(2.0)]), config)


def test_round_half_away_from_zero():
    values = [1.4, 2.6, 2.5, 0.5, -0.5, -2.5, 0.0]
    assert round_half_away(values).tolist() == [1, 3, 3, 1, -1, -3, 0]


def test_round_and_repair_cases():
    assert round_and_repair([1.4, 2.6], 4).tolist() == [1, 3]
    # ties go to the lowest index, one +1 at a time
    assert round_and_repair([0.4, 0.4, 0.4], 2).tolist() == [1, 1, 0]
    # downward repair takes from the most over-rounded entry, skipping zeros
    assert round_and_repair([0.6, 0.0, 2.4], 2).tolist() == [0, 0, 2]
    assert round_and_repair([1.5, 1.5], 3, sum_repair=False).tolist() == [2, 2]


def test_round_and_repair_errors():
    with pytest.raises(MaskingError):
        round_and_repair([0.4, 0.4], -1)
    with pytest.raises(MaskingError):
        round_and_repair([-0.5, 1.0], 1)


def _repair_outcome(fn, scaled, target, sum_repair):
    try:
        return fn(scaled, target, sum_repair).tolist()
    except MaskingError as exc:
        return str(exc)


def test_round_and_repair_matches_unit_loop():
    # the largest-remainder passes must place every unit exactly where the
    # one-unit-at-a-time loop does, errors included
    rng = np.random.default_rng(2024)
    for case in range(1500):
        m = int(rng.integers(1, 40))
        kind = case % 5
        if kind == 0:
            scaled = rng.uniform(0.0, 10.0, m)
        elif kind == 1:  # half-integer ties
            scaled = rng.integers(0, 20, m) + 0.5
        elif kind == 2:  # many zero entries
            scaled = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 3.0, m))
        elif kind == 3:  # quarter steps: exact residual ties
            scaled = rng.integers(0, 8, m) * 0.25
        else:
            scaled = rng.lognormal(1.0, 1.5, m)
        if case % 50 == 7:
            scaled[0] = -0.5
        target = int(round(scaled.sum())) + int(rng.integers(-m, m + 1))
        if case % 60 == 11:
            target = -int(rng.integers(1, 5))
        sum_repair = case % 10 != 3
        expected = _repair_outcome(round_and_repair_loop, scaled, target, sum_repair)
        assert _repair_outcome(round_and_repair, scaled, target, sum_repair) == expected, case
    # Four units over two entries: the first entry's third unit ties, after
    # float rounding, with the second entry's second unit and wins on index.
    scaled = np.array([0.5 - 2.0**-53, 0.5])
    for target in range(1, 8):
        assert round_and_repair(scaled, target).tolist() == round_and_repair_loop(scaled, target).tolist()


def test_mask_signal_worked_example_reproduction():
    config = MaskingConfig(
        goals=WORKED_GOALS,
        fixed_offset=OFFSET,
        override_coeffs=tuple(A2_HAT),
        sum_repair=False,
    )
    result = mask_signal(Q16, config)
    assert np.max(np.abs(result.q_hat - QHAT_3DP)) < 5e-3
    assert C_RANGE[0] <= result.scale <= C_RANGE[1]
    assert np.array_equal(result.q_tilde, QTILDE_PRINTED)


def test_mask_signal_repair_restores_total():
    config = MaskingConfig(
        goals=WORKED_GOALS,
        fixed_offset=OFFSET,
        override_coeffs=tuple(A2_HAT),
    )
    result = mask_signal(Q16, config)
    assert result.q_tilde.sum() == int(Q16.sum())
    # repair lands on the largest residual, one position up from the no-repair run
    diff = result.q_tilde - QTILDE_PRINTED
    assert diff.sum() == 1 and set(diff.tolist()) <= {0, 1}


def test_mask_signal_feasibility_mode_meets_goals():
    result = mask_signal(Q16, MaskingConfig(goals=WORKED_GOALS))
    assert result.goal_report is not None
    assert all(check.satisfied for check in result.goal_report)
    assert result.q_tilde.sum() == int(Q16.sum())
    assert result.q_tilde.min() >= 0


def test_mask_signal_optimize_mode():
    config = MaskingConfig(
        goals=WORKED_GOALS,
        lp_mode="optimize",
        objective=Objective(np.ones(4), "minimize"),
        coefficient_bounds=tuple((-50000.0, 50000.0) for _ in range(4)),
    )
    result = mask_signal(Q16, config)
    assert all(check.satisfied for check in result.goal_report)


def test_mask_signal_identity_config():
    dec = decompose(Q16, D4, 2)
    grid = build_wrm(16, 2, D4).entries @ dec.approx
    spec = GoalSpec(by_index={
        1: Goal(kind="lower", threshold=float(grid[0]) + 1.0),
        5: Goal(kind="raise", threshold=float(grid[4]) - 1.0),
    })
    config = MaskingConfig(goals=spec, override_coeffs=tuple(dec.approx))
    result = mask_signal(Q16, config)
    assert np.array_equal(result.q_tilde, Q16.astype(np.int64))


def test_mask_signal_rejects_bad_input():
    config = MaskingConfig(goals=WORKED_GOALS)
    with pytest.raises(DataError):
        mask_signal(np.array([1.0, -2.0] * 8), config)
    with pytest.raises(DataError):
        mask_signal(np.array([1.5, 2.0] * 8), config)


def test_detail_proportionality():
    result = mask_signal(Q16, MaskingConfig(goals=WORKED_GOALS))
    original = decompose(Q16, D4, 2)
    masked = decompose(result.q_scaled, D4, 2)
    for got, base in zip(masked.details, original.details):
        scale = max(1.0, float(np.max(np.abs(result.scale * base))))
        assert np.max(np.abs(got - result.scale * base)) <= 1e-6 * scale


def test_lowering_the_peak_property():
    rng = np.random.default_rng(17)
    for _ in range(30):
        q = rng.integers(0, 101, size=16).astype(np.float64)
        if q.sum() == 0:
            continue
        dec = decompose(q, D4, 2)
        grid = build_wrm(16, 2, D4).entries @ dec.approx
        peak = int(np.argmax(grid)) + 1
        result = mask_signal(q, MaskingConfig(goals=GoalSpec(by_index={peak: Goal(kind="lower")})))
        assert result.new_approx[peak - 1] <= grid[peak - 1] + 1e-7
        assert result.q_tilde.sum() == int(q.sum())
        assert result.q_shifted.min() >= 0.0
        assert result.q_tilde.min() >= 0


def test_mask_signal_deterministic():
    config = MaskingConfig(goals=WORKED_GOALS)
    first = mask_signal(Q16, config)
    second = mask_signal(Q16, config)
    assert np.array_equal(first.new_coeffs, second.new_coeffs)
    assert np.array_equal(first.q_tilde, second.q_tilde)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        MaskingConfig(goals=WORKED_GOALS, level=0)
    with pytest.raises(ConfigurationError):
        MaskingConfig(goals=WORKED_GOALS, fixed_offset=-1.0)
    with pytest.raises(ConfigurationError):
        MaskingConfig(goals=WORKED_GOALS, lp_mode="quickest")
    with pytest.raises(ConfigurationError):
        MaskingConfig(goals=WORKED_GOALS, lp_mode="optimize")
    with pytest.raises(ConfigurationError):
        MaskingConfig(
            goals=WORKED_GOALS,
            lp_mode="optimize",
            objective=Objective(np.ones(4), "minimize"),
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_override_is_a_configuration_error(bad):
    # a nan once slipped past the override check and failed in rounding
    with pytest.raises(ConfigurationError, match="finite"):
        MaskingConfig(goals=WORKED_GOALS, override_coeffs=(bad, 0.0, 0.0, 0.0))
    assert MaskingConfig(goals=WORKED_GOALS, override_coeffs=(1, 2.5)).override_coeffs == (1.0, 2.5)
