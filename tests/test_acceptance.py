"""Acceptance gate: the eight release criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import os

import numpy as np
import pytest

from oracles import dense, gather_rows, random_lp, random_table, vertex_optimum
from refdata import (
    A2_3DP,
    A2_HAT,
    A2_GRID_3DP,
    C_RANGE,
    LOWER_POSITIONS,
    MREC_3DP,
    OFFSET,
    Q16,
    QHAT_3DP,
    QTILDE_PRINTED,
    RAISE_POSITIONS,
    worked_goal_entries,
)
from wavemask.lp import max_violation, solve
from wavemask.masking import Goal, GoalSpec, MaskingConfig, build_constraints, mask_signal
from wavemask.microdata import SelectionSpec, apply_plan, extract_quantity_signal, load_csv, plan_resynthesis
from wavemask.wavelet import decompose, make_filter, reconstruct_signal
from wavemask.wrm import build_wrm

D4 = make_filter("daubechies", 2)
WORKED_GOALS = GoalSpec.from_entries(worked_goal_entries())


def verdict(number: int, label: str, ok: bool) -> bool:
    print(f"criterion {number} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_decomposition_golden():
    a2 = decompose(Q16, D4, 2).approx
    ok = bool(np.max(np.abs(a2 - A2_3DP)) < 1e-3)
    assert verdict(1, "decomposition golden values", ok)


def test_criterion_2_wrm_golden():
    entries = gather_rows(build_wrm(16, 2, D4))
    ok = bool(np.max(np.abs(entries - MREC_3DP)) < 1e-3)
    assert verdict(2, "reconstruction matrix golden values", ok)


def test_criterion_3_approximation_golden():
    wrm = build_wrm(16, 2, D4)
    grid = gather_rows(wrm) @ decompose(Q16, D4, 2).approx
    ok = bool(np.max(np.abs(grid - A2_GRID_3DP)) < 2e-3)
    assert verdict(3, "approximation golden values", ok)


def test_criterion_4_constraint_system():
    wrm = build_wrm(16, 2, D4)
    grid = gather_rows(wrm) @ decompose(Q16, D4, 2).approx
    lp = build_constraints(wrm, grid, WORKED_GOALS)

    ok = len(dense(lp)) == len(lp.relations) == len(lp.rhs) == 12
    order = sorted(LOWER_POSITIONS + RAISE_POSITIONS)
    for coeffs, relation, rhs, index in zip(dense(lp), lp.relations, lp.rhs, order):
        ok = ok and relation == ("<=" if index in LOWER_POSITIONS else ">=")
        ok = ok and bool(np.max(np.abs(coeffs - MREC_3DP[index - 1])) < 1e-3)
        ok = ok and abs(rhs - A2_GRID_3DP[index - 1]) < 1e-3
    ok = ok and max_violation(lp, A2_HAT) <= 1.0
    assert verdict(4, "constraint system and quoted solution", ok)


def test_criterion_5_end_to_end_reproduction():
    config = MaskingConfig(
        goals=WORKED_GOALS,
        fixed_offset=OFFSET,
        override_coeffs=tuple(A2_HAT),
        sum_repair=False,
    )
    result = mask_signal(Q16, config)
    ok = bool(np.max(np.abs(result.q_hat - QHAT_3DP)) < 5e-3)
    ok = ok and C_RANGE[0] <= result.scale <= C_RANGE[1]
    difference = np.abs(result.q_tilde - QTILDE_PRINTED)
    ok = ok and bool(difference.max() <= 1)
    ok = ok and int((difference == 0).sum()) >= 15
    assert verdict(5, "end-to-end reproduction", ok)


def test_criterion_6_randomized_property_suite():
    ok = True
    cases = 0

    # transform properties across lengths, levels, and both filters
    for length in (8, 16, 32, 64, 256):
        for level in (1, 2, 3):
            for order in (1, 2):
                filt = make_filter("daubechies", order)
                rng = np.random.default_rng(1000 * length + 10 * level + order)
                for _ in range(7):
                    cases += 1
                    signal = rng.uniform(-100.0, 100.0, size=length)
                    dec = decompose(signal, filt, level)
                    rebuilt = reconstruct_signal(dec)
                    ok = ok and bool(
                        np.max(np.abs(rebuilt - signal)) <= 1e-9 * (1.0 + np.max(np.abs(signal)))
                    )
                    energy = float(dec.approx @ dec.approx) + sum(float(d @ d) for d in dec.details)
                    ok = ok and abs(energy - float(signal @ signal)) <= 1e-9 * float(signal @ signal)

    # masking properties on feasible-by-construction goal sets
    rng = np.random.default_rng(424242)
    masked_cases = 0
    while masked_cases < 60:
        length = int(rng.choice([16, 32]))
        q = rng.integers(0, 101, size=length).astype(np.float64)
        if q.sum() == 0:
            continue
        masked_cases += 1
        dec = decompose(q, D4, 2)
        wrm = build_wrm(length, 2, D4)
        target = gather_rows(wrm) @ (dec.approx * rng.uniform(0.0, 1.2))
        positions = rng.permutation(length)[: int(rng.integers(2, 7))]
        goals = {}
        for slot, position in enumerate(positions):
            margin = float(rng.uniform(0.0, 5.0))
            if slot % 2 == 0:
                goals[int(position) + 1] = Goal(kind="bound", upper=float(target[position]) + margin)
            else:
                goals[int(position) + 1] = Goal(kind="bound", lower=float(target[position]) - margin)
        result = mask_signal(q, MaskingConfig(goals=GoalSpec(by_index=goals)))

        ok = ok and all(check.satisfied for check in result.goal_report)
        ok = ok and abs(result.q_scaled.sum() - q.sum()) <= 1e-9 * q.sum()
        ok = ok and int(result.q_tilde.sum()) == int(q.sum())
        ok = ok and result.q_tilde.min() >= 0
        masked_details = decompose(result.q_scaled, D4, 2).details
        for got, base in zip(masked_details, dec.details):
            scale = max(1.0, float(np.max(np.abs(result.scale * base))))
            ok = ok and bool(np.max(np.abs(got - result.scale * base)) <= 1e-6 * scale)

    cases += masked_cases
    ok = ok and cases >= 200
    assert verdict(6, f"randomized property suite ({cases} cases)", ok)


def test_criterion_7_lp_oracle_equivalence():
    rng = np.random.default_rng(777)
    ok = True
    compared = 0
    for _ in range(140):
        lp = random_lp(rng)
        sol = solve(lp)
        status, best = vertex_optimum(lp)
        if sol.status == "optimal":
            compared += 1
            ok = ok and status == "optimal"
            ok = ok and abs(sol.objective_value - best) <= 1e-6 * max(1.0, abs(best))
        else:
            ok = ok and sol.status == "infeasible" and status == "infeasible"
    ok = ok and compared >= 100
    assert verdict(7, f"lp oracle equivalence ({compared} optima compared)", ok)


def test_criterion_8_microdata_round_trip():
    rng = np.random.default_rng(9001)
    areas = ("00100", "00200", "00300", "06010")
    spec = SelectionSpec(("mil",), ("1",), "area", areas)
    ok = True
    completed = 0
    attempts = 0
    while completed < 40:
        # a table with no eligible record is skipped; cap the draws so a
        # generator that never yields one fails instead of hanging
        attempts += 1
        assert attempts <= 400, f"only {completed} of 40 tables had eligible records in 400 draws"
        table = random_table(rng, areas=areas, max_records=200)
        q = extract_quantity_signal(table, spec)
        total = int(q.sum())
        if total == 0:
            continue
        completed += 1
        q_tilde = np.asarray(rng.multinomial(total, [0.25] * 4), dtype=np.int64)
        seed = int(rng.integers(0, 10_000))
        plan = plan_resynthesis(table, spec, q, q_tilde, seed=seed)
        again = plan_resynthesis(table, spec, q, q_tilde, seed=seed)
        new = apply_plan(table, plan)

        ok = ok and plan == again
        ok = ok and extract_quantity_signal(new, spec).tolist() == q_tilde.tolist()
        ok = ok and len(new) == len(table)
        area_col = table.column_index("area")
        for old_row, new_row in zip(table.records, new.records):
            ok = ok and old_row[:area_col] == new_row[:area_col]
            ok = ok and old_row[area_col + 1:] == new_row[area_col + 1:]
    assert verdict(8, f"microdata round trip ({completed} tables)", ok)


@pytest.mark.skipif(
    not os.environ.get("CENSUS_MICROFILE"),
    reason="large external microfile not configured (set CENSUS_MICROFILE, "
    "CENSUS_VITAL ATTR=VALUE, CENSUS_PARAMETER, CENSUS_VALUES)",
)
def test_optional_census_extraction():
    """Full-scale extraction check, runs only when the dataset is supplied."""
    attr, _, value = os.environ["CENSUS_VITAL"].partition("=")
    spec = SelectionSpec(
        vital_attributes=(attr,),
        vital_combination=(value,),
        parameter_attribute=os.environ["CENSUS_PARAMETER"],
        parameter_values=tuple(os.environ["CENSUS_VALUES"].split(",")),
    )
    table = load_csv(os.environ["CENSUS_MICROFILE"])
    counts = extract_quantity_signal(table, spec)
    assert counts.tolist() == [int(v) for v in Q16]
