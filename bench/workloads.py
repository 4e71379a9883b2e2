"""Seeded inputs, the timed operation and its output checks, per workload.

Every input is a pure function of (seed, stream, index): the same seed gives
the same sequence of inputs, and no two operations share one.  Counts are
lognormal(3, 1.5) rounded to integers, which skews like census areas.  Goals
are half ``raise`` and half ``lower`` at distinct random positions with the
default thresholds, so the original approximation satisfies every goal row
and each goal set is feasible by construction.

Checks run outside the timed window.  A check returns a list of problems,
each tagged with a kind:

- ``invariant``: the op's output is wrong.  A released output breaks a
  promise the pipeline makes about every release (total, non-negativity,
  detail proportionality, file consistency, a microfile's counts and release
  matching its input), the goal report says every goal is met while the
  returned point violates a goal row, or the op crashed with an exception
  that is not one of the package's own errors.  Such an op is a failed op;
- ``goal``: the op missed its goals and said so itself: the goal report
  lists an unsatisfied goal (the returned point then violates a goal row);
- ``error``: the op stopped with one of the package's documented errors (a
  ``WavemaskError``, or a non-zero CLI exit code), e.g. an "infeasible"
  verdict on a goal set that is feasible by construction.

Every goal set here is feasible, so ``goal`` and ``error`` ops are defects
of the solver that the program itself reports; the benchmark counts them in
``ok_ratio`` rather than as failed ops.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

WAVELET = ("daubechies", 2)
DETAIL_RTOL = 1e-9
ROW_RTOL = 1e-6

STREAM_TIMED = 0
STREAM_WARMUP = 1
STREAM_SETUP = 2
STREAM_QUALITY = 3


def rng_for(seed: int, workload_id: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload_id, stream, index])


def skewed_counts(rng: np.random.Generator, m: int) -> np.ndarray:
    return np.rint(rng.lognormal(3.0, 1.5, m)).astype(np.int64)


def goal_entries(rng: np.random.Generator, m: int, n_goals: int) -> list[dict]:
    positions = rng.choice(m, n_goals, replace=False) + 1
    return [
        {"index": int(p), "goal": "raise" if k < n_goals // 2 else "lower"}
        for k, p in enumerate(positions)
    ]


def quality(q: np.ndarray, q_tilde: np.ndarray, entries: list[dict]) -> tuple[int, float]:
    """Goal directions visible in the released counts, and L1 change / total."""
    hits = 0
    for entry in entries:
        i = entry["index"] - 1
        if entry["goal"] == "raise" and q_tilde[i] > q[i]:
            hits += 1
        elif entry["goal"] == "lower" and q_tilde[i] < q[i]:
            hits += 1
    return hits, float(np.abs(q_tilde - q).sum() / q.sum())


def quality_info(q: np.ndarray, q_tilde: np.ndarray, entries: list[dict]) -> dict:
    """Per-op quality fields; a release of the wrong shape hits no goal."""
    if q_tilde.shape != q.shape:
        return {"hits": 0, "goals": len(entries)}
    hits, distortion = quality(q, q_tilde, entries)
    return {"hits": hits, "goals": len(entries), "distortion": distortion}


def release_problems(wm, q, q_tilde, q_scaled, scale, level) -> list[tuple[str, str]]:
    """Total, non-negativity and detail proportionality of one release."""
    problems = []
    if q_tilde.shape != q.shape:
        return [("invariant", f"q_tilde has shape {q_tilde.shape}, q has {q.shape}")]
    if int(q_tilde.sum()) != int(q.sum()):
        problems.append(("invariant", f"total {int(q_tilde.sum())} != {int(q.sum())}"))
    if q_tilde.min() < 0:
        problems.append(("invariant", "negative released count"))
    filters = wm.make_filter(*WAVELET)
    original = wm.decompose(q, filters, level).details
    masked = wm.decompose(q_scaled, filters, level).details
    # Relative to the signal's magnitude: the report stores q_scaled at 12
    # significant digits, which alone moves a detail by ~1e-12 of max|q_scaled|.
    reference = max(1.0, float(np.max(np.abs(q_scaled))))
    for j, (d, d_masked) in enumerate(zip(original, masked), start=1):
        expected = scale * np.asarray(d)
        worst = float(np.max(np.abs(np.asarray(d_masked) - expected)))
        if worst > DETAIL_RTOL * max(reference, float(np.max(np.abs(expected)))):
            problems.append(("invariant", f"detail band {j} off by {worst:.3g}"))
    return problems


def goal_problems(report_met: bool, worst_rel: float) -> list[tuple[str, str]]:
    """A missed goal the report admits, or a report that hides a violated row."""
    violated = f"returned point violates a goal row by {worst_rel:.3g} x max(1, |rhs|)"
    if not report_met:
        return [("goal", "goal report lists an unsatisfied goal; " + violated)]
    if worst_rel > ROW_RTOL:
        return [("invariant", "goal report says every goal is met, but the " + violated)]
    return []


def worst_row(base_approx, new_approx, entries) -> float:
    """Largest goal-row violation at the returned point, relative to max(1, |rhs|)."""
    worst_rel = 0.0
    for entry in entries:
        i = entry["index"] - 1
        rhs = float(base_approx[i])
        gap = rhs - new_approx[i] if entry["goal"] == "raise" else new_approx[i] - rhs
        worst_rel = max(worst_rel, float(gap) / max(1.0, abs(rhs)))
    return worst_rel


class SignalWorkload:
    """``mask_signal`` on generated count signals; the op is one library call."""

    # Setup probes per run; a signal probe is a fraction of a second.
    setup_probes = 15

    def __init__(self, workload_id: int, level: int, n_goals: int, lengths):
        self.workload_id = workload_id
        self.level = level
        self.n_goals = n_goals
        self.lengths = tuple(lengths)

    def length(self, seed: int, index: int) -> int:
        # The pool is walked in one seeded order and then repeated, so a
        # length returns only after every other length has been used once.
        order = np.random.default_rng([seed, self.workload_id]).permutation(len(self.lengths))
        return self.lengths[order[index % len(self.lengths)]]

    def make(self, seed: int, stream: int, index: int, workdir: str) -> dict:
        rng = rng_for(seed, self.workload_id, stream, index)
        m = self.length(seed, index)
        return {"q": skewed_counts(rng, m).tolist(), "goals": goal_entries(rng, m, self.n_goals),
                "level": self.level}

    @staticmethod
    def shape(inp: dict):
        return len(inp["q"]), inp["level"]

    @staticmethod
    def quality_sample(wm, seed: int) -> list:
        return []

    @staticmethod
    def cleanup(inp: dict) -> None:
        pass

    @staticmethod
    def prepare(wm, inp: dict):
        """Library objects for one op, built before the timer starts."""
        goals = wm.GoalSpec.from_entries(inp["goals"])
        family, order = WAVELET
        config = wm.MaskingConfig(goals=goals, family=family, order=order, level=inp["level"])
        return np.asarray(inp["q"], dtype=np.int64), config

    @staticmethod
    def run(wm, prepared):
        q, config = prepared
        return wm.mask_signal(q, config)

    def check(self, wm, inp: dict, result) -> tuple[list[tuple[str, str]], dict]:
        q = np.asarray(inp["q"], dtype=np.int64)
        entries = inp["goals"]
        q_tilde = np.asarray(result.q_tilde, dtype=np.int64)
        problems = release_problems(wm, q, q_tilde, np.asarray(result.q_scaled), result.scale, self.level)
        # Rebuild both approximations with the synthesis pyramid rather than
        # the operator the pipeline used, so a wrong operator shows here.
        filters = wm.make_filter(*WAVELET)
        dec = wm.decompose(q, filters, self.level)
        base = wm.reconstruct_component(dec.approx, "approx", self.level, q.size, filters)
        new = wm.reconstruct_component(np.asarray(result.new_coeffs), "approx", self.level, q.size, filters)
        problems += goal_problems(all(c.satisfied for c in result.goal_report), worst_row(base, new, entries))
        return problems, {**quality_info(q, q_tilde, entries), "q_tilde": q_tilde.tolist()}


AREA_COUNT = 64
RECORDS = 100_000
QUALITY_SIGNALS = 1200
HEADER = ("person", "area", "mil", "sex", "age", "educ", "hhsize", "income")


def area_codes() -> list[str]:
    """64 five-character codes that keep leading zeros, "06010"-style."""
    return [f"{6 + i // 16:02d}{10 * (1 + i % 16):03d}" for i in range(AREA_COUNT)]


class MicrofileWorkload:
    """``mask-microfile`` through the in-process CLI on generated CSV files."""

    # Setup probes per run; a file probe takes over a second.
    setup_probes = 9

    def __init__(self, workload_id: int, n_goals: int = 16, level: int = 2):
        self.workload_id = workload_id
        self.n_goals = n_goals
        self.level = level
        self.codes = area_codes()

    def make(self, seed: int, stream: int, index: int, workdir: str) -> dict:
        rng = rng_for(seed, self.workload_id, stream, index)
        weights = rng.lognormal(3.0, 1.5, AREA_COUNT)
        area = rng.choice(AREA_COUNT, RECORDS, p=weights / weights.sum())
        mil = (rng.random(RECORDS) < 0.1).astype(np.int64)
        sex = rng.integers(1, 3, RECORDS)
        age = rng.integers(0, 100, RECORDS)
        educ = rng.integers(1, 17, RECORDS)
        hhsize = rng.integers(1, 10, RECORDS)
        income = rng.integers(1, 25, RECORDS)
        codes = self.codes
        tag = f"{stream}-{index}"
        paths = {name: os.path.join(workdir, f"{name}-{tag}.{ext}")
                 for name, ext in (("input", "csv"), ("output", "csv"), ("goals", "json"), ("report", "json"))}
        with open(paths["input"], "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(HEADER) + "\n")
            fh.writelines(
                f"{n},{codes[a]},{v},{s},{g},{e},{h},{c}\n"
                for n, a, v, s, g, e, h, c in zip(
                    range(1, RECORDS + 1), area.tolist(), mil.tolist(), sex.tolist(),
                    age.tolist(), educ.tolist(), hhsize.tolist(), income.tolist())
            )
        entries = goal_entries(rng, AREA_COUNT, self.n_goals)
        with open(paths["goals"], "w", encoding="utf-8") as fh:
            json.dump(entries, fh)
        argv = ["mask-microfile", "--input", paths["input"], "--output", paths["output"],
                "--vital", "mil=1", "--parameter-attribute", "area",
                "--parameter-values", ",".join(codes), "--goals", paths["goals"],
                "--wavelet", "%s:%d" % WAVELET, "--level", str(self.level),
                "--seed", str(int(rng.integers(0, 2**31))), "--report", paths["report"]]
        return {"argv": argv, "paths": paths, "goals": entries}

    @staticmethod
    def shape(inp: dict):
        return None

    def quality_sample(self, wm, seed: int) -> list:
        """(q, q_tilde, goals) for QUALITY_SIGNALS seeded extracted-count signals.

        About twenty file ops fit in a run, too few for steady quality
        figures.  The checks confirm that each file op extracts exactly a csv
        count of its input's eligible records and releases exactly
        mask_signal's q_tilde for those counts, so a file op's quality is
        mask_signal's quality on such counts.  The quality metrics therefore
        pool the timed ops with these signals, drawn from the same
        distribution as the files' counts.
        """
        family, order = WAVELET
        sample = []
        for k in range(QUALITY_SIGNALS):
            rng = rng_for(seed, self.workload_id, STREAM_QUALITY, k)
            weights = rng.lognormal(3.0, 1.5, AREA_COUNT)
            q = rng.multinomial(rng.binomial(RECORDS, 0.1), weights / weights.sum())
            entries = goal_entries(rng, AREA_COUNT, self.n_goals)
            goals = wm.GoalSpec.from_entries(entries)
            config = wm.MaskingConfig(goals=goals, family=family, order=order, level=self.level)
            try:
                q_tilde = np.asarray(wm.mask_signal(q, config).q_tilde, dtype=np.int64)
            except Exception:  # counted as missed goals, like a failed op
                q_tilde = None
            sample.append((q, q_tilde, entries))
        return sample

    @staticmethod
    def prepare(wm, inp: dict):
        return inp["argv"]

    @staticmethod
    def run(wm, argv):
        return wm.cli.main(argv)

    def check(self, wm, inp: dict, exit_code) -> tuple[list[tuple[str, str]], dict]:
        paths = inp["paths"]
        if exit_code != 0:
            return [("error", f"exit code {exit_code}")], {}
        with open(paths["report"], encoding="utf-8") as fh:
            report = json.load(fh)
        q = np.asarray(report["q"], dtype=np.int64)
        q_tilde = np.asarray(report["q_tilde"], dtype=np.int64)
        problems = release_problems(wm, q, q_tilde, np.asarray(report["q_scaled"]), report["c"], self.level)
        x = np.asarray(report["a_k_hat"])
        worst_rel = 0.0
        for row in report["lp_rows"]:
            lhs = float(np.asarray(row["coeffs"]) @ x)
            gap = row["rhs"] - lhs if row["relation"] == ">=" else lhs - row["rhs"]
            worst_rel = max(worst_rel, gap / max(1.0, abs(row["rhs"])))
        problems += goal_problems(all(item["satisfied"] for item in report["goal_satisfaction"]), worst_rel)

        source, recount, changed, records = self._compare_files(paths["input"], paths["output"], problems)
        if source != q.tolist():
            problems.append(("invariant", "extracted counts differ from a csv count of the input"))
        family, order = WAVELET
        config = wm.MaskingConfig(goals=wm.GoalSpec.from_entries(inp["goals"]), family=family,
                                  order=order, level=self.level)
        if np.asarray(wm.mask_signal(q, config).q_tilde, dtype=np.int64).tolist() != q_tilde.tolist():
            problems.append(("invariant", "released counts differ from mask_signal's for the extracted counts"))
        if recount != q_tilde.tolist():
            problems.append(("invariant", "csv recount of the output differs from the report's q_tilde"))
        moves = report["microfile"]["moves"]
        if changed != moves:
            problems.append(("invariant", f"{changed} rows changed, report says {moves} moves"))
        counts = {
            "microdata.records": records,
            "microdata.eligible": int(q.sum()),
            "microdata.moves": moves,
            "microdata.input_bytes": os.path.getsize(paths["input"]),
            "cli.report_bytes": os.path.getsize(paths["report"]),
        }
        return problems, {**quality_info(q, q_tilde, inp["goals"]), "q_tilde": q_tilde.tolist(),
                          "counts": counts}

    def _compare_files(self, input_path, output_path, problems):
        """Count eligible records in both files and diff them row by row."""
        area_col = HEADER.index("area")
        mil_col = HEADER.index("mil")
        slot = {code: i for i, code in enumerate(self.codes)}
        source = [0] * AREA_COUNT
        recount = [0] * AREA_COUNT
        changed = 0
        records = 0
        other_column_changed = False
        with open(input_path, encoding="utf-8", newline="") as fin, \
                open(output_path, encoding="utf-8", newline="") as fout:
            rows_in, rows_out = csv.reader(fin), csv.reader(fout)
            if next(rows_in) != next(rows_out):
                problems.append(("invariant", "header changed"))
            for before in rows_in:
                after = next(rows_out, None)
                if after is None:
                    problems.append(("invariant", "output has fewer rows than the input"))
                    break
                records += 1
                if before[mil_col] == "1" and before[area_col] in slot:
                    source[slot[before[area_col]]] += 1
                if after[mil_col] == "1" and after[area_col] in slot:
                    recount[slot[after[area_col]]] += 1
                if before != after:
                    changed += 1
                    if before[:area_col] + before[area_col + 1:] != after[:area_col] + after[area_col + 1:]:
                        other_column_changed = True
            if next(rows_out, None) is not None:
                problems.append(("invariant", "output has more rows than the input"))
        if other_column_changed:
            problems.append(("invariant", "a column other than the parameter changed"))
        return source, recount, changed, records

    @staticmethod
    def cleanup(inp: dict) -> None:
        for path in inp["paths"].values():
            if os.path.exists(path):
                os.remove(path)


WORKLOADS = {
    "signal-wide": SignalWorkload(1, level=2, n_goals=128, lengths=[2048]),
    "goals-dense": SignalWorkload(2, level=1, n_goals=256, lengths=range(448, 577, 2)),
    "microfile-rewrite": MicrofileWorkload(3),
}
