"""Check the benchmark itself: run-to-run spread, and counts that must repeat.

    python3 bench/validate.py spread --seeds 1-10
    python3 bench/validate.py repeat --seed 1

Both run every workload in BENCHMARK.json for its ``run_seconds``.

``spread`` runs every workload once per seed (untraced) and prints, for each
end-to-end metric, the median and the distance between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json; it fails if any share exceeds its bound.  Raw results, with
each run's notes, go to ``.bench_out/spread-<first>-<last>.json``.

``repeat`` runs the traced benchmark twice with the same seed and fails
unless every boundary count (records, moves, LP rows, pivots, operator
bytes, released counts, ...) of every op both runs traced is identical.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = [line[len("note: "):] for line in lines if line.startswith("note: ")]
    return result


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(args) -> int:
    spec = load_spec()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw: dict = {}
    worst_ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in seeds:
            result = run_once(spec, workload, seed, 0)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        raw[workload] = results
        print(f"\n{workload}: {len(seeds)} seeds, {spec['run_seconds']} s each")
        print(f"  {'metric':16s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else float("inf")
            if share < bound / 3:
                verdict = "ok"
            elif share <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO WIDE"
                worst_ok = False
            print(f"  {name:16s} {median:12.6g} {share:11.4f} {bound:6.2f}  {verdict}")
        print()
    OUT.mkdir(exist_ok=True)
    out = OUT / f"spread-{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results in {out.relative_to(ROOT)}")
    return 0 if worst_ok else 1


def op_counts(path: Path) -> dict:
    dump = json.loads(path.read_text())
    return {
        op: {"counts": record["counts"], "lp_solves": record["lp_solves"], "lp_valid": record["lp_valid"],
             "q_tilde": dump["q_tilde"].get(op)}
        for op, record in dump["ops"].items()
    }


def repeat(args) -> int:
    spec = load_spec()
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        trace_file = OUT / f"trace-{workload}-s{args.seed}.json"
        runs = []
        for attempt in (1, 2):
            run_once(spec, workload, args.seed, 1)
            copy = OUT / f"repeat-{workload}-s{args.seed}-{attempt}.json"
            shutil.copyfile(trace_file, copy)
            runs.append(op_counts(copy))
        common = sorted(set(runs[0]) & set(runs[1]), key=int)
        differing = [op for op in common if runs[0][op] != runs[1][op]]
        ok = ok and bool(common) and not differing
        print(f"{workload}: {len(common)} traced ops in both runs, "
              f"{len(differing)} with differing counts {differing[:5]}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--seeds", default="1-10")
    rp = sub.add_parser("repeat")
    rp.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    return spread(args) if args.mode == "spread" else repeat(args)


if __name__ == "__main__":
    sys.exit(main())
