"""Exit codes, artifact emission, config merging, and the verify checks."""

import csv
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import gather_rows, lp_rows_dense, wrm_dump_lines
from refdata import OFFSET, Q16, QTILDE_PRINTED, ROW_CHECK_DEFECTS, worked_goal_entries
from wavemask import cli, microdata
from wavemask.cli import main
from wavemask.microdata import MicrofileTable, load_csv, write_csv
from wavemask.wavelet import make_filter, read_signal
from wavemask.wrm import build_wrm

OVERRIDE = "0,379.097,31805.084,5464.854"


def write_inputs(tmp_path):
    signal = tmp_path / "q.txt"
    signal.write_text("# worked example\n" + "".join(f"{int(v)}\n" for v in Q16))
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps(worked_goal_entries()))
    return signal, goals


def repro_argv(signal, goals, out, report=None, scaled=None):
    argv = [
        "mask-signal",
        "--input", str(signal),
        "--goals", str(goals),
        "--output", str(out),
        "--override-coeffs", OVERRIDE,
        "--offset", "2500",
        "--no-repair",
    ]
    if report:
        argv += ["--report", str(report)]
    if scaled:
        argv += ["--scaled-output", str(scaled)]
    return argv


def test_mask_signal_reproduction_run(tmp_path):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    report = tmp_path / "report.json"
    assert main(repro_argv(signal, goals, out, report=report)) == 0

    assert np.array_equal(read_signal(out).astype(np.int64), QTILDE_PRINTED)
    payload = json.loads(report.read_text())
    assert payload["command"] == "mask-signal"
    assert payload["offset"] == OFFSET
    assert payload["options"]["sum_repair"] is False
    assert len(payload["lp_rows"]) == 12
    assert payload["sum_check"]["rounded_total"] == 6271
    for key in ("q", "a_k", "details", "A_k", "a_k_hat", "A_k_hat", "q_hat",
                "q_hathat", "c", "q_scaled", "q_tilde", "goal_satisfaction"):
        assert key in payload


def test_report_identical_except_timestamp(tmp_path):
    signal, goals = write_inputs(tmp_path)
    first, second = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(repro_argv(signal, goals, tmp_path / "m1.txt", report=first)) == 0
    assert main(repro_argv(signal, goals, tmp_path / "m2.txt", report=second)) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def run_with_result(monkeypatch, argv):
    """``main(argv)``, which must succeed, and the result of its one ``mask_signal`` call."""
    results, real = [], cli.mask_signal
    monkeypatch.setattr(cli, "mask_signal", lambda q, config: results.append(real(q, config)) or results[-1])
    assert main(argv) == 0
    assert len(results) == 1
    return results[0]


def assert_dense_report_bytes(report, lp):
    """The report holds the bytes that ``json.dump(indent=2)`` gives its content with the dense ``lp_rows``.

    Every other field comes from its own code, and its timestamp is in the
    file itself, so the dense writer's report of the same run differs only there.
    """
    text = report.read_text(encoding="utf-8")
    payload = json.loads(text)
    payload["lp_rows"] = lp_rows_dense(lp)
    assert text == json.dumps(payload, indent=2) + "\n"


def test_report_bytes_match_the_dense_lp_rows_writer(tmp_path, monkeypatch):
    """The golden run, the --repro preset, a microfile run and a random m = 1024 run with 64 goals."""
    signal, goals = write_inputs(tmp_path)
    report = tmp_path / "report.json"
    golden = ["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(tmp_path / "g.txt")]
    repro = [*golden, "--override-coeffs", OVERRIDE, "--repro", "--offset", "2500"]
    source, micro_goals = microfile_inputs(tmp_path)
    rng = np.random.default_rng(1024)
    wide = tmp_path / "q1024.txt"
    wide.write_text("".join(f"{v}\n" for v in np.rint(rng.lognormal(3.0, 1.5, 1024)).astype(np.int64)))
    wide_goals = tmp_path / "goals64.json"
    positions = rng.choice(1024, 64, replace=False) + 1
    wide_goals.write_text(json.dumps([{"index": int(p), "goal": ("raise", "lower")[k % 2]} for k, p in enumerate(positions)]))
    wide_run = ["mask-signal", "--input", str(wide), "--goals", str(wide_goals), "--output", str(tmp_path / "w.txt")]
    for argv, rows, columns in (
        (golden, 12, 4),
        (repro, 12, 4),
        (microfile_argv(source, tmp_path / "o.csv", micro_goals), 1, 2),
        (wide_run, 64, 256),
    ):
        result = run_with_result(monkeypatch, [*argv, "--report", str(report)])
        assert (result.lp.rhs.size, result.lp.num_vars) == (rows, columns)
        assert_dense_report_bytes(report, result.lp)


def test_config_file_supplies_defaults_flags_win(tmp_path):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    report = tmp_path / "report.json"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "input": str(signal),
        "goals": str(goals),
        "output": str(out),
        "report": str(report),
        "offset": 9999,
        "override_coeffs": OVERRIDE,
        "no_repair": True,
    }))
    assert main(["--config", str(config), "mask-signal", "--offset", "2500"]) == 0
    payload = json.loads(report.read_text())
    assert payload["offset"] == 2500.0
    assert payload["options"]["offset"] == 2500.0


def test_repro_preset(tmp_path):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    report = tmp_path / "report.json"
    argv = ["mask-signal", "--input", str(signal), "--goals", str(goals),
            "--output", str(out), "--override-coeffs", OVERRIDE,
            "--repro", "--offset", "2500", "--report", str(report)]
    assert main(argv) == 0
    assert json.loads(report.read_text())["options"]["sum_repair"] is False

    # the preset insists on a pinned shift
    argv_no_offset = [a for a in argv if a not in ("--offset", "2500")]
    assert main(argv_no_offset) == 1


def test_exit_codes(tmp_path):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"

    assert main(["mask-signal", "--goals", str(goals), "--output", str(out)]) == 1
    assert main(["mask-signal", "--input", str(tmp_path / "missing.txt"),
                 "--goals", str(goals), "--output", str(out)]) == 1

    broken = tmp_path / "broken.json"
    broken.write_text("[{bad json")
    assert main(["mask-signal", "--input", str(signal), "--goals", str(broken),
                 "--output", str(out)]) == 3
    # every option is converted before any file is read: a bad --level wins over the broken goal file
    assert main(["mask-signal", "--input", str(signal), "--goals", str(broken),
                 "--output", str(out), "--level", "x"]) == 1

    bad_numbers = tmp_path / "bad.txt"
    bad_numbers.write_text("1\ntwo\n3\n")
    assert main(["mask-signal", "--input", str(bad_numbers), "--goals", str(goals),
                 "--output", str(out)]) == 3


def test_infeasible_goals_exit_code(tmp_path):
    signal = tmp_path / "pair.txt"
    signal.write_text("5\n7\n")
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps([
        {"index": 1, "goal": "bound", "min": 100.0},
        {"index": 2, "goal": "bound", "max": 0.0},
    ]))
    argv = ["mask-signal", "--input", str(signal), "--goals", str(goals),
            "--output", str(tmp_path / "out.txt"), "--wavelet", "haar", "--level", "1"]
    assert main(argv) == 2


def test_usage_errors_map_to_one(tmp_path):
    assert main(["mask-signal", "--level", "two"]) == 1
    assert main(["no-such-command"]) == 1


def test_zero_level_and_bad_delimiter_rejected(tmp_path):
    signal, goals = write_inputs(tmp_path)
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals),
                 "--output", str(tmp_path / "o.txt"), "--level", "0"]) == 1
    source = tmp_path / "t.csv"
    source.write_text("mil,area\n1,A\n1,B\n")
    assert main(["mask-microfile", "--input", str(source), "--output", str(tmp_path / "o.csv"),
                 "--vital", "mil=1", "--parameter-attribute", "area",
                 "--parameter-values", "A,B", "--goals", str(goals),
                 "--delimiter", ";;"]) == 1


def test_wrm_stdout_full_precision(capsys):
    assert main(["wrm", "--length", "16", "--level", "2"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()]
    got = np.array([[float(cell) for cell in row] for row in rows])
    expected = gather_rows(build_wrm(16, 2, make_filter("daubechies", 2)))
    assert got.shape == (16, 4)
    assert np.array_equal(got, expected)


def test_wrm_to_file(tmp_path):
    path = tmp_path / "wrm.csv"
    assert main(["wrm", "--length", "8", "--level", "1", "--wavelet", "haar",
                 "--output", str(path)]) == 0
    got = np.array([[float(c) for c in line.split(",")] for line in path.read_text().splitlines()])
    assert got.shape == (8, 4)


@pytest.mark.parametrize("wavelet,family,order", [("haar", "haar", 1), ("daubechies:2", "daubechies", 2),
                                                  ("daubechies:3", "daubechies", 3)])
def test_wrm_dump_matches_the_dense_writer(tmp_path, capsys, wavelet, family, order):
    """Every dump line has the bytes of the dense row's ``repr(float)`` cells; shape errors stay exit 1."""
    filters = make_filter(family, order)
    path = tmp_path / "wrm.csv"
    for level in (1, 2, 3):
        for length in sorted({1 << level, 3 << level, 16, 64, 4096}):
            argv = ["wrm", "--length", str(length), "--level", str(level), "--wavelet", wavelet]
            assert main([*argv, "--output", str(path)]) == 0
            with open(path, encoding="utf-8", newline="") as handle:
                for got, want in itertools.zip_longest(handle, wrm_dump_lines(build_wrm(length, level, filters))):
                    assert got == want
            if length == 16:
                assert main(argv) == 0
                assert capsys.readouterr().out == path.read_text(encoding="utf-8")
    path.unlink()
    for length, level in ((12, 3), (16, 0), (1, 0), (24, 5)):
        assert main(["wrm", "--length", str(length), "--level", str(level), "--wavelet", wavelet,
                     "--output", str(path)]) == 1
        assert not path.exists()
    assert capsys.readouterr().err.count("error:") == 4


def test_wrm_dump_memory_is_one_row():
    """The m = 8192 dump (16 MiB of dense matrix at level 2) is written row by row from the non-zeros."""
    tracemalloc.start()
    try:
        assert main(["wrm", "--length", "8192", "--output", os.devnull]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_is_a_usage_error(tmp_path, capsys):
    """A write that fails (ENOSPC) ends in exit 1 and one error line that names the output."""
    signal, goals = write_inputs(tmp_path)
    source, micro_goals = microfile_inputs(tmp_path)
    masked = tmp_path / "m.txt"
    for argv in (
        ["wrm", "--length", "16", "--output", "/dev/full"],
        repro_argv(signal, goals, "/dev/full"),
        repro_argv(signal, goals, masked, scaled="/dev/full"),
        repro_argv(signal, goals, masked, report="/dev/full"),
        microfile_argv(source, "/dev/full", micro_goals),
        [*microfile_argv(source, tmp_path / "o.csv", micro_goals), "--report", "/dev/full"],
    ):
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: I/O error: No space left on device\n" * 6


def test_wrm_dump_to_a_closed_pipe_ends_quietly():
    """The console script's dump stops with exit 1 and one error line when its reader leaves."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    script = "import sys; from wavemask.cli import main; sys.exit(main())"
    proc = subprocess.Popen([sys.executable, "-c", script, "wrm", "--length", "8192"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().count(b",") == 2047
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == "error: I/O error: Broken pipe\n"


def test_verify_accepts_scaled_output(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    scaled = tmp_path / "scaled.txt"
    assert main(repro_argv(signal, goals, tmp_path / "m.txt", scaled=scaled)) == 0
    assert main(["verify", "--original", str(signal), "--masked", str(scaled)]) == 0
    out = capsys.readouterr().out
    assert "sum-preservation: pass" in out
    assert "detail-proportionality: pass" in out


def test_verify_flags_tampering(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    scaled = tmp_path / "scaled.txt"
    assert main(repro_argv(signal, goals, tmp_path / "m.txt", scaled=scaled)) == 0
    values = read_signal(scaled)
    values[0] += 25.0
    tampered = tmp_path / "tampered.txt"
    tampered.write_text("".join(f"{v!r}\n" for v in values.tolist()))
    assert main(["verify", "--original", str(signal), "--masked", str(tampered)]) == 2
    assert "FAIL" in capsys.readouterr().out


def integer_release(tmp_path):
    """The worked example's counts masked with goal 1 lower and goal 5 raise, released as integers (the CI example)."""
    signal = tmp_path / "q.txt"
    signal.write_text("".join(f"{int(v)}\n" for v in Q16))
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps([{"index": 1, "goal": "lower"}, {"index": 5, "goal": "raise"}]))
    masked = tmp_path / "masked.txt"
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(masked)]) == 0
    return ["verify", "--original", str(signal), "--masked", str(masked)]


def test_verify_accepts_an_integer_release_at_a_rounding_tolerance(tmp_path, capsys):
    # rounding to integers moves the details by up to 1.92e-4 of the largest scaled detail here
    assert main(integer_release(tmp_path) + ["--tol", "1e-3"]) == 0
    out = capsys.readouterr().out
    assert "sum-preservation: pass" in out
    assert "detail-proportionality: pass (ratio 0.849571727333, max relative deviation 0.000192)" in out


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 3: the default --tol 1e-6 suits the pre-rounding signal, and rounding alone "
    "moves an integer release's details by about 2e-4; verify needs a derived integer check"))
def test_verify_accepts_an_integer_release_at_the_default_tolerance(tmp_path):
    assert main(integer_release(tmp_path)) == 0


def test_mask_microfile_end_to_end(tmp_path, monkeypatch):
    records = [("1", "A")] * 6 + [("1", "B"), ("1", "C"), ("0", "A"), ("0", "D")]
    table = MicrofileTable(attributes=("mil", "area"), records=tuple(records))
    source = tmp_path / "people.csv"
    write_csv(table, source)
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps([{"index": 1, "goal": "lower"}]))
    out = tmp_path / "rewritten.csv"
    report = tmp_path / "report.json"
    argv = ["mask-microfile", "--input", str(source), "--output", str(out),
            "--vital", "mil=1", "--parameter-attribute", "area",
            "--parameter-values", "A,B,C,D", "--goals", str(goals),
            "--wavelet", "haar", "--level", "1", "--seed", "3",
            "--report", str(report)]
    scans = []
    scan = microdata._scan_eligible
    monkeypatch.setattr(microdata, "_scan_eligible", lambda table, spec: scans.append(len(table)) or scan(table, spec))
    assert main(argv) == 0
    # extract and plan share one eligibility scan of the loaded table
    assert scans == [10]

    payload = json.loads(report.read_text())
    assert payload["command"] == "mask-microfile"
    assert payload["microfile"]["records"] == 10
    assert payload["q"] == [6.0, 1.0, 1.0, 0.0]
    assert sum(payload["q_tilde"]) == 8

    rewritten = load_csv(out)
    assert len(rewritten) == 10
    counts = [0, 0, 0, 0]
    for row in rewritten.records:
        if row[0] == "1" and row[1] in "ABCD":
            counts["ABCD".index(row[1])] += 1
    assert counts == payload["q_tilde"]


def test_mask_microfile_requires_repair(tmp_path):
    source = tmp_path / "people.csv"
    write_csv(MicrofileTable(attributes=("mil", "area"),
                             records=(("1", "A"), ("1", "B"))), source)
    goals = tmp_path / "goals.json"
    goals.write_text(json.dumps([{"index": 1, "goal": "lower"}]))
    argv = ["mask-microfile", "--input", str(source), "--output", str(tmp_path / "o.csv"),
            "--vital", "mil=1", "--parameter-attribute", "area",
            "--parameter-values", "A,B", "--goals", str(goals),
            "--wavelet", "haar", "--level", "1", "--no-repair"]
    assert main(argv) == 1


def test_verify_microfile_mode(tmp_path, capsys):
    records = [("1", "A")] * 4 + [("1", "B")] * 2 + [("0", "A"), ("1", "C"), ("1", "D")]
    source = tmp_path / "people.csv"
    write_csv(MicrofileTable(attributes=("mil", "area"), records=tuple(records)), source)
    argv = ["verify", "--original", str(source), "--masked", str(source),
            "--vital", "mil=1", "--parameter-attribute", "area",
            "--parameter-values", "A,B,C,D", "--wavelet", "haar", "--level", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("pass") == 2


def microfile_inputs(tmp_path):
    """The end-to-end test's people file and goal, which mask without error."""
    records = [("1", "A")] * 6 + [("1", "B"), ("1", "C"), ("0", "A"), ("0", "D")]
    source = tmp_path / "people.csv"
    write_csv(MicrofileTable(attributes=("mil", "area"), records=tuple(records)), source)
    goals = tmp_path / "micro-goals.json"
    goals.write_text(json.dumps([{"index": 1, "goal": "lower"}]))
    return source, goals


def microfile_argv(source, out, goals):
    return ["mask-microfile", "--input", str(source), "--output", str(out),
            "--vital", "mil=1", "--parameter-attribute", "area",
            "--parameter-values", "A,B,C,D", "--goals", str(goals),
            "--wavelet", "haar", "--level", "1", "--seed", "3"]


def test_non_utf8_input_is_a_data_error(tmp_path, capsys):
    _, goals = write_inputs(tmp_path)
    signal = tmp_path / "latin1.txt"
    signal.write_bytes(b"# \xe9t\xe9\n5\n7\n")
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals),
                 "--output", str(tmp_path / "o.txt")]) == 3
    assert f"{signal}: not UTF-8" in capsys.readouterr().err
    _, micro_goals = microfile_inputs(tmp_path)
    source = tmp_path / "latin1.csv"
    source.write_bytes("mil,area\n1,São\n1,B\n".encode("latin-1"))
    assert main(microfile_argv(source, tmp_path / "o.csv", micro_goals)) == 3
    assert f"{source}: not UTF-8" in capsys.readouterr().err


def test_directory_as_input_or_output_is_a_usage_error(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    assert main(["mask-signal", "--input", str(tmp_path), "--goals", str(goals),
                 "--output", str(tmp_path / "o.txt")]) == 1
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals),
                 "--output", str(tmp_path)]) == 1
    source, micro_goals = microfile_inputs(tmp_path)
    assert main(microfile_argv(tmp_path, tmp_path / "o.csv", micro_goals)) == 1
    assert main(microfile_argv(source, tmp_path, micro_goals)) == 1
    err = capsys.readouterr().err
    assert err.count(f"cannot open {tmp_path}: Is a directory") == 4


def test_missing_output_directory_names_the_output(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "no-such-dir" / "masked.txt"
    assert main(repro_argv(signal, goals, out)) == 1
    source, micro_goals = microfile_inputs(tmp_path)
    out_csv = tmp_path / "no-such-dir" / "rewritten.csv"
    assert main(microfile_argv(source, out_csv, micro_goals)) == 1
    err = capsys.readouterr().err
    assert f"cannot open {out}: No such file or directory" in err
    assert f"cannot open {out_csv}: No such file or directory" in err
    assert "input" not in err


def test_path_under_a_file_is_a_usage_error(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    assert main(repro_argv(signal / "x.txt", goals, tmp_path / "o.txt")) == 1
    assert main(repro_argv(signal, goals, signal / "x.txt")) == 1
    source, micro_goals = microfile_inputs(tmp_path)
    assert main(microfile_argv(source / "x.csv", tmp_path / "o.csv", micro_goals)) == 1
    assert main(microfile_argv(source, source / "x.csv", micro_goals)) == 1
    err = capsys.readouterr().err
    for path in (signal / "x.txt", source / "x.csv"):
        assert err.count(f"error: cannot open {path}: Not a directory") == 2


@pytest.mark.parametrize("command", ["mask-microfile", "verify"])
def test_cell_over_the_csv_field_limit_is_a_data_error(tmp_path, capsys, command):
    source, goals = microfile_inputs(tmp_path)
    wide = tmp_path / "wide.csv"
    wide.write_text(f"mil,area\n1,A\n1,{'B' * (csv.field_size_limit() + 1)}\n")
    if command == "mask-microfile":
        argv = microfile_argv(wide, tmp_path / "o.csv", goals)
    else:
        argv = ["verify", "--original", str(source), "--masked", str(wide), "--vital", "mil=1",
                "--parameter-attribute", "area", "--parameter-values", "A,B,C,D"]
    assert main(argv) == 3
    assert f"error: {wide}: line 3: field larger than field limit" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"index": 1, "goal": "bound", "min": "abc"},
    {"index": 1, "goal": "bound", "min": "5"},
    {"index": 1.5, "goal": "raise"},
    {"index": True, "goal": "raise"},
    {"index": 1, "goal": "lower", "threshold": 5},
])
def test_bad_goal_values_are_usage_errors(tmp_path, capsys, entry):
    signal, _ = write_inputs(tmp_path)
    goals = tmp_path / "bad-goals.json"
    goals.write_text(json.dumps([entry]))
    out = tmp_path / "masked.txt"
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: goal ")


def test_non_numeric_config_options_are_usage_errors(tmp_path):
    signal, goals = write_inputs(tmp_path)
    config = tmp_path / "run.json"
    mask = ["--config", str(config), "mask-signal", "--input", str(signal), "--goals", str(goals),
            "--output", str(tmp_path / "o.txt")]
    verify = ["--config", str(config), "verify", "--original", str(signal), "--masked", str(signal)]
    for options, argv in (
        ({"level": "two"}, mask),
        ({"level": 1.9}, mask),
        ({"seed": "abc"}, mask),
        ({"override_coeffs": 5}, mask),
        ({"wavelet": "daubechies:two"}, mask),
        ({"wavelet": 2}, mask),
        ({"level": "two"}, ["--config", str(config), "wrm", "--length", "16"]),
        ({"tol": "loose"}, verify),
    ):
        config.write_text(json.dumps(options))
        assert main(argv) == 1


def test_misspelt_config_key_is_a_usage_error(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"levle": 3, "goals": str(goals)}))
    assert main(["--config", str(config), "mask-signal", "--input", str(signal), "--output", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'levle'" in err
    # a key of another subcommand is no mistake: one file may serve several
    config.write_text(json.dumps({"level": 1, "goals": str(goals), "length": 16, "tol": 1e-6, "vital": ["mil=1"]}))
    assert main(["--config", str(config), "mask-signal", "--input", str(signal), "--output", str(out)]) == 0


@pytest.mark.parametrize("key", ["no_repair", "repro"])
def test_boolean_config_options_take_only_true_or_false(tmp_path, capsys, key):
    signal, goals = write_inputs(tmp_path)
    report = tmp_path / "report.json"
    config = tmp_path / "run.json"
    argv = ["--config", str(config), "mask-signal", "--input", str(signal), "--goals", str(goals),
            "--output", str(tmp_path / "o.txt"), "--report", str(report), "--offset", "2500",
            "--override-coeffs", OVERRIDE]
    for value in ("false", "true", 0, 1, [], {}):
        config.write_text(json.dumps({key: value}))
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --{key.replace('_', '-')} expects true or false, got {value!r}\n"
    assert not report.exists()
    for given, repair in ((False, True), (None, True), (True, False)):
        config.write_text(json.dumps({key: given}))
        assert main(argv) == 0
        assert json.loads(report.read_text())["options"]["sum_repair"] is repair


def test_wrm_length_below_two_is_a_usage_error(capsys):
    assert main(["wrm", "--length", "0", "--level", "1"]) == 1
    assert main(["wrm", "--length", "-4", "--level", "1"]) == 1
    assert capsys.readouterr().err.count("length must be >= 2") == 2


@pytest.mark.parametrize("length", [10**21, 2**62, 2**60])
def test_wrm_length_beyond_numpy_is_refused_before_any_allocation(capsys, length):
    # 10**21 made numpy raise "Maximum allowed dimension exceeded"; 2**60 float64s take 2**63 bytes, past intp
    assert main(["wrm", "--length", str(length), "--level", "1"]) == 1
    assert capsys.readouterr().err == f"error: length must be >= 2 and at most {2**60 - 1}, got {length}\n"


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 364. TiB for an array with shape (50000000000000,) and data type float64"),
     "Unable to allocate 364. TiB for an array with shape (50000000000000,) and data type float64"),
    (MemoryError(), "out of memory"),
])
def test_memory_error_is_a_usage_error(monkeypatch, capsys, error, message):
    """A length that passes the size check can still be too large to allocate: exit 1 and one line, no traceback."""
    def build_wrm(length, level, filters):
        raise error

    monkeypatch.setattr(cli, "build_wrm", build_wrm)
    assert main(["wrm", "--length", "100000000000000", "--level", "1"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_surrogate_escaped_argv_path_is_taken(tmp_path):
    """sys.argv decodes a non-UTF-8 file name byte with surrogateescape; that path still encodes, so it is opened."""
    out = tmp_path / "dump\udcff.csv"
    assert main(["wrm", "--length", "16", "--output", str(out)]) == 0
    assert os.fsencode(out).endswith(b"dump\xff.csv") and len(out.read_text().splitlines()) == 16


def test_non_finite_override_is_a_usage_error(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(out),
                 "--override-coeffs", "inf,0,0,0"]) == 1
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


PROBE_Q8 = (5, 9, 3, 7, 2, 8, 4, 6)


def test_counts_totalling_2_53_or_more_are_a_data_error(tmp_path, capsys):
    # float64 rounds 2**53 + 1 to 2**53, and the release summed to 9007199254740998 against the file's 9007199254741000
    signal, goals, out = tmp_path / "big.txt", tmp_path / "goals.json", tmp_path / "masked.txt"
    signal.write_text("".join(f"{v}\n" for v in (2**53 + 1, 1, 1, 1, 1, 1, 1, 1)))
    goals.write_text(json.dumps([{"index": 2, "goal": "raise"}]))
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(out)]) == 3
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: quantity signal must total less than 2**53"), err


@pytest.mark.parametrize("goals,options,code,message", [
    ([{"index": 2, "goal": "raise"}], ["--offset", "inf"], 1, "fixed offset must be a finite number, got inf"),
    ([{"index": 2, "goal": "raise"}], ["--offset", "1e308"], 2, "degenerate scale: shifted signal sums to inf"),
    ([{"index": 2, "goal": "raise"}], ["--override-coeffs", "1e308,1e308"], 2, "degenerate scale"),
    # this one rounded a NaN to INT64_MIN, and sum repair then never ended
    ([{"index": 2, "goal": "raise"}], ["--override-coeffs", "1.7e308,-1.7e308"], 2, "degenerate scale"),
    ([{"index": 2, "goal": "bound", "min": 5, "max": 1}], [], 1, "bound goal needs min <= max"),
    ([{"index": 1e300, "goal": "raise"}], [], 1, "goal index must be an integer from 1 to"),
], ids=["offset-inf", "offset-1e308", "override-1e308", "override-1.7e308", "min-above-max", "index-1e300"])
def test_out_of_range_numbers_end_in_one_error_line(tmp_path, capsys, goals, options, code, message):
    # each of these once exited 0 with a broken release, blamed the LP, or escaped main
    signal, goal_file, out = tmp_path / "q8.txt", tmp_path / "goals.json", tmp_path / "masked.txt"
    signal.write_text("".join(f"{v}\n" for v in PROBE_Q8))
    goal_file.write_text(json.dumps(goals))
    argv = ["mask-signal", "--input", str(signal), "--goals", str(goal_file), "--output", str(out), "--level", "2"]
    assert main(argv + options) == code
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}"), err


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a feasibility vertex of magnitude 1e8-2e9 meets its rows in memory, "
                          "but not from the report's 12-digit values")
@pytest.mark.parametrize("seed,op", list(ROW_CHECK_DEFECTS), ids=[f"seed{s}-op{o}" for s, o in ROW_CHECK_DEFECTS])
def test_report_rows_hold_at_the_reported_point(tmp_path, seed, op):
    """The microfile benchmark's row check: each report row holds at a_k_hat within 1e-6 x max(1, |rhs|)."""
    q, raise_at, lower_at = ROW_CHECK_DEFECTS[seed, op]
    signal, goals, report = tmp_path / "q.txt", tmp_path / "goals.json", tmp_path / "report.json"
    signal.write_text("".join(f"{v}\n" for v in q))
    entries = [{"index": i, "goal": "raise"} for i in raise_at] + [{"index": i, "goal": "lower"} for i in lower_at]
    goals.write_text(json.dumps(entries))
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(tmp_path / "o.txt"),
                 "--wavelet", "daubechies:2", "--level", "2", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert all(item["satisfied"] for item in payload["goal_satisfaction"])
    x = np.asarray(payload["a_k_hat"])
    for row in payload["lp_rows"]:
        lhs = float(np.asarray(row["coeffs"]) @ x)
        gap = row["rhs"] - lhs if row["relation"] == ">=" else lhs - row["rhs"]
        assert gap <= 1e-6 * max(1.0, abs(row["rhs"])), (row["relation"], row["rhs"], lhs)


@pytest.mark.parametrize("argv,message", [
    (["mask-signal", "--level", "1.5"], "--level expects"),
    (["mask-signal", "--seed", "x"], "--seed expects"),
    (["wrm", "--length", "16.5"], "--length expects"),
    (["wrm", "--length", "16", "--level", "1.5"], "--level expects"),
    (["verify", "--tol", "nan"], "--tol expects"),
    # inf passed a release whose details deviate by 1.03, and -1 failed a file compared with itself
    (["verify", "--tol", "inf"], "--tol expects a finite number >= 0, got 'inf'"),
    (["verify", "--tol", "-1"], "--tol expects a finite number >= 0, got '-1'"),
    # ran as haar, with output byte-identical to --wavelet haar
    (["mask-signal", "--wavelet", "haar:3"], "haar takes order 1 only, got 3"),
], ids=[f"argv{i}" for i in range(8)])
def test_numeric_flags_convert_by_one_rule(tmp_path, capsys, argv, message):
    signal, goals = write_inputs(tmp_path)
    paths = {
        "mask-signal": ["--input", str(signal), "--goals", str(goals), "--output", str(tmp_path / "o.txt")],
        "wrm": [],
        "verify": ["--original", str(signal), "--masked", str(signal)],
    }[argv[0]]
    assert main(argv + paths) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not (tmp_path / "o.txt").exists()


@pytest.mark.parametrize("command,options", [
    ("mask-signal", {"output": 1}),
    ("mask-signal", {"output": True}),
    ("mask-signal", {"output": ["o.txt"]}),
    ("mask-signal", {"input": 0}),
    ("mask-signal", {"input": 5}),
    ("mask-signal", {"goals": 5}),
    ("mask-signal", {"report": 9}),
    ("mask-signal", {"scaled_output": 9}),
    ("mask-microfile", {"vital": 5}),
    ("mask-microfile", {"parameter_values": 5}),
    ("mask-microfile", {"output": 1}),
    ("wrm", {"output": 1}),
    ("verify", {"original": 3}),
    ("verify", {"masked": 3}),
    # these two were used as the delimiter "5" and the attribute "5"
    ("mask-microfile", {"delimiter": 5}),
    ("mask-microfile", {"parameter_attribute": 5}),
    # strings that open() refuses: a NUL raised ValueError, a lone surrogate UnicodeEncodeError after the masking
    ("mask-signal", {"input": "a\u0000b"}),
    ("mask-signal", {"goals": "\u0000"}),
    ("mask-signal", {"output": "\ud800"}),
    ("mask-microfile", {"output": "o\udfff.csv"}),
    ("wrm", {"output": "\u0000"}),
])
def test_config_paths_must_be_strings(tmp_path, capsys, command, options):
    # open() would take a number as a file descriptor: 1 wrote to stdout, 0 read stdin
    signal, goals = write_inputs(tmp_path)
    source, micro_goals = microfile_inputs(tmp_path)
    base = {
        "mask-signal": {"input": str(signal), "goals": str(goals), "output": str(tmp_path / "o.txt")},
        "mask-microfile": {"input": str(source), "output": str(tmp_path / "o.csv"), "vital": ["mil=1"],
                           "parameter_attribute": "area", "parameter_values": "A,B,C,D",
                           "goals": str(micro_goals), "wavelet": "haar", "level": 1},
        "wrm": {"length": 16},
        "verify": {"original": str(signal), "masked": str(signal)},
    }[command]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({**base, **options}))
    assert main(["--config", str(config), command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --")
    assert not (tmp_path / "o.txt").exists() and not (tmp_path / "o.csv").exists()
