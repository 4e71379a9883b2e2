"""Exit codes, artifact emission, config merging, and the verify checks."""

import json

import numpy as np
import pytest

from refdata import OFFSET, Q16, QTILDE_PRINTED, worked_goal_entries
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
    expected = build_wrm(16, 2, make_filter("daubechies", 2)).entries
    assert got.shape == (16, 4)
    assert np.array_equal(got, expected)


def test_wrm_to_file(tmp_path):
    path = tmp_path / "wrm.csv"
    assert main(["wrm", "--length", "8", "--level", "1", "--wavelet", "haar",
                 "--output", str(path)]) == 0
    got = np.array([[float(c) for c in line.split(",")] for line in path.read_text().splitlines()])
    assert got.shape == (8, 4)


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


def test_mask_microfile_end_to_end(tmp_path):
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
    assert main(argv) == 0

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


def test_wrm_length_below_two_is_a_usage_error(capsys):
    assert main(["wrm", "--length", "0", "--level", "1"]) == 1
    assert main(["wrm", "--length", "-4", "--level", "1"]) == 1
    assert capsys.readouterr().err.count("length must be >= 2") == 2


def test_non_finite_override_is_a_usage_error(tmp_path, capsys):
    signal, goals = write_inputs(tmp_path)
    out = tmp_path / "masked.txt"
    assert main(["mask-signal", "--input", str(signal), "--goals", str(goals), "--output", str(out),
                 "--override-coeffs", "inf,0,0,0"]) == 1
    assert not out.exists()
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mask-signal", "--level", "1.5"],
    ["mask-signal", "--seed", "x"],
    ["wrm", "--length", "16.5"],
    ["wrm", "--length", "16", "--level", "1.5"],
    ["verify", "--tol", "nan"],
])
def test_numeric_flags_convert_by_one_rule(tmp_path, capsys, argv):
    signal, goals = write_inputs(tmp_path)
    paths = {
        "mask-signal": ["--input", str(signal), "--goals", str(goals), "--output", str(tmp_path / "o.txt")],
        "wrm": [],
        "verify": ["--original", str(signal), "--masked", str(signal)],
    }[argv[0]]
    assert main(argv + paths) == 1
    flag = argv[-2]
    assert f"error: {flag} expects" in capsys.readouterr().err
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
