"""A property-based fuzzer over ``cli.main``: any argv and ``--config`` object ends in a documented exit code.

Each example draws a subcommand, the files it may read (a signal, a goal file,
a small CSV) and, for every option of the subcommand, a value given as a flag,
in the config file, in both or in neither.  Values are mostly plausible and
sometimes hostile: NaN, +-inf, 1e308, huge integers, booleans, strings, lists,
objects and null.  Strings such as "@signal" stand for the files an example
writes in its own temporary directory, so a pinned example is a literal.

The properties: the exit code is 0, 1, 2 or 3, and nothing escapes ``main``;
a non-zero exit writes exactly one stderr line, starting ``error: ``, except a
``verify`` whose check fails, which prints its two verdict lines; an exit 0
from mask-signal or mask-microfile releases no negative count and, with sum
repair on, the input's total.
"""

import contextlib
import csv
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from wavemask.cli import main  # noqa: E402

TRANSFORM = ("wavelet", "level")
MASKING = ("goals", "offset", "no_repair", "override_coeffs", "repro", "seed", "report")
SELECTION = ("vital", "parameter_attribute", "parameter_values", "delimiter")
OPTIONS = {
    "mask-signal": TRANSFORM + ("input", "output", "scaled_output") + MASKING,
    "mask-microfile": TRANSFORM + ("input", "output") + SELECTION + MASKING,
    "wrm": TRANSFORM + ("length", "output"),
    "verify": TRANSFORM + ("original", "masked", "tol") + SELECTION,
}
SWITCHES = ("no_repair", "repro")
AREAS = "ABCDEFGH"

HOSTILE_VALUES = [
    math.nan, math.inf, -math.inf, 1e308, -1e308, 2**63, 2**64 + 1, -(2**70), 10**400,
    True, False, "", "nan", "-inf", "1e308", "false", [], {}, [None], {"a": 1},
]
HOSTILE = st.one_of(
    st.sampled_from(HOSTILE_VALUES), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.integers(-2, 2), max_size=3),
)
# a path that is not a string never reaches open(); a string one could write outside the example's directory
NOT_A_STRING = st.sampled_from([v for v in HOSTILE_VALUES if not isinstance(v, str)])
# wrm allocates O(length) (a length too large to allocate is a MemoryError, exit 1), so a drawn one stays small
SMALL_LENGTH = st.sampled_from([math.nan, math.inf, True, "", "x", [], {}, 16.5, "16.5", -(2**70), 0, 1, 3, 12])
# per option: (values a run takes, near misses)
VALUES = {
    "wavelet": (["daubechies:2", "haar", "db:3", "daubechies:1", "haar:1"], ["haar:3", "daubechies:4", "db2"]),
    "level": ([1, 2, 3, "1", "2"], [0, -1, "1.5", 100_000_000_000]),
    "input": (["@signal", "@other"], ["@empty", "@missing", "@dir"]),  # a CSV for mask-microfile
    "output": (["@out"], ["@dir", "@missing"]),
    "scaled_output": (["@scaled"], ["@dir"]),
    "report": (["@report"], ["@missing"]),
    "goals": (["@goals", [{"index": 1, "goal": "raise"}, {"index": 2, "goal": "lower"}]], ["@missing", "@csv"]),
    "offset": (["auto", 0, 2500, "2500"], [-1, "inf", 1e308]),
    "no_repair": ([True, False], ["false", 0]),
    "repro": ([False], [True, "true", 1]),
    "override_coeffs": (["0,379.097,31805.084,5464.854", [1, 2]], ["1e308,1e308", "1.7e308,-1.7e308", "inf,0"]),
    "seed": ([0, 3, "7", 2**70], [-1, "x", 1.5]),
    "vital": ([["mil=1"], {"mil": "1"}, ["mil=0"]], [["mil"], [], ["area=A"]]),
    "parameter_attribute": (["area"], ["mil", "nosuch"]),
    "parameter_values": (["A,B,C,D,E,F,G,H", "A,B,C,D", ["A", "B", "C", "D"]], ["A,A", "A", "A,B,C"]),
    "delimiter": ([","], [";", ";;", '"', "\n"]),
    "length": ([2, 4, 8, 16, 64, "16"], [6, 0, 1, "16.5"]),
    "original": (["@signal", "@other"], ["@csv", "@empty"]),
    "masked": (["@signal", "@other"], ["@csv", "@missing"]),
    "tol": ([1e-6, "1e-6", 0.5, 0], ["inf", -1, "nan"]),
}
PATH_KEYS = ("input", "output", "scaled_output", "report", "goals", "original", "masked")
SIGNAL_JUNK = ["9007199254740993", "-3", "2.5", "nan", "inf", "x", "1e400", "# note", ""]


@st.composite
def option_values(draw, key, command):
    """A value a run takes half the time, else a near miss or a hostile value."""
    good, near = VALUES[key]
    pick = draw(st.integers(0, 3))
    if pick < 2:
        return draw(st.sampled_from(["@csv"] if (command, key) == ("mask-microfile", "input") else good))
    if pick == 2:
        return draw(st.sampled_from(near))
    if key in PATH_KEYS:
        return draw(NOT_A_STRING)
    return draw(SMALL_LENGTH if key == "length" else HOSTILE)


# a run that exits 0: every option not named here keeps its default
BASE = {
    "mask-signal": {"input": "@signal", "goals": "@goals", "output": "@out"},
    "mask-microfile": {"input": "@csv", "output": "@out", "goals": "@goals", "vital": ["mil=1"],
                       "parameter_attribute": "area", "parameter_values": "A,B,C,D,E,F,G,H"},
    "wrm": {"length": 16},
    "verify": {"original": "@signal", "masked": "@signal"},
}


@st.composite
def cases(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    chaos = draw(st.sampled_from([0, 0, 0, 1, 2, 8]))  # in eighths: how often an option departs from the base run
    flags, config = {}, {}
    for key in OPTIONS[command]:
        if draw(st.integers(0, 7)) < chaos:
            value = draw(option_values(key, command))
        elif key in BASE[command]:
            value = BASE[command][key]
        else:
            continue
        where = draw(st.sampled_from(["flag", "config", "both"]))  # with both, the flag wins
        if where != "config":
            flags[key] = True if key in SWITCHES else value
        if where != "flag":
            config[key] = draw(st.one_of(option_values(key, command), st.none())) if where == "both" else value
    if chaos and draw(st.integers(0, 9)) == 0:
        config[draw(st.sampled_from(["levle", "command", "config", "lenght"]))] = 1
    m = draw(st.sampled_from([2, 4, 8, 8, 16, 32, 64, 6, 1]))
    lines = [str(v) for v in draw(st.lists(st.integers(0, 1000), min_size=m, max_size=m))]
    if chaos and lines and draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(SIGNAL_JUNK))
    # goal positions fit both the signal and the 8 areas of the microfile
    positions = draw(st.lists(st.integers(1, max(1, min(m, 8))), unique=True, min_size=1, max_size=4))
    entries = []
    for index in positions:
        entry = {"index": index, "goal": draw(st.sampled_from(["raise", "lower", "bound", "free"]))}
        if entry["goal"] == "bound":
            low, high = sorted(draw(st.lists(st.integers(-10, 2000), min_size=2, max_size=2)))
            entry.update(draw(st.sampled_from([{"min": low}, {"max": high}, {"min": low, "max": high}])))
        entries.append(entry)
    if chaos and draw(st.integers(0, 3)) == 0:
        entries.append(draw(st.fixed_dictionaries(
            {"index": st.one_of(st.integers(-1, 9), HOSTILE), "goal": st.sampled_from(["raise", "bound", "up", 5])},
            optional={"min": HOSTILE, "max": HOSTILE})))
    broken = chaos and draw(st.integers(0, 9)) == 0
    goals = draw(st.sampled_from(["[{bad json", "{}", "[]"])) if broken else json.dumps(entries)
    rows = draw(st.lists(st.tuples(st.sampled_from(AREAS + "Z"), st.sampled_from("01")), min_size=10, max_size=40))
    return {"command": command, "signal": "\n".join(lines), "goals": goals, "rows": rows, "flags": flags,
            "config": config or None}


def probe(flags, config=None, command="mask-signal", signal=(5, 9, 3, 7, 2, 8, 4, 6),
          goals=({"index": 2, "goal": "raise"},), rows=()):
    """A literal case: the base run of ``command`` with these flags, and with a config key in place of its flag."""
    flags = {key: value for key, value in {**BASE[command], **flags}.items() if key not in (config or {})}
    return {"command": command, "signal": "\n".join(map(str, signal)), "goals": json.dumps(list(goals)),
            "rows": list(rows), "flags": flags, "config": config}


MICRO_ROWS = [("A", "1"), ("B", "1"), ("A", "0"), ("C", "1"), ("D", "1"), ("B", "1")]


def _resolve(value, files):
    return files.get(value, value) if isinstance(value, str) else value


def _flag_argv(key, value) -> list:
    flag = "--" + key.replace("_", "-")
    if key in SWITCHES:
        return [flag]
    if isinstance(value, dict):
        value = [f"{k}={v}" for k, v in value.items()]
    if key == "vital" and isinstance(value, list):
        return [f"{flag}={v}" for v in value]
    if isinstance(value, list):
        value = ",".join(map(str, value))
    return [f"{flag}={value}"]  # --flag=value, so that a value such as -inf is not taken for a flag


def _effective(case, key):
    """The raw value the CLI sees for ``key``: a flag wins, and a config null counts as absent."""
    if key in case["flags"]:
        return case["flags"][key]
    return (case["config"] or {}).get(key)


def _exact_total(text: str) -> int:
    values = [line.strip() for line in text.splitlines() if line.strip() and not line.strip().startswith("#")]
    return sum(int(v) if v.lstrip("-").isdigit() else int(float(v)) for v in values)


def _recount(path, case) -> tuple[int, int]:
    """Records, and eligible records whose parameter is listed, under the run's selection."""
    vital = _effective(case, "vital")
    pairs = [f"{k}={v}" for k, v in vital.items()] if isinstance(vital, dict) else vital
    wanted = [str(p).partition("=")[::2] for p in pairs]
    values = _effective(case, "parameter_values")
    listed = {v.strip() for v in values.split(",")} if isinstance(values, str) else set(map(str, values))
    with open(path, newline="", encoding="utf-8") as handle:
        header, *records = list(csv.reader(handle))
    cells = [dict(zip(header, record)) for record in records]
    eligible = [c for c in cells if all(c.get(a) == v for a, v in wanted)]
    return len(records), sum(c.get(_effective(case, "parameter_attribute")) in listed for c in eligible)


def _run(case, root: Path):
    files = {name: str(root / name[1:]) for name in ("@signal", "@other", "@csv", "@goals", "@empty", "@out",
                                                      "@scaled", "@report")}
    files.update({"@missing": str(root / "missing" / "x"), "@dir": str(root)})
    Path(files["@signal"]).write_text(case["signal"])
    Path(files["@other"]).write_text("\n".join(reversed(case["signal"].splitlines())))
    records = "".join(f"{n},{area},{mil}\n" for n, (area, mil) in enumerate(case["rows"]))
    Path(files["@csv"]).write_text("person,area,mil\n" + records)
    Path(files["@goals"]).write_text(case["goals"])
    Path(files["@empty"]).write_text("")
    argv = []
    if case["config"] is not None:
        config = root / "run.json"
        config.write_text(json.dumps({k: _resolve(v, files) for k, v in case["config"].items()}))
        argv = ["--config", str(config)]
    argv.append(case["command"])
    for key, value in case["flags"].items():
        argv += _flag_argv(key, _resolve(value, files))
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(root)  # a relative path an example names lands in its own directory
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue(), err.getvalue(), files


@settings(derandomize=True, max_examples=160, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=cases())
# the probes that once exited 0 with a broken release, blamed the LP, escaped main or never ended
@example(case=probe({"offset": "inf"}))
@example(case=probe({"offset": "1e308"}))
@example(case=probe({"override_coeffs": "1e308,1e308"}))
@example(case=probe({"override_coeffs": "1.7e308,-1.7e308"}))
@example(case=probe({}, goals=[{"index": 2, "goal": "bound", "min": 5, "max": 1}]))
@example(case=probe({}, goals=[{"index": 1e300, "goal": "raise"}]))
@example(case=probe({}, config={"delimiter": 5}, command="mask-microfile", rows=MICRO_ROWS))
@example(case=probe({}, config={"parameter_attribute": 5}, command="mask-microfile", rows=MICRO_ROWS))
@example(case=probe({"wavelet": "haar:3"}))
@example(case=probe({"tol": "inf"}, command="verify"))
@example(case=probe({"tol": "-1"}, command="verify"))
@example(case=probe({"level": "100000000000"}))
@example(case=probe({}, signal=(2**53 + 1, 1, 1, 1, 1, 1, 1, 1)))
@example(case=probe({}, command="mask-microfile", rows=MICRO_ROWS))
@example(case=probe({}, config={"input": "a\u0000b"}))
@example(case=probe({}, config={"output": "\ud800"}))
@example(case=probe({"length": str(10**21)}, command="wrm"))
def test_main_ends_in_a_documented_exit_code(case):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, files = _run(case, Path(tmp))
        command = case["command"]
        event(f"{command} exits {code}")
        assert code in (0, 1, 2, 3)
        if command == "verify" and code == 2 and not err:  # a failed check: the verdict lines go to stdout
            assert out.count("\n") == 2 and "FAIL" in out, out
            return
        if code:
            assert err.count("\n") == 1 and err.startswith("error: "), err
            return
        output = _resolve(_effective(case, "output"), files)
        if command == "mask-signal":
            released = [float(line) for line in Path(output).read_text().splitlines()]
            assert all(v >= 0 and v.is_integer() for v in released)
            if not (_effective(case, "no_repair") is True or _effective(case, "repro") is True):
                assert sum(map(int, released)) == _exact_total(case["signal"])
        elif command == "mask-microfile":
            assert _recount(output, case) == _recount(files["@csv"], case)
