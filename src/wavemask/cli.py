"""Batch front door: argument parsing, orchestration, report emission.

Subcommands:
  mask-signal     mask a count signal read from a text file
  mask-microfile  extract counts from a CSV, mask them, rewrite the file
  wrm             dump the reconstruction matrix for a length/level/wavelet
  verify          check total preservation and detail proportionality

Each option is declared once, in ``build_parser``, with its converter and
default.  Options can also come from a JSON config file (--config): flags win,
and null counts as absent.  Each value passes its converter before any file is
opened.  Exit codes: 0 success, 1 usage, configuration or I/O problem, 2 goals
infeasible or a verification failure, 3 malformed data.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigurationError, DataError, MaskingError, ShapeError, WavemaskError
from .masking import GoalSpec, MaskingConfig, MaskingResult, mask_signal
from .microdata import (
    SelectionSpec,
    apply_plan,
    extract_quantity_signal,
    load_csv,
    plan_resynthesis,
    write_csv,
)
from .wavelet import decompose, make_filter, read_signal, write_signal
from .wrm import build_wrm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MASKING = 2
EXIT_DATA = 3
_EXIT_CODES = {ConfigurationError: EXIT_USAGE, ShapeError: EXIT_USAGE, MaskingError: EXIT_MASKING, DataError: EXIT_DATA}


def _sig12(value) -> float:
    """Collapse to 12 significant digits so reports are cross-platform stable."""
    return float(f"{float(value):.12g}")


def _vec(values) -> list[float]:
    return [_sig12(v) for v in np.asarray(values, dtype=np.float64)]


def _dense_rows(entries, shape: tuple[int, int], zero, cell):
    """The matrix with these row-major non-zero entries, row by row as lists: ``cell(value)`` at an entry, else ``zero``."""
    row, column, value = entries
    ends = np.searchsorted(row, np.arange(shape[0]), side="right").tolist()
    for start, end in zip([0, *ends], ends):
        line = [zero] * shape[1]
        for j, v in zip(column[start:end].tolist(), value[start:end].tolist()):
            line[j] = cell(v)
        yield line


def _number(value, flag: str, cast=int):
    """An int, or with ``cast`` a float; a value that does not convert exactly is a usage error."""
    try:
        number = cast(value)
        if isinstance(value, bool) or number != float(value):  # e.g. a level of 1.9 or true
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{flag} expects {cast.__name__}, got {value!r}") from None
    return number


def _tolerance(value, flag: str) -> float:
    tol = _number(value, flag, float)
    if not 0.0 <= tol < math.inf:
        raise ConfigurationError(f"{flag} expects a finite number >= 0, got {value!r}")
    return tol


def _typed(value, flag: str, kind: type, expects: str):
    """The value, if it is a ``kind``: a config file's 1 is no path (open() takes it for stdout), "false" no false."""
    if not isinstance(value, kind):
        raise ConfigurationError(f"{flag} expects {expects}, got {value!r}")
    return value


_text = functools.partial(_typed, kind=str, expects="a string")
_boolean = functools.partial(_typed, kind=bool, expects="true or false")


def _path(value, flag: str) -> str:
    with contextlib.suppress(UnicodeEncodeError):  # a lone surrogate, from JSON; sys.argv's surrogateescape ones encode
        if b"\0" not in os.fsencode(_typed(value, flag, str, "a file path")):  # open() refuses a NUL too
            return value
    raise ConfigurationError(f"{flag} expects a file path without a NUL or a lone surrogate, got {value!r}")


def _goal_source(value, flag: str):
    return value if isinstance(value, list) else _path(value, flag)


def _delimiter(value, flag: str) -> str:
    if len(_text(value, flag)) != 1:
        raise ConfigurationError(f"delimiter must be a single character, got {value!r}")
    return value


def _wavelet(value, flag: str) -> tuple[str, int]:
    name = str(value).strip()
    if ":" in name:
        family, _, tail = name.partition(":")
        return family, _number(tail, f"{flag} order")
    if name.lower() == "haar":
        return "haar", 1
    raise ConfigurationError(f"wavelet must look like daubechies:2, got {value!r}")


def _offset(value, flag: str) -> float | None:
    """None means automatic; otherwise a fixed non-negative shift."""
    if isinstance(value, str) and value.strip().lower() == "auto":
        return None
    return _number(value, flag, float)


def _listed(value, flag: str) -> tuple:
    """The items of a comma-separated string, or of a config file's list."""
    if isinstance(value, str):
        return tuple(v.strip() for v in value.split(",") if v.strip())
    if not isinstance(value, list):
        raise ConfigurationError(f"{flag} expects a list or a comma-separated string, got {value!r}")
    return tuple(value)


def _override(value, flag: str) -> tuple[float, ...]:
    return tuple(_number(v, flag, float) for v in _listed(value, flag))


def _vital(value, flag: str) -> tuple[tuple[str, str], ...]:
    """(attribute, value) pairs from ATTR=VALUE strings, or from a config file's object."""
    if isinstance(value, dict):
        value = [f"{k}={v}" for k, v in value.items()]
    if not (value and isinstance(value, list)):
        raise ConfigurationError(f"{flag} expects ATTR=VALUE pairs, got {value!r}")
    pairs = []
    for pair in value:
        name, sep, text = str(pair).partition("=")
        if not sep or not name:
            raise ConfigurationError(f"{flag} expects ATTR=VALUE, got {pair!r}")
        pairs.append((name, text))
    return tuple(pairs)


def _read_json(path: str, kind: type, expected: str, error: type[WavemaskError]):
    """The JSON value in the file at ``path``; invalid JSON, or a value that is no ``kind``, raises ``error``."""
    try:
        with open(path, encoding="utf-8") as handle:
            value = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(value, kind):
        raise error(f"{path}: expected {expected}")
    return value


def _require(eff: dict, key: str, flag: str):
    value = eff[key]
    if value is None:
        raise ConfigurationError(f"missing required option {flag}")
    return value


def _masking_config(eff: dict) -> MaskingConfig:
    if eff["repro"] and eff["offset"] is None:
        # Bit-repeatable preset: no sum repair, and the shift must be pinned.
        raise ConfigurationError("--repro needs a numeric --offset")
    entries = _require(eff, "goals", "--goals")
    if not isinstance(entries, list):  # a path; a config file may list the entries inline
        entries = _read_json(entries, list, "a JSON list of goal entries", DataError)
    family, order = eff["wavelet"]
    return MaskingConfig(
        goals=GoalSpec.from_entries(entries),
        family=family,
        order=order,
        level=eff["level"],
        fixed_offset=eff["offset"],
        override_coeffs=eff["override_coeffs"],
        sum_repair=not (eff["no_repair"] or eff["repro"]),
    )


def _with_limits(item: dict, **limits) -> dict:
    """The item plus each limit that is set, at 12 significant digits."""
    item.update((key, _sig12(value)) for key, value in limits.items() if value is not None)
    return item


def _report_payload(result: MaskingResult, config: MaskingConfig, seed: int, command: str) -> dict:
    dec, lp = result.decomposition, result.lp
    original = float(result.q.sum())
    scaled = float(result.q_scaled.sum())
    rounded = int(result.q_tilde.sum())
    return {
        "wavelet": dec.filters.name,
        "level": dec.level,
        "options": {
            "offset": "auto" if config.fixed_offset is None else _sig12(config.fixed_offset),
            "sum_repair": config.sum_repair,
            "seed": seed,
            "override": config.override_coeffs is not None,
        },
        "q": _vec(result.q),
        "a_k": _vec(dec.approx),
        "details": [_vec(band) for band in dec.details],
        "A_k": _vec(result.base_approx),
        "goals": [
            _with_limits({"index": index, "goal": goal.kind}, min=goal.lower, max=goal.upper)
            for index, goal in config.goals.by_index.items()
        ],
        "lp_rows": [
            {"coeffs": coeffs, "relation": relation, "rhs": _sig12(rhs)} for coeffs, relation, rhs in zip(
                _dense_rows(lp.entries, (lp.rhs.size, lp.num_vars), 0.0, _sig12), lp.relations, lp.rhs)
        ],
        "a_k_hat": _vec(result.new_coeffs),
        "A_k_hat": _vec(result.new_approx),
        "q_hat": _vec(result.q_hat),
        "offset": _sig12(result.offset),
        "q_hathat": _vec(result.q_shifted),
        "c": _sig12(result.scale),
        "q_scaled": _vec(result.q_scaled),
        "q_tilde": [int(v) for v in result.q_tilde],
        "goal_satisfaction": [
            _with_limits(
                {"index": c.index, "goal": c.kind, "achieved": _sig12(c.achieved), "satisfied": bool(c.satisfied)},
                threshold=c.threshold, min=c.lower, max=c.upper,
            )
            for c in result.goal_report
        ],
        "sum_check": {
            "original_total": _sig12(original),
            "scaled_total": _sig12(scaled),
            "scaled_relative_error": _sig12(abs(scaled - original) / original) if original else 0.0,
            "rounded_total": rounded,
            "rounded_matches": rounded == int(round(original)),
        },
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "command": command,
    }


def _write_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _selection(eff: dict) -> SelectionSpec:
    attrs, values = zip(*_require(eff, "vital", "--vital ATTR=VALUE"))
    return SelectionSpec(
        vital_attributes=attrs,
        vital_combination=values,
        parameter_attribute=_require(eff, "parameter_attribute", "--parameter-attribute"),
        parameter_values=_require(eff, "parameter_values", "--parameter-values"),
    )


def _cmd_mask_signal(eff: dict) -> int:
    q = read_signal(_require(eff, "input", "--input"))
    config = _masking_config(eff)
    result = mask_signal(q, config)
    write_signal(_require(eff, "output", "--output"), result.q_tilde)
    if eff["scaled_output"]:
        write_signal(eff["scaled_output"], result.q_scaled)
    if eff["report"]:
        _write_report(eff["report"], _report_payload(result, config, eff["seed"], "mask-signal"))
    return EXIT_OK


def _cmd_mask_microfile(eff: dict) -> int:
    table = load_csv(_require(eff, "input", "--input"), delimiter=eff["delimiter"])
    spec = _selection(eff)
    q = extract_quantity_signal(table, spec)
    config = _masking_config(eff)
    if not config.sum_repair:
        raise ConfigurationError("mask-microfile needs sum repair on: record totals must match exactly")
    result = mask_signal(q, config)
    plan = plan_resynthesis(table, spec, q, result.q_tilde, seed=eff["seed"])
    masked = apply_plan(table, plan)
    write_csv(masked, _require(eff, "output", "--output"), delimiter=eff["delimiter"])
    if eff["report"]:
        payload = _report_payload(result, config, eff["seed"], "mask-microfile")
        payload["microfile"] = {
            "records": len(table),
            "vital": dict(zip(spec.vital_attributes, spec.vital_combination)),
            "parameter_attribute": spec.parameter_attribute,
            "parameter_values": list(spec.parameter_values),
            "moves": len(plan.moves),
            "seed": plan.seed,
        }
        _write_report(eff["report"], payload)
    return EXIT_OK


def _cmd_wrm(eff: dict) -> int:
    length = _require(eff, "length", "--length")
    matrix = build_wrm(length, eff["level"], make_filter(*eff["wavelet"]))
    rows = _dense_rows(matrix.row_entries(np.arange(1, length + 1)), matrix.shape, "0.0", repr)
    path = eff["output"]
    try:
        with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as handle:
            handle.writelines(",".join(row) + "\n" for row in rows)
            handle.flush()
    except BrokenPipeError:
        if not path:  # the reader has gone: what stdout still holds goes to devnull at exit, silently
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise
    return EXIT_OK


def _proportionality(d_orig: np.ndarray, d_masked: np.ndarray) -> tuple[float, float]:
    """Least-squares ratio and the worst relative deviation from it."""
    denom = float(d_orig @ d_orig)
    if denom == 0.0:
        deviation = float(np.max(np.abs(d_masked))) if d_masked.size else 0.0
        return 0.0, deviation
    ratio = float(d_masked @ d_orig) / denom
    residual = float(np.max(np.abs(d_masked - ratio * d_orig)))
    scale = max(1.0, float(np.max(np.abs(ratio * d_orig))))
    return ratio, residual / scale


def _cmd_verify(eff: dict) -> int:
    filters = make_filter(*eff["wavelet"])
    original_path = _require(eff, "original", "--original")
    masked_path = _require(eff, "masked", "--masked")
    if eff["parameter_attribute"] or eff["vital"]:
        spec = _selection(eff)
        original = extract_quantity_signal(load_csv(original_path, delimiter=eff["delimiter"]), spec)
        masked = extract_quantity_signal(load_csv(masked_path, delimiter=eff["delimiter"]), spec)
    else:
        original = read_signal(original_path)
        masked = read_signal(masked_path)
    if original.size != masked.size:
        raise DataError(f"signal lengths differ: {original.size} vs {masked.size}")

    total = float(original.sum())
    drift = abs(float(masked.sum()) - total) / total if total else abs(float(masked.sum()))
    sum_ok = drift <= eff["tol"]

    d_orig = np.concatenate(decompose(original, filters, eff["level"]).details)
    d_masked = np.concatenate(decompose(masked, filters, eff["level"]).details)
    ratio, deviation = _proportionality(d_orig, d_masked)
    detail_ok = deviation <= eff["tol"]

    print(f"sum-preservation: {'pass' if sum_ok else 'FAIL'} "
          f"(original {total:g}, masked {float(masked.sum()):g}, relative drift {drift:.3g})")
    print(f"detail-proportionality: {'pass' if detail_ok else 'FAIL'} "
          f"(ratio {ratio:.12g}, max relative deviation {deviation:.3g})")
    return EXIT_OK if sum_ok and detail_ok else EXIT_MASKING


class _Parser(argparse.ArgumentParser):
    """Routes usage mistakes through the exit-code-1 path instead of argparse's 2.

    A subcommand's parser holds ``options``: key -> (flag, converter, default).
    """

    def error(self, message):
        raise ConfigurationError(message)

    def option(self, flag: str, convert, default=None, **kwargs) -> None:
        """Declare one option; ``convert(value, flag)`` takes a flag's string or a config file's JSON value."""
        self.options[self.add_argument(flag, **kwargs).dest] = (flag, convert, default)


def _subcommand(commands, name: str, help: str, handler) -> _Parser:
    """A subcommand's parser, with the transform options every subcommand takes."""
    sub = commands.add_parser(name, help=help)
    sub.options = {}
    sub.set_defaults(handler=handler)
    sub.option("--wavelet", _wavelet, ("daubechies", 2), help="filter pair, e.g. daubechies:2 or haar")
    sub.option("--level", _number, 2, help="decomposition depth k")
    return sub


def _add_masking_options(sub: _Parser) -> None:
    sub.option("--goals", _goal_source, help="JSON goal file: [{index, goal, min?, max?}]")
    sub.option("--offset", _offset, help="non-negativity shift: 'auto' or a number")
    sub.option("--no-repair", _boolean, False, action="store_const", const=True,
               help="skip the +-1 adjustments that restore the exact total")
    sub.option("--override-coeffs", _override, help="comma-separated replacement coefficients, bypasses the LP")
    sub.option("--repro", _boolean, False, action="store_const", const=True,
               help="repeatable preset: requires numeric --offset, disables repair")
    sub.option("--seed", _number, 0, help="seed for record selection (microfile rewrite)")
    sub.option("--report", _path, help="write a JSON report of every stage here")


def _add_selection_options(sub: _Parser) -> None:
    sub.option("--vital", _vital, action="append", metavar="ATTR=VALUE",
               help="vital attribute equality filter, repeatable")
    sub.option("--parameter-attribute", _text, help="attribute whose per-value counts form the signal")
    sub.option("--parameter-values", _listed, help="comma-separated parameter values, in signal order")
    sub.option("--delimiter", _delimiter, ",", help="CSV delimiter (default ',')")


def build_parser() -> _Parser:
    """The parser; its ``commands`` maps each subcommand's name to that subcommand's parser."""
    parser = _Parser(
        prog="wavemask",
        description="Mask count signals by rewriting their wavelet approximation.",
    )
    parser.add_argument("--config", help="JSON file of option defaults; flags win")
    commands = parser.add_subparsers(dest="command", required=True)
    parser.commands = commands.choices

    ms = _subcommand(commands, "mask-signal", "mask a signal file", _cmd_mask_signal)
    ms.option("--input", _path, help="signal file: one number per line, '#' comments")
    ms.option("--output", _path, help="where to write the masked integer signal")
    ms.option("--scaled-output", _path, help="also write the pre-rounding masked signal here")
    _add_masking_options(ms)

    mm = _subcommand(commands, "mask-microfile", "mask counts extracted from a CSV and rewrite it", _cmd_mask_microfile)
    mm.option("--input", _path, help="CSV microfile")
    mm.option("--output", _path, help="where to write the rewritten CSV")
    _add_selection_options(mm)
    _add_masking_options(mm)

    wm = _subcommand(commands, "wrm", "dump the reconstruction matrix as CSV", _cmd_wrm)
    wm.option("--length", _number, help="signal length m")
    wm.option("--output", _path, help="CSV destination (default stdout)")

    vf = _subcommand(commands, "verify", "check total preservation and detail proportionality", _cmd_verify)
    vf.option("--original", _path, help="original signal file (or CSV with selection flags)")
    vf.option("--masked", _path, help="masked signal file (or CSV)")
    vf.option("--tol", _tolerance, 1e-6, help="relative tolerance (default 1e-6)")
    _add_selection_options(vf)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        given = _read_json(args.config, dict, "a JSON object", ConfigurationError) if args.config else {}
        # a key may belong to another subcommand, so one file can serve several
        known = {key for command in parser.commands.values() for key in command.options}
        unknown = ", ".join(repr(key) for key in given if key not in known)
        if unknown:
            raise ConfigurationError(f"{args.config}: unknown key {unknown}: no subcommand has that option")
        given.update((key, value) for key, value in vars(args).items() if value is not None)
        eff = {}
        for key, (flag, convert, default) in parser.commands[args.command].options.items():
            value = given.get(key)
            eff[key] = default if value is None else convert(value, flag)
        return args.handler(eff)
    except OSError as exc:
        where = f"cannot open {exc.filename}" if exc.filename else "I/O error"  # open() names its path, a write none
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except (WavemaskError, MemoryError) as exc:  # MemoryError: e.g. numpy refusing an array of a huge --length
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
