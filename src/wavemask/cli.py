"""Batch front door: argument parsing, orchestration, report emission.

Subcommands:
  mask-signal     mask a count signal read from a text file
  mask-microfile  extract counts from a CSV, mask them, rewrite the file
  wrm             dump the reconstruction matrix for a length/level/wavelet
  verify          check total preservation and detail proportionality

All options can also come from a JSON config file (--config); explicit flags
win.  Exit codes: 0 success, 1 usage, configuration or I/O problem, 2 goals
infeasible or a verification failure, 3 malformed data.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .errors import ConfigurationError, DataError, MaskingError, ShapeError
from .masking import GoalSpec, MaskingConfig, MaskingResult, mask_signal
from .microdata import (
    SelectionSpec,
    apply_plan,
    extract_quantity_signal,
    load_csv,
    plan_resynthesis,
    write_csv,
)
from .wavelet import as_signal, decompose, make_filter, read_signal, write_signal
from .wrm import build_wrm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MASKING = 2
EXIT_DATA = 3


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


def _number(value, cast, flag: str):
    """An option read by int or float; a value that does not convert exactly is a usage error."""
    try:
        number = cast(value)
        if isinstance(value, bool) or number != float(value):  # e.g. a level of 1.9 or true
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(f"{flag} expects {cast.__name__}, got {value!r}") from None
    return number


def _parse_wavelet(text: str) -> tuple[str, int]:
    name = str(text).strip()
    if ":" in name:
        family, _, tail = name.partition(":")
        return family, _number(tail, int, "--wavelet order")
    if name.lower() == "haar":
        return "haar", 1
    raise ConfigurationError(f"wavelet must look like daubechies:2, got {text!r}")


def _parse_offset(value) -> float | None:
    """None means automatic; otherwise a fixed non-negative shift."""
    if value is None or (isinstance(value, str) and value.strip().lower() == "auto"):
        return None
    return _number(value, float, "--offset")


def _parse_override(value) -> tuple[float, ...] | None:
    if value is None:
        return None
    parts = [p for p in value.split(",") if p.strip()] if isinstance(value, str) else value
    if not isinstance(parts, list):
        raise ConfigurationError(f"--override-coeffs expects a list of numbers, got {value!r}")
    return tuple(_number(p, float, "--override-coeffs") for p in parts)


def _load_goal_entries(source) -> list:
    """Goal entries from a JSON file path, or passed through when inline."""
    if isinstance(source, list):
        return source
    try:
        with open(source, encoding="utf-8") as handle:
            entries = json.load(handle)
    except FileNotFoundError:
        raise ConfigurationError(f"goal file not found: {source}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{source}: invalid JSON ({exc})") from None
    if not isinstance(entries, list):
        raise DataError(f"{source}: expected a JSON list of goal entries")
    return entries


def _require(eff: dict, key: str, flag: str):
    value = eff.get(key)
    if value is None:
        raise ConfigurationError(f"missing required option {flag}")
    return value


def _get(eff: dict, key: str, default):
    """Default only when the option is absent; falsy values are real values."""
    value = eff.get(key)
    return default if value is None else value


def _switch(eff: dict, key: str) -> bool:
    """An on/off option: true or false, absent (or null) meaning off; a config file's "false" string is no false."""
    value = eff.get(key)
    if not (value is None or isinstance(value, bool)):
        raise ConfigurationError(f"--{key.replace('_', '-')} expects true or false, got {value!r}")
    return bool(value)


def _delimiter(eff: dict) -> str:
    value = str(_get(eff, "delimiter", ","))
    if len(value) != 1:
        raise ConfigurationError(f"delimiter must be a single character, got {value!r}")
    return value


def _masking_config(eff: dict) -> tuple[MaskingConfig, int]:
    """The masking options, and the --seed for record selection and the report."""
    goals = GoalSpec.from_entries(_load_goal_entries(_require(eff, "goals", "--goals")))
    family, order = _parse_wavelet(_get(eff, "wavelet", "daubechies:2"))
    offset = _parse_offset(eff.get("offset"))
    repair = not _switch(eff, "no_repair")
    if _switch(eff, "repro"):
        # Bit-repeatable preset: no sum repair, and the shift must be pinned.
        repair = False
        if offset is None:
            raise ConfigurationError("--repro needs a numeric --offset")
    return MaskingConfig(
        goals=goals,
        family=family,
        order=order,
        level=_number(_get(eff, "level", 2), int, "--level"),
        fixed_offset=offset,
        override_coeffs=_parse_override(eff.get("override_coeffs")),
        sum_repair=repair,
    ), _number(_get(eff, "seed", 0), int, "--seed")


def _with_limits(item: dict, **limits) -> dict:
    """The item plus each limit that is set, at 12 significant digits."""
    item.update((key, _sig12(value)) for key, value in limits.items() if value is not None)
    return item


def _report_payload(result: MaskingResult, config: MaskingConfig, seed: int) -> dict:
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
    }


def _write_report(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def _selection(eff: dict) -> SelectionSpec:
    pairs = eff.get("vital")
    if not pairs:
        raise ConfigurationError("missing required option --vital ATTR=VALUE")
    if isinstance(pairs, dict):
        pairs = [f"{k}={v}" for k, v in pairs.items()]
    if not isinstance(pairs, list):
        raise ConfigurationError(f"--vital expects ATTR=VALUE pairs, got {pairs!r}")
    attrs, values = [], []
    for pair in pairs:
        name, sep, value = str(pair).partition("=")
        if not sep or not name:
            raise ConfigurationError(f"--vital expects ATTR=VALUE, got {pair!r}")
        attrs.append(name)
        values.append(value)
    parameter = _require(eff, "parameter_attribute", "--parameter-attribute")
    raw_values = _require(eff, "parameter_values", "--parameter-values")
    if isinstance(raw_values, str):
        raw_values = [v.strip() for v in raw_values.split(",") if v.strip()]
    elif not isinstance(raw_values, list):
        raise ConfigurationError(f"--parameter-values expects a list or a comma-separated string, got {raw_values!r}")
    return SelectionSpec(
        vital_attributes=tuple(attrs),
        vital_combination=tuple(values),
        parameter_attribute=str(parameter),
        parameter_values=tuple(str(v) for v in raw_values),
    )


def _cmd_mask_signal(eff: dict) -> int:
    q = read_signal(_require(eff, "input", "--input"))
    config, seed = _masking_config(eff)
    result = mask_signal(q, config)
    write_signal(_require(eff, "output", "--output"), result.q_tilde)
    if eff.get("scaled_output"):
        write_signal(eff["scaled_output"], result.q_scaled)
    if eff.get("report"):
        payload = _report_payload(result, config, seed)
        payload["command"] = "mask-signal"
        _write_report(eff["report"], payload)
    return EXIT_OK


def _cmd_mask_microfile(eff: dict) -> int:
    delimiter = _delimiter(eff)
    table = load_csv(_require(eff, "input", "--input"), delimiter=delimiter)
    spec = _selection(eff)
    q = extract_quantity_signal(table, spec)
    config, seed = _masking_config(eff)
    if not config.sum_repair:
        raise ConfigurationError("mask-microfile needs sum repair on: record totals must match exactly")
    result = mask_signal(q, config)
    plan = plan_resynthesis(table, spec, q, result.q_tilde, seed=seed)
    masked = apply_plan(table, plan)
    write_csv(masked, _require(eff, "output", "--output"), delimiter=delimiter)
    if eff.get("report"):
        payload = _report_payload(result, config, seed)
        payload["command"] = "mask-microfile"
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
    length = _number(_require(eff, "length", "--length"), int, "--length")
    level = _number(_get(eff, "level", 2), int, "--level")
    family, order = _parse_wavelet(_get(eff, "wavelet", "daubechies:2"))
    matrix = build_wrm(length, level, make_filter(family, order))
    rows = _dense_rows(matrix.row_entries(np.arange(1, length + 1)), matrix.shape, "0.0", repr)
    path = eff.get("output")
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
    family, order = _parse_wavelet(_get(eff, "wavelet", "daubechies:2"))
    filters = make_filter(family, order)
    level = _number(_get(eff, "level", 2), int, "--level")
    tol = _number(_get(eff, "tol", 1e-6), float, "--tol")

    original_path = _require(eff, "original", "--original")
    masked_path = _require(eff, "masked", "--masked")
    if eff.get("parameter_attribute") or eff.get("vital"):
        spec = _selection(eff)
        delimiter = _delimiter(eff)
        original = extract_quantity_signal(load_csv(original_path, delimiter=delimiter), spec)
        masked = extract_quantity_signal(load_csv(masked_path, delimiter=delimiter), spec)
    else:
        original = read_signal(original_path)
        masked = read_signal(masked_path)
    original = as_signal(original)
    masked = as_signal(masked)
    if original.size != masked.size:
        raise DataError(f"signal lengths differ: {original.size} vs {masked.size}")

    total = float(original.sum())
    drift = abs(float(masked.sum()) - total) / total if total else abs(float(masked.sum()))
    sum_ok = drift <= tol

    d_orig = np.concatenate(decompose(original, filters, level).details)
    d_masked = np.concatenate(decompose(masked, filters, level).details)
    ratio, deviation = _proportionality(d_orig, d_masked)
    detail_ok = deviation <= tol

    print(f"sum-preservation: {'pass' if sum_ok else 'FAIL'} "
          f"(original {total:g}, masked {float(masked.sum()):g}, relative drift {drift:.3g})")
    print(f"detail-proportionality: {'pass' if detail_ok else 'FAIL'} "
          f"(ratio {ratio:.12g}, max relative deviation {deviation:.3g})")
    return EXIT_OK if sum_ok and detail_ok else EXIT_MASKING


class _Parser(argparse.ArgumentParser):
    """Routes usage mistakes through the exit-code-1 path instead of argparse's 2."""

    def error(self, message):
        raise ConfigurationError(message)


def _add_masking_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--goals", help="JSON goal file: [{index, goal, min?, max?}]")
    sub.add_argument("--offset", help="non-negativity shift: 'auto' or a number")
    sub.add_argument("--no-repair", dest="no_repair", action="store_const", const=True,
                     help="skip the +-1 adjustments that restore the exact total")
    sub.add_argument("--override-coeffs", dest="override_coeffs",
                     help="comma-separated replacement coefficients, bypasses the LP")
    sub.add_argument("--repro", action="store_const", const=True,
                     help="repeatable preset: requires numeric --offset, disables repair")
    sub.add_argument("--seed", help="seed for record selection (microfile rewrite)")
    sub.add_argument("--report", help="write a JSON report of every stage here")


def _add_selection_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--vital", action="append", metavar="ATTR=VALUE",
                     help="vital attribute equality filter, repeatable")
    sub.add_argument("--parameter-attribute", dest="parameter_attribute",
                     help="attribute whose per-value counts form the signal")
    sub.add_argument("--parameter-values", dest="parameter_values",
                     help="comma-separated parameter values, in signal order")
    sub.add_argument("--delimiter", help="CSV delimiter (default ',')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavemask",
        description="Mask count signals by rewriting their wavelet approximation.",
    )
    parser.add_argument("--config", help="JSON file of option defaults; flags win")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--wavelet", help="filter pair, e.g. daubechies:2 or haar")
    common.add_argument("--level", help="decomposition depth k")

    commands = parser.add_subparsers(dest="command", required=True)

    ms = commands.add_parser("mask-signal", parents=[common], help="mask a signal file")
    ms.add_argument("--input", help="signal file: one number per line, '#' comments")
    ms.add_argument("--output", help="where to write the masked integer signal")
    ms.add_argument("--scaled-output", dest="scaled_output",
                    help="also write the pre-rounding masked signal here")
    _add_masking_options(ms)

    mm = commands.add_parser("mask-microfile", parents=[common],
                             help="mask counts extracted from a CSV and rewrite it")
    mm.add_argument("--input", help="CSV microfile")
    mm.add_argument("--output", help="where to write the rewritten CSV")
    _add_selection_options(mm)
    _add_masking_options(mm)

    wm = commands.add_parser("wrm", parents=[common],
                             help="dump the reconstruction matrix as CSV")
    wm.add_argument("--length", help="signal length m")
    wm.add_argument("--output", help="CSV destination (default stdout)")

    vf = commands.add_parser("verify", parents=[common],
                             help="check total preservation and detail proportionality")
    vf.add_argument("--original", help="original signal file (or CSV with selection flags)")
    vf.add_argument("--masked", help="masked signal file (or CSV)")
    vf.add_argument("--tol", help="relative tolerance (default 1e-6)")
    _add_selection_options(vf)
    return parser


_HANDLERS = {
    "mask-signal": _cmd_mask_signal,
    "mask-microfile": _cmd_mask_microfile,
    "wrm": _cmd_wrm,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        defaults: dict = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as handle:
                    defaults = json.load(handle)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigurationError(f"{args.config}: invalid JSON ({exc})") from None
            if not isinstance(defaults, dict):
                raise ConfigurationError(f"{args.config}: expected a JSON object")
            # a key may belong to another subcommand, so one file can serve several
            options = {key for command in _HANDLERS for key in vars(parser.parse_args([command]))} - {"command", "config"}
            unknown = ", ".join(repr(key) for key in defaults if key not in options)
            if unknown:
                raise ConfigurationError(f"{args.config}: unknown key {unknown}: no subcommand has that option")
        given = {k: v for k, v in vars(args).items() if v is not None and k != "config"}
        eff = {**defaults, **given}
        for key in ("input", "output", "goals", "report", "scaled_output", "original", "masked"):
            value = eff.get(key)
            if not (value is None or isinstance(value, str) or (key == "goals" and isinstance(value, list))):
                raise ConfigurationError(f"--{key.replace('_', '-')} expects a file path, got {value!r}")
        return _HANDLERS[args.command](eff)
    except OSError as exc:
        where = f"cannot open {exc.filename}" if exc.filename else "I/O error"  # open() names its path, a write none
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ConfigurationError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MaskingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MASKING
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
