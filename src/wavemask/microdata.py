"""Categorical microfile handling: extraction of count signals and rewrite.

A microfile is a table of opaque string cells (codes like "06010" keep their
leading zeros).  Counting respondents that match a vital-value combination,
split by the values of one parameter attribute, yields the quantity signal
the masking pipeline works on.  After masking, the file is rewritten by
reassigning the parameter value of randomly chosen surplus records so the
recount equals the masked signal exactly.

Cost model: csv rows load into a list first (a tuple grown from an iterator is
re-walked by every young garbage collection).  Each cell is checked once.  A
table that a caller builds goes through C-level checks (``map``/``set``,
``str.join`` per row) that copy cells only when one is not a ``str``.  Tables
whose cells are ``str`` by construction skip that scan: ``load_csv`` (csv
yields exact ``str`` cells; it checks row widths and unique names itself) and
``apply_plan`` (it swaps one checked ``str`` per moved row, width kept).
Eligibility is one dict lookup per record, once per table and selection, kept
on the table.  ``write_csv`` joins rows in fixed chunks and writes a chunk as
joined when no cell in it needs quoting; a chunk that does goes through
``csv.writer``.
"""

from __future__ import annotations

import collections
import csv
import operator
import random
import types
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DataError, MaskingError


@dataclass(frozen=True)
class MicrofileTable:
    """Immutable table of string cells with a header of unique attribute names."""

    attributes: tuple[str, ...]
    records: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        attributes, records = tuple(self.attributes), tuple(self.records)
        try:
            if set(map(type, records)) - {tuple} or set(map(type, attributes)) - {str}:
                raise TypeError("rows must be tuples and names exact str")
            collections.deque(map("".join, records), maxlen=0)  # str.join rejects a non-str cell, in C
        except TypeError:
            attributes = tuple(map(str, attributes))
            records = tuple([tuple(map(str, row)) for row in records])
        self._fill(attributes, records)
        if len(set(attributes)) != len(attributes):
            raise DataError("attribute names must be unique")
        width = len(attributes)
        if not set(map(len, records)) <= {width}:
            number, row = next((n, row) for n, row in enumerate(records, start=1) if len(row) != width)
            raise DataError(f"record {number} has {len(row)} cells, expected {width}")

    @classmethod
    def _of_str(cls, attributes: tuple[str, ...], records: tuple[tuple[str, ...], ...]) -> MicrofileTable:
        """A table from unique names and header-wide tuples of ``str`` cells, taken as given."""
        table = object.__new__(cls)
        table._fill(attributes, records)
        return table

    def _fill(self, attributes, records) -> None:
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "_eligible", {})  # rows per SelectionSpec; not a field, so ==, hash, repr ignore it

    def __len__(self) -> int:
        return len(self.records)

    def column_index(self, name: str) -> int:
        try:
            return self.attributes.index(name)
        except ValueError:
            raise ConfigurationError(f"unknown attribute {name!r}") from None


@dataclass(frozen=True)
class SelectionSpec:
    """Which records to count and how to split them.

    A record is eligible when every vital attribute carries the matching
    combination value; eligible records are then binned by the value of the
    parameter attribute, in the order given by parameter_values.
    """

    vital_attributes: tuple[str, ...]
    vital_combination: tuple[str, ...]
    parameter_attribute: str
    parameter_values: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "vital_attributes", tuple(str(a) for a in self.vital_attributes))
        object.__setattr__(self, "vital_combination", tuple(str(v) for v in self.vital_combination))
        object.__setattr__(self, "parameter_values", tuple(str(v) for v in self.parameter_values))
        if len(self.vital_attributes) != len(self.vital_combination):
            raise ConfigurationError(
                f"{len(self.vital_attributes)} vital attributes but "
                f"{len(self.vital_combination)} combination values"
            )
        if not self.vital_attributes:
            raise ConfigurationError("at least one vital attribute is required")
        if self.parameter_attribute in self.vital_attributes:
            raise ConfigurationError(f"parameter attribute {self.parameter_attribute!r} is also a vital attribute")
        if len(set(self.parameter_values)) != len(self.parameter_values):
            raise ConfigurationError("parameter values must be distinct")
        if len(self.parameter_values) < 2:
            raise ConfigurationError("need at least two parameter values")


class Move(NamedTuple):
    record: int
    old_value: str
    new_value: str


@dataclass(frozen=True)
class ModificationPlan:
    """Record-level rewrite instructions produced by plan_resynthesis.

    Carries the parameter attribute name so the plan can be applied to a
    table without re-supplying the selection.
    """

    parameter_attribute: str
    moves: tuple[Move, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "moves", tuple([Move(*m) for m in self.moves]))
        seen = set()
        for move in self.moves:
            if isinstance(move.record, bool) or not isinstance(move.record, (int, np.integer)) \
                    or not isinstance(move.old_value, str) or not isinstance(move.new_value, str):
                raise DataError(f"malformed {move!r}: needs an integer record and str values")
            if move.record in seen:
                raise DataError(f"record {move.record} appears in more than one move")
            seen.add(move.record)


def load_csv(source, delimiter: str = ",") -> MicrofileTable:
    """Read a delimited text file, header row first, into a table, cells kept verbatim."""
    try:
        with open(source, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            try:
                first, records = next(reader, None), tuple(list(map(tuple, reader)))
            except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
                raise DataError(f"{source}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{source}: not UTF-8 text ({exc.reason})") from None
    if first is None:
        raise DataError(f"{source}: empty file")
    attributes, width = tuple(first), len(first)
    if not set(map(len, records)) <= {width}:
        number, row = next((n, row) for n, row in enumerate(records, start=2) if len(row) != width)
        raise DataError(f"{source}: row {number} has {len(row)} cells, expected {width}")
    if len(set(attributes)) != width:
        raise DataError(f"{source}: attribute names must be unique")
    return MicrofileTable._of_str(attributes, records)  # csv.reader yields exact str cells


# Rows per joined write: joining the whole file at once would hold a second copy of it.
_WRITE_CHUNK_ROWS = 512


def write_csv(table: MicrofileTable, sink, delimiter: str = ",") -> None:
    """Write header plus records, RFC-style quoting, trailing newline.

    The records go out in chunks of ``_WRITE_CHUNK_ROWS``, each joined by
    delimiter and newline.  The joined text is written as it is when no
    cell needs quoting: a row holds more than one cell (a lone empty cell is
    written ``""``), and no cell holds a quote, a carriage return, a newline
    or the delimiter, which the counts over the text show since every row
    holds exactly one cell per attribute.  Otherwise ``csv.writer`` writes
    the chunk, its "\\r\\n" line terminator cut to "\\n" per row, so that it
    quotes a cell holding a bare carriage return, which a reader ends a line at.
    """
    width = len(table.attributes)
    with open(sink, "w", encoding="utf-8", newline="") as handle:
        lines = types.SimpleNamespace(write=lambda line: handle.write(line[:-2] + "\n"))
        writer = csv.writer(lines, delimiter=delimiter, lineterminator="\r\n")
        writer.writerow(table.attributes)
        records = table.records
        for start in range(0, len(records), _WRITE_CHUNK_ROWS):
            chunk = records[start:start + _WRITE_CHUNK_ROWS]
            text = "\n".join(map(delimiter.join, chunk))
            if width > 1 and '"' not in text and "\r" not in text and text.count("\n") == len(chunk) - 1 \
                    and text.count(delimiter) == len(chunk) * (width - 1):
                handle.write(text)
                handle.write("\n")
            else:
                writer.writerows(chunk)


def _eligible_rows(table: MicrofileTable, spec: SelectionSpec) -> tuple[tuple[int, ...], ...]:
    """Indices of the vital-matching records, one tuple per listed parameter value; one scan per table and spec."""
    return table._eligible.get(spec) or table._eligible.setdefault(spec, _scan_eligible(table, spec))


def _scan_eligible(table: MicrofileTable, spec: SelectionSpec) -> tuple[tuple[int, ...], ...]:
    param_col = table.column_index(spec.parameter_attribute)
    key = operator.itemgetter(*(table.column_index(a) for a in spec.vital_attributes), param_col)
    slot_of = {(*spec.vital_combination, value): i for i, value in enumerate(spec.parameter_values)}
    rows: list[list[int]] = [[] for _ in spec.parameter_values]
    for index, slot in enumerate(map(slot_of.get, map(key, table.records))):
        if slot is not None:
            rows[slot].append(index)
    return tuple(map(tuple, rows))


def extract_quantity_signal(table: MicrofileTable, spec: SelectionSpec) -> np.ndarray:
    """Count vital-matching records per parameter value, in listed order.

    Records whose parameter value is not listed are ignored.
    """
    return np.array([len(rows) for rows in _eligible_rows(table, spec)], dtype=np.int64)


def plan_resynthesis(
    table: MicrofileTable,
    spec: SelectionSpec,
    q,
    q_tilde,
    seed: int = 0,
) -> ModificationPlan:
    """Decide which records change parameter value so the recount equals q_tilde.

    Surplus areas (q_i > q̃_i) give up records chosen uniformly at random
    (deterministically under the seed, areas visited in listed order);
    deficit areas receive them, matched greedily largest surplus to largest
    deficit with ties broken toward the lower index.
    """
    q = np.asarray(q, dtype=np.int64)
    q_tilde = np.asarray(q_tilde, dtype=np.int64)
    m = len(spec.parameter_values)
    if q.shape != (m,) or q_tilde.shape != (m,):
        raise DataError(f"count vectors must have length {m}")
    if q_tilde.min() < 0:
        raise DataError("masked counts must be non-negative")
    if q.sum() != q_tilde.sum():
        raise MaskingError(f"count totals differ: {q.sum()} vs {q_tilde.sum()}; no rewrite can reconcile them")

    actual = extract_quantity_signal(table, spec)
    if not np.array_equal(actual, q):
        raise DataError(f"supplied counts {q.tolist()} do not match the table recount {actual.tolist()}")

    rng = random.Random(seed)
    surplus = {i: int(q[i] - q_tilde[i]) for i in range(m) if q[i] > q_tilde[i]}
    deficit = {i: int(q_tilde[i] - q[i]) for i in range(m) if q_tilde[i] > q[i]}
    pools: dict[int, list[int]] = {}
    for area in sorted(surplus):
        pools[area] = rng.sample(_eligible_rows(table, spec)[area], surplus[area])

    moves: list[tuple[int, str, str]] = []  # ModificationPlan makes each a Move
    while deficit:
        donor = max(surplus, key=lambda i: (surplus[i], -i))
        taker = max(deficit, key=lambda i: (deficit[i], -i))
        batch = min(surplus[donor], deficit[taker])
        # a donor's pool is consumed front to back; what it still owes is its tail
        start = len(pools[donor]) - surplus[donor]
        old, new = spec.parameter_values[donor], spec.parameter_values[taker]
        moves.extend((record, old, new) for record in pools[donor][start:start + batch])
        surplus[donor] -= batch
        deficit[taker] -= batch
        if surplus[donor] == 0:
            del surplus[donor]
        if deficit[taker] == 0:
            del deficit[taker]
    return ModificationPlan(parameter_attribute=spec.parameter_attribute, moves=tuple(moves), seed=seed)


def apply_plan(table: MicrofileTable, plan: ModificationPlan) -> MicrofileTable:
    """Rewrite the planned parameter cells; everything else is untouched."""
    param_col = table.column_index(plan.parameter_attribute)
    records = list(table.records)
    for move in plan.moves:
        if not 0 <= move.record < len(records):
            raise DataError(f"plan names record {move.record}, table has {len(records)}")
        row = records[move.record]
        if row[param_col] != move.old_value:
            raise DataError(
                f"record {move.record} holds {row[param_col]!r}, "
                f"plan expected {move.old_value!r}; the plan is stale"
            )
        records[move.record] = (*row[:param_col], move.new_value, *row[param_col + 1:])
    # each moved row keeps its width and gains a str that ModificationPlan has checked
    return MicrofileTable._of_str(table.attributes, tuple(records))
