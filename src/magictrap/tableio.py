"""Result tables with unit-tagged columns and reproducible float formatting.

A ``ResultTable`` is a list of equal-length ``Column``s, each holding one
value per row (a numpy array or a list of numbers, bools or strings), or each
distinct value once with an ``index``: row i holds ``values[index[i]]``. Rows
exist only when the table is written (and as the read-only ``rows`` view).

Every emitted number is ``fmt_float`` of it: 12 significant digits,
switching to scientific notation for |x| < 1e-3 or |x| >= 1e6; strings pass
through verbatim. A 1-D float64 column is written by one ``%.12g`` format of
the whole column, which gives each cell the text ``format(x, ".12g")`` does,
and one mask sends only its zero, tiny, huge and non-finite cells through
``fmt_float``.
Identical inputs therefore yield byte-identical CSV/JSON, which the tests
rely on for diffing. CSV rows are joined with ``","``; ``csv.writer`` quotes
the strings that may need it (no number text does). JSON writes a non-finite
number as ``null`` where CSV writes ``nan`` or ``inf``, so that the JSON
stays valid (RFC 8259).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Column", "ResultTable", "fmt_float"]


def fmt_float(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    v = float(x)
    if v == 0.0:
        return "0"
    if math.isnan(v) or math.isinf(v):
        return repr(v)
    if abs(v) < 1e-3 or abs(v) >= 1e6:
        return f"{v:.11e}"
    return f"{v:.12g}"


def _json_number(x):
    # round-trip through the canonical string so JSON carries the same
    # 12-significant-digit values as CSV
    v = float(fmt_float(x))
    return v if math.isfinite(v) else None


def _float_texts(values):
    """``fmt_float`` of each cell of a 1-D float64 array, and the cells it writes other than ``.12g``."""
    # one %-format of the whole column; % and format share the C double-to-text routine
    texts = ("%.12g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    mag = np.abs(values)
    others = np.flatnonzero(~((mag >= 1e-3) & (mag < 1e6))).tolist()   # nan compares False
    for i in others:
        texts[i] = fmt_float(values[i])
    return texts, others


def _spread(items: list, index) -> list:
    return items if index is None else np.array(items, dtype=object)[index].tolist()


_MAY_QUOTE = frozenset('\0\r\n",')   # csv.writer quotes or rejects a field only for these, per Python version


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it among other fields of a row."""
    if _MAY_QUOTE.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


@dataclass(frozen=True)
class Column:
    name: str
    unit: str   # "1" for dimensionless
    values: object   # one value per row: an array or a sequence
    index: object = None   # integers: then row i holds values[index[i]]

    def __len__(self) -> int:
        return len(self.values if self.index is None else self.index)

    @property
    def header(self) -> str:
        return f"{self.name}[{self.unit}]"

    @property
    def cells(self) -> list:
        """The row values as Python scalars (numpy arrays via ``tolist``)."""
        return _spread(self._value_cells(), self.index)

    def _value_cells(self) -> list:
        values = self.values
        return values.tolist() if hasattr(values, "tolist") else list(values)

    @property
    def _is_float_vector(self) -> bool:
        v = self.values
        return isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1

    def _texts(self) -> list:
        if self._is_float_vector:
            return _float_texts(self.values)[0]
        return [v if isinstance(v, str) else fmt_float(v) for v in self._value_cells()]

    def csv_cells(self) -> list:
        return _spread(self._texts(), self.index)

    def json_cells(self) -> list:
        if not self._is_float_vector:
            return _spread([v if isinstance(v, str) else _json_number(v) for v in self._value_cells()], self.index)
        texts, others = _float_texts(self.values)
        numbers = list(map(float, texts))
        for i in others:
            numbers[i] = _json_number(self.values[i])
        return _spread(numbers, self.index)


@dataclass
class ResultTable:
    columns: list
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {col.name: len(col) for col in self.columns}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"columns differ in length: {lengths}")

    @property
    def rows(self) -> list:
        """Read-only view: one tuple of Python values per row."""
        return list(zip(*(col.cells for col in self.columns)))

    def to_csv(self, include_meta: bool = True) -> str:
        lines = [f"# {key} = {value}" for key, value in self.meta.items()] if include_meta else []
        lines.append(",".join(_csv_field(col.header) for col in self.columns))
        # float texts never need quoting; each other text is quoted once, before the index spreads it
        fields = [_spread(col._texts() if col._is_float_vector else list(map(_csv_field, col._texts())), col.index)
                  for col in self.columns]
        rows = map(",".join, zip(*fields))
        # as csv.writer does, a row whose only field is empty is written quoted
        lines += rows if len(fields) != 1 else [row or '""' for row in rows]
        return "\n".join(lines) + "\n"

    def to_json(self, include_meta: bool = True) -> str:
        doc = {
            "columns": [{"name": c.name, "unit": c.unit} for c in self.columns],
            "rows": list(zip(*(col.json_cells() for col in self.columns))),
        }
        if include_meta:
            doc = {"meta": dict(self.meta), **doc}
        return json.dumps(doc, indent=1, allow_nan=False)

    def render(self, fmt: str, include_meta: bool = True) -> str:
        if fmt == "csv":
            return self.to_csv(include_meta)
        if fmt == "json":
            return self.to_json(include_meta)
        raise ValueError(f"unknown format {fmt!r}")
