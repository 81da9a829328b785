"""Result tables: the float format, the column model and the CSV/JSON writers."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from magictrap import tableio
from magictrap.magic import emit_figure_data
from magictrap.tableio import Column, ResultTable, _json_number, fmt_float


@pytest.mark.parametrize(
    "x, text",
    [
        (0, "0"),
        (0.0, "0"),
        (-0.0, "0"),
        (1e-3, "0.001"),
        (9.99e-4, "9.99000000000e-04"),
        (-1e-3, "-0.001"),
        (1e6, "1.00000000000e+06"),
        (999999.9, "999999.9"),
        (-1e6, "-1.00000000000e+06"),
        (1 / 3, "0.333333333333"),
        (float("nan"), "nan"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (True, "1"),
        (False, "0"),
        (np.True_, "1"),
        (np.False_, "0"),
        (np.float64(0.1), "0.1"),
        (np.float64(-2.5e-7), "-2.50000000000e-07"),
    ],
)
def test_fmt_float(x, text):
    assert fmt_float(x) == text


# the values where fmt_float's format changes, their neighbours, subnormals and the extremes
_EDGES = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
          math.nextafter(0.0, 1.0) * 3, 1e-3, 1e6, 1.7976931348623157e308]
_EDGES += [math.nextafter(x, d) for x in (1e-3, 1e6) for d in (0.0, math.inf)]
_EDGES += [-x for x in _EDGES]
_FLOATS = st.one_of(st.sampled_from(_EDGES), st.floats(), st.floats(-2e6, 2e6), st.floats(-2e-3, 2e-3))


def _outcome(cells):
    """The cells, or the type of the exception that making them raised."""
    try:
        return [repr(v) for v in cells()]
    except TypeError as exc:
        return type(exc)


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=30), elements=_FLOATS))
@example(np.array(_EDGES))
@example(np.array([_EDGES, _EDGES[::-1]]))
@settings(max_examples=300, deadline=None)
def test_float_array_cells_are_fmt_float_cell_by_cell(values):
    """The one-pass float column writes what fmt_float writes, cell by cell.

    A 2-D array has rows, not numbers, for cells: both ways reject it alike.
    """
    col = Column("x", "1", values)
    assert _outcome(col.csv_cells) == _outcome(lambda: [fmt_float(v) for v in col.cells])
    assert _outcome(col.json_cells) == _outcome(lambda: [_json_number(v) for v in col.cells])


@given(hnp.arrays(np.float64, st.integers(0, 40), elements=_FLOATS))
@example(np.array(_EDGES))
@example(np.array([]))
@settings(max_examples=300, deadline=None)
def test_float_texts_is_fmt_float_of_each_cell(values):
    """The one %-format pass plus the mask writes each cell as fmt_float does.

    The mask names exactly the cells outside [1e-3, 1e6) in magnitude: zeros,
    tiny and huge values, nan and infinities.
    """
    texts, others = tableio._float_texts(values)
    assert texts == [fmt_float(x) for x in values]
    assert others == [i for i, x in enumerate(values.tolist()) if not 1e-3 <= abs(x) < 1e6]


@given(st.one_of(
    hnp.arrays(st.sampled_from([np.bool_, np.int64, np.float32]), st.integers(0, 20)),
    st.lists(st.one_of(_FLOATS, st.integers(-10**8, 10**8), st.booleans(), st.text(max_size=4)), max_size=20),
))
@settings(max_examples=200, deadline=None)
def test_other_columns_keep_the_per_cell_path(values):
    col = Column("x", "1", values)
    cells = col.cells
    assert col.csv_cells() == [v if isinstance(v, str) else fmt_float(v) for v in cells]
    assert [repr(v) for v in col.json_cells()] == [repr(v if isinstance(v, str) else _json_number(v)) for v in cells]


def test_unequal_column_lengths_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        ResultTable([Column("a", "1", [1.0, 2.0]), Column("b", "1", np.zeros(3))])


@pytest.mark.parametrize("values", [[], np.array([])])
def test_zero_rows_render_header_only(values):
    table = ResultTable([Column("a", "1", values), Column("b", "MHz", [])], meta={"k": "v"})
    assert table.rows == []
    assert table.to_csv(include_meta=False) == "a[1],b[MHz]\n"
    assert table.to_csv() == "# k = v\na[1],b[MHz]\n"
    doc = json.loads(table.to_json())
    assert doc == {"meta": {"k": "v"}, "columns": [{"name": "a", "unit": "1"}, {"name": "b", "unit": "MHz"}],
                   "rows": []}


def _mixed_table():
    return ResultTable([
        Column("state", "1", ["0,0", "1,1,+", 'say "hi"', "nan"]),
        Column("x", "a.u.", np.array([0.1, -2.5e-7, np.nan, np.inf])),
        Column("y", "MHz", [1e6, -np.inf, 0.0, 1 / 3]),
        Column("flag", "1", np.array([True, False, True, False])),
    ])


def test_csv_and_json_carry_the_same_cells():
    table = _mixed_table()
    csv_rows = list(csv.reader(io.StringIO(table.to_csv(include_meta=False))))
    doc = json.loads(table.to_json(include_meta=False))
    assert csv_rows[0] == ["state[1]", "x[a.u.]", "y[MHz]", "flag[1]"]
    assert len(csv_rows) - 1 == len(doc["rows"]) == 4
    for csv_row, json_row in zip(csv_rows[1:], doc["rows"]):
        # str cells pass through verbatim, even one that reads "nan"
        assert csv_row[0] == json_row[0]
        for text, value in zip(csv_row[1:], json_row[1:]):
            if math.isfinite(float(text)):
                assert float(text) == value
            else:
                assert value is None
    assert [r[0] for r in doc["rows"]] == ["0,0", "1,1,+", 'say "hi"', "nan"]
    assert [r[1:] for r in csv_rows[1:]] == [
        ["0.1", "1.00000000000e+06", "1"],
        ["-2.50000000000e-07", "-inf", "0"],
        ["nan", "0", "1"],
        ["inf", "0.333333333333", "0"],
    ]


def test_json_is_strict():
    text = _mixed_table().to_json()
    assert "NaN" not in text and "Infinity" not in text
    json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in JSON"))


def test_rows_view_holds_python_values():
    rows = _mixed_table().rows
    assert rows[0] == ("0,0", 0.1, 1e6, True)
    assert all(type(v) in (str, float, bool) for row in rows for v in row)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown format"):
        _mixed_table().render("xml")


# ------------------------------------------------------------ the CSV writer

# strings csv.writer must quote, double or keep as they are, and the empty field
_TEXTS = st.one_of(
    st.text(alphabet=st.sampled_from(["a", "Z", " ", ",", '"', "\r", "\n", "-", "1", "+", "é"]), max_size=6),
    st.sampled_from(["", '""', " ", "nan", "0,0", "1,1,+"]),
)


def _csv_writer_text(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(col.header for col in table.columns)
    writer.writerows(zip(*(col.csv_cells() for col in table.columns)))
    return buf.getvalue()


@st.composite
def _tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        name = draw(_TEXTS)
        if draw(st.booleans()):
            values = draw(hnp.arrays(np.float64, n_rows, elements=_FLOATS))
        else:
            values = draw(st.lists(_TEXTS, min_size=n_rows, max_size=n_rows))
        columns.append(Column(name, draw(st.sampled_from(["1", "a.u.", "x,y"])), values))
    return ResultTable(columns, meta={"k": draw(_TEXTS)})


@given(_tables())
@example(ResultTable([Column("x", "1", np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
                                                    math.nextafter(1e-3, 0.0), 1e-3, math.nextafter(1e6, 0.0), 1e6]))]))
@example(ResultTable([Column("s", "1", ["", " ", '"', "\r", "\n", ",", '""', "a b"])]))
@example(ResultTable([Column("s", "1", ["", ""]), Column("t", "1", ["", ""])]))
@example(ResultTable([Column("", "", [])]))
@settings(max_examples=300, deadline=None)
def test_csv_is_what_csv_writer_writes(table):
    assert table.to_csv(include_meta=False) == _csv_writer_text(table)
    assert table.to_csv() == "".join(f"# {k} = {v}\n" for k, v in table.meta.items()) + _csv_writer_text(table)


# ---------------------------------------------------------- indexed columns

@st.composite
def _indexed_columns(draw):
    """(values, index): float, str, bool and plain-list values, each spread by an integer index."""
    kind = draw(st.sampled_from(["float", "str", "bool", "list"]))
    n = draw(st.integers(1, 6))
    if kind == "float":
        values = draw(hnp.arrays(np.float64, n, elements=_FLOATS))
    elif kind == "str":
        values = draw(st.lists(_TEXTS, min_size=n, max_size=n))
    elif kind == "bool":
        values = draw(hnp.arrays(np.bool_, n))
    else:
        values = draw(st.lists(st.floats(-1e7, 1e7), min_size=n, max_size=n))
    index = draw(hnp.arrays(np.intp, st.integers(0, 20), elements=st.integers(0, n - 1)))
    return values, index


@given(_indexed_columns())
@settings(max_examples=200, deadline=None)
def test_indexed_column_is_the_column_it_spreads(values_index):
    values, index = values_index
    indexed = Column("x", "1", values, index)
    plain = Column("x", "1", np.asarray(values)[index])
    assert len(indexed) == len(plain) == len(index)
    # repr, so that nan equals nan
    assert repr(indexed.cells) == repr(plain.cells)
    assert indexed.csv_cells() == plain.csv_cells()
    assert repr(indexed.json_cells()) == repr(plain.json_cells())
    tables = [ResultTable([Column("e", "1", np.arange(len(index), dtype=float)), col]) for col in (indexed, plain)]
    assert repr(tables[0].rows) == repr(tables[1].rows)
    for fmt in ("csv", "json"):
        assert tables[0].render(fmt) == tables[1].render(fmt)


def test_indexed_column_length_is_its_index_length():
    with pytest.raises(ValueError, match="differ in length"):
        ResultTable([Column("a", "1", np.zeros(3)), Column("b", "1", np.zeros(3), np.array([0, 1]))])


def test_fig4_formats_each_axis_value_once(monkeypatch):
    """fig4's 3,640 rows format its 10 fields, 91 angles and 4 state labels once each."""
    table = emit_figure_data("fig4", "KRb")
    formatted, quoted = [], []
    float_texts, csv_field = tableio._float_texts, tableio._csv_field
    monkeypatch.setattr(tableio, "_float_texts", lambda values: formatted.append(len(values)) or float_texts(values))
    monkeypatch.setattr(tableio, "_csv_field", lambda text: quoted.append(text) or csv_field(text))
    for fmt in ("csv", "json"):
        formatted.clear()
        table.render(fmt)
        assert formatted == [10, 91, 10 * 91 * 4]   # E_dc, theta, alpha_eff
    assert len(table.columns[0]) == 10 * 91 * 4
    assert quoted == [col.header for col in table.columns] + ["0,0", "1,0", "1,1,+", "1,1,-"]
